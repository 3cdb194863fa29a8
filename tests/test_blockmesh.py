"""Graded 1D grids and tensor-product block meshes.

Checks exact mirror symmetry of the graded interval, wall refinement, the
layer-width rule, the face and wall layout of product_mesh against
hand-computed transmissibilities, and the two-point flux structure of the
block's tensor mesh:
symmetry of the interior couplings and the discrete conservation identity
diffusion_matrix @ 1 + boundary_weights = 0 (a constant field has zero
flux divergence against a matching wall value), on the full cube, on
its mirror corner, whose operator is checked by hand in 1-D and 2-D, and
on the corner's permutation wedge, whose orbits, multiplicities and
folded operator are checked by hand in 2-D and against the corner on
symmetric fields in 2-D and 3-D.

FixedPattern's two LU routes are checked against per-call SuperLU with
LU_OPTIONS, the reference they replace.  SuperLU's route (taken with
BAND_WORK set to 0): on random tensor-mesh patterns of one and two
unknowns per cell the ordered factorization solves to 1e-12 of the
reference with its L + U fill within 1%, and on a real block and a real
flood Jacobian the stand-in's order is the one SuperLU computes for the
Jacobian itself.  The band route: on the same random patterns the band LU
solves to 1e-12 of the reference; the Cuthill-McKee pass that stops once
its band exceeds a width decides as the whole pass does; on the real
Jacobians the band order's half-bandwidth is that of scipy's reverse
Cuthill-McKee order; and the bound keeps the block corners and small
floods on the band route and a 48 x 48 flood on SuperLU's.

GMRES on a kept LU (krylov_solve): on the same random patterns, with the
values perturbed, it solves within 1e-10 of a fresh SuperLU solve or
returns None; it returns None at a cap of 0 iterations, zeros for b = 0,
and solves the factored matrix itself in one iteration, also where the
Arnoldi norm is exactly zero.  One Newton solve's solver keeps at most
one LU: on SuperLU's route every earlier LU is dead when the next
factorization starts, and on the band route none outlives its call.  A
short 48 x 48 flood and a 2d wedge nlin run on SuperLU's route agree
with the path that factors every correction (KRYLOV_ITER = 0) to 1e-12,
with equal Newton counts.
"""
import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from dualporo import blockmesh as bm
from dualporo import fvsolver, imbibition
from dualporo import harness as hz


def test_graded_interval_symmetry_and_monotonicity():
    grid = bm.graded_interval(32, 2.0, 0.3)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0
    assert (np.diff(grid.nodes) > 0.0).all()
    mirrored = grid.nodes + grid.nodes[::-1]
    assert np.allclose(mirrored, 2.0, rtol=0.0, atol=1e-14)
    assert grid.n_cells == 32
    assert grid.widths.sum() == pytest.approx(2.0, rel=1e-14)


def test_graded_interval_smallest_grids_keep_one_layer_cell():
    for n_cells in (4, 6):
        grid = bm.graded_interval(n_cells, 1.0, 0.1)
        assert grid.nodes[1] == pytest.approx(0.1, rel=1e-15)  # one layer cell
        assert (np.diff(grid.nodes) > 0.0).all()
        assert grid.nodes[n_cells // 2] == 0.5


def test_graded_interval_refines_toward_walls():
    grid = bm.graded_interval(64, 1.0, 0.25)
    w = grid.widths
    assert w[0] == pytest.approx(w[-1], rel=1e-12)   # mirror symmetry
    assert w[0] < w.max() / 20.0              # strongly graded at the wall
    # widths grow monotonically through the left layer
    n_layer = np.searchsorted(grid.nodes, grid.layer_width)
    assert (np.diff(w[:n_layer]) > 0.0).all()


def test_graded_interval_validation():
    with pytest.raises(ValueError):
        bm.graded_interval(5, 1.0, 0.1)       # odd cell count
    with pytest.raises(ValueError):
        bm.graded_interval(2, 1.0, 0.1)       # too few cells
    with pytest.raises(ValueError):
        bm.graded_interval(16, 1.0, 0.3)      # layer wider than L/4


def test_layer_adapted_grid_rule():
    delta = 0.01
    scale = 1e-4                              # squared diffusion length
    grid = bm.layer_adapted_grid(64, delta, scale)
    assert grid.length == pytest.approx(1.0 - delta, rel=1e-15)
    assert grid.layer_width == pytest.approx(
        min(grid.length / 4.0, bm.LAYER_KAPPA * np.sqrt(scale)), rel=1e-14)
    # a huge diffusion scale caps the layer at a quarter length
    wide = bm.layer_adapted_grid(64, delta, 1.0)
    assert wide.layer_width == pytest.approx(wide.length / 4.0, rel=1e-14)


def test_layer_adapted_grid_validation():
    with pytest.raises(ValueError):
        bm.layer_adapted_grid(64, 1.5, 1e-4)
    with pytest.raises(ValueError):
        bm.layer_adapted_grid(64, 0.1, -1.0)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_tensor_mesh_volume_and_conservation(dimension):
    delta = 0.05
    grid = bm.layer_adapted_grid(8 if dimension == 3 else 16, delta, 1e-3)
    mesh = bm.tensor_mesh(grid, dimension)
    assert mesh.n_cells == grid.n_cells ** dimension
    assert mesh.total_volume == pytest.approx((1.0 - delta) ** dimension,
                                              rel=1e-13)
    assert mesh.centers.shape == (mesh.n_cells, dimension)
    # constant field + matching wall value has zero discrete divergence
    ones = np.ones(mesh.n_cells)
    div = mesh.diffusion_matrix @ ones + mesh.boundary_weights
    scale = np.abs(mesh.boundary_weights).max()
    assert np.abs(div).max() <= 1e-12 * scale


def test_tensor_mesh_symmetry_and_signs():
    grid = bm.layer_adapted_grid(12, 0.1, 1e-3)
    mesh = bm.tensor_mesh(grid, 2)
    a = mesh.diffusion_matrix
    asym = a - a.T
    worst = np.abs(asym.data).max() if asym.nnz else 0.0
    assert worst <= 1e-12 * np.abs(a.data).max()
    off = (a - sp.diags(a.diagonal())).tocsr()
    off.eliminate_zeros()
    assert (off.data >= 0.0).all()            # off-diagonal couplings >= 0
    assert (a.diagonal() < 0.0).all()
    assert (mesh.boundary_weights >= 0.0).all()
    assert (mesh.boundary_weights > 0.0).sum() == 4 * 12 - 4


def test_tensor_mesh_dimension_validation():
    grid = bm.graded_interval(8, 1.0, 0.2)
    with pytest.raises(ValueError):
        bm.tensor_mesh(grid, 4)


def test_corner_mesh_walls_and_copies():
    # uniform 4-cell grid on [0, 1]: the corner is [0, 1/2] in 2 cells of
    # width 1/4; interior faces couple by 1/(1/4) = 4, the wall by 8
    grid = bm.GradedGrid1D(np.linspace(0.0, 1.0, 5), 1.0, 0.25)
    line = bm.tensor_mesh(grid, 1, corner=True)
    assert np.array_equal(line.copies, [2, 2]) and line.n_cells == 2
    assert np.array_equal(line.volumes, [0.25, 0.25])
    assert np.array_equal(line.diffusion_matrix.toarray(),
                          [[-12.0, 4.0], [4.0, -4.0]])
    assert np.array_equal(line.boundary_weights, [8.0, 0.0])
    # 2 x 2 corner cells (y fastest): faces of area 1/4 couple by 1, the
    # xmin wall (cells 0, 1) and the ymin wall (cells 0, 2) by 2
    square = bm.tensor_mesh(grid, 2, corner=True)
    assert np.array_equal(square.copies, [4] * 4) and square.n_cells == 4
    assert np.array_equal(square.diffusion_matrix.toarray(),
                          [[-6.0, 1.0, 1.0, 0.0], [1.0, -4.0, 0.0, 1.0],
                           [1.0, 0.0, -4.0, 1.0], [0.0, 1.0, 1.0, -2.0]])
    assert np.array_equal(square.boundary_weights, [4.0, 2.0, 2.0, 0.0])
    assert np.array_equal(bm.tensor_mesh(grid, 2).copies, [1] * 16)

    delta = 0.05
    graded = bm.layer_adapted_grid(8, delta, 1e-3)
    for dimension in (1, 2, 3):
        mesh = bm.tensor_mesh(graded, dimension, corner=True)
        assert (mesh.copies == 2 ** dimension).all()
        assert mesh.n_cells == 4 ** dimension
        assert mesh.total_volume == pytest.approx(
            ((1.0 - delta) / 2.0) ** dimension, rel=1e-13)
        # Dirichlet coupling exactly on the cells touching a min wall
        on_min_wall = (mesh.centers < graded.nodes[1]).any(axis=1)
        assert np.array_equal(mesh.boundary_weights > 0.0, on_min_wall)
        ones = np.ones(mesh.n_cells)
        div = mesh.diffusion_matrix @ ones + mesh.boundary_weights
        assert np.abs(div).max() <= 1e-12 * mesh.boundary_weights.max()


def test_wedge_mesh_orbits_copies_and_operator():
    # the 2 x 2 corner of the uniform 4-cell grid above: cells (1, 0) and
    # (0, 1) form one orbit, kept as cell 2 of the corner; the wedge's
    # rows are the corner's rows of cells 0, 2 and 3, columns summed by
    # orbit
    grid = bm.GradedGrid1D(np.linspace(0.0, 1.0, 5), 1.0, 0.25)
    reps, orbit = bm.permutation_orbits(2, 2)
    assert np.array_equal(reps, [0, 2, 3])
    assert np.array_equal(orbit, [0, 1, 1, 2])
    wedge = bm.wedge_mesh(grid, 2)
    assert np.array_equal(wedge.copies, [4, 8, 4])
    assert np.array_equal(wedge.diffusion_matrix.toarray(),
                          [[-6.0, 2.0, 0.0], [1.0, -4.0, 1.0],
                           [0.0, 2.0, -2.0]])
    assert np.array_equal(wedge.boundary_weights, [4.0, 2.0, 0.0])
    assert wedge.mean(np.ones(3)) == 1.0
    # 3 cells per axis in 3d: 10 orbits of sizes 1, 3 and 6
    reps, orbit = bm.permutation_orbits(3, 3)
    assert len(reps) == 10
    assert sorted(np.bincount(orbit)) == [1] * 3 + [3] * 6 + [6]
    assert all(i >= j >= k for i, j, k in zip(*np.unravel_index(
        reps, (3, 3, 3))))
    # in 1d the wedge is the corner
    line = bm.wedge_mesh(grid, 1)
    corner = bm.tensor_mesh(grid, 1, corner=True)
    assert np.array_equal(line.diffusion_matrix.toarray(),
                          corner.diffusion_matrix.toarray())
    assert np.array_equal(line.copies, corner.copies)

    # on a graded grid, a field symmetric under the axis permutations:
    # the wedge's operator, means and wall weights are the corner's
    delta = 0.05
    graded = bm.layer_adapted_grid(12, delta, 1e-3)
    rng = np.random.default_rng(3)
    for dimension in (2, 3):
        wedge = bm.wedge_mesh(graded, dimension)
        corner = bm.tensor_mesh(graded, dimension, corner=True)
        reps, orbit = bm.permutation_orbits(6, dimension)
        assert wedge.n_cells == len(reps) == (21, 56)[dimension - 2]
        assert wedge.copies.sum() == 12 ** dimension
        assert np.dot(wedge.copies, wedge.volumes) == pytest.approx(
            (1.0 - delta) ** dimension, rel=1e-13)
        u = rng.uniform(0.0, 1.0, wedge.n_cells)
        v = u[orbit]
        flux = corner.diffusion_matrix @ v
        assert np.abs(wedge.diffusion_matrix @ u - flux[reps]).max() \
            <= 1e-13 * np.abs(flux).max()
        assert wedge.mean(u) == pytest.approx(corner.mean(v), rel=1e-14)
        assert np.dot(wedge.copies * wedge.boundary_weights, u) \
            == pytest.approx(np.dot(corner.copies * corner.boundary_weights,
                                    v), rel=1e-14)


def test_product_mesh_faces_and_walls():
    # 2 x 3 cells, widths (1, 2) by (2, 0.5, 1.5); C order, y fastest
    mesh = bm.product_mesh([[0.0, 1.0, 3.0], [0.0, 2.0, 2.5, 4.0]])
    wx, wy = np.array([1.0, 2.0]), np.array([2.0, 0.5, 1.5])
    assert mesh.dimension == 2 and mesh.shape == (2, 3)
    assert np.array_equal(mesh.volumes, np.outer(wx, wy).reshape(-1))
    assert mesh.total_volume == 12.0
    assert np.array_equal(mesh.centers[4], [2.0, 2.25])
    # x-normal faces first (area wy / distance 1.5), then y-normal
    assert np.array_equal(mesh.face_left, [0, 1, 2, 0, 1, 3, 4])
    assert np.array_equal(mesh.face_right, [3, 4, 5, 1, 2, 4, 5])
    assert np.allclose(mesh.face_trans,
                       np.concatenate((wy / 1.5, [1.0 / 1.25, 1.0,
                                                  2.0 / 1.25, 2.0])),
                       rtol=1e-15, atol=0.0)
    assert list(mesh.boundary) == ["xmin", "xmax", "ymin", "ymax"]
    cells, trans, area = mesh.boundary["xmax"]
    assert np.array_equal(cells, [3, 4, 5])
    assert np.array_equal(area, wy)
    assert np.allclose(trans, wy / 1.0, rtol=1e-15, atol=0.0)
    cells, trans, area = mesh.boundary["ymin"]
    assert np.array_equal(cells, [0, 3])
    assert np.array_equal(area, wx)
    assert np.allclose(trans, wx / 1.0, rtol=1e-15, atol=0.0)
    # one axis: unit extent across
    line = bm.product_mesh([[0.0, 1.0, 3.0]])
    assert set(line.boundary) == {"xmin", "xmax"}
    assert np.array_equal(line.boundary["xmin"][2], [1.0])
    assert np.array_equal(line.face_trans, [1.0 / 1.5])


def test_product_mesh_validation():
    with pytest.raises(ValueError):
        bm.product_mesh([])
    with pytest.raises(ValueError):
        bm.product_mesh([[0.0, 1.0]] * 4)
    with pytest.raises(ValueError):
        bm.product_mesh([[0.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        bm.product_mesh([[0.0]])


# ------------------------------------------------------ ordered LU

def tensor_slots(mesh, unknowns):
    """Slots of a two-point flux matrix with `unknowns` per cell: every
    (unknown, unknown) block holds the diagonal and both couplings of each
    face, as the flood's Jacobian does for (S, P_n)."""
    m = mesh.n_cells
    cells = np.arange(m)
    kl, kr = mesh.face_left, mesh.face_right
    rows = np.concatenate((cells, kl, kr))
    cols = np.concatenate((cells, kr, kl))
    offsets = m * np.arange(unknowns)
    return (np.add.outer(offsets, np.tile(rows, unknowns)).ravel(),
            np.tile(np.add.outer(offsets, cols).ravel(), unknowns))


@st.composite
def pattern_cases(draw):
    dimension = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 6), min_size=dimension,
                          max_size=dimension))
    mesh = bm.product_mesh([np.arange(n + 1.0) for n in shape])
    return mesh, draw(st.sampled_from((1, 2))), draw(st.integers(0, 2**32))


def pattern_matrix(case):
    """Slots, values and the reference CSC matrix of a pattern case:
    values weighted toward the diagonal, off-diagonal slots in (-1, 1),
    diagonals 0.5 to 2 times their row's off-diagonal sum, either sign."""
    mesh, unknowns, seed = case
    rng = np.random.default_rng(seed)
    rows, cols = tensor_slots(mesh, unknowns)
    n = unknowns * mesh.n_cells
    vals = rng.uniform(-1.0, 1.0, len(rows))
    diag = rows == cols
    vals[diag] = 0.0
    off = np.bincount(rows, weights=np.abs(vals), minlength=n)
    vals[diag] = (off[rows[diag]] + 1.0) * rng.uniform(0.5, 2.0, diag.sum()) \
        * rng.choice((-1.0, 1.0), diag.sum())
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    return rows, cols, vals, ref, rng


@settings(max_examples=60, deadline=None)
@given(pattern_cases())
def test_superlu_route_matches_per_call_superlu(case):
    rows, cols, vals, ref, rng = pattern_matrix(case)
    n = ref.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bm, "BAND_WORK", 0)
        pattern = bm.FixedPattern(rows, cols, (n, n))
    assert pattern.band is None
    order = pattern.order
    mat = pattern.fill(vals)
    assert np.array_equal(mat.toarray(), ref.toarray()[np.ix_(order, order)])
    lu = pattern.factor(mat, splu)
    lu_ref = splu(ref, **bm.LU_OPTIONS)
    b = rng.standard_normal(n)
    x, x_ref = np.empty(n), lu_ref.solve(b)
    x[order] = lu.solve(b[order])          # the LU is in the stored order
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    fill = lu.L.nnz + lu.U.nnz
    fill_ref = lu_ref.L.nnz + lu_ref.U.nnz
    assert abs(fill - fill_ref) <= 0.01 * fill_ref


def half_bandwidth(mat, order):
    rank = np.argsort(order)
    entries = mat.tocoo()
    return int(np.abs(rank[entries.row] - rank[entries.col]).max())


@settings(max_examples=60, deadline=None)
@given(pattern_cases())
def test_band_lu_matches_per_call_superlu(case):
    rows, cols, vals, ref, rng = pattern_matrix(case)
    n = ref.shape[0]
    pattern = bm.FixedPattern(rows, cols, (n, n))
    order = pattern.order
    kl = half_bandwidth(ref, order)
    assert pattern.band == (kl, kl)
    assert n * kl ** 2 < bm.BAND_WORK
    assert np.array_equal(np.sort(order), np.arange(n))
    mat = pattern.fill(vals)
    assert np.array_equal(mat.toarray(), ref.toarray()[np.ix_(order, order)])
    lu = pattern.factor(mat, splu)
    assert isinstance(lu, bm.BandLU)
    b = rng.standard_normal(n)
    x, x_ref = np.empty(n), splu(ref, **bm.LU_OPTIONS).solve(b)
    x[order] = lu.solve(b[order])          # the LU is in the stored order
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


@settings(max_examples=60, deadline=None)
@given(pattern_cases(), st.floats(0.0, 2.0))
def test_band_order_stops_as_the_whole_pass_decides(case, fraction):
    # the pass that stops once n kl^2 reaches a bound returns None exactly
    # when the whole pass's band does, and else the same order
    _, _, _, ref, _ = pattern_matrix(case)
    n = ref.shape[0]
    whole = bm._band_order(ref, n ** 3 + 1)
    band_work = n * half_bandwidth(ref, whole) ** 2
    work = round(fraction * band_work)
    stopped = bm._band_order(ref, work)
    if band_work >= work:
        assert stopped is None
    else:
        assert np.array_equal(stopped, whole)


def superlu_order(mat, order):
    """SuperLU's LU_OPTIONS order of a pattern's matrix, computed on the
    matrix itself, unpermuted."""
    rank = np.argsort(order)
    return np.argsort(splu(mat[rank][:, rank], **bm.LU_OPTIONS).perm_c)


def test_stand_in_order_is_superlu_order_of_real_jacobians(monkeypatch):
    # the last Jacobian a coarse sim1 nlin run and a 12 x 12 flood factor
    # on SuperLU's route
    factored = []

    def recording_splu(mat, **options):
        factored.append(mat.copy())
        return splu(mat, **options)

    monkeypatch.setattr(bm, "BAND_WORK", 0)
    for module in (imbibition, fvsolver):
        monkeypatch.setattr(module, "splu", recording_splu)
    cfg = dataclasses.replace(hz.get_preset("sim1"), n_steps=8)
    problem = cfg.block_problem(0.1)
    mesh = problem.build_mesh()
    imbibition.run_trajectory(problem, mesh)
    stepper = imbibition.BlockStepper(mesh, 0.3, problem.k_eff)
    order = stepper.pattern.order
    assert np.array_equal(superlu_order(factored[-1], order), order)

    solver, times, _ = hz.build_flood(hz.FloodConfig(
        nx=12, ny=12, t_end_days=2.0, n_steps=4, snapshot_days=()))
    solver.run(0.05, 1e6, times)
    order = solver.assembler.pattern.order
    assert len(order) == 288
    assert np.array_equal(superlu_order(factored[-1], order), order)


def test_band_order_of_real_jacobians_and_the_route_bound(factored):
    # the first Jacobian a coarse sim1 nlin run (the 136-cell wedge of a
    # 16 x 16 corner) and the last a 12 x 12 flood factor on the band
    # route: the band order's half-bandwidth is that of scipy's reverse
    # Cuthill-McKee order (9 and 25); 3d corners of 8^3 and 12^3 cells,
    # the wedges of 3d corners up to 26^3 (52 cells per axis, 3,276 wedge
    # cells, kl = 95) and a 32 x 32 flood are band patterns too, and a
    # 13^3 corner (n kl^2 = 3.9e7), the wedge of a 27^3 corner and a
    # 48 x 48 flood (4.3e7) are not
    cfg = dataclasses.replace(hz.get_preset("sim1"), n_steps=8,
                              mesh_cells=32)
    imbibition.run_trajectory(cfg.block_problem(0.1))
    solver, times, _ = hz.build_flood(hz.FloodConfig(
        nx=12, ny=12, t_end_days=2.0, n_steps=4, snapshot_days=()))
    solver.run(0.05, 1e6, times)
    assert factored[0][1].band == (9, 9)
    assert factored[-1][1].band == (25, 25)
    for mat, pattern in (factored[0], factored[-1]):
        rank = np.argsort(pattern.order)
        natural = mat[rank][:, rank]
        rcm = reverse_cuthill_mckee(natural.tocsr(), symmetric_mode=True)
        assert pattern.band[0] == half_bandwidth(natural, rcm)

    for cells, banded in ((16, True), (24, True), (26, False)):
        mesh = bm.tensor_mesh(bm.layer_adapted_grid(cells, 0.1, 1e-3), 3,
                              corner=True)
        pattern = imbibition.BlockStepper(mesh, 0.3, 1.0).pattern
        assert (pattern.band is not None) == banded
    for cells, banded in ((48, True), (52, True), (54, False)):
        mesh = bm.wedge_mesh(bm.layer_adapted_grid(cells, 0.1, 1e-3), 3)
        pattern = imbibition.BlockStepper(mesh, 0.3, 1.0).pattern
        assert (pattern.band is not None) == banded
    for nx, banded in ((32, True), (48, False)):
        solver, _, _ = hz.build_flood(hz.FloodConfig(nx=nx, ny=nx))
        assert (solver.assembler.pattern.band is not None) == banded


# ------------------------------------------------ GMRES on kept factors

@settings(max_examples=60, deadline=None)
@given(pattern_cases(), st.floats(1e-6, 0.3))
def test_krylov_solve_on_a_kept_lu(case, size):
    # GMRES right-preconditioned by the LU of one matrix of a random
    # pattern (SuperLU's route), on a matrix whose values are perturbed by
    # up to `size` relative: its solution is within 1e-10 of a fresh
    # SuperLU solve, with a true residual within KRYLOV_RTOL, or it returns
    # None.  A cap of 0 iterations returns None, b = 0 returns zeros, and
    # the factored matrix itself is solved in one iteration
    rows, cols, vals, _, rng = pattern_matrix(case)
    n = rows.max() + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bm, "BAND_WORK", 0)
        pattern = bm.FixedPattern(rows, cols, (n, n))
    kept = pattern.factor(pattern.fill(vals), splu)
    b = rng.standard_normal(n)
    mat = pattern.fill(vals * (1.0 + size * rng.uniform(-1.0, 1.0,
                                                        len(vals))))
    x = bm.krylov_solve(mat, b, kept, bm.KRYLOV_ITER)
    if x is not None:
        x_ref = splu(mat, **bm.LU_OPTIONS).solve(b)
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
        assert np.linalg.norm(b - mat @ x) \
            <= bm.KRYLOV_RTOL * np.linalg.norm(b)
    assert bm.krylov_solve(mat, b, kept, 0) is None
    zero = bm.krylov_solve(mat, np.zeros(n), kept, bm.KRYLOV_ITER)
    assert np.array_equal(zero, np.zeros(n))

    mat = pattern.fill(vals)
    x = bm.krylov_solve(mat, b, kept, 1)
    x_ref = kept.solve(b)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


@settings(max_examples=30, deadline=None)
@given(pattern_cases())
def test_krylov_solve_ends_on_an_exact_breakdown(case):
    # a diagonal matrix of powers of two in the pattern, its own LU and a
    # scaled unit vector b: the LU solve and the product are exact, so
    # the first Arnoldi vector's remainder is exactly zero.  GMRES stops
    # there with the exact solution and divides by no zero norm (a
    # warning fails the test)
    rows, cols, _, _, rng = pattern_matrix(case)
    n = rows.max() + 1
    diag = rng.choice((-1.0, 1.0), n) * 2.0 ** rng.integers(-4, 5, n)
    vals = np.where(rows == cols, diag[rows], 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bm, "BAND_WORK", 0)
        pattern = bm.FixedPattern(rows, cols, (n, n))
    mat = pattern.fill(vals)
    kept = pattern.factor(mat, splu)
    b = np.zeros(n)
    b[rng.integers(n)] = 2.0 ** rng.integers(-4, 5)
    x = bm.krylov_solve(mat, b, kept, bm.KRYLOV_ITER)
    assert np.array_equal(x, b / mat.diagonal())


class WeakLU:
    """An LU behind an object that a weak reference can watch."""

    def __init__(self, lu):
        self.solve = lu.solve


@pytest.mark.parametrize("band_work", [0, bm.BAND_WORK])
def test_a_newton_solve_keeps_at_most_one_lu(monkeypatch, band_work):
    # one solver given a matrix, the same matrix again and two far from
    # it, with one GMRES iteration allowed: on SuperLU's route the second
    # is solved on the kept LU and the others are factored, each once
    # every earlier LU is dead, and only the kept LU outlives a call; on
    # the band route each is factored and no LU outlives its call.  Every
    # x solves its matrix in the unknowns' own order
    monkeypatch.setattr(bm, "BAND_WORK", band_work)
    monkeypatch.setattr(bm, "KRYLOV_ITER", 1)
    mesh = bm.product_mesh([np.arange(5.0), np.arange(4.0)])
    rows, cols, vals, _, rng = pattern_matrix((mesh, 2, 7))
    n = 2 * mesh.n_cells
    pattern = bm.FixedPattern(rows, cols, (n, n))
    superlu = pattern.band is None
    assert superlu == (band_work == 0)
    lus = []

    def watched(make):
        def factor(*args, **kwargs):
            assert all(lu() is None for lu in lus)
            lu = WeakLU(make(*args, **kwargs))
            lus.append(weakref.ref(lu))
            return lu
        return factor

    if superlu:
        solve = pattern.solver(watched(splu))
    else:
        pattern.factor = watched(pattern.factor)
        solve = pattern.solver(splu)
    far = [vals * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, len(vals)))
           for _ in range(2)]
    b = rng.standard_normal(n)
    for v in [vals, vals] + far:
        x = solve(pattern.fill(v), b)
        ref = sp.coo_matrix((v, (rows, cols)), shape=(n, n)).tocsc()
        x_ref = splu(ref, **bm.LU_OPTIONS).solve(b)
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
        alive = [lu() is not None for lu in lus]
        assert alive == [False] * (len(lus) - superlu) + [True] * superlu
    assert len(lus) == (3 if superlu else 4)
    del solve
    assert all(lu() is None for lu in lus)


def test_kept_lu_flood_agrees_with_one_lu_per_correction(monkeypatch,
                                                         krylov):
    # the agreement gate of the kept LU: a short 48 x 48 flood (SuperLU's
    # route by default) with KRYLOV_ITER 10 and 0 takes the same steps and
    # Newton corrections, and its fields agree within 1e-12 relative
    # (measured 6e-16)
    cfg = hz.FloodConfig(nx=48, ny=48, source_model="fixed", n_steps=4,
                         t_end_days=1.25, snapshot_days=())
    res = hz.run_flood(cfg)
    assert len(krylov) > 0
    monkeypatch.setattr(bm, "KRYLOV_ITER", 0)
    ref = hz.run_flood(cfg)
    assert [st.newton_iters for st in res.steps] \
        == [st.newton_iters for st in ref.steps]
    assert np.array_equal(res.times_hist, ref.times_hist)
    for field in ("saturation", "pressure_n", "pressure_w"):
        a, b = getattr(res, field), getattr(ref, field)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), field


def test_kept_lu_nlin_agrees_with_one_lu_per_correction(monkeypatch,
                                                        krylov):
    # the same gate on a 2d wedge nlin run on SuperLU's route: equal
    # Newton iterations and substeps, and the volume and flux series
    # within 1e-12 relative (max-norm)
    monkeypatch.setattr(bm, "BAND_WORK", 0)
    cfg = dataclasses.replace(hz.get_preset("sim1"), n_steps=16,
                              mesh_cells=32)
    problem = cfg.block_problem(0.1)
    sol = imbibition.run_trajectory(problem)
    assert len(krylov) > 0
    monkeypatch.setattr(bm, "KRYLOV_ITER", 0)
    ref = imbibition.run_trajectory(problem)
    assert (sol.newton_iterations, sol.substeps) \
        == (ref.newton_iterations, ref.substeps)
    for form in (imbibition.exchange_from_volume,
                 imbibition.exchange_from_flux):
        a, b = form(sol, problem).values, form(ref, problem).values
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), form
