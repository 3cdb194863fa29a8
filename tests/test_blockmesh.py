"""Graded 1D grids and tensor-product block meshes.

Checks exact mirror symmetry of the graded interval, wall refinement, the
layer-width rule, the face and wall layout of product_mesh against
hand-computed transmissibilities, and the two-point flux structure of the
block's tensor mesh:
symmetry of the interior couplings and the discrete conservation identity
diffusion_matrix @ 1 + boundary_weights = 0 (a constant field has zero
flux divergence against a matching wall value), on the full cube and on
its mirror corner, whose operator is checked by hand in 1-D and 2-D.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from dualporo import blockmesh as bm


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


def test_graded_interval_zero_strength_is_uniform():
    grid = bm.graded_interval(16, 1.0, 0.1,
                              bm.GradingParams(strength=0.0))
    assert np.allclose(grid.nodes, np.linspace(0.0, 1.0, 17), atol=1e-15)


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
    with pytest.raises(ValueError):
        bm.graded_interval(16, 1.0, 0.1,
                           bm.GradingParams(strength=-1.0))


def test_layer_adapted_grid_rule():
    delta = 0.01
    scale = 1e-4                              # squared diffusion length
    grid = bm.layer_adapted_grid(64, delta, scale)
    assert grid.length == pytest.approx(1.0 - delta, rel=1e-15)
    kappa = bm.GradingParams().kappa
    assert grid.layer_width == pytest.approx(
        min(grid.length / 4.0, kappa * np.sqrt(scale)), rel=1e-14)
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
    grid = bm.graded_interval(4, 1.0, 0.25, bm.GradingParams(strength=0.0))
    line = bm.tensor_mesh(grid, 1, corner=True)
    assert line.copies == 2 and line.n_cells == 2
    assert np.array_equal(line.volumes, [0.25, 0.25])
    assert np.array_equal(line.diffusion_matrix.toarray(),
                          [[-12.0, 4.0], [4.0, -4.0]])
    assert np.array_equal(line.boundary_weights, [8.0, 0.0])
    # 2 x 2 corner cells (y fastest): faces of area 1/4 couple by 1, the
    # xmin wall (cells 0, 1) and the ymin wall (cells 0, 2) by 2
    square = bm.tensor_mesh(grid, 2, corner=True)
    assert square.copies == 4 and square.n_cells == 4
    assert np.array_equal(square.diffusion_matrix.toarray(),
                          [[-6.0, 1.0, 1.0, 0.0], [1.0, -4.0, 0.0, 1.0],
                           [1.0, 0.0, -4.0, 1.0], [0.0, 1.0, 1.0, -2.0]])
    assert np.array_equal(square.boundary_weights, [4.0, 2.0, 2.0, 0.0])
    assert bm.tensor_mesh(grid, 2).copies == 1

    delta = 0.05
    graded = bm.layer_adapted_grid(8, delta, 1e-3)
    for dimension in (1, 2, 3):
        mesh = bm.tensor_mesh(graded, dimension, corner=True)
        assert mesh.copies == 2 ** dimension
        assert mesh.n_cells == 4 ** dimension
        assert mesh.total_volume == pytest.approx(
            ((1.0 - delta) / 2.0) ** dimension, rel=1e-13)
        # Dirichlet coupling exactly on the cells touching a min wall
        on_min_wall = (mesh.centers < graded.nodes[1]).any(axis=1)
        assert np.array_equal(mesh.boundary_weights > 0.0, on_min_wall)
        ones = np.ones(mesh.n_cells)
        div = mesh.diffusion_matrix @ ones + mesh.boundary_weights
        assert np.abs(div).max() <= 1e-12 * mesh.boundary_weights.max()


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
