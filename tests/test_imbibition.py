"""Block imbibition: time grids, problem setup, and exchange extraction.

Oracles used here:

  * a block in capillary equilibrium with a constant wall value is an
    exact fixed point of the backward-Euler scheme (zero Newton
    iterations, exactly constant mean, exactly zero wall flux);
  * summing the discrete equations over the cells ties the volume and
    flux forms of the exchange together: exactly for the linear solver,
    to Newton tolerance for the nonlinear one;
  * a monotone wall drive keeps the exchange one-signed and the block
    mean monotone (discrete maximum principle of the M-matrix scheme);
  * a step taken in two halves after a Newton failure equals a run on
    the time grid refined there;
  * the block solved on its mirror corner equals the full-cube solve to
    roundoff, with the same Newton iterations and substeps, and the
    Jacobian filled into the stepper's fixed pattern equals the one
    sparse arithmetic builds, entry for entry, and the block's matrices
    factored with LU_OPTIONS solve as with SuperLU's default ordering;
  * the variable linearization solved in physical time and through the
    change of time variable are the same linear systems up to scaling,
    so their histories agree to factorization roundoff.
"""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from dualporo import blockmesh as bm
from dualporo import imbibition
from dualporo import timegrid
from dualporo.harness import get_preset, list_presets
from dualporo.imbibition import (BlockProblem, BlockStepper, ExchangeSeries,
                                 NewtonFailure, NewtonOptions,
                                 exchange_from_flux, exchange_from_volume,
                                 run_trajectory)
from dualporo.linearized import (run_constant_linearized,
                                 run_variable_linearized)

DAY = 86400.0


# ----------------------------------------------------------------- grids

def test_uniform_times_layout():
    t = timegrid.uniform_times(10.0, 5)
    assert t.shape == (6,)
    assert t[0] == 0.0 and t[-1] == 10.0
    assert np.allclose(np.diff(t), 2.0, rtol=0.0, atol=1e-15)


def test_uniform_times_validation():
    with pytest.raises(ValueError):
        timegrid.uniform_times(10.0, 0)
    with pytest.raises(ValueError):
        timegrid.uniform_times(-1.0, 4)


def test_blocked_geometric_times_land_exactly_on_the_horizon():
    t = timegrid.blocked_geometric_times(100.0, 0.5, block_len=8, growth=1.3)
    assert t[0] == 0.0
    assert t[-1] == 100.0
    assert (np.diff(t) > 0.0).all()


def test_blocked_geometric_step_grows_between_blocks():
    t = timegrid.blocked_geometric_times(1.0e4, 1.0, block_len=4, growth=1.5)
    dt = np.diff(t)
    assert np.allclose(dt[:4], 1.0, rtol=1e-15)
    assert np.allclose(dt[4:8], 1.5, rtol=1e-15)


def test_blocked_geometric_validation():
    with pytest.raises(ValueError):
        timegrid.blocked_geometric_times(1.0, -0.1)
    with pytest.raises(ValueError):
        timegrid.blocked_geometric_times(1.0, 0.1, growth=0.9)


def test_midpoints():
    mid = timegrid.midpoints(np.array([0.0, 1.0, 3.0]))
    assert np.array_equal(mid, [0.5, 2.0])


# --------------------------------------------------------- problem setup

def make_problem(cset, delta=0.1, dimension=2, n_steps=20, t_end=10.0 * DAY,
                 boundary=None, mesh_cells=16, **kw):
    if boundary is None:
        def boundary(t):
            # monotone fracture-saturation ramp 0.05 -> 0.95
            return 0.05 + 0.90 * (t / t_end)
    return BlockProblem(delta=delta, dimension=dimension, cset=cset,
                        boundary=boundary,
                        times=timegrid.uniform_times(t_end, n_steps),
                        mesh_cells=mesh_cells, **kw)


def test_problem_validates_times_and_delta(sim1_cset):
    bad = np.array([0.0, 1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        BlockProblem(delta=0.1, dimension=2, cset=sim1_cset,
                     boundary=lambda t: 0.5, times=bad)
    with pytest.raises(ValueError):
        BlockProblem(delta=1.0, dimension=2, cset=sim1_cset,
                     boundary=lambda t: 0.5, times=np.array([0.0, 1.0]))


def test_block_permeability_scales_with_delta_squared(sim1_cset):
    p = make_problem(sim1_cset, delta=0.05)
    expected = 0.05 ** 2 * sim1_cset.matrix.permeability
    assert p.k_eff == pytest.approx(expected, rel=1e-15)


def test_default_initial_state_is_wall_equilibrium(sim1_cset):
    p = make_problem(sim1_cset)
    assert p.s_init == pytest.approx(sim1_cset.transfer(0.05), rel=1e-14)
    q = make_problem(sim1_cset, initial_saturation=0.3)
    assert q.s_init == 0.3


def test_wall_value_composes_transfer_with_boundary(sim1_cset):
    p = make_problem(sim1_cset, boundary=lambda t: 0.4)
    assert p.wall_value(123.0) == pytest.approx(sim1_cset.transfer(0.4),
                                                rel=1e-14)


# ------------------------------------------------------- solver behavior

def test_constant_boundary_is_a_rest_state(sim1_cset):
    p = make_problem(sim1_cset, boundary=lambda t: 0.4, n_steps=8)
    sol = run_trajectory(p)
    assert sol.newton_iterations == 0
    assert np.all(sol.mean_saturation == sol.mean_saturation[0])
    assert np.all(sol.flux_integrals == 0.0)
    q = exchange_from_volume(sol, p)
    assert np.all(q.values == 0.0)


def test_monotone_drive_gives_signed_exchange(sim1_cset):
    p = make_problem(sim1_cset, n_steps=24)
    sol = run_trajectory(p)
    assert sol.newton_iterations > 0
    assert sol.substeps == 24
    assert (np.diff(sol.mean_saturation) >= 0.0).all()
    assert (exchange_from_volume(sol, p).values <= 0.0).all()
    assert (exchange_from_flux(sol, p).values <= 0.0).all()


def test_block_field_obeys_maximum_principle(sim1_cset):
    p = make_problem(sim1_cset, n_steps=24)
    sol = run_trajectory(p, store_fields=True)
    lo = p.s_init - 1e-12
    hi = p.wall_value(float(p.times[-1])) + 1e-12
    for field in sol.fields:
        assert field.min() >= lo
        assert field.max() <= hi


def test_volume_and_flux_exchange_agree_to_newton_tolerance(sim1_cset):
    p = make_problem(sim1_cset, n_steps=24)
    sol = run_trajectory(p)
    qv = exchange_from_volume(sol, p)
    qf = exchange_from_flux(sol, p)
    scale = np.abs(qv.values).max()
    assert np.abs(qv.values - qf.values).max() <= 1e-6 * scale


def test_linear_solve_volume_flux_identity_is_exact(sim1_cset):
    p = make_problem(sim1_cset, n_steps=24)
    sol = run_constant_linearized(p)
    qv = exchange_from_volume(sol, p, method="clin")
    qf = exchange_from_flux(sol, p, method="clin")
    scale = np.abs(qv.values).max()
    assert np.abs(qv.values - qf.values).max() <= 1e-10 * scale


def test_newton_failure_surfaces_after_dt_halvings(sim1_cset):
    p = make_problem(sim1_cset, n_steps=2, mesh_cells=8)
    opts = NewtonOptions(rtol=1e-10, max_iter=0, max_halvings=2)
    with pytest.raises(NewtonFailure):
        run_trajectory(p, opts=opts)


def test_halved_steps_match_the_refined_grid(sim1_cset, monkeypatch):
    # report intervals 3-6 refuse their full step, so each is taken in
    # two halves; the run must equal a run on the grid refined there
    p = make_problem(sim1_cset, n_steps=10, mesh_cells=8)
    mesh = p.build_mesh()
    times = p.times
    dt_report = times[1] - times[0]
    clock = [float(times[0])]
    newton_step = BlockStepper.newton_step

    def failing(self, s_old, dt, *args):
        k = np.searchsorted(times, clock[0] + 1e-6 * dt_report,
                            side="right") - 1
        if 3 <= k <= 6 and dt > 0.6 * dt_report:
            raise NewtonFailure("forced failure")
        out = newton_step(self, s_old, dt, *args)
        clock[0] += dt
        return out

    refined = np.sort(np.concatenate(
        (times, times[3:7] + 0.5 * (times[4:8] - times[3:7]))))
    ref = run_trajectory(dataclasses.replace(p, times=refined), mesh)
    plain = run_trajectory(p, mesh)
    monkeypatch.setattr(BlockStepper, "newton_step", failing)
    sol = run_trajectory(p, mesh)

    assert sol.substeps == plain.substeps + 4 == ref.substeps
    at_reports = np.isin(refined, times)
    assert np.abs(sol.mean_saturation
                  - ref.mean_saturation[at_reports]).max() <= 1e-12
    assert np.abs(sol.final_field - ref.final_field).max() <= 1e-12


@pytest.mark.parametrize("preset", list_presets())
def test_corner_matches_full_cube(preset):
    solvers = {
        "nlin": run_trajectory,
        "clin": run_constant_linearized,
        "vlin": lambda p, mesh: run_variable_linearized(p, mesh)[0],
    }
    for dimension, cells in ((1, 16), (2, 16), (3, 8)):
        for delta in (0.1, 0.001):
            if dimension == 3 and (delta != 0.1 or preset != "sim1"):
                continue
            cfg = dataclasses.replace(get_preset(preset), n_steps=24,
                                      dimension=dimension, mesh_cells=cells)
            p = cfg.block_problem(delta)
            corner = p.build_mesh()
            assert corner.copies == 2 ** dimension
            full = bm.tensor_mesh(corner.grid, dimension)
            for method, solve in solvers.items():
                a, b = solve(p, corner), solve(p, full)
                assert a.newton_iterations == b.newton_iterations
                assert a.substeps == b.substeps
                for make in (exchange_from_volume, exchange_from_flux):
                    qa = make(a, p, method).values
                    qb = make(b, p, method).values
                    err = np.abs(qa - qb).max() / np.abs(qb).max()
                    assert err <= 1e-9, (method, dimension, delta, err)


def test_lu_ordering_matches_default_ordering(monkeypatch):
    # every matrix of a 2d corner run (nlin Jacobians and vlin step
    # matrices, 256 cells), solved with LU_OPTIONS and with SuperLU's
    # default ordering (COLAMD, which LU_OPTIONS replaced)
    matrices = []

    def recording_splu(jac, **options):
        matrices.append(jac.copy())
        return splu(jac, **options)

    monkeypatch.setattr(imbibition, "splu", recording_splu)
    cfg = dataclasses.replace(get_preset("sim1"), n_steps=16, mesh_cells=32)
    p = cfg.block_problem(0.1)
    run_trajectory(p)
    run_variable_linearized(p)
    assert len(matrices) >= 32
    rhs = np.random.default_rng(5).standard_normal(matrices[0].shape[0])
    for jac in matrices:
        x = splu(jac, **bm.LU_OPTIONS).solve(rhs)
        x_ref = splu(jac).solve(rhs)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


@st.composite
def jacobian_cases(draw):
    dimension = draw(st.integers(1, 3))
    cells = draw(st.sampled_from((4, 6) if dimension == 3 else (4, 8, 12)))
    grid = bm.layer_adapted_grid(cells, draw(st.floats(0.001, 0.5)),
                                 draw(st.floats(1e-8, 1.0)))
    mesh = bm.tensor_mesh(grid, dimension, corner=draw(st.booleans()))
    positive = st.floats(1e-12, 1e3)
    m = mesh.n_cells
    alpha = np.array(draw(st.lists(positive, min_size=m, max_size=m)))
    acc = np.array(draw(st.lists(positive, min_size=m, max_size=m)))
    return mesh, draw(positive), acc, alpha


@settings(max_examples=100, deadline=None)
@given(jacobian_cases())
def test_fixed_pattern_jacobian_matches_sparse_arithmetic(case):
    mesh, k_eff, acc, alpha = case
    stepper = BlockStepper(mesh, 0.3, k_eff)
    d = mesh.diffusion_matrix
    stepper.jacobian(2.0 * acc, 1.0 + alpha)     # overwritten below
    jac = stepper.jacobian(acc, alpha)
    ref = (sp.diags(acc) - k_eff * d.multiply(alpha[None, :])).tocsc()
    assert jac.nnz == ref.nnz == d.nnz
    assert np.array_equal(jac.toarray(), ref.toarray())


# --------------------------------------------------------- series object

def test_exchange_series_per_delta_and_restriction():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([-1.0, -2.0, -3.0, -4.0])
    s = ExchangeSeries(t, v, "nlin", 0.5)
    ps = s.per_delta()
    assert ps.divided_by_delta
    assert np.array_equal(ps.values, v / 0.5)
    assert ps.per_delta() is ps
    r = ps.restricted(1.5, 3.5)
    assert np.array_equal(r.times, [2.0, 3.0])
    assert np.array_equal(r.values, [-4.0, -6.0])


def test_exchange_series_validation():
    with pytest.raises(ValueError):
        ExchangeSeries(np.array([1.0]), np.array([1.0]), "quadratic", 0.5)
    with pytest.raises(ValueError):
        ExchangeSeries(np.array([1.0, 2.0]), np.array([1.0]), "nlin", 0.5)
