"""Block imbibition: time grids, problem setup, and exchange extraction.

Oracles used here:

  * a block in capillary equilibrium with a constant wall value is an
    exact fixed point of the backward-Euler scheme (zero Newton
    iterations, exactly constant mean, exactly zero wall flux);
  * summing the discrete equations over the cells ties the volume and
    flux forms of the exchange together: exactly for the linear solver,
    to Newton tolerance for the nonlinear one;
  * every accepted nlin step meets the block's fixed Newton stop, its
    residual recomputed from the returned field;
  * a monotone wall drive keeps the exchange one-signed and the block
    mean monotone (discrete maximum principle of the M-matrix scheme);
  * a step taken in two halves after a Newton failure equals a run on
    the time grid refined there; the step controller's attempts follow
    its one policy: the whole interval first, halving on failure down to
    span / 2**MAX_HALVINGS, doubling after success, and a fresh start at
    every report interval;
  * newton_solve on x**2 = a takes Heron's iteration count to the root,
    and each of its failures (singular Jacobian, NaN correction, stall,
    iteration cap) raises NewtonFailure after the stated number of
    factorizations; the stall exit keeps the failed nlin attempts of a
    coarse sim1 run to a third of its LUs;
  * the block solved on its mirror corner equals the full-cube solve to
    roundoff, with the same Newton iterations and substeps, and the
    Jacobian filled into the stepper's fixed pattern equals the one
    sparse arithmetic builds, permuted into the pattern's order, entry for
    entry, and the block's matrices
    factored with LU_OPTIONS solve as with SuperLU's default ordering;
  * the variable linearization solved in physical time and through the
    change of time variable are the same linear systems up to scaling,
    so their histories agree to roundoff.
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
from dualporo.harness import (get_preset, list_presets, midpoints,
                              uniform_times)
from dualporo.imbibition import (BlockProblem, BlockStepper, ExchangeSeries,
                                 NewtonFailure, exchange_from_flux,
                                 exchange_from_volume, run_trajectory)
from dualporo.linearized import (run_constant_linearized,
                                 run_variable_linearized)
from oracles import blocked_geometric_times

DAY = 86400.0


# ----------------------------------------------------------------- grids

def test_uniform_times_layout():
    t = uniform_times(10.0, 5)
    assert t.shape == (6,)
    assert t[0] == 0.0 and t[-1] == 10.0
    assert np.allclose(np.diff(t), 2.0, rtol=0.0, atol=1e-15)


def test_uniform_times_validation():
    with pytest.raises(ValueError):
        uniform_times(10.0, 0)
    with pytest.raises(ValueError):
        uniform_times(-1.0, 4)


def test_blocked_geometric_times_land_exactly_on_the_horizon():
    t = blocked_geometric_times(100.0, 0.5, block_len=8, growth=1.3)
    assert t[0] == 0.0
    assert t[-1] == 100.0
    assert (np.diff(t) > 0.0).all()


def test_blocked_geometric_step_grows_between_blocks():
    t = blocked_geometric_times(1.0e4, 1.0, block_len=4, growth=1.5)
    dt = np.diff(t)
    assert np.allclose(dt[:4], 1.0, rtol=1e-15)
    assert np.allclose(dt[4:8], 1.5, rtol=1e-15)


def test_blocked_geometric_validation():
    with pytest.raises(ValueError):
        blocked_geometric_times(1.0, -0.1)
    with pytest.raises(ValueError):
        blocked_geometric_times(1.0, 0.1, growth=0.9)


def test_midpoints():
    mid = midpoints(np.array([0.0, 1.0, 3.0]))
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
                        times=uniform_times(t_end, n_steps),
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
    # the field at report time k is the final field of the run over the
    # first k intervals on the same mesh: every interval starts afresh
    p = make_problem(sim1_cset, n_steps=24)
    mesh = p.build_mesh()
    lo = p.s_init - 1e-12
    hi = p.wall_value(float(p.times[-1])) + 1e-12
    means = run_trajectory(p, mesh).mean_saturation
    for k in range(1, len(p.times)):
        sol = run_trajectory(dataclasses.replace(p, times=p.times[:k + 1]),
                             mesh)
        assert sol.mean_saturation[-1] == means[k]
        assert sol.final_field.min() >= lo
        assert sol.final_field.max() <= hi


def test_volume_and_flux_exchange_agree_to_newton_tolerance(sim1_cset):
    p = make_problem(sim1_cset, n_steps=24)
    sol = run_trajectory(p)
    qv = exchange_from_volume(sol, p)
    qf = exchange_from_flux(sol, p)
    scale = np.abs(qv.values).max()
    assert np.abs(qv.values - qf.values).max() <= 1e-6 * scale


def test_accepted_nlin_steps_meet_the_fixed_newton_stop(monkeypatch):
    # the residual of every accepted step, recomputed from the returned
    # field, is within NEWTON_RTOL of a unit saturation change on the
    # largest cell, whatever residual Newton started from
    cfg = dataclasses.replace(get_preset("sim1"), n_steps=20, mesh_cells=16)
    p = cfg.block_problem(0.3)
    steps = []
    newton_step = BlockStepper.newton_step

    def recording(self, s_old, dt, g, beta, alpha):
        out = newton_step(self, s_old, dt, g, beta, alpha)
        steps.append((self.mesh, s_old, dt, float(beta(g)), beta(out[0]),
                      out[0]))
        return out

    monkeypatch.setattr(BlockStepper, "newton_step", recording)
    run_trajectory(p)
    assert len(steps) >= 20
    for mesh, s_old, dt, beta_g, beta_s, s_new in steps:
        acc = p.cset.matrix.porosity * mesh.volumes / dt
        r = acc * (s_new - s_old) - p.k_eff * (
            mesh.diffusion_matrix @ beta_s + mesh.boundary_weights * beta_g)
        assert np.abs(r).max() <= imbibition.NEWTON_RTOL * acc.max()


def test_linear_solve_volume_flux_identity_is_exact(sim1_cset):
    p = make_problem(sim1_cset, n_steps=24)
    sol = run_constant_linearized(p)
    qv = exchange_from_volume(sol, p, method="clin")
    qf = exchange_from_flux(sol, p, method="clin")
    scale = np.abs(qv.values).max()
    assert np.abs(qv.values - qf.values).max() <= 1e-10 * scale


def test_newton_failure_surfaces_after_dt_halvings(sim1_cset, monkeypatch):
    # a step that never converges is tried at the whole report interval
    # and at every halving down to span / 2**MAX_HALVINGS, then surfaces
    p = make_problem(sim1_cset, n_steps=2, mesh_cells=8)
    span = p.times[1] - p.times[0]
    attempts = []

    def failing(self, s_old, dt, *args):
        attempts.append(dt)
        raise NewtonFailure("forced failure")

    monkeypatch.setattr(BlockStepper, "newton_step", failing)
    with pytest.raises(NewtonFailure):
        run_trajectory(p)
    assert attempts == [span / 2 ** i
                        for i in range(imbibition.MAX_HALVINGS + 1)]


def test_refused_interval_takes_quarters_and_the_next_starts_whole(
        sim1_cset, monkeypatch):
    # report interval 5 refuses every step above 0.3 of its span: it is
    # tried whole, halved twice, and covered in four quarter steps (each
    # success doubles the next try); interval 6 starts again at its span
    p = make_problem(sim1_cset, n_steps=20, mesh_cells=8)
    times = p.times
    span = times[1] - times[0]
    plain = run_trajectory(p)
    assert plain.substeps == 20                 # no halvings of its own
    clock = [float(times[0])]
    attempts = []                           # (report interval, dt / span)
    newton_step = BlockStepper.newton_step

    def refusing(self, s_old, dt, *args):
        k = int(np.searchsorted(times, clock[0] + 1e-6 * span,
                                side="right")) - 1
        attempts.append((k, dt / span))
        if k == 5 and dt > 0.3 * span:
            raise NewtonFailure("forced failure")
        out = newton_step(self, s_old, dt, *args)
        clock[0] += dt
        return out

    monkeypatch.setattr(BlockStepper, "newton_step", refusing)
    sol = run_trajectory(p)
    tries = {k: [r for i, r in attempts if i == k] for k in range(20)}
    assert tries[5] == pytest.approx([1.0, 0.5, 0.25, 0.5, 0.25, 0.5, 0.25,
                                      0.25], rel=1e-12)
    for k in set(range(20)) - {5}:
        assert tries[k] == pytest.approx([1.0], rel=1e-12)
    assert sol.substeps == 20 + 3


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


# ---------------------------------------------------------- Newton loop

def scripted_newton(errors, residual=(1.0, 1.0)):
    """newton_solve on a 2-unknown system whose iterate k reports
    errors[k] and the Jacobian (k + 1) I; x counts corrections.  Returns a
    call that runs it and the list of the iterates whose Jacobians were
    factored."""
    factored = []
    r = np.array(residual)

    def linearize(k):
        return r, sp.identity(2, format="csc") * (k + 1.0), errors[k], k

    def factor(jac):
        factored.append(int(jac[0, 0]) - 1)
        return splu(jac)

    return (lambda: imbibition.newton_solve(0, linearize,
                                            lambda k, dx: k + 1, factor),
            factored)


def test_newton_solve_converges_on_heron_iteration():
    # x**2 = a, Jacobian diag(2x) in CSC: each correction is Heron's
    # x <- (x + a/x)/2, so the count of corrections and the root match it;
    # from x = 1 the first correction overshoots sqrt(20) and raises the
    # error once, which the stall exit allows
    a = np.array([2.0, 9.0, 20.0])
    tol = 1e-12

    def linearize(x):
        r = x * x - a
        return r, sp.diags(2.0 * x, format="csc"), \
            np.abs(r).max() / tol, float(np.abs(r).max())

    x, out, iters = imbibition.newton_solve(
        np.ones(3), linearize, lambda x, dx: x + dx, splu)
    heron, count = np.ones(3), 0
    while np.abs(heron * heron - a).max() > tol:
        heron, count = 0.5 * (heron + a / heron), count + 1
    assert iters == count > 3
    assert np.abs(x - np.sqrt(a)).max() <= 1e-14 * np.sqrt(a).max()
    assert out <= tol


def test_newton_solve_factors_once_per_correction():
    # an accepted start costs no factorization; error 1 is accepted; each
    # correction factors the Jacobian of its own iterate, once
    solve, factored = scripted_newton([0.5])
    assert solve() == (0, 0, 0) and factored == []
    solve, factored = scripted_newton([9.0, 2.0, 1.0])
    assert solve() == (2, 2, 2)
    assert factored == [0, 1]


def test_newton_solve_singular_jacobian_raises():
    def linearize(x):
        return np.ones(2), sp.csc_matrix(np.diag([1.0, 0.0])), 5.0, None

    with pytest.raises(NewtonFailure, match="singular"):
        imbibition.newton_solve(np.zeros(2), linearize,
                                lambda x, dx: x + dx, splu)


def test_newton_solve_nan_correction_raises():
    solve, factored = scripted_newton([5.0] * 3, residual=(np.nan, 1.0))
    with pytest.raises(NewtonFailure, match="non-finite"):
        solve()
    assert len(factored) == 1


def test_newton_solve_stall_exit():
    # three corrections in a row set no new smallest error: the attempt
    # stops at the fourth iterate, after four factorizations
    solve, factored = scripted_newton([5.0, 4.0, 6.0, 7.0, 4.0, 0.5])
    with pytest.raises(NewtonFailure,
                       match=r"^Newton stalled: 3 corrections"):
        solve()
    assert len(factored) == 4
    # two rises and then a new smallest error go on: the first step of a
    # flood started near the top of the saturation clamp
    solve, factored = scripted_newton([6.9, 2.7, 5.6, 3.8, 1.8, 0.5])
    assert solve()[2] == len(factored) == 5


def test_newton_solve_max_iterations():
    # an error that falls at every correction but never reaches 1
    n = imbibition.NEWTON_MAX_ITER
    solve, factored = scripted_newton([2.0 + 1.0 / (k + 1)
                                       for k in range(n + 1)])
    with pytest.raises(NewtonFailure,
                       match=f"^no convergence in {n} Newton iterations"):
        solve()
    assert len(factored) == n


def test_failed_block_attempts_stop_early(monkeypatch):
    # nlin at sim1 in 4 report steps halves the first interval three
    # times; the stall exit ends each failed attempt after a few LUs
    lus = []

    def counting_splu(jac, **options):
        lus.append(jac.shape)
        return splu(jac, **options)

    monkeypatch.setattr(imbibition, "splu", counting_splu)
    cfg = dataclasses.replace(get_preset("sim1"), n_steps=4)
    sol = run_trajectory(cfg.block_problem(0.1))
    assert sol.substeps > 4                     # the halvings happen
    assert len(lus) <= 55
    assert len(lus) - sol.newton_iterations <= len(lus) / 3


@pytest.mark.parametrize("preset", list_presets())
def test_corner_matches_full_cube(preset):
    solvers = {
        "nlin": run_trajectory,
        "clin": run_constant_linearized,
        "vlin": run_variable_linearized,
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
    # every matrix of a 2d corner run (nlin Jacobians, 256 cells), solved
    # with LU_OPTIONS and with SuperLU's default ordering (COLAMD, which
    # LU_OPTIONS replaced)
    matrices = []

    def recording_splu(jac, **options):
        matrices.append(jac.copy())
        return splu(jac, **options)

    monkeypatch.setattr(imbibition, "splu", recording_splu)
    cfg = dataclasses.replace(get_preset("sim1"), n_steps=16, mesh_cells=32)
    p = cfg.block_problem(0.1)
    run_trajectory(p)
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
    # the stepper's matrix holds the cells in its pattern's order
    mesh, k_eff, acc, alpha = case
    stepper = BlockStepper(mesh, 0.3, k_eff)
    d = mesh.diffusion_matrix
    stepper.jacobian(2.0 * acc, 1.0 + alpha)     # overwritten below
    jac = stepper.jacobian(acc, alpha)
    ref = (sp.diags(acc) - k_eff * d.multiply(alpha[None, :])).tocsc()
    order = stepper.pattern.order
    assert jac.nnz == ref.nnz == d.nnz
    assert np.array_equal(jac.toarray(), ref.toarray()[np.ix_(order, order)])


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
