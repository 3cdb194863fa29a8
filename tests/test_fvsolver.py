"""Fracture-system finite-volume solver.

Oracles used here:

  * spatially uniform fields under no-flow walls are exact rest states of
    the scheme (zero residual at the initial iterate, zero iterations);
  * the analytic Jacobian is checked column-by-column against central
    finite differences of the assembled residual, for all three source
    models, on a grid with mixed boundary conditions and a fabricated
    convolution history;
  * the per-step sources realized by the solver's sum-of-exponentials
    memory must agree with the exact product quadrature
    (effective.sqrt_kernel_step) applied to the recorded wall and alpha
    histories (dual route to the same convolution), also on a realized
    grid where forced Newton failures halved some steps;
  * with a degenerate running range the warped source collapses onto the
    fixed source with matched constant C_fixed = C_warped sqrt(alpha);
  * per-step mass bookkeeping closes to Newton tolerance, saturations
    stay in bounds without clamping, and the capillary closure between
    the reported pressures is exact;
  * refining a 1D flood halves the block-averaged L1 Cauchy increments
    at a near-first-order rate (measured ratios 0.57-0.69 per doubling
    at these resolutions; the front keeps the rate below the smooth-case
    ideal, so the test pins a conservative bound).
"""
import numpy as np
import pytest

from dualporo import constitutive as con
from dualporo.effective import (MemorySource, fixed_kernel_constant,
                                sqrt_kernel_step, warped_kernel_constant)
from dualporo.fvsolver import (BoundarySpec, FlowParams, FlowState,
                               FractureFlowSolver, SourceSpec, build_grid,
                               effective_permeability, upwind_phase_mobility)
from dualporo.imbibition import NewtonFailure

DAY = 86400.0


def fixed_constant(cset):
    return fixed_kernel_constant(2, cset.matrix.porosity,
                                 cset.matrix.permeability, cset.alpha_bar())


def warped_constant(cset):
    return warped_kernel_constant(2, cset.matrix.porosity,
                                  cset.matrix.permeability)


def make_params(cset, source=SourceSpec(model="none"), k_star=0.5e-13):
    return FlowParams(cset=cset, phi_f=cset.fracture.porosity, k_star=k_star,
                      source=source)


# ------------------------------------------------------------------ grid

def test_build_grid_2d_layout():
    g = build_grid(4, 2, lx=2.0, ly=2.0)       # hx = 0.5, hy = 1.0
    assert g.dimension == 2
    assert g.n_cells == 8
    assert np.allclose(g.volumes, 0.5)
    assert len(g.face_left) == (4 - 1) * 2 + 4 * (2 - 1)
    # x-normal faces first (area/distance = hy/hx), then y-normal
    assert np.allclose(g.face_trans[:6], 2.0)
    assert np.allclose(g.face_trans[6:], 0.5)
    cells, btr, area = g.boundary["xmin"]
    assert np.array_equal(cells, [0, 1])
    assert np.allclose(btr, 4.0)               # 2 hy / hx
    assert np.allclose(area, 1.0)
    cells, btr, area = g.boundary["ymin"]
    assert np.array_equal(cells, [0, 2, 4, 6])
    assert np.allclose(btr, 1.0)
    assert np.allclose(area, 0.5)
    assert np.allclose(g.centers[0], [0.25, 0.5])


def test_build_grid_1d_suppresses_transverse_direction():
    g = build_grid(5, 1, lx=2.0, ly=7.0)
    assert g.dimension == 1
    assert np.allclose(g.volumes, 0.4)         # unit extent across
    assert np.allclose(g.boundary["xmin"][2], 1.0)
    assert set(g.boundary) == {"xmin", "xmax"}
    assert g.centers.shape == (5, 1)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(0)


def test_effective_permeability_dimension_factor():
    assert effective_permeability(1e-13, 1) == 0.0
    assert effective_permeability(1e-13, 2) == pytest.approx(0.5e-13)
    assert effective_permeability(1e-13, 3) == pytest.approx(2e-13 / 3.0)


# -------------------------------------------------------------- upwinding

def test_upwind_takes_donor_cell_and_breaks_ties_left():
    lam, from_left = upwind_phase_mobility(
        np.array([2.0, 1.0, 1.0]), np.array([1.0, 2.0, 1.0]),
        np.array([5.0, 5.0, 5.0]), np.array([7.0, 7.0, 7.0]))
    assert np.array_equal(lam, [5.0, 7.0, 5.0])
    assert np.array_equal(from_left, [True, False, True])


def test_counter_current_phases_upwind_independently():
    # wetting flows left->right while nonwetting flows right->left
    pw = (np.array([2.0]), np.array([1.0]))
    pn = (np.array([1.0]), np.array([2.0]))
    lam_w, w_left = upwind_phase_mobility(pw[0], pw[1],
                                          np.array([3.0]), np.array([4.0]))
    lam_n, n_left = upwind_phase_mobility(pn[0], pn[1],
                                          np.array([3.0]), np.array([4.0]))
    assert w_left[0] and not n_left[0]
    assert lam_w[0] == 3.0 and lam_n[0] == 4.0


def test_boundary_counter_current_rates(sim1_cset):
    # ghost wetting pressure above the cell's, ghost nonwetting below:
    # water enters while nonwetting leaves through the same side
    grid = build_grid(1, 1, lx=1.0)
    solver = FractureFlowSolver(
        grid, make_params(sim1_cset),
        {"xmax": BoundarySpec("dirichlet", saturation=0.9,
                              pressure_n=0.995e6)})
    s = np.array([0.5])
    pn = np.array([1.0e6])
    _, _, (rate_w, rate_n) = solver.assembler.assemble(
        s, pn, s, 1.0, np.zeros(1), np.zeros(1), np.zeros(1))
    assert rate_w > 0.0
    assert rate_n < 0.0


def test_inflow_contributes_only_to_the_wetting_budget(sim1_cset):
    grid = build_grid(3, 2, lx=3.0, ly=2.0)
    rate = 2.5e-6
    solver = FractureFlowSolver(
        grid, make_params(sim1_cset),
        {"xmin": BoundarySpec("inflow", wetting_rate=rate)})
    s, zeros = np.full(6, 0.3), np.zeros(6)
    _, _, (rate_w, rate_n) = solver.assembler.assemble(
        s, np.full(6, 1e6), s, 1.0, zeros, zeros, zeros)
    _, _, area = grid.boundary["xmin"]
    assert rate_w == pytest.approx(rate * area.sum(), rel=1e-15)
    assert rate_n == 0.0


# ------------------------------------------------------------ rest states

def test_uniform_no_flow_state_is_stationary(sim1_cset):
    grid = build_grid(4, 3, lx=4.0, ly=3.0)
    source = SourceSpec("fixed", fixed_constant(sim1_cset))
    solver = FractureFlowSolver(grid, make_params(sim1_cset, source))
    times = np.linspace(0.0, 2.0 * DAY, 4)
    res = solver.run(0.4, 1e6, times, record_sources=True)
    assert all(st.newton_iters == 0 for st in res.steps)
    assert np.all(res.saturation == 0.4)
    assert np.all(res.source_history == 0.0)
    assert all(st.water_accum == 0.0 and st.water_defect == 0.0
               for st in res.steps)


def test_zero_constant_source_matches_source_free_run(sim1_cset):
    grid = build_grid(4, 3, lx=8.0, ly=6.0)
    bcs = {"xmax": BoundarySpec("dirichlet", saturation=0.6,
                                pressure_n=1.1e6)}
    times = np.linspace(0.0, 1.0 * DAY, 7)
    runs = []
    for source in (SourceSpec(model="none"),
                   SourceSpec(model="fixed", constant=0.0)):
        solver = FractureFlowSolver(grid, make_params(sim1_cset, source), bcs)
        runs.append(solver.run(0.05, 1e6, times))
    assert np.array_equal(runs[0].saturation_history,
                          runs[1].saturation_history)
    assert np.array_equal(runs[0].pressure_n, runs[1].pressure_n)


# ---------------------------------------------------------------- Jacobian

def fabricated_state(rng, cset, m, source, t_hist=(0.0, 600.0, 1250.0),
                     alpha=None):
    """A mid-run state whose source memory is built by committing its
    random wall history; the warped clock runs at alpha (default: the
    pointwise diffusivity of each wall value)."""
    walls = [np.asarray(cset.transfer(rng.uniform(0.2, 0.8, m)))
             for _ in t_hist]
    alphas = [np.asarray(cset.matrix_alpha(w)) if alpha is None
              else np.full(m, alpha) for w in walls]
    memory = None
    if source.model != "none":
        memory = MemorySource(source.constant, walls[0], 1.0, 1e12)
        for k in range(1, len(t_hist)):
            memory.step(t_hist[k] - t_hist[k - 1],
                        1.0 if source.model == "fixed" else alphas[k])
            memory.commit(walls[k])
    return FlowState(t=t_hist[-1], saturation=rng.uniform(0.2, 0.8, m),
                     pressure_n=1e6 + rng.uniform(-1e5, 1e5, m),
                     memory=memory, times_hist=list(t_hist),
                     wall_hist=walls, alpha_hist=alphas,
                     run_min=np.minimum.reduce(walls),
                     run_max=np.maximum.reduce(walls))


def test_jacobian_matches_finite_differences(sim1_cset):
    rng = np.random.default_rng(7)
    grid = build_grid(4, 3, lx=8.0, ly=6.0)
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6),
           "ymax": BoundarySpec("dirichlet", saturation=0.3,
                                pressure_n=1.2e6)}
    m = grid.n_cells
    sources = (SourceSpec(model="none"),
               SourceSpec("fixed", fixed_constant(sim1_cset)),
               SourceSpec("warped", warped_constant(sim1_cset)))
    for source in sources:
        solver = FractureFlowSolver(grid, make_params(sim1_cset, source),
                                    bcs)
        state = fabricated_state(rng, sim1_cset, m, source)
        dt = 700.0
        impl, expl, wall_ref, _ = solver._source_terms(state, dt)
        s = rng.uniform(0.15, 0.85, m)
        pn = 1e6 + rng.uniform(-1e5, 1e5, m)

        def residual(sv, pv):
            r, _, _ = solver.assembler.assemble(sv, pv, state.saturation,
                                                dt, impl, expl, wall_ref)
            return r

        _, jac, _ = solver.assembler.assemble(s, pn, state.saturation, dt,
                                              impl, expl, wall_ref)
        dense = jac.toarray()
        fd = np.zeros_like(dense)
        for i in range(m):
            for h, off in ((3e-7, 0), (0.3, m)):
                sp_, pp = s.copy(), pn.copy()
                sm, pm = s.copy(), pn.copy()
                if off == 0:
                    sp_[i] += h
                    sm[i] -= h
                else:
                    pp[i] += h
                    pm[i] -= h
                fd[:, i + off] = (residual(sp_, pp)
                                  - residual(sm, pm)) / (2.0 * h)
        scale = np.abs(dense).max()
        assert np.abs(dense - fd).max() <= 1e-8 * scale


# ------------------------------------------------------------ source terms

def exact_sources(wall, alpha, times, constant):
    """Q^{n+1/2} per interval and cell from the exact product quadrature;
    alpha is a scalar clock rate or one row per sample."""
    out = np.empty((len(times) - 1,) + wall.shape[1:])
    for n in range(len(out)):
        a = alpha if np.isscalar(alpha) else alpha[:n + 2]
        impl, expl = sqrt_kernel_step(times[:n + 2], wall[:n + 1], a,
                                      constant)
        out[n] = -impl / (times[n + 1] - times[n]) \
            * (wall[n + 1] - wall[0]) + expl
    return out


def test_recorded_sources_match_standalone_evaluators(sim1_cset):
    grid = build_grid(6, 4, lx=10.0, ly=10.0)
    bcs = {"xmax": BoundarySpec("dirichlet", saturation=0.6,
                                pressure_n=1.1e6)}
    times = np.linspace(0.0, 2.0 * DAY, 16)
    for model, cval in (("fixed", fixed_constant(sim1_cset)),
                        ("warped", warped_constant(sim1_cset))):
        solver = FractureFlowSolver(
            grid, make_params(sim1_cset, SourceSpec(model, cval)), bcs)
        res = solver.run(0.05, 1e6, times, record_sources=True)
        alpha = 1.0 if model == "fixed" else res.alpha_history
        ref = exact_sources(res.wall_history, alpha, res.times_hist, cval)
        scale = np.abs(res.source_history).max()
        assert np.abs(res.source_history - ref).max() <= 1e-12 * scale


def test_warped_source_with_frozen_range_reduces_to_fixed(sim1_cset):
    grid = build_grid(3, 2, lx=3.0, ly=2.0)
    m = grid.n_cells
    p_star = np.full(m, 0.55)
    a = float(np.asarray(sim1_cset.matrix_alpha(0.55)))
    c_warp = warped_constant(sim1_cset)
    c_fixed_matched = c_warp * np.sqrt(a)

    warp_source = SourceSpec("warped", c_warp)
    fixed_source = SourceSpec("fixed", c_fixed_matched)
    # the same random history on the two clocks
    states = [fabricated_state(np.random.default_rng(11), sim1_cset, m,
                               source, alpha=a)
              for source in (warp_source, fixed_source)]
    for state in states:
        state.run_min = p_star.copy()
        state.run_max = p_star.copy()

    dt = 700.0
    warp = FractureFlowSolver(grid, make_params(sim1_cset, warp_source))
    fixed = FractureFlowSolver(grid, make_params(sim1_cset, fixed_source))
    impl_w, expl_w, ref_w, a_new = warp._source_terms(states[0], dt)
    impl_f, expl_f, ref_f, _ = fixed._source_terms(states[1], dt)
    assert np.allclose(a_new, a, rtol=1e-14)
    assert np.allclose(impl_w, impl_f, rtol=1e-13)
    assert np.array_equal(ref_w, ref_f)
    assert np.abs(expl_w - expl_f).max() <= 1e-12 * np.abs(expl_f).max()


# ------------------------------------------------------------- full floods

def test_flood_mass_balance_bounds_closure_and_snapshots(sim1_cset):
    grid = build_grid(8, 8, lx=10.0, ly=10.0)
    source = SourceSpec("fixed", fixed_constant(sim1_cset))
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    solver = FractureFlowSolver(grid, make_params(sim1_cset, source), bcs)
    times = np.linspace(0.0, 10.0 * DAY, 21)
    res = solver.run(0.05, 1e6, times, snapshot_times=(5.0 * DAY,))

    dw, dv = res.max_defects()
    assert dw <= 1e-10
    assert dv <= 1e-12
    assert not any(st.clamped for st in res.steps)
    params = solver.params
    assert res.saturation.min() >= params.s_clamp
    assert res.saturation.max() <= 1.0 - params.s_clamp
    assert res.saturation.max() > 0.3          # water actually invaded

    pc = np.asarray(con.capillary_pressure(res.saturation,
                                           sim1_cset.fracture.vg))
    closure = np.abs(res.pressure_n - res.pressure_w - pc).max()
    assert closure <= 1e-14 * np.abs(res.pressure_n).max()

    assert len(res.times_hist) == len(times)   # no halvings needed
    assert list(res.snapshots) == [5.0 * DAY]
    s_snap, pw_snap, pn_snap = res.snapshots[5.0 * DAY]
    assert s_snap.shape == pw_snap.shape == pn_snap.shape == (64,)


def test_halved_steps_keep_sources_and_balance(sim1_cset):
    # report intervals 3-6 refuse their full step, so each is taken in
    # two halves: 24 accepted steps on a realized grid the sources and
    # the mass balance must follow
    grid = build_grid(6, 4, lx=10.0, ly=10.0)
    cval = warped_constant(sim1_cset)
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    solver = FractureFlowSolver(
        grid, make_params(sim1_cset, SourceSpec("warped", cval)), bcs)
    times = np.linspace(0.0, 2.0 * DAY, 21)
    dt_report = times[1] - times[0]
    try_step = solver._try_step

    def failing(state, dt):
        k = np.searchsorted(times, state.t, side="right") - 1
        if 3 <= k <= 6 and dt > 0.6 * dt_report:
            raise NewtonFailure("forced failure")
        return try_step(state, dt)

    solver._try_step = failing
    res = solver.run(0.05, 1e6, times, record_sources=True)
    assert len(res.steps) == 24
    assert len(res.times_hist) == 25
    ref = exact_sources(res.wall_history, res.alpha_history, res.times_hist,
                        cval)
    scale = np.abs(res.source_history).max()
    assert np.abs(res.source_history - ref).max() <= 1e-12 * scale
    dw, dv = res.max_defects()
    assert dw <= 1e-10
    assert dv <= 1e-12


def test_one_dimensional_flood_self_convergence(sim1_cset):
    # Cauchy increments of the final saturation between doubled grids,
    # in block-averaged L1; measured 0.0221 / 0.0128 / 0.0084 with
    # ratios 0.58 and 0.66 (near-first-order at a sharp front)
    def flood(nx):
        grid = build_grid(nx, 1, lx=10.0)
        params = make_params(sim1_cset, SourceSpec(model="none"),
                             k_star=1e-13)
        bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
               "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                    pressure_n=1e6)}
        solver = FractureFlowSolver(grid, params, bcs)
        return solver.run(0.05, 1e6,
                          np.linspace(0.0, 5.0 * DAY, 51)).saturation

    sols = {nx: flood(nx) for nx in (8, 16, 32, 64)}
    incs = []
    for nx in (8, 16, 32):
        fine = sols[2 * nx].reshape(nx, 2).mean(axis=1)
        incs.append(float(np.abs(sols[nx] - fine).mean()))
    assert incs[0] > incs[1] > incs[2]
    assert incs[1] / incs[0] <= 0.75
    assert incs[2] / incs[1] <= 0.75
    assert incs[0] / incs[2] >= 2.3


# ------------------------------------------------------------- validation

def test_solver_validation_errors(sim1_cset):
    grid = build_grid(2, 2)
    with pytest.raises(ValueError):
        FractureFlowSolver(grid, make_params(sim1_cset),
                           {"zmin": BoundarySpec("noflow")})
    solver = FractureFlowSolver(grid, make_params(sim1_cset))
    with pytest.raises(ValueError):
        solver.run(np.zeros(3), 1e6, np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValueError, match="strictly increasing"):
        solver.run(0.4, 1e6, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        BoundarySpec("osmosis")
    with pytest.raises(ValueError):
        SourceSpec("quadratic")
