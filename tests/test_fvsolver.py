"""Fracture-system finite-volume solver.

Oracles used here:

  * spatially uniform fields under no-flow walls are exact rest states of
    the scheme (zero residual at the initial iterate, zero iterations);
  * the wall values assemble returns are bitwise transfer(s);
  * the analytic Jacobian is checked column-by-column against central
    finite differences of the assembled residual, for all three source
    models, on a grid with mixed boundary conditions and a fabricated
    convolution history;
  * the fixed-pattern Jacobian equals the per-iteration COO assembly it
    replaced (kept here as CooAssembler), permuted into the pattern's
    order, entry for entry, with the same residual and boundary rates,
    and its pattern does not move when the upwind directions do; the
    analytic Jacobian's finite-difference check permutes it back; a
    flood's Jacobians factored with LU_OPTIONS
    solve as with SuperLU's default ordering;
  * the per-step sources realized by the solver's sum-of-exponentials
    memory must agree with the exact product quadrature
    (oracles.sqrt_kernel_step) applied to the recorded wall and alpha
    histories (dual route to the same convolution), also on a realized
    grid where forced Newton failures halved some steps;
  * a step attempt either appends one accepted step to every history of
    the flood state or raises and leaves the state as it was;
  * forced Newton failures go through the step controller the block
    uses too: the whole report interval first, halving on failure down to
    span / 2**MAX_HALVINGS, doubling after success, and a fresh start at
    every report interval;
  * the predicted Newton start: on random non-uniform grids its
    Lagrange weights, in exact rational arithmetic, sum to 1 and
    reproduce polynomials of the degree they extrapolate, and the float
    weights lie within 1e-14 of them (property test); a failed predicted start is retried from the
    reference start s_old and then gives that start's step exactly, with
    the corrections (LUs) of both starts counted and the retry's own
    clamp flag; a step failing from both raises the reference start's
    failure and leaves the state as it was; on the first step, where the
    two starts are the same, a failure is one Newton run; 8x8 floods
    agree with the reference start (predictor replaced by s_old) on the
    realized grid and to 1e-9 in their fields, and take at most 2.2
    corrections a step;
  * with a degenerate running range the warped source collapses onto the
    fixed source with matched constant C_fixed = C_warped sqrt(alpha);
  * per-step mass bookkeeping closes to Newton tolerance, saturations
    stay in bounds without clamping, and the capillary closure between
    the reported pressures is exact; the Newton stop bounds the volume
    defect even where the scaled residual alone would not (a flood
    started just below the top of the saturation clamp);
  * refining a 1D flood halves the block-averaged L1 Cauchy increments
    at a near-first-order rate (measured ratios 0.57-0.69 per doubling
    at these resolutions; the front keeps the rate below the smooth-case
    ideal, so the test pins a conservative bound).
"""
import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from dualporo import constitutive as con
from dualporo import fvsolver
from dualporo import harness as hz
from dualporo.blockmesh import LU_OPTIONS
from dualporo.effective import MemorySource
from dualporo.fvsolver import (BoundarySpec, FlowParams, FlowState,
                               FractureFlowSolver, SourceSpec, _Assembler,
                               build_grid, effective_permeability,
                               upwind_phase_mobility)
from dualporo import imbibition
from dualporo.imbibition import NewtonFailure
from oracles import sqrt_kernel_step

DAY = 86400.0


def fixed_constant(cset):
    return hz.kernel_constant("fixed", 2, cset)


def warped_constant(cset):
    return hz.kernel_constant("warped", 2, cset)


def make_params(cset, source=SourceSpec(model="none"), k_star=0.5e-13):
    return FlowParams(cset=cset, k_star=k_star, source=source)


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
    _, _, (rate_w, rate_n), _, _ = solver.assembler.assemble(
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
    _, _, (rate_w, rate_n), _, _ = solver.assembler.assemble(
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
    sats = [rng.uniform(0.2, 0.8, m) for _ in t_hist]
    walls = [np.asarray(cset.transfer(s)) for s in sats]
    alphas = [np.asarray(cset.matrix_alpha(w)) if alpha is None
              else np.full(m, alpha) for w in walls]
    memory = None
    if source.model != "none":
        memory = MemorySource(source.constant, walls[0], 1.0, 1e12)
        for k in range(1, len(t_hist)):
            memory.step(t_hist[k] - t_hist[k - 1],
                        1.0 if source.model == "fixed" else alphas[k])
            memory.commit(walls[k])
    sats[-1] = rng.uniform(0.2, 0.8, m)        # the current field
    return FlowState(pressure_n=1e6 + rng.uniform(-1e5, 1e5, m),
                     memory=memory, run_min=np.minimum.reduce(walls),
                     run_max=np.maximum.reduce(walls),
                     times_hist=list(t_hist), sat_hist=sats,
                     wall_hist=walls, alpha_hist=alphas, source_hist=[],
                     steps=[])


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
        impl, expl, _ = solver._source_terms(state, dt)
        wall0 = state.wall_hist[0]
        s = rng.uniform(0.15, 0.85, m)
        pn = 1e6 + rng.uniform(-1e5, 1e5, m)

        def residual(sv, pv):
            return solver.assembler.assemble(sv, pv, state.sat_hist[-1],
                                             dt, impl, expl, wall0)[0]

        jac = solver.assembler.assemble(s, pn, state.sat_hist[-1], dt, impl,
                                        expl, wall0)[1]
        rank = np.argsort(solver.assembler.pattern.order)
        dense = jac.toarray()[np.ix_(rank, rank)]     # unknowns (S, P_n)
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


def test_assembled_wall_values_are_the_transfer_of_the_iterate(sim1_cset):
    # assemble takes transfer(s) from the fracture curve it already
    # evaluated; the same operations on the same inputs, bit for bit
    rng = np.random.default_rng(11)
    grid = build_grid(4, 3)
    m = grid.n_cells
    asm = _Assembler(grid, make_params(sim1_cset), {})
    s = np.concatenate((rng.uniform(0.0, 1.0, m - 2), [0.0, 1.0]))
    _, _, _, p_wall, _ = asm.assemble(s, np.full(m, 1e6), s, 600.0,
                                      np.zeros(m), np.zeros(m), np.zeros(m))
    assert np.array_equal(p_wall, sim1_cset.transfer(s))


class CooAssembler(_Assembler):
    """The flood's Jacobian assembly before the fixed pattern: about 20
    COO pieces and one tocsc per call, the upwind slope in the column of
    the iterate's upwind cell.  assemble is kept as it was."""

    def assemble(self, s, pn, s_old, dt, impl, expl, wall_ref):
        """Residual vector (R_w, R_n), Jacobian and the into-domain
        boundary rates (wetting, nonwetting) at the iterate (s, pn).

        The source enters as Q_w = -(impl/dt) (transfer(s) - wall_ref)
        + expl, all per-cell arrays.
        """
        g = self.grid
        par = self.params
        m = g.n_cells
        vol = g.volumes
        kst = par.k_star
        cset = par.cset
        vg = cset.fracture.vg

        pc = np.asarray(con.capillary_pressure(s, vg))
        dpc = np.asarray(con.capillary_slope(s, vg))
        pw = pn - pc
        lam_w, lam_n, _ = con.mobilities(s, vg, cset.fluids)
        dlam_w, dlam_n = con.mobility_slopes(s, vg, cset.fluids)

        p_wall = np.asarray(cset.transfer(s))
        dp_wall = np.asarray(con.transfer_slope(s, cset.matrix.vg, vg))
        q_w = -(impl / dt) * (p_wall - wall_ref) + expl
        dq_w = -(impl / dt) * dp_wall

        acc = cset.fracture.porosity * vol / dt
        r_w = acc * (s - s_old) - vol * q_w
        r_n = -acc * (s - s_old) + vol * q_w

        rows, cols, vals = [], [], []

        def add(r, c, v):
            rows.append(np.asarray(r, dtype=int).ravel())
            cols.append(np.asarray(c, dtype=int).ravel())
            vals.append(np.asarray(v, dtype=float).ravel())

        cells = np.arange(m)
        add(cells, cells, acc - vol * dq_w)                   # dR_w/dS
        add(cells + m, cells, -acc + vol * dq_w)              # dR_n/dS

        kl, kr = g.face_left, g.face_right
        if len(kl):
            tk = kst * g.face_trans
            for roff, pres, lam, dlam, with_pc in (
                    (0, pw, lam_w, dlam_w, True),
                    (m, pn, lam_n, dlam_n, False)):
                lam_f, from_left = upwind_phase_mobility(
                    pres[kl], pres[kr], lam[kl], lam[kr])
                up = np.where(from_left, kl, kr)
                dp = pres[kr] - pres[kl]
                flux = tk * lam_f * dp                # into the lower cell
                r_ph = r_w if roff == 0 else r_n
                np.add.at(r_ph, kl, -flux)
                np.add.at(r_ph, kr, flux)
                # pressure coupling (dP_w/dP_n = dP_n/dP_n = 1)
                add(kl + roff, kr + m, -tk * lam_f)
                add(kl + roff, kl + m, tk * lam_f)
                add(kr + roff, kl + m, -tk * lam_f)
                add(kr + roff, kr + m, tk * lam_f)
                # upwind mobility
                add(kl + roff, up, -tk * dlam[up] * dp)
                add(kr + roff, up, tk * dlam[up] * dp)
                if with_pc:                            # dP_w/dS = -Pc'
                    add(kl + roff, kr, tk * lam_f * dpc[kr])
                    add(kl + roff, kl, -tk * lam_f * dpc[kl])
                    add(kr + roff, kl, tk * lam_f * dpc[kl])
                    add(kr + roff, kr, -tk * lam_f * dpc[kr])

        rates = [0.0, 0.0]             # into the domain: wetting, nonwetting
        for side, (bcells, btr, area) in g.boundary.items():
            bc = self.bcs[side]
            if bc.kind == "noflow":
                continue
            if bc.kind == "inflow":
                inflow = bc.wetting_rate * area
                r_w[bcells] -= inflow
                rates[0] += float(inflow.sum())
                continue
            ghost = self.ghosts[side]
            tk = kst * btr
            for roff, pres, lam, dlam, lam_b, p_b, with_pc in (
                    (0, pw, lam_w, dlam_w, ghost.lam_w, ghost.pw, True),
                    (m, pn, lam_n, dlam_n, ghost.lam_n, ghost.pn, False)):
                lam_f, cell_up = upwind_phase_mobility(
                    pres[bcells], p_b, lam[bcells],
                    np.full(len(bcells), lam_b))
                dp = p_b - pres[bcells]
                flux = tk * lam_f * dp                 # into the cell
                r_ph = r_w if roff == 0 else r_n
                np.add.at(r_ph, bcells, -flux)
                rates[0 if roff == 0 else 1] += float(flux.sum())
                add(bcells + roff, bcells + m, tk * lam_f)
                add(bcells + roff, bcells,
                    -tk * np.where(cell_up, dlam[bcells], 0.0) * dp)
                if with_pc:
                    add(bcells + roff, bcells, -tk * lam_f * dpc[bcells])

        jac = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows),
                                    np.concatenate(cols))),
            shape=(2 * m, 2 * m)).tocsc()
        return np.concatenate((r_w, r_n)), jac, tuple(rates)


@st.composite
def flood_cases(draw):
    nx = draw(st.integers(1, 6))
    ny = draw(st.sampled_from([1, 2, 3, 5]))
    grid = build_grid(nx, ny, lx=draw(st.floats(1.0, 20.0)),
                      ly=draw(st.floats(1.0, 20.0)))
    bcs = {}
    for side in grid.boundary:
        kind = draw(st.sampled_from(["noflow", "dirichlet", "inflow"]))
        bcs[side] = BoundarySpec(
            kind, saturation=draw(st.floats(0.02, 0.98)),
            pressure_n=draw(st.floats(0.8e6, 1.2e6)),
            wetting_rate=draw(st.floats(0.0, 1e-5)))
    model = draw(st.sampled_from(["none", "fixed", "warped"]))
    return grid, bcs, model, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(flood_cases())
def test_fixed_pattern_jacobian_matches_coo_assembly(sim1_cset, case):
    grid, bcs, model, seed = case
    rng = np.random.default_rng(seed)
    constant = {"none": 0.0, "fixed": fixed_constant(sim1_cset),
                "warped": warped_constant(sim1_cset)}[model]
    source = SourceSpec(model, constant)
    solver = FractureFlowSolver(grid, make_params(sim1_cset, source), bcs)
    reference = CooAssembler(grid, solver.params, bcs)
    m = grid.n_cells
    state = fabricated_state(rng, sim1_cset, m, source)
    dt = float(rng.uniform(60.0, 1e5))
    impl, expl, _ = solver._source_terms(state, dt)
    wall0 = state.wall_hist[0]
    pattern = None
    for flip in (False, True):
        s = rng.uniform(0.02, 0.98, m)
        pn = 1e6 + rng.uniform(-1e5, 1e5, m)
        if flip:                     # turn the nonwetting upwind around
            pn = 2e6 - pn
        args = (s, pn, state.sat_hist[-1], dt, impl, expl, wall0)
        r, jac, rates, p_wall, q_w = solver.assembler.assemble(*args)
        if pattern is None:
            pattern = (jac.indptr.copy(), jac.indices.copy())
        assert np.array_equal(jac.indptr, pattern[0])
        assert np.array_equal(jac.indices, pattern[1])
        r_ref, jac_ref, rates_ref = reference.assemble(*args)
        assert np.array_equal(r, r_ref)
        assert rates == rates_ref
        p_ref = np.asarray(sim1_cset.transfer(s))
        assert np.array_equal(p_wall, p_ref)
        assert np.array_equal(q_w, -(impl / dt) * (p_ref - wall0) + expl)
        order = solver.assembler.pattern.order
        dense, ref = jac.toarray(), jac_ref.toarray()[np.ix_(order, order)]
        assert np.abs(dense - ref).max() <= 1e-15 * np.abs(ref).max()


def test_lu_ordering_matches_default_ordering(sim1_cset, monkeypatch):
    # every Jacobian of a short flood, solved with LU_OPTIONS and with
    # SuperLU's default ordering (COLAMD, which LU_OPTIONS replaced)
    jacobians = []

    def recording_splu(jac, **options):
        jacobians.append(jac.copy())
        return splu(jac, **options)

    monkeypatch.setattr(fvsolver, "splu", recording_splu)
    grid = build_grid(12, 12, lx=10.0, ly=10.0)
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    source = SourceSpec("fixed", fixed_constant(sim1_cset))
    solver = FractureFlowSolver(grid, make_params(sim1_cset, source), bcs)
    solver.run(0.05, 1e6, np.linspace(0.0, 2.0 * DAY, 5))
    assert len(jacobians) >= 4
    m = grid.n_cells
    rhs = np.random.default_rng(3).standard_normal(2 * m)
    for jac in jacobians:
        x = splu(jac, **LU_OPTIONS).solve(rhs)
        x_ref = splu(jac).solve(rhs)
        for part in (slice(0, m), slice(m, 2 * m)):      # S, then P_n
            assert np.abs(x[part] - x_ref[part]).max() \
                <= 1e-12 * np.abs(x_ref[part]).max()


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
        ref = exact_sources(res.wall_history, res.alpha_history,
                            res.times_hist, cval)
        scale = np.abs(res.source_history).max()
        assert np.abs(res.source_history - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("model", ["none", "fixed"])
def test_alpha_history_is_the_clock_rate_of_the_memory(sim1_cset, model):
    # only the warped kernel's clock runs at alpha-hat; the fixed one (and
    # a flood without source) at 1, which is what the history records
    constant = fixed_constant(sim1_cset) if model == "fixed" else 0.0
    solver = inflow_solver(sim1_cset, 4, 4, SourceSpec(model, constant))
    res = solver.run(0.05, 1e6, np.linspace(0.0, 1.0 * DAY, 4))
    assert np.array_equal(res.alpha_history, np.ones((4, 16)))


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
    impl_w, expl_w, a_new = warp._source_terms(states[0], dt)
    impl_f, expl_f, _ = fixed._source_terms(states[1], dt)
    assert np.allclose(a_new, a, rtol=1e-14)
    assert np.allclose(impl_w, impl_f, rtol=1e-13)
    assert np.array_equal(states[0].wall_hist[0], states[1].wall_hist[0])
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
    assert res.saturation.min() >= con.SAT_EPS
    assert res.saturation.max() <= 1.0 - con.SAT_EPS
    assert res.saturation.max() > 0.3          # water actually invaded

    pc = np.asarray(con.capillary_pressure(res.saturation,
                                           sim1_cset.fracture.vg))
    closure = np.abs(res.pressure_n - res.pressure_w - pc).max()
    assert closure <= 1e-14 * np.abs(res.pressure_n).max()

    assert len(res.times_hist) == len(times)   # no halvings needed
    assert list(res.snapshots) == [5.0 * DAY]
    s_snap, pw_snap, pn_snap = res.snapshots[5.0 * DAY]
    assert s_snap.shape == pw_snap.shape == pn_snap.shape == (64,)


def test_newton_stop_bounds_the_volume_defect():
    # started just below the saturation clamp's top, the first step meets
    # the scaled-residual stop with a volume defect of 7.9e-12 of the
    # pore volume; the volume term of the stop takes it under 1e-12
    cfg = hz.FloodConfig(nx=4, ny=4, n_steps=2, s_init=0.999999989)
    res = hz.run_flood(cfg)
    dw, dv = res.max_defects()
    assert dv <= 1e-12 and dw <= 1e-12          # measured 6.8e-15, 7.0e-15
    assert not any(st.clamped for st in res.steps)
    assert len(res.steps) == 2

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
        k = np.searchsorted(times, state.times_hist[-1], side="right") - 1
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


def inflow_solver(cset, nx, ny, source=SourceSpec(model="none")):
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    return FractureFlowSolver(build_grid(nx, ny, lx=10.0, ly=10.0),
                              make_params(cset, source), bcs)


def test_refused_interval_takes_quarters_and_the_next_starts_whole(
        sim1_cset):
    # report interval 1 refuses every step above 0.3 of its span: it is
    # tried whole, halved twice, and covered in four quarter steps (each
    # success doubles the next try); interval 2 starts again at its span
    solver = inflow_solver(sim1_cset, 4, 4,
                           SourceSpec("fixed", fixed_constant(sim1_cset)))
    times = np.linspace(0.0, 1.0 * DAY, 5)
    span = times[1] - times[0]
    attempts = []                           # (report interval, dt / span)
    try_step = solver._try_step

    def refusing(state, dt):
        k = int(np.searchsorted(times, state.times_hist[-1] + 1e-6 * span,
                                side="right")) - 1
        attempts.append((k, dt / span))
        if k == 1 and dt > 0.3 * span:
            raise NewtonFailure("forced failure")
        return try_step(state, dt)

    solver._try_step = refusing
    res = solver.run(0.05, 1e6, times)
    tries = {k: [r for i, r in attempts if i == k] for k in range(4)}
    assert tries[1] == pytest.approx([1.0, 0.5, 0.25, 0.5, 0.25, 0.5, 0.25,
                                      0.25], rel=1e-12)
    for k in (0, 2, 3):
        assert tries[k] == pytest.approx([1.0], rel=1e-12)
    assert [st.dt / span for st in res.steps] \
        == pytest.approx([1.0, 0.25, 0.25, 0.25, 0.25, 1.0, 1.0], rel=1e-12)
    assert np.array_equal(res.times_hist[[0, 1, 5, 6, 7]], times)


def test_flood_newton_failure_surfaces_after_dt_halvings(sim1_cset):
    # a step that never converges is tried at the whole report interval
    # and at every halving down to span / 2**MAX_HALVINGS, then surfaces
    solver = inflow_solver(sim1_cset, 4, 4)
    times = np.linspace(0.0, 1.0 * DAY, 3)
    attempts = []

    def failing(state, dt):
        attempts.append(dt)
        raise NewtonFailure("forced failure")

    solver._try_step = failing
    with pytest.raises(NewtonFailure):
        solver.run(0.05, 1e6, times)
    assert attempts == [times[1] / 2 ** i
                        for i in range(imbibition.MAX_HALVINGS + 1)]


HISTORIES = ("times_hist", "sat_hist", "wall_hist", "alpha_hist",
             "source_hist", "steps")


def assert_same_state(state, before):
    """The fields, every history and the memory's committed state and
    clock of state are those of before."""
    for key in ("pressure_n", "run_min", "run_max"):
        assert np.array_equal(getattr(state, key), getattr(before, key))
    for key in HISTORIES:
        old, new = getattr(before, key), getattr(state, key)
        assert len(new) == len(old)
        assert all(np.array_equal(a, b) for a, b in zip(new, old))
    if before.memory is not None:
        assert np.array_equal(state.memory.state, before.memory.state)
        assert np.array_equal(state.memory._clock, before.memory._clock)


@pytest.mark.parametrize("model", ["none", "fixed", "warped"])
def test_step_attempt_advances_the_state_or_leaves_it(sim1_cset, model,
                                                      monkeypatch):
    # with no Newton iteration allowed the attempt raises, and the fields,
    # every history and the memory's committed state and clock are as
    # they were; with iterations allowed it appends exactly one step
    constant = {"none": 0.0, "fixed": fixed_constant(sim1_cset),
                "warped": warped_constant(sim1_cset)}[model]
    solver = inflow_solver(sim1_cset, 4, 3, SourceSpec(model, constant))
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source)
    before = copy.deepcopy(state)

    monkeypatch.setattr(imbibition, "NEWTON_MAX_ITER", 0)
    with pytest.raises(NewtonFailure, match="no convergence in 0 Newton"):
        solver._try_step(state, 600.0)
    assert_same_state(state, before)

    monkeypatch.undo()
    # the random history extrapolates to a start from which Newton
    # stalls; the step is the retry's, from s_old
    assert solver._try_step(state, 600.0) is None
    for key in HISTORIES:
        assert len(getattr(state, key)) == len(getattr(before, key)) + 1
    assert state.steps[-1].t == state.times_hist[-1] \
        == before.times_hist[-1] + 600.0
    assert np.array_equal(state.wall_hist[-1],
                          sim1_cset.transfer(state.sat_hist[-1]))
    if model != "none":
        assert not np.array_equal(state.memory._clock,
                                  before.memory._clock)


# --------------------------------------------------------- predicted start

@settings(max_examples=200, deadline=None)
@given(t0=st.floats(0.0, 1e7), scale=st.floats(1.0, 1e4),
       gaps=st.lists(st.floats(1.0 / 16.0, 16.0), min_size=3, max_size=3),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       n=st.integers(1, 3))
def test_extrapolation_weights_reproduce_polynomials(t0, scale, gaps, coef,
                                                     n):
    # through n nodes of a random non-uniform grid, the Lagrange weights
    # of those float nodes, in exact rational arithmetic, sum to 1 and give
    # the value after the last node of any polynomial of degree n - 1; the
    # float weights are each within 1e-14 of their exact values
    nodes = t0 + scale * np.cumsum([0.0, gaps[0], gaps[1]])[3 - n:]
    t = nodes[-1] + scale * gaps[2]
    xs, tx = [Fraction(x) for x in nodes], Fraction(t)
    exact = [math.prod((tx - xj) / (xk - xj) for j, xj in enumerate(xs)
                       if j != k) for k, xk in enumerate(xs)]

    def poly(x):
        u = (x - Fraction(t0)) / Fraction(scale)
        return sum(Fraction(c) * u ** k for k, c in enumerate(coef[:n]))

    assert sum(exact) == 1
    assert sum(wk * poly(x) for wk, x in zip(exact, xs)) == poly(tx)
    w = fvsolver._extrapolation_weights(nodes, t)
    for wk, ek in zip(w, exact):
        assert abs(Fraction(wk) - ek) <= Fraction(1e-14) * abs(ek)


def test_predicted_saturation_follows_the_history_length(sim1_cset):
    # s_old on the first step, linear through two pairs, quadratic
    # through the last three, always clipped to the saturation clamp
    state = fabricated_state(np.random.default_rng(3), sim1_cset, 12,
                             SourceSpec(model="none"),
                             t_hist=(0.0, 300.0, 700.0, 1250.0))
    s = state.sat_hist
    for n in (1, 2, 3, 4):
        part = copy.copy(state)
        part.times_hist, part.sat_hist = state.times_hist[:n], s[:n]
        t = part.times_hist[-1] + 600.0
        pred = fvsolver._predicted_saturation(part, t)
        if n == 1:
            expected = s[0]
        elif n == 2:
            expected = s[1] + (s[1] - s[0]) * 600.0 / 300.0
        else:
            ts, ss = part.times_hist[-3:], s[n - 3:n]
            expected = sum(
                ss[k] * np.prod([(t - ts[j]) / (ts[k] - ts[j])
                                 for j in range(3) if j != k])
                for k in range(3))
        expected = np.clip(expected, con.SAT_EPS, 1.0 - con.SAT_EPS)
        assert np.allclose(pred, expected, rtol=1e-12, atol=0.0)
        assert pred is not s[n - 1]


def forced_stalls(monkeypatch, errors):
    """Wrap the flood's newton_solve: call k (from 0) reports the constant
    error errors[k] if k is a key, so it stalls after
    imbibition.STALL_ITER corrections, one LU each, and raises; other
    calls run unchanged.  Returns [(start saturation, corrections or
    None)] per call."""
    calls = []
    real = fvsolver.newton_solve

    def newton_solve(x, linearize, update, factor):
        calls.append([x[0].copy(), None])
        err = errors.get(len(calls) - 1)
        if err is not None:
            def stuck(y):
                r, jac, _, out = linearize(y)
                return r, jac, err, out
            return real(x, stuck, update, factor)
        out = real(x, linearize, update, factor)
        calls[-1][1] = out[2]
        return out

    monkeypatch.setattr(fvsolver, "newton_solve", newton_solve)
    return calls


def reference_start(state, t):
    return state.sat_hist[-1].copy()


@pytest.mark.parametrize("model", ["none", "fixed", "warped"])
def test_failed_predicted_start_retries_from_the_reference_start(
        sim1_cset, model, monkeypatch):
    # the predicted start stalls; the step is then taken from s_old, as
    # it is with the predictor replaced by s_old, and counts the
    # corrections of both starts
    constant = {"none": 0.0, "fixed": fixed_constant(sim1_cset),
                "warped": warped_constant(sim1_cset)}[model]
    solver = inflow_solver(sim1_cset, 4, 3, SourceSpec(model, constant))
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source)
    s_old = state.sat_hist[-1]
    predicted = fvsolver._predicted_saturation(state,
                                               state.times_hist[-1] + 600.0)
    assert not np.array_equal(predicted, s_old)
    ref = copy.deepcopy(state)
    with monkeypatch.context() as mp:
        mp.setattr(fvsolver, "_predicted_saturation", reference_start)
        solver._try_step(ref, 600.0)

    calls = forced_stalls(monkeypatch, {0: 2.0})
    solver._try_step(state, 600.0)
    assert len(calls) == 2
    assert np.array_equal(calls[0][0], predicted)
    assert np.array_equal(calls[1][0], s_old)
    step, ref_step = state.steps.pop(), ref.steps.pop()
    assert step.newton_iters == ref_step.newton_iters \
        + imbibition.STALL_ITER == calls[1][1] + imbibition.STALL_ITER
    assert step == dataclasses.replace(ref_step,
                                       newton_iters=step.newton_iters)
    assert_same_state(state, ref)


@pytest.mark.parametrize("model", ["none", "fixed", "warped"])
def test_step_failing_from_both_starts_raises_the_reference_failure(
        sim1_cset, model, monkeypatch):
    # both starts stall; the step raises the reference start's failure
    # (its error, 3) and leaves the state as it was
    constant = {"none": 0.0, "fixed": fixed_constant(sim1_cset),
                "warped": warped_constant(sim1_cset)}[model]
    solver = inflow_solver(sim1_cset, 4, 3, SourceSpec(model, constant))
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source)
    before = copy.deepcopy(state)
    forced_stalls(monkeypatch, {0: 2.0, 1: 3.0})
    with pytest.raises(NewtonFailure, match=r"^Newton stalled: 3 "
                       r"corrections set no new smallest error "
                       r"\(3\.000e\+00\)$"):
        solver._try_step(state, 600.0)
    assert_same_state(state, before)


def test_failed_first_step_runs_newton_once(sim1_cset, monkeypatch):
    # on the first step the predicted start is s_old, so a failure there
    # is not retried from the same start
    solver = inflow_solver(sim1_cset, 4, 3)
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source, t_hist=(0.0,))
    calls = forced_stalls(monkeypatch, {0: 2.0, 1: 3.0})
    with pytest.raises(NewtonFailure, match=r"\(2\.000e\+00\)$"):
        solver._try_step(state, 600.0)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], state.sat_hist[-1])


def test_retry_reports_its_own_clamp_flag(sim1_cset, monkeypatch):
    # the failed first start clamps; the retry accepts the uniform rest
    # state (one step into it, so the retry runs) with no correction, so
    # the step it reports is not clamped
    solver = FractureFlowSolver(build_grid(3, 3), make_params(sim1_cset))
    m = 9
    s = np.full(m, 0.1)
    wall = np.asarray(sim1_cset.transfer(s))
    state = FlowState(pressure_n=np.full(m, 1e6), memory=None,
                      run_min=wall, run_max=wall, times_hist=[0.0, 600.0],
                      sat_hist=[s, s], wall_hist=[wall, wall],
                      alpha_hist=[np.ones(m)] * 2, source_hist=None,
                      steps=[])
    real = fvsolver.newton_solve
    calls = []

    def clamping_first(x, linearize, update, factor):
        calls.append(x)
        if len(calls) == 1:
            y = update(x, np.full(2 * m, -1.0))        # s - MAX_DS < 0
            assert (y[0] == con.SAT_EPS).all()
            raise NewtonFailure("forced failure")
        return real(x, linearize, update, factor)

    monkeypatch.setattr(fvsolver, "newton_solve", clamping_first)
    solver._try_step(state, 600.0)
    assert len(calls) == 2
    assert state.steps[-1].newton_iters == 0
    assert not state.steps[-1].clamped


def test_lu_count_covers_the_failed_start(sim1_cset, monkeypatch):
    # one forced retry on the sixth step of a flood: the LUs factored
    # through fvsolver.splu are the reported corrections, the failed
    # start's included
    lus = []

    def counting_splu(*args, **kwargs):
        lus.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fvsolver, "splu", counting_splu)
    calls = forced_stalls(monkeypatch, {5: 2.0})
    solver = inflow_solver(sim1_cset, 4, 4,
                           SourceSpec("fixed", fixed_constant(sim1_cset)))
    res = solver.run(0.05, 1e6, np.linspace(0.0, 1.0 * DAY, 9))
    assert len(res.steps) == 8 and len(calls) == 9
    assert res.steps[5].newton_iters \
        == imbibition.STALL_ITER + calls[6][1]
    assert [st.newton_iters for st in res.steps[:5]] \
        == [c[1] for c in calls[:5]]
    assert sum(st.newton_iters for st in res.steps) == len(lus)


@pytest.mark.parametrize("model", ["fixed", "warped"])
def test_predicted_start_agrees_with_the_reference_start(model, monkeypatch):
    # the agreement gate of the predicted start against the reference
    # start s_old: the same realized grid and fields within 1e-9 relative
    # (measured 5.1e-12 fixed, 4.7e-10 warped, on the saturation); and
    # the regression guard on the Newton corrections it saves (measured
    # 203 fixed / 171 warped against 300 / 300 from s_old)
    cfg = hz.FloodConfig(nx=8, ny=8, n_steps=100, source_model=model)
    res = hz.run_flood(cfg)
    monkeypatch.setattr(fvsolver, "_predicted_saturation", reference_start)
    ref = hz.run_flood(cfg)
    assert np.array_equal(res.times_hist, ref.times_hist)
    for key in ("saturation", "pressure_n", "pressure_w"):
        value, want = getattr(res, key), getattr(ref, key)
        assert np.abs(value - want).max() <= 1e-9 * np.abs(want).max(), key
    assert not any(st.clamped for st in res.steps)
    assert sum(st.newton_iters for st in res.steps) <= 2.2 * len(res.steps)


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
