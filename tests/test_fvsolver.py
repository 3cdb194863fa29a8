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
    order, entry for entry, with the same residual and boundary rates
    (bitwise, also on the wall layouts where a cell's summation order
    decides it), and its pattern does not move when the upwind directions
    do; the analytic Jacobian's finite-difference check permutes it back;
    a flood's Jacobians factored with LU_OPTIONS solve as with SuperLU's
    default ordering; a flood fills the pattern only for the iterates it
    factors (fills = LUs = corrections, assembles = LUs + attempts, for
    every source model, and none for the iterate a stalled attempt gives
    up at), and the Jacobian callables assemble returns, which alone hold
    their iterates, are all dead once each Newton solve returns or
    raises;
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
    weights lie within 1e-14 of them (property test); the start handed
    to Newton, on random 1- to 3-point histories, is within MAX_DS of
    s_old, inside the saturation clamp, and bitwise the prediction where
    that moves no saturation by more than MAX_DS (property test); a
    failed start raises its own failure, after one Newton run, and leaves
    the state as it was; a stall halves its interval, and the LUs
    factored are the reported corrections plus the stall's (with the
    corrections GMRES solved on a Newton solve's kept LU, on the default
    path of SuperLU's route); 8x8 floods
    agree with the reference start (predictor replaced by s_old) on the
    realized grid and to 1e-9 in their fields, and take at most 2.2
    corrections a step; a coarse 24x24 flood takes every report interval
    in one step;
  * with the running range frozen at [0, 1] the warped source collapses
    onto the fixed source, whose clock runs at alpha_bar;
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
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from dualporo import blockmesh as bm
from dualporo import constitutive as con
from dualporo import fvsolver
from dualporo import harness as hz
from dualporo.blockmesh import LU_OPTIONS
from dualporo.effective import MemorySource, kernel_constant
from dualporo.fvsolver import (BoundarySpec, FlowParams, FlowState,
                               FractureFlowSolver, _Assembler,
                               build_grid, effective_permeability,
                               upwind_phase_mobility)
from dualporo import imbibition
from dualporo.imbibition import NewtonFailure
from oracles import sqrt_kernel_step, transfer_slope

DAY = 86400.0


def make_params(cset, model="none", k_star=0.5e-13):
    return FlowParams(cset=cset, k_star=k_star, source_model=model)


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
    _, (rate_w, rate_n), _, _, _ = solver.assembler.assemble(
        s, pn, s, 1.0, np.zeros(1), np.zeros(1), np.zeros(1))
    assert rate_w > 0.0
    assert rate_n < 0.0


def test_inflow_contributes_only_to_the_wetting_budget(sim1_cset):
    # the Dirichlet wall's ghost holds the cells' state, so only the
    # inflow wall carries flux
    grid = build_grid(3, 2, lx=3.0, ly=2.0)
    rate = 2.5e-6
    solver = FractureFlowSolver(
        grid, make_params(sim1_cset),
        {"xmin": BoundarySpec("inflow", wetting_rate=rate),
         "xmax": BoundarySpec("dirichlet", saturation=0.3,
                              pressure_n=1e6)})
    s, zeros = np.full(6, 0.3), np.zeros(6)
    _, (rate_w, rate_n), _, _, _ = solver.assembler.assemble(
        s, np.full(6, 1e6), s, 1.0, zeros, zeros, zeros)
    _, _, area = grid.boundary["xmin"]
    assert rate_w == pytest.approx(rate * area.sum(), rel=1e-15)
    assert rate_n == 0.0


# ------------------------------------------------------------ rest states

def test_inflow_without_dirichlet_wall_is_rejected_when_built(sim1_cset):
    # the water let in has no way out, so no step of the flood can be
    # solved: it fails when it is built, not after MAX_HALVINGS halvings
    with pytest.raises(ValueError, match="^an inflow wall needs a "
                       "dirichlet wall: both fluids are incompressible$"):
        FractureFlowSolver(
            build_grid(4, 3, lx=10.0, ly=10.0),
            make_params(sim1_cset, "fixed"),
            {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6)})


def test_uniform_no_flow_state_is_stationary(sim1_cset):
    grid = build_grid(4, 3, lx=4.0, ly=3.0)
    solver = FractureFlowSolver(grid, make_params(sim1_cset, "fixed"))
    times = np.linspace(0.0, 2.0 * DAY, 4)
    res = solver.run(0.4, 1e6, times, record_sources=True)
    assert all(st.newton_iters == 0 for st in res.steps)
    assert np.all(res.saturation == 0.4)
    assert np.all(res.source_history == 0.0)
    assert all(st.water_accum == 0.0 and st.water_defect == 0.0
               for st in res.steps)


# ---------------------------------------------------------------- Jacobian

def fabricated_state(rng, cset, m, model, t_hist=(0.0, 600.0, 1250.0),
                     alpha=None):
    """A mid-run state whose source memory is built by committing its
    random wall history; the fixed clock runs at alpha_bar, the warped
    one at alpha (default: the pointwise diffusivity of each wall
    value)."""
    sats = [rng.uniform(0.2, 0.8, m) for _ in t_hist]
    walls = [np.asarray(cset.transfer(s)) for s in sats]
    alphas = [np.asarray(cset.matrix_alpha(w)) if alpha is None
              else np.full(m, alpha) for w in walls]
    memory = None
    if model != "none":
        memory = MemorySource(kernel_constant(2, cset), walls[0], 1.0, 1e12)
        for k in range(1, len(t_hist)):
            memory.step(t_hist[k] - t_hist[k - 1],
                        cset.alpha_bar() if model == "fixed" else alphas[k])
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
    for model in ("none", "fixed", "warped"):
        solver = FractureFlowSolver(grid, make_params(sim1_cset, model),
                                    bcs)
        state = fabricated_state(rng, sim1_cset, m, model)
        dt = 700.0
        impl, expl, _ = solver._source_terms(state, dt)
        wall0 = state.wall_hist[0]
        s = rng.uniform(0.15, 0.85, m)
        pn = 1e6 + rng.uniform(-1e5, 1e5, m)

        def residual(sv, pv):
            return solver.assembler.assemble(sv, pv, state.sat_hist[-1],
                                             dt, impl, expl, wall0)[0]

        jac = solver.assembler.assemble(s, pn, state.sat_hist[-1], dt,
                                        impl, expl, wall0)[4]()
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
    _, _, p_wall, _, _ = asm.assemble(s, np.full(m, 1e6), s, 600.0,
                                      np.zeros(m), np.zeros(m),
                                      np.zeros(m))
    assert np.array_equal(p_wall, sim1_cset.transfer(s))


@dataclass(frozen=True)
class DirichletGhost:
    pw: float
    pn: float
    lam_w: float
    lam_n: float


class CooAssembler(_Assembler):
    """The flood's Jacobian assembly before the fixed pattern: about 20
    COO pieces and one tocsc per call, the upwind slope in the column of
    the iterate's upwind cell, and a separate loop over the walls with one
    ghost per Dirichlet wall.  assemble is kept as it was."""

    def __init__(self, grid, params, bcs):
        super().__init__(grid, params, bcs)
        vg = params.cset.fracture.vg
        self.ghosts = {}
        for side, bc in self.bcs.items():
            if bc.kind == "dirichlet":
                pc_b = float(con.capillary_pressure(bc.saturation, vg))
                lw, ln, _ = con.mobilities(bc.saturation, vg,
                                           params.cset.fluids)
                self.ghosts[side] = DirichletGhost(
                    pw=bc.pressure_n - pc_b, pn=bc.pressure_n,
                    lam_w=float(lw), lam_n=float(ln))

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
        dp_wall = np.asarray(transfer_slope(s, cset.matrix.vg, vg))
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
    kinds = {bc.kind for bc in bcs.values()}
    assume("dirichlet" in kinds or "inflow" not in kinds)   # else rejected
    model = draw(st.sampled_from(["none", "fixed", "warped"]))
    return grid, bcs, model, draw(st.integers(0, 2 ** 32 - 1))


def wall_case(nx, ny, kinds):
    """A flood case whose walls of the given kinds share cells; walls
    not named are no-flow."""
    bcs = {side: BoundarySpec(kind, saturation=0.3, pressure_n=1.05e6,
                              wetting_rate=2e-6)
           for side, kind in kinds.items()}
    return build_grid(nx, ny, lx=6.0, ly=4.0), bcs, "fixed", 20231


# the cases where the order in which a cell sums its wall fluxes decides
# bitwise equality: an inflow and a Dirichlet wall sharing a corner cell,
# the inflow wall before and after the Dirichlet one in the mesh's wall
# order, and a column one cell wide, whose cells all lie on both x walls
@example(wall_case(3, 2, {"xmin": "inflow", "ymin": "dirichlet"}))
@example(wall_case(3, 2, {"xmin": "dirichlet", "ymin": "inflow"}))
@example(wall_case(1, 3, {"xmin": "inflow", "xmax": "dirichlet",
                          "ymax": "dirichlet"}))
@settings(max_examples=60, deadline=None)
@given(flood_cases())
def test_fixed_pattern_jacobian_matches_coo_assembly(sim1_cset, case):
    grid, bcs, model, seed = case
    rng = np.random.default_rng(seed)
    solver = FractureFlowSolver(grid, make_params(sim1_cset, model), bcs)
    reference = CooAssembler(grid, solver.params, bcs)
    m = grid.n_cells
    state = fabricated_state(rng, sim1_cset, m, model)
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
        r, rates, p_wall, q_w, jacobian = solver.assembler.assemble(*args)
        jac = jacobian()
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


def short_flood(cset):
    """A 12 x 12 flood over two days in four report steps."""
    grid = build_grid(12, 12, lx=10.0, ly=10.0)
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    solver = FractureFlowSolver(grid, make_params(cset, "fixed"), bcs)
    return solver.run(0.05, 1e6, np.linspace(0.0, 2.0 * DAY, 5))


def test_lu_ordering_matches_default_ordering(sim1_cset, monkeypatch):
    # every Jacobian of a short flood on SuperLU's route, solved with
    # LU_OPTIONS and with SuperLU's default ordering (COLAMD, which
    # LU_OPTIONS replaced)
    jacobians = []

    def recording_splu(jac, **options):
        jacobians.append(jac.copy())
        return splu(jac, **options)

    monkeypatch.setattr(bm, "BAND_WORK", 0)
    monkeypatch.setattr(fvsolver, "splu", recording_splu)
    short_flood(sim1_cset)
    assert len(jacobians) >= 4
    m = 12 * 12
    rhs = np.random.default_rng(3).standard_normal(2 * m)
    for jac in jacobians:
        x = splu(jac, **LU_OPTIONS).solve(rhs)
        x_ref = splu(jac).solve(rhs)
        for part in (slice(0, m), slice(m, 2 * m)):      # S, then P_n
            assert np.abs(x[part] - x_ref[part]).max() \
                <= 1e-12 * np.abs(x_ref[part]).max()


def test_band_lu_matches_per_call_superlu(sim1_cset, factored):
    # every Jacobian of the same flood on the band route: one LU per Newton
    # correction, each solving as per-call SuperLU with LU_OPTIONS does
    res = short_flood(sim1_cset)
    jacobians = list(factored)
    assert len(jacobians) == sum(st.newton_iters for st in res.steps) >= 4
    m = 12 * 12
    rhs = np.random.default_rng(3).standard_normal(2 * m)
    for jac, pattern in jacobians:
        assert pattern.band == (25, 25)
        order, rank = pattern.order, np.argsort(pattern.order)
        x = np.empty(2 * m)             # the LU is in the stored order
        x[order] = pattern.factor(jac, splu).solve(rhs[order])
        x_ref = splu(jac[rank][:, rank], **LU_OPTIONS).solve(rhs)
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
    cval = kernel_constant(2, sim1_cset)
    for model in ("fixed", "warped"):
        solver = FractureFlowSolver(grid, make_params(sim1_cset, model), bcs)
        res = solver.run(0.05, 1e6, times, record_sources=True)
        ref = exact_sources(res.wall_history, res.alpha_history,
                            res.times_hist, cval)
        scale = np.abs(res.source_history).max()
        assert np.abs(res.source_history - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("model", ["none", "fixed"])
def test_alpha_history_is_the_clock_rate_of_the_memory(sim1_cset, model):
    # the fixed kernel's clock runs at alpha_bar, a flood without source
    # records 1, and only the warped kernel's clock follows alpha-hat
    rate = sim1_cset.alpha_bar() if model == "fixed" else 1.0
    solver = inflow_solver(sim1_cset, 4, 4, model)
    res = solver.run(0.05, 1e6, np.linspace(0.0, 1.0 * DAY, 4))
    assert np.array_equal(res.alpha_history, np.full((4, 16), rate))


def test_warped_source_with_frozen_range_reduces_to_fixed(sim1_cset):
    # frozen on the whole range [0, 1], alpha-hat is alpha_bar (bitwise:
    # the table's alpha_bar is beta(1)), so the warped kernel runs on the
    # fixed kernel's clock
    grid = build_grid(3, 2, lx=3.0, ly=2.0)
    m = grid.n_cells
    abar = sim1_cset.alpha_bar()
    # the same random history on the two clocks
    states = [fabricated_state(np.random.default_rng(11), sim1_cset, m,
                               model, alpha=abar)
              for model in ("warped", "fixed")]
    for state in states:
        state.run_min = np.zeros(m)
        state.run_max = np.ones(m)

    dt = 700.0
    warp = FractureFlowSolver(grid, make_params(sim1_cset, "warped"))
    fixed = FractureFlowSolver(grid, make_params(sim1_cset, "fixed"))
    impl_w, expl_w, a_new = warp._source_terms(states[0], dt)
    impl_f, expl_f, a_fixed = fixed._source_terms(states[1], dt)
    assert np.array_equal(a_new, np.full(m, abar)) and a_fixed == abar
    assert np.allclose(impl_w, impl_f, rtol=1e-13)
    assert np.array_equal(states[0].wall_hist[0], states[1].wall_hist[0])
    assert np.abs(expl_w - expl_f).max() <= 1e-12 * np.abs(expl_f).max()


# ------------------------------------------------------------- full floods

def test_flood_mass_balance_bounds_closure_and_snapshots(sim1_cset):
    grid = build_grid(8, 8, lx=10.0, ly=10.0)
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    solver = FractureFlowSolver(grid, make_params(sim1_cset, "fixed"), bcs)
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
    cval = kernel_constant(2, sim1_cset)
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    solver = FractureFlowSolver(grid, make_params(sim1_cset, "warped"), bcs)
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


def inflow_solver(cset, nx, ny, model="none"):
    bcs = {"xmin": BoundarySpec("inflow", wetting_rate=1.5e-6),
           "xmax": BoundarySpec("dirichlet", saturation=0.05,
                                pressure_n=1e6)}
    return FractureFlowSolver(build_grid(nx, ny, lx=10.0, ly=10.0),
                              make_params(cset, model), bcs)


def test_refused_interval_takes_quarters_and_the_next_starts_whole(
        sim1_cset):
    # report interval 1 refuses every step above 0.3 of its span: it is
    # tried whole, halved twice, and covered in four quarter steps (each
    # success doubles the next try); interval 2 starts again at its span
    solver = inflow_solver(sim1_cset, 4, 4,
                           "fixed")
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
    solver = inflow_solver(sim1_cset, 4, 3, model)
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source_model)
    before = copy.deepcopy(state)

    monkeypatch.setattr(imbibition, "NEWTON_MAX_ITER", 0)
    with pytest.raises(NewtonFailure, match="no convergence in 0 Newton"):
        solver._try_step(state, 600.0)
    assert_same_state(state, before)

    monkeypatch.undo()
    # the random history extrapolates to a start that the cap on a
    # Newton update damps; Newton converges from it
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
                             "none",
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


def forced_stalls(monkeypatch, errors, solver):
    """Wrap the flood's newton_solve for solver: call k (from 0) reports
    the constant error errors[k] if k is a key, so it stalls after
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
                r, _, out, jacobian = linearize(y)
                return r, err, out, jacobian
            return real(x, stuck, update, factor)
        out = real(x, linearize, update, factor)
        calls[-1][1] = out[2]
        return out

    monkeypatch.setattr(fvsolver, "newton_solve", newton_solve)
    return calls


def reference_start(state, t):
    return state.sat_hist[-1].copy()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       spread=st.floats(0.0, 0.5),
       gaps=st.lists(st.floats(1.0 / 16.0, 16.0), min_size=3, max_size=3))
def test_newton_start_is_the_prediction_damped_from_s_old(sim1_cset, seed,
                                                         n, spread, gaps):
    # the start _try_step hands to newton_solve is within MAX_DS of s_old,
    # inside the saturation clamp, and bitwise the prediction wherever
    # that moves no saturation by more than MAX_DS; where it does, the
    # start is on the way to it and its largest move is MAX_DS
    rng = np.random.default_rng(seed)
    solver = inflow_solver(sim1_cset, 3, 3)
    m = 9
    s_old = rng.uniform(0.05, 0.95, m)
    sats = [np.clip(s_old + spread * rng.uniform(-1.0, 1.0, m), 0.01, 0.99)
            for _ in range(n - 1)] + [s_old]
    times = list(600.0 * np.cumsum([0.0] + gaps[:n - 1]))
    walls = [np.asarray(sim1_cset.transfer(s)) for s in sats]
    state = FlowState(pressure_n=np.full(m, 1e6), memory=None,
                      run_min=np.minimum.reduce(walls),
                      run_max=np.maximum.reduce(walls), times_hist=times,
                      sat_hist=sats, wall_hist=walls,
                      alpha_hist=[np.ones(m)] * n, source_hist=None,
                      steps=[])
    dt = 600.0 * gaps[2]
    predicted = fvsolver._predicted_saturation(state, times[-1] + dt)
    with pytest.MonkeyPatch.context() as mp:
        calls = forced_stalls(mp, {0: 2.0}, solver)
        with pytest.raises(NewtonFailure):
            solver._try_step(state, dt)
    start = calls[0][0]
    move = np.abs(start - s_old).max()
    assert move <= imbibition.MAX_DS * (1.0 + 1e-12)
    assert (start >= con.SAT_EPS).all() and (start <= 1 - con.SAT_EPS).all()
    if np.abs(predicted - s_old).max() <= imbibition.MAX_DS:
        assert np.array_equal(start, predicted)
    else:
        assert move >= imbibition.MAX_DS * (1.0 - 1e-12)
        assert ((start - s_old) * (predicted - s_old) >= 0.0).all()


@pytest.mark.parametrize("model", ["none", "fixed", "warped"])
def test_failed_start_raises_its_own_failure(sim1_cset, model, monkeypatch):
    # the one Newton run of the step stalls; the step raises that run's
    # failure (its error, 2) and leaves the state as it was
    solver = inflow_solver(sim1_cset, 4, 3, model)
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source_model)
    before = copy.deepcopy(state)
    calls = forced_stalls(monkeypatch, {0: 2.0, 1: 3.0}, solver)
    with pytest.raises(NewtonFailure, match=r"^Newton stalled: 3 "
                       r"corrections set no new smallest error "
                       r"\(2\.000e\+00\)$"):
        solver._try_step(state, 600.0)
    assert len(calls) == 1
    assert_same_state(state, before)


@pytest.mark.parametrize("t_hist", [(0.0,), (0.0, 600.0, 1250.0)],
                         ids=["1-point", "3-point"])
def test_failed_step_runs_newton_once(sim1_cset, monkeypatch, t_hist):
    # a failed start is not retried from another, on the first step
    # (where the start is s_old) or later
    solver = inflow_solver(sim1_cset, 4, 3)
    state = fabricated_state(np.random.default_rng(5), sim1_cset, 12,
                             solver.params.source_model, t_hist=t_hist)
    calls = forced_stalls(monkeypatch, {0: 2.0, 1: 3.0}, solver)
    with pytest.raises(NewtonFailure, match=r"\(2\.000e\+00\)$"):
        solver._try_step(state, 600.0)
    assert len(calls) == 1
    if len(t_hist) == 1:
        assert np.array_equal(calls[0][0], state.sat_hist[-1])


def stalled_flood(cset, monkeypatch):
    """A 4 x 4 flood whose sixth step is forced to stall, which halves
    that interval; returns the result."""
    solver = inflow_solver(cset, 4, 4,
                           "fixed")
    calls = forced_stalls(monkeypatch, {5: 2.0}, solver)
    times = np.linspace(0.0, 1.0 * DAY, 9)
    res = solver.run(0.05, 1e6, times)
    assert len(res.steps) == 9 and len(calls) == 10
    assert res.steps[5].dt == res.steps[6].dt == (times[6] - times[5]) / 2
    assert [st.newton_iters for st in res.steps] \
        == [c[1] for c in calls[:5] + calls[6:]]
    return res


def test_lu_count_covers_the_failed_start(sim1_cset, monkeypatch):
    # a forced stall on the sixth step of a flood halves that interval;
    # on SuperLU's route the LUs factored through fvsolver.splu are the
    # reported corrections and the stalled start's STALL_ITER
    lus = []

    def counting_splu(*args, **kwargs):
        lus.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(bm, "BAND_WORK", 0)
    monkeypatch.setattr(bm, "KRYLOV_ITER", 0)
    monkeypatch.setattr(fvsolver, "splu", counting_splu)
    res = stalled_flood(sim1_cset, monkeypatch)
    assert sum(st.newton_iters for st in res.steps) \
        + imbibition.STALL_ITER == len(lus) > imbibition.STALL_ITER


def test_lus_and_krylov_solves_cover_the_failed_start(sim1_cset,
                                                      monkeypatch, krylov):
    # the same flood on the default path: the LUs factored through
    # fvsolver.splu and the corrections GMRES solved on the kept factors
    # are the reported corrections and the stalled start's STALL_ITER
    monkeypatch.setattr(bm, "BAND_WORK", 0)
    lus = counted(monkeypatch, fvsolver, "splu")
    res = stalled_flood(sim1_cset, monkeypatch)
    assert sum(st.newton_iters for st in res.steps) \
        + imbibition.STALL_ITER == len(lus) + len(krylov)
    assert len(krylov) > 0 and len(lus) >= len(res.steps) + 1


def test_band_lu_count_covers_the_failed_start(sim1_cset, monkeypatch,
                                               factored):
    # the same flood on the band route, its LUs counted where it factors
    res = stalled_flood(sim1_cset, monkeypatch)
    assert factored[0][1].band is not None
    assert sum(st.newton_iters for st in res.steps) \
        + imbibition.STALL_ITER == len(factored) > imbibition.STALL_ITER


def counted(monkeypatch, owner, name):
    """A list that gets one entry per call of owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("stall", [False, True], ids=["free", "stalled"])
@pytest.mark.parametrize("model", ["none", "fixed", "warped"])
def test_flood_builds_a_jacobian_only_where_it_factors_one(
        sim1_cset, monkeypatch, factored, model, stall):
    # assemble runs once per Newton iterate, the accepted one included,
    # and the pattern is filled only for an iterate Newton corrects: one
    # fill per LU, and one LU per reported correction.  A forced stall on
    # the fourth attempt fills none for the iterate at which Newton gives
    # up
    solver = inflow_solver(sim1_cset, 4, 4, model)
    calls = forced_stalls(monkeypatch, {3: 2.0} if stall else {}, solver)
    fills = counted(monkeypatch, bm.FixedPattern, "fill")
    assembles = counted(monkeypatch, _Assembler, "assemble")
    res = solver.run(0.05, 1e6, np.linspace(0.0, 1.0 * DAY, 7))
    failed = sum(c[1] is None for c in calls)
    assert failed == int(stall)
    assert len(calls) == len(res.steps) + failed
    iters = sum(st.newton_iters for st in res.steps)
    assert len(factored) == iters + failed * imbibition.STALL_ITER
    assert len(fills) == len(factored) > failed
    assert len(assembles) == len(factored) + len(calls)


def test_no_iterate_outlives_its_newton_solve(sim1_cset, monkeypatch):
    # each iterate's arrays are held by the Jacobian callable assemble
    # returns with its residual, and nothing else: every such callable
    # is dead once the Newton solve that made it returns or raises, also
    # the ones of a forced stall, so that the step's histories grow with
    # no iterate alive
    solver = inflow_solver(sim1_cset, 4, 4, "warped")
    callables, alive, failed = [], [], []
    assemble, newton_solve = _Assembler.assemble, fvsolver.newton_solve

    def recording_assemble(self, *args):
        out = assemble(self, *args)
        callables.append(weakref.ref(out[-1]))
        return out

    def watched_newton_solve(*args):
        try:
            return newton_solve(*args)
        except NewtonFailure as exc:
            # the traceback holds the finished solve's frame; the step
            # controller drops it with the failure
            exc.with_traceback(None)
            failed.append(1)
            raise
        finally:
            alive.append(sum(ref() is not None for ref in callables))

    monkeypatch.setattr(_Assembler, "assemble", recording_assemble)
    monkeypatch.setattr(fvsolver, "newton_solve", watched_newton_solve)
    calls = forced_stalls(monkeypatch, {3: 2.0}, solver)
    res = solver.run(0.05, 1e6, np.linspace(0.0, 1.0 * DAY, 7))
    assert len(failed) == 1 and len(calls) == len(res.steps) + 1
    assert alive == [0] * len(calls)
    assert len(callables) > len(calls)


def test_coarse_flood_takes_whole_steps():
    # regression guard on a coarse flood whose predicted starts move
    # saturations by more than MAX_DS: every report interval is one step
    # (measured 103 corrections; starting from the uncapped prediction,
    # with a retry from s_old, took 158)
    cfg = hz.FloodConfig(scenario="nonmonotone", nx=24, ny=24, n_steps=20,
                         source_model="none")
    res = hz.run_flood(cfg)
    assert len(res.steps) == 20
    assert len(res.times_hist) == 21
    assert sum(st.newton_iters for st in res.steps) <= 115


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
        params = make_params(sim1_cset, "none",
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
    with pytest.raises(ValueError, match="unknown source model"):
        make_params(sim1_cset, "quadratic")
