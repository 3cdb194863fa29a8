"""Finite-volume solver for the effective fracture-system two-phase flow.

Cell-centered two-point flux scheme on a uniform tensor mesh (1D/2D)
for

    phi_f dS/dt - div(k* lam_w(S) grad P_w) = Q_w,
   -phi_f dS/dt - div(k* lam_n(S) grad P_n) = -Q_w,
    P_w = P_n - Pc_f(S),      k* = k_f (d-1)/d,

implicit Euler in time with Newton on the per-cell unknowns (S, P_n).
The wetting pressure is eliminated through the capillary relation, so the
capillary closure holds exactly by construction.  Face mobilities are
upwinded phase by phase on the sign of the phase-pressure difference
(ties take the face's left cell; the flux vanishes there anyway), and the
Jacobian is analytic with the upwind choice held fixed per iteration.
Its sparsity pattern does not depend on the iterate: each face's mobility
slope has a slot in both cells' saturation columns, and the upwind choice
only decides which one is zero.  So the pattern is built and ordered
for the LU once per run (blockmesh.FixedPattern); newton_solve fills it,
by the callable assemble returns, only for an iterate it corrects, and
solves the correction by the pattern's solver, solve(jac, -r) in the
unknowns' own order: on the band route it factors each correction's
Jacobian, on SuperLU's it factors the first and solves the later
corrections by GMRES on that LU, refactoring only where GMRES misses.
imbibition.newton_solve and imbibition.damping, the block's Newton loop
and update, solve each step with saturations clamped to [SAT_EPS,
1 - SAT_EPS], until the residual scaled by phi_f vol / dt is within
NEWTON_RTOL and the volume defect within VOLUME_RTOL of pore volume.
Newton starts from a predicted saturation (_predicted_saturation): the
quadratic Lagrange extrapolation to the step's end through the last three
accepted (time, saturation) pairs, linear through two, the saturation
itself on the first step, clipped to the clamp, and taken as one damped
update from the last saturation, so it moves none by more than
imbibition.MAX_DS; P_n starts from the last step's.  Newton runs once
per attempt, its failure is the attempt's, and the step's newton_iters
counts its corrections (each an LU or a GMRES solve).  So a history that
drops old saturations (ROADMAP item 4) must keep the last three for the
predictor.

build_grid makes the mesh with blockmesh.product_mesh, the builder of
the matrix block's mesh, so the two problems share one mesh type and one
transmissibility rule.  Boundary conditions attach to the mesh's named
walls (xmin .. ymax).  Each cell of a Dirichlet or inflow wall is one more
face, from the cell to a ghost cell in the wall's state, so one flux rule
serves every face: a Dirichlet face conducts k* T_b, an inflow face only
carries the wall's fixed wetting rate, and no-flow walls have no faces.
assemble returns with the residual the boundary rates, the wall values
transfer(S) and the source Q_w of its iterate, so an accepted step reads
all three from its converged iterate.

The matrix-exchange source Q_w is the sqrt-kernel convolution of the
cell's own wall-value history p^k = transfer(S^k), carried by one
effective.MemorySource per run (one sum-of-exponentials state per node
and cell, so a step costs the same however long the history):

    Q_w = -(impl / dt) (p(S_new) - p^0) + expl,   impl = 2 C sqrt(alpha dt),

with expl collecting the history: exact for the newest interval, from
the decaying states for the older ones, and C = effective.kernel_constant
of params.cset and the grid's dimension.  _clock_rate decides the clock
rate alpha: alpha_bar for the fixed kernel (one shared scalar clock), or
alpha_hat per cell for the time-warped one, frozen at its
beginning-of-step value (running extrema of the wall history), which
keeps the Newton system well defined.  _source_terms evaluates the trial
step of the memory, and _try_step commits it only once Newton converges,
so step halving stays consistent with the convolution.  Each report
interval is covered by imbibition.cover_interval, the step controller
the block uses too, and its end is snapped to the report time.

The memory's nodes cover the clock range [x_lo, x_hi] of the run: x_lo
is half the shortest step a report interval can halve to
(imbibition.MAX_HALVINGS times), x_hi twice the report span, both scaled
by the band the clock rate can take: alpha_bar, or for alpha_hat, which
averages alpha over a range of wall values that contains the cell's p^0,
the extremes over x of
range_diffusivity(min(x, p^0), max(x, p^0)) on the wall values the
saturation clamp [con.SAT_EPS, 1 - con.SAT_EPS] allows.  A step outside
the range raises rather than losing accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from . import constitutive as con
from .blockmesh import FixedPattern, TensorMesh, product_mesh
from .constitutive import ConstitutiveSet
from .effective import MemorySource, kernel_constant
from .imbibition import (MAX_HALVINGS, NEWTON_RTOL, cover_interval,
                         damping, newton_solve)

VOLUME_RTOL = 1.0e-13           # on the step's volume defect / pore volume


def effective_permeability(k_f: float, dimension: int) -> float:
    """k* = k_f (d-1)/d from the fracture-sheet volume fraction."""
    return k_f * (dimension - 1) / dimension


def build_grid(nx: int, ny: int = 1, lx: float = 1.0,
               ly: float = 1.0) -> TensorMesh:
    """Uniform nx x ny mesh of [0, lx] x [0, ly]; ny = 1 gives the 1D
    mesh of [0, lx], unit extent across."""
    if nx < 1 or ny < 1:
        raise ValueError("grid must have at least one cell per direction")
    axes = [np.linspace(0.0, lx, nx + 1)]
    if ny > 1:
        axes.append(np.linspace(0.0, ly, ny + 1))
    return product_mesh(axes)


@dataclass(frozen=True)
class BoundarySpec:
    """One side's condition.

    "noflow" (default), "dirichlet" with ghost values (saturation,
    pressure_n), or "inflow" with a wetting volumetric rate per unit
    boundary area [m/s], positive into the domain, no nonwetting flux.
    A flood with an inflow wall needs a dirichlet wall.
    """

    kind: str = "noflow"
    saturation: float = 0.0
    pressure_n: float = 0.0
    wetting_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("noflow", "dirichlet", "inflow"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class FlowParams:
    """Media, effective permeability k* and matrix-exchange source of a
    flood: the sqrt kernel on the clock alpha_bar ("fixed") or alpha_hat
    ("warped"), or "none".  The fracture porosity phi_f is
    cset.fracture.porosity."""

    cset: ConstitutiveSet
    k_star: float
    source_model: str = "none"

    def __post_init__(self) -> None:
        if self.source_model not in ("fixed", "warped", "none"):
            raise ValueError(f"unknown source model {self.source_model!r}")


@dataclass
class FlowState:
    """Every history of the run on the realized time grid (the last
    entries are the current time and saturation), P_n and the memory."""

    pressure_n: np.ndarray
    memory: MemorySource | None         # None without source
    run_min: np.ndarray                 # extrema of the wall values
    run_max: np.ndarray
    times_hist: list
    sat_hist: list
    wall_hist: list                     # p^k = transfer(S^k); p^0 first
    alpha_hist: list                    # memory clock rate of step k
    source_hist: list | None            # realized Q_w; None: not kept
    steps: list                         # StepReport per accepted step


def upwind_phase_mobility(p_left, p_right, lam_left, lam_right):
    """Face mobility by phase-pressure upwinding.

    Returns (lam_face, from_left); ties take the left (lower-index) cell.
    """
    from_left = p_left >= p_right
    return np.where(from_left, lam_left, lam_right), from_left


class _Assembler:
    """Residuals and analytic Jacobian for one implicit step.

    assemble evaluates an iterate's residual and returns it with a
    callable that builds its Jacobian by jacobian; it keeps no iterate.
    Every jacobian call writes the values of the slots, listed once from
    the faces and walls, in that order into one blockmesh.FixedPattern.
    """

    def __init__(self, grid: TensorMesh, params: FlowParams, bcs: dict):
        unknown = set(bcs) - set(grid.boundary)
        if unknown:
            raise ValueError(f"boundary sides not on this grid: {unknown}")
        self.grid = grid
        self.params = params
        self.bcs = {side: bcs.get(side, BoundarySpec())
                    for side in grid.boundary}
        kinds = {bc.kind for bc in self.bcs.values()}
        if "inflow" in kinds and "dirichlet" not in kinds:
            raise ValueError("an inflow wall needs a dirichlet wall: both "
                             "fluids are incompressible")

        # the faces: the interior ones, then the walls' in grid.boundary
        # order, each from its cell to its own ghost m, m + 1, ...
        m, nf = grid.n_cells, len(grid.face_left)
        vg = params.cset.fracture.vg
        left, trans = [grid.face_left], [params.k_star * grid.face_trans]
        rate, ghosts, sizes = [np.zeros(0)], [], []
        for side, (bcells, btr, area) in grid.boundary.items():
            bc = self.bcs[side]
            if bc.kind == "noflow":
                continue
            pc_b = float(con.capillary_pressure(bc.saturation, vg))
            lw, ln, _ = con.mobilities(bc.saturation, vg, params.cset.fluids)
            ghosts.append((bc.pressure_n - pc_b, bc.pressure_n,
                           float(lw), float(ln)))
            sizes.append(len(bcells))
            left.append(bcells)
            inflow = bc.kind == "inflow"
            trans.append(np.zeros_like(btr) if inflow else params.k_star * btr)
            rate.append(bc.wetting_rate * area if inflow
                        else np.zeros_like(area))
        self.left, self.trans, self.wall_rate = (
            np.concatenate(a) for a in (left, trans, rate))
        self.right = np.concatenate((grid.face_right,
                                     m + np.arange(sum(sizes))))
        self.n_faces, ends = nf, np.cumsum(sizes)
        self.walls = [slice(e - n, e) for n, e in zip(sizes, ends)]
        # where assemble sums the fluxes: interior faces' left and right
        # cells, then the wall faces' cells
        self._scatter = (self.left[:nf], self.right[:nf], self.left[nf:])
        self._phi_vol = params.cset.fracture.porosity * grid.volumes
        # a row per phase (wetting, nonwetting): the cells' pressures and
        # mobilities, then the wall faces' ghosts'; and Pc' and the
        # mobility slopes, zero at the ghosts, whose states are fixed.
        # assemble and jacobian write the cells' part in place
        ghost = np.repeat(np.reshape(ghosts, (-1, 4)), sizes, axis=0).T
        self._pres = np.concatenate((np.zeros((2, m)), ghost[:2]), axis=1)
        self._lam = np.concatenate((np.zeros((2, m)), ghost[2:]), axis=1)
        self._slopes = np.zeros((3, m + ghost.shape[1]))

        # slots in the order jacobian lists their values: the cells'
        # accumulation and source; per phase, the interior faces' flux
        # derivatives in the columns (S_l, S_r, P_l, P_r), for the rows of
        # the lower and the higher cell, then the wall faces' in the
        # columns (S, P) of their cells
        cells = np.arange(m)
        kl, kr = grid.face_left, grid.face_right
        wc = self.left[nf:]
        rows, cols = [cells, cells + m], [cells, cells]
        for roff in (0, m):
            for col in (kl, kr, kl + m, kr + m):
                rows += [kl + roff, kr + roff]
                cols += [col, col]
            rows += [wc + roff, wc + roff]
            cols += [wc, wc + m]
        self.pattern = FixedPattern(np.concatenate(rows),
                                    np.concatenate(cols), (2 * m, 2 * m))

    def assemble(self, s, pn, s_old, dt, impl, expl, wall0):
        """Residual vector (R_w, R_n), the into-domain boundary rates
        (wetting, nonwetting), the wall values transfer(s), the source
        Q_w and a callable that builds the Jacobian at the iterate (s, pn).

        The source is Q_w = -(impl/dt) (transfer(s) - wall0) + expl, all
        per-cell arrays.  Only the callable holds the iterate, its upwind
        choices, pressure differences and face transmissibilities.
        """
        m = self.grid.n_cells
        vol = self.grid.volumes
        cset = self.params.cset
        vg = cset.fracture.vg

        pc = np.asarray(con.capillary_pressure(s, vg))
        np.subtract(pn, pc, out=self._pres[0, :m])             # P_w
        self._pres[1, :m] = pn
        self._lam[0, :m], self._lam[1, :m], _ = con.mobilities(
            s, vg, cset.fluids)

        # transfer(s) from the fracture curve above: the same operations
        # on the same inputs, so bitwise the same
        p_wall = np.asarray(con.capillary_saturation(pc, cset.matrix.vg))
        impl_dt = impl / dt
        q_w = -impl_dt * (p_wall - wall0) + expl

        acc = self._phi_vol / dt
        stored, added = acc * (s - s_old), vol * q_w
        r = np.empty(2 * m)
        r_w, r_n = r[:m], r[m:]
        np.subtract(stored, added, out=r_w)
        np.subtract(added, stored, out=r_n)

        # both phases at once, a row each: wetting, nonwetting
        kl, kr, nf = self.left, self.right, self.n_faces
        p_l, p_r = self._pres.take(kl, axis=1), self._pres.take(kr, axis=1)
        lam_f, from_left = upwind_phase_mobility(
            p_l, p_r, self._lam.take(kl, axis=1), self._lam.take(kr, axis=1))
        dp = p_r - p_l
        t_f = self.trans * lam_f
        flux = t_f * dp                               # into the left cell
        inner_l, inner_r, wall_cells = self._scatter
        rates = []                     # into the domain: wetting, nonwetting
        for r_ph, f, fixed in zip((r_w, r_n), flux, (self.wall_rate, 0.0)):
            # a cell sums its interior fluxes first, then its walls' in
            # wall order, and the rates sum per wall: that order fixes the
            # rounding of the residual and the rates
            np.add.at(r_ph, inner_l, -f[:nf])
            np.add.at(r_ph, inner_r, f[:nf])
            wall = f[nf:] + fixed                     # into the domain
            np.add.at(r_ph, wall_cells, -wall)
            rate = 0.0
            for w in self.walls:
                rate += float(wall[w].sum())
            rates.append(rate)
        return r, tuple(rates), p_wall, q_w, lambda: self.jacobian(
            s, p_wall, acc, impl_dt, from_left, dp, t_f)

    def jacobian(self, s, p_wall, acc, impl_dt, from_left, dp, t_f):
        """The Jacobian at the iterate s that assemble evaluated into the
        other arrays: the assembler's one CSC matrix in the pattern's
        stored order, which its solver takes; the next call overwrites it."""
        m = self.grid.n_cells
        vol = self.grid.volumes
        cset = self.params.cset
        vg = cset.fracture.vg

        slopes = self._slopes                       # Pc', lam_w', lam_n'
        slopes[0, :m] = con.capillary_slope(s, vg)
        slopes[1, :m], slopes[2, :m] = con.mobility_slopes(s, vg,
                                                           cset.fluids)
        # the slope of transfer(s), from the fracture slope above
        dq_w = -impl_dt * (slopes[0, :m] / np.asarray(con.capillary_slope(
            p_wall, cset.matrix.vg)))
        vals = [acc - vol * dq_w, -acc + vol * dq_w]          # dR/dS

        # d flux / d(S_l, S_r): the upwind cell's mobility, and dP_w/dS =
        # -Pc' in the wetting phase; dP/dP_n = 1
        kl, kr, tk, nf = self.left, self.right, self.trans, self.n_faces
        dlam, dpc = slopes[1:], slopes[0]
        d_sl = np.where(from_left, tk * dlam.take(kl, axis=1) * dp, 0.0)
        d_sr = np.where(from_left, 0.0, tk * dlam.take(kr, axis=1) * dp)
        d_sl[0] += t_f[0] * dpc[kl]
        d_sr[0] -= t_f[0] * dpc[kr]
        for dsl, dsr, tf in zip(d_sl, d_sr, t_f):
            for d in (dsl, dsr, -tf, tf):
                vals += [-d[:nf], d[:nf]]
            vals += [-dsl[nf:], tf[nf:]]            # a wall: its cell's row
        return self.pattern.fill(np.concatenate(vals))


def _extrapolation_weights(nodes, t: float) -> list:
    """Lagrange weights w with sum_k w_k f(nodes[k]) the value at t of the
    polynomial through (nodes[k], f(nodes[k])), as Python floats."""
    nodes = [float(x) for x in nodes]
    w = [1.0] * len(nodes)
    for k, tk in enumerate(nodes):
        for j, tj in enumerate(nodes):
            if j != k:
                w[k] *= (t - tj) / (tk - tj)
    return w


def _predicted_saturation(state: FlowState, t: float) -> np.ndarray:
    """The undamped start for the step to t: the quadratic through the
    last three accepted (time, saturation) pairs at t (linear through two,
    the saturation itself through one), clipped to the saturation clamp."""
    n = min(3, len(state.times_hist))
    if n == 1:
        return state.sat_hist[-1].copy()
    w = _extrapolation_weights(state.times_hist[-n:], t)
    s = sum(wk * sk for wk, sk in zip(w, state.sat_hist[-n:]))
    return np.clip(s, con.SAT_EPS, 1.0 - con.SAT_EPS)


@dataclass
class StepReport:
    """Per accepted (sub)step diagnostics; volumes in m^3 over the step.

    water_defect = accum - source - boundary and volume_defect =
    water_boundary + nonwetting_boundary are bounded by the Newton stop:
    NEWTON_RTOL and VOLUME_RTOL times the total pore volume.
    """

    t: float
    dt: float
    newton_iters: int                   # Newton corrections: LU or GMRES
    clamped: bool
    water_accum: float
    water_source: float
    water_boundary: float
    nonwetting_boundary: float
    water_defect: float
    volume_defect: float


@dataclass
class FlowResult:
    times: np.ndarray             # requested report grid
    times_hist: np.ndarray        # realized (possibly substepped) grid
    saturation: np.ndarray        # final fields
    pressure_n: np.ndarray
    pressure_w: np.ndarray
    steps: list
    pore_volume: float
    saturation_history: np.ndarray        # (n_hist+1, m)
    wall_history: np.ndarray              # (n_hist+1, m) transfer(S)
    alpha_history: np.ndarray             # (n_hist+1, m) memory clock rate
    source_history: np.ndarray | None     # (n_hist, m) realized Q_w [1/s]
    snapshots: dict               # report time -> (S, P_w, P_n)

    def max_defects(self):
        """Max per-step |water_defect| and |volume_defect| relative to the
        total fracture pore volume."""
        dw = max((abs(st.water_defect) for st in self.steps), default=0.0)
        dv = max((abs(st.volume_defect) for st in self.steps), default=0.0)
        return dw / self.pore_volume, dv / self.pore_volume


class FractureFlowSolver:
    def __init__(self, grid: TensorMesh, params: FlowParams,
                 bcs: dict | None = None):
        self.grid = grid
        self.params = params
        self.assembler = _Assembler(grid, params, bcs or {})

    def _clock_rate(self, lo, hi):
        """The memory's clock rate in a cell whose wall values have spanned
        [lo, hi]: alpha_hat, the average of alpha over that range, for the
        warped kernel; alpha_bar for the fixed one, and 1 without source."""
        par = self.params
        if par.source_model == "warped":
            return np.asarray(con.range_diffusivity(
                lo, hi, par.cset.matrix_table()), dtype=float)
        return par.cset.alpha_bar() if par.source_model == "fixed" else 1.0

    def _source_terms(self, state: FlowState, dt: float):
        """(impl, expl, alpha) such that the step's source is
        Q_w = -(impl/dt) (transfer(S_new) - p^0) + expl: the trial step of
        state.memory, which _try_step commits once Newton converges, on
        the clock rate alpha, frozen at the beginning-of-step range."""
        alpha = self._clock_rate(state.run_min, state.run_max)
        if state.memory is None:
            zeros = np.zeros(self.grid.n_cells)
            return zeros, zeros, alpha
        impl, expl = state.memory.step(dt, alpha)
        return impl, expl, alpha

    def _memory(self, wall0, times) -> MemorySource | None:
        """The run's source memory over the report grid times; see the
        module docstring for its clock range."""
        par = self.params
        if par.source_model == "none":
            return None
        x = np.asarray(par.cset.transfer(np.linspace(
            con.SAT_EPS, 1.0 - con.SAT_EPS, 513)))
        p0 = np.unique(wall0)[:, None]
        band = self._clock_rate(np.minimum(x, p0), np.maximum(x, p0))
        x_lo = 0.5 * np.diff(times).min() / 2 ** MAX_HALVINGS
        x_hi = 2.0 * (times[-1] - times[0])
        return MemorySource(kernel_constant(self.grid.dimension, par.cset),
                            wall0, x_lo * np.min(band), x_hi * np.max(band))

    def _try_step(self, state: FlowState, dt: float) -> None:
        """Append one accepted step of length dt to every history of
        state, or raise NewtonFailure and leave state as it was."""
        par = self.params
        m = self.grid.n_cells
        vol = self.grid.volumes
        impl, expl, alpha = self._source_terms(state, dt)
        s_old = state.sat_hist[-1]
        t = state.times_hist[-1] + dt
        scale = par.cset.fracture.porosity * self.grid.total_volume / (m * dt)
        lo, hi = con.SAT_EPS, 1.0 - con.SAT_EPS
        clamped = False

        def linearize(x):
            r, rates, p_wall, q_w, jacobian = self.assembler.assemble(
                *x, s_old, dt, impl, expl, state.wall_hist[0])
            err = max(float(np.abs(r).max()) / scale / NEWTON_RTOL,
                      abs(float(r.sum())) / (m * scale) / VOLUME_RTOL)
            return r, err, (rates, p_wall, q_w), jacobian

        def update(x, dx):
            nonlocal clamped
            fac = damping(dx[:m])
            s_new = x[0] + fac * dx[:m]
            clamped = bool((s_new < lo).any() or (s_new > hi).any())
            return np.clip(s_new, lo, hi), x[1] + fac * dx[m:]

        # the prediction as one damped update from s_old is Newton's start
        s_start = _predicted_saturation(state, t)
        fac = damping(s_start - s_old)
        if fac < 1.0:                   # else bitwise the prediction
            s_start = s_old + fac * (s_start - s_old)
        (s, pn), ((rate_w, rate_n), p_wall, q_w), iters = newton_solve(
            (s_start, state.pressure_n.copy()), linearize, update,
            self.assembler.pattern.solver(splu))

        # accepted: the memory first, since its range check can raise
        if state.memory is not None:
            state.memory.commit(p_wall)
        water_accum = float(par.cset.fracture.porosity
                            * np.dot(vol, s - s_old))
        water_source = float(dt * np.dot(vol, q_w))
        water_bdry, nonwet_bdry = rate_w * dt, rate_n * dt
        state.steps.append(StepReport(
            t=t, dt=dt, newton_iters=iters, clamped=clamped,
            water_accum=water_accum, water_source=water_source,
            water_boundary=water_bdry, nonwetting_boundary=nonwet_bdry,
            water_defect=water_accum - water_source - water_bdry,
            volume_defect=water_bdry + nonwet_bdry))
        if state.source_hist is not None:
            state.source_hist.append(q_w)
        state.pressure_n = pn
        state.times_hist.append(t)
        state.sat_hist.append(s)
        state.wall_hist.append(p_wall)
        state.alpha_hist.append(np.broadcast_to(alpha, (m,)))
        state.run_min = np.minimum(state.run_min, p_wall)
        state.run_max = np.maximum(state.run_max, p_wall)

    def run(self, s_init, pn_init, times, record_sources: bool = False,
            snapshot_times: tuple = ()) -> FlowResult:
        g = self.grid
        par = self.params
        m = g.n_cells
        s = (np.full(m, float(s_init)) if np.isscalar(s_init)
             else np.array(s_init, dtype=float))
        pn = (np.full(m, float(pn_init)) if np.isscalar(pn_init)
              else np.array(pn_init, dtype=float))
        times = np.asarray(times, dtype=float)
        if s.shape != (m,) or pn.shape != (m,):
            raise ValueError("initial fields must match the cell count")
        if len(times) < 2 or not (np.diff(times) > 0.0).all():
            raise ValueError("report times must be strictly increasing, "
                             "at least two")

        p_wall = np.asarray(par.cset.transfer(s))
        state = FlowState(
            pressure_n=pn,
            memory=self._memory(p_wall, times),
            run_min=p_wall.copy(), run_max=p_wall.copy(),
            times_hist=[float(times[0])], sat_hist=[s], wall_hist=[p_wall],
            alpha_hist=[self._clock_rate(p_wall, p_wall) * np.ones(m)],
            source_hist=[] if record_sources else None, steps=[])

        snapshots: dict = {}
        snap_left = sorted(snapshot_times)
        for t_target in times[1:].tolist():
            cover_interval(state.times_hist[-1], t_target,
                           lambda t, dt: self._try_step(state, dt))
            state.times_hist[-1] = t_target    # snap off rounding drift
            # a requested time takes the first report time at or after it
            while snap_left and t_target >= snap_left[0] * (1 - 1e-12):
                snap_left.pop(0)
                snapshots[t_target] = self._fields(state)

        s_fin, pw_fin, pn_fin = self._fields(state)
        return FlowResult(
            times=times.copy(), times_hist=np.array(state.times_hist),
            saturation=s_fin, pressure_n=pn_fin, pressure_w=pw_fin,
            steps=state.steps,
            pore_volume=par.cset.fracture.porosity * g.total_volume,
            saturation_history=np.stack(state.sat_hist),
            wall_history=np.stack(state.wall_hist),
            alpha_history=np.stack(state.alpha_hist),
            source_history=(np.stack(state.source_hist)
                            if state.source_hist else None),
            snapshots=snapshots)

    def _fields(self, state: FlowState):
        s = state.sat_hist[-1]
        pw = state.pressure_n - np.asarray(
            con.capillary_pressure(s, self.params.cset.fracture.vg))
        return s.copy(), pw, state.pressure_n.copy()
