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
(ties take the lower cell index; the flux vanishes there anyway), and the
Jacobian is analytic with the upwind choice held fixed per iteration.
Its sparsity pattern does not depend on the iterate: each face's mobility
slope has a slot in both cells' saturation columns, and the upwind choice
only decides which one is zero.  So the pattern is built once per run
(blockmesh.FixedPattern) and each Newton iteration writes values into
it; the Newton steps factor it with the minimum-degree ordering of
blockmesh.LU_OPTIONS, as the block solver does.

build_grid makes the mesh with blockmesh.product_mesh, the builder of
the matrix block's mesh, so the two problems share one mesh type and one
transmissibility rule.  Boundary conditions attach to the mesh's named
walls (xmin .. ymax).  assemble returns the into-domain boundary rates
with the residual, so an accepted step's mass balance reads the fluxes
of its converged iterate from the one boundary-flux formula.

The matrix-exchange source Q_w is the sqrt-kernel convolution of the
cell's own wall-value history p^k = transfer(S^k), carried by one
effective.MemorySource per run (one sum-of-exponentials state per node
and cell, so a step costs the same however long the history):

    Q_w = -(impl / dt) (p(S_new) - p^0) + expl,   impl = 2 C sqrt(alpha dt),

with expl collecting the history: exact for the newest interval, from
the decaying states for the older ones.  The fixed kernel is the case
alpha = 1 (one shared clock for all cells); the time-warped kernel uses
alpha = alpha_hat per cell, frozen at its beginning-of-step value
(running extrema of the wall history), which keeps the Newton system
well defined.  _source_terms evaluates the trial step and _commit
advances the memory once the step is accepted, so step halving stays
consistent with the convolution.

The memory's nodes cover the clock range [x_lo, x_hi] of the run: x_lo
is half the shortest step a report interval can halve to (max_halvings
times), x_hi twice the report span.  For the warped kernel both ends are
scaled by the band alpha_hat can take: alpha_hat averages alpha over a
range of wall values that contains the cell's p^0, so it lies between
the extremes over x of range_diffusivity(min(x, p^0), max(x, p^0)) on
the wall values the saturation clamp allows.  A step outside the range
raises rather than losing accuracy.  The wall, alpha and saturation
histories are kept as run outputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from . import constitutive as con
from .blockmesh import LU_OPTIONS, FixedPattern, TensorMesh, product_mesh
from .constitutive import ConstitutiveSet
from .effective import MemorySource
from .imbibition import NewtonFailure


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
    """

    kind: str = "noflow"
    saturation: float = 0.0
    pressure_n: float = 0.0
    wetting_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("noflow", "dirichlet", "inflow"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class SourceSpec:
    """Matrix-exchange source: "fixed" / "warped" sqrt kernel or "none".

    The constant is the kernel prefactor C; build it with
    effective.fixed_kernel_constant or effective.warped_kernel_constant.
    """

    model: str = "fixed"
    constant: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in ("fixed", "warped", "none"):
            raise ValueError(f"unknown source model {self.model!r}")


@dataclass(frozen=True)
class FlowParams:
    cset: ConstitutiveSet
    phi_f: float
    k_star: float
    source: SourceSpec = SourceSpec(model="none")
    newton_rtol: float = 1.0e-10
    newton_max_iter: int = 30
    max_halvings: int = 10
    max_ds: float = 0.2           # damping cap on saturation updates
    s_clamp: float = con.SAT_EPS


@dataclass
class FlowState:
    """Current fields, the source memory, and per-cell histories on the
    realized time grid."""

    t: float
    saturation: np.ndarray
    pressure_n: np.ndarray
    memory: MemorySource | None = None               # None without source
    times_hist: list = field(default_factory=list)
    wall_hist: list = field(default_factory=list)    # p^k = transfer(S^k)
    alpha_hist: list = field(default_factory=list)   # committed alpha-hat^k
    run_min: np.ndarray | None = None                # extrema of wall values
    run_max: np.ndarray | None = None


def upwind_phase_mobility(p_left, p_right, lam_left, lam_right):
    """Face mobility by phase-pressure upwinding.

    Returns (lam_face, from_left); ties take the left (lower-index) cell.
    """
    from_left = p_left >= p_right
    return np.where(from_left, lam_left, lam_right), from_left


@dataclass(frozen=True)
class _DirichletGhost:
    pw: float
    pn: float
    lam_w: float
    lam_n: float


class _Assembler:
    """Residuals and analytic Jacobian for one implicit step.

    The Jacobian's slots are listed once, from the faces and the Dirichlet
    walls; every assemble call writes their values, in the same order,
    into one blockmesh.FixedPattern.
    """

    def __init__(self, grid: TensorMesh, params: FlowParams, bcs: dict):
        unknown = set(bcs) - set(grid.boundary)
        if unknown:
            raise ValueError(f"boundary sides not on this grid: {unknown}")
        self.grid = grid
        self.params = params
        self.bcs = {side: bcs.get(side, BoundarySpec())
                    for side in grid.boundary}
        vg = params.cset.fracture.vg
        self.ghosts = {}
        for side, bc in self.bcs.items():
            if bc.kind == "dirichlet":
                pc_b = float(con.capillary_pressure(bc.saturation, vg))
                lw, ln, _ = con.mobilities(bc.saturation, vg,
                                           params.cset.fluids)
                self.ghosts[side] = _DirichletGhost(
                    pw=bc.pressure_n - pc_b, pn=bc.pressure_n,
                    lam_w=float(lw), lam_n=float(ln))

        # slots in the order assemble lists their values: the cells'
        # accumulation and source; per phase, the faces' flux derivatives
        # in the columns (S_l, S_r, P_l, P_r), for the rows of the lower
        # and the higher cell; per Dirichlet wall and phase, the columns
        # (S, P) of its cells
        m = grid.n_cells
        cells = np.arange(m)
        kl, kr = grid.face_left, grid.face_right
        rows, cols = [cells, cells + m], [cells, cells]
        for roff in (0, m):
            for col in (kl, kr, kl + m, kr + m):
                rows += [kl + roff, kr + roff]
                cols += [col, col]
        for side in self.ghosts:
            bcells = grid.boundary[side][0]
            for roff in (0, m):
                rows += [bcells + roff, bcells + roff]
                cols += [bcells, bcells + m]
        self.pattern = FixedPattern(np.concatenate(rows),
                                    np.concatenate(cols), (2 * m, 2 * m))

    def assemble(self, s, pn, s_old, dt, impl, expl, wall_ref):
        """Residual vector (R_w, R_n), Jacobian and the into-domain
        boundary rates (wetting, nonwetting) at the iterate (s, pn).

        The source enters as Q_w = -(impl/dt) (transfer(s) - wall_ref)
        + expl, all per-cell arrays.  The Jacobian is the assembler's one
        CSC matrix; the next call overwrites it.
        """
        g = self.grid
        par = self.params
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

        acc = par.phi_f * vol / dt
        r_w = acc * (s - s_old) - vol * q_w
        r_n = -acc * (s - s_old) + vol * q_w

        vals = [acc - vol * dq_w, -acc + vol * dq_w]          # dR/dS

        kl, kr = g.face_left, g.face_right
        tk = kst * g.face_trans
        phases = ((pw, lam_w, dlam_w, r_w, True),
                  (pn, lam_n, dlam_n, r_n, False))
        for pres, lam, dlam, r_ph, with_pc in phases:
            lam_f, from_left = upwind_phase_mobility(
                pres[kl], pres[kr], lam[kl], lam[kr])
            dp = pres[kr] - pres[kl]
            t_f = tk * lam_f
            flux = t_f * dp                           # into the lower cell
            np.add.at(r_ph, kl, -flux)
            np.add.at(r_ph, kr, flux)
            # d flux / d(S_l, S_r): the upwind cell's mobility, and
            # dP_w/dS = -Pc' in the wetting phase; dP/dP_n = 1
            d_sl = np.where(from_left, tk * dlam[kl] * dp, 0.0)
            d_sr = np.where(from_left, 0.0, tk * dlam[kr] * dp)
            if with_pc:
                d_sl += t_f * dpc[kl]
                d_sr -= t_f * dpc[kr]
            for d in (d_sl, d_sr, -t_f, t_f):
                vals += [-d, d]

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
            for k, (pres, lam, dlam, r_ph, with_pc) in enumerate(phases):
                lam_b, p_b = ((ghost.lam_w, ghost.pw) if with_pc
                              else (ghost.lam_n, ghost.pn))
                lam_f, cell_up = upwind_phase_mobility(
                    pres[bcells], p_b, lam[bcells],
                    np.full(len(bcells), lam_b))
                dp = p_b - pres[bcells]
                flux = tk * lam_f * dp                 # into the cell
                np.add.at(r_ph, bcells, -flux)
                rates[k] += float(flux.sum())
                d_s = -tk * np.where(cell_up, dlam[bcells], 0.0) * dp
                if with_pc:
                    d_s -= tk * lam_f * dpc[bcells]
                vals += [d_s, tk * lam_f]

        jac = self.pattern.fill(np.concatenate(vals))
        return np.concatenate((r_w, r_n)), jac, tuple(rates)


@dataclass
class StepReport:
    """Per accepted (sub)step diagnostics; volumes in m^3 over the step.

    water_defect = accum - source - boundary and volume_defect =
    water_boundary + nonwetting_boundary both vanish with the Newton
    residual (bounded by newton_rtol times the total pore volume).
    """

    t: float
    dt: float
    newton_iters: int
    residual: float
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
    alpha_history: np.ndarray             # (n_hist+1, m) committed alpha-hat
    source_history: np.ndarray | None     # (n_hist, m) realized Q_w [1/s]
    snapshots: dict               # time -> (S, P_w, P_n)

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
        self.bcs = self.assembler.bcs

    def _source_terms(self, state: FlowState, dt: float):
        """(impl, expl, wall_ref, alpha_new) such that the step's source is
        Q_w = -(impl/dt) (transfer(S_new) - wall_ref) + expl: the trial
        step of state.memory, which _commit accepts."""
        par = self.params
        src = par.source
        if src.model == "none":
            zeros = np.zeros(self.grid.n_cells)
            return zeros, zeros, zeros, None
        alpha, a_new = 1.0, None
        if src.model == "warped":
            # freeze alpha-hat at beginning-of-step extrema
            a_new = alpha = np.asarray(con.range_diffusivity(
                state.run_min, state.run_max, par.cset.matrix.vg,
                par.cset.fluids, par.cset.matrix_table()), dtype=float)
        impl, expl = state.memory.step(dt, alpha)
        return impl, expl, state.memory.wall0, a_new

    def _memory(self, wall0, times) -> MemorySource | None:
        """The run's source memory over the report grid times; see the
        module docstring for its clock range."""
        par = self.params
        src = par.source
        if src.model == "none":
            return None
        x_lo = 0.5 * np.diff(times).min() / 2 ** par.max_halvings
        x_hi = 2.0 * (times[-1] - times[0])
        if src.model == "warped":
            cset = par.cset
            x = np.asarray(cset.transfer(np.linspace(
                par.s_clamp, 1.0 - par.s_clamp, 513)))
            p0 = np.unique(wall0)[:, None]
            band = np.asarray(con.range_diffusivity(
                np.minimum(x, p0), np.maximum(x, p0), cset.matrix.vg,
                cset.fluids, cset.matrix_table()))
            x_lo, x_hi = x_lo * band.min(), x_hi * band.max()
        return MemorySource(src.constant, wall0, x_lo, x_hi)

    def _try_step(self, state: FlowState, dt: float):
        par = self.params
        m = self.grid.n_cells
        impl, expl, wall_ref, alpha_new = self._source_terms(state, dt)

        s = state.saturation.copy()
        pn = state.pressure_n.copy()
        s_old = state.saturation
        scale = par.phi_f * self.grid.total_volume / (m * dt)
        clamped = False
        res = np.inf
        for it in range(par.newton_max_iter + 1):
            r, jac, rates = self.assembler.assemble(s, pn, s_old, dt, impl,
                                                    expl, wall_ref)
            res = float(np.abs(r).max()) / scale
            if res <= par.newton_rtol:
                return (s, pn, it, res, clamped, impl, expl, wall_ref,
                        alpha_new, rates)
            if it == par.newton_max_iter:
                break
            try:
                dx = splu(jac, **LU_OPTIONS).solve(-r)
            except RuntimeError as exc:        # singular factorization
                raise NewtonFailure(str(exc)) from exc
            if not np.isfinite(dx).all():
                raise NewtonFailure("non-finite Newton update")
            ds = dx[:m]
            fac = min(1.0, par.max_ds / max(float(np.abs(ds).max()), 1e-300))
            s_new = s + fac * ds
            lo, hi = par.s_clamp, 1.0 - par.s_clamp
            clamped = bool((s_new < lo).any() or (s_new > hi).any())
            s = np.clip(s_new, lo, hi)
            pn = pn + fac * dx[m:]
        raise NewtonFailure(
            f"no convergence in {par.newton_max_iter} Newton iterations "
            f"(scaled residual {res:.3e})")

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
        a0 = np.asarray(par.cset.matrix_alpha(p_wall), dtype=float)
        state = FlowState(
            t=float(times[0]), saturation=s, pressure_n=pn,
            memory=self._memory(p_wall, times),
            times_hist=[float(times[0])], wall_hist=[p_wall],
            alpha_hist=[a0 * np.ones(m)],
            run_min=p_wall.copy(), run_max=p_wall.copy())

        steps: list = []
        s_hist = [s.copy()]
        sources: list | None = [] if record_sources else None
        snapshots: dict = {}
        snap_left = sorted(snapshot_times)

        for k in range(len(times) - 1):
            t_target = float(times[k + 1])
            dt_plan = t_target - state.t
            min_dt = dt_plan / 2 ** par.max_halvings
            while t_target - state.t > 1e-9 * dt_plan:
                dt_try = min(dt_plan, t_target - state.t)
                try:
                    accepted = self._try_step(state, dt_try)
                except NewtonFailure:
                    if dt_try / 2 < min_dt:
                        raise
                    dt_plan = dt_try / 2
                    continue
                self._commit(state, dt_try, accepted, steps, s_hist, sources)
                dt_plan = 2 * dt_try
            state.t = t_target                 # snap off rounding drift
            state.times_hist[-1] = t_target
            while snap_left and state.t >= snap_left[0] * (1 - 1e-12):
                epoch = snap_left.pop(0)
                snapshots[epoch] = self._fields(state)

        s_fin, pw_fin, pn_fin = self._fields(state)
        return FlowResult(
            times=times.copy(), times_hist=np.array(state.times_hist),
            saturation=s_fin, pressure_n=pn_fin, pressure_w=pw_fin,
            steps=steps, pore_volume=par.phi_f * g.total_volume,
            saturation_history=np.stack(s_hist),
            wall_history=np.stack(state.wall_hist),
            alpha_history=np.stack(state.alpha_hist),
            source_history=(np.stack(sources) if sources else None),
            snapshots=snapshots)

    def _fields(self, state: FlowState):
        vg = self.params.cset.fracture.vg
        pw = state.pressure_n - np.asarray(
            con.capillary_pressure(state.saturation, vg))
        return state.saturation.copy(), pw, state.pressure_n.copy()

    def _commit(self, state: FlowState, dt: float, accepted, steps,
                s_hist, sources) -> None:
        (s_new, pn_new, iters, res, clamped, impl, expl, wall_ref,
         alpha_new, (rate_w, rate_n)) = accepted
        par = self.params
        vol = self.grid.volumes
        p_wall = np.asarray(par.cset.transfer(s_new))
        q_w = -(impl / dt) * (p_wall - wall_ref) + expl

        water_accum = float(par.phi_f * np.dot(vol, s_new - state.saturation))
        water_source = float(dt * np.dot(vol, q_w))
        water_bdry = rate_w * dt
        nonwet_bdry = rate_n * dt

        steps.append(StepReport(
            t=state.t + dt, dt=dt, newton_iters=iters, residual=res,
            clamped=clamped, water_accum=water_accum,
            water_source=water_source, water_boundary=water_bdry,
            nonwetting_boundary=nonwet_bdry,
            water_defect=water_accum - water_source - water_bdry,
            volume_defect=water_bdry + nonwet_bdry))
        if sources is not None:
            sources.append(q_w)
        s_hist.append(s_new.copy())

        if state.memory is not None:
            state.memory.commit(p_wall)
        state.t += dt
        state.saturation = s_new
        state.pressure_n = pn_new
        state.times_hist.append(state.t)
        state.wall_hist.append(p_wall)
        state.alpha_hist.append(
            alpha_new if alpha_new is not None else state.alpha_hist[-1])
        state.run_min = np.minimum(state.run_min, p_wall)
        state.run_max = np.maximum(state.run_max, p_wall)
