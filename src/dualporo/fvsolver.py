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
only decides which one is zero.  So the pattern is built and ordered
for the LU once per run (blockmesh.FixedPattern), and each Newton
iteration writes values into it and factors it in that order.
imbibition.newton_solve, the block's Newton loop, solves each step with
saturation updates capped at MAX_DS and clamped to [SAT_EPS,
1 - SAT_EPS], until the residual scaled by phi_f vol / dt is within
NEWTON_RTOL and the volume defect within VOLUME_RTOL of pore volume.

build_grid makes the mesh with blockmesh.product_mesh, the builder of
the matrix block's mesh, so the two problems share one mesh type and one
transmissibility rule.  Boundary conditions attach to the mesh's named
walls (xmin .. ymax).  assemble returns with the residual the boundary
rates, the wall values transfer(S) and the source Q_w of its iterate, so
an accepted step reads all three from its converged iterate.

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
well defined.  _source_terms evaluates the trial step of the memory,
and _try_step commits it only once Newton converges, so step halving
stays consistent with the convolution.  Each report interval is covered
by imbibition.cover_interval, the step controller the block uses too,
and its end is snapped to the report time.

The memory's nodes cover the clock range [x_lo, x_hi] of the run: x_lo
is half the shortest step a report interval can halve to
(imbibition.MAX_HALVINGS times), x_hi twice the report span.  For the
warped kernel both ends are scaled by the band alpha_hat can take:
alpha_hat averages alpha over a range of wall values that contains the
cell's p^0, so it lies between the extremes over x of
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
from .effective import MemorySource
from .imbibition import MAX_HALVINGS, NEWTON_RTOL, cover_interval, newton_solve

VOLUME_RTOL = 1.0e-13           # on the step's volume defect / pore volume
MAX_DS = 0.2                    # damping cap on saturation updates


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

    The constant is the kernel prefactor C; harness.kernel_constant
    chooses it for a model.
    """

    model: str = "fixed"
    constant: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in ("fixed", "warped", "none"):
            raise ValueError(f"unknown source model {self.model!r}")


@dataclass(frozen=True)
class FlowParams:
    """Media, effective permeability k* and source of a flood; the
    fracture porosity phi_f is cset.fracture.porosity."""

    cset: ConstitutiveSet
    k_star: float
    source: SourceSpec = SourceSpec(model="none")


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

    def assemble(self, s, pn, s_old, dt, impl, expl, wall0):
        """Residual vector (R_w, R_n), Jacobian, the into-domain boundary
        rates (wetting, nonwetting), the wall values transfer(s) and the
        source Q_w at the iterate (s, pn).

        The source is Q_w = -(impl/dt) (transfer(s) - wall0) + expl, all
        per-cell arrays.  The Jacobian is the assembler's one CSC matrix,
        its unknowns (S, P_n) permuted by pattern.order; the next call
        overwrites it.
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
        q_w = -(impl / dt) * (p_wall - wall0) + expl
        dq_w = -(impl / dt) * dp_wall

        acc = cset.fracture.porosity * vol / dt
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
        return np.concatenate((r_w, r_n)), jac, tuple(rates), p_wall, q_w


@dataclass
class StepReport:
    """Per accepted (sub)step diagnostics; volumes in m^3 over the step.

    water_defect = accum - source - boundary and volume_defect =
    water_boundary + nonwetting_boundary are bounded by the Newton stop:
    NEWTON_RTOL and VOLUME_RTOL times the total pore volume.
    """

    t: float
    dt: float
    newton_iters: int
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

    def _source_terms(self, state: FlowState, dt: float):
        """(impl, expl, alpha) such that the step's source is
        Q_w = -(impl/dt) (transfer(S_new) - p^0) + expl: the trial step of
        state.memory, which _try_step commits once Newton converges, on
        the clock rate alpha (1 but for the warped kernel)."""
        par = self.params
        src = par.source
        if src.model == "none":
            zeros = np.zeros(self.grid.n_cells)
            return zeros, zeros, 1.0
        alpha = 1.0
        if src.model == "warped":
            # freeze alpha-hat at beginning-of-step extrema
            alpha = np.asarray(con.range_diffusivity(
                state.run_min, state.run_max, par.cset.matrix_table()),
                dtype=float)
        impl, expl = state.memory.step(dt, alpha)
        return impl, expl, alpha

    def _memory(self, wall0, times) -> MemorySource | None:
        """The run's source memory over the report grid times; see the
        module docstring for its clock range."""
        par = self.params
        src = par.source
        if src.model == "none":
            return None
        x_lo = 0.5 * np.diff(times).min() / 2 ** MAX_HALVINGS
        x_hi = 2.0 * (times[-1] - times[0])
        if src.model == "warped":
            cset = par.cset
            x = np.asarray(cset.transfer(np.linspace(
                con.SAT_EPS, 1.0 - con.SAT_EPS, 513)))
            p0 = np.unique(wall0)[:, None]
            band = np.asarray(con.range_diffusivity(
                np.minimum(x, p0), np.maximum(x, p0), cset.matrix_table()))
            x_lo, x_hi = x_lo * band.min(), x_hi * band.max()
        return MemorySource(src.constant, wall0, x_lo, x_hi)

    def _try_step(self, state: FlowState, dt: float) -> None:
        """Append one accepted step of length dt to every history of
        state, or raise NewtonFailure and leave state as it was."""
        par = self.params
        m = self.grid.n_cells
        vol = self.grid.volumes
        impl, expl, alpha = self._source_terms(state, dt)
        s_old = state.sat_hist[-1]
        scale = par.cset.fracture.porosity * self.grid.total_volume / (m * dt)
        lo, hi = con.SAT_EPS, 1.0 - con.SAT_EPS
        clamped = False

        def linearize(x):
            r, jac, rates, p_wall, q_w = self.assembler.assemble(
                *x, s_old, dt, impl, expl, state.wall_hist[0])
            err = max(float(np.abs(r).max()) / scale / NEWTON_RTOL,
                      abs(float(r.sum())) / (m * scale) / VOLUME_RTOL)
            return r, jac, err, (rates, p_wall, q_w)

        def update(x, dx):
            nonlocal clamped
            fac = min(1.0, MAX_DS / max(float(np.abs(dx[:m]).max()), 1e-300))
            s_new = x[0] + fac * dx[:m]
            clamped = bool((s_new < lo).any() or (s_new > hi).any())
            return np.clip(s_new, lo, hi), x[1] + fac * dx[m:]

        (s, pn), ((rate_w, rate_n), p_wall, q_w), it = newton_solve(
            (s_old.copy(), state.pressure_n.copy()), linearize, update,
            lambda jac: self.assembler.pattern.factor(jac, splu))

        # accepted: the memory first, since its range check can raise
        if state.memory is not None:
            state.memory.commit(p_wall)
        water_accum = float(par.cset.fracture.porosity
                            * np.dot(vol, s - s_old))
        water_source = float(dt * np.dot(vol, q_w))
        water_bdry, nonwet_bdry = rate_w * dt, rate_n * dt
        t = state.times_hist[-1] + dt
        state.steps.append(StepReport(
            t=t, dt=dt, newton_iters=it, clamped=clamped,
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
        # the memory's clock rate: alpha-hat for the warped kernel, else 1
        a0 = (np.asarray(par.cset.matrix_alpha(p_wall), dtype=float)
              if par.source.model == "warped" else 1.0)
        state = FlowState(
            pressure_n=pn,
            memory=self._memory(p_wall, times),
            run_min=p_wall.copy(), run_max=p_wall.copy(),
            times_hist=[float(times[0])], sat_hist=[s], wall_hist=[p_wall],
            alpha_hist=[a0 * np.ones(m)],
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
