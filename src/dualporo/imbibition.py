"""Matrix-block imbibition and the matrix-fracture exchange term.

One cube block of edge 1-delta is driven by a spatially uniform,
time-varying Dirichlet value: the matrix saturation in capillary
equilibrium with the fracture saturation at the wall. The block solves

    phi_m ds/dt = delta^2 k_m Lap(beta(s)),

backward Euler in time, two-point flux in space on a wall-layer-graded
tensor mesh, Newton with the analytic Jacobian d(beta)/ds = alpha.  The
wall drive and the initial state are uniform, so the solution is
mirror-symmetric about the cube's mid-planes, and the mesh is the d-fold
product of one 1D grid, so it is symmetric under every permutation of
the axes too.  BlockProblem.build_mesh returns the corner's permutation
wedge (blockmesh.wedge_mesh): one cell per orbit of the corner's cells,
each with the corner's own residual, so Newton takes the corner's
iterates on n(n+1)/2 cells in 2d and n(n+1)(n+2)/6 in 3d instead of n^d.
The means and the wall fluxes count each cell mesh.copies times.  The
corner and the full cube, passed in as meshes, stay as the references.
Every Jacobian of an nlin run is written into one precomputed sparse
pattern (blockmesh.FixedPattern), and each Newton solve solves its
corrections by the pattern's solver, in the one LU ordering it computed
for the run.

The linearized runs (run_linear) replace alpha(s) by a scalar c_k frozen
per report step, the clock rate of their memory, and factor nothing.
The block mesh is a tensor product of one 1D grid, so its operator is a
Kronecker sum: with M the cell volumes and D the diffusion matrix, M^-1 D
is the sum over the axes of one 1D operator W^-1 D_1 acting along that
axis, and the wall weights split the same way.  One symmetric
tridiagonal eigenproblem, W^-1/2 D_1 W^-1/2 = Q diag(lambda) Q^T,
diagonalizes every axis at once (the fast diagonalization method,
Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185).  With
S = (W^-1/2 Q) (x) ... (x) (W^-1/2 Q), one factor per axis, the field is
h + S a: h the last wall value, uniform, and a the modal amplitudes of
what is off it.  The modes m and pi(m), pi a permutation of the axes,
share mu and v_hat below, so their amplitudes stay equal from a zero
start; BlockMemory keeps one mode per class, m_1 >= .. >= m_d, and
counts it w times, w the class size.  Each backward-Euler step to the
wall value g is then a scalar update per mode,

    a <- (a + (h - g) v_hat) / (1 - tau mu),   h <- g,
    tau = k_eff c_k dt / phi_m,

whatever the coefficient sequence; mu holds the d-fold sums of the
eigenvalues and v_hat the modal amplitudes of the unit field.  With
d = 1/(1 - tau mu) and V the volume of the mesh the modes live on, the
step's exchange is

    Q = -(phi_m/dt) (K (g - h) + sum w v_hat a tau mu d / V),
    K = 1 - sum w v_hat^2 d / V,

a sum with no cancellation (the volume form, -phi_m d(mean)/dt, loses
up to 1e-10 of it at delta = 0.001).  BlockMemory holds h and a behind
effective.MemorySource's interface, effective.exchange_series drives it,
and run_linear returns that exchange; no cell field is ever formed.

nlin's exchange rate (wetting-phase volume per unit time and bulk volume,
negative while water imbibes) is computed two ways from a BlockSolution:

  * volume method: -phi_m * d/dt (block-average saturation),
  * flux method:   -(delta^2 k_m / vol) * (two-point wall fluxes of beta),

which agree to Newton tolerance per step by construction of the scheme;
both are reported as per-interval averages at interval midpoints.

cover_interval is the one step controller, newton_solve the one Newton
loop and damping (no correction moves a saturation by more than MAX_DS)
the one Newton update of the block and of the flood (fvsolver): every
report interval is first tried in one step, whatever the interval before
it needed.  newton_solve builds a Jacobian, by the callable linearize
returns, only for an iterate it corrects.  The block's Newton stop
(BlockStepper.newton_step) is fixed per step: NEWTON_RTOL of a unit
saturation change on the largest cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from .blockmesh import (BlockMesh, FixedPattern, layer_adapted_grid,
                        permutation_orbits, tensor_mesh, wedge_mesh)
from .constitutive import ConstitutiveSet
from .effective import exchange_series

EFFECTIVE_METHODS = ("effective-I", "effective-II")
EXCHANGE_METHODS = ("nlin", "clin", "vlin") + EFFECTIVE_METHODS

NEWTON_RTOL = 1.0e-10
NEWTON_MAX_ITER = 30
STALL_ITER = 3          # corrections in a row without a new smallest error
MAX_HALVINGS = 10       # shortest step: a report interval / 2**MAX_HALVINGS
MAX_DS = 0.2            # largest saturation change of one Newton correction


class NewtonFailure(RuntimeError):
    pass


def newton_solve(x, linearize, update, solve):
    """Newton's method from x; returns (x, out, corrections).

    linearize(x) gives (r, err, out, jacobian), err in units of the
    tolerance: x is accepted at err <= 1, else x = update(x, dx), dx =
    solve(jacobian(), -r) (solve a FixedPattern's solver, which may keep
    one LU for the whole solve), so only a corrected iterate builds its
    Jacobian.  Raises NewtonFailure after NEWTON_MAX_ITER corrections,
    STALL_ITER in a row with no new smallest error, a singular LU or a
    non-finite dx."""
    best, stalled = np.inf, 0
    for it in range(NEWTON_MAX_ITER + 1):
        r, err, out, jacobian = linearize(x)
        if err <= 1.0:
            return x, out, it
        best, stalled = (err, 0) if err < best else (best, stalled + 1)
        if it == NEWTON_MAX_ITER:
            raise NewtonFailure(f"no convergence in {it} Newton iterations "
                                f"(error {err:.3e} of tolerance)")
        if stalled == STALL_ITER:
            raise NewtonFailure(f"Newton stalled: {stalled} corrections set "
                                f"no new smallest error ({best:.3e})")
        jac = jacobian()
        try:
            dx = solve(jac, -r)
        except RuntimeError as exc:        # singular factorization
            raise NewtonFailure(str(exc)) from exc
        if not np.isfinite(dx).all():
            raise NewtonFailure("non-finite Newton correction")
        x = update(x, dx)


def damping(ds) -> float:
    """min(1, MAX_DS / max|ds|), the factor a Newton correction ds takes."""
    return min(1.0, MAX_DS / max(float(np.abs(ds).max()), 1e-300))


def cover_interval(t0: float, t1: float,
                   attempt: Callable[[float, float], None]) -> None:
    """Cover the report interval [t0, t1] with steps attempt(t, dt).

    The first attempt is the whole interval.  An attempt that raises
    NewtonFailure is retried at half the step; the failure is re-raised
    once that half would fall below (t1 - t0) / 2**MAX_HALVINGS.  Each
    accepted step doubles the next, cut to the interval's end, and the
    interval is done within 1e-9 of its length.
    """
    span = t1 - t0
    min_dt = span / 2 ** MAX_HALVINGS
    t, dt = t0, span
    while t1 - t > 1e-9 * span:
        dt = min(dt, t1 - t)
        try:
            attempt(t, dt)
        except NewtonFailure:
            if dt / 2 < min_dt:
                raise
            dt /= 2
            continue
        t += dt
        dt *= 2


def midpoints(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    return 0.5 * (times[:-1] + times[1:])


@dataclass(frozen=True)
class BlockProblem:
    """One block-imbibition run: geometry, media, boundary drive, grids."""

    delta: float
    dimension: int
    cset: ConstitutiveSet
    boundary: Callable[[float], float]   # fracture saturation vs time [s]
    times: np.ndarray                    # report grid [s], strictly increasing
    mesh_cells: int = 64

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2 or not (np.diff(t) > 0).all():
            raise ValueError("times must be a strictly increasing 1D grid")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "times", t)

    @property
    def k_eff(self) -> float:
        return self.delta ** 2 * self.cset.matrix.permeability

    @property
    def s_init(self) -> float:
        """Uniform initial state: in equilibrium with the first wall value."""
        return self.wall_value(self.times[0])

    def wall_value(self, t: float) -> float:
        """Matrix saturation imposed on the block walls at time t."""
        return float(self.cset.transfer(self.boundary(float(t))))

    @cached_property
    def report_walls(self) -> np.ndarray:
        """The wall values at the report times (wall_series), sampled
        once per problem and read-only: a vlin run reads them for its
        coefficients and its memory."""
        wall = wall_series(self.cset, self.boundary, self.times)
        wall.flags.writeable = False
        return wall

    def diffusion_scale(self) -> float:
        """Squared diffusion length over the run, for mesh grading."""
        a = self.k_eff * self.cset.alpha_bar() / self.cset.matrix.porosity
        return a * float(self.times[-1] - self.times[0])

    def build_mesh(self) -> BlockMesh:
        """The permutation wedge of the block's corner (module
        docstring)."""
        grid = layer_adapted_grid(self.mesh_cells, self.delta,
                                  self.diffusion_scale())
        return wedge_mesh(grid, self.dimension)


@dataclass
class BlockSolution:
    """Report-grid history of one nonlinear block run (run_trajectory).

    mean_saturation and flux_integrals describe the whole block;
    final_field holds the cells of the mesh the run used: the wedge cells
    of build_mesh, one per orbit of the corner's cells, unless a mesh is
    passed in.
    """

    times: np.ndarray
    mean_saturation: np.ndarray      # volume-weighted block average
    flux_integrals: np.ndarray       # int of wall beta-flux over each interval
    final_field: np.ndarray
    newton_iterations: int
    substeps: int


@dataclass(frozen=True)
class ExchangeSeries:
    """Wetting-phase exchange rate samples at interval midpoints [1/s]."""

    times: np.ndarray
    values: np.ndarray
    method: str
    delta: float
    divided_by_delta: bool = False

    def __post_init__(self) -> None:
        if self.method not in EXCHANGE_METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if len(self.times) != len(self.values):
            raise ValueError("times/values length mismatch")
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def per_delta(self) -> "ExchangeSeries":
        if self.divided_by_delta:
            return self
        return ExchangeSeries(self.times, self.values / self.delta,
                              self.method, self.delta, True)

    def restricted(self, t_lo: float, t_hi: float) -> "ExchangeSeries":
        keep = (self.times >= t_lo) & (self.times <= t_hi)
        return ExchangeSeries(self.times[keep], self.values[keep],
                              self.method, self.delta, self.divided_by_delta)


class BlockStepper:
    """Backward-Euler Newton steps of the nonlinear solve (beta through
    Newton) on one block mesh.

    Its Jacobians are built in one blockmesh.FixedPattern, that of the
    diffusion matrix (its diagonal included), computed and ordered once
    per stepper, and solved by its solver (made by this module's splu on
    SuperLU's route).
    """

    def __init__(self, mesh: BlockMesh, porosity: float, k_eff: float):
        self.mesh = mesh
        self.k_eff = k_eff
        self._acc = porosity * mesh.volumes
        self._wall_weights = mesh.copies * mesh.boundary_weights
        d = mesh.diffusion_matrix.tocoo()
        self._d_vals, self._d_cols = d.data, d.col
        cells = np.arange(mesh.n_cells)
        self.pattern = FixedPattern(np.concatenate((d.row, cells)),
                                    np.concatenate((d.col, cells)),
                                    d.shape)

    def jacobian(self, acc, alpha) -> sp.csc_matrix:
        """diag(acc) - k_eff * diffusion_matrix @ diag(alpha), alpha per
        cell, written into the stepper's one CSC matrix in the pattern's
        stored order, which its solver takes; the next call overwrites
        it."""
        kd = self.k_eff * (self._d_vals * alpha[self._d_cols])
        return self.pattern.fill(np.concatenate((-kd, acc)))

    def newton_step(self, s_old, dt: float, g: float, beta, alpha):
        """One implicit step of phi ds/dt = k_eff Lap(beta(s)) by
        newton_solve, each correction damped and clipped to [0, 1];
        returns (s_new, beta(s_new), iterations).  An iterate is accepted
        at max|r| <= NEWTON_RTOL * max(phi vol / dt), the residual of a
        unit saturation change on the largest cell: fixed per step."""
        beta_g = float(beta(g))
        acc = self._acc / dt
        tol = NEWTON_RTOL * acc.max()

        def linearize(s):
            beta_s = beta(s)
            r = acc * (s - s_old) - self.k_eff * (
                self.mesh.diffusion_matrix @ beta_s
                + self.mesh.boundary_weights * beta_g)
            return (r, np.abs(r).max() / tol, beta_s,
                    lambda: self.jacobian(acc, alpha(s)))

        return newton_solve(np.array(s_old, dtype=float), linearize,
                            lambda s, ds: np.clip(s + damping(ds) * ds,
                                                  0.0, 1.0),
                            self.pattern.solver(splu))

    def wall_flux(self, beta_s, beta_g: float) -> float:
        """k_eff * sum of wall two-point fluxes of beta into the block,
        each cell counted mesh.copies times."""
        return self.k_eff * float(np.dot(self._wall_weights,
                                         beta_g - beta_s))


def run_trajectory(problem: BlockProblem,
                   mesh: BlockMesh | None = None) -> BlockSolution:
    """Nonlinear block solve over the problem's report grid, each report
    interval covered by cover_interval; accumulates per-interval flux
    integrals."""
    mesh = mesh or problem.build_mesh()
    stepper = BlockStepper(mesh, problem.cset.matrix.porosity, problem.k_eff)
    table = problem.cset.matrix_table()
    alpha = problem.cset.matrix_alpha
    times = problem.times
    n_rep = len(times) - 1
    s = np.full(mesh.n_cells, problem.s_init, dtype=float)
    means = np.empty(n_rep + 1)
    flux_int = np.zeros(n_rep)
    means[0] = mesh.mean(s)
    iters_total = 0
    substeps_total = 0

    def attempt(t, dt):                 # a step of report interval k
        nonlocal s, iters_total, substeps_total
        g = problem.wall_value(t + dt)
        s, beta_s, iters = stepper.newton_step(s, dt, g, table, alpha)
        flux_int[k] += stepper.wall_flux(beta_s, float(table(g))) * dt
        iters_total += iters
        substeps_total += 1

    for k in range(n_rep):
        cover_interval(float(times[k]), float(times[k + 1]), attempt)
        means[k + 1] = mesh.mean(s)

    return BlockSolution(times=times.copy(), mean_saturation=means,
                         flux_integrals=flux_int, final_field=s,
                         newton_iterations=iters_total,
                         substeps=substeps_total)


class BlockMemory:
    """The linearized block's field h + S a (module docstring) as a memory
    with effective.MemorySource's interface: step(dt, c) returns the
    (impl, expl) of the step at diffusivity c, its exchange
    Q = -(impl/dt) (g - p^0) + expl for any wall value g, and commit(g)
    takes it.  wall0 holds p^0."""

    def __init__(self, mesh: BlockMesh, porosity: float, k_eff: float,
                 wall0: float):
        # D_1 is tensor_mesh's 1D operator on the mesh's grid, corner
        # (wedge or corner, copies > 1) or full; v_hat is also S^T of the
        # cell volumes
        line = tensor_mesh(mesh.grid, 1, corner=mesh.copies.min() > 1)
        d_1 = line.diffusion_matrix
        r = 1.0 / np.sqrt(line.volumes)
        # MRRR keeps the slow modes accurate relative to their own size on
        # the graded grid; scipy's default (stevd) left block means 6e-13
        # off the LU steps on a 16-cell full cube, against 3e-14 here
        lam, q = eigh_tridiagonal(d_1.diagonal() * r * r,
                                  d_1.diagonal(1) * r[:-1] * r[1:],
                                  lapack_driver="stemr")
        v = (q / r[:, None]).sum(axis=0)
        # one mode per class m_1 >= .. >= m_d, w times
        reps, orbit = permutation_orbits(len(lam), mesh.dimension)
        modes = np.unravel_index(reps, (len(lam),) * mesh.dimension)
        self.mu, self.v_hat = lam[modes[0]], v[modes[0]]
        for m in modes[1:]:
            self.mu, self.v_hat = self.mu + lam[m], self.v_hat * v[m]
        self.w = np.bincount(orbit).astype(float)
        self.volume = line.total_volume ** mesh.dimension
        self.porosity = porosity
        self._rate = k_eff / porosity
        self.wall0 = float(wall0)
        self.h, self.a = self.wall0, np.zeros(len(self.mu))
        self._trial = None      # 1 - tau mu of the trial step

    def step(self, dt: float, c: float):
        """(impl, expl) of the trial step of length dt at diffusivity c."""
        tau_mu = self._rate * c * dt * self.mu
        self._trial = den = 1.0 - tau_mu
        d, wv = 1.0 / den, self.w * self.v_hat
        k = 1.0 - np.dot(wv * self.v_hat, d) / self.volume
        e = np.dot(wv * self.a, tau_mu * d) / self.volume
        return (self.porosity * k,
                -self.porosity / dt * (k * (self.wall0 - self.h) + e))

    def commit(self, wall: float) -> None:
        """Accept the last trial step, whose wall value is g = wall."""
        if self._trial is None:
            raise ValueError("commit needs a trial step first")
        self.a = (self.a + (self.h - wall) * self.v_hat) / self._trial
        self.h, self._trial = float(wall), None


def wall_series(cset: ConstitutiveSet, boundary, times) -> np.ndarray:
    """Wall values of the drive boundary at the report times, by one
    vectorized transfer: the report-grid form of BlockProblem.wall_value."""
    return cset.transfer(np.array([boundary(float(t)) for t in times]))


def run_linear(problem: BlockProblem, coefficients,
               mesh: BlockMesh | None = None) -> np.ndarray:
    """Linearized block solve: phi ds/dt = k_eff c_k Lap(s), with scalar
    diffusivity c_k frozen per report step (scalar input broadcasts),
    one backward-Euler step per report interval by BlockMemory.  Returns
    the memory's exchange over each report interval."""
    times = problem.times
    n_rep = len(times) - 1
    coeff = np.asarray(coefficients, dtype=float)
    if coeff.ndim == 0:
        coeff = np.full(n_rep, coeff)
    if coeff.shape != (n_rep,):
        raise ValueError(f"coefficients must be a scalar or one value per "
                         f"report interval ({n_rep}), not shape "
                         f"{coeff.shape}")
    if not (np.isfinite(coeff).all() and coeff.min() > 0.0):
        raise ValueError("coefficients must be finite and positive")
    wall = problem.report_walls
    memory = BlockMemory(mesh or problem.build_mesh(),
                         problem.cset.matrix.porosity, problem.k_eff, wall[0])
    return exchange_series(memory, wall, coeff, times)


def exchange_from_volume(solution: BlockSolution,
                         problem: BlockProblem) -> ExchangeSeries:
    """-phi_m * (interval change of the block-average saturation)/dt."""
    t = solution.times
    phi = problem.cset.matrix.porosity
    values = -phi * np.diff(solution.mean_saturation) / np.diff(t)
    return ExchangeSeries(midpoints(t), values, "nlin", problem.delta)


def exchange_from_flux(solution: BlockSolution,
                       problem: BlockProblem) -> ExchangeSeries:
    """-(per-interval average wall beta-flux) / block volume."""
    t = solution.times
    vol = (1.0 - problem.delta) ** problem.dimension
    values = -solution.flux_integrals / np.diff(t) / vol
    return ExchangeSeries(midpoints(t), values, "nlin", problem.delta)
