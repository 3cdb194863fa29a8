"""Matrix-block imbibition and the matrix-fracture exchange term.

One cube block of edge 1-delta is driven by a spatially uniform,
time-varying Dirichlet value: the matrix saturation in capillary
equilibrium with the fracture saturation at the wall. The block solves

    phi_m ds/dt = delta^2 k_m Lap(beta(s)),

backward Euler in time, two-point flux in space on a wall-layer-graded
tensor mesh, Newton with the analytic Jacobian d(beta)/ds = alpha.  The
wall drive and the initial state are uniform, so the solution is
mirror-symmetric about the cube's mid-planes: BlockProblem.build_mesh
returns the corner mesh (one 2^d-th of the cube, no-flux mirror faces),
and the wall fluxes count all mesh.copies corners.  Every Jacobian of a
run is written into one precomputed sparse pattern (blockmesh.FixedPattern)
and factored through it, in the one LU ordering it computed for the run.

The exchange rate (wetting-phase volume per unit time and bulk volume,
negative while water imbibes into the block) is computed two ways:

  * volume method: -phi_m * d/dt (block-average saturation),
  * flux method:   -(delta^2 k_m / vol) * (two-point wall fluxes of beta),

which agree to Newton tolerance per step by construction of the scheme;
both are reported as per-interval averages at interval midpoints.

cover_interval is the one step controller and newton_solve the one Newton
loop of the block and of the flood (fvsolver): every report interval is
first tried in one step, whatever the interval before it needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .blockmesh import (BlockMesh, FixedPattern, layer_adapted_grid,
                        tensor_mesh)
from .constitutive import ConstitutiveSet

EFFECTIVE_METHODS = ("effective-I", "effective-II")
EXCHANGE_METHODS = ("nlin", "clin", "vlin") + EFFECTIVE_METHODS

NEWTON_RTOL = 1.0e-10
NEWTON_MAX_ITER = 30
STALL_ITER = 3          # corrections in a row without a new smallest error
MAX_HALVINGS = 10       # shortest step: a report interval / 2**MAX_HALVINGS


class NewtonFailure(RuntimeError):
    pass


def newton_solve(x, linearize, update, factor):
    """Newton's method from x; returns (x, out, corrections).

    linearize(x) gives (r, jac, err, out), err in units of the tolerance:
    x is accepted at err <= 1 (jac may then be None), else x = update(x,
    dx) with jac dx = -r solved by factor(jac).solve.  Raises
    NewtonFailure after NEWTON_MAX_ITER corrections, after STALL_ITER in a
    row with no new smallest error, on a singular LU or non-finite dx."""
    best, stalled = np.inf, 0
    for it in range(NEWTON_MAX_ITER + 1):
        r, jac, err, out = linearize(x)
        if err <= 1.0:
            return x, out, it
        best, stalled = (err, 0) if err < best else (best, stalled + 1)
        if it == NEWTON_MAX_ITER:
            raise NewtonFailure(f"no convergence in {it} Newton iterations "
                                f"(error {err:.3e} of tolerance)")
        if stalled == STALL_ITER:
            raise NewtonFailure(f"Newton stalled: {stalled} corrections set "
                                f"no new smallest error ({best:.3e})")
        try:
            dx = factor(jac).solve(-r)
        except RuntimeError as exc:        # singular factorization
            raise NewtonFailure(str(exc)) from exc
        if not np.isfinite(dx).all():
            raise NewtonFailure("non-finite Newton correction")
        x = update(x, dx)


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

    def diffusion_scale(self) -> float:
        """Squared diffusion length over the run, for mesh grading."""
        a = self.k_eff * self.cset.alpha_bar() / self.cset.matrix.porosity
        return a * float(self.times[-1] - self.times[0])

    def build_mesh(self) -> BlockMesh:
        grid = layer_adapted_grid(self.mesh_cells, self.delta,
                                  self.diffusion_scale())
        return tensor_mesh(grid, self.dimension, corner=True)


@dataclass
class BlockSolution:
    """Report-grid history of one block run.

    mean_saturation and flux_integrals describe the whole block;
    final_field holds the cells of the mesh the run used (the corner mesh
    of build_mesh unless a mesh is passed in).
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
    """Backward-Euler steps on one block mesh.

    Shared by the nonlinear solve (beta through Newton) and the linearized
    solves (per-step scalar diffusivity, direct solve).  Both build their
    matrices in one blockmesh.FixedPattern, that of the diffusion matrix
    (its diagonal included), computed and ordered once per stepper, and
    factor them through it.  linear_step keeps the factorization of its
    last (dt, coefficient), so constant-coefficient runs on
    piecewise-uniform time grids refactorize only when the step changes.
    """

    def __init__(self, mesh: BlockMesh, porosity: float, k_eff: float):
        self.mesh = mesh
        self.k_eff = k_eff
        self._acc = porosity * mesh.volumes
        self._lu_key = None
        self._lu = None
        d = mesh.diffusion_matrix.tocoo()
        self._d_vals, self._d_cols = d.data, d.col
        cells = np.arange(mesh.n_cells)
        self.pattern = FixedPattern(np.concatenate((d.row, cells)),
                                    np.concatenate((d.col, cells)),
                                    d.shape)

    def jacobian(self, acc, alpha) -> sp.csc_matrix:
        """diag(acc) - k_eff * diffusion_matrix @ diag(alpha), alpha per cell
        or scalar, written into the stepper's one CSC matrix in the
        pattern's order (cells permuted by its order); the next call
        overwrites it."""
        alpha = np.broadcast_to(alpha, (self.mesh.n_cells,))
        kd = self.k_eff * (self._d_vals * alpha[self._d_cols])
        return self.pattern.fill(np.concatenate((-kd, acc)))

    def factor(self, jac):
        """LU of a matrix jacobian returned, made by this module's splu."""
        return self.pattern.factor(jac, splu)

    def linear_step(self, s, dt: float, g: float, coeff: float):
        if self._lu_key != (dt, coeff):
            self._lu = self.factor(self.jacobian(self._acc / dt, coeff))
            self._lu_key = (dt, coeff)
        rhs = self._acc / dt * s \
            + self.k_eff * coeff * self.mesh.boundary_weights * g
        return self._lu.solve(rhs)

    def newton_step(self, s_old, dt: float, g: float, beta, alpha):
        """One implicit step of phi ds/dt = k_eff Lap(beta(s)) by
        newton_solve, clipped to [0, 1]; returns (s_new, beta(s_new),
        iterations)."""
        beta_g = float(beta(g))
        acc = self._acc / dt
        tol = None

        def linearize(s):
            nonlocal tol
            beta_s = beta(s)
            r = acc * (s - s_old) - self.k_eff * (
                self.mesh.diffusion_matrix @ beta_s
                + self.mesh.boundary_weights * beta_g)
            r_max = np.abs(r).max()
            # floor: rtol of a unit saturation change on the largest cell
            tol = tol or NEWTON_RTOL * max(r_max, acc.max())
            jac = self.jacobian(acc, alpha(s)) if r_max > tol else None
            return r, jac, r_max / tol, beta_s

        return newton_solve(np.array(s_old, dtype=float), linearize,
                            lambda s, ds: np.clip(s + ds, 0.0, 1.0),
                            self.factor)

    def wall_flux(self, beta_s, beta_g: float) -> float:
        """k_eff * sum of wall two-point fluxes of beta into the block, all
        mesh.copies corners counted; the linear runs pass beta = c * s."""
        return self.mesh.copies * self.k_eff * float(
            np.dot(self.mesh.boundary_weights, beta_g - beta_s))


def _advance(problem: BlockProblem, mesh: BlockMesh, step) -> BlockSolution:
    """Drive `step(s, t0, t1, k) -> (s_new, flux, iterations)` over the
    report grid, each interval covered by cover_interval; accumulates
    per-interval flux integrals."""
    times = problem.times
    n_rep = len(times) - 1
    s = np.full(mesh.n_cells, problem.s_init, dtype=float)
    means = np.empty(n_rep + 1)
    flux_int = np.zeros(n_rep)
    means[0] = float(np.dot(mesh.volumes, s) / mesh.total_volume)
    iters_total = 0
    substeps_total = 0

    def attempt(t, dt):                 # a step of report interval k
        nonlocal s, iters_total, substeps_total
        s, flux, iters = step(s, t, t + dt, k)
        flux_int[k] += flux * dt
        iters_total += iters
        substeps_total += 1

    for k in range(n_rep):
        cover_interval(float(times[k]), float(times[k + 1]), attempt)
        means[k + 1] = float(np.dot(mesh.volumes, s) / mesh.total_volume)

    return BlockSolution(times=times.copy(), mean_saturation=means,
                         flux_integrals=flux_int, final_field=s,
                         newton_iterations=iters_total,
                         substeps=substeps_total)


def run_trajectory(problem: BlockProblem,
                   mesh: BlockMesh | None = None) -> BlockSolution:
    """Nonlinear block solve over the problem's report grid."""
    mesh = mesh or problem.build_mesh()
    stepper = BlockStepper(mesh, problem.cset.matrix.porosity, problem.k_eff)
    table = problem.cset.matrix_table()
    alpha = problem.cset.matrix_alpha

    def step(s, t0, t1, k):
        g = problem.wall_value(t1)
        s_new, beta_s, iters = stepper.newton_step(s, t1 - t0, g, table,
                                                   alpha)
        return s_new, stepper.wall_flux(beta_s, float(table(g))), iters

    return _advance(problem, mesh, step)


def run_linear(problem: BlockProblem, coefficients,
               mesh: BlockMesh | None = None) -> BlockSolution:
    """Linearized block solve: phi ds/dt = k_eff c_k Lap(s), with scalar
    diffusivity c_k frozen per report step (scalar input broadcasts)."""
    mesh = mesh or problem.build_mesh()
    n_rep = len(problem.times) - 1
    coeff = np.broadcast_to(np.asarray(coefficients, dtype=float),
                            (n_rep,)).copy()
    stepper = BlockStepper(mesh, problem.cset.matrix.porosity, problem.k_eff)

    def step(s, t0, t1, k):
        g = problem.wall_value(t1)
        c = float(coeff[k])
        s_new = stepper.linear_step(s, t1 - t0, g, c)
        return s_new, stepper.wall_flux(c * s_new, c * g), 1

    return _advance(problem, mesh, step)


def exchange_from_volume(solution: BlockSolution, problem: BlockProblem,
                         method: str = "nlin") -> ExchangeSeries:
    """-phi_m * (interval change of the block-average saturation)/dt."""
    t = solution.times
    phi = problem.cset.matrix.porosity
    values = -phi * np.diff(solution.mean_saturation) / np.diff(t)
    return ExchangeSeries(midpoints(t), values, method, problem.delta)


def exchange_from_flux(solution: BlockSolution, problem: BlockProblem,
                       method: str = "nlin") -> ExchangeSeries:
    """-(per-interval average wall beta-flux) / block volume."""
    t = solution.times
    vol = (1.0 - problem.delta) ** problem.dimension
    values = -solution.flux_integrals / np.diff(t) / vol
    return ExchangeSeries(midpoints(t), values, method, problem.delta)
