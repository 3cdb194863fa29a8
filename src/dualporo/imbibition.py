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
and the wall fluxes count all mesh.copies corners.  Every Jacobian of an
nlin run is written into one precomputed sparse pattern
(blockmesh.FixedPattern) and factored through it, in the one LU ordering
it computed for the run.

The linearized runs (run_linear) replace alpha(s) by a scalar c_k frozen
per report step, and factor nothing.  The block mesh is a tensor product
of one 1D grid, so its operator is a Kronecker sum: with M the cell
volumes and D the diffusion matrix, M^-1 D is the sum over the axes of
one 1D operator W^-1 D_1 acting along that axis, and the wall weights
split the same way.  One symmetric tridiagonal eigenproblem,
W^-1/2 D_1 W^-1/2 = Q diag(lambda) Q^T, diagonalizes every axis at once
(the fast diagonalization method, Lynch, Rice & Thomas, Numer. Math. 6
(1964) 185).  With S = (W^-1/2 Q) (x) ... (x) (W^-1/2 Q), one factor per
axis, the field is held as s = h + S a: h the last wall value, uniform,
and a the modal amplitudes of what is off it.  Each backward-Euler step
to the wall value g is then a scalar update per mode,

    a <- (a + (h - g) v_hat) / (1 - tau mu),   h <- g,
    tau = k_eff c_k dt / phi_m,

whatever the coefficient sequence; mu holds the d-fold sums of the
eigenvalues and v_hat the modal amplitudes of the unit field.  The block
mean and the wall flux are dot products of a with v_hat and with the
modal wall weights; the cell field is rebuilt once, at the end of the
run.

The exchange rate (wetting-phase volume per unit time and bulk volume,
negative while water imbibes into the block) is computed two ways:

  * volume method: -phi_m * d/dt (block-average saturation),
  * flux method:   -(delta^2 k_m / vol) * (two-point wall fluxes of beta),

which agree to Newton tolerance per step by construction of the scheme;
both are reported as per-interval averages at interval midpoints.

cover_interval is the one step controller and newton_solve the one Newton
loop of the block and of the flood (fvsolver): every report interval is
first tried in one step, whatever the interval before it needed.  The
block's Newton stop (BlockStepper.newton_step) is fixed per step: NEWTON_RTOL
of a unit saturation change on the largest cell, wherever Newton starts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
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
    """Backward-Euler Newton steps of the nonlinear solve (beta through
    Newton) on one block mesh.

    Its Jacobians are built in one blockmesh.FixedPattern, that of the
    diffusion matrix (its diagonal included), computed and ordered once
    per stepper, and factored through it.
    """

    def __init__(self, mesh: BlockMesh, porosity: float, k_eff: float):
        self.mesh = mesh
        self.k_eff = k_eff
        self._acc = porosity * mesh.volumes
        d = mesh.diffusion_matrix.tocoo()
        self._d_vals, self._d_cols = d.data, d.col
        cells = np.arange(mesh.n_cells)
        self.pattern = FixedPattern(np.concatenate((d.row, cells)),
                                    np.concatenate((d.col, cells)),
                                    d.shape)

    def jacobian(self, acc, alpha) -> sp.csc_matrix:
        """diag(acc) - k_eff * diffusion_matrix @ diag(alpha), alpha per
        cell, written into the stepper's one CSC matrix in the pattern's
        order (cells permuted by its order); the next call overwrites it."""
        kd = self.k_eff * (self._d_vals * alpha[self._d_cols])
        return self.pattern.fill(np.concatenate((-kd, acc)))

    def factor(self, jac):
        """LU of a matrix jacobian returned, made by this module's splu."""
        return self.pattern.factor(jac, splu)

    def newton_step(self, s_old, dt: float, g: float, beta, alpha):
        """One implicit step of phi ds/dt = k_eff Lap(beta(s)) by
        newton_solve, clipped to [0, 1]; returns (s_new, beta(s_new),
        iterations).  An iterate is accepted at max|r| <= NEWTON_RTOL *
        max(phi vol / dt), the residual of a unit saturation change on the
        largest cell: fixed per step, whatever Newton starts from."""
        beta_g = float(beta(g))
        acc = self._acc / dt
        tol = NEWTON_RTOL * acc.max()

        def linearize(s):
            beta_s = beta(s)
            r = acc * (s - s_old) - self.k_eff * (
                self.mesh.diffusion_matrix @ beta_s
                + self.mesh.boundary_weights * beta_g)
            r_max = np.abs(r).max()
            jac = self.jacobian(acc, alpha(s)) if r_max > tol else None
            return r, jac, r_max / tol, beta_s

        return newton_solve(np.array(s_old, dtype=float), linearize,
                            lambda s, ds: np.clip(s + ds, 0.0, 1.0),
                            self.factor)

    def wall_flux(self, beta_s, beta_g: float) -> float:
        """k_eff * sum of wall two-point fluxes of beta into the block, all
        mesh.copies corners counted."""
        return self.mesh.copies * self.k_eff * float(
            np.dot(self.mesh.boundary_weights, beta_g - beta_s))


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
    means[0] = float(np.dot(mesh.volumes, s) / mesh.total_volume)
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
        means[k + 1] = float(np.dot(mesh.volumes, s) / mesh.total_volume)

    return BlockSolution(times=times.copy(), mean_saturation=means,
                         flux_integrals=flux_int, final_field=s,
                         newton_iterations=iters_total,
                         substeps=substeps_total)


def _block_modes(mesh: BlockMesh) -> tuple:
    """(mu, b_hat, v_hat, basis) of the mesh, in its cell order: the
    d-fold sums of the 1D eigenvalues, the modal wall weights, the modal
    amplitudes of the unit field (also S^T of the cell volumes) and
    basis = W^-1/2 Q.  The 1D operator D_1 is tensor_mesh's on the mesh's
    grid, corner (copies > 1) or full.  b_hat = S^T b is -mu * v_hat,
    since a uniform field has no interior flux (D 1 = -b); taken so, a
    uniform field at the wall value is an exact fixed point of the step.
    """
    line = tensor_mesh(mesh.grid, 1, corner=mesh.copies > 1)
    d_1 = line.diffusion_matrix
    r = 1.0 / np.sqrt(line.volumes)
    # MRRR keeps the slow modes accurate relative to their own size on the
    # graded grid; scipy's default (stevd) left block means 6e-13 off the
    # LU steps on a 16-cell full cube, against 3e-14 here
    lam, q = eigh_tridiagonal(d_1.diagonal() * r * r,
                              d_1.diagonal(1) * r[:-1] * r[1:],
                              lapack_driver="stemr")
    v = (q / r[:, None]).sum(axis=0)
    mu, v_hat = lam, v
    for _ in range(mesh.dimension - 1):
        mu = np.add.outer(mu, lam).ravel()
        v_hat = np.multiply.outer(v_hat, v).ravel()
    return mu, -mu * v_hat, v_hat, q * r[:, None]


def _cell_field(a: np.ndarray, basis: np.ndarray,
                dimension: int) -> np.ndarray:
    """S a: one contraction with basis per axis.  Each pass contracts the
    first axis and appends the result as the last, so after one pass per
    axis the axes are back in order.  Elementwise products and sums, not
    matmul: BLAS's matrix kernels would page in more library code."""
    f = a
    for _ in range(dimension):
        f = f.reshape(len(basis), -1)
        f = np.array([(row[:, None] * f).sum(axis=0) for row in basis]).T
    return f.ravel()


def run_linear(problem: BlockProblem, coefficients,
               mesh: BlockMesh | None = None) -> BlockSolution:
    """Linearized block solve: phi ds/dt = k_eff c_k Lap(s), with scalar
    diffusivity c_k frozen per report step (scalar input broadcasts),
    one backward-Euler step per report interval, advanced per mode."""
    mesh = mesh or problem.build_mesh()
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
    mu, b_hat, v_hat, basis = _block_modes(mesh)
    rate = problem.k_eff / problem.cset.matrix.porosity
    flux_scale = mesh.copies * problem.k_eff
    h, a = problem.s_init, np.zeros(len(mu))  # the field is h + S a
    means = np.empty(n_rep + 1)
    flux_int = np.empty(n_rep)
    means[0] = h
    for k in range(n_rep):
        dt = times[k + 1] - times[k]
        g = problem.wall_value(times[k + 1])
        tau = rate * coeff[k] * dt
        a = (a + (h - g) * v_hat) / (1.0 - tau * mu)
        h = g
        means[k + 1] = h + np.dot(v_hat, a) / mesh.total_volume
        flux_int[k] = -flux_scale * coeff[k] * dt * np.dot(b_hat, a)
    field = h + _cell_field(a, basis, mesh.dimension)
    return BlockSolution(times=times.copy(), mean_saturation=means,
                         flux_integrals=flux_int, final_field=field,
                         newton_iterations=n_rep, substeps=n_rep)


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
