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
and factored with the ordering the flood uses, blockmesh.LU_OPTIONS.

The exchange rate (wetting-phase volume per unit time and bulk volume,
negative while water imbibes into the block) is computed two ways:

  * volume method: -phi_m * d/dt (block-average saturation),
  * flux method:   -(delta^2 k_m / vol) * (two-point wall fluxes of beta),

which agree to Newton tolerance per step by construction of the scheme;
both are reported as per-interval averages at interval midpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .blockmesh import (LU_OPTIONS, BlockMesh, FixedPattern, GradingParams,
                        layer_adapted_grid, tensor_mesh)
from .constitutive import ConstitutiveSet

EXCHANGE_METHODS = ("nlin", "clin", "vlin", "effective-I", "effective-II")


@dataclass(frozen=True)
class NewtonOptions:
    rtol: float = 1.0e-10
    max_iter: int = 25
    max_halvings: int = 10


class NewtonFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class BlockProblem:
    """One block-imbibition run: geometry, media, boundary drive, grids."""

    delta: float
    dimension: int
    cset: ConstitutiveSet
    boundary: Callable[[float], float]   # fracture saturation vs time [s]
    times: np.ndarray                    # report grid [s], strictly increasing
    initial_saturation: float | None = None   # matrix units; None -> equilibrium
    mesh_cells: int = 64
    grading: GradingParams = GradingParams()

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
        if self.initial_saturation is not None:
            return float(self.initial_saturation)
        return float(self.cset.transfer(self.boundary(float(self.times[0]))))

    def wall_value(self, t: float) -> float:
        """Matrix saturation imposed on the block walls at time t."""
        return float(self.cset.transfer(self.boundary(float(t))))

    def diffusion_scale(self) -> float:
        """Squared diffusion length over the run, for mesh grading."""
        a = self.k_eff * self.cset.alpha_bar() / self.cset.matrix.porosity
        return a * float(self.times[-1] - self.times[0])

    def build_mesh(self) -> BlockMesh:
        grid = layer_adapted_grid(self.mesh_cells, self.delta,
                                  self.diffusion_scale(), self.grading)
        return tensor_mesh(grid, self.dimension, corner=True)


@dataclass
class BlockSolution:
    """Report-grid history of one block run.

    mean_saturation and flux_integrals describe the whole block;
    final_field and fields hold the cells of the mesh the run used (the
    corner mesh of build_mesh unless a mesh is passed in).
    """

    times: np.ndarray
    mean_saturation: np.ndarray      # volume-weighted block average
    flux_integrals: np.ndarray       # int of wall beta-flux over each interval
    final_field: np.ndarray
    newton_iterations: int
    substeps: int
    fields: list | None = None


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
    (its diagonal included), computed once per stepper, and factor them
    with blockmesh.LU_OPTIONS.  linear_step keeps the factorization of its
    last (dt, coefficient), so constant-coefficient runs on
    piecewise-uniform time grids refactorize only when the step changes.
    """

    def __init__(self, mesh: BlockMesh, porosity: float, k_eff: float):
        self.mesh = mesh
        self.phi = porosity
        self.k_eff = k_eff
        self._acc = porosity * mesh.volumes
        self._lu_key = None
        self._lu = None
        d = mesh.diffusion_matrix.tocoo()
        self._d_vals, self._d_cols = d.data, d.col
        cells = np.arange(mesh.n_cells)
        self._pattern = FixedPattern(np.concatenate((d.row, cells)),
                                     np.concatenate((d.col, cells)),
                                     d.shape)

    def jacobian(self, acc, alpha) -> sp.csc_matrix:
        """diag(acc) - k_eff * diffusion_matrix @ diag(alpha), alpha per cell
        or scalar, written into the stepper's one CSC matrix; the next call
        overwrites it."""
        alpha = np.broadcast_to(alpha, (self.mesh.n_cells,))
        kd = self.k_eff * (self._d_vals * alpha[self._d_cols])
        return self._pattern.fill(np.concatenate((-kd, acc)))

    def linear_step(self, s, dt: float, g: float, coeff: float):
        if self._lu_key != (dt, coeff):
            self._lu = splu(self.jacobian(self._acc / dt, coeff),
                            **LU_OPTIONS)
            self._lu_key = (dt, coeff)
        rhs = self._acc / dt * s \
            + self.k_eff * coeff * self.mesh.boundary_weights * g
        return self._lu.solve(rhs)

    def newton_step(self, s_old, dt: float, g: float, beta, alpha,
                    opts: NewtonOptions):
        """One implicit step of phi ds/dt = k_eff Lap(beta(s)); returns
        (s_new, iterations). Raises NewtonFailure when not converged."""
        mesh = self.mesh
        beta_g = float(beta(g))
        acc = self._acc / dt
        s = np.array(s_old, dtype=float)

        def residual(sv):
            return acc * (sv - s_old) - self.k_eff * (
                mesh.diffusion_matrix @ beta(sv)
                + mesh.boundary_weights * beta_g)

        r = residual(s)
        r0 = np.abs(r).max()
        # absolute floor: rtol of a unit saturation change on the largest cell
        tol = opts.rtol * max(r0, acc.max())
        if r0 <= tol:
            return s, 0
        for it in range(1, opts.max_iter + 1):
            jac = self.jacobian(acc, alpha(s))
            s = np.clip(s - splu(jac, **LU_OPTIONS).solve(r), 0.0, 1.0)
            r = residual(s)
            if np.abs(r).max() <= tol:
                return s, it
        raise NewtonFailure(
            f"no convergence in {opts.max_iter} iterations "
            f"(residual {np.abs(r).max():.3e} vs tol {tol:.3e})")

    def wall_flux_nonlinear(self, s, g: float, beta) -> float:
        """k_eff * sum of wall two-point fluxes of beta into the block,
        all mesh.copies corners counted."""
        return self.mesh.copies * self.k_eff * float(
            np.dot(self.mesh.boundary_weights, float(beta(g)) - beta(s)))

    def wall_flux_linear(self, s, g: float, coeff: float) -> float:
        return self.mesh.copies * self.k_eff * coeff * float(
            np.dot(self.mesh.boundary_weights, g - s))

    def mean(self, s) -> float:
        return float(np.dot(self.mesh.volumes, s) / self.mesh.total_volume)


def _advance(problem: BlockProblem, mesh: BlockMesh, step,
             opts: NewtonOptions, store_fields: bool) -> BlockSolution:
    """Drive `step(s, t0, t1, k) -> (s_new, flux)` over the report grid with
    dt-halving on Newton failure; accumulates per-interval flux integrals."""
    stepper_times = problem.times
    n_rep = len(stepper_times) - 1
    s = np.full(mesh.n_cells, problem.s_init, dtype=float)
    means = np.empty(n_rep + 1)
    flux_int = np.zeros(n_rep)
    means[0] = float(np.dot(mesh.volumes, s) / mesh.total_volume)
    fields = [s.copy()] if store_fields else None
    iters_total = 0
    substeps_total = 0

    dt_hint = float("inf")
    for k in range(n_rep):
        t0, t1 = float(stepper_times[k]), float(stepper_times[k + 1])
        t = t0
        dt = min(t1 - t0, dt_hint)
        min_dt = (t1 - t0) / 2 ** opts.max_halvings
        while t < t1 - 1e-12 * (t1 - t0):
            dt = min(dt, t1 - t)
            try:
                s_new, flux, iters = step(s, t, t + dt, k)
            except NewtonFailure:
                if dt / 2 < min_dt:
                    raise
                dt /= 2
                continue
            flux_int[k] += flux * dt
            s = s_new
            t += dt
            iters_total += iters
            substeps_total += 1
            dt = dt_hint = 2 * dt
        means[k + 1] = float(np.dot(mesh.volumes, s) / mesh.total_volume)
        if store_fields:
            fields.append(s.copy())

    return BlockSolution(times=stepper_times.copy(), mean_saturation=means,
                         flux_integrals=flux_int, final_field=s,
                         newton_iterations=iters_total,
                         substeps=substeps_total, fields=fields)


def run_trajectory(problem: BlockProblem, mesh: BlockMesh | None = None,
                   opts: NewtonOptions = NewtonOptions(),
                   store_fields: bool = False) -> BlockSolution:
    """Nonlinear block solve over the problem's report grid."""
    mesh = mesh or problem.build_mesh()
    stepper = BlockStepper(mesh, problem.cset.matrix.porosity, problem.k_eff)
    table = problem.cset.matrix_table()
    alpha = problem.cset.matrix_alpha

    def step(s, t0, t1, k):
        g = problem.wall_value(t1)
        s_new, iters = stepper.newton_step(s, t1 - t0, g, table, alpha, opts)
        return s_new, stepper.wall_flux_nonlinear(s_new, g, table), iters

    return _advance(problem, mesh, step, opts, store_fields)


def run_linear(problem: BlockProblem, coefficients,
               mesh: BlockMesh | None = None,
               store_fields: bool = False) -> BlockSolution:
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
        return s_new, stepper.wall_flux_linear(s_new, g, c), 1

    return _advance(problem, mesh, step, NewtonOptions(), store_fields)


def exchange_from_volume(solution: BlockSolution, problem: BlockProblem,
                         method: str = "nlin") -> ExchangeSeries:
    """-phi_m * (interval change of the block-average saturation)/dt."""
    t = solution.times
    phi = problem.cset.matrix.porosity
    values = -phi * np.diff(solution.mean_saturation) / np.diff(t)
    return ExchangeSeries(0.5 * (t[:-1] + t[1:]), values, method,
                          problem.delta)


def exchange_from_flux(solution: BlockSolution, problem: BlockProblem,
                       method: str = "nlin") -> ExchangeSeries:
    """-(per-interval average wall beta-flux) / block volume."""
    t = solution.times
    vol = (1.0 - problem.delta) ** problem.dimension
    values = -solution.flux_integrals / np.diff(t) / vol
    return ExchangeSeries(0.5 * (t[:-1] + t[1:]), values, method,
                          problem.delta)
