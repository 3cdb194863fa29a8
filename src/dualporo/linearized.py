"""Linearized block imbibition: constant and variable diffusivity.

Replacing alpha(s) by a scalar turns the block problem into the heat
equation. Two linearizations are provided:

  * constant ("clin"): the saturation average alpha_bar = int_0^1 alpha;
  * variable ("vlin"): a time-dependent scalar, the average of alpha over
    the saturation range the wall value has visited so far, frozen per
    step in physical time.  (The change of time variable tau(t) =
    int_0^t alpha_hat maps it to the unit-coefficient problem, with
    Q_vlin(t) = alpha_hat(t) * Q_unit(tau(t)).)

For the constant problem on the cube the step response has the classical
odd-mode sine series; the block-averaged saturation after a unit wall step
from 0 is

    m(t) = 1 - prod_axes [ (8/pi^2) sum_{j odd} j^-2 exp(-a pi^2 j^2 t/L^2) ]

and the exchange kernel is phi_m * dm/dt, a positive decreasing
exponential sum. The number of retained odd modes is configurable: at
times with a*t << (L/j_max)^2 the truncation tail is not small, which the
recorded tail bound makes visible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmesh import BlockMesh
from .effective import running_range_alpha
from .imbibition import (BlockProblem, BlockSolution, ExchangeSeries,
                         run_linear)


@dataclass(frozen=True)
class DiffusionKernel:
    """Exponential-sum exchange kernel of the constant-coefficient block."""

    dimension: int
    length: float
    diffusivity: float      # a = delta^2 k_m alpha / phi_m  [block units/s]
    porosity: float
    modes: np.ndarray       # odd mode numbers per axis
    rates_1d: np.ndarray    # a pi^2 j^2 / L^2
    weights_1d: np.ndarray  # (8/pi^2) / j^2

    def mean_complement_1d(self, t):
        """Per-axis factor of 1 - m(t); in (0, 1], equals 1 at t = 0."""
        t = np.asarray(t, dtype=float)
        e = np.exp(-np.multiply.outer(t, self.rates_1d))
        out = e @ self.weights_1d
        return np.minimum(out, 1.0)

    def mean_step_response(self, t):
        """Block-average saturation after a unit wall step at t = 0."""
        return 1.0 - self.mean_complement_1d(t) ** self.dimension

    def kernel_value(self, t):
        """phi_m * d/dt mean_step_response; positive and decreasing."""
        t = np.asarray(t, dtype=float)
        e = np.exp(-np.multiply.outer(t, self.rates_1d))
        s = e @ self.weights_1d
        ds = e @ (self.weights_1d * self.rates_1d)
        return self.porosity * self.dimension * s ** (self.dimension - 1) * ds

    def step_exchange_average(self, times, jump: float) -> np.ndarray:
        """Exact per-interval averages of the step-response exchange
        -phi * jump * dm/dt, i.e. -phi*jump*(m(t_k+1)-m(t_k))/dt."""
        m = self.mean_step_response(np.asarray(times, dtype=float))
        return -self.porosity * jump * np.diff(m) / np.diff(times)

    def tail_bound(self, t) -> np.ndarray:
        """Bound on the truncation error of mean_complement_1d at time t."""
        j_next = self.modes[-1] + 2
        rate = self.diffusivity * np.pi ** 2 * j_next ** 2 / self.length ** 2
        geom = (8.0 / np.pi ** 2) * 0.5 / self.modes[-1]
        return geom * np.exp(-rate * np.asarray(t, dtype=float))

    def flattened(self):
        """(weights, rates) of phi*dm/dt as one exponential sum over odd
        multi-indices; sizes grow like (modes per axis)**dimension."""
        w = self.weights_1d
        r = self.rates_1d
        for _ in range(self.dimension - 1):
            w = np.multiply.outer(w, self.weights_1d).reshape(-1)
            r = np.add.outer(r, self.rates_1d).reshape(-1)
        return self.porosity * w * r, r


def kernel_from_scales(dimension: int, length: float, diffusivity: float,
                       porosity: float, j_max: int = 99) -> DiffusionKernel:
    if j_max < 1 or length <= 0.0 or diffusivity <= 0.0:
        raise ValueError("invalid kernel scales")
    j = np.arange(1, j_max + 1, 2, dtype=float)
    return DiffusionKernel(
        dimension=dimension, length=length, diffusivity=diffusivity,
        porosity=porosity, modes=j,
        rates_1d=diffusivity * np.pi ** 2 * j ** 2 / length ** 2,
        weights_1d=(8.0 / np.pi ** 2) / j ** 2)


def build_kernel(delta: float, porosity: float, permeability: float,
                 coefficient: float, dimension: int,
                 j_max: int = 99) -> DiffusionKernel:
    """Kernel of the linearized block with scalar diffusivity `coefficient`.

    j_max caps the odd mode numbers per axis; it must grow like
    L/sqrt(a*t_min) for accuracy at the earliest time of interest.
    """
    a = delta ** 2 * permeability * coefficient / porosity
    return kernel_from_scales(dimension, 1.0 - delta, a, porosity, j_max)


def exchange_by_convolution(wall_values: np.ndarray, times: np.ndarray,
                            kernel: DiffusionKernel, delta: float,
                            wall_reference: float | None = None) -> ExchangeSeries:
    """Exchange of the constant-coefficient block from the convolution

        Q(t) = -d/dt int_0^t K(t-u) (p(u) - p(0)) du

    with p piecewise constant on intervals (right-endpoint values), K the
    flattened exponential-sum kernel. The integrals are exact for that
    data, evaluated by one linear recursion per kernel mode; values are
    per-interval averages at interval midpoints, matching the block
    solver's reporting convention.
    """
    times = np.asarray(times, dtype=float)
    p = np.asarray(wall_values, dtype=float)
    if len(p) != len(times):
        raise ValueError("wall_values must be sampled on the time grid")
    p0 = p[0] if wall_reference is None else wall_reference
    weights, rates = kernel.flattened()
    g = np.zeros_like(rates)
    out = np.empty(len(times) - 1)
    conv_prev = 0.0
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        decay = np.exp(-rates * dt)
        g = g * decay + (p[k + 1] - p0) * (1.0 - decay) / rates
        conv = float(weights @ g)
        out[k] = -(conv - conv_prev) / dt
        conv_prev = conv
    return ExchangeSeries(0.5 * (times[:-1] + times[1:]), out, "clin", delta)


def variable_coefficients(problem: BlockProblem) -> np.ndarray:
    """Per-interval scalar diffusivity: average of alpha over the wall-value
    range visited through the interval's start node."""
    cset = problem.cset
    wall = cset.transfer(np.array([problem.boundary(float(t))
                                   for t in problem.times]))
    return running_range_alpha(wall, cset.matrix.vg, cset.fluids,
                               cset.matrix_table())[:-1]


def run_constant_linearized(problem: BlockProblem,
                            mesh: BlockMesh | None = None,
                            coefficient: float | None = None,
                            store_fields: bool = False) -> BlockSolution:
    """Block solve with alpha replaced by its saturation average."""
    c = problem.cset.alpha_bar() if coefficient is None else coefficient
    return run_linear(problem, c, mesh, store_fields)


def run_variable_linearized(problem: BlockProblem,
                            mesh: BlockMesh | None = None,
                            store_fields: bool = False):
    """Block solve with the range-averaged diffusivity, frozen per step in
    physical time. Returns (solution, coefficients)."""
    coeff = variable_coefficients(problem)
    return run_linear(problem, coeff, mesh, store_fields), coeff
