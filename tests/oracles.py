"""Reference solutions the tests check the simulator against.

No run, CLI verb or benchmark reaches these; they are the independent
routes to the numbers the package computes, kept with the tests.

Eigenfunction series of the constant-coefficient block.  For the
constant problem on the cube the step response has the classical
odd-mode sine series; the block-averaged saturation after a unit wall
step from 0 is

    m(t) = 1 - prod_axes [ (8/pi^2) sum_{j odd} j^-2 exp(-a pi^2 j^2 t/L^2) ]

DiffusionKernel evaluates it and its exact per-interval exchange, the
analytic reference of the clin block solve.  The number of retained odd
modes is configurable: at times with a*t << (L/j_max)^2 the truncation
tail is not small, which tail_bound makes visible.

Exact product quadrature of the sqrt-kernel step (see
dualporo.effective for the scheme and its weights D^n_k).
sqrt_kernel_step integrates the kernel exactly against piecewise-constant
data with the suffix sums U^n_k = sum_{l=k}^n w_l,

    I^n_k = 2 C w_k / (sqrt(U^n_k) + sqrt(U^n_{k+1})),   U^n_{n+1} = 0,
    D^n_k = I^n_k - I^{n+1}_k
          = 2 C w_k w_{n+1} (1/(r_k + q_k) + 1/(r_{k+1} + q_{k+1}))
            / ((r_k + r_{k+1}) (q_k + q_{k+1})),

with r_k = sqrt(U^n_k) and q_k = sqrt(U^n_k + w_{n+1}); the second form
has no cancellation when w_{n+1} is small against the clock.  It
rebuilds the history in O(n) per step.  It is the reference that
effective.MemorySource is tested against, with effective.QuadratureTable
and history_sum as its own row-by-row oracle.  On a uniform grid with
alpha = 1, I^n_k depends only on n - k (shift invariance), giving the
weights J_l = 2 C sqrt(dt) / (sqrt(l+1) + sqrt(l)).  The history weights
D^n_k (k >= 1) are positive, and with the closing weight D^n_0 they
satisfy sum_k D^n_k = I^{n+1}_{n+1} = 2 C sqrt(dt^n).

The LU route of the linearized block step.  run_linear_lu solves each
step of imbibition.run_linear as the sparse system it is,

    (phi M/dt - k_eff c_k D) s_new = phi M/dt s + k_eff c_k b g,

with the nlin stepper's jacobian(acc/dt, c) (c in every cell), factored
through its FixedPattern and kept while (dt, c) repeats.  Linear steps
never fail, so it drives them with its own loop, one step per report
interval, and needs no step controller.  It is the reference of the modal
solve.

blocked_geometric_times builds the quasi-geometric grids on which these
references are checked near t = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualporo.effective import QuadratureTable
from dualporo.imbibition import BlockProblem, BlockSolution, BlockStepper


# ------------------------------------------------- eigenfunction series

@dataclass(frozen=True)
class DiffusionKernel:
    """Odd-mode step response of the constant-coefficient block."""

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


# ------------------------------------------------ LU linear block step

def run_linear_lu(problem: BlockProblem, coefficients,
                  mesh=None) -> BlockSolution:
    """imbibition.run_linear by one sparse LU per (dt, coefficient), one
    step per report interval."""
    mesh = mesh or problem.build_mesh()
    times = problem.times
    n_rep = len(times) - 1
    coeff = np.broadcast_to(np.asarray(coefficients, dtype=float), (n_rep,))
    stepper = BlockStepper(mesh, problem.cset.matrix.porosity, problem.k_eff)
    acc = problem.cset.matrix.porosity * mesh.volumes
    s = np.full(mesh.n_cells, problem.s_init)
    means = np.empty(n_rep + 1)
    flux_int = np.empty(n_rep)
    means[0] = np.dot(mesh.volumes, s) / mesh.total_volume
    lu_key = None
    for k in range(n_rep):
        dt, c = times[k + 1] - times[k], float(coeff[k])
        g = problem.wall_value(times[k + 1])
        if lu_key != (dt, c):
            lu = stepper.factor(stepper.jacobian(
                acc / dt, np.full(mesh.n_cells, c)))
            lu_key = (dt, c)
        s = lu.solve(acc / dt * s + stepper.k_eff * c * mesh.boundary_weights
                     * g)
        flux_int[k] = stepper.wall_flux(c * s, c * g) * dt
        means[k + 1] = np.dot(mesh.volumes, s) / mesh.total_volume
    return BlockSolution(times=times.copy(), mean_saturation=means,
                         flux_integrals=flux_int, final_field=s,
                         newton_iterations=n_rep, substeps=n_rep)


# ------------------------------------------------------------ time grid

def blocked_geometric_times(t_end: float, dt0: float, block_len: int = 64,
                            growth: float = 1.2) -> np.ndarray:
    """Piecewise-uniform grid whose step grows by `growth` between blocks.

    Quasi-geometric refinement toward t = 0 (relative step dt/t stays
    bounded by about (growth-1)/block_len) while letting the LU oracle
    reuse one factorization per block. The final step is shortened to land
    exactly on t_end.
    """
    if dt0 <= 0.0 or t_end <= 0.0 or block_len < 1 or growth < 1.0:
        raise ValueError("invalid blocked-geometric parameters")
    times = [0.0]
    dt = dt0
    while times[-1] < t_end:
        for _ in range(block_len):
            t = times[-1] + dt
            if t >= t_end - 1e-12 * t_end:
                times.append(t_end)
                return np.array(times)
            times.append(t)
        dt *= growth
    return np.array(times)


# ------------------------------------------- exact sqrt-kernel quadrature

def history_sum(wall_history: np.ndarray, table: QuadratureTable,
                n: int) -> np.ndarray | float:
    """F^n = sum_{k=0..n} D^n_k p^k; wall_history holds p^0..p^n (rows)."""
    p = np.asarray(wall_history, dtype=float)
    if p.shape[0] < n + 1:
        raise ValueError("history is shorter than n+1 samples")
    d = table.d_row(n)
    return np.tensordot(d, p[: n + 1], axes=(0, 0))


def sqrt_kernel_step(times, wall_hist, alpha, constant: float):
    """(impl, expl) of the next source step, Q^{n+1/2} = -(impl/dt^n)
    (p^{n+1} - p^0) + expl, with the weights of the module docstring.

    times holds t_0..t_{n+1}, wall_hist p^0..p^n and alpha the clock rates
    alpha^0..alpha^{n+1}, or a scalar for a constant clock.  Axis 0 is
    time; trailing axes are cells, and alpha's broadcast against
    wall_hist's (shape (n+2, 1) is one clock for all cells).
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(wall_hist, dtype=float)
    a = np.asarray(alpha, dtype=float)
    n = len(t) - 2
    dts = np.diff(t).reshape((-1,) + (1,) * (p.ndim - 1))
    w = (a[1:] if a.ndim else a) * dts      # w_l, l = 1..n+1
    impl = 2.0 * constant * np.sqrt(w[n])

    # r_k = sqrt(U^n_k), k = 1..n+1 (U^n past its end is 0), and
    # q_k = sqrt(U^n_k + w_{n+1})
    r = np.zeros((n + 1,) + w.shape[1:])
    np.cumsum(w[:n][::-1], axis=0, out=r[-2::-1])
    q = np.sqrt(r + w[n])
    np.sqrt(r, out=r)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)

    gap = ratio(1.0, r + q)
    d = (ratio(w[:n], r[:n] + r[1:]) * ratio(w[n], q[:n] + q[1:])
         * (gap[:n] + gap[1:]))
    expl = 2.0 * constant * np.einsum("k...,k...->...", d, p[1:] - p[0]) \
        / dts[n]
    return impl, expl
