"""Effective matrix-fracture source terms in the thin-fracture limit.

As the relative fracture width goes to zero the block exchange divided by
that width converges to a convolution source. Two forms are used:

  * fixed kernel ("effective-I"):

        Q(t) = -C * d/dt int_0^t (p(u) - p(0)) / sqrt(t - u) du,
        C = 2 d sqrt(phi_m k_m alpha_bar / pi),

    where p is the wall (matrix-side) saturation trajectory;

  * warped kernel ("effective-II"): same structure in the rescaled time
    tau(t) = int_0^t alpha_hat, with alpha_hat the running-range average
    of the diffusivity and C = 2 d sqrt(phi_m k_m / pi).

harness.kernel_constant computes C for either form.

Both are one scheme on the clock increments w_l = alpha^l dt^{l-1}
(alpha = 1 for the fixed kernel), tau_n = sum_{l<=n} w_l, with wall
data piecewise constant in time.  One step separates the newest term,

    Q^{n+1/2} = -(impl / dt^n) (p^{n+1} - p^0) + expl,
    expl = (1/dt^n) sum_{k=1}^n D^n_k (p^k - p^0),

where D^n_k = int over interval k of C (x^{-1/2} - (x + w_{n+1})^{-1/2}),
x = tau_n - u, is the weight by which interval k's memory fades over the
step.  MemorySource evaluates it in constant work per step:

  * impl = 2 C sqrt(w_{n+1}) and the newest history interval,
    D^n_n = 2 C (sqrt(w_n) - w_n / (sqrt(w_n + w_{n+1}) + sqrt(w_{n+1}))),
    are exact;
  * the older intervals (k <= n-1, lags x >= w_n) use a sum of
    exponentials, 1/sqrt(x) ~ sum_j c_j exp(-s_j x), from the trapezoid
    rule with step h in y of 1/sqrt(x) = pi^{-1/2} int exp(y/2 - x e^y) dy:
    s_j = e^{y_j}, c_j = h e^{y_j/2} / sqrt(pi).  Then

        D^n_k = C sum_j c_j (1 - e^{-s_j w_{n+1}}) e^{-s_j (tau_n - tau_k)}
                (1 - e^{-s_j w_k}) / s_j,

    a positive sum with no cancellation, and one decaying state per
    exponential carries the whole older history:

        H_j <- e^{-s_j w_{n+1}} (H_j + g_j(w_n) (p^n - p^0)),
        g_j(w) = (1 - e^{-s_j w}) / s_j.

The nodes are built once per run for a clock range [x_lo, x_hi]: the
shortest increment a step may commit and the longest elapsed clock.  The
rates run from s = tol^{2/3} / x_hi, below which a rate's share of any
D^n_k is at most (s x_hi)^{3/2}, up to s = log(1/tol) / x_lo, above
which exp(-s x) has decayed below tol on every older lag.  A step that
commits an increment below x_lo, or a clock beyond x_hi, raises.  With
h = 0.3 the aliasing error of the rule, 2 sqrt(2) exp(-pi^2 / h), is
about 1.5e-14 relative, and a run costs O(N J) for N steps and J nodes
(J ~ (log(x_hi / x_lo) + 25) / h).

QuadratureTable holds the exact interval integrals I^n_k of C/sqrt(t_n - u)
on one time grid and the weights D^n_k = I^n_k - I^{n+1}_k built from
them.  The exact product quadrature of the step, the reference that
MemorySource is tested against, is kept with the tests in
tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import KirchhoffTable, range_diffusivity


# Only the tests use QuadratureTable, but the benchmark's tracer wraps
# QuadratureTable.d_row by this path; the class moves to tests/oracles.py
# when that shim moves (ROADMAP item 1).
@dataclass(frozen=True)
class QuadratureTable:
    """Exact interval integrals of C/sqrt(t_n - u) on one time grid."""

    times: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2 or not (np.diff(t) > 0).all():
            raise ValueError("times must be strictly increasing, length >= 2")
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def row(self, n: int) -> np.ndarray:
        """I^n_k for k = 1..n (index k-1 in the returned array)."""
        if not 1 <= n <= self.n_steps:
            raise ValueError(f"row index n={n} outside 1..{self.n_steps}")
        t = self.times
        back = t[n] - t[: n + 1]           # t_n - t_k, k = 0..n
        dts = np.diff(t[: n + 1])
        return 2.0 * self.constant * dts / (np.sqrt(back[:-1])
                                            + np.sqrt(back[1:]))

    def d_row(self, n: int) -> np.ndarray:
        """D^n_k for k = 0..n; requires t_{n+1} on the grid.

        D^n_0 is assembled from its defining combination (not from the sum
        identity), so the identity stays an independent check.
        """
        row_n = self.row(n) if n >= 1 else np.empty(0)
        row_next = self.row(n + 1)
        d = np.empty(n + 1)
        d[1:] = row_n - row_next[:-1]
        d[0] = row_next[-1] + (row_next[:-1].sum() - row_n.sum())
        return d

    def validate(self) -> None:
        """The implicit scheme needs D^n_0 > 0 on every step."""
        for n in range(self.n_steps):
            if not self.d_row(n)[0] > 0.0:
                raise ValueError(
                    f"quadrature validity violated: D^{n}_0 <= 0 "
                    "(grid too far from equidistant)")

    def equidistant_weights(self, n_terms: int, dt: float) -> np.ndarray:
        """J_l = 2 C sqrt(dt)/(sqrt(l+1) + sqrt(l)), l = 0..n_terms-1."""
        l = np.arange(n_terms, dtype=float)
        return 2.0 * self.constant * np.sqrt(dt) / (np.sqrt(l + 1.0)
                                                    + np.sqrt(l))


# Sum-of-exponentials rule: trapezoid step in y = log(rate), and the
# neglected share of a weight at either end of the rates.
_SOE_STEP = 0.3
_SOE_TOL = 1.0e-14


class MemorySource:
    """Sum-of-exponentials state of the sqrt-kernel memory of a set of
    cells; see the module docstring for the recursion.

    step(dt, alpha) evaluates a trial step and commit(wall) accepts the
    last trial with wall values p^{n+1}.  Both cost O(J m) for J nodes and
    m cells, however long the history.  wall0 holds p^0 (a scalar or one
    value per cell); [x_lo, x_hi] is the clock range the nodes cover.
    """

    def __init__(self, constant: float, wall0, x_lo: float, x_hi: float):
        if not 0.0 < x_lo <= x_hi < np.inf:
            raise ValueError(f"memory clock range [{x_lo!r}, {x_hi!r}] must "
                             "satisfy 0 < x_lo <= x_hi < inf")
        self.constant = float(constant)
        self.wall0 = np.array(wall0, dtype=float)
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        y_lo = np.log(_SOE_TOL ** (2.0 / 3.0) / x_hi)
        y_hi = np.log(np.log(1.0 / _SOE_TOL) / x_lo)
        y = y_lo + _SOE_STEP * np.arange(
            int(np.ceil((y_hi - y_lo) / _SOE_STEP)) + 1)
        self.rates = np.exp(y)
        self.weights = _SOE_STEP * np.exp(0.5 * y) / np.sqrt(np.pi)
        # H_j per cell, nodes last: shape wall0.shape + (J,)
        self.state = np.zeros(self.wall0.shape + self.rates.shape)
        self._clock = np.zeros(self.wall0.shape)
        self._newest = None     # (w_n, p^n - p^0, g(w_n)) of interval n
        self._trial = None      # (w_{n+1}, expm1(-s w_{n+1})) of the trial

    def step(self, dt: float, alpha):
        """(impl, expl) of the trial step with clock increment alpha dt,
        as the exact product quadrature returns them for the same history."""
        w = np.asarray(alpha, dtype=float) * dt
        em1 = np.multiply.outer(w, -self.rates)
        np.expm1(em1, out=em1)
        self._trial = (w, em1)
        c2 = 2.0 * self.constant
        hist = -self.constant * np.einsum("...j,...j,j->...", em1,
                                          self.state, self.weights)
        if self._newest is not None:
            w_n, dp_n, _ = self._newest
            hist = hist + c2 * (np.sqrt(w_n) - w_n / (np.sqrt(w_n + w)
                                                      + np.sqrt(w))) * dp_n
        return c2 * np.sqrt(w), hist / dt

    def commit(self, wall) -> None:
        """Accept the last trial step, whose wall values are p^{n+1}."""
        if self._trial is None:
            raise ValueError("commit needs a trial step first")
        w, em1 = self._trial
        self._trial = None
        clock = self._clock + w
        if np.any(w < self.x_lo) or np.any(clock > self.x_hi):
            raise ValueError(
                f"clock increment {np.min(w):.6g} or elapsed clock "
                f"{np.max(clock):.6g} outside the memory range "
                f"[{self.x_lo:.6g}, {self.x_hi:.6g}]")
        if self._newest is not None:
            _, dp_n, gain = self._newest
            self.state += gain * dp_n[..., None]
        self.state *= em1 + 1.0
        em1 /= -self.rates                      # now g(w_{n+1})
        self._newest = (w, np.asarray(wall, dtype=float) - self.wall0, em1)
        self._clock = clock


def _kernel_series(wall_values, alpha_values, times, constant):
    """Q^{n+1/2} for every interval, one MemorySource step per n."""
    p = np.asarray(wall_values, dtype=float)
    alpha = np.asarray(alpha_values, dtype=float)[1:]
    dts = np.diff(times)
    if not len(dts):
        return np.empty(0)
    w = alpha * dts
    memory = MemorySource(constant, p[0], w.min(), np.cumsum(w)[-1])
    out = np.empty(len(dts))
    for n, dt in enumerate(dts):
        impl, expl = memory.step(dt, alpha[n])
        out[n] = -impl / dt * (p[n + 1] - p[0]) + expl
        memory.commit(p[n + 1])
    return out


def exchange_fixed_kernel(wall_values: np.ndarray, times: np.ndarray,
                          constant: float) -> np.ndarray:
    """Per-interval source values Q^{n+1/2} of the fixed sqrt-kernel model.

    Q^{n+1/2} = -(1/dt^n) [ sum_{k=1}^{n+1} (p^k - p^0) I^{n+1}_k
                           - sum_{k=1}^{n}   (p^k - p^0) I^n_k ],

    the warped model with alpha = 1, where U^n_k = t_n - t_{k-1}.
    """
    times = np.asarray(times, dtype=float)
    if len(wall_values) != len(times):
        raise ValueError("wall_values must be sampled on the time grid")
    return _kernel_series(wall_values, np.ones(len(times)), times, constant)


def running_range_alpha(wall_values: np.ndarray,
                        table: KirchhoffTable) -> np.ndarray:
    """alpha_hat^k: diffusivity of the table's medium averaged over the
    range of wall values seen through sample k (inclusive); degenerate
    range at k = 0 falls back to the pointwise diffusivity."""
    p = np.asarray(wall_values, dtype=float)
    lo = np.minimum.accumulate(p)
    hi = np.maximum.accumulate(p)
    return np.asarray(range_diffusivity(lo, hi, table))


def exchange_warped_kernel(wall_values: np.ndarray, alpha_values: np.ndarray,
                           times: np.ndarray, constant: float) -> np.ndarray:
    """Per-interval source values of the time-warped sqrt-kernel model.

    With interval weights w_l = alpha^l dt^{l-1} and suffix sums
    U^n_k = sum_{l=k}^n w_l:

    Q^{n+1/2} = -(2C/dt^n) [ sum_{k=1}^{n+1} alpha^k (p^k - p^0) dt^{k-1}
                             / (sqrt(U^{n+1}_k) + sqrt(U^{n+1}_{k+1}))
                           - same sum up to n with U^n ].
    """
    times = np.asarray(times, dtype=float)
    alpha = np.asarray(alpha_values, dtype=float)
    if len(wall_values) != len(times) or len(alpha) != len(times):
        raise ValueError("wall and alpha values must sit on the time grid")
    if not (alpha > 0.0).all():
        raise ValueError("alpha values must be positive")
    return _kernel_series(wall_values, alpha, times, constant)
