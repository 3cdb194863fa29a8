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

The quadrature integrates the kernel exactly against piecewise-constant
data on arbitrary strictly increasing grids.  Both forms are one scheme:
with the clock weights w_l = alpha^l dt^{l-1} (alpha = 1 for the fixed
kernel) and suffix sums U^n_k = sum_{l=k}^n w_l,

    I^n_k = 2 C w_k / (sqrt(U^n_k) + sqrt(U^n_{k+1})),   U^n_{n+1} = 0,

which for alpha = 1 is the interval integral int_{t_k-1}^{t_k} C du /
sqrt(t_n - u) = 2 C (sqrt(t_n - t_{k-1}) - sqrt(t_n - t_k)) in
rationalized form (no cancellation deep in the history).  One step of
the source separates the newest term,

    Q^{n+1/2} = -(impl / dt^n) (p^{n+1} - p^0) + expl,
    impl = I^{n+1}_{n+1} = 2 C sqrt(w_{n+1}),
    expl = (1/dt^n) sum_{k=1}^n D^n_k (p^k - p^0),  D^n_k = I^n_k - I^{n+1}_k,

and sqrt_kernel_step is the only evaluation of it: the 0-d series below
and the flood solver's per-cell source both call it.  On a uniform grid
with alpha = 1, I^n_k depends only on n - k (shift invariance), giving
the weights J_l = 2 C sqrt(dt) / (sqrt(l+1) + sqrt(l)).  The history
weights D^n_k (k >= 1) are positive, and with the closing weight D^n_0
they satisfy sum_k D^n_k = I^{n+1}_{n+1} = 2 C sqrt(dt^n).
QuadratureTable and history_sum evaluate the fixed-clock weights row by
row; they are kept as an independent reference for the shared step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import (FluidPair, KirchhoffTable, VanGenuchtenParams,
                           kirchhoff_table, range_diffusivity)


def fixed_kernel_constant(dimension: int, porosity: float,
                          permeability: float, alpha_bar: float) -> float:
    """C = 2 d sqrt(phi_m k_m alpha_bar / pi)."""
    return 2.0 * dimension * np.sqrt(porosity * permeability * alpha_bar
                                     / np.pi)


def warped_kernel_constant(dimension: int, porosity: float,
                           permeability: float,
                           dimension_factor: bool = True) -> float:
    """C = 2 d sqrt(phi_m k_m / pi); dimension_factor=False drops the d."""
    d = dimension if dimension_factor else 1
    return 2.0 * d * np.sqrt(porosity * permeability / np.pi)


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

    def weight_over_denominators(w_hist):
        # w_k / (sqrt(U_k) + sqrt(U_{k+1})), k = 1..n, where U_k are the
        # suffix sums of w_hist and U past its end is 0
        root = np.zeros((len(w_hist) + 1,) + w.shape[1:])
        np.cumsum(w_hist[::-1], axis=0, out=root[-2::-1])
        np.sqrt(root, out=root)
        den = root[:n] + root[1:n + 1]
        return np.divide(w[:n], den, out=np.zeros_like(den),
                         where=den > 0.0)

    d = weight_over_denominators(w[:n]) - weight_over_denominators(w)
    expl = 2.0 * constant * np.einsum("k...,k...->...", d, p[1:] - p[0]) \
        / dts[n]
    return impl, expl


def _kernel_series(wall_values, alpha_values, times, constant):
    """Q^{n+1/2} for every interval, one sqrt_kernel_step per n."""
    p = np.asarray(wall_values, dtype=float)
    out = np.empty(len(times) - 1)
    for n in range(len(out)):
        impl, expl = sqrt_kernel_step(times[:n + 2], p[:n + 1],
                                      alpha_values[:n + 2], constant)
        out[n] = -impl / (times[n + 1] - times[n]) * (p[n + 1] - p[0]) + expl
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


def running_range_alpha(wall_values: np.ndarray, vg: VanGenuchtenParams,
                        fluids: FluidPair,
                        table: KirchhoffTable | None = None) -> np.ndarray:
    """alpha_hat^k: diffusivity averaged over the range of wall values seen
    through sample k (inclusive); degenerate range at k = 0 falls back to
    the pointwise diffusivity."""
    p = np.asarray(wall_values, dtype=float)
    if table is None:
        table = kirchhoff_table(vg, fluids)
    lo = np.minimum.accumulate(p)
    hi = np.maximum.accumulate(p)
    return np.asarray(range_diffusivity(lo, hi, vg, fluids, table))


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
    if (alpha < 0.0).any():
        raise ValueError("alpha values must be nonnegative")
    return _kernel_series(wall_values, alpha, times, constant)
