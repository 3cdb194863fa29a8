"""Constitutive relations for two-phase flow in a double-porosity medium.

Van Genuchten capillary pressure with Mualem relative permeabilities and
zero residual saturations. All quantities are SI: pressures in Pa,
viscosities in Pa*s, permeabilities in m^2. Saturations always refer to
the wetting phase.

The saturation diffusivity

    alpha(s) = lam_w(s) * lam_n(s) / lam(s) * |dPc/ds|

and its integral beta(s) = int_0^s alpha(u) du drive the matrix-block
imbibition problem. beta has no closed form, so it is tabulated once per
(capillary model, fluid pair) and interpolated by a monotone cubic
Hermite whose node slopes are alpha itself; the table is cached
module-wide. Its node values come from one fixed rule. In the
log capillary pressure t = n log(Pc/p_r), where S = (1 + e^t)^(-m), the
power laws of alpha at both saturation ends become exponential tails and
the integrand is analytic in a strip about the real axis, so a fixed
Gauss-Legendre rule on uniform panels converges geometrically (Trefethen
& Weideman, SIAM Rev. 56 (2014) 385): 12 points on panels of width 0.5
are exact to rounding, with no error estimate and no subdivision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Saturation clamp for endpoint-singular expressions (|dPc/ds| diverges at
# s = 1 and the inverse capillary curve at s = 0).
SAT_EPS = 1.0e-8


@dataclass(frozen=True)
class VanGenuchtenParams:
    """Two-parameter van Genuchten curve; m is tied to n by m = 1 - 1/n."""

    p_r: float  # pressure scale [Pa]
    n: float    # pore-size distribution exponent, > 1

    def __post_init__(self) -> None:
        if not self.p_r > 0.0:
            raise ValueError(f"p_r must be positive, got {self.p_r}")
        if not self.n > 1.0:
            raise ValueError(f"n must exceed 1, got {self.n}")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(capillary_slope(SAT_EPS, self))
        if not finite:
            raise ValueError(f"n = {self.n} is too near 1: dPc/ds overflows")

    @property
    def m(self) -> float:
        return 1.0 - 1.0 / self.n


@dataclass(frozen=True)
class FluidPair:
    """Viscosities of the wetting and nonwetting phases [Pa*s]."""

    mu_w: float
    mu_n: float

    def __post_init__(self) -> None:
        if not (self.mu_w > 0.0 and self.mu_n > 0.0):
            raise ValueError("viscosities must be positive")


@dataclass(frozen=True)
class MediumProps:
    """Porosity, absolute permeability [m^2], and capillary curve."""

    porosity: float
    permeability: float
    vg: VanGenuchtenParams

    def __post_init__(self) -> None:
        if not 0.0 < self.porosity < 1.0:
            raise ValueError("porosity must lie in (0, 1)")
        if not self.permeability > 0.0:
            raise ValueError("permeability must be positive")


def capillary_pressure(s, vg: VanGenuchtenParams):
    """Pc(s) = p_r * (s**(-1/m) - 1)**(1/n), decreasing, Pc(1) = 0."""
    s = np.clip(np.asarray(s, dtype=float), SAT_EPS, 1.0)
    return vg.p_r * (s ** (-1.0 / vg.m) - 1.0) ** (1.0 / vg.n)


def capillary_saturation(p, vg: VanGenuchtenParams):
    """Inverse of capillary_pressure: s = (1 + (p/p_r)**n)**(-m) for p >= 0."""
    p = np.maximum(np.asarray(p, dtype=float), 0.0)
    return (1.0 + (p / vg.p_r) ** vg.n) ** (-vg.m)


def capillary_slope(s, vg: VanGenuchtenParams):
    """dPc/ds, negative; evaluated with the endpoint clamp."""
    s = np.clip(np.asarray(s, dtype=float), SAT_EPS, 1.0 - SAT_EPS)
    si = s ** (-1.0 / vg.m)
    return -vg.p_r / (vg.n * vg.m) * si / s * (si - 1.0) ** (1.0 / vg.n - 1.0)


def relative_permeabilities(s, vg: VanGenuchtenParams):
    """Mualem model: k_rw = sqrt(s)*(1-(1-s^(1/m))^m)^2,
    k_rn = sqrt(1-s)*(1-s^(1/m))^(2m).  Returns (k_rw, k_rn)."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    u = 1.0 - s ** (1.0 / vg.m)
    k_rw = np.sqrt(s) * (1.0 - u ** vg.m) ** 2
    k_rn = np.sqrt(1.0 - s) * u ** (2.0 * vg.m)
    return k_rw, k_rn


def mobilities(s, vg: VanGenuchtenParams, fluids: FluidPair):
    """Phase and total mobilities (lam_w, lam_n, lam_w + lam_n) [1/(Pa*s)]."""
    k_rw, k_rn = relative_permeabilities(s, vg)
    lam_w = k_rw / fluids.mu_w
    lam_n = k_rn / fluids.mu_n
    return lam_w, lam_n, lam_w + lam_n


def relative_permeability_slopes(s, vg: VanGenuchtenParams):
    """(dk_rw/ds, dk_rn/ds), endpoint-clamped like the slopes above."""
    s = np.clip(np.asarray(s, dtype=float), SAT_EPS, 1.0 - SAT_EPS)
    m = vg.m
    u = 1.0 - s ** (1.0 / m)
    # du/ds = -(1/m) s^(1/m - 1)
    d_rw = ((1.0 - u ** m) ** 2 / (2.0 * np.sqrt(s))
            + 2.0 * np.sqrt(s) * (1.0 - u ** m) * u ** (m - 1.0)
            * s ** (1.0 / m - 1.0))
    d_rn = (-u ** (2.0 * m) / (2.0 * np.sqrt(1.0 - s))
            - 2.0 * np.sqrt(1.0 - s) * u ** (2.0 * m - 1.0)
            * s ** (1.0 / m - 1.0))
    return d_rw, d_rn


def mobility_slopes(s, vg: VanGenuchtenParams, fluids: FluidPair):
    """(d lam_w/ds, d lam_n/ds)."""
    d_rw, d_rn = relative_permeability_slopes(s, vg)
    return d_rw / fluids.mu_w, d_rn / fluids.mu_n


def capillary_diffusivity(s, vg: VanGenuchtenParams, fluids: FluidPair):
    """alpha(s) = lam_w*lam_n/(lam_w+lam_n) * |dPc/ds|.

    Vanishes at both saturation endpoints (like s^2.5 near 0 for n = 2) and
    is evaluated with the endpoint clamp, so it is finite everywhere.
    """
    s = np.clip(np.asarray(s, dtype=float), SAT_EPS, 1.0 - SAT_EPS)
    lam_w, lam_n, lam = mobilities(s, vg, fluids)
    return lam_w * lam_n / lam * np.abs(capillary_slope(s, vg))


def _geometric_ratio(total_over_first: float, count: int) -> float:
    """Ratio r in (0, 1) with r*(1-r**count)/(1-r) = total_over_first."""
    lo, hi = 1.0e-6, 1.0 - 1.0e-12
    for _ in range(200):
        r = 0.5 * (lo + hi)
        if r * (1.0 - r ** count) / (1.0 - r) < total_over_first:
            lo = r
        else:
            hi = r
    return 0.5 * (lo + hi)


# beta in t = n log(Pc/p_r): a GAUSS_ORDER-point Gauss-Legendre rule on
# panels of width PANEL_WIDTH from T_LOW up to the t of saturation S_TOP.
GAUSS_ORDER = 12
PANEL_WIDTH = 0.5
T_LOW = -80.0
S_TOP = 1.0e-20


def _log_pressure(s, vg: VanGenuchtenParams):
    """t(s) = n log(Pc(s)/p_r) = log(expm1(x)) with x = -log(s)/m, summed
    as x + log(1 - e^-x): no overflow near s = 0 or for n near 1."""
    x = -np.log(s) / vg.m
    return x + np.log(-np.expm1(-x))


def _kirchhoff_values(nodes: np.ndarray, vg: VanGenuchtenParams,
                      fluids: FluidPair) -> np.ndarray:
    """beta at saturations 0 = nodes[0] < ... < nodes[-1] = 1, as
    int_{t(s)}^inf f(S(t)) dp/dt dt with f = lam_w lam_n / lam, S(t) =
    (1 + e^t)^(-m) and p = p_r e^(t/n): the full panels summed from the
    top down, plus one partial panel from t(s) up to the next edge."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)

    def panels(a, b):
        half = 0.5 * (b - a)
        t = (0.5 * (a + b))[:, None] + half[:, None] * x
        # where e^t overflows S and f are 0, and so is the integrand
        with np.errstate(over="ignore", invalid="ignore"):
            lam_w, lam_n, lam = mobilities((1.0 + np.exp(t)) ** -vg.m,
                                           vg, fluids)
            f = lam_w * lam_n / lam
            g = np.where(f > 0.0, f * vg.p_r / vg.n * np.exp(t / vg.n), 0.0)
        return g @ w * half

    count = int(np.ceil((_log_pressure(S_TOP, vg) - T_LOW) / PANEL_WIDTH))
    edges = T_LOW + PANEL_WIDTH * np.arange(count + 1)
    above = np.append(np.cumsum(panels(edges[:-1], edges[1:])[::-1])[::-1],
                      0.0)          # above[k]: the integral from edges[k] up
    t = _log_pressure(nodes[1:-1], vg)
    k = ((t - T_LOW) // PANEL_WIDTH).astype(int) + 1
    return np.concatenate(([0.0], above[k] + panels(t, edges[k]), above[:1]))


def __getattr__(name):
    # no package code calls quad; perfbench/spans.py wraps this attribute
    # to count its calls, so it stays, importing scipy.integrate on read
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class KirchhoffTable:
    """Monotone interpolant of beta(s) = int_0^s alpha(u) du on [0, 1].

    Nodes are geometrically graded toward both endpoints where alpha has
    power-law behavior; node values are the fixed Gauss-Legendre sums of
    _kirchhoff_values, so alpha_bar = beta(1) is a quadrature result, not
    an interpolation one. Between nodes beta is the cubic Hermite with
    slopes alpha, each capped at three times either adjacent secant so
    that every cubic is monotone (Fritsch & Carlson, SIAM J. Numer. Anal.
    17 (1980) 238); it is evaluated in scipy's PPoly order.
    """

    def __init__(self, vg: VanGenuchtenParams, fluids: FluidPair,
                 n_nodes: int = 2048):
        if n_nodes < 64 or n_nodes % 2:
            raise ValueError("n_nodes must be an even number >= 64")
        # Uniform spacing in the bulk, geometrically shrinking spacing over
        # the endpoint blocks [0, split] and [1-split, 1]; the common ratio
        # is chosen so spacing is continuous at the junctions.
        split = 0.05
        n_end = n_nodes // 8
        n_mid = n_nodes - 1 - 2 * n_end
        h_mid = (1.0 - 2.0 * split) / n_mid
        r = _geometric_ratio(split / h_mid, n_end)
        steps = h_mid * r ** np.arange(1, n_end + 1)
        left = split - np.concatenate((np.cumsum(steps)[::-1], [0.0]))
        left[0] = 0.0
        mid = split + h_mid * np.arange(1, n_mid)
        nodes = np.concatenate((left, mid, np.sort(1.0 - left)))

        values = _kirchhoff_values(nodes, vg, fluids)
        self.vg = vg
        self.fluids = fluids
        self.nodes = nodes
        self.values = values
        self.alpha_bar = float(values[-1])
        h = np.diff(nodes)
        slope = np.diff(values) / h
        d = np.minimum(capillary_diffusivity(nodes, vg, fluids),
                       3.0 * np.minimum(np.append(slope, np.inf),
                                        np.insert(slope, 0, np.inf)))
        # per interval: its cubic's power-basis coefficients in s - x_i,
        # then x_i; one row each, so one take gathers a piece per point
        t = (d[:-1] + d[1:] - 2.0 * slope) / h
        self._pieces = np.array((values[:-1], d[:-1], (slope - d[:-1]) / h - t,
                                 t / h, nodes[:-1]))
        self._inner = nodes[1:-1]

    def __call__(self, s):
        x = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
        i = np.searchsorted(self._inner, x, side="right")
        c0, c1, c2, c3, x0 = np.take(self._pieces, i, axis=1)
        x = x - x0
        z = x * x
        return c0 + c1 * x + c2 * z + c3 * (z * x)


_TABLE_CACHE: dict = {}


def kirchhoff_table(vg: VanGenuchtenParams, fluids: FluidPair) -> KirchhoffTable:
    key = (vg, fluids)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE[key] = KirchhoffTable(vg, fluids)
    return table


def range_diffusivity(s_lo, s_hi, table: KirchhoffTable):
    """Average of alpha over [s_lo, s_hi] in the table's medium:
    (beta(s_hi) - beta(s_lo)) / (s_hi - s_lo),
    continued by alpha(midpoint) when the width is 1e-12 or less."""
    lo = np.minimum(np.asarray(s_lo, dtype=float), s_hi)
    hi = np.maximum(np.asarray(s_hi, dtype=float), s_lo)
    width = hi - lo
    wide = width > 1.0e-12
    ratio = (table(hi) - table(lo)) / np.where(wide, width, 1.0)
    point = capillary_diffusivity(0.5 * (lo + hi), table.vg, table.fluids)
    out = np.where(wide, ratio, point)
    return out if out.ndim else float(out)


def transfer_saturation(s_f, matrix_vg: VanGenuchtenParams,
                        fracture_vg: VanGenuchtenParams):
    """Matrix saturation in capillary equilibrium with fracture saturation:
    the fracture capillary pressure pushed through the inverse matrix curve.
    Nondecreasing in s_f, and the identity map for identical curves."""
    return capillary_saturation(capillary_pressure(s_f, fracture_vg),
                                matrix_vg)


def transfer_slope(s_f, matrix_vg: VanGenuchtenParams,
                   fracture_vg: VanGenuchtenParams):
    """Derivative of transfer_saturation with respect to s_f (positive)."""
    s_m = transfer_saturation(s_f, matrix_vg, fracture_vg)
    return capillary_slope(s_f, fracture_vg) / capillary_slope(s_m, matrix_vg)


@dataclass(frozen=True)
class ConstitutiveSet:
    """Matrix and fracture media sharing one fluid pair."""

    matrix: MediumProps
    fracture: MediumProps
    fluids: FluidPair

    def matrix_table(self) -> KirchhoffTable:
        return kirchhoff_table(self.matrix.vg, self.fluids)

    def alpha_bar(self) -> float:
        """alpha_bar = int_0^1 alpha(u) du = beta(1) of the matrix."""
        return self.matrix_table().alpha_bar

    def transfer(self, s_f):
        return transfer_saturation(s_f, self.matrix.vg, self.fracture.vg)

    def matrix_alpha(self, s):
        return capillary_diffusivity(s, self.matrix.vg, self.fluids)
