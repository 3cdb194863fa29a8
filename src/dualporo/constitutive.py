"""Constitutive relations for two-phase flow in a double-porosity medium.

Van Genuchten capillary pressure with Mualem relative permeabilities and
zero residual saturations. All quantities are SI: pressures in Pa,
viscosities in Pa*s, permeabilities in m^2. Saturations always refer to
the wetting phase.

The saturation diffusivity

    alpha(s) = lam_w(s) * lam_n(s) / lam(s) * |dPc/ds|

and its integral beta(s) = int_0^s alpha(u) du drive the matrix-block
imbibition problem. beta has no closed form, so it is tabulated once per
(capillary model, fluid pair) with adaptive quadrature and interpolated
monotonically; the table is cached module-wide.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

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


class KirchhoffTable:
    """Monotone interpolant of beta(s) = int_0^s alpha(u) du on [0, 1].

    Nodes are geometrically graded toward both endpoints where alpha has
    power-law behavior; node values come from cumulative adaptive
    quadrature, so alpha_bar = beta(1) is a quadrature result, not an
    interpolation one.
    """

    def __init__(self, vg: VanGenuchtenParams, fluids: FluidPair,
                 n_nodes: int = 2048, split: float = 0.05):
        if n_nodes < 64 or n_nodes % 2:
            raise ValueError("n_nodes must be an even number >= 64")
        # Uniform spacing in the bulk, geometrically shrinking spacing over
        # the endpoint blocks [0, split] and [1-split, 1]; the common ratio
        # is chosen so spacing is continuous at the junctions.
        n_end = n_nodes // 8
        n_mid = n_nodes - 1 - 2 * n_end
        h_mid = (1.0 - 2.0 * split) / n_mid
        r = _geometric_ratio(split / h_mid, n_end)
        steps = h_mid * r ** np.arange(1, n_end + 1)
        left = split - np.concatenate((np.cumsum(steps)[::-1], [0.0]))
        left[0] = 0.0
        mid = split + h_mid * np.arange(1, n_mid)
        nodes = np.concatenate((left, mid, np.sort(1.0 - left)))

        def integrand(u: float) -> float:
            return float(capillary_diffusivity(u, vg, fluids))

        pieces = np.empty(n_nodes - 1)
        for i in range(n_nodes - 1):
            pieces[i], _ = quad(integrand, nodes[i], nodes[i + 1],
                                epsabs=1.0e-12, epsrel=1.0e-11, limit=200)
        values = np.concatenate(([0.0], np.cumsum(pieces)))

        self.vg = vg
        self.fluids = fluids
        self.nodes = nodes
        self.values = values
        self.alpha_bar = float(values[-1])
        self._interp = PchipInterpolator(nodes, values, extrapolate=False)

    def __call__(self, s):
        return self._interp(np.clip(np.asarray(s, dtype=float), 0.0, 1.0))


_TABLE_CACHE: dict = {}


def kirchhoff_table(vg: VanGenuchtenParams, fluids: FluidPair) -> KirchhoffTable:
    key = (vg, fluids)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE[key] = KirchhoffTable(vg, fluids)
    return table


def kirchhoff_transform(s, vg: VanGenuchtenParams, fluids: FluidPair,
                        table: KirchhoffTable | None = None):
    """beta(s); nondecreasing with beta(0) = 0."""
    if table is None:
        table = kirchhoff_table(vg, fluids)
    return table(s)


def mean_diffusivity(vg: VanGenuchtenParams, fluids: FluidPair,
                     table: KirchhoffTable | None = None) -> float:
    """alpha_bar = int_0^1 alpha(u) du = beta(1)."""
    if table is None:
        table = kirchhoff_table(vg, fluids)
    return table.alpha_bar


def range_diffusivity(s_lo, s_hi, vg: VanGenuchtenParams, fluids: FluidPair,
                      table: KirchhoffTable | None = None,
                      degenerate_tol: float = 1.0e-12):
    """Average of alpha over [s_lo, s_hi]:
    (beta(s_hi) - beta(s_lo)) / (s_hi - s_lo),
    continued by alpha(midpoint) when the interval degenerates."""
    if table is None:
        table = kirchhoff_table(vg, fluids)
    lo = np.minimum(np.asarray(s_lo, dtype=float), s_hi)
    hi = np.maximum(np.asarray(s_hi, dtype=float), s_lo)
    width = hi - lo
    wide = width > degenerate_tol
    ratio = (table(hi) - table(lo)) / np.where(wide, width, 1.0)
    point = capillary_diffusivity(0.5 * (lo + hi), vg, fluids)
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
        return mean_diffusivity(self.matrix.vg, self.fluids)

    def transfer(self, s_f):
        return transfer_saturation(s_f, self.matrix.vg, self.fracture.vg)

    def matrix_alpha(self, s):
        return capillary_diffusivity(s, self.matrix.vg, self.fluids)

    def matrix_beta(self, s):
        return kirchhoff_transform(s, self.matrix.vg, self.fluids)
