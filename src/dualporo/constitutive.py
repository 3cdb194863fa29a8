"""Constitutive relations for two-phase flow in a double-porosity medium.

Van Genuchten capillary pressure with Mualem relative permeabilities and
zero residual saturations. All quantities are SI: pressures in Pa,
viscosities in Pa*s, permeabilities in m^2. Saturations always refer to
the wetting phase.

The saturation diffusivity

    alpha(s) = lam_w(s) * lam_n(s) / lam(s) * |dPc/ds|

and its integral beta(s) = int_0^s alpha(u) du drive the matrix-block
imbibition problem. beta has no closed form, so it is tabulated once per
(capillary model, fluid pair) and interpolated monotonically; the table
is cached module-wide. Each panel between table nodes is first integrated
by QUADPACK's 21-point Gauss-Kronrod rule (qk21), all panels in one
array evaluation of alpha. ``scipy.integrate.quad`` starts with the same
rule and returns its value unless the error test sends it on; the panels
it would send on, and only those, go to ``quad``. So the table is the
per-panel adaptive-quadrature table, and scipy.integrate is imported
only when some panel needs the fallback (none does for the presets).
"""
from __future__ import annotations

import sys
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


# QUADPACK qk21 (Piessens et al. 1983): Kronrod abscissae on (0, 1], the
# Kronrod weights of +-x and of the centre (last), and the 10-point Gauss
# weights of the odd-indexed abscissae.
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def qk21_panels(f, a, b, epsabs: float, epsrel: float):
    """QUADPACK's qk21 on every panel [a_i, b_i] at once.

    f maps an array of abscissae to integrand values of the same shape.
    Returns (result, abserr, stop): the Kronrod integrals, qk21's error
    estimates (the resasc scaling and the 50 eps resabs floor), and where
    QUADPACK's qagse would return after this first rule for the given
    tolerances: the estimate meets errbnd = max(epsabs, epsrel |result|)
    and is not resasc itself, or is 0, or misses errbnd at the roundoff
    level 100 eps resabs (qagse's ier = 2). The sums run in qk21's order,
    so each panel matches the scalar routine to rounding in the integrand
    alone.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * np.asarray(_XGK)
    fx = f(np.concatenate((centr[:, None] - absc, centr[:, None] + absc,
                           centr[:, None]), axis=1))
    fv1, fv2, fc = fx[:, :10].T, fx[:, 10:20].T, fx[:, 20]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):    # Gauss abscissae first
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[j]) + np.abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[j] - reskh)
                                     + np.abs(fv2[j] - reskh))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scale = (resasc != 0.0) & (abserr != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
    abserr = np.where(scale, scaled, abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    stop = (((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
            | ((abserr > errbnd) & (abserr <= 100.0 * _EPMACH * resabs)))
    return result, abserr, stop


def __getattr__(name):
    # scipy.integrate (~0.4 s to import) is loaded on first use of quad
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone cubic Hermite interpolant of (x, y),
    as scipy's PchipInterpolator takes them (Fritsch & Butland 1984):
    inside, the weighted harmonic mean of the two secant slopes, or 0
    where they differ in sign or one vanishes; at each end, the
    three-point one-sided slope, kept to the end secant's sign and to
    three times it where the secants change sign."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = ((np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0)
            | (m[:-1] == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.empty_like(y)
    d[1:-1] = np.where(flat, 0.0, inner)
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        edge = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(edge) != np.sign(m0):
            edge = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(edge) > 3.0 * abs(m0):
            edge = 3.0 * m0
        d[end] = edge
    return d


class KirchhoffTable:
    """Monotone interpolant of beta(s) = int_0^s alpha(u) du on [0, 1].

    Nodes are geometrically graded toward both endpoints where alpha has
    power-law behavior; node values are cumulative panel quadratures
    (qk21, or adaptive quad where qk21 misses epsabs 1e-12 / epsrel
    1e-11), so alpha_bar = beta(1) is a quadrature result, not an
    interpolation one. Between nodes beta is the PCHIP cubic, evaluated
    in scipy's PPoly order.
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

        pieces, _, stop = qk21_panels(
            lambda u: capillary_diffusivity(u, vg, fluids),
            nodes[:-1], nodes[1:], epsabs=1.0e-12, epsrel=1.0e-11)
        redo = np.flatnonzero(~stop)
        if len(redo):
            quad = sys.modules[__name__].quad   # honours a rebound quad

            def integrand(u: float) -> float:
                return float(capillary_diffusivity(u, vg, fluids))

            for i in redo:
                pieces[i], _ = quad(integrand, nodes[i], nodes[i + 1],
                                    epsabs=1.0e-12, epsrel=1.0e-11,
                                    limit=200)
        values = np.concatenate(([0.0], np.cumsum(pieces)))

        self.vg = vg
        self.fluids = fluids
        self.nodes = nodes
        self.values = values
        self.alpha_bar = float(values[-1])
        self.fallback_panels = len(redo)
        # per interval: its cubic's power-basis coefficients in s - x_i,
        # then x_i; one row each, so one take gathers a piece per point
        h = np.diff(nodes)
        slope = np.diff(values) / h
        d = pchip_slopes(nodes, values)
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
