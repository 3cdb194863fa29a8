"""Constitutive relations: van Genuchten curves, mobilities, the
saturation diffusivity alpha and its integral beta, the wall transfer map,
and their slopes (the transfer map's slope is oracles.transfer_slope,
the form the flood's Jacobian inlines).

Closed-form checks use n = 2 (m = 1/2), where the curves reduce to simple
radicals; derivative checks compare the analytic slopes against central
differences at random interior saturations; integral checks compare the
tabulated beta against independent adaptive quadrature.

The Kirchhoff table's references are a 30-digit mpmath quadrature for
the node values and, between nodes, scipy's CubicHermiteSpline through
them with slopes alpha, each capped at three times its adjacent secants.
"""
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from dualporo import constitutive as con
from oracles import transfer_slope

# saturation average of alpha for the default matrix (P_r = 1e5 Pa, n = 2,
# mu_w = 1e-3, mu_n = 2e-3); cross-checked below against direct quadrature
ALPHA_BAR_SIM1 = 5464795.433231418


def test_capillary_pressure_closed_form(matrix_vg):
    """n = 2: P_c(s) = P_r sqrt(s^-2 - 1), so P_c(1/2) = sqrt(3) P_r."""
    expected = np.sqrt(3.0) * matrix_vg.p_r
    assert float(con.capillary_pressure(0.5, matrix_vg)) == \
        pytest.approx(expected, rel=1e-12)


def test_capillary_pressure_endpoints(matrix_vg):
    assert float(con.capillary_pressure(1.0, matrix_vg)) == \
        pytest.approx(0.0, abs=1e-3)
    # s -> 0 blows up (entry into the clipped region)
    assert float(con.capillary_pressure(1e-6, matrix_vg)) > 1e10


def test_capillary_saturation_round_trip(matrix_vg):
    rng = np.random.default_rng(11)
    s = rng.uniform(0.01, 0.99, size=64)
    p = con.capillary_pressure(s, matrix_vg)
    back = con.capillary_saturation(p, matrix_vg)
    assert np.allclose(back, s, rtol=1e-12, atol=0.0)


def test_capillary_curve_monotone(matrix_vg):
    s = np.linspace(0.01, 0.99, 200)
    pc = con.capillary_pressure(s, matrix_vg)
    assert (np.diff(pc) < 0.0).all()
    assert (con.capillary_slope(s, matrix_vg) < 0.0).all()


def test_capillary_slope_matches_fd(matrix_vg):
    rng = np.random.default_rng(23)
    s = rng.uniform(0.05, 0.95, size=32)
    h = 1e-7
    fd = (con.capillary_pressure(s + h, matrix_vg)
          - con.capillary_pressure(s - h, matrix_vg)) / (2 * h)
    slope = con.capillary_slope(s, matrix_vg)
    assert np.allclose(slope, fd, rtol=1e-6)


def test_relative_permeabilities_closed_form(matrix_vg):
    """n = 2: k_rw = sqrt(s)(1 - sqrt(1 - s^2))^2, k_rn = sqrt(1-s)(1-s^2)."""
    s = 0.5
    u = 1.0 - s ** 2
    krw, krn = con.relative_permeabilities(s, matrix_vg)
    assert float(krw) == pytest.approx(
        np.sqrt(s) * (1.0 - np.sqrt(u)) ** 2, rel=1e-12)
    assert float(krn) == pytest.approx(np.sqrt(1.0 - s) * u, rel=1e-12)


def test_relative_permeability_bounds_and_monotonicity(matrix_vg):
    s = np.linspace(0.0, 1.0, 101)
    krw, krn = con.relative_permeabilities(s, matrix_vg)
    assert ((krw >= 0.0) & (krw <= 1.0)).all()
    assert ((krn >= 0.0) & (krn <= 1.0)).all()
    assert (np.diff(krw) >= 0.0).all()
    assert (np.diff(krn) <= 0.0).all()
    assert float(krw[0]) == pytest.approx(0.0, abs=1e-10)
    assert float(krn[-1]) == pytest.approx(0.0, abs=1e-10)


def test_relative_permeability_slopes_match_fd(matrix_vg):
    rng = np.random.default_rng(31)
    s = rng.uniform(0.05, 0.95, size=32)
    h = 1e-6
    krw_p, krn_p = con.relative_permeabilities(s + h, matrix_vg)
    krw_m, krn_m = con.relative_permeabilities(s - h, matrix_vg)
    d_rw, d_rn = con.relative_permeability_slopes(s, matrix_vg)
    assert np.allclose(d_rw, (krw_p - krw_m) / (2 * h), rtol=1e-6)
    assert np.allclose(d_rn, (krn_p - krn_m) / (2 * h), rtol=1e-6)


def test_mobility_slopes_scale_by_viscosity(matrix_vg, fluids):
    s = np.linspace(0.1, 0.9, 17)
    d_rw, d_rn = con.relative_permeability_slopes(s, matrix_vg)
    dl_w, dl_n = con.mobility_slopes(s, matrix_vg, fluids)
    assert np.allclose(dl_w, d_rw / fluids.mu_w, rtol=1e-14)
    assert np.allclose(dl_n, d_rn / fluids.mu_n, rtol=1e-14)


def test_diffusivity_positive_and_degenerate(matrix_vg, fluids):
    s = np.linspace(0.02, 0.98, 49)
    a = con.capillary_diffusivity(s, matrix_vg, fluids)
    assert (a > 0.0).all()
    # degenerate at both saturation endpoints
    assert float(con.capillary_diffusivity(1e-6, matrix_vg, fluids)) < \
        0.01 * a.max()
    assert float(con.capillary_diffusivity(1.0 - 1e-6, matrix_vg, fluids)) < \
        0.01 * a.max()


def test_diffusivity_value_frozen(matrix_vg, fluids):
    assert float(con.capillary_diffusivity(0.5, matrix_vg, fluids)) == \
        pytest.approx(5594408.08101204, rel=1e-12)


def test_alpha_bar_frozen_and_against_quadrature(matrix_vg, fluids):
    table = con.kirchhoff_table(matrix_vg, fluids)
    assert table.alpha_bar == pytest.approx(ALPHA_BAR_SIM1, rel=1e-12)
    direct, _ = quad(
        lambda u: float(con.capillary_diffusivity(u, matrix_vg, fluids)),
        0.0, 1.0, epsabs=1e-10, epsrel=1e-12, limit=400)
    assert table.alpha_bar == pytest.approx(direct, rel=1e-10)


def test_alpha_bar_scales_with_pressure(fluids):
    """alpha is linear in P_c, hence alpha_bar is proportional to P_r."""
    a1 = con.kirchhoff_table(con.VanGenuchtenParams(p_r=1e5, n=2.0),
                             fluids).alpha_bar
    a10 = con.kirchhoff_table(con.VanGenuchtenParams(p_r=1e6, n=2.0),
                              fluids).alpha_bar
    assert a10 / a1 == pytest.approx(10.0, rel=1e-9)


def test_kirchhoff_table_properties(matrix_vg, fluids):
    table = con.kirchhoff_table(matrix_vg, fluids)
    s = np.linspace(0.0, 1.0, 257)
    beta = table(s)
    assert float(beta[0]) == 0.0
    assert float(beta[-1]) == pytest.approx(table.alpha_bar, rel=1e-12)
    assert (np.diff(beta) >= 0.0).all()


def test_kirchhoff_table_matches_direct_quadrature(matrix_vg, fluids):
    """Interpolated beta against adaptive quadrature, off the table nodes,
    at the global alpha_bar scale (the local relative error grows where
    beta is orders of magnitude smaller)."""
    table = con.kirchhoff_table(matrix_vg, fluids)
    for s in (0.1, 0.37, 0.5, 0.81, 0.97):
        direct, _ = quad(
            lambda u: float(con.capillary_diffusivity(u, matrix_vg, fluids)),
            0.0, s, epsabs=1e-10, epsrel=1e-12, limit=400)
        assert abs(float(table(s)) - direct) <= 1e-12 * table.alpha_bar


def test_kirchhoff_table_slope_is_alpha(matrix_vg, fluids):
    """The table's slope, by central differences, is alpha to 1e-7 of
    max alpha: the Newton residual of nlin reads the table's beta and its
    Jacobian the analytic alpha."""
    table = con.kirchhoff_table(matrix_vg, fluids)
    s = np.linspace(1e-6, 1.0 - 1e-6, 100001)
    h = 1e-7
    slope = (table(s + h) - table(s - h)) / (2 * h)
    alpha = con.capillary_diffusivity(s, matrix_vg, fluids)
    assert np.abs(slope - alpha).max() <= 1e-7 * alpha.max()


def mp_beta(vg, fluids, s):
    """beta(s) = int_0^s alpha to 30 digits: mpmath's tanh-sinh quadrature
    in t = n log(Pc/p_r), from t(s) to infinity, of
    lam_w lam_n / lam * dPc/dt, with 1 - S and 1 - S^(1/m) written out so
    that neither tail cancels."""
    with mp.workdps(30):
        m, n = 1 - 1 / mp.mpf(vg.n), mp.mpf(vg.n)

        def integrand(t):
            e = mp.exp(t)
            k_rw = (1 + e) ** (-m / 2) * mp.expm1(-m * mp.log1p(1 / e)) ** 2
            k_rn = (mp.sqrt(-mp.expm1(-m * mp.log1p(e)))
                    * (1 + 1 / e) ** (-2 * m))
            lam_w, lam_n = k_rw / fluids.mu_w, k_rn / fluids.mu_n
            return (lam_w * lam_n / (lam_w + lam_n)
                    * vg.p_r / n * mp.exp(t / n))

        t0 = -mp.inf if s == 1.0 else mp.log(mp.expm1(-mp.log(s) / m))
        cuts = [t0, mp.inf] if t0 >= 0 else [t0, 0, mp.inf]
        return float(mp.quad(integrand, cuts))


def capped_alpha_slopes(table):
    """alpha at the table's nodes, each no more than three times the secant
    of either interval beside it (the Fritsch-Carlson monotonicity box)."""
    secant = np.diff(table.values) / np.diff(table.nodes)
    bound = np.full(table.nodes.size, np.inf)
    bound[:-1] = secant
    bound[1:] = np.minimum(bound[1:], secant)
    alpha = con.capillary_diffusivity(table.nodes, table.vg, table.fluids)
    return np.minimum(alpha, 3.0 * bound)


def assert_table_matches_oracle(table, samples=3):
    """alpha_bar within 1e-14 relative and node values at `samples` random
    nodes within 1e-15 alpha_bar of mpmath; evaluation within 1e-15
    alpha_bar of the cubic Hermite spline through the same nodes with
    capped alpha slopes, on arrays and on floats, inside and outside
    [0, 1]."""
    scale = table.alpha_bar
    assert scale == pytest.approx(mp_beta(table.vg, table.fluids, 1.0),
                                  rel=1e-14, abs=0.0)
    rng = np.random.default_rng(int(table.nodes.size))
    for i in rng.choice(np.arange(1, table.nodes.size - 1), samples,
                        replace=False):
        ref = mp_beta(table.vg, table.fluids, float(table.nodes[i]))
        assert abs(table.values[i] - ref) <= 1e-15 * scale
    spline = CubicHermiteSpline(table.nodes, table.values,
                                capped_alpha_slopes(table), extrapolate=False)
    s = np.concatenate((rng.uniform(0.0, 1.0, 512), table.nodes,
                        [0.0, 1.0, -0.5, 1.5, -1e-300, 1.0 + 1e-15]))
    expected = spline(np.clip(s, 0.0, 1.0))
    got = table(s)
    assert got.shape == s.shape
    assert np.abs(got - expected).max() <= 1e-15 * scale
    scalar = np.array([table(float(x)) for x in s])
    assert np.abs(scalar - expected).max() <= 1e-15 * scale
    assert np.shape(table(0.5)) == () and np.shape(table(s[:1])) == (1,)
    assert np.shape(table(np.float64(0.5))) == ()


MEDIA = st.tuples(st.floats(1.15, 6.0), st.sampled_from((64, 256, 2048)))


@settings(max_examples=8, deadline=None)
@given(n_and_nodes=MEDIA, log_pr=st.floats(3.0, 7.0),
       log_ratio=st.floats(-1.0, 1.0))
@example(n_and_nodes=(1.15, 64), log_pr=7.0, log_ratio=0.0)
def test_kirchhoff_table_matches_mpmath_and_hermite_oracle(n_and_nodes,
                                                           log_pr, log_ratio):
    n, n_nodes = n_and_nodes
    vg = con.VanGenuchtenParams(p_r=10.0 ** log_pr, n=n)
    fluids = con.FluidPair(mu_w=1.0e-3, mu_n=1.0e-3 * 10.0 ** log_ratio)
    assert_table_matches_oracle(con.KirchhoffTable(vg, fluids, n_nodes),
                                samples=1)


@settings(max_examples=20, deadline=None)
@given(n_and_nodes=MEDIA, log_pr=st.floats(3.0, 7.0),
       log_ratio=st.floats(-1.0, 1.0))
@example(n_and_nodes=(2.0, 2048), log_pr=5.0, log_ratio=np.log10(2.0))
def test_kirchhoff_table_is_monotone(n_and_nodes, log_pr, log_ratio):
    """beta from the table never decreases by more than 2 ulp of its local
    value and is never negative, at random saturations and at geometric
    ones within 1e-14 of either end, where alpha has its power laws and
    uncapped alpha slopes make the first cubic dip."""
    n, n_nodes = n_and_nodes
    vg = con.VanGenuchtenParams(p_r=10.0 ** log_pr, n=n)
    fluids = con.FluidPair(mu_w=1.0e-3, mu_n=1.0e-3 * 10.0 ** log_ratio)
    table = con.KirchhoffTable(vg, fluids, n_nodes)
    ends = np.geomspace(1e-14, 0.5, 20000)
    s = np.unique(np.concatenate((
        np.random.default_rng(n_nodes).uniform(0.0, 1.0, 20000),
        ends, 1.0 - ends, [0.0, 1.0])))
    beta = table(s)
    assert (beta >= 0.0).all()
    assert (np.diff(beta) >= -2.0 * np.spacing(beta[1:])).all()


@pytest.mark.parametrize("n, mu_n", [(1.15, 2.0e-3), (1.5, 1.0e-4)],
                         ids=["n1.15", "n1.5-viscosity-ratio-0.1"])
def test_steep_medium_table_matches_oracle(n, mu_n):
    """p_r = 1e7 on 2048 nodes: steep curves on which per-panel adaptive
    quad misses alpha_bar by 1.2e-11 relative (n = 1.15) and node values
    by 2.4e-13 alpha_bar (n = 1.5, mu_n/mu_w = 0.1), and takes seconds;
    the fixed rule is exact to rounding there and builds in milliseconds."""
    vg = con.VanGenuchtenParams(p_r=1e7, n=n)
    fluids = con.FluidPair(mu_w=1.0e-3, mu_n=mu_n)
    start = time.perf_counter()
    table = con.KirchhoffTable(vg, fluids)
    assert time.perf_counter() - start < 0.1
    assert_table_matches_oracle(table)


def test_preset_tables_match_oracle(matrix_vg, fluids):
    """The default and strong-contrast matrices."""
    for vg in (matrix_vg, con.VanGenuchtenParams(p_r=1e6, n=2.0)):
        assert_table_matches_oracle(con.kirchhoff_table(vg, fluids))


def test_range_diffusivity_limits(matrix_vg, fluids):
    table = con.kirchhoff_table(matrix_vg, fluids)
    # full range recovers the saturation average
    assert float(con.range_diffusivity(0.0, 1.0, table)) == \
        pytest.approx(table.alpha_bar, rel=1e-12)
    # degenerate range falls back to the pointwise diffusivity
    assert float(con.range_diffusivity(0.4, 0.4, table)) == \
        pytest.approx(float(con.capillary_diffusivity(0.4, matrix_vg,
                                                      fluids)), rel=1e-12)
    # orientation of the endpoints is immaterial
    assert float(con.range_diffusivity(0.7, 0.2, table)) == \
        float(con.range_diffusivity(0.2, 0.7, table))


def test_range_diffusivity_degenerate_width_uses_the_tables_medium(
        matrix_vg, fluids):
    # strong contrast (P_r = 1e6) has ten times sim1's alpha at every
    # saturation; the midpoint branch must read the table's own curve
    strong_vg = con.VanGenuchtenParams(p_r=1.0e6, n=2.0)
    strong = con.kirchhoff_table(strong_vg, fluids)
    got = float(con.range_diffusivity(0.4, 0.4 + 1e-13, strong))
    assert got == pytest.approx(
        float(con.capillary_diffusivity(0.4, strong_vg, fluids)), rel=1e-9)
    sim1 = float(con.capillary_diffusivity(0.4, matrix_vg, fluids))
    assert got == pytest.approx(10.0 * sim1, rel=1e-9)
    # the array form takes the same branch per entry
    got = con.range_diffusivity(np.array([0.3, 0.6]), np.array([0.3, 0.6]),
                                strong)
    assert np.array_equal(got, con.capillary_diffusivity(
        np.array([0.3, 0.6]), strong_vg, fluids))


def test_range_diffusivity_is_beta_increment(matrix_vg, fluids):
    table = con.kirchhoff_table(matrix_vg, fluids)
    lo, hi = 0.23, 0.78
    expected = (float(table(hi)) - float(table(lo))) / (hi - lo)
    assert float(con.range_diffusivity(lo, hi, table)) == \
        pytest.approx(expected, rel=1e-13)


@example(medium="sim1", s=0.8, log_width=np.log10(1.01e-12))
@example(medium="sim1", s=0.5, log_width=np.log10(1.01e-12))
@example(medium="strong-contrast", s=0.05, log_width=-12.0)
@settings(max_examples=200, deadline=None)
@given(medium=st.sampled_from(["sim1", "strong-contrast"]),
       s=st.floats(0.05, 0.95), log_width=st.floats(-12.0, -6.0))
def test_range_diffusivity_is_exact_on_narrow_ranges(matrix_vg, fluids,
                                                     medium, s, log_width):
    # (beta(hi) - beta(lo)) / width lost about eps beta / (alpha width)
    # to cancellation: 8.1e-6 of alpha at width 1.01e-12 and s = 0.8 on
    # sim1.  Above the midpoint branch's 1e-12, the mean slope of the
    # table's interpolant (scipy's spline through its nodes) over so
    # narrow a range is its slope at the midpoint; either lies within the
    # table's slope gap to alpha (measured 2.5e-8 of alpha at s = 0.05,
    # 6.7e-9 from s = 0.08)
    vg = matrix_vg if medium == "sim1" else \
        con.VanGenuchtenParams(p_r=1.0e6, n=2.0)
    table = con.kirchhoff_table(vg, fluids)
    width = 10.0 ** log_width
    lo, hi = s - 0.5 * width, s + 0.5 * width
    mid = 0.5 * (lo + hi)
    got = float(con.range_diffusivity(lo, hi, table))
    alpha = float(con.capillary_diffusivity(mid, vg, fluids))
    if hi - lo > 1e-12:
        slope = CubicHermiteSpline(table.nodes, table.values,
                                   capped_alpha_slopes(table)).derivative()
        assert got == pytest.approx(float(slope(mid)), rel=1e-9)
    assert got == pytest.approx(alpha, rel=5e-8)


@pytest.mark.parametrize("medium", ["sim1", "strong-contrast"])
def test_range_diffusivity_across_nodes(matrix_vg, fluids, medium):
    # a narrow range around a node (near s = 0.05, 0.5 and 0.95) sums its
    # two pieces' divided differences, each weighted by its sub-width: the
    # interpolant's slope at the midpoint within 1e-9; a range over whole
    # pieces keeps the difference of the table's values, bit for bit
    vg = matrix_vg if medium == "sim1" else \
        con.VanGenuchtenParams(p_r=1.0e6, n=2.0)
    table = con.kirchhoff_table(vg, fluids)
    slope = CubicHermiteSpline(table.nodes, table.values,
                               capped_alpha_slopes(table)).derivative()
    for k in (257, 1024, 1790):
        node = float(table.nodes[k])
        for below, above in ((1e-12, 1e-12), (3e-10, 1e-11), (1e-8, 4e-7)):
            lo, hi = node - below, node + above
            got = float(con.range_diffusivity(lo, hi, table))
            assert got == pytest.approx(float(slope(0.5 * (lo + hi))),
                                        rel=1e-9)
        lo, hi = node - 1e-6, float(table.nodes[k + 2]) + 1e-6
        assert float(con.range_diffusivity(lo, hi, table)) == \
            (float(table(hi)) - float(table(lo))) / (hi - lo)


def test_transfer_saturation_frozen_values(matrix_vg, fracture_vg, fluids):
    assert float(con.transfer_saturation(0.5, matrix_vg, fracture_vg)) == \
        pytest.approx(0.9853292781642932, rel=1e-12)
    assert float(con.transfer_saturation(0.05, matrix_vg, fracture_vg)) == \
        pytest.approx(0.44766148103584524, rel=1e-12)
    strong = con.VanGenuchtenParams(p_r=1e6, n=2.0)
    assert float(con.transfer_saturation(0.5, strong, fracture_vg)) == \
        pytest.approx(0.9998500337415648, rel=1e-12)


def test_transfer_saturation_identity_and_monotone(matrix_vg, fracture_vg):
    s = np.linspace(0.02, 0.98, 97)
    same = con.transfer_saturation(s, matrix_vg, matrix_vg)
    assert np.allclose(same, s, rtol=1e-12)
    mapped = con.transfer_saturation(s, matrix_vg, fracture_vg)
    assert (np.diff(mapped) > 0.0).all()


def test_transfer_slope_matches_fd(matrix_vg, fracture_vg):
    rng = np.random.default_rng(47)
    s = rng.uniform(0.1, 0.9, size=16)
    h = 1e-6
    fd = (con.transfer_saturation(s + h, matrix_vg, fracture_vg)
          - con.transfer_saturation(s - h, matrix_vg, fracture_vg)) / (2 * h)
    slope = transfer_slope(s, matrix_vg, fracture_vg)
    assert np.allclose(slope, fd, rtol=1e-6)
    assert (np.asarray(slope) > 0.0).all()


def test_constitutive_set_shortcuts(sim1_cset):
    assert sim1_cset.alpha_bar() == pytest.approx(ALPHA_BAR_SIM1, rel=1e-12)
    assert float(sim1_cset.transfer(0.5)) == \
        pytest.approx(0.9853292781642932, rel=1e-12)
    assert float(sim1_cset.matrix_table()(1.0)) == \
        pytest.approx(ALPHA_BAR_SIM1, rel=1e-12)
    assert float(sim1_cset.matrix_alpha(0.5)) == \
        pytest.approx(5594408.08101204, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        con.VanGenuchtenParams(p_r=-1.0, n=2.0)
    with pytest.raises(ValueError):
        con.VanGenuchtenParams(p_r=1e5, n=1.0)
    # s**(-1/m) overflows at s = SAT_EPS, so alpha near s = 0 and the
    # Kirchhoff table built on it would be NaN
    with pytest.raises(ValueError, match=r"^n = 1\.01 is too near 1"):
        con.VanGenuchtenParams(p_r=1e5, n=1.01)
    with pytest.raises(ValueError):
        con.FluidPair(mu_w=0.0, mu_n=1e-3)
    with pytest.raises(ValueError):
        con.MediumProps(porosity=1.2, permeability=1e-13,
                        vg=con.VanGenuchtenParams(p_r=1e5, n=2.0))
    with pytest.raises(ValueError):
        con.MediumProps(porosity=0.3, permeability=0.0,
                        vg=con.VanGenuchtenParams(p_r=1e5, n=2.0))
