"""Constitutive relations: van Genuchten curves, mobilities, the
saturation diffusivity alpha and its integral beta, the wall transfer map,
and their slopes.

Closed-form checks use n = 2 (m = 1/2), where the curves reduce to simple
radicals; derivative checks compare the analytic slopes against central
differences at random interior saturations; integral checks compare the
tabulated beta against independent adaptive quadrature.

The Kirchhoff table's reference is the construction it replaced: one
adaptive `quad` call per panel for the node values, and scipy's
PchipInterpolator for evaluation between nodes.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from dualporo import constitutive as con

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
    """Interpolated beta against adaptive quadrature; off the table nodes
    the PCHIP error is bounded at the global alpha_bar scale (the local
    relative error grows where beta is orders of magnitude smaller)."""
    table = con.kirchhoff_table(matrix_vg, fluids)
    for s in (0.1, 0.37, 0.5, 0.81, 0.97):
        direct, _ = quad(
            lambda u: float(con.capillary_diffusivity(u, matrix_vg, fluids)),
            0.0, s, epsabs=1e-10, epsrel=1e-12, limit=400)
        assert abs(float(table(s)) - direct) <= 1e-8 * table.alpha_bar


def quad_table_values(vg, fluids, nodes):
    """beta at the nodes from one adaptive quad call per panel, with the
    tolerances of the table."""
    def integrand(u):
        return float(con.capillary_diffusivity(u, vg, fluids))

    pieces = [quad(integrand, lo, hi, epsabs=1.0e-12, epsrel=1.0e-11,
                   limit=200)[0] for lo, hi in zip(nodes[:-1], nodes[1:])]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def assert_table_matches_oracle(table):
    """Node values within 1e-14 alpha_bar of per-panel quad; evaluation
    within 1e-15 alpha_bar of PchipInterpolator on the same nodes, on
    arrays and on floats, inside and outside [0, 1]."""
    scale = table.alpha_bar
    ref = quad_table_values(table.vg, table.fluids, table.nodes)
    assert np.abs(table.values - ref).max() <= 1e-14 * scale
    pchip = PchipInterpolator(table.nodes, table.values, extrapolate=False)
    rng = np.random.default_rng(int(table.nodes.size))
    s = np.concatenate((rng.uniform(0.0, 1.0, 512), table.nodes,
                        [0.0, 1.0, -0.5, 1.5, -1e-300, 1.0 + 1e-15]))
    expected = pchip(np.clip(s, 0.0, 1.0))
    got = table(s)
    assert got.shape == s.shape
    assert np.abs(got - expected).max() <= 1e-15 * scale
    scalar = np.array([table(float(x)) for x in s])
    assert np.abs(scalar - expected).max() <= 1e-15 * scale
    assert np.shape(table(0.5)) == () and np.shape(table(s[:1])) == (1,)
    assert np.shape(table(np.float64(0.5))) == ()


# Below n = 1.5 many panels go to quad, some up to its subdivision limit,
# and a 2048-node table with its oracle takes up to tens of seconds; such
# steep media are drawn on 64 nodes only.
MEDIA = st.one_of(
    st.tuples(st.floats(1.5, 6.0), st.sampled_from((64, 256, 2048))),
    st.tuples(st.floats(1.15, 1.5), st.just(64)))


@settings(max_examples=8, deadline=None)
@given(n_and_nodes=MEDIA, log_pr=st.floats(3.0, 7.0),
       log_ratio=st.floats(-1.0, 1.0))
@example(n_and_nodes=(1.15, 64), log_pr=7.0, log_ratio=0.0)
def test_kirchhoff_table_matches_quad_and_pchip_oracle(n_and_nodes, log_pr,
                                                       log_ratio):
    n, n_nodes = n_and_nodes
    vg = con.VanGenuchtenParams(p_r=10.0 ** log_pr, n=n)
    fluids = con.FluidPair(mu_w=1.0e-3, mu_n=1.0e-3 * 10.0 ** log_ratio)
    assert_table_matches_oracle(con.KirchhoffTable(vg, fluids, n_nodes))


def test_kirchhoff_table_quad_fallback_matches_oracle(fluids):
    """n = 1.3 on 64 nodes: some panels miss qk21's tolerance and take
    adaptive quad, like every panel of the oracle."""
    table = con.KirchhoffTable(con.VanGenuchtenParams(p_r=1e5, n=1.3),
                               fluids, n_nodes=64)
    assert table.fallback_panels > 0
    assert_table_matches_oracle(table)


def test_preset_tables_match_oracle_without_fallback(matrix_vg, fluids):
    """The default and strong-contrast matrices: every panel is one qk21
    rule, and the table is the per-panel quad table to 1e-15 alpha_bar."""
    for vg in (matrix_vg, con.VanGenuchtenParams(p_r=1e6, n=2.0)):
        table = con.kirchhoff_table(vg, fluids)
        assert table.fallback_panels == 0
        ref = quad_table_values(vg, fluids, table.nodes)
        assert np.abs(table.values - ref).max() <= 1e-15 * table.alpha_bar


def qk21_agrees_with_quad(g, a, b):
    """(stop, abserr) of qk21_panels on [a, b], after checking that it
    stops exactly when scalar quad returns after 21 evaluations, and that
    it then has quad's result and error estimate bitwise. g is evaluated
    point by point, as quad evaluates it."""
    result, abserr, stop = con.qk21_panels(np.vectorize(g), np.array([a]),
                                           np.array([b]), epsabs=1e-12,
                                           epsrel=1e-11)
    got, err, info = quad(g, a, b, epsabs=1e-12, epsrel=1e-11, limit=200,
                          full_output=True)[:3]
    assert bool(stop[0]) == (info["neval"] == 21)
    if stop[0]:
        assert result[0] == got and abserr[0] == err
    return bool(stop[0]), float(abserr[0])


def test_qk21_panels_stop_where_scalar_quad_stops(matrix_vg, fluids):
    def alpha(v):
        return float(con.capillary_diffusivity(v, matrix_vg, fluids))

    panels = ((0.0, 1e-3), (0.01, 0.02), (0.3, 0.31), (0.9, 0.91),
              (0.999, 1.0))
    assert sum(qk21_agrees_with_quad(alpha, a, b)[0]
               for a, b in panels) >= 3
    # a small step, whose estimate meets the tolerance but equals resasc:
    # quad goes on
    stop, _ = qk21_agrees_with_quad(lambda v: 1e-15 * (v > 0.5), 0.0, 1.0)
    assert not stop
    # a large sine, whose integral cancels: the estimate misses the
    # tolerance at the roundoff level, and quad stops (its ier = 2)
    stop, abserr = qk21_agrees_with_quad(
        lambda v: 1e6 * np.sin(2.0 * np.pi * v), 0.0, 1.0)
    assert stop and abserr > 1e-12


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
    slope = con.transfer_slope(s, matrix_vg, fracture_vg)
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
    with pytest.raises(ValueError):
        con.FluidPair(mu_w=0.0, mu_n=1e-3)
    with pytest.raises(ValueError):
        con.MediumProps(porosity=1.2, permeability=1e-13,
                        vg=con.VanGenuchtenParams(p_r=1e5, n=2.0))
    with pytest.raises(ValueError):
        con.MediumProps(porosity=0.3, permeability=0.0,
                        vg=con.VanGenuchtenParams(p_r=1e5, n=2.0))
