"""Convolution quadrature and the two effective source models.

Oracles used here:

  * interval integrals of C/sqrt(t_n - u) have the primitive closed form
    2C(sqrt(t_n - t_{k-1}) - sqrt(t_n - t_k)), and telescope so that step
    data yields -dp * 2C (sqrt(t_{n+1}) - sqrt(t_n))/dt exactly;
  * the history weights D^n_k are positive and sum to 2C sqrt(dt^n) on
    any strictly increasing grid;
  * the scheme form assembled from history_sum must reproduce the direct
    evaluation of the source (two independent routes to Q^{n+1/2});
  * one step of the shared kernel (oracles.sqrt_kernel_step, the exact
    product quadrature) equals the difference of two
    QuadratureTable rows on the warped clock tau_k = sum_l alpha^l dt^{l-1}
    (on t itself for the fixed clock);
  * the sum-of-exponentials MemorySource reproduces that exact step over
    a sequence of commits, on grids whose steps span six decades;
  * with constant alpha the warped model collapses to the fixed model
    with constant C sqrt(alpha); with variable alpha it equals the fixed
    model evaluated on the rescaled grid tau = cumsum(alpha dt), scaled
    back by alpha per interval (exact discrete change of variables).
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualporo.effective import (MemorySource, QuadratureTable,
                                exchange_fixed_kernel, exchange_warped_kernel,
                                kernel_constant, running_range_alpha)
from oracles import blocked_geometric_times, history_sum, sqrt_kernel_step


def random_grid(rng, n=50, lo=0.01, hi=1.0):
    return np.concatenate(([0.0], np.cumsum(rng.uniform(lo, hi, n))))


# ----------------------------------------------------------- constants

def test_kernel_constants_closed_forms(sim1_cset):
    # one prefactor for both kernels, C = 2 d sqrt(phi_m k_m / pi); on the
    # fixed kernel's clock alpha_bar it is the classical C sqrt(alpha_bar)
    abar = sim1_cset.alpha_bar()
    phi, k = sim1_cset.matrix.porosity, sim1_cset.matrix.permeability
    for d in (1, 2, 3):
        assert kernel_constant(d, sim1_cset) == \
            2.0 * d * np.sqrt(phi * k / np.pi)
    c = kernel_constant(2, sim1_cset)
    assert c == pytest.approx(4.0 * np.sqrt(0.35 * 1e-13 / np.pi), rel=1e-15)
    assert c * np.sqrt(abar) == pytest.approx(
        4.0 * np.sqrt(0.35 * 1e-13 * abar / np.pi), rel=1e-14)


# ----------------------------------------------------------- quadrature

def test_equidistant_weights_frozen_values():
    table = QuadratureTable(np.arange(4.0), 1.0)
    j = table.equidistant_weights(2, 1.0)
    assert j[0] == pytest.approx(2.0, rel=1e-15)
    assert j[1] == pytest.approx(0.8284271247461902, rel=1e-14)
    assert float(table.row(3)[0]) == pytest.approx(
        2.0 * (np.sqrt(3.0) - np.sqrt(2.0)), rel=1e-12)


def test_row_matches_primitive_difference_form():
    rng = np.random.default_rng(101)
    for _ in range(20):
        t = random_grid(rng, n=40)
        table = QuadratureTable(t, 0.7)
        n = rng.integers(1, 41)
        back = t[n] - t[: n + 1]
        naive = 2.0 * 0.7 * (np.sqrt(back[:-1]) - np.sqrt(back[1:]))
        assert np.allclose(table.row(n), naive, rtol=1e-11, atol=0.0)


def test_history_weights_positive_and_sum_identity():
    rng = np.random.default_rng(202)
    for _ in range(30):
        t = random_grid(rng, n=30)
        table = QuadratureTable(t, 1.3)
        for n in (0, 5, 17, 29):
            d = table.d_row(n)
            assert (d[1:] > 0.0).all()
            total = 2.0 * 1.3 * np.sqrt(t[n + 1] - t[n])
            assert d.sum() == pytest.approx(total, rel=1e-12)


def test_uniform_grid_shift_invariance():
    t = np.linspace(0.0, 7.0, 36)
    dt = t[1] - t[0]
    table = QuadratureTable(t, 0.9)
    for n in (1, 10, 34):
        row = table.row(n)
        row_next = table.row(n + 1)
        assert np.allclose(row_next[1:], row, rtol=1e-12, atol=0.0)
        assert np.allclose(row, table.equidistant_weights(n, dt)[::-1],
                           rtol=1e-12, atol=0.0)


def test_validate_accepts_arbitrary_monotone_grids():
    # D^n_0 equals 2C(sqrt(t_{n+1}-t_0) - sqrt(t_n-t_0)) by telescoping,
    # so the scheme is sign-stable on every strictly increasing grid
    rng = np.random.default_rng(303)
    QuadratureTable(np.linspace(0.0, 10.0, 21), 1.0).validate()
    QuadratureTable(blocked_geometric_times(100.0, 0.5, 8, 1.3), 1.0).validate()
    for _ in range(10):
        QuadratureTable(random_grid(rng, n=40), 0.7).validate()


def test_table_validation_errors():
    with pytest.raises(ValueError):
        QuadratureTable(np.array([0.0, 1.0, 1.0]), 1.0)
    table = QuadratureTable(np.array([0.0, 1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        table.row(0)
    with pytest.raises(ValueError):
        table.row(3)
    with pytest.raises(ValueError):
        history_sum(np.zeros(2), table, 2)


# ---------------------------------------------------- shared kernel step

def draw_array(draw, shape, lo, hi):
    size = int(np.prod(shape))
    values = draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))
    return np.array(values).reshape(shape)


@st.composite
def kernel_step_cases(draw):
    """Grid t_0..t_{n+1}, wall values p^0..p^{n+1} and clock rates
    alpha^0..alpha^{n+1} on m cells; alpha is None for the fixed clock."""
    n = draw(st.integers(0, 30))
    m = draw(st.sampled_from((1, 3)))
    t0 = draw(st.floats(0.0, 10.0))
    steps = draw_array(draw, n + 1, 0.05, 1.0)
    times = t0 + np.concatenate(([0.0], np.cumsum(steps)))
    wall = draw_array(draw, (n + 2, m), 0.0, 1.0)
    alpha = None if draw(st.booleans()) \
        else draw_array(draw, (n + 2, m), 0.2, 5.0)
    return times, wall, alpha


@settings(max_examples=200, deadline=None)
@given(kernel_step_cases())
def test_sqrt_kernel_step_matches_quadrature_rows(case):
    times, wall, alpha = case
    n, m = len(times) - 2, wall.shape[1]
    c = 0.8
    impl, expl = sqrt_kernel_step(times, wall[:n + 1],
                                  1.0 if alpha is None else alpha, c)
    dt = times[n + 1] - times[n]
    q = -impl / dt * (wall[n + 1] - wall[0]) + expl
    for j in range(m):
        if alpha is None:
            tau = times
        else:
            tau = np.concatenate(([0.0], np.cumsum(alpha[1:, j]
                                                   * np.diff(times))))
        table = QuadratureTable(tau, c)
        inc = np.abs(wall[1:, j] - wall[0, j])
        row_next = table.row(n + 1)
        row = table.row(n) if n else np.empty(0)
        ref = -(np.dot(wall[1:, j] - wall[0, j], row_next)
                - np.dot(wall[1:n + 1, j] - wall[0, j], row)) / dt
        # relative to the size of the two history sums that are differenced;
        # below the smallest normal float, underflow ends relative precision
        scale = (np.dot(inc, row_next) + np.dot(inc[:n], row)) / dt
        assert abs(q[j] - ref) <= 1e-12 * max(scale, np.finfo(float).tiny)
        assert np.broadcast_to(impl, (m,))[j] \
            == pytest.approx(row_next[n], rel=1e-12)


# ------------------------------------------------ sum-of-exponentials

@st.composite
def memory_cases(draw):
    """Grid t_0..t_N with steps over six decades, wall values p^0..p^N and
    clock rates alpha^0..alpha^N on m cells; alpha is None for the fixed
    clock."""
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from((1, 3)))
    steps = 10.0 ** draw_array(draw, n, -3.0, 3.0)
    times = np.concatenate(([0.0], np.cumsum(steps)))
    wall = draw_array(draw, (n + 1, m), 0.0, 1.0)
    alpha = None if draw(st.booleans()) \
        else draw_array(draw, (n + 1, m), 0.2, 5.0)
    return times, wall, alpha


def pulse_then_short_step():
    """A unit pulse, then a last step 1e5 times shorter than the clock:
    written as a difference of two history sums, the reference lost
    2.6e-12 of its last value here to cancellation."""
    times = np.concatenate((np.arange(10.0), 109.0 + np.arange(6.0),
                            [114.001]))
    wall = np.zeros((17, 1))
    wall[10] = 1.0
    return times, wall, np.ones((17, 1))


@settings(max_examples=150, deadline=None)
@given(memory_cases())
@example(pulse_then_short_step())
def test_memory_source_matches_exact_step(case):
    times, wall, alpha = case
    c = 0.8
    dts = np.diff(times)
    rates = np.ones((len(times), 1)) if alpha is None else alpha
    w = rates[1:] * dts[:, None]
    memory = MemorySource(c, wall[0], w.min(), np.cumsum(w, axis=0)[-1].max())
    got, ref = [], []
    for n, dt in enumerate(dts):
        impl, expl = memory.step(dt, 1.0 if alpha is None else alpha[n + 1])
        impl_ref, expl_ref = sqrt_kernel_step(
            times[:n + 2], wall[:n + 1],
            1.0 if alpha is None else alpha[:n + 2], c)
        assert np.allclose(impl, impl_ref, rtol=1e-15, atol=0.0)
        got.append(expl)
        ref.append(expl_ref)
        memory.commit(wall[n + 1])
    got, ref = np.array(got), np.array(ref)
    # below the smallest normal float, underflow ends relative precision
    scale = max(np.abs(ref).max(), np.finfo(float).tiny)
    assert np.abs(got - ref).max() <= 1e-12 * scale


def test_memory_source_rejects_steps_outside_its_range():
    with pytest.raises(ValueError):
        MemorySource(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        MemorySource(1.0, 0.0, 2.0, 1.0)
    memory = MemorySource(1.0, np.zeros(2), 1.0, 10.0)
    with pytest.raises(ValueError, match="trial step"):
        memory.commit(np.ones(2))
    memory.step(0.5, 1.0)                  # increment below x_lo
    with pytest.raises(ValueError, match="outside the memory range"):
        memory.commit(np.ones(2))
    for _ in range(2):
        memory.step(4.0, 1.0)
        memory.commit(np.ones(2))
    memory.step(1.0, np.array([1.0, 3.0]))   # second cell's clock: 11
    with pytest.raises(ValueError, match="outside the memory range"):
        memory.commit(np.ones(2))


# ------------------------------------------------------- fixed kernel

def test_fixed_kernel_constant_data_is_exactly_zero():
    t = np.linspace(0.0, 5.0, 11)
    q = exchange_fixed_kernel(np.full(11, 0.37), t, 2.0)
    assert np.all(q == 0.0)


def test_fixed_kernel_step_data_closed_form():
    rng = np.random.default_rng(404)
    t = random_grid(rng, n=30)
    wall = np.full(len(t), 0.8)
    wall[0] = 0.3
    c = 1.7
    q = exchange_fixed_kernel(wall, t, c)
    expected = -0.5 * 2.0 * c * np.diff(np.sqrt(t)) / np.diff(t)
    assert np.allclose(q, expected, rtol=1e-12, atol=0.0)


def test_fixed_kernel_scheme_form_agrees_with_direct_evaluation():
    # dual route: the direct I-form against the D-form used by the
    # implicit solver, Q = -(p^{n+1} sum(D) - history_sum)/dt
    rng = np.random.default_rng(505)
    t = random_grid(rng, n=25)
    wall = rng.uniform(0.1, 0.9, len(t))
    c = 0.6
    q = exchange_fixed_kernel(wall, t, c)
    table = QuadratureTable(t, c)
    for n in range(table.n_steps):
        d = table.d_row(n)
        scheme = -(wall[n + 1] * d.sum()
                   - float(history_sum(wall, table, n))) / (t[n + 1] - t[n])
        assert q[n] == pytest.approx(scheme, rel=1e-10, abs=1e-14)


def test_history_sum_broadcasts_over_columns():
    rng = np.random.default_rng(606)
    t = random_grid(rng, n=10)
    table = QuadratureTable(t, 1.0)
    p = rng.uniform(0.0, 1.0, (len(t), 3))
    full = history_sum(p, table, 6)
    for j in range(3):
        assert full[j] == pytest.approx(float(history_sum(p[:, j], table, 6)),
                                        rel=1e-14)


def test_fixed_kernel_validates_sampling():
    with pytest.raises(ValueError):
        exchange_fixed_kernel(np.zeros(3), np.linspace(0.0, 1.0, 5), 1.0)


# ------------------------------------------------------- warped kernel

def test_warped_kernel_reduces_to_fixed_for_constant_alpha():
    rng = np.random.default_rng(707)
    t = random_grid(rng, n=30)
    wall = rng.uniform(0.1, 0.9, len(t))
    a = 3.7e6
    c = 4.2e-7
    q_warp = exchange_warped_kernel(wall, np.full(len(t), a), t, c)
    q_fixed = exchange_fixed_kernel(wall, t, c * np.sqrt(a))
    scale = np.abs(q_fixed).max()
    assert np.abs(q_warp - q_fixed).max() <= 1e-10 * scale


def test_warped_kernel_is_fixed_kernel_in_rescaled_time():
    # exact discrete change of variables: with tau = cumsum(alpha dt),
    # Q_warped(t) = alpha * Q_fixed evaluated on the tau grid
    rng = np.random.default_rng(808)
    t = random_grid(rng, n=30)
    wall = rng.uniform(0.1, 0.9, len(t))
    alpha = rng.uniform(0.5, 4.0, len(t))
    c = 0.9
    q_warp = exchange_warped_kernel(wall, alpha, t, c)
    tau = np.concatenate(([0.0], np.cumsum(alpha[1:] * np.diff(t))))
    q_fixed = exchange_fixed_kernel(wall, tau, c)
    scale = np.abs(q_warp).max()
    assert np.abs(q_warp - alpha[1:] * q_fixed).max() <= 1e-12 * scale


def test_warped_kernel_constant_data_is_exactly_zero():
    t = np.linspace(0.0, 5.0, 11)
    q = exchange_warped_kernel(np.full(11, 0.4), np.full(11, 2.0), t, 1.0)
    assert np.all(q == 0.0)


def test_warped_kernel_validation():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        exchange_warped_kernel(np.zeros(4), np.ones(5), t, 1.0)
    with pytest.raises(ValueError):
        exchange_warped_kernel(np.zeros(5), np.ones(4), t, 1.0)
    bad = np.ones(5)
    bad[2] = -1.0
    with pytest.raises(ValueError):
        exchange_warped_kernel(np.zeros(5), bad, t, 1.0)


# ------------------------------------------------- running range alpha

def test_running_range_alpha_matches_manual_accumulation(sim1_cset):
    rng = np.random.default_rng(909)
    wall = rng.uniform(0.1, 0.9, 24)
    beta = sim1_cset.matrix_table()
    got = running_range_alpha(wall, beta)
    assert got[0] == pytest.approx(float(sim1_cset.matrix_alpha(wall[0])),
                                   rel=1e-12)
    for k in range(1, len(wall)):
        lo = wall[: k + 1].min()
        hi = wall[: k + 1].max()
        expected = (beta(hi) - beta(lo)) / (hi - lo)
        assert got[k] == pytest.approx(float(expected), rel=1e-12)
