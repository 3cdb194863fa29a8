"""Linearized block solves and the exponential-sum exchange kernel.

Oracles used here:

  * frozen step-response value cross-checked against the odd-mode sine
    series evaluated independently at high precision;
  * short-time closed form: before the wall layers interact, the slab
    absorbs like two half-spaces, m(t) = (4/L) sqrt(a t / pi);
  * the multi-axis step response is a product of per-axis factors,
    1 - m_d = (1 - m_1)^d;
  * the range-averaged diffusivity is a difference quotient of the
    Kirchhoff transform, checked against direct table evaluations;
  * the modal block solve takes the same backward-Euler steps as the
    sparse LU of each step's system (oracles.run_linear_lu), on the
    wedge, on the corner and on the full cube, for clin, vlin and random
    positive coefficient sequences, and factors no matrix;
  * the block memory's exchange, driven through effective.exchange_series,
    follows the same modal recursion run in np.longdouble to 1e-12
    relative at delta 0.001, in 1d to 3d, on the clocks alpha_bar and
    alpha_hat;
  * the block memory, one mode per permutation class counted by the
    class size, gives the exchange of the memory that keeps every mode
    (oracles.all_modes_memory) to 1e-12 relative, for clin and vlin on
    every preset in 2d and 3d, with 2x (2d) and about 6x (3d) fewer
    modes.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualporo import blockmesh as bm
from dualporo import imbibition
from dualporo.harness import get_preset, list_presets
from dualporo.effective import exchange_series
from dualporo.imbibition import BlockMemory, BlockProblem, wall_series
from dualporo.linearized import (run_constant_linearized, run_linear,
                                 run_variable_linearized,
                                 variable_coefficients)
from oracles import (all_modes_memory, build_kernel, kernel_from_scales,
                     modal_exchange_longdouble, run_linear_lu)

DAY = 86400.0

MEAN_STEP_UNIT_SLAB_AT_0P1 = 0.6978819062267267   # d=1, L=1, a=1, j_max=99


# ----------------------------------------------------------- step response

def test_mean_step_response_frozen_value():
    k = kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=99)
    assert float(k.mean_step_response(0.1)) == pytest.approx(
        MEAN_STEP_UNIT_SLAB_AT_0P1, rel=1e-14)


def test_mean_step_response_limits():
    k = kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=99)
    assert float(k.mean_step_response(50.0)) == pytest.approx(1.0, abs=1e-15)
    # at t = 0 the complement is the truncated weight sum: at most 1,
    # approaching 1 as modes are added (tail ~ 1/j_max)
    c0 = float(k.mean_complement_1d(0.0))
    assert c0 <= 1.0
    assert c0 == pytest.approx(1.0, abs=5e-3)
    k_fine = kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=4001)
    assert float(k_fine.mean_complement_1d(0.0)) == pytest.approx(1.0,
                                                                  abs=2e-4)


def test_mean_step_response_short_time_closed_form():
    # two half-space walls: m(t) = (4/L) sqrt(a t / pi) while the layers
    # are disjoint; needs j_max >> L / sqrt(a t) to resolve
    k = kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=4001)
    for t in (1e-5, 4e-5):
        ref = 4.0 * np.sqrt(t / np.pi)
        assert float(k.mean_step_response(t)) == pytest.approx(ref, rel=1e-10)


def test_multi_axis_response_is_a_product_of_axis_factors():
    k1 = kernel_from_scales(1, 0.9, 0.8, 0.35, j_max=99)
    k2 = kernel_from_scales(2, 0.9, 0.8, 0.35, j_max=99)
    ts = np.array([0.02, 0.1, 0.5, 2.0])
    assert np.allclose(k2.mean_step_response(ts),
                       1.0 - (1.0 - k1.mean_step_response(ts)) ** 2,
                       rtol=1e-13, atol=0.0)


def test_tail_bound_dominates_truncation_error():
    k_lo = kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=25)
    k_hi = kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=301)
    ts = np.array([1e-4, 1e-3, 1e-2, 0.1])
    diff = np.abs(k_lo.mean_complement_1d(ts) - k_hi.mean_complement_1d(ts))
    assert (diff <= k_lo.tail_bound(ts) + 1e-16).all()


def test_build_kernel_applies_block_scales():
    k = build_kernel(0.1, 0.35, 1e-13, 5e6, 2, j_max=31)
    assert k.length == pytest.approx(0.9)
    assert k.diffusivity == pytest.approx(0.1 ** 2 * 1e-13 * 5e6 / 0.35,
                                          rel=1e-15)
    assert k.dimension == 2


def test_kernel_scale_validation():
    with pytest.raises(ValueError):
        kernel_from_scales(1, 1.0, 1.0, 0.35, j_max=0)
    with pytest.raises(ValueError):
        kernel_from_scales(1, -1.0, 1.0, 0.35)
    with pytest.raises(ValueError):
        kernel_from_scales(1, 1.0, 0.0, 0.35)


# ------------------------------------------------- variable linearization

def ramp_problem(cset, n_steps=16):
    t_end = 10.0 * DAY

    def boundary(t):
        return 0.05 + 0.90 * (t / t_end)

    times = np.linspace(0.0, t_end, n_steps + 1)
    return BlockProblem(delta=0.1, dimension=2, cset=cset,
                        boundary=boundary, times=times, mesh_cells=16)


def test_variable_coefficients_are_kirchhoff_difference_quotients(sim1_cset):
    p = ramp_problem(sim1_cset)
    coeff = variable_coefficients(p)
    wall = np.array([p.wall_value(t) for t in p.times])
    lo = wall[0]
    beta = sim1_cset.matrix_table()
    # first interval sees a degenerate range: the pointwise diffusivity
    assert coeff[0] == pytest.approx(float(sim1_cset.matrix_alpha(lo)),
                                     rel=1e-12)
    for k in range(1, len(coeff)):
        hi = wall[k]
        expected = (beta(hi) - beta(lo)) / (hi - lo)
        assert coeff[k] == pytest.approx(float(expected), rel=1e-12)


def test_variable_linearized_freezes_positive_coefficients(sim1_cset):
    # alpha_hat > 0 on every step, so the clock tau = cumsum(alpha_hat dt)
    # is strictly increasing
    p = ramp_problem(sim1_cset, n_steps=8)
    mesh = p.build_mesh()
    series = run_variable_linearized(p, mesh)
    coeff = variable_coefficients(p)
    assert (coeff > 0.0).all()
    assert np.array_equal(series.values, run_linear(p, coeff, mesh))


def test_constant_linearized_default_coefficient_is_alpha_bar(sim1_cset):
    p = ramp_problem(sim1_cset, n_steps=8)
    mesh = p.build_mesh()
    series = run_constant_linearized(p, mesh)
    assert np.array_equal(series.values,
                          run_linear(p, sim1_cset.alpha_bar(), mesh))


# ------------------------------------------------------ modal block solve

@pytest.mark.parametrize("bad", [
    lambda c: -c, lambda c: 0.0, lambda c: np.nan, lambda c: np.inf,
    lambda c: np.array([c] * 7 + [-c]), lambda c: np.array([c] * 7 + [np.nan]),
], ids=["negative", "zero", "nan", "inf", "one-negative", "one-nan"])
def test_run_linear_rejects_non_positive_coefficients(sim1_cset, bad):
    p = ramp_problem(sim1_cset, n_steps=8)
    with pytest.raises(ValueError,
                       match="^coefficients must be finite and positive$"):
        run_linear(p, bad(sim1_cset.alpha_bar()))


@pytest.mark.parametrize("shape", [(7,), (9,), (8, 1), (1,)])
def test_run_linear_rejects_coefficients_not_one_per_interval(sim1_cset,
                                                              shape):
    p = ramp_problem(sim1_cset, n_steps=8)
    with pytest.raises(ValueError) as err:
        run_linear(p, np.full(shape, sim1_cset.alpha_bar()))
    assert str(err.value) == (
        f"coefficients must be a scalar or one value per report interval "
        f"(8), not shape {shape}")


def test_linearized_runs_factor_nothing(sim1_cset, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a linearized run factored a matrix")

    monkeypatch.setattr(imbibition, "splu", refuse)
    monkeypatch.setattr(bm, "_splu", refuse)
    monkeypatch.setattr(bm.FixedPattern, "factor", refuse)
    p = ramp_problem(sim1_cset, n_steps=8)
    run_constant_linearized(p)
    run_variable_linearized(p)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("preset", ["sim1", "strong-contrast"])
def test_block_memory_exchange_matches_longdouble_recursion(preset,
                                                            dimension):
    # the block memory's exchange, driven by exchange_series on the clocks
    # alpha_bar (clin) and alpha_hat (vlin) at delta 0.001, against the
    # same modal recursion in long double: measured 6.0e-13 at worst
    # (strong-contrast, 1d, alpha_hat); the volume form of the float
    # recursion, -phi diff(mean) / dt, is up to 1.0e-10 off on these cases
    cfg = dataclasses.replace(get_preset(preset), dimension=dimension)
    problem = cfg.block_problem(0.001)
    mesh = problem.build_mesh()
    wall = wall_series(problem.cset, problem.boundary, problem.times)
    phi = problem.cset.matrix.porosity
    for coeff in (np.full(cfg.n_steps, problem.cset.alpha_bar()),
                  variable_coefficients(problem)):
        memory = BlockMemory(mesh, phi, problem.k_eff, wall[0])
        ref = modal_exchange_longdouble(memory, problem, coeff)
        q = exchange_series(memory, wall, coeff, problem.times)
        assert np.abs(q - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("preset", list_presets())
def test_mode_classes_match_the_all_modes_memory(preset, dimension):
    # at delta 0.1 and 0.001, on the wedge build_mesh returns and on the
    # full cube: the class sizes sum to the number of modes, and the
    # exchange of clin (alpha_bar) and vlin (alpha_hat) stays within
    # 1e-12 relative of the memory that keeps every mode
    cfg = dataclasses.replace(get_preset(preset), dimension=dimension,
                              mesh_cells=16)
    for delta in (0.1, 0.001):
        problem = cfg.block_problem(delta)
        wall = wall_series(problem.cset, problem.boundary, problem.times)
        phi = problem.cset.matrix.porosity
        wedge = problem.build_mesh()
        full = bm.tensor_mesh(wedge.grid, dimension)
        for mesh, n in ((wedge, 8), (full, 16)):
            args = (mesh, phi, problem.k_eff, wall[0])
            memory, every = BlockMemory(*args), all_modes_memory(*args)
            assert len(every.mu) == memory.w.sum() == n ** dimension
            assert len(memory.mu) == (n * (n + 1) // 2 if dimension == 2
                                      else n * (n + 1) * (n + 2) // 6)
            for coeff in (np.full(cfg.n_steps, problem.cset.alpha_bar()),
                          variable_coefficients(problem)):
                q = exchange_series(BlockMemory(*args), wall, coeff,
                                    problem.times)
                ref = exchange_series(all_modes_memory(*args), wall, coeff,
                                      problem.times)
                assert np.abs(q - ref).max() <= 1e-12 * np.abs(ref).max()


@st.composite
def linear_cases(draw):
    dimension = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("wedge", "corner", "full")))
    cells = 8 if dimension == 3 and shape == "full" else draw(
        st.sampled_from((8, 16)))
    n_steps = draw(st.integers(4, 40))
    cfg = dataclasses.replace(get_preset(draw(st.sampled_from(
        list_presets()))), n_steps=n_steps, dimension=dimension,
        mesh_cells=cells)
    problem = cfg.block_problem(draw(st.sampled_from((0.1, 0.001))))
    mesh = problem.build_mesh()
    if shape != "wedge":
        mesh = bm.tensor_mesh(mesh.grid, dimension,
                              corner=shape == "corner")
    kind = draw(st.sampled_from(("clin", "vlin", "random")))
    if kind == "clin":
        coeff = problem.cset.alpha_bar()
    elif kind == "vlin":
        coeff = variable_coefficients(problem)
    else:
        coeff = problem.cset.alpha_bar() * np.exp(draw(st.lists(
            st.floats(-3.0, 3.0), min_size=n_steps, max_size=n_steps)))
    return problem, mesh, coeff


@settings(max_examples=40, deadline=None)
@given(linear_cases())
def test_modal_solve_matches_lu_steps(case):
    # the exchange to the LU steps' flux series to 1e-10 relative
    # (max-norm), and the block means it integrates to 1e-13 absolute; the
    # volume series then follows from the means, within the rounding floor
    # of two of them per interval
    problem, mesh, coeff = case
    q = run_linear(problem, coeff, mesh)
    means_ref, flux_ref = run_linear_lu(problem, coeff, mesh)
    phi, dt = problem.cset.matrix.porosity, np.diff(problem.times)
    q_ref = -flux_ref / dt / (1.0 - problem.delta) ** problem.dimension
    assert np.abs(q - q_ref).max() <= 1e-10 * np.abs(q_ref).max()
    means = problem.s_init - np.concatenate(([0.0], np.cumsum(q * dt))) / phi
    assert np.abs(means - means_ref).max() <= 1e-13
    v = -phi * np.diff(means) / dt
    v_ref = -phi * np.diff(means_ref) / dt
    assert (np.abs(v - v_ref) <= 2e-13 * phi / dt).all()
