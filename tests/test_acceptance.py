"""Acceptance gate: ten pinned end-to-end checks, one test per criterion.

The checks cover the full toolkit: agreement of the two discrete exchange
forms of the nonlinear block solve, linear scaling of the exchange in the
block size, the quality ranking of the two linearizations, the algebraic
identities of the square-root quadrature weights, first-order convergence
of the discrete fixed kernel to its closed form, the eigenfunction-series
oracle for the constant-coefficient block, degeneracy reductions of the
variable-coefficient machinery onto the constant one, consistency of the
small-block limit with the fixed-kernel source, conservation and closure
of the fracture flood solver, and byte determinism of the CLI outputs.

Expensive runs are shared through session fixtures: a 72-run sweep of all
scenario presets (three block methods, six block sizes each, 48-cell
meshes, 160 steps, about 80 s), six nonlinear volume/flux runs, and one
32x32 flood.  Full gate runtime is about three minutes.
"""
import dataclasses
import filecmp
import time

import numpy as np
import pytest
import yaml

import dualporo.constitutive as con
import dualporo.effective as eff
from dualporo import harness as hz
from dualporo.cli import main
from dualporo.imbibition import (BlockProblem, exchange_from_flux,
                                 exchange_from_volume, run_linear,
                                 run_trajectory)
from dualporo.linearized import run_constant_linearized
from oracles import blocked_geometric_times, build_kernel

DAY = hz.DAY
SWEEP_MESH = 48
SWEEP_STEPS = 160
BLOCK_METHODS = ("nlin", "clin", "vlin")
MONOTONE_PRESETS = ("sim1", "strong-contrast", "equal-pc")
DELTAS = (0.3, 0.2, 0.1, 0.05, 0.01, 0.001)


def sweep_config(preset: str, **overrides):
    base = dict(n_steps=SWEEP_STEPS, mesh_cells=SWEEP_MESH)
    base.update(overrides)
    return dataclasses.replace(hz.get_preset(preset), **base)


@pytest.fixture(scope="session")
def sweep():
    """{(preset, method, delta): ExchangeSeries} over every preset."""
    out = {}
    for preset in MONOTONE_PRESETS + ("nonmonotone",):
        cfg = sweep_config(preset)
        for method in BLOCK_METHODS:
            for delta in DELTAS:
                out[(preset, method, delta)] = hz.run_method(cfg, method,
                                                             delta=delta)
    return out


@pytest.fixture(scope="session")
def volume_flux_runs():
    """Nonlinear runs at delta 1e-2 keeping both exchange forms."""
    out = {}
    for preset in MONOTONE_PRESETS:
        for dim in (1, 2):
            cfg = sweep_config(preset, dimension=dim)
            prob = cfg.block_problem(0.01)
            t0 = time.perf_counter()
            sol = run_trajectory(prob)
            elapsed = time.perf_counter() - t0
            out[(preset, dim)] = (exchange_from_volume(sol, prob),
                                  exchange_from_flux(sol, prob), elapsed)
    return out


@pytest.fixture(scope="session")
def flood_run():
    cfg = hz.FloodConfig()          # 32x32 cells, 200 steps, fixed source
    t0 = time.perf_counter()
    res = hz.run_flood(cfg)
    return res, time.perf_counter() - t0


def test_criterion_01_volume_and_flux_exchange_agree(volume_flux_runs):
    """The block-average and wall-flux forms of the nonlinear exchange
    agree to 1% relative L2 over the full horizon for sim1,
    strong-contrast and equal-pc at delta 1e-2 in one and two dimensions,
    each run in under two minutes.  The two forms are linked by the
    discrete conservation statement of the scheme, so the distance is set
    by the Newton tolerance (observed ~1e-7), not the mesh."""
    for (preset, dim), (vol, flux, elapsed) in volume_flux_runs.items():
        err = hz.compare_series(vol, flux)[0]
        assert err <= 0.01, (preset, dim, err)
        assert elapsed < 120.0, (preset, dim, elapsed)


def test_criterion_02_exchange_scales_linearly_in_delta(sweep):
    """Q/delta at delta 1e-2 vs 1e-3 differs by at most 5% relative L2 on
    [0.5, 10] days for all three block methods on sim1 (measured 1.6%
    nlin, 0.4% clin, 1.2% vlin)."""
    for method in BLOCK_METHODS:
        err = hz.compare_series(sweep[("sim1", method, 0.01)],
                                sweep[("sim1", method, 0.001)],
                                t_lo=0.5 * DAY, t_hi=10.0 * DAY)[0]
        assert err <= 0.05, (method, err)


def test_criterion_03_variable_linearization_tracks_nlin_closer(sweep):
    """For the monotone presets the range-averaged linearization beats
    the constant one at every block size: dist(vlin, nlin) <
    dist(clin, nlin) in relative L2 (measured ~0.06 vs ~0.25 on sim1).
    On the nonmonotone preset the running range saturates and the two
    linearizations tie, so vlin is only required to stay within a factor
    1.5 (measured ratios 0.97-1.01)."""
    for preset in MONOTONE_PRESETS:
        for delta in DELTAS:
            ref = sweep[(preset, "nlin", delta)]
            d_vlin = hz.compare_series(sweep[(preset, "vlin", delta)],
                                       ref)[0]
            d_clin = hz.compare_series(sweep[(preset, "clin", delta)],
                                       ref)[0]
            assert d_vlin < d_clin, (preset, delta, d_vlin, d_clin)
    for delta in DELTAS:
        ref = sweep[("nonmonotone", "nlin", delta)]
        d_vlin = hz.compare_series(sweep[("nonmonotone", "vlin", delta)],
                                   ref)[0]
        d_clin = hz.compare_series(sweep[("nonmonotone", "clin", delta)],
                                   ref)[0]
        assert d_vlin <= 1.5 * d_clin, (delta, d_vlin, d_clin)


def test_criterion_04_quadrature_weight_identities():
    """On random strictly increasing grids the square-root quadrature
    weights satisfy D^n_k > 0 for k >= 1 and sum_k D^n_k =
    2C sqrt(dt_n) to 1e-12 relative; on equidistant grids the history
    integrals are shift invariant, I^{n+1}_{k+1} = I^n_k."""
    rng = np.random.default_rng(42)
    c = 0.37
    for _ in range(100):
        times = np.concatenate(([0.0],
                                np.cumsum(rng.uniform(1e-4, 1.0, 200))))
        table = eff.QuadratureTable(times, c)
        n = int(rng.integers(0, 199))
        d = table.d_row(n)
        assert (d[1:] > 0.0).all(), n
        dt = times[n + 1] - times[n]
        assert d.sum() == pytest.approx(2.0 * c * np.sqrt(dt), rel=1e-12)
    table = eff.QuadratureTable(np.linspace(0.0, 5.0, 201), c)
    for n in (1, 7, 50, 198):
        np.testing.assert_allclose(table.row(n + 1)[1:], table.row(n),
                                   rtol=1e-12)


def test_criterion_05_step_kernel_first_order_in_dt():
    """For step wall data the discrete fixed-kernel exchange converges to
    the closed form -C*c/sqrt(t) at first order: the dt-weighted L1 error
    on [0.5, 10] days halves per grid doubling within 20% (measured
    ratios 0.488, 0.494, 0.497 on 200..1600 uniform steps).

    The scheme reports interval averages, and for the 1/sqrt(t) step
    response the interval average of the exact kernel equals the exact
    value near the interval's right endpoint; the error is therefore
    attributed pointwise as q_k vs f(t_{k+1}).  Attributing to moving
    interval midpoints instead hides half the first-order term and
    degrades the observed ratio to ~0.71."""
    errors = []
    for n in (200, 400, 800, 1600):
        times = np.linspace(0.0, 10.0 * DAY, n + 1)
        wall = np.ones(n + 1)
        wall[0] = 0.0
        q = eff.exchange_fixed_kernel(wall, times, 1.0)
        t_right = times[1:]
        exact = -1.0 / np.sqrt(t_right)
        sel = t_right >= 0.5 * DAY
        w = np.diff(times)
        errors.append(np.sum(np.abs(q - exact)[sel] * w[sel])
                      / np.sum(np.abs(exact)[sel] * w[sel]))
    ratios = np.array(errors[1:]) / np.array(errors[:-1])
    assert ((0.4 <= ratios) & (ratios <= 0.6)).all(), (errors, ratios)


def test_criterion_06_block_solve_matches_eigenfunction_series():
    """The constant-coefficient block solve under a wall step reproduces
    the truncated eigenfunction-series exchange to 1e-3 relative sup on
    t >= 0.05 days, in one and two dimensions.  Geometric step blocks
    resolve the early transient; 512 cells in 1d and 256 per axis in 2d
    leave measured errors of 3.5e-4 and 7.3e-4 (the 2d solve, 2208 steps
    on 128^2 corner cells, takes 0.24 s on a 2-vCPU x86 host)."""
    cset = hz.get_preset("sim1").cset()
    step = hz.make_trajectory("step", s_before=0.05, s_after=0.95)
    times = blocked_geometric_times(1.0 * DAY, 0.5, block_len=64,
                                    growth=1.2)
    jump = float(cset.transfer(0.95) - cset.transfer(0.05))
    for dim, mesh_cells in ((1, 512), (2, 256)):
        prob = BlockProblem(delta=0.1, dimension=dim, cset=cset,
                            boundary=step, times=times,
                            mesh_cells=mesh_cells)
        ex = run_constant_linearized(prob)
        kernel = build_kernel(0.1, cset.matrix.porosity,
                              cset.matrix.permeability, cset.alpha_bar(),
                              dim, j_max=4001)
        oracle = kernel.step_exchange_average(times, jump)
        sel = ex.times >= 0.05 * DAY
        err = (np.max(np.abs(ex.values[sel] - oracle[sel]))
               / np.max(np.abs(oracle[sel])))
        assert err <= 1e-3, (dim, err)


def test_criterion_07_variable_machinery_collapses_onto_constant():
    """Freezing the variable coefficient at alpha_bar reduces vlin to
    clin, and the time-warped kernel on the constant clock alpha reduces
    to the kernel on the unit clock with constant C sqrt(alpha), all to
    1e-10 relative stepwise.  Measured: the direct route is bitwise
    equal, the time-change route agrees to 2.8e-15, and the kernel series
    agree to 5e-14."""
    cfg = sweep_config("sim1")
    cset = cfg.cset()
    abar = cset.alpha_bar()
    prob = cfg.block_problem(0.1)
    mesh = prob.build_mesh()

    ex_clin = run_constant_linearized(prob, mesh).values
    scale = np.max(np.abs(ex_clin))

    ex_direct = run_linear(prob, np.full(cfg.n_steps, abar), mesh)
    assert np.max(np.abs(ex_direct - ex_clin)) <= 1e-10 * scale

    tau = np.concatenate(([0.0], np.cumsum(abar * np.diff(prob.times))))
    tau_prob = BlockProblem(delta=prob.delta, dimension=prob.dimension,
                            cset=cset,
                            boundary=lambda u: prob.boundary(u / abar),
                            times=tau, mesh_cells=prob.mesh_cells)
    assert tau_prob.s_init == prob.s_init       # tau[0] = 0
    # Q_vlin(t) = alpha_hat Q_unit(tau(t)), and alpha_hat = alpha_bar here
    ex_tc = abar * run_linear(tau_prob, 1.0, mesh)
    assert np.max(np.abs(ex_tc - ex_clin)) <= 1e-10 * scale

    c_warped = eff.kernel_constant(2, cset)
    c_fixed = c_warped * np.sqrt(abar)     # the unit clock's constant

    times = cfg.times()
    boundary = cfg.boundary()
    wall = np.array([float(cset.transfer(boundary(t))) for t in times])
    q_fixed = eff.exchange_fixed_kernel(wall, times, c_fixed)
    q_warped = eff.exchange_warped_kernel(wall, np.full(len(times), abar),
                                          times, c_warped)
    assert np.max(np.abs(q_warped - q_fixed)) \
        <= 1e-10 * np.max(np.abs(q_fixed))


def test_criterion_08_small_blocks_approach_fixed_kernel_source():
    """The constant-linearized block exchange Q/delta approaches the
    fixed-kernel source on the same trajectory as the block shrinks: at
    delta 1e-3 the relative L2 mismatch on [0.5, 10] days is below 5%,
    and the delta 1e-2 mismatch is strictly larger (measured 0.45% vs
    0.66% on 192-cell meshes with 320 steps; coarser meshes bury the
    delta dependence under spatial error)."""
    cfg = sweep_config("sim1", n_steps=320, mesh_cells=192)
    reference = hz.run_method(cfg, "effective-I")
    err = {delta: hz.compare_series(hz.run_method(cfg, "clin", delta=delta),
                                    reference, t_lo=0.5 * DAY,
                                    t_hi=10.0 * DAY)[0]
           for delta in (0.01, 0.001)}
    assert err[0.001] <= 0.05, err
    assert err[0.01] > err[0.001], err


def test_criterion_09_flood_conserves_mass_and_closes_pressures(flood_run):
    """The 32x32 flood with the fixed-kernel source keeps per-step water
    defects below 1e-10 and volume defects below 1e-12 of pore volume
    (measured 4e-12 and 2e-17), never clamps, keeps saturations in
    bounds, reports pressures satisfying P_n - P_w = P_c(S) to 1e-10
    relative (measured 6e-17), and finishes in under five minutes
    (measured ~4 s)."""
    res, elapsed = flood_run
    dw, dv = res.max_defects()
    assert dw <= 1e-10, dw
    assert dv <= 1e-12, dv
    assert not any(st.clamped for st in res.steps)
    assert res.saturation_history.min() >= con.SAT_EPS
    assert res.saturation_history.max() <= 1.0 - con.SAT_EPS
    pc = np.asarray(con.capillary_pressure(
        res.saturation, hz.get_preset("sim1").cset().fracture.vg))
    closure = np.abs(res.pressure_n - res.pressure_w - pc).max()
    assert closure <= 1e-10 * np.abs(res.pressure_n).max()
    assert elapsed < 300.0, elapsed


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path):
    """Running the same configuration twice through the CLI writes byte
    identical CSV outputs, both for the block-exchange pipeline and for
    the flood solver."""
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump({
        "preset": "sim1", "mesh_cells": 16, "n_steps": 40,
        "deltas": [0.1], "methods": ["nlin", "effective-I"]}))
    flood = tmp_path / "flood.yaml"
    flood.write_text(yaml.safe_dump({
        "nx": 8, "ny": 8, "n_steps": 40, "t_end_days": 2.0,
        "snapshot_days": [1.0]}))
    for verb, cfgfile in (("run", scen), ("effective-run", flood)):
        out_a = tmp_path / f"{verb}-a"
        out_b = tmp_path / f"{verb}-b"
        assert main([verb, str(cfgfile), "--outdir", str(out_a)]) == 0
        assert main([verb, str(cfgfile), "--outdir", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert filecmp.cmp(str(out_a / name), str(out_b / name),
                               shallow=False), (verb, name)
