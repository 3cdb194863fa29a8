"""Scenario presets, comparison driver, writers, and the CLI verbs.

Oracles used here:

  * trajectory formulas evaluated at hand-picked times (ramp plateau,
    sine extremes);
  * compare_series against hand-computed trapezoid integrals on a
    four-sample series;
  * CSV writers round-trip through their readers and are byte-stable
    across repeated writes;
  * the CLI verbs run end to end in-process on tiny configurations;
  * every name the package exports resolves on it.
"""
import dataclasses
import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import dualporo
from dualporo import harness as hz
from dualporo.cli import main
from dualporo.imbibition import ExchangeSeries

DAY = hz.DAY


# ----------------------------------------------------------------- presets

def test_preset_constants():
    sim1 = hz.get_preset("sim1")
    assert sim1.matrix_pr == 1.0e5
    assert sim1.matrix_n == 2.0
    assert sim1.matrix_porosity == 0.35
    assert sim1.matrix_permeability == 1.0e-13
    assert sim1.fracture_pr == 1.0e4
    assert sim1.fracture_porosity == 0.2
    assert sim1.mu_w == 1.0e-3
    assert sim1.mu_n == 2.0e-3
    assert sim1.dimension == 2
    assert sim1.deltas == (0.3, 0.2, 0.1, 0.05, 0.01, 0.001)
    assert sim1.t_end_days == 10.0
    assert sim1.trajectory == "ramp"
    assert sim1.trajectory_args == {"start": 0.05, "slope_per_day": 0.1,
                                    "cap": 0.9}
    assert hz.get_preset("strong-contrast").matrix_pr == 1.0e6
    assert hz.get_preset("equal-pc").fracture_pr == 1.0e5
    nonmono = hz.get_preset("nonmonotone")
    assert nonmono.trajectory == "sine"
    assert nonmono.trajectory_args == {"mean": 0.5, "amp": 0.5,
                                       "period_days": 10.0}
    assert hz.list_presets() == ["equal-pc", "nonmonotone", "sim1",
                                 "strong-contrast"]


def test_get_preset_unknown_name():
    with pytest.raises(ValueError, match="available"):
        hz.get_preset("bogus")


def test_ramp_trajectory_fills_then_plateaus():
    ramp = hz.make_trajectory("ramp", **{"start": 0.05, "slope_per_day": 0.1,
                                         "cap": 0.9})
    assert ramp(0.0) == pytest.approx(0.05)
    assert ramp(5.0 * DAY) == pytest.approx(0.55)
    assert ramp(9.0 * DAY) == pytest.approx(0.95)
    assert ramp(10.0 * DAY) == pytest.approx(0.95)


def test_sine_trajectory_reaches_both_extremes():
    sine = hz.make_trajectory("sine", **{"mean": 0.5, "amp": 0.5,
                                         "period_days": 10.0})
    assert sine(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sine(2.5 * DAY) == pytest.approx(1.0, abs=1e-12)
    assert sine(7.5 * DAY) == pytest.approx(0.0, abs=1e-12)


def test_step_trajectory_jumps_after_time_zero():
    step = hz.make_trajectory("step", s_before=0.1, s_after=0.8)
    assert step(0.0) == 0.1
    assert step(1.0) == 0.8


def test_unknown_trajectory_kind():
    with pytest.raises(ValueError):
        hz.make_trajectory("sawtooth")


# ------------------------------------------------------------------ config

def test_load_config_overrides_preset(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(yaml.safe_dump({
        "preset": "sim1", "dimension": 1, "deltas": [0.1, 0.01],
        "n_steps": 40, "mesh_cells": 24}))
    cfg = hz.load_config(str(path))
    assert cfg.name == "sim1"
    assert cfg.dimension == 1
    assert cfg.deltas == (0.1, 0.01)
    assert cfg.n_steps == 40
    assert cfg.mesh_cells == 24
    assert cfg.matrix_pr == 1.0e5          # untouched preset fields


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(yaml.safe_dump({"preset": "sim1", "viscosity": 3.0}))
    with pytest.raises(ValueError, match="unknown config keys"):
        hz.load_config(str(path))


def test_yaml_numbers_without_a_dot_load_as_floats(tmp_path):
    # YAML 1.1 reads 1e5 and 2e-6 as strings; the loader reads numbers as
    # YAML 1.2 does, and leaves integers and quoted strings as they are
    path = tmp_path / "scen.yaml"
    path.write_text("preset: sim1\nmatrix_pr: 1e5\nfracture_pr: 1.5E4\n"
                    "n_steps: 40\n")
    cfg = hz.load_config(str(path))
    assert cfg.matrix_pr == 1.0e+5 and cfg.fracture_pr == 1.5e4
    assert cfg.n_steps == 40
    flood = tmp_path / "flood.yaml"
    flood.write_text("inflow_rate: 2e-6\n")
    assert hz.load_flood_config(str(flood)).inflow_rate == 2.0e-6
    quoted = tmp_path / "quoted.yaml"
    quoted.write_text('preset: sim1\nt_end_days: "10"\n')
    with pytest.raises(ValueError,
                       match="^t_end_days must be a finite number, not '10'$"):
        hz.load_config(str(quoted))


def test_config_to_dict_is_yaml_friendly():
    d = hz.config_to_dict(hz.get_preset("sim1"))
    assert d["deltas"] == [0.3, 0.2, 0.1, 0.05, 0.01, 0.001]
    assert isinstance(d["methods"], list)
    assert yaml.safe_load(yaml.safe_dump(d)) == d


# ----------------------------------------------------------- method driver

def small_config(**kw):
    base = dict(n_steps=30, mesh_cells=16, deltas=(0.1,))
    base.update(kw)
    return dataclasses.replace(hz.get_preset("sim1"), **base)


def test_run_method_effective_matches_inline_composition():
    import dualporo.effective as eff
    cfg = small_config()
    series = hz.run_method(cfg, "effective-I")
    cset = cfg.cset()
    times = cfg.times()
    boundary = cfg.boundary()
    wall = cset.transfer(np.array([boundary(t) for t in times]))
    # one vectorized transfer: within one ulp of 1 of the scalar calls
    scalar = np.array([float(cset.transfer(boundary(t))) for t in times])
    assert np.abs(wall - scalar).max() <= np.spacing(1.0)
    c = 2.0 * cfg.dimension * np.sqrt(cset.matrix.porosity
                                      * cset.matrix.permeability
                                      * cset.alpha_bar() / np.pi)
    assert np.array_equal(series.values,
                          eff.exchange_fixed_kernel(wall, times, c))
    assert np.array_equal(series.times, hz.midpoints(times))
    assert series.delta == 0.0 and series.divided_by_delta


def test_kernel_constant_picks_the_models_prefactor():
    cset = hz.get_preset("sim1").cset()
    phi, k = cset.matrix.porosity, cset.matrix.permeability
    assert hz.kernel_constant("fixed", 2, cset) == \
        2.0 * 2 * np.sqrt(phi * k * cset.alpha_bar() / np.pi)
    for model in ("warped", "none"):
        assert hz.kernel_constant(model, 3, cset) == \
            2.0 * 3 * np.sqrt(phi * k / np.pi)


def test_run_method_block_methods_need_delta():
    with pytest.raises(ValueError, match="delta"):
        hz.run_method(small_config(), "nlin")


def test_run_comparison_key_layout():
    cfg = small_config(methods=("clin", "effective-I"), deltas=(0.1,))
    results = hz.run_comparison(cfg)
    assert set(results) == {("clin", 0.1), ("effective-I", 0.0)}
    assert results[("effective-I", 0.0)].divided_by_delta


def test_run_comparison_validation():
    # the scenario rejects what run_comparison could not run
    cfg = small_config()
    with pytest.raises(ValueError, match="no methods"):
        dataclasses.replace(cfg, methods=())
    with pytest.raises(ValueError, match="unknown methods"):
        dataclasses.replace(cfg, methods=("quadratic",))
    with pytest.raises(ValueError, match="delta"):
        dataclasses.replace(cfg, methods=("clin",), deltas=())
    effective_only = dataclasses.replace(cfg, methods=("effective-I",),
                                         deltas=())
    assert set(hz.run_comparison(effective_only)) == {("effective-I", 0.0)}


def test_package_exports_resolve():
    missing = [name for name in dualporo.__all__
               if not hasattr(dualporo, name)]
    assert missing == []
    assert len(set(dualporo.__all__)) == len(dualporo.__all__)


def test_import_loads_no_quadrature_interpolation_or_yaml():
    """import dualporo and building every preset's Kirchhoff tables, and a
    steep medium's, load numpy and scipy.sparse only."""
    code = (
        "import sys\n"
        "from dualporo import constitutive as con, harness as hz\n"
        "for name in hz.list_presets():\n"
        "    cset = hz.get_preset(name).cset()\n"
        "    for medium in (cset.matrix, cset.fracture):\n"
        "        con.kirchhoff_table(medium.vg, cset.fluids)\n"
        "con.KirchhoffTable(con.VanGenuchtenParams(p_r=1e7, n=1.15),\n"
        "                   con.FluidPair(mu_w=1e-3, mu_n=2e-3))\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.interpolate',"
        " 'scipy.special', 'scipy.optimize', 'yaml') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(dualporo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


# --------------------------------------------------------------- metrics

def series_of(values, times=None, method="nlin", delta=1.0):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return ExchangeSeries(np.asarray(times, dtype=float), values, method,
                          delta)


def test_compare_series_zero_for_identical_and_one_for_doubled():
    b = series_of([-1.0, -2.0, -3.0, -2.0])
    a2 = series_of([-2.0, -4.0, -6.0, -4.0])
    assert hz.compare_series(b, b) == (0.0, 0.0)
    assert hz.compare_series(a2, b) == pytest.approx((1.0, 1.0), rel=1e-14)


def test_compare_series_hand_computed_integral():
    b = series_of([1.0, 1.0, 1.0, 1.0])
    a = series_of([1.0, 2.0, 3.0, 4.0])
    # diff^2 = [0,1,4,9] on [0,3]: trapezoid 9.5 over denominator 3
    l2, sup = hz.compare_series(a, b)
    assert l2 == pytest.approx(np.sqrt(9.5 / 3.0), rel=1e-14)
    assert sup == pytest.approx(3.0, rel=1e-14)
    # window [1,3]: trapezoid of [1,4,9] is 9, denominator 2
    assert hz.compare_series(a, b, t_lo=1.0, t_hi=3.0)[0] \
        == pytest.approx(np.sqrt(9.0 / 2.0), rel=1e-14)


def test_compare_series_divides_block_series_by_delta():
    b = series_of([-1.0, -1.0, -1.0], delta=0.5)        # per delta: -2
    a = series_of([-1.0, -1.0, -1.0], delta=1.0)        # per delta: -1
    assert hz.compare_series(a, b)[1] == pytest.approx(0.5, rel=1e-14)


def test_compare_series_disjoint_windows_raise():
    a = series_of([1.0, 2.0], times=[0.0, 1.0])
    b = series_of([1.0, 2.0], times=[10.0, 11.0])
    with pytest.raises(ValueError, match="window"):
        hz.compare_series(a, b)


def test_compare_series_rejects_all_zero_reference():
    a = series_of([1.0, 2.0, 3.0])
    zero = series_of([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero"):
        hz.compare_series(a, zero)


def test_comparison_rows_families():
    times = np.linspace(0.5, 9.5, 19) * DAY
    results = {
        ("nlin", 0.1): series_of(np.full(19, -2.0), times, "nlin", 0.1),
        ("clin", 0.1): series_of(np.full(19, -1.0), times, "clin", 0.1),
        ("nlin", 0.01): series_of(np.full(19, -4.0), times, "nlin", 0.01),
        ("clin", 0.01): series_of(np.full(19, -3.0), times, "clin", 0.01),
        ("effective-I", 0.0): ExchangeSeries(
            times, np.full(19, -2.5), "effective-I", 0.0,
            divided_by_delta=True),
    }
    rows = hz.comparison_rows(results, times[0], times[-1])
    # 2 same-delta pairs + 4 against the effective source + 2 sweep pairs,
    # each in two norms
    assert len(rows) == 16
    vs_nlin = [r for r in rows
               if r["reference"] == "nlin" and r["method"] != "nlin"]
    assert {(r["method"], r["delta"]) for r in vs_nlin} \
        == {("clin", 0.1), ("clin", 0.01)}
    row = next(r for r in vs_nlin if r["delta"] == 0.1 and r["norm"] == "sup")
    assert row["value"] == pytest.approx(0.5, rel=1e-14)   # |-10+20|/20
    sweep = [r for r in rows if r["method"] == r["reference"]]
    assert {(r["method"], r["delta"], r["ref_delta"]) for r in sweep} \
        == {("nlin", 0.1, 0.01), ("clin", 0.1, 0.01)}


# ----------------------------------------------------------------- writers

def test_exchange_csv_round_trip_and_byte_stability(tmp_path):
    rng = np.random.default_rng(17)
    times = np.linspace(0.3, 9.7, 12) * DAY
    s1 = series_of(-rng.uniform(0.1, 1.0, 12), times, "nlin", 0.1)
    s2 = ExchangeSeries(times, -rng.uniform(0.1, 1.0, 12), "effective-I",
                        0.0, divided_by_delta=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    hz.write_exchange_csv(str(p1), [s1, s2])
    hz.write_exchange_csv(str(p2), [s1, s2])
    assert filecmp.cmp(str(p1), str(p2), shallow=False)

    back = hz.read_exchange_csv(str(p1))
    assert [(s.method, s.delta) for s in back] \
        == [("nlin", 0.1), ("effective-I", 0.0)]
    assert np.array_equal(back[0].values, s1.per_delta().values)
    assert np.allclose(back[0].times, times, rtol=1e-14)
    assert back[0].divided_by_delta


def test_read_exchange_csv_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("time,stuff\n0,1\n")
    with pytest.raises(ValueError, match="not an exchange CSV"):
        hz.read_exchange_csv(str(path))


@pytest.mark.parametrize("row, reason", [
    ("0.5,-1.0,nlin", "not enough values to unpack"),
    ("0.5,abc,nlin,0.1", "could not convert string to float: 'abc'"),
    ("0.5,nan,nlin,0.1", "time and value must be finite"),
    ("inf,-1.0,nlin,0.1", "time and value must be finite"),
    ("0.25,-2.0,nlin,0.1",
     "time does not increase within the nlin, delta 0.1 series"),
    ("0.1,-1.0,nlin,0.1",
     "time does not increase within the nlin, delta 0.1 series"),
], ids=["short-row", "bad-number", "nan-value", "infinite-time",
        "duplicated-row", "reversed-rows"])
def test_read_exchange_csv_names_the_malformed_line(tmp_path, capsys, row,
                                                    reason):
    path = tmp_path / "series.csv"
    path.write_text(",".join(hz.EXCHANGE_HEADER) + "\n0.25,-2.0,nlin,0.1\n"
                    + row + "\n")
    with pytest.raises(ValueError) as info:
        hz.read_exchange_csv(str(path))
    assert str(info.value).startswith(f"{path}, line 3: {reason}")
    # compare reports it as its one error line
    assert main(["compare", str(path), str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"dualporo: {info.value}\n"


def test_manifest_echoes_configuration(tmp_path):
    path = tmp_path / "manifest.yaml"
    hz.write_manifest(str(path), hz.config_to_dict(hz.get_preset("sim1")),
                      ["b.csv", "a.csv"])
    with open(path) as fh:
        data = yaml.safe_load(fh)
    assert data["outputs"] == ["a.csv", "b.csv"]
    cfg = data["config"]
    assert cfg["matrix_pr"] == 100000.0
    assert cfg["fracture_pr"] == 10000.0
    assert cfg["mu_w"] == 0.001
    assert cfg["mu_n"] == 0.002
    assert cfg["matrix_porosity"] == 0.35
    assert cfg["t_end_days"] == 10.0
    assert cfg["trajectory_args"] == {"start": 0.05, "slope_per_day": 0.1,
                                      "cap": 0.9}


# ------------------------------------------------------------------- flood

def test_load_flood_config(tmp_path):
    path = tmp_path / "flood.yaml"
    path.write_text(yaml.safe_dump({"nx": 8, "ny": 4,
                                    "snapshot_days": [1.0, 2.0],
                                    "t_end_days": 2.0, "n_steps": 10}))
    cfg = hz.load_flood_config(str(path))
    assert cfg.nx == 8 and cfg.ny == 4
    assert cfg.snapshot_days == (1.0, 2.0)
    assert cfg.scenario == "sim1"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"viscosity": 1.0}))
    with pytest.raises(ValueError, match="unknown flood config keys"):
        hz.load_flood_config(str(bad))


@pytest.mark.parametrize("key, message", [
    ("scenario", "unknown preset 'bogus'; available: "),
    ("source_model", "unknown source model 'bogus'"),
])
def test_flood_config_names_fail_at_load(tmp_path, capsys, key, message):
    # both names used to pass the loader and fail only in build_flood
    cfgfile = tmp_path / "flood.yaml"
    cfgfile.write_text(yaml.safe_dump({key: "bogus"}))
    with pytest.raises(ValueError, match=f"^{message}"):
        hz.load_flood_config(str(cfgfile))
    with pytest.raises(ValueError, match=f"^{message}"):
        hz.FloodConfig(**{key: "bogus"})
    outdir = tmp_path / "out"
    assert main(["effective-run", str(cfgfile), "--outdir",
                 str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dualporo: {message}")
    assert err.count("\n") == 1
    assert not outdir.exists()


def test_build_flood_filters_and_completes_snapshots():
    cfg = hz.FloodConfig(t_end_days=5.0, snapshot_days=(2.5, 5.0, 10.0))
    _, times, snaps = hz.build_flood(cfg)
    assert snaps == (2.5 * DAY, 5.0 * DAY)
    assert times[-1] == pytest.approx(5.0 * DAY)
    cfg2 = hz.FloodConfig(t_end_days=5.0, snapshot_days=(2.0,))
    _, _, snaps2 = hz.build_flood(cfg2)
    assert snaps2 == (2.0 * DAY, 5.0 * DAY)


def test_run_flood_small_case_balances():
    cfg = hz.FloodConfig(nx=6, ny=4, n_steps=8, t_end_days=2.0,
                         snapshot_days=(1.0,))
    res = hz.run_flood(cfg)
    dw, dv = res.max_defects()
    assert dw <= 1e-10 and dv <= 1e-12
    assert set(res.snapshots) == {1.0 * DAY, 2.0 * DAY}


def test_snapshots_are_keyed_by_the_report_time_they_hold(tmp_path):
    # 7 steps over 10 days: the requested days 2.5 and 5 are taken at the
    # report times 20/7 and 40/7 days, which key and name the fields
    res = hz.run_flood(hz.FloodConfig(nx=4, ny=4, n_steps=7))
    assert sorted(res.snapshots) == [res.times[2], res.times[4],
                                     res.times[7]]
    for t, (s, _, _) in res.snapshots.items():
        k = list(res.times_hist).index(t)
        assert np.array_equal(s, res.saturation_history[k])
    outdir = tmp_path / "out"
    assert main(["effective-run", "--nx", "4", "--ny", "4", "--steps", "7",
                 "--outdir", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.glob("fields_day*.csv")) == [
        "fields_day10.csv", "fields_day2.85714.csv", "fields_day5.71429.csv"]


# --------------------------------------------------------------------- CLI

def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("sim1", "strong-contrast", "equal-pc", "nonmonotone"):
        assert name in out


def test_cli_run_writes_series_report_manifest(tmp_path, capsys):
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump({
        "preset": "sim1", "mesh_cells": 16, "n_steps": 30,
        "deltas": [0.1], "methods": ["nlin", "clin", "effective-I"]}))
    outdir = tmp_path / "out"
    assert main(["run", str(scen), "--outdir", str(outdir)]) == 0
    for fname in ("exchange_nlin_delta0.1.csv", "exchange_clin_delta0.1.csv",
                  "exchange_effective-I.csv", "report.csv", "manifest.yaml"):
        assert (outdir / fname).exists(), fname
    with open(outdir / "manifest.yaml") as fh:
        manifest = yaml.safe_load(fh)
    assert "report.csv" in manifest["outputs"]
    assert manifest["config"]["mesh_cells"] == 16
    assert "3 series" in capsys.readouterr().out


def test_cli_run_checks_the_report_window_before_solving(tmp_path, capsys,
                                                        monkeypatch):
    # no report midpoint of a 0.5-day run lies in the window [0.5 d,
    # t_end]: the run fails before any series is solved; a report with
    # no pair needs no window and is written empty
    def no_solve(*args):
        raise AssertionError("a series was solved")

    monkeypatch.setattr(hz, "run_method", no_solve)
    cfgfile = tmp_path / "config.yaml"
    cfgfile.write_text(yaml.safe_dump({"preset": "sim1", "t_end_days": 0.5}))
    outdir = tmp_path / "out"
    assert main(["run", str(cfgfile), "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err \
        == "dualporo: comparison window holds fewer than two samples\n"
    assert not outdir.exists()

    monkeypatch.undo()
    cfgfile.write_text(yaml.safe_dump({"preset": "sim1", "t_end_days": 0.4}))
    assert main(["run", str(cfgfile), "--methods", "clin", "--deltas", "0.1",
                 "--steps", "4", "--outdir", str(outdir)]) == 0
    assert (outdir / "report.csv").read_text().count("\n") == 1


def test_cli_compare_file_with_itself(tmp_path, capsys):
    path = tmp_path / "one.csv"
    times = np.linspace(0.5, 9.5, 10) * DAY
    hz.write_exchange_csv(str(path),
                          [series_of(-np.arange(1.0, 11.0), times,
                                     "clin", 0.1)])
    assert main(["compare", str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "rel_l2 0.0" in out
    assert "sup 0.0" in out


def test_cli_effective_run(tmp_path, capsys):
    cfgfile = tmp_path / "flood.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "nx": 6, "ny": 4, "n_steps": 8, "t_end_days": 2.0,
        "snapshot_days": [1.0]}))
    outdir = tmp_path / "out"
    assert main(["effective-run", str(cfgfile),
                 "--outdir", str(outdir)]) == 0
    assert (outdir / "mass_balance.csv").exists()
    assert (outdir / "fields_day1.csv").exists()
    assert (outdir / "fields_day2.csv").exists()
    assert (outdir / "manifest.yaml").exists()
    assert "0 clamped steps" in capsys.readouterr().out
    with open(outdir / "fields_day1.csv") as fh:
        header = fh.readline().strip()
        n_rows = sum(1 for _ in fh)
    assert header == "cell,x,y,saturation,pressure_w,pressure_n"
    assert n_rows == 24


def test_cli_error_paths_exit_nonzero(tmp_path, capsys):
    assert main(["run", "no-such-preset"]) == 1
    assert "dualporo:" in capsys.readouterr().err
    junk = tmp_path / "junk.csv"
    junk.write_text("nope\n")
    assert main(["compare", str(junk), str(junk)]) == 1
    assert "dualporo:" in capsys.readouterr().err
    # an empty config path is a given path, not the default flood
    outdir = tmp_path / "out"
    assert main(["effective-run", "", "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dualporo: ")
    assert err.count("\n") == 1
    assert not outdir.exists()
    # an inflow this strong stalls Newton at every halving of the first
    # report interval; the failed flood leaves no outdir either
    assert main(["effective-run", "--nx", "4", "--ny", "4", "--steps", "2",
                 "--rate", "1000", "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dualporo: Newton stalled: 3 corrections ")
    assert err.count("\n") == 1
    assert not outdir.exists()
    # a flag is checked where its YAML key is: the source model in
    # FloodConfig, by SourceSpec's check
    assert main(["effective-run", "--nx", "4", "--ny", "4", "--steps", "2",
                 "--source", "bogus", "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err == ("dualporo: unknown source model "
                                       "'bogus'\n")
    assert not outdir.exists()


@pytest.mark.parametrize("verb, flags, config", [
    ("run", ["sim1", "--steps", "4", "--mesh-cells", "8", "--deltas", "0.1",
             "--methods", "nlin,clin"],
     {"preset": "sim1", "n_steps": 4, "mesh_cells": 8, "deltas": [0.1],
      "methods": ["nlin", "clin"]}),
    ("effective-run", ["--nx", "4", "--ny", "4", "--steps", "2",
                       "--source", "warped"],
     {"nx": 4, "ny": 4, "n_steps": 2, "source_model": "warped"}),
], ids=["run", "effective-run"])
def test_cli_flags_and_yaml_keys_write_the_same_files(tmp_path, verb, flags,
                                                      config):
    cfgfile = tmp_path / "config.yaml"
    cfgfile.write_text(yaml.safe_dump(config))
    by_flags, by_yaml = tmp_path / "flags", tmp_path / "yaml"
    assert main([verb] + flags + ["--outdir", str(by_flags)]) == 0
    assert main([verb, str(cfgfile), "--outdir", str(by_yaml)]) == 0
    names = sorted(os.listdir(by_flags))
    assert "manifest.yaml" in names
    assert sorted(os.listdir(by_yaml)) == names
    for name in names:
        assert (by_flags / name).read_bytes() == \
            (by_yaml / name).read_bytes(), name


@pytest.mark.parametrize("verb, config", [
    ("effective-run", {"nx": 4, "ny": 4, "n_steps": 2,
                       "source_model": "bogus"}),
    ("run", {"preset": "nosuch"}),
    ("run", {"preset": "sim1", "matrix_permeability": float("nan"),
             "methods": ["effective-I"]}),
    ("run", ["sim1"]),
    ("run", {"preset": "sim1", "deltas": "0.1"}),
    ("run", {"preset": "sim1", "trajectory_args": {"slope": 5.0}}),
    ("effective-run", {"nx": "12"}),
    ("run", {"preset": "sim1", "methods": ["nlin", "bogus"]}),
    ("run", {"preset": "sim1", "methods": []}),
    ("run", {"preset": "nonmonotone", "trajectory_args": {"period_days": 0.0},
             "methods": ["effective-I"], "n_steps": 4}),
    ("run", {"preset": "sim1", "matrix_n": 1.01}),
], ids=["bogus-source-model", "unknown-preset", "nan-permeability",
        "list-document", "string-deltas", "unknown-trajectory-arg",
        "string-cell-count", "unknown-method", "empty-methods",
        "zero-sine-period", "overflowing-matrix-n"])
def test_cli_config_errors_exit_with_one_line(tmp_path, capsys, verb,
                                              config):
    cfgfile = tmp_path / "config.yaml"
    cfgfile.write_text(yaml.safe_dump(config))
    outdir = tmp_path / "out"
    assert main([verb, str(cfgfile), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dualporo: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("args, field", [
    (["--deltas", "1.5"], "deltas"),
    (["--mesh-cells", "7"], "mesh_cells"),
    ({"preset": "sim1", "mesh_cells": 2}, "mesh_cells"),
    ({"preset": "sim1", "dimension": 4}, "dimension"),
    (["--steps", "0"], "n_steps"),
    (["--mesh-cells", "0"], "mesh_cells"),
    ({"preset": "sim1", "n_steps": 0}, "n_steps"),
    ({"preset": "sim1", "t_end_days": 0.0}, "t_end_days"),
], ids=["delta-above-one", "odd-mesh-cells", "yaml-two-mesh-cells",
        "yaml-four-dimensions", "zero-steps", "zero-mesh-cells",
        "yaml-zero-steps", "yaml-zero-horizon"])
def test_cli_block_sizes_fail_at_load(tmp_path, capsys, args, field):
    # an effective-only run never builds a block, so only the config
    # layer can reject these block sizes, dimensions and time grids; a
    # zero override is a given value, not an absent one
    if isinstance(args, dict):
        cfgfile = tmp_path / "config.yaml"
        cfgfile.write_text(yaml.safe_dump(args))
        args = [str(cfgfile)]
    else:
        args = ["sim1"] + args
    outdir = tmp_path / "out"
    assert main(["run"] + args + ["--methods", "effective-I",
                                  "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dualporo: {field} must ")
    assert err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("flag, value", [
    ("--methods", "nlin,bogus"),
    ("--deltas", "1.5"),
    ("--mesh-cells", "7"),
    ("--methods", ""),
    ("--deltas", ""),
    ("--methods", "nlin,nlin"),
    ("--deltas", "0.1,0.1"),
], ids=["unknown-method", "delta-above-one", "odd-mesh-cells",
        "empty-methods", "empty-deltas", "repeated-methods",
        "repeated-deltas"])
def test_cli_run_override_errors_leave_no_outdir(tmp_path, capsys, flag,
                                                 value):
    outdir = tmp_path / "out"
    assert main(["run", "sim1", flag, value, "--steps", "4",
                 "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dualporo: ")
    assert err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("args", [
    ["sim1", "--steps", "1", "--mesh-cells", "8", "--deltas", "0.1"],
    {"preset": "nonmonotone", "trajectory_args": {"amp": 0.0},
     "n_steps": 4, "mesh_cells": 8, "deltas": [0.1]},
], ids=["one-step-window", "flat-drive"])
def test_cli_run_report_errors_leave_no_outdir(tmp_path, capsys, args):
    # one step leaves one sample in the window, which fails before any
    # series is solved; a flat drive fails on its zero reference in the
    # report, after every series is computed
    if isinstance(args, dict):
        cfgfile = tmp_path / "config.yaml"
        cfgfile.write_text(yaml.safe_dump(args))
        args = [str(cfgfile)]
    outdir = tmp_path / "out"
    assert main(["run"] + args + ["--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dualporo: ")
    assert err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("args, field", [
    (["--ny", "1"], "ny"),
    (["--rate", "nan"], "inflow_rate"),
    (["--steps", "0"], "n_steps"),
    ({"ny": 1}, "ny"),
    ({"nx": 4, "ny": 4, "n_steps": 4, "t_end_days": 2.0,
      "snapshot_days": [-1.0, 0.0]}, "snapshot_days"),
    ({"s_init": 1.5}, "s_init"),
    ({"s_init": 0.0}, "s_init"),
    ({"s_init": 1.0}, "s_init"),
    ({"s_init": 5e-9}, "s_init"),
    ({"nx": 4, "ny": 4, "n_steps": 2, "s_init": 0.99999999}, "s_init"),
    ({"outlet_saturation": 1.2}, "outlet_saturation"),
    ({"outlet_saturation": -0.1}, "outlet_saturation"),
    ({"lx": 0.0}, "lx"),
], ids=["one-row", "nan-rate", "zero-steps", "yaml-one-row",
        "yaml-nonpositive-snapshots", "yaml-s-init-above-one",
        "yaml-s-init-zero", "yaml-s-init-one", "yaml-s-init-below-clamp",
        "yaml-s-init-top-of-clamp", "yaml-outlet-above-one",
        "yaml-outlet-negative", "yaml-zero-length"])
def test_cli_flood_config_fails_at_load(tmp_path, capsys, args, field):
    # a one-row flood has k* = 0 and a NaN rate passes the CLI's float
    # parsing; both used to fail only inside the Newton solve, as an
    # initial saturation outside the clamp did, and an outlet saturation
    # above one was clipped silently; a flood that starts on the top of
    # the clamp clamps every step (32 of 32 for this 4x4 flood)
    if isinstance(args, dict):
        cfgfile = tmp_path / "flood.yaml"
        cfgfile.write_text(yaml.safe_dump(args))
        args = [str(cfgfile)]
    outdir = tmp_path / "out"
    assert main(["effective-run"] + args + ["--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dualporo: {field} must ")
    assert err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("key, value", [
    ("s_init", 1e-8), ("s_init", 0.999999989),
    ("outlet_saturation", 0.0), ("outlet_saturation", 1.0),
])
def test_flood_config_accepts_saturation_limits(tmp_path, key, value):
    cfgfile = tmp_path / "flood.yaml"
    cfgfile.write_text(yaml.safe_dump({key: value}))
    assert getattr(hz.load_flood_config(str(cfgfile)), key) == value
