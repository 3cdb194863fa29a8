"""Command line driver for scenario runs and effective-system floods.

Verbs:
  list-presets           show the scenario presets
  run TARGET             evaluate the method x delta matrix of a preset or
                         YAML config; one exchange CSV per cell, a metric
                         report, and a run manifest
  compare CSV_A CSV_B    relative L2 and sup distance between two exchange
                         series files (A measured against reference B)
  effective-run [CONFIG] water flood of the effective fracture system with
                         the convolution source; field snapshots and a
                         mass-balance log

A flag sets the config field named by its dest: harness.load_config and
harness.load_flood_config merge the flags given over the preset, the YAML
file or the defaults, so a flag is checked as its YAML key is.  Outputs
are deterministic: rerunning a verb with the same inputs yields
byte-identical files.  A flood's field snapshot is named after the report
time it holds.  Exit status is nonzero on validation or solver failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import harness as hz


def _parse_names(text: str) -> list:
    return [x.strip() for x in text.split(",") if x.strip()]


def _parse_floats(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _flags(args, *keys) -> dict:
    """The given flags among keys, as config entries for the loader;
    --methods and --deltas are split into lists."""
    split = {"methods": _parse_names, "deltas": _parse_floats}
    return {key: split.get(key, lambda v: v)(getattr(args, key))
            for key in keys if getattr(args, key) is not None}


def _series_filename(method: str, delta: float) -> str:
    if delta == 0.0:
        return f"exchange_{method}.csv"
    return f"exchange_{method}_delta{delta:g}.csv"


def cmd_list_presets(args) -> int:
    for name in hz.list_presets():
        cfg = hz.PRESETS[name]
        print(f"{name}: d={cfg.dimension}, trajectory={cfg.trajectory}, "
              f"horizon={cfg.t_end_days:g} days, "
              f"deltas={[float(d) for d in cfg.deltas]}")
    return 0


def cmd_run(args) -> int:
    cfg = hz.load_config(args.target, **_flags(
        args, "methods", "deltas", "mesh_cells", "n_steps"))
    t_lo, t_hi = 0.5 * hz.DAY, cfg.t_end_days * hz.DAY
    hz.check_report_window(cfg, t_lo, t_hi)
    results = hz.run_comparison(cfg)
    # a report that cannot be computed fails before the outdir exists
    rows = hz.comparison_rows(results, t_lo, t_hi)
    os.makedirs(args.outdir, exist_ok=True)
    outputs = []
    for key in sorted(results):
        fname = _series_filename(*key)
        hz.write_exchange_csv(os.path.join(args.outdir, fname),
                              [results[key]])
        outputs.append(fname)
    hz.write_comparison_csv(os.path.join(args.outdir, "report.csv"), rows)
    outputs.append("report.csv")
    hz.write_manifest(os.path.join(args.outdir, "manifest.yaml"),
                      hz.config_to_dict(cfg), outputs)
    print(f"{cfg.name}: {len(results)} series, {len(rows)} metric rows "
          f"-> {args.outdir}")
    return 0


def cmd_compare(args) -> int:
    sa = hz.read_exchange_csv(args.csv_a)
    sb = hz.read_exchange_csv(args.csv_b)
    if len(sa) != 1 or len(sb) != 1:
        raise ValueError("each file must hold exactly one series; found "
                         f"{len(sa)} in {args.csv_a} and {len(sb)} in "
                         f"{args.csv_b}")
    t_lo = None if args.t_lo is None else args.t_lo * hz.DAY
    t_hi = None if args.t_hi is None else args.t_hi * hz.DAY
    l2, sup = hz.compare_series(sa[0], sb[0], t_lo, t_hi)
    print(f"rel_l2 {l2!r}")
    print(f"sup {sup!r}")
    return 0


def cmd_effective_run(args) -> int:
    cfg = hz.load_flood_config(args.config, **_flags(
        args, "scenario", "source_model", "nx", "ny", "inflow_rate",
        "t_end_days", "n_steps"))
    solver, times, snaps = hz.build_flood(cfg)
    # a flood that fails fails before the outdir exists
    result = solver.run(cfg.s_init, cfg.pn_init, times, snapshot_times=snaps)
    os.makedirs(args.outdir, exist_ok=True)
    outputs = []
    for t, (s, pw, pn) in sorted(result.snapshots.items()):
        fname = f"fields_day{t / hz.DAY:g}.csv"
        hz.write_field_csv(os.path.join(args.outdir, fname), solver.grid,
                           s, pw, pn)
        outputs.append(fname)
    hz.write_mass_balance_csv(os.path.join(args.outdir, "mass_balance.csv"),
                              result.steps)
    outputs.append("mass_balance.csv")
    hz.write_manifest(os.path.join(args.outdir, "manifest.yaml"),
                      hz.config_to_dict(cfg), outputs)
    wd, vd = result.max_defects()
    clamps = sum(st.clamped for st in result.steps)
    print(f"{cfg.nx}x{cfg.ny} {cfg.scenario} flood, {len(result.steps)} "
          f"steps: water defect {wd:.3e}, volume defect {vd:.3e} "
          f"(per pore volume), {clamps} clamped steps -> {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualporo",
        description="Matrix-fracture exchange toolkit for double-porosity "
                    "two-phase flow")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list-presets", help="show scenario presets")

    run = sub.add_parser("run", help="run the method x delta matrix of a "
                                     "scenario")
    run.add_argument("target", help="preset name or YAML config path")
    run.add_argument("--methods", help="comma list, e.g. nlin,clin,vlin")
    run.add_argument("--deltas", help="comma list of block deltas")
    run.add_argument("--mesh-cells", type=int, dest="mesh_cells",
                     help="block mesh cells override")
    run.add_argument("--steps", type=int, dest="n_steps",
                     help="time steps override")
    run.add_argument("--outdir", default="out", help="output directory")

    cmp_ = sub.add_parser("compare", help="distance between two exchange "
                                          "CSV files")
    cmp_.add_argument("csv_a", help="series to measure")
    cmp_.add_argument("csv_b", help="reference series")
    cmp_.add_argument("--t-lo", type=float, dest="t_lo",
                      help="window start [days]")
    cmp_.add_argument("--t-hi", type=float, dest="t_hi",
                      help="window end [days]")

    eff = sub.add_parser("effective-run", help="effective fracture-system "
                                               "water flood")
    eff.add_argument("config", nargs="?", help="YAML flood config path")
    eff.add_argument("--scenario", help="media preset name")
    eff.add_argument("--source", dest="source_model",
                     help="matrix source model: fixed, warped or none")
    eff.add_argument("--nx", type=int, help="cells in x")
    eff.add_argument("--ny", type=int, help="cells in y")
    eff.add_argument("--rate", type=float, dest="inflow_rate",
                     help="inflow rate [m/s]")
    eff.add_argument("--days", type=float, dest="t_end_days",
                     help="horizon [days]")
    eff.add_argument("--steps", type=int, dest="n_steps",
                     help="number of time steps")
    eff.add_argument("--outdir", default="out", help="output directory")
    return parser


_COMMANDS = {
    "list-presets": cmd_list_presets,
    "run": cmd_run,
    "compare": cmd_compare,
    "effective-run": cmd_effective_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"dualporo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
