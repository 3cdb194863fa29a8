"""dualporo benchmark: three workloads through the public harness API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Each repetition runs in a fresh process (child.py), one after another,
until --seconds have been measured; set-up (import, configuration,
Kirchhoff table, build_flood or the first block mesh) is therefore paid
and timed in every repetition.  With --trace 0 the last line of output
holds the end-to-end metrics (medians over repetitions, times divided
by the host-speed probe, see END_TO_END); with --trace 1
repetitions alternate traced and untraced, and the last line holds the
per-layer metrics of the traced ones plus the tracing overhead.  The
lines before it give the host record, each metric's median, tail and
sample count, the failed fraction of operations and, when traced, the
self-time split.

Other modes:
    --self-test       check the checker and the failure accounting
    --write-refs      regenerate refs/*.npz for the published seeds
    --baseline-check  traced counts of the 48^2 x 160-step block runs
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402

# (name, unit) of the per-repetition measurements, printed as measured:
# median, tail and sample count.
MEASURED = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
            ("peak_rss_mib", "MiB"))
# (name, unit) of the end-to-end metrics of the result line.  Host speed
# on a shared machine drifts by 20-50% over minutes and moves every
# repetition of a run alike, so the three times are divided by the run's
# median host-speed probe (child.probe_ms, which does not use dualporo)
# and given in seconds on a host whose probe takes PROBE_REF_MS.
# peak_rss_mib is the median as measured.
END_TO_END = (("wall_norm_s", "s"), ("cpu_norm_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
NORMALIZED = {"wall_norm_s": "wall_s", "cpu_norm_s": "cpu_s",
              "setup_s": "setup_s"}
PROBE_REF_MS = 50.0

THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_LIMIT = 150.0   # seconds; no repetition starts that could end past this
DEADLINE = 170.0    # seconds; a repetition still running then is killed
OUT_DIR = HERE / "out"


def program_present() -> bool:
    return (ROOT / "src" / "dualporo" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload: str, seed: int, traced: bool,
              timeout: float) -> dict:
    """One repetition; a crash or timeout returns {"crashed": reason}."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT_DIR / f"spans-{workload}.jsonl")]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s",
                "duration": time.monotonic() - t_spawn}
    duration = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crashed": f"exit {proc.returncode}: {tail}",
                "duration": duration}
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - t_spawn
    out["duration"] = duration
    out["traced"] = traced
    return out


def highest_tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, or why
    there is none."""
    n = len(values)
    if n <= 20:
        return f"none (n={n}; a tail above the median needs > 20 samples)"
    q = 1.0 - 10.0 / n
    return f"p{100 * q:.3g} {tr.quantile(values, q):.6g}"


def host_record(reps: list) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probes = [r["probe_ms"] for r in reps]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "thread_pins": THREAD_PINS,
        "probe": "child.probe_ms, after each solve",
        "probe_ms_median": statistics.median(probes),
        "probe_ms_min": min(probes), "probe_ms_max": max(probes),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions, one at a time, until `seconds` are measured; a traced
    run alternates traced and untraced repetitions."""
    min_reps = 4 if trace else 3
    reps: list = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 0
        reps.append(run_child(workload, seed, traced, DEADLINE
                              - (time.monotonic() - start)))
        elapsed = time.monotonic() - start
        per = statistics.median(r["duration"] for r in reps)
        if elapsed + per > RUN_LIMIT:
            break
        # the next repetition would end past `seconds` by more than half
        if len(reps) >= min_reps and elapsed + per / 2 > seconds:
            break
    return reps


def report(workload: str, seed: int, trace: bool, reps: list) -> int:
    ok = [r for r in reps if "crashed" not in r]
    attempted = wl.operations(workload) * len(reps)
    failed = sum(r["failed"] for r in ok) \
        + wl.operations(workload) * (len(reps) - len(ok))
    problems = [p for r in ok for p in r["problems"]] + \
        [f"repetition crashed: {r['crashed']}" for r in reps
         if "crashed" in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (trace and not traced):
        print(f"error: no repetition of {workload} completed: "
              f"{problems[:3]}", file=sys.stderr)
        return 1

    print("host " + json.dumps(host_record(ok)))
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)} "
          f"({len(traced)} traced)")
    for name, unit in MEASURED:
        values = [r[name] for r in untraced]
        print(f"  measured {name:<13} median "
              f"{statistics.median(values):.6g} {unit}"
              f"  tail {highest_tail(values)}  n={len(values)}"
              f"  min {min(values):.6g}  max {max(values):.6g}")
    print(f"  result   {'fail_frac':<13} {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations)")
    for problem in problems[:10]:
        print(f"  problem: {problem}")

    if trace:
        metrics = tr.median_metrics([r["layers"] for r in traced])
        metrics["trace.wall_s"] = statistics.median(
            r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - \
            statistics.median(r["wall_s"] for r in untraced)
        print("  self time, largest first:")
        for stem, value in tr.self_time_ranking(metrics)[:8]:
            print(f"    {stem:<32} {value:.4f} s")
        units = {name: unit for name, unit, _ in tr.LAYER_METRICS}
    else:
        measured = {name: statistics.median(r[name] for r in untraced)
                    for name, _ in MEASURED}
        probe = statistics.median(r["probe_ms"] for r in untraced)
        metrics = {"peak_rss_mib": measured["peak_rss_mib"]}
        for name, raw in NORMALIZED.items():
            metrics[name] = measured[raw] * PROBE_REF_MS / probe
            print(f"  result   {name:<13} {metrics[name]:.6g} s  (median "
                  f"{raw} x {PROBE_REF_MS:g} ms / median probe "
                  f"{probe:.4g} ms)")
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


# ---------------------------------------------------------------------------
# modes that import the program in this process

def write_refs() -> int:
    """Reference outputs of every published seed, from the program as it
    stands; run only on the commit whose outputs are the reference."""
    import numpy as np

    import checks

    child.import_program()
    for name, spec in wl.WORKLOADS.items():
        arrays = {}
        for seed in sorted(wl.PUBLISHED_SEEDS):
            cfgs = wl.configs(name, seed)
            for cfg, result in wl.solve(name, cfgs):
                if isinstance(result, Exception):
                    raise result
                outputs = (checks.flood_outputs(result)
                           if spec["kind"] == "flood"
                           else checks.comparison_outputs(cfg, result))
                arrays.update({f"{seed}:{k}": np.asarray(v)
                               for k, v in outputs.items()})
            print(f"{name} seed {seed}: done", flush=True)
        (HERE / "refs").mkdir(exist_ok=True)
        np.savez_compressed(HERE / "refs" / f"{name}.npz", **arrays)
    return 0


def self_test() -> int:
    """The checker rejects what it must, and failures reach fail_frac."""
    import checks

    child.import_program()
    from dualporo import fvsolver as fv
    from dualporo.imbibition import NewtonFailure

    results = []

    def expect(label, cond):
        results.append(bool(cond))
        print(f"{'PASS' if cond else 'FAIL'}  {label}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect("BENCHMARK.json workloads match workloads.json",
           [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS))
    expect("BENCHMARK.json end_to_end matches run.py",
           [(m["name"], m["unit"]) for m in bench["end_to_end"]]
           == list(END_TO_END))
    expect("BENCHMARK.json per_layer matches spans.py",
           [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(tr.LAYER_METRICS))

    seed = min(wl.PUBLISHED_SEEDS)

    def run(name):
        cfgs = wl.configs(name, seed)
        solved = wl.solve(name, cfgs)
        refs = child.load_refs(name, seed)
        kind = wl.WORKLOADS[name]["kind"]
        return cfgs, solved, refs, kind

    def tally(name, kind, cfgs, solved, refs):
        return checks.account(kind, len(cfgs), wl.operations(name), solved,
                              refs, wl.RTOL)

    name = "block-exchange"
    cfgs, solved, refs, kind = run(name)
    expect(f"{name} seed {seed} passes every check",
           tally(name, kind, cfgs, solved, refs).failed == 0)
    cfg, res = solved[0]
    key = ("nlin", cfg.deltas[0])
    bumped = dict(res)
    bumped[key] = dataclasses.replace(
        res[key], values=res[key].values * (1.0 + 1e-5))
    t = tally(name, kind, cfgs, [(cfg, bumped)] + solved[1:], refs)
    expect("an exchange series perturbed by a relative 1e-5 is rejected",
           t.failed == 1)

    name = "flood-long-history"
    cfgs, solved, refs, kind = run(name)
    expect(f"{name} seed {seed} passes every check",
           tally(name, kind, cfgs, solved, refs).failed == 0)
    cfg, res = solved[0]
    hist = res.saturation_history.copy()
    hist[-1, 0] = 1.0
    moved = dataclasses.replace(res, saturation_history=hist)
    t = tally(name, kind, cfgs, [(cfg, moved)], None)
    expect("a flood field with one cell out of bounds is rejected",
           t.failed >= 1)

    def newton_failure(self, state, dt):
        raise NewtonFailure("forced by the benchmark self-test")

    orig = fv.FractureFlowSolver._try_step
    fv.FractureFlowSolver._try_step = newton_failure
    try:
        cfgs, solved, refs, kind = run(name)
    finally:
        fv.FractureFlowSolver._try_step = orig
    t = tally(name, kind, cfgs, solved, refs)
    expect(f"a flood forced to raise NewtonFailure reports fail_frac "
           f"{t.failed / wl.operations(name):g} > 0", t.failed > 0)
    return 0 if all(results) else 1


def baseline_check() -> int:
    """Traced counts of the ROADMAP baseline rows: quad calls per table
    and the LU counts of sim1's 2-d 48^2 x 160-step nlin, clin and vlin
    runs at each delta."""
    child.import_program()
    from dualporo import constitutive as con
    from dualporo import harness as hz

    tracer = tr.Tracer("baseline-check")
    tracer.install()
    try:
        cfg = dataclasses.replace(hz.get_preset("sim1"), dimension=2,
                                  mesh_cells=48, n_steps=160)
        cfg.cset().alpha_bar()
        quad = tracer.counts.get("constitutive.quad_calls", 0)
        print(f"quad calls per table: {quad / len(con._TABLE_CACHE):g} "
              "(ROADMAP: 2047)")
        for method in ("nlin", "clin", "vlin"):
            for delta in (0.1, 0.001):
                before = len(tracer.spans)
                t0 = time.perf_counter()
                hz.run_method(cfg, method, delta)
                wall = time.perf_counter() - t0
                lus = sum(1 for sid in range(before, len(tracer.spans))
                          if tracer.spans[sid][0] == "imbibition.splu")
                print(f"{method} delta {delta:g}: {lus} LU factorizations, "
                      f"{wall:.2f} s")
    finally:
        tracer.uninstall()
    print("ROADMAP: nlin 546 factorizations (4.7 s / 4.6 s), clin one LU, "
          "vlin 160 LUs")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=list(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--write-refs", action="store_true")
    mode.add_argument("--baseline-check", action="store_true")
    args = ap.parse_args(argv)

    if not program_present():
        print(f"error: no dualporo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.write_refs:
        return write_refs()
    if args.baseline_check:
        return baseline_check()
    if args.workload is None:
        ap.error("--workload is required")
    reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return report(args.workload, args.seed, bool(args.trace), reps)


if __name__ == "__main__":
    sys.exit(main())
