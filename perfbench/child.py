"""One repetition of a workload in a fresh process.

Run by run.py; prints one JSON object as its last line of output:
set-up end time on the monotonic clock, solve wall and CPU seconds,
peak RSS at the end of the solve, failed operations, the host-speed
probe timed after the solve (so that its memory stays out of the peak
RSS), and with --trace 1 the per-layer metrics of its spans.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import dualporo from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dualporo
    if Path(dualporo.__file__).resolve().parent != SRC / "dualporo":
        raise ImportError(f"dualporo imported from {dualporo.__file__}, "
                          f"not from {SRC}")
    return dualporo


def load_refs(name: str, seed: int):
    """Reference outputs of a published seed, or None."""
    import numpy as np
    import workloads as wl

    if seed not in wl.PUBLISHED_SEEDS:
        return None
    prefix = f"{seed}:"
    with np.load(HERE / "refs" / f"{name}.npz") as data:
        return {k[len(prefix):]: data[k] for k in data.files
                if k.startswith(prefix)}


def probe_ms() -> float:
    """Host-speed probe, independent of dualporo: median of five passes
    over a fixed task mixing the two kinds of work the workloads do, one
    SuperLU factorization of a 2-d five-point Laplacian (96 x 96 cells)
    and 6000 small numpy updates driven from Python."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 96
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    mat = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
    small = np.linspace(0.0, 1.0, 144)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        splu(mat)
        acc = small
        for _ in range(6000):
            acc = np.sqrt(acc * 0.5 + 1.0) - 0.5
        times.append(1e3 * (time.perf_counter() - t0))
    return float(np.median(times))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import_program()
    import checks
    import spans as tr
    import workloads as wl
    from dualporo import constitutive as con

    spec = wl.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tr.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
        setup_span = tracer.open("bench.setup", start=t_import)

    cfgs = wl.configs(args.workload, args.seed)
    wl.set_up(args.workload, cfgs)
    ready_at = time.monotonic()
    if tracer:
        tracer.close(setup_span)
        solve_span = tracer.open("bench.solve")

    c0 = time.process_time()
    t0 = time.perf_counter()
    solved = wl.solve(args.workload, cfgs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.close(solve_span)
        tracer.uninstall()

    tally = checks.account(spec["kind"], len(cfgs),
                           wl.operations(args.workload), solved,
                           load_refs(args.workload, args.seed), wl.RTOL)
    out = {
        "ready_at": ready_at, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib, "failed": tally.failed,
        "problems": tally.problems, "probe_ms": probe_ms(),
    }
    if tracer:
        out["layers"] = tr.layer_metrics(tracer, len(con._TABLE_CACHE))
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
