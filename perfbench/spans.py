"""Spans recorded from outside the program, and the per-layer metrics
computed from them.

The benchmark wraps the calls into each dualporo module with timing
shims; nothing in ``src/`` is edited.  A span holds its name, start, end,
parent span id and run id, plus the few facts its call returned (factor
nnz, mesh cells, Newton iterations).  Spans stay in memory and are
written out when the run ends.

``_source_terms``, ``_try_step`` and ``_Assembler.assemble`` are private
names of ``fvsolver``; they have no public boundary, so the shims wrap
them from outside and the metrics built on them are labelled private in
``workloads.json``.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter

# (owner, attribute, span name, rebind everywhere).  The owner is a module
# or "module:Class".  A function imported by name into other dualporo
# modules is rebound there too, so callers reach the shim; splu is one
# scipy object imported by two modules, so each module gets its own shim.
SHIMS = (
    ("dualporo.harness", "run_comparison", "harness.run_comparison", True),
    ("dualporo.harness", "run_flood", "harness.run_flood", True),
    ("dualporo.harness", "build_flood", "harness.build_flood", True),
    ("dualporo.constitutive", "kirchhoff_table", "constitutive.table_build",
     True),
    ("dualporo.constitutive", "range_diffusivity",
     "constitutive.range_diffusivity", True),
    ("dualporo.blockmesh", "tensor_mesh", "blockmesh.tensor_mesh", True),
    ("dualporo.imbibition", "run_trajectory", "imbibition.nlin", True),
    ("dualporo.imbibition:BlockStepper", "newton_step",
     "imbibition.newton_step", False),
    ("dualporo.imbibition", "splu", "imbibition.splu", False),
    ("dualporo.linearized", "run_constant_linearized", "linearized.clin",
     True),
    ("dualporo.linearized", "run_variable_linearized", "linearized.vlin",
     True),
    ("dualporo.linearized", "variable_coefficients", "linearized.coeff",
     True),
    ("dualporo.effective", "exchange_fixed_kernel", "effective.fixed", True),
    ("dualporo.effective", "exchange_warped_kernel", "effective.warped",
     True),
    ("dualporo.effective:QuadratureTable", "d_row", "effective.d_row", False),
    ("dualporo.fvsolver:FractureFlowSolver", "_source_terms",
     "fvsolver.source", False),
    ("dualporo.fvsolver:FractureFlowSolver", "_try_step", "fvsolver.step",
     False),
    ("dualporo.fvsolver:_Assembler", "assemble", "fvsolver.assemble", False),
    ("dualporo.fvsolver", "splu", "fvsolver.lu", False),
)

# Spans the benchmark opens itself around set-up and the solve section.
BENCH_SPANS = ("bench.setup", "bench.solve")

# An LU made by imbibition.splu belongs to the block run that asked for it.
_LU_OWNERS = {"linearized.clin": "linearized.lu",
              "linearized.vlin": "linearized.lu",
              "imbibition.nlin": "imbibition.lu"}

# Metric stems reported as <stem>_s (inclusive) and <stem>_self_s.
TIMED_STEMS = (
    "bench.setup", "bench.solve",
    "harness.run_comparison", "harness.run_flood", "harness.build_flood",
    "constitutive.table_build", "constitutive.range_diffusivity",
    "blockmesh.tensor_mesh",
    "imbibition.nlin", "imbibition.newton_step", "imbibition.lu",
    "linearized.clin", "linearized.vlin", "linearized.coeff",
    "linearized.lu",
    "effective.fixed", "effective.warped", "effective.d_row",
    "fvsolver.source", "fvsolver.lu", "fvsolver.assemble", "fvsolver.step",
)

# (name, unit, better) of every per-layer metric a traced run reports.
# *_nnz is the mean L.nnz + U.nnz per factorization; a metric of a layer
# the workload does not run reads 0.
LAYER_METRICS = tuple(
    [(f"{stem}_s", "s", "lower") for stem in TIMED_STEMS]
    + [(f"{stem}_self_s", "s", "lower") for stem in TIMED_STEMS]
    + [
        ("constitutive.quad_calls", "count", "lower"),
        ("constitutive.tables_built", "count", "lower"),
        ("constitutive.range_diffusivity_calls", "count", "lower"),
        ("blockmesh.meshes", "count", "lower"),
        ("blockmesh.cells", "count", "lower"),
        ("imbibition.newton_steps", "count", "lower"),
        ("imbibition.newton_failures", "count", "lower"),
        ("imbibition.step_accept_ratio", "ratio", "higher"),
        ("imbibition.newton_iters", "count", "lower"),
        ("imbibition.substeps", "count", "lower"),
        ("imbibition.lu_count", "count", "lower"),
        ("imbibition.lu_nnz", "count", "lower"),
        ("linearized.lu_count", "count", "lower"),
        ("linearized.lu_nnz", "count", "lower"),
        ("effective.d_row_calls", "count", "lower"),
        ("fvsolver.source_calls", "count", "lower"),
        ("fvsolver.history_mib", "MiB", "lower"),
        ("fvsolver.lu_count", "count", "lower"),
        ("fvsolver.lu_nnz", "count", "lower"),
        ("fvsolver.assemble_calls", "count", "lower"),
        ("fvsolver.step_attempts", "count", "lower"),
        ("fvsolver.step_ms_p50", "ms", "lower"),
        ("fvsolver.step_ms_p95", "ms", "lower"),
        ("fvsolver.accepted_steps", "count", "lower"),
        ("fvsolver.newton_iters", "count", "lower"),
        ("fvsolver.step_accept_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        # computed by run.py over the traced and untraced repetitions
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ])


def _lu_facts(lu):
    return {"nnz": int(lu.L.nnz + lu.U.nnz)}


def _mesh_facts(mesh):
    return {"cells": int(mesh.n_cells)}


def _block_facts(sol):
    return {"newton_iters": int(sol.newton_iterations),
            "substeps": int(sol.substeps)}


def _flood_facts(res):
    hist = [res.saturation_history, res.wall_history, res.alpha_history]
    if res.source_history is not None:
        hist.append(res.source_history)
    return {"history_bytes": int(sum(h.nbytes for h in hist)),
            "accepted_steps": len(res.steps),
            "newton_iters": int(sum(st.newton_iters for st in res.steps))}


_FACTS = {"imbibition.splu": _lu_facts, "fvsolver.lu": _lu_facts,
          "blockmesh.tensor_mesh": _mesh_facts,
          "imbibition.nlin": _block_facts, "harness.run_flood": _flood_facts}


class Tracer:
    """In-memory span recorder; one per process run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [name, start, end, parent id, error type or None, facts]
        self.spans: list = []
        self.stack: list = []
        self.counts = Counter()
        self._undo: list = []

    def open(self, name: str, start: float | None = None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if start is None
                           else start, None, parent, None, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, error: str | None = None,
              facts: dict | None = None) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[4] = error
        span[5] = facts
        self.stack.pop()

    def _shim(self, name: str, fn):
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, error=type(exc).__name__)
                raise
            self.close(sid, facts=facts(out) if facts else None)
            return out
        return shim

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return shim

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every callable in SHIMS, and count scipy quad calls made
        by the Kirchhoff table."""
        for owner_path, attr, name, everywhere in SHIMS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            shim = self._shim(name, orig)
            self._set(owner, attr, shim)
            if not everywhere:
                continue
            for mod_key, mod in list(sys.modules.items()):
                if not (mod_key == "dualporo"
                        or mod_key.startswith("dualporo.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, shim)
        con = importlib.import_module("dualporo.constitutive")
        self._set(con, "quad", self._counter("constitutive.quad_calls",
                                             con.quad))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, error, facts) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "run": self.run_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "error": error, "facts": facts}) + "\n")


def _stem(spans, sid: int) -> str:
    """Metric stem of a span; an imbibition LU is owned by the nearest
    block-run span above it."""
    name = spans[sid][0]
    if name != "imbibition.splu":
        return name
    parent = spans[sid][3]
    while parent >= 0:
        owner = _LU_OWNERS.get(spans[parent][0])
        if owner:
            return owner
        parent = spans[parent][3]
    return "imbibition.lu"


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default), 0 <= q <= 1."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, tables_built: int) -> dict:
    """Per-layer metrics of one traced process, from its spans."""
    spans = tracer.spans
    total = Counter()
    self_t = Counter()
    calls = Counter()
    errors = Counter()
    facts_sum = Counter()          # (stem, fact) -> sum over its spans
    child_time = [0.0] * len(spans)
    step_ms = []
    for name, start, end, parent, error, facts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for sid, (name, start, end, parent, error, facts) in enumerate(spans):
        stem = _stem(spans, sid)
        total[stem] += end - start
        self_t[stem] += end - start - child_time[sid]
        calls[stem] += 1
        errors[stem] += error is not None
        for key, value in (facts or {}).items():
            facts_sum[stem, key] += value
        if stem == "fvsolver.step":
            step_ms.append(1e3 * (end - start))

    def ratio(ok, attempts):
        return ok / attempts if attempts else 0.0

    newton = calls["imbibition.newton_step"]
    newton_ok = newton - errors["imbibition.newton_step"]
    attempts = calls["fvsolver.step"]
    accepted = facts_sum["harness.run_flood", "accepted_steps"]
    m = {f"{stem}_s": total[stem] for stem in TIMED_STEMS}
    m.update({f"{stem}_self_s": self_t[stem] for stem in TIMED_STEMS})
    m.update({
        "constitutive.quad_calls": tracer.counts["constitutive.quad_calls"],
        "constitutive.tables_built": tables_built,
        "constitutive.range_diffusivity_calls":
            calls["constitutive.range_diffusivity"],
        "blockmesh.meshes": calls["blockmesh.tensor_mesh"],
        "blockmesh.cells": facts_sum["blockmesh.tensor_mesh", "cells"],
        "imbibition.newton_steps": newton,
        "imbibition.newton_failures": newton - newton_ok,
        "imbibition.step_accept_ratio": ratio(newton_ok, newton),
        "imbibition.newton_iters":
            facts_sum["imbibition.nlin", "newton_iters"],
        "imbibition.substeps": facts_sum["imbibition.nlin", "substeps"],
        "imbibition.lu_count": calls["imbibition.lu"],
        "imbibition.lu_nnz": ratio(facts_sum["imbibition.lu", "nnz"],
                                   calls["imbibition.lu"]),
        "linearized.lu_count": calls["linearized.lu"],
        "linearized.lu_nnz": ratio(facts_sum["linearized.lu", "nnz"],
                                   calls["linearized.lu"]),
        "effective.d_row_calls": calls["effective.d_row"],
        "fvsolver.source_calls": calls["fvsolver.source"],
        "fvsolver.history_mib":
            facts_sum["harness.run_flood", "history_bytes"] / 2 ** 20,
        "fvsolver.lu_count": calls["fvsolver.lu"],
        "fvsolver.lu_nnz": ratio(facts_sum["fvsolver.lu", "nnz"],
                                 calls["fvsolver.lu"]),
        "fvsolver.assemble_calls": calls["fvsolver.assemble"],
        "fvsolver.step_attempts": attempts,
        "fvsolver.step_ms_p50": quantile(step_ms, 0.50),
        "fvsolver.step_ms_p95": quantile(step_ms, 0.95),
        "fvsolver.accepted_steps": accepted,
        "fvsolver.newton_iters":
            facts_sum["harness.run_flood", "newton_iters"],
        "fvsolver.step_accept_ratio": ratio(accepted, attempts),
        "trace.spans": len(spans),
    })
    return m


def self_time_ranking(metrics: dict) -> list:
    """(stem, self seconds) of the module spans, largest first; the
    benchmark's own set-up and solve spans are left out."""
    rows = [(stem, metrics[f"{stem}_self_s"]) for stem in TIMED_STEMS
            if stem not in BENCH_SPANS]
    return sorted(rows, key=lambda r: -r[1])


def median_metrics(samples: list) -> dict:
    """Per-metric median over the traced processes of one run."""
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}
