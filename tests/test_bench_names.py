"""The names the benchmark pins resolve on the program.

perfbench/spans.py wraps dualporo callables by name, private fvsolver
methods included, and perfbench/checks.py and spans._flood_facts read
FlowResult fields.  A rename of any of them would otherwise show only in
a traced benchmark run.

Oracles used here:

  * the benchmark's Tracer installs on this program in-process, records
    the flood's spans, and its uninstall puts every original back;
  * on a tiny warped flood the traced counts follow the step contract:
    one LU per Newton iteration, one assemble per iterate, and every
    attempt accepted;
  * the benchmark's flood outputs and checks read the result and pass;
  * on a tiny nlin comparison with no failed attempt the traced block LUs
    equal the Newton iterations, and none is counted as a flood LU: the
    block's Newton loop factors through imbibition.splu, the module the
    benchmark counts it in.

Both LU counts are checked on SuperLU's route (blockmesh.BAND_WORK set
to 0): the tracer counts LUs at imbibition.splu and fvsolver.splu, which
the band LU of these tiny patterns does not call.  The one-LU-per-
iteration counts hold on the path that factors every correction
(blockmesh.KRYLOV_ITER set to 0); on the default path the traced LUs and
the corrections GMRES solved on a Newton solve's kept LU are the Newton
iterations.  On the band route the same runs trace no LU at all, pinned
by the last test until the benchmark counts band LUs too.
"""
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import dualporo
from dualporo import blockmesh as bm
from dualporo import harness as hz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name):
    """A perfbench module loaded from its file, outside sys.modules."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shim_owner(owner_path):
    mod_name, _, cls_name = owner_path.partition(":")
    owner = importlib.import_module(mod_name)
    return getattr(owner, cls_name) if cls_name else owner


def test_tracer_shims_and_flood_checks_reach_the_program(monkeypatch):
    monkeypatch.setattr(bm, "BAND_WORK", 0)
    monkeypatch.setattr(bm, "KRYLOV_ITER", 0)
    spans = load_bench_module("spans")
    checks = load_bench_module("checks")
    originals = [(owner_path, attr,
                  getattr(shim_owner(owner_path), attr))
                 for owner_path, attr, _, _ in spans.SHIMS]
    cfg = hz.FloodConfig(**TINY_FLOOD)
    tracer = spans.Tracer("test")
    try:
        tracer.install()
        res = hz.run_flood(cfg)
    finally:
        tracer.uninstall()
    for owner_path, attr, orig in originals:
        assert getattr(shim_owner(owner_path), attr) is orig, attr
    assert dualporo.run_flood is hz.run_flood

    names = {span[0] for span in tracer.spans}
    assert {"harness.run_flood", "harness.build_flood", "fvsolver.source",
            "fvsolver.step", "fvsolver.assemble", "fvsolver.lu",
            "constitutive.range_diffusivity"} <= names
    assert all(span[4] is None for span in tracer.spans)

    metrics = spans.layer_metrics(tracer, tables_built=0)
    iters = sum(st.newton_iters for st in res.steps)
    assert metrics["fvsolver.accepted_steps"] == len(res.steps) == 3
    assert metrics["fvsolver.step_attempts"] == 3
    assert metrics["fvsolver.source_calls"] == 3
    assert metrics["fvsolver.newton_iters"] == iters > 0
    assert metrics["fvsolver.lu_count"] == iters
    assert metrics["fvsolver.assemble_calls"] == iters + 3
    facts = spans._flood_facts(res)
    assert facts["accepted_steps"] == 3
    assert facts["history_bytes"] == 3 * 4 * 16 * 8    # S, wall, alpha

    outputs = checks.flood_outputs(res)
    assert set(outputs) == set(checks.FLOOD_SERIES + checks.FLOOD_FIELDS)
    tally = checks.Tally()
    checks.check_flood(cfg, res, None, 0.0, tally)
    assert (tally.failed, tally.problems) == (0, [])


TINY_NLIN = dict(methods=("nlin",), deltas=(0.1,), n_steps=4, mesh_cells=8,
                 t_end_days=1.0)
TINY_FLOOD = dict(nx=4, ny=4, n_steps=3, t_end_days=1.0,
                  source_model="warped", snapshot_days=(1.0,))


def traced_metrics(spans, run, cfg):
    """Per-layer metrics of harness.<run>(cfg), looked up once the tracer
    has wrapped it."""
    tracer = spans.Tracer("test")
    try:
        tracer.install()
        getattr(hz, run)(cfg)
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer, tables_built=0)


def test_traced_nlin_counts_block_lus_in_imbibition(monkeypatch):
    monkeypatch.setattr(bm, "BAND_WORK", 0)
    monkeypatch.setattr(bm, "KRYLOV_ITER", 0)
    spans = load_bench_module("spans")
    cfg = dataclasses.replace(hz.get_preset("sim1"), **TINY_NLIN)
    metrics = traced_metrics(spans, "run_comparison", cfg)
    assert metrics["imbibition.newton_failures"] == 0
    assert metrics["imbibition.newton_steps"] == 4
    assert metrics["imbibition.lu_count"] \
        == metrics["imbibition.newton_iters"] > 0
    assert metrics["fvsolver.lu_count"] == 0
    assert metrics["linearized.lu_count"] == 0


def test_traced_flood_lus_and_krylov_solves_are_its_corrections(
        monkeypatch, krylov):
    # the tiny flood on the default path: SuperLU factors each Newton
    # solve's first correction, and the traced LUs with the corrections
    # GMRES solved on the kept factors are the Newton iterations
    monkeypatch.setattr(bm, "BAND_WORK", 0)
    spans = load_bench_module("spans")
    metrics = traced_metrics(spans, "run_flood", hz.FloodConfig(**TINY_FLOOD))
    assert metrics["fvsolver.lu_count"] + len(krylov) \
        == metrics["fvsolver.newton_iters"]
    assert len(krylov) > 0
    assert metrics["fvsolver.lu_count"] >= metrics["fvsolver.accepted_steps"]
    assert metrics["fvsolver.accepted_steps"] == 3


def test_traced_nlin_lus_and_krylov_solves_are_its_corrections(
        monkeypatch, krylov):
    # the tiny nlin comparison on the default path: the traced block LUs
    # with the corrections GMRES solved are the Newton iterations, and
    # none of them is counted as a flood or linear-block LU
    monkeypatch.setattr(bm, "BAND_WORK", 0)
    spans = load_bench_module("spans")
    cfg = dataclasses.replace(hz.get_preset("sim1"), **TINY_NLIN)
    metrics = traced_metrics(spans, "run_comparison", cfg)
    assert metrics["imbibition.newton_failures"] == 0
    assert metrics["imbibition.lu_count"] + len(krylov) \
        == metrics["imbibition.newton_iters"]
    assert len(krylov) > 0
    assert metrics["imbibition.lu_count"] >= metrics["imbibition.newton_steps"]
    assert metrics["fvsolver.lu_count"] == 0
    assert metrics["linearized.lu_count"] == 0


def test_tracer_counts_no_band_lu(factored):
    # the same tiny runs on the band route: Newton corrects, FixedPattern
    # factors once per correction, and the tracer sees none of it
    spans = load_bench_module("spans")
    nlin = dataclasses.replace(hz.get_preset("sim1"), **TINY_NLIN)
    metrics = traced_metrics(spans, "run_comparison", nlin)
    assert metrics["imbibition.newton_iters"] == len(factored) > 0
    assert metrics["imbibition.lu_count"] == 0

    factored.clear()
    metrics = traced_metrics(spans, "run_flood", hz.FloodConfig(**TINY_FLOOD))
    assert metrics["fvsolver.newton_iters"] == len(factored) > 0
    assert metrics["fvsolver.lu_count"] == 0
    assert all(pattern.band is not None for _, pattern in factored)
