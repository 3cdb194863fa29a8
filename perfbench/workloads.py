"""The benchmark's workloads: seeded configurations, set-up, the timed
solve section, and the outputs the checks read.

Every workload goes through the public ``dualporo.harness`` API.  The
seed draws the drive parameters from the ranges in ``workloads.json``;
the solver only sees the configurations that result.  The same seed
always gives the same configurations.
"""
from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
WORKLOADS = SPEC["workloads"]
RTOL = SPEC["reference"]["rtol"]
PUBLISHED_SEEDS = frozenset(SPEC["reference"]["published_seeds"])


def _draw(ranges: dict, rng: random.Random) -> dict:
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in
            sorted(ranges.items())}


def operations(name: str) -> int:
    """Operations one repetition attempts: a (method, delta) series per
    scenario for block-exchange, a report step for a flood."""
    spec = WORKLOADS[name]
    cfg = spec["config"]
    if spec["kind"] == "flood":
        return cfg["n_steps"]
    block = [m for m in cfg["methods"] if not m.startswith("effective")]
    per_scenario = (len(block) * len(cfg["deltas"])
                    + len(cfg["methods"]) - len(block))
    return per_scenario * len(spec["scenarios"])


def configs(name: str, seed: int) -> list:
    """The harness configurations of one workload and seed."""
    from dualporo import harness as hz

    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    cfg = spec["config"]
    if spec["kind"] == "flood":
        fields = dict(cfg, name=name, **_draw(spec["draw"], rng))
        fields["snapshot_days"] = tuple(fields["snapshot_days"])
        return [dataclasses.replace(hz.FloodConfig(), **fields)]
    out = []
    for scenario, scen_spec in spec["scenarios"].items():
        base = hz.get_preset(scenario)
        args = dict(base.trajectory_args, **_draw(scen_spec["draw"], rng))
        out.append(dataclasses.replace(
            base, trajectory_args=args, dimension=cfg["dimension"],
            deltas=tuple(cfg["deltas"]), mesh_cells=cfg["mesh_cells"],
            n_steps=cfg["n_steps"], methods=tuple(cfg["methods"])))
    return out


def set_up(name: str, cfgs: list) -> None:
    """Work every run of the workload pays before its solve: the Kirchhoff
    table, and build_flood or the first block mesh."""
    from dualporo import harness as hz

    cfg = cfgs[0]
    if WORKLOADS[name]["kind"] == "flood":
        # the warped source builds no table in build_flood; build it here
        # so that the solve section never pays for it
        hz.get_preset(cfg.scenario).cset().alpha_bar()
        hz.build_flood(cfg)
    else:
        cfg.cset().alpha_bar()
        cfg.block_problem(cfg.deltas[0]).build_mesh()


def solve(name: str, cfgs: list) -> list:
    """The timed section: [(config, result or raised exception)].  The
    first exception stops the workload; configurations not reached are
    left out of the list."""
    from dualporo import harness as hz

    run = hz.run_flood if WORKLOADS[name]["kind"] == "flood" \
        else hz.run_comparison
    out = []
    for cfg in cfgs:
        try:
            out.append((cfg, run(cfg)))
        except Exception as exc:  # a failed operation is counted, not fatal
            out.append((cfg, exc))
            break
    return out
