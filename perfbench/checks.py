"""Output checks of one repetition, counted per operation.

An operation is one (method, delta) series of block-exchange, or one
report step of a flood.  A raised exception fails the operation it hit
and every operation not reached; since the harness returns nothing from
a call that raised, every operation of that call counts as failed.  A
failed output check fails its operation.

Checks:
  * every exchange series and every flood field is finite;
  * floods meet the invariants of acceptance criterion 9: per-step water
    defect <= 1e-10 and volume defect <= 1e-12 of the pore volume, no
    clamped step, saturations inside [SAT_EPS, 1 - SAT_EPS], and
    P_n - P_w = P_c(S) to 1e-10 of max |P_n|;
  * for a published seed, every output array matches the stored
    reference: max |value - reference| <= rtol * max |reference|.
"""
from __future__ import annotations

import numpy as np

WATER_DEFECT = 1e-10
VOLUME_DEFECT = 1e-12
CLOSURE = 1e-10
MAX_PROBLEMS = 10

FLOOD_SERIES = ("water_source", "mean_saturation")
FLOOD_FIELDS = ("saturation", "pressure_n", "pressure_w")


def comparison_outputs(cfg, results: dict) -> dict:
    """Exchange values keyed "scenario|method|delta"."""
    return {f"{cfg.name}|{method}|{delta!r}": series.values
            for (method, delta), series in sorted(results.items())}


def flood_outputs(res) -> dict:
    """Per accepted step series and the final fields of a flood."""
    return {"water_source": np.array([st.water_source for st in res.steps]),
            "mean_saturation": res.saturation_history[1:].mean(axis=1),
            "saturation": res.saturation, "pressure_n": res.pressure_n,
            "pressure_w": res.pressure_w}


def reference_mismatch(values, ref, rtol: float) -> np.ndarray:
    """Elementwise mismatch mask against a reference array; every element
    is a mismatch when the shapes differ."""
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.shape != ref.shape:
        return np.ones(max(values.size, 1), dtype=bool)
    scale = float(np.abs(ref).max()) if ref.size else 0.0
    return ~(np.abs(values - ref) <= rtol * scale)


class Tally:
    """Failed-operation count plus the first few problems found."""

    def __init__(self):
        self.failed = 0
        self.problems: list = []

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def check_comparison(cfg, results: dict, refs: dict | None, rtol: float,
                     tally: Tally) -> None:
    outputs = comparison_outputs(cfg, results)
    if refs is not None:
        expected = {k for k in refs if k.startswith(f"{cfg.name}|")}
        for key in sorted(expected - set(outputs)):
            tally.fail(1, f"{key}: series missing")
    for key, values in outputs.items():
        if not np.isfinite(values).all():
            tally.fail(1, f"{key}: non-finite exchange values")
        elif refs is not None and (key not in refs or reference_mismatch(
                values, refs[key], rtol).any()):
            tally.fail(1, f"{key}: differs from reference by more than "
                          f"rtol {rtol:g}")


def check_flood(cfg, res, refs: dict | None, rtol: float,
                tally: Tally) -> None:
    """Mark each report step whose accepted steps or (for the last one)
    final fields fail a check."""
    from dualporo import constitutive as con
    from dualporo import harness as hz

    n_ops = len(res.times) - 1
    bad = np.zeros(n_ops, dtype=bool)
    reasons: dict = {}
    # report step of each accepted step: its end time on the realized grid
    owner = np.clip(np.searchsorted(res.times, res.times_hist[1:],
                                    side="left") - 1, 0, n_ops - 1)

    def mark(step_mask, reason):
        hit = np.unique(owner[np.asarray(step_mask, dtype=bool)])
        if len(hit):
            bad[hit] = True
            reasons.setdefault(reason, int(hit[0]))

    def mark_last(reason):
        bad[-1] = True
        reasons.setdefault(reason, n_ops - 1)

    pore = res.pore_volume
    mark([abs(st.water_defect) > WATER_DEFECT * pore for st in res.steps],
         "water defect above 1e-10 of pore volume")
    mark([abs(st.volume_defect) > VOLUME_DEFECT * pore for st in res.steps],
         "volume defect above 1e-12 of pore volume")
    mark([st.clamped for st in res.steps], "clamped step")
    rows = res.saturation_history[1:]
    mark(~np.isfinite(rows).all(axis=1), "non-finite saturation")
    mark((rows < con.SAT_EPS).any(axis=1)
         | (rows > 1.0 - con.SAT_EPS).any(axis=1),
         "saturation outside [SAT_EPS, 1 - SAT_EPS]")

    outputs = flood_outputs(res)
    if not all(np.isfinite(outputs[k]).all() for k in FLOOD_FIELDS):
        mark_last("non-finite final field")
    else:
        vg = hz.get_preset(cfg.scenario).cset().fracture.vg
        pc = np.asarray(con.capillary_pressure(res.saturation, vg))
        closure = np.abs(res.pressure_n - res.pressure_w - pc).max()
        if not closure <= CLOSURE * np.abs(res.pressure_n).max():
            mark_last("P_n - P_w != P_c(S) to 1e-10")
    if refs is not None:
        for key in FLOOD_SERIES:
            # a step count that differs from the reference marks every step
            mark(reference_mismatch(outputs[key], refs[key], rtol),
                 f"{key} differs from reference")
        for key in FLOOD_FIELDS:
            if reference_mismatch(outputs[key], refs[key], rtol).any():
                mark_last(f"final {key} differs from reference")
    for reason, step in reasons.items():
        tally.fail(0, f"{cfg.name} report step {step}: {reason}")
    tally.failed += int(bad.sum())


def account(kind: str, n_cfgs: int, n_ops: int, solved: list,
            refs: dict | None, rtol: float) -> Tally:
    """Failed operations of one repetition; solved is workloads.solve's
    list, which stops at the first exception."""
    tally = Tally()
    per_cfg = n_ops // n_cfgs
    for cfg, result in solved:
        if isinstance(result, Exception):
            tally.fail(per_cfg, f"{cfg.name}: {type(result).__name__}: "
                                f"{result}")
        elif kind == "flood":
            check_flood(cfg, result, refs, rtol, tally)
        else:
            check_comparison(cfg, result, refs, rtol, tally)
    missing = n_cfgs - len(solved)
    if missing:
        tally.fail(missing * per_cfg, f"{missing} configuration(s) not "
                                      "reached")
    return tally
