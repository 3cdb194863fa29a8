"""Scenario presets, comparison driver, and deterministic output writers.

A scenario fixes the two media, the fluid pair, the block dimension, the
fracture-saturation trajectory driving the block walls, and the report
grid: uniform_times steps from 0 to the horizon, and every series is
sampled at the interval midpoints.  run_comparison evaluates the
matrix-fracture exchange for the scenario's methods and deltas: resolved
nonlinear blocks ("nlin"), the two linearizations ("clin", "vlin"), and
the two effective convolution sources ("effective-I", "effective-II").
Block series carry their delta and are compared per delta; effective
series are already the delta -> 0 limit.

Every CSV table goes through write_csv, which formats floats with
repr(), so repeated runs of the same configuration produce byte-identical
files.
"""
from __future__ import annotations

import dataclasses
import math
import os
import re
import typing
from dataclasses import dataclass, field

import numpy as np

from . import constitutive as con
from . import effective as eff
from . import fvsolver as fv
from .blockmesh import TensorMesh
from .imbibition import (EFFECTIVE_METHODS, EXCHANGE_METHODS, BlockProblem,
                         ExchangeSeries, exchange_from_volume, midpoints,
                         run_trajectory, wall_series)
from .linearized import run_constant_linearized, run_variable_linearized

DAY = 86400.0

DEFAULT_DELTAS = (0.3, 0.2, 0.1, 0.05, 0.01, 0.001)


def uniform_times(t_end: float, n_steps: int) -> np.ndarray:
    if n_steps < 1 or t_end <= 0.0:
        raise ValueError("need n_steps >= 1 and t_end > 0")
    return np.linspace(0.0, t_end, n_steps + 1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Block-exchange comparison scenario (SI units, times in days)."""

    name: str
    matrix_pr: float = 1.0e5
    matrix_n: float = 2.0
    matrix_porosity: float = 0.35
    matrix_permeability: float = 1.0e-13
    fracture_pr: float = 1.0e4
    fracture_n: float = 2.0
    fracture_porosity: float = 0.2
    fracture_permeability: float = 1.0e-13
    mu_w: float = 1.0e-3
    mu_n: float = 2.0e-3
    dimension: int = 2
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    trajectory: str = "ramp"
    trajectory_args: dict[str, float] = field(default_factory=dict)
    t_end_days: float = 10.0
    n_steps: int = 200
    mesh_cells: int = 64
    methods: tuple[str, ...] = EXCHANGE_METHODS

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("no methods requested")
        for key, values in (("methods", self.methods),
                            ("deltas", self.deltas)):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat; got {list(values)}")
        unknown = set(self.methods) - set(EXCHANGE_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; choose "
                             f"from {', '.join(EXCHANGE_METHODS)}")
        if not self.deltas and not set(self.methods) <= set(EFFECTIVE_METHODS):
            raise ValueError("block methods need at least one delta")
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3; got "
                             f"{self.dimension}")
        bad = [d for d in self.deltas if not 0.0 < d < 1.0]
        if bad:
            raise ValueError(f"deltas must lie in (0, 1); got {bad}")
        if self.mesh_cells < 4 or self.mesh_cells % 2:
            raise ValueError("mesh_cells must be an even number >= 4; got "
                             f"{self.mesh_cells}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1; got {self.n_steps}")
        if not (math.isfinite(self.t_end_days) and self.t_end_days > 0.0):
            raise ValueError("t_end_days must be a positive finite number; "
                             f"got {self.t_end_days!r}")
        self.cset()                     # reject invalid media
        self.boundary()                 # and trajectory arguments

    def cset(self) -> con.ConstitutiveSet:
        return con.ConstitutiveSet(
            matrix=con.MediumProps(
                porosity=self.matrix_porosity,
                permeability=self.matrix_permeability,
                vg=con.VanGenuchtenParams(p_r=self.matrix_pr,
                                          n=self.matrix_n)),
            fracture=con.MediumProps(
                porosity=self.fracture_porosity,
                permeability=self.fracture_permeability,
                vg=con.VanGenuchtenParams(p_r=self.fracture_pr,
                                          n=self.fracture_n)),
            fluids=con.FluidPair(mu_w=self.mu_w, mu_n=self.mu_n))

    def times(self) -> np.ndarray:
        return uniform_times(self.t_end_days * DAY, self.n_steps)

    def boundary(self):
        return make_trajectory(self.trajectory, **self.trajectory_args)

    def block_problem(self, delta: float) -> BlockProblem:
        return BlockProblem(delta=delta, dimension=self.dimension,
                            cset=self.cset(), boundary=self.boundary(),
                            times=self.times(),
                            mesh_cells=self.mesh_cells)


# The parameters of each trajectory kind, with their defaults.
TRAJECTORY_PARAMS = {
    "ramp": {"start": 0.05, "slope_per_day": 0.1, "cap": 0.9},
    "sine": {"mean": 0.5, "amp": 0.5, "period_days": 10.0},
    "step": {"s_before": 0.05, "s_after": 0.95},
}


def make_trajectory(kind: str, **args):
    """Fracture-saturation drive S_f(t), t in seconds.

    "ramp": start + min(slope_per_day * t_days, cap), a linear fill that
    plateaus once the increment reaches cap.  "sine": mean + amp *
    sin(2 pi t_days / period_days).  "step": jump at t = 0+.  Arguments
    not given take the defaults of TRAJECTORY_PARAMS; an argument the kind
    does not take is rejected, and so is a drive that leaves [0, 1],
    which the constitutive clipping would silently turn into another.
    """
    if kind not in TRAJECTORY_PARAMS:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    params = TRAJECTORY_PARAMS[kind]
    unknown = set(args) - set(params)
    if unknown:
        raise ValueError(f"unknown trajectory_args for {kind!r}: "
                         f"{sorted(unknown)}; it takes {sorted(params)}")
    a = dict(params, **args)
    if kind == "ramp":
        start, slope, cap = a["start"], a["slope_per_day"], a["cap"]
        if not (slope >= 0.0 and cap >= 0.0):
            raise ValueError("slope_per_day and cap must be non-negative; "
                             f"got {slope!r} and {cap!r}")
        ends = {"start": start, "start + cap": start + cap}

        def drive(t):
            return start + min(slope * t / DAY, cap)
    elif kind == "sine":
        mean, amp, period_days = a["mean"], a["amp"], a["period_days"]
        if not period_days > 0.0:
            raise ValueError(f"period_days must be positive; got "
                             f"{period_days!r}")
        ends = {"mean - amp": mean - amp, "mean + amp": mean + amp}

        def drive(t):
            return mean + amp * float(np.sin(2.0 * np.pi * t
                                             / (period_days * DAY)))
    else:
        s0, s1 = a["s_before"], a["s_after"]
        ends = {"s_before": s0, "s_after": s1}

        def drive(t):
            return s1 if t > 0.0 else s0
    bad = [f"{k} = {v!r}" for k, v in ends.items() if not 0.0 <= v <= 1.0]
    if bad:
        raise ValueError(f"the {kind} drive must stay in [0, 1]; got "
                         + ", ".join(bad))
    return drive


_RAMP_ARGS = dict(TRAJECTORY_PARAMS["ramp"])
_SINE_ARGS = dict(TRAJECTORY_PARAMS["sine"])

PRESETS = {
    "sim1": ScenarioConfig(name="sim1", trajectory_args=_RAMP_ARGS),
    "strong-contrast": ScenarioConfig(name="strong-contrast",
                                      matrix_pr=1.0e6,
                                      trajectory_args=_RAMP_ARGS),
    "equal-pc": ScenarioConfig(name="equal-pc", fracture_pr=1.0e5,
                               trajectory_args=_RAMP_ARGS),
    "nonmonotone": ScenarioConfig(name="nonmonotone", trajectory="sine",
                                  trajectory_args=_SINE_ARGS),
}


def list_presets() -> list:
    return sorted(PRESETS)


def get_preset(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: "
                         f"{', '.join(list_presets())}") from None


_TYPE_NAMES = {tuple: "a list", dict: "a mapping", float: "a finite number",
               int: "an integer", str: "a string"}


def _coerce(key: str, value, hint):
    """value as the field type hint, or a one-line ValueError; an integer
    is taken for a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if isinstance(value, list):
            return tuple(_coerce(key, v, args[0]) for v in value)
    elif origin is dict:
        if isinstance(value, dict):
            return {k: _coerce(f"{key}.{k}", v, args[1])
                    for k, v in value.items()}
    elif isinstance(value, bool):
        pass                            # YAML true/false is no number
    elif hint is float:
        if isinstance(value, (int, float)) and math.isfinite(value):
            return float(value)
    elif isinstance(value, hint):
        return value
    raise ValueError(f"{key} must be {_TYPE_NAMES[origin or hint]}, "
                     f"not {value!r}")


def _from_mapping(cls, raw, flags):
    """A ScenarioConfig or FloodConfig from a parsed YAML document with
    flags, a mapping of the same keys, merged over it.

    The document is a mapping of field names to values of the field's
    type.  A scenario may name a "preset" as its base; giving a trajectory
    without trajectory_args resets them to that trajectory's defaults.
    Everything else fails with a one-line ValueError, by _coerce or the
    class's own checks.
    """
    label = "config" if cls is ScenarioConfig else "flood config"
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ValueError(f"{label} must be a mapping of keys, not a "
                         f"{type(raw).__name__}")
    raw = {**raw, **flags}
    base = cls(name="custom") if cls is ScenarioConfig else cls()
    if cls is ScenarioConfig and "preset" in raw:
        base = get_preset(_coerce("preset", raw.pop("preset"), str))
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    values = {key: _coerce(key, value, hints[key])
              for key, value in raw.items()}
    if "trajectory" in values:
        values.setdefault("trajectory_args", {})
    return dataclasses.replace(base, **values)


def _read_yaml(path: str):
    import yaml             # ~25 ms; only config files and manifests use it

    class Loader(yaml.SafeLoader):
        """SafeLoader that also reads YAML 1.2 floats such as 1e5 and 2E-6,
        which YAML 1.1 takes for strings."""

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"))
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.load(fh, Loader=Loader)


def load_config(target: str, **flags) -> ScenarioConfig:
    """The scenario of a preset name or a YAML file (see _from_mapping),
    flags (config keys) merged over it.  A preset wins over a file of its
    name; a target that is neither fails as an unknown preset."""
    doc = {"preset": target} if target in PRESETS \
        or not os.path.exists(target) else _read_yaml(target)
    return _from_mapping(ScenarioConfig, doc, flags)


def config_to_dict(cfg) -> dict:
    """The fields of a ScenarioConfig or FloodConfig for a manifest, every
    tuple as a list."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(cfg).items()}


# ---------------------------------------------------------------------------
# method evaluation

def _effective_series(cfg: ScenarioConfig, method: str) -> ExchangeSeries:
    """The sqrt kernel on the clock alpha_bar ("effective-I") or alpha_hat
    ("effective-II")."""
    cset = cfg.cset()
    times = cfg.times()
    wall = wall_series(cset, cfg.boundary(), times)
    # the two alpha_hat clocks differ by one sample: exchange_warped_kernel
    # runs interval n on alpha_hat through sample n + 1 (its alpha[1:]),
    # while vlin (linearized.variable_coefficients, through
    # run_variable_linearized) and the warped flood freeze it at sample n
    if method == "effective-I":
        alpha = np.full(len(times), cset.alpha_bar())
    else:
        alpha = eff.running_range_alpha(wall, cset.matrix_table())
    values = eff.exchange_warped_kernel(
        wall, alpha, times, eff.kernel_constant(cfg.dimension, cset))
    return ExchangeSeries(midpoints(times), values, method, 0.0,
                          divided_by_delta=True)


def run_method(cfg: ScenarioConfig, method: str,
               delta: float | None = None) -> ExchangeSeries:
    """Exchange series for one method; block methods need a delta.

    nlin's series is the volume form of its exchange (the flux form,
    imbibition.exchange_from_flux, agrees to solver tolerance); clin and
    vlin return their block memory's own exchange as a series.
    """
    if method in EFFECTIVE_METHODS:
        return _effective_series(cfg, method)
    if delta is None:
        raise ValueError(f"method {method!r} needs a block delta")
    runners = {"nlin": lambda p: exchange_from_volume(run_trajectory(p), p),
               "clin": run_constant_linearized,
               "vlin": run_variable_linearized}
    if method not in runners:
        raise ValueError(f"unknown method {method!r}")
    return runners[method](cfg.block_problem(delta))


def comparison_keys(cfg: ScenarioConfig) -> list:
    """The (method, delta) keys of cfg.methods x cfg.deltas in run order,
    with effective methods keyed once under delta = 0.0."""
    return [(method, delta) for method in cfg.methods
            for delta in ((0.0,) if method in EFFECTIVE_METHODS
                          else cfg.deltas)]


def run_comparison(cfg: ScenarioConfig) -> dict:
    """{(method, delta): series} over comparison_keys(cfg), in its order."""
    return {key: run_method(cfg, *key) for key in comparison_keys(cfg)}


def compare_series(a: ExchangeSeries, b: ExchangeSeries,
                   t_lo: float | None = None,
                   t_hi: float | None = None) -> tuple:
    """Relative deviations (l2, sup) of a from the reference b on the
    window overlap.

    Series are compared per delta (block series are divided by their
    delta first), with a interpolated onto b's samples; l2 integrates
    with trapezoid weights, sup is the ratio of the largest magnitudes.
    """
    av, bv = a.per_delta(), b.per_delta()
    lo = max(av.times[0], bv.times[0], -np.inf if t_lo is None else t_lo)
    hi = min(av.times[-1], bv.times[-1], np.inf if t_hi is None else t_hi)
    bw = bv.restricted(lo, hi)
    if len(bw.times) < 2:
        raise ValueError("comparison window holds fewer than two samples")
    if not np.any(bw.values):
        raise ValueError("reference series is zero on the comparison window")
    ai = np.interp(bw.times, av.times, av.values)
    diff = ai - bw.values
    num = np.trapezoid(diff ** 2, bw.times)
    den = np.trapezoid(bw.values ** 2, bw.times)
    return (float(np.sqrt(num / den)),
            float(np.abs(diff).max() / np.abs(bw.values).max()))


def comparison_pairs(keys) -> list:
    """The (series, reference) key pairs of a report on run_comparison's
    keys: every non-reference series against the resolved blocks at the
    same delta, every series against the fixed-kernel effective source,
    and the delta sweep within each block method (consecutive deltas,
    coarser measured against finer)."""
    keys = sorted(keys)
    pairs = [(key, ("nlin", key[1])) for key in keys
             if key[0] != "nlin" and key[1] > 0.0 and ("nlin", key[1]) in keys]
    eff_key = ("effective-I", 0.0)
    if eff_key in keys:
        pairs += [(key, eff_key) for key in keys if key != eff_key]
    for method in sorted({m for m, d in keys if d > 0.0}):
        ds = sorted((d for m, d in keys if m == method and d > 0.0),
                    reverse=True)
        pairs += [((method, c), (method, f)) for c, f in zip(ds, ds[1:])]
    return pairs


def check_report_window(cfg: ScenarioConfig, t_lo: float,
                        t_hi: float) -> None:
    """Fail as the report over [t_lo, t_hi] (s) would, but before solving:
    a report with a pair needs two midpoints of cfg.times() in it."""
    mids = midpoints(cfg.times())
    if comparison_pairs(comparison_keys(cfg)) \
            and np.count_nonzero((mids >= t_lo) & (mids <= t_hi)) < 2:
        raise ValueError("comparison window holds fewer than two samples")


def comparison_rows(results: dict, t_lo: float, t_hi: float) -> list:
    """Report rows for a run_comparison result over window [t_lo, t_hi] (s),
    each pair of comparison_pairs in the "l2" and the "sup" norm."""
    rows = []
    for a_key, b_key in comparison_pairs(results):
        values = compare_series(results[a_key], results[b_key], t_lo, t_hi)
        for norm, value in zip(("l2", "sup"), values):
            rows.append({
                "method": a_key[0], "delta": float(a_key[1]),
                "reference": b_key[0], "ref_delta": float(b_key[1]),
                "t_lo_days": t_lo / DAY, "t_hi_days": t_hi / DAY,
                "norm": norm, "value": value})
    return rows


# ---------------------------------------------------------------------------
# effective fracture-system flood scenario

@dataclass(frozen=True)
class FloodConfig:
    """Water flood of the effective fracture continuum (2D square)."""

    name: str = "flood"
    scenario: str = "sim1"            # media preset for the two media
    nx: int = 32
    ny: int = 32
    lx: float = 10.0
    ly: float = 10.0
    source_model: str = "fixed"       # "fixed" | "warped" | "none"
    inflow_rate: float = 1.5e-6       # wetting rate on xmin [m/s]
    outlet_saturation: float = 0.05
    outlet_pressure_n: float = 1.0e6
    s_init: float = 0.05
    pn_init: float = 1.0e6
    t_end_days: float = 10.0
    n_steps: int = 200
    snapshot_days: tuple[float, ...] = (2.5, 5.0, 10.0)

    def __post_init__(self) -> None:
        # unknown names fail at load, by the checks build_flood meets
        fv.FlowParams(get_preset(self.scenario).cset(), 0.0,
                      self.source_model)
        for key, hint in typing.get_type_hints(FloodConfig).items():
            value = getattr(self, key)
            if hint is float and not math.isfinite(value):
                raise ValueError(f"{key} must be a finite number; got "
                                 f"{value!r}")
        # ny = 1 would be a 1D flood, whose k* = k_f (d-1)/d vanishes
        for key, least in (("nx", 1), ("ny", 2), ("n_steps", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}; got "
                                 f"{getattr(self, key)}")
        for key in ("lx", "ly", "t_end_days"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive; got "
                                 f"{getattr(self, key)!r}")
        # the flood's Newton iterate lives in the saturation clamp, and a
        # start on its top clamps every step; the outlet's ghost value is
        # a saturation
        if not con.SAT_EPS <= self.s_init < 1.0 - con.SAT_EPS:
            raise ValueError(f"s_init must lie in [{con.SAT_EPS!r}, "
                             f"{1.0 - con.SAT_EPS!r}); got {self.s_init!r}")
        if not self.inflow_rate >= 0.0:
            raise ValueError("inflow_rate must be non-negative; got "
                             f"{self.inflow_rate!r}")
        if not 0.0 <= self.outlet_saturation <= 1.0:
            raise ValueError("outlet_saturation must lie in [0, 1]; got "
                             f"{self.outlet_saturation!r}")
        # a snapshot at or before day 0 would be the first step's state
        bad = [d for d in self.snapshot_days if not d > 0.0]
        if bad:
            raise ValueError(f"snapshot_days must be positive; got {bad}")


def build_flood(cfg: FloodConfig):
    """(solver, times, snapshot_times) for a flood configuration."""
    scen = get_preset(cfg.scenario)
    cset = scen.cset()
    grid = fv.build_grid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    params = fv.FlowParams(
        cset=cset,
        k_star=fv.effective_permeability(cset.fracture.permeability,
                                         grid.dimension),
        source_model=cfg.source_model)
    bcs = {"xmin": fv.BoundarySpec(kind="inflow",
                                   wetting_rate=cfg.inflow_rate),
           "xmax": fv.BoundarySpec(kind="dirichlet",
                                   saturation=cfg.outlet_saturation,
                                   pressure_n=cfg.outlet_pressure_n)}
    solver = fv.FractureFlowSolver(grid, params, bcs)
    times = uniform_times(cfg.t_end_days * DAY, cfg.n_steps)
    snap_days = sorted({d for d in cfg.snapshot_days
                        if d <= cfg.t_end_days} | {cfg.t_end_days})
    return solver, times, tuple(d * DAY for d in snap_days)


def load_flood_config(path: str | None, **flags) -> FloodConfig:
    """The flood of a YAML file of FloodConfig keys, or of the defaults
    for path None, flags (the same keys) merged over it."""
    return _from_mapping(FloodConfig,
                         None if path is None else _read_yaml(path), flags)


def run_flood(cfg: FloodConfig) -> fv.FlowResult:
    solver, times, snaps = build_flood(cfg)
    return solver.run(cfg.s_init, cfg.pn_init, times, snapshot_times=snaps)


# ---------------------------------------------------------------------------
# deterministic writers (floats via repr for byte-stable output)

EXCHANGE_HEADER = ("time_days", "q_w_per_delta", "method", "delta")


def write_csv(path: str, header, rows) -> None:
    """A header line, then one line per row: floats via repr(float(v)),
    everything else via str(v)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row) + "\n")


def write_exchange_csv(path: str, series_list) -> None:
    """Samples of all series, one row each, per-delta normalization:
    time_days,q_w_per_delta,method,delta."""
    write_csv(path, EXCHANGE_HEADER, (
        (t / DAY, v, sd.method, sd.delta)
        for sd in (series.per_delta() for series in series_list)
        for t, v in zip(sd.times, sd.values)))


def read_exchange_csv(path: str) -> list:
    """Parse an exchange CSV back into ExchangeSeries (one per method,
    delta pair, in file order). Method tags must be known, times, values
    and deltas finite, and times strictly increasing within each series;
    a malformed row fails with its file and line."""
    groups: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        if tuple(fh.readline().strip().split(",")) != EXCHANGE_HEADER:
            raise ValueError(f"{path} is not an exchange CSV")
        for lineno, line in enumerate(fh, start=2):
            try:
                t, q, method, delta = line.strip().split(",")
                if method not in EXCHANGE_METHODS:
                    raise ValueError(f"unknown method tag {method!r}")
                key, t, q = (method, float(delta)), float(t) * DAY, float(q)
                if not np.isfinite(key[1]):     # nan would key every row apart
                    raise ValueError("delta must be finite")
                times, values = groups.setdefault(key, ([], []))
                if not np.isfinite((t, q)).all():
                    raise ValueError("time and value must be finite")
                if times and not t > times[-1]:
                    raise ValueError(f"time does not increase within the "
                                     f"{method}, delta {delta} series")
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            times.append(t)
            values.append(q)
    return [ExchangeSeries(np.array(times), np.array(values), method, delta,
                           divided_by_delta=True)
            for (method, delta), (times, values) in groups.items()]


def write_comparison_csv(path: str, rows) -> None:
    """Comparison metrics: one row per (series, reference) pair."""
    cols = ("method", "delta", "reference", "ref_delta", "t_lo_days",
            "t_hi_days", "norm", "value")
    write_csv(path, cols, ([row[c] for c in cols] for row in rows))


def write_field_csv(path: str, grid: TensorMesh, saturation,
                    pressure_w, pressure_n) -> None:
    """Cell fields: cell,x,y,saturation,pressure_w,pressure_n."""
    centers = grid.centers
    y = centers[:, 1] if grid.dimension == 2 else np.zeros(len(centers))
    write_csv(path, ("cell", "x", "y", "saturation", "pressure_w",
                     "pressure_n"),
              zip(range(grid.n_cells), centers[:, 0], y, saturation,
                  pressure_w, pressure_n))


def write_mass_balance_csv(path: str, steps) -> None:
    """Per-step balance log of a flood run."""
    write_csv(path, ("step", "time_days", "dt_days", "newton_iters",
                     "water_accum", "water_source", "water_boundary",
                     "nonwetting_boundary", "water_defect", "volume_defect",
                     "clamped"),
              ((i, st.t / DAY, st.dt / DAY, st.newton_iters, st.water_accum,
                st.water_source, st.water_boundary, st.nonwetting_boundary,
                st.water_defect, st.volume_defect, int(st.clamped))
               for i, st in enumerate(steps)))


def write_manifest(path: str, config: dict, outputs: list) -> None:
    import yaml

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump({"config": config, "outputs": sorted(outputs)}, fh,
                       sort_keys=True)
