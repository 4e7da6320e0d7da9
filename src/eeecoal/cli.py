"""Batch experiment runner.

Subcommands::

    eeecoal analytic --config exp.cfg --out results/
    eeecoal bound    --config exp.cfg --out results/
    eeecoal sim      --config exp.cfg --out results/ [--seed N] [--jobs N]
    eeecoal sweep    --config exp.cfg --out results/ [--seed N] [--jobs N]
    eeecoal cdf      --config exp.cfg --out results/ [--seed N] [--jobs N]

``analytic`` evaluates the closed-form curves only, ``bound`` the efficiency
limits, ``sim``/``sweep`` run the simulator over the configured grid (sim
expects a single point, sweep a grid; both share the engine), and ``cdf``
emits empirical delay CDFs.  One CSV per (mode, policy) is written into
--out; rows are in deterministic grid order and runs are reproducible
byte-for-byte given the same seed.  Every fault in the config is reported
before any output is written.
"""

import argparse
import csv
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, simcore, traffic
from .analytic import EeeParams, TrafficStats
from .config import Config, ConfigError, parse_call
from .policy import PolicyConfig, predict
from .traffic import TrafficSpec

COLUMNS = [
    "rate_gbps", "tau_us",
    "phi_analytic", "phi_measured",
    "delay_analytic_us", "delay_measured_us",
    "toff_analytic_us", "toff_measured_us",
    "bound_phi",
    "mean_V_us", "mean_Qw", "suspend_frac",
    "seed",
]

ALLOWED_KEYS = {
    "arrival", "sizes", "trace",
    "line_rate_gbps", "phi_off", "ts_us", "tw_us",
    "rate_gbps", "tau_us", "policy",
    "horizon_frames", "horizon_time_us", "warmup_cycles",
    "cdf_bin_us", "seed",
}

DEFAULT_HORIZON_FRAMES = 1_000_000

SIM_MODES = ("sim", "sweep", "cdf")


# config grammar of the traffic models: the constructor and its argument
# converters; an arrival process takes its rate (frames/us) last, from rate_gbps
TRAFFIC_MODELS = {
    "arrival": {"poisson": (traffic.Poisson, ()), "pareto": (traffic.Pareto, (float,))},
    "sizes": {"fixed": (traffic.FixedSize, (int,)),
              "bimodal": (traffic.BimodalSize, (float, int, int))},
}


def parse_model(key: str, text: str, tails=((),)) -> list:
    """The model of a traffic key's config text, once per tail of extra arguments."""
    name, args = parse_call(text, key)
    if name not in TRAFFIC_MODELS[key]:
        raise ConfigError(f"{key}: unknown model {name!r}")
    make, converters = TRAFFIC_MODELS[key][name]
    if len(args) != len(converters):
        raise ConfigError(f"{key} {text!r}: expected {len(converters)} argument(s)")
    try:
        args = [convert(a) for convert, a in zip(converters, args)]
        return [make(*args, *tail) for tail in tails]
    except ValueError as exc:
        raise ConfigError(f"{key} {text!r}: {exc}") from None


@dataclass(frozen=True)
class Load:
    """The traffic of one configured rate, or of the trace, resolved once per experiment."""

    rate_gbps: float                  # the configured rate, or the trace's mean rate
    traffic: TrafficSpec
    stats: TrafficStats | None        # None without stable-model stats (overload)


def build_spec(mode: str, cfg: Config, args) -> list[tuple[str, list["_Point"]]]:
    """The points of each output CSV, in row order; ConfigError on any fault in the experiment."""
    cfg.check_known(ALLOWED_KEYS)
    trace_path = cfg.get_str("trace")
    arrival_text = cfg.get_str("arrival")
    sizes_text = cfg.get_str("sizes")
    if trace_path is None:
        if arrival_text is None or sizes_text is None:
            raise ConfigError("config needs either 'trace' or both 'arrival' and 'sizes'")
    elif arrival_text is not None or sizes_text is not None:
        raise ConfigError("'trace' excludes 'arrival'/'sizes'")

    params = EeeParams(
        phi_off=cfg.get_float("phi_off", 0.1),
        ts=cfg.get_float("ts_us", 2.88),
        tw=cfg.get_float("tw_us", 4.48),
        line_rate=cfg.get_float("line_rate_gbps", 10.0) * 1e9,
    )

    rates = tuple(cfg.get_float_list("rate_gbps"))
    taus = tuple(cfg.get_float_list("tau_us"))
    horizon_frames = cfg.get_int("horizon_frames")
    horizon_time = cfg.get_float("horizon_time_us")
    warmup_cycles = cfg.get_int("warmup_cycles", simcore.DEFAULT_WARMUP_CYCLES)
    cdf_bin_us = cfg.get_float("cdf_bin_us", 1.0)
    positive = {"rate_gbps": rates, "tau_us": taus, "horizon_frames": [horizon_frames],
                "horizon_time_us": [horizon_time], "cdf_bin_us": [cdf_bin_us]}
    for key, values in positive.items():
        for x in values:
            if x is not None and x <= 0:
                raise ConfigError(f"{key}: must be positive, got {x:g}")
    if warmup_cycles < 0:
        raise ConfigError(f"warmup_cycles: must be at least 0, got {warmup_cycles}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs: need at least one worker process, got {args.jobs}")
    if horizon_frames is not None and horizon_time is not None:
        raise ConfigError("give horizon_frames or horizon_time_us, not both")

    lines = [_policy_cells(p, taus) for p in cfg.get_str_list("policy")]
    labels = set()
    for cells in lines:
        for policy, _ in cells:
            policy.validate_against(params)
        # the label names the line's output files
        label = cells[0][0].label()
        if label in labels:
            raise ConfigError(f"policy: two lines share the label {label!r}; "
                              "their outputs would overwrite each other")
        labels.add(label)

    if trace_path is None and not rates:
        raise ConfigError("rate_gbps: need at least one rate (or use a trace)")
    if trace_path is not None and rates:
        raise ConfigError("rate_gbps: a trace is replayed at its own rate; drop rate_gbps")
    if mode != "bound" and not lines:
        raise ConfigError("policy: need at least one policy")
    if mode == "bound" and not taus:
        raise ConfigError("tau_us: bound mode needs at least one target delay")

    if trace_path is None:
        sizes, = parse_model("sizes", sizes_text)
        lams = [(traffic.rate_to_lambda(r * 1e9, sizes),) for r in rates]
        sources = [(r, TrafficSpec(arrival=arrival, sizes=sizes))
                   for r, arrival in zip(rates, parse_model("arrival", arrival_text, lams))]
    else:
        # looked up on the module, where tracing and tests wrap it
        trace = traffic.load_trace(trace_path)
        if trace.n_frames < 2 or trace.times[-1] == trace.times[0]:
            raise ConfigError(f"trace {trace_path}: {trace.n_frames} frame(s) spanning 0 us; "
                              "need at least two frames over a positive time span")
        if horizon_time is not None and horizon_time < trace.times[0]:
            raise ConfigError(f"horizon_time_us: {horizon_time:g} us ends before the "
                              f"trace's first frame at {trace.times[0]:g} us")
        sources = [(trace.mean_rate_bps / 1e9, TrafficSpec(trace=trace))]

    if horizon_time is not None:
        horizon = {"time_us": horizon_time}
    elif horizon_frames is not None or trace_path is None:
        horizon = {"n_frames": horizon_frames or DEFAULT_HORIZON_FRAMES}
    else:
        horizon = {}                    # replay the whole trace
    for r in rates:
        if r * 1e9 >= params.line_rate:
            print(f"warning: rate {r:g} Gb/s >= line rate {params.line_rate / 1e9:g} Gb/s, "
                  "expect overload", file=sys.stderr)

    loads = [Load(rate, tspec, _stats_for(tspec, params)) for rate, tspec in sources]
    seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
    if mode == "bound":
        groups = [("bound", [(PolicyConfig.none(), tau) for tau in taus])]
    else:
        groups = [(f"{mode}_{cells[0][0].label()}", cells) for cells in lines]
    index = itertools.count()
    return [(name, [_Point(mode, policy, load, tau, next(index), params, horizon, warmup_cycles,
                           cdf_bin_us, seed)
                    for load in loads for policy, tau in cells])
            for name, cells in groups]


def _policy_cells(text: str, taus: tuple[float, ...]) -> list[tuple[PolicyConfig, float | None]]:
    """The (policy, tau) pairs of one config line: one per tau for an adaptive kind,
    otherwise one pair with tau None."""
    policies = [PolicyConfig.parse(text, tau) for tau in taus] or [PolicyConfig.parse(text)]
    return [(p, p.tau) for p in policies] if policies[0].is_dynamic else [(policies[0], None)]


def _stats_for(tspec: TrafficSpec, params: EeeParams) -> TrafficStats | None:
    try:
        if tspec.is_trace:
            return traffic.measured_stats(tspec.trace.times, tspec.trace.sizes, params.line_rate)
        return traffic.theoretical_stats(tspec, params.line_rate)
    except ValueError:
        return None  # e.g. overloaded: no stable-model stats


# --------------------------------------------------------------------------
# per-point computations
# --------------------------------------------------------------------------

def _analytic_values(policy: PolicyConfig, params: EeeParams, stats: TrafficStats | None):
    """Closed-form row values of one point: (phi, delay, toff, V, Q_w), nan where none."""
    if stats is None:
        return (math.nan,) * 5
    out, v, qw = predict(policy, stats, params)
    return out.energy_ratio, out.mean_delay, out.t_off_mean, v, qw


@dataclass(frozen=True)
class _Point:
    """One grid point with what its row needs; the picklable payload of a worker process."""

    mode: str
    policy: PolicyConfig
    load: Load
    tau: float | None
    index: int                # numbered across the experiment, for the point's seed
    params: EeeParams
    horizon: dict
    warmup_cycles: int
    cdf_bin_us: float
    seed: int


def _where(point: _Point) -> str:
    """The rate and target of a point, as warnings and errors name it."""
    load = point.load
    where = "the trace" if load.traffic.is_trace else f"{load.rate_gbps:g} Gb/s"
    return where if point.tau is None else f"{where}, tau {point.tau:g} us"


def _simulate(point: _Point) -> simcore.SimReport:
    try:
        report = simcore.run(
            point.load.traffic, point.policy, point.params,
            seed=np.random.SeedSequence([point.seed, point.index]),
            warmup_cycles=point.warmup_cycles, **point.horizon,
        )
    except simcore.EmptyHorizonError:
        # build_spec rejects a trace horizon before the first frame; a
        # generated one is random, so only its draw can find it empty
        raise ConfigError(f"horizon_time_us: {point.horizon['time_us']:g} us holds no frame "
                          f"at {_where(point)}") from None
    load = point.load
    # build_spec has warned about a configured rate at or above the line rate
    if report.overload and (load.traffic.is_trace or load.rate_gbps * 1e9 < point.params.line_rate):
        print(f"warning: {point.policy.label()} at {_where(point)}: the frames offer at least "
              f"the line rate {point.params.line_rate / 1e9:g} Gb/s, expect overload",
              file=sys.stderr)
    return report


def _row(point: _Point) -> dict:
    """The CSV row of one point: the columns its mode fills, the others blank."""
    params, stats = point.params, point.load.stats
    row = {c: None for c in COLUMNS} | {"rate_gbps": point.load.rate_gbps, "tau_us": point.tau}
    bound_at = point.tau                # the delay bound_phi is evaluated at
    if point.mode == "bound":
        if stats is not None:
            row["toff_analytic_us"] = analytic.toff_upper_bound(point.tau, params, stats)
    else:
        phi, delay, toff, v, qw = _analytic_values(point.policy, params, stats)
        row.update(phi_analytic=phi, delay_analytic_us=delay, toff_analytic_us=toff,
                   mean_V_us=v, mean_Qw=qw)
    if point.mode in SIM_MODES:
        report = _simulate(point)
        row.update(
            phi_measured=report.measured_phi,
            delay_measured_us=report.mean_delay_us,
            toff_measured_us=report.mean_toff_us,
            mean_V_us=report.mean_planned_v_us,
            mean_Qw=report.mean_planned_qw,
            suspend_frac=report.suspend_fraction,
            seed=point.seed,
        )
        if not report.warmed_up:
            print(f"warning: {point.policy.label()} at {_where(point)}: {report.n_cycles} cycles "
                  f"for warmup_cycles = {point.warmup_cycles}; the row averages over every cycle",
                  file=sys.stderr)
        bound_at = report.mean_delay_us if report.mean_delay_us > 0 else None
    if stats is not None and bound_at is not None:
        row["bound_phi"] = analytic.energy_lower_bound(bound_at, params, stats)
    return row


def _cdf_point(point: _Point):
    return simcore.delay_cdf(_simulate(point), point.cdf_bin_us)


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.10g}"
    return str(x)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _cdf_filename(point: _Point) -> str:
    load = point.load
    rate = "trace" if load.traffic.is_trace else f"{load.rate_gbps:g}gbps"
    tau = "" if point.tau is None else f"_{point.tau:g}us"
    return f"cdf_{point.policy.label()}_{rate}{tau}.csv"


def run_experiment(groups: list[tuple[str, list[_Point]]], out_dir: Path, jobs: int) -> list[Path]:
    """Execute all grid points and write CSVs; returns the written paths.

    Every point is computed before the output directory is made, so a fault
    that only a run finds leaves no output behind.
    """
    points = [point for _, group in groups for point in group]
    mode = points[0].mode
    if mode == "sim" and len(points) > 1:
        print(f"note: sim mode with {len(points)} grid points; use sweep for grids",
              file=sys.stderr)
    results = iter(_map_points(_cdf_point if mode == "cdf" else _row, points, jobs))
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, group in groups:
        if mode == "cdf":
            for point, (edges, cdf) in zip(group, results):
                path = out_dir / _cdf_filename(point)
                rows = [{"delay_us": float(e), "cdf": float(c)} for e, c in zip(edges, cdf)]
                _write_csv(path, ["delay_us", "cdf"], rows)
                written.append(path)
        else:
            path = out_dir / f"{name}.csv"
            _write_csv(path, COLUMNS, [next(results) for _ in group])
            written.append(path)
    return written


def _map_points(fn, pts, jobs):
    if jobs <= 1 or len(pts) <= 1:
        return [fn(p) for p in pts]
    # imported here: it adds to the start-up of every run that never uses it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, pts))


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eeecoal",
        description="EEE frame-coalescing experiments: models, bounds and simulation sweeps.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in [
        ("analytic", "closed-form parameter/energy/delay curves"),
        ("bound", "sleep-time and energy bounds for delay targets"),
        ("sim", "simulate a single configuration"),
        ("sweep", "simulate a grid of configurations"),
        ("cdf", "empirical delay CDFs from simulation"),
    ]:
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        groups = build_spec(args.mode, Config.load(args.config), args)
        jobs = args.jobs if args.mode in SIM_MODES else 1     # closed forms run in-process
        written = run_experiment(groups, Path(args.out), jobs)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
