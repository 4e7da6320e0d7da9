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
byte-for-byte given the same seed.
"""

import argparse
import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, simcore, traffic
from .analytic import EeeParams, TrafficStats
from .config import Config, ConfigError, parse_call
from .policy import PolicyConfig, predict

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


def parse_arrival(text: str, lam: float):
    name, args = parse_call(text, "arrival")
    if name == "poisson":
        if args:
            raise ConfigError("arrival poisson takes no arguments (rate comes from rate_gbps)")
        return traffic.Poisson(lam)
    if name == "pareto":
        if len(args) != 1:
            raise ConfigError("arrival pareto needs one argument: the shape alpha")
        return traffic.Pareto(alpha=float(args[0]), lam=lam)
    raise ConfigError(f"arrival: unknown process {name!r}")


def parse_sizes(text: str):
    name, args = parse_call(text, "sizes")
    try:
        if name == "fixed":
            if len(args) != 1:
                raise ConfigError("sizes fixed needs one argument: bytes")
            return traffic.FixedSize(int(args[0]))
        if name == "bimodal":
            if len(args) != 3:
                raise ConfigError("sizes bimodal needs three arguments: p_small, small, large")
            return traffic.BimodalSize(float(args[0]), int(args[1]), int(args[2]))
    except ValueError:
        raise ConfigError(f"sizes: bad arguments in {text!r}") from None
    raise ConfigError(f"sizes: unknown model {name!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    rates_gbps: tuple[float, ...]
    taus_us: tuple[float, ...]
    policies: tuple[tuple[PolicyConfig, ...], ...]   # per config line; adaptive: per tau
    arrival_text: str | None
    sizes: object | None
    trace: traffic.Trace | None          # read and checked once per experiment
    params: EeeParams
    horizon_frames: int | None
    horizon_time_us: float | None
    warmup_cycles: int
    cdf_bin_us: float
    seed: int
    out_dir: Path
    jobs: int


def build_spec(mode: str, cfg: Config, args) -> ExperimentSpec:
    cfg.check_known(ALLOWED_KEYS)
    trace_path = cfg.get_str("trace")
    arrival_text = cfg.get_str("arrival")
    sizes_text = cfg.get_str("sizes")
    if trace_path is None:
        if arrival_text is None or sizes_text is None:
            raise ConfigError("config needs either 'trace' or both 'arrival' and 'sizes'")
        sizes = parse_sizes(sizes_text)
    else:
        if arrival_text is not None or sizes_text is not None:
            raise ConfigError("'trace' excludes 'arrival'/'sizes'")
        sizes = None

    params = EeeParams(
        phi_off=cfg.get_float("phi_off", 0.1),
        ts=cfg.get_float("ts_us", 2.88),
        tw=cfg.get_float("tw_us", 4.48),
        line_rate=cfg.get_float("line_rate_gbps", 10.0) * 1e9,
    )

    rates = tuple(cfg.get_float_list("rate_gbps"))
    taus = tuple(cfg.get_float_list("tau_us"))
    policies = tuple(_policy_line(p, taus) for p in cfg.get_str_list("policy"))
    for line in policies:
        for policy in line:
            policy.validate_against(params)

    if trace_path is None and not rates:
        raise ConfigError("rate_gbps: need at least one rate (or use a trace)")
    if mode in ("analytic", "sim", "sweep", "cdf") and not policies:
        raise ConfigError("policy: need at least one policy")
    if mode == "bound" and not taus:
        raise ConfigError("tau_us: bound mode needs at least one target delay")
    for r in rates:
        if r * 1e9 >= params.line_rate:
            print(
                f"warning: rate {r:g} Gb/s >= line rate "
                f"{params.line_rate / 1e9:g} Gb/s, expect overload",
                file=sys.stderr,
            )

    horizon_frames = cfg.get_int("horizon_frames")
    horizon_time = cfg.get_float("horizon_time_us")
    if horizon_frames is not None and horizon_time is not None:
        raise ConfigError("give horizon_frames or horizon_time_us, not both")
    if horizon_frames is None and horizon_time is None and trace_path is None:
        horizon_frames = DEFAULT_HORIZON_FRAMES

    seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
    # looked up on the module, where tracing and tests wrap it
    trace = None if trace_path is None else traffic.load_trace(trace_path)
    if trace is not None and (trace.n_frames < 2 or trace.times[-1] == trace.times[0]):
        raise ConfigError(f"trace {trace_path}: {trace.n_frames} frame(s) spanning 0 us; "
                          "need at least two frames over a positive time span")

    return ExperimentSpec(
        mode=mode,
        rates_gbps=rates,
        taus_us=taus,
        policies=policies,
        arrival_text=arrival_text,
        sizes=sizes,
        trace=trace,
        params=params,
        horizon_frames=horizon_frames,
        horizon_time_us=horizon_time,
        warmup_cycles=cfg.get_int("warmup_cycles", simcore.DEFAULT_WARMUP_CYCLES),
        cdf_bin_us=cfg.get_float("cdf_bin_us", 1.0),
        seed=seed,
        out_dir=Path(args.out),
        jobs=max(1, args.jobs),
    )


def _policy_line(text: str, taus: tuple[float, ...]) -> tuple[PolicyConfig, ...]:
    """The policies of one config line: one per tau for an adaptive kind."""
    if not taus:
        return (PolicyConfig.parse(text),)
    grid = tuple(PolicyConfig.parse(text, tau) for tau in taus)
    return grid if grid[0].is_dynamic else grid[:1]


# --------------------------------------------------------------------------
# per-point computations
# --------------------------------------------------------------------------

def _traffic_for(spec: ExperimentSpec, rate_gbps: float | None) -> traffic.TrafficSpec:
    if spec.trace is not None:
        return traffic.TrafficSpec(trace=spec.trace)
    lam = traffic.rate_to_lambda(rate_gbps * 1e9, spec.sizes)
    return traffic.TrafficSpec(
        arrival=parse_arrival(spec.arrival_text, lam), sizes=spec.sizes
    )


def _stats_for(tspec: traffic.TrafficSpec, params: EeeParams) -> TrafficStats | None:
    try:
        if tspec.is_trace:
            return traffic.measured_stats(tspec.trace.times, tspec.trace.sizes, params.line_rate)
        return traffic.theoretical_stats(tspec, params.line_rate)
    except ValueError:
        return None  # e.g. overloaded: no stable-model stats


def _analytic_values(policy: PolicyConfig, params: EeeParams, stats: TrafficStats | None):
    """Closed-form row values of one point: (phi, delay, toff, V, Q_w), nan where none."""
    if stats is None:
        return (math.nan,) * 5
    out, v, qw = predict(policy, stats, params)
    return out.energy_ratio, out.mean_delay, out.t_off_mean, v, qw


@dataclass(frozen=True)
class _Point:
    """One grid point; picklable payload for worker processes."""

    spec: ExperimentSpec
    policy: PolicyConfig
    rate_gbps: float | None
    tau: float | None
    index: int


def _points(spec: ExperimentSpec, line: tuple[PolicyConfig, ...], start_index: int) -> list[_Point]:
    rates = list(spec.rates_gbps) if spec.trace is None else [None]
    pts = []
    idx = start_index
    for rate in rates:
        for policy in line:
            tau = policy.tau if policy.is_dynamic else None
            pts.append(_Point(spec, policy, rate, tau, idx))
            idx += 1
    return pts


def _run_sim(point: _Point):
    spec = point.spec
    tspec = _traffic_for(spec, point.rate_gbps)
    seed = np.random.SeedSequence([spec.seed, point.index])
    kwargs = {}
    if spec.trace is None or spec.horizon_frames is not None or spec.horizon_time_us is not None:
        if spec.horizon_time_us is not None:
            kwargs["time_us"] = spec.horizon_time_us
        else:
            kwargs["n_frames"] = spec.horizon_frames or DEFAULT_HORIZON_FRAMES
    return simcore.run(
        tspec, point.policy, spec.params,
        seed=seed, warmup_cycles=spec.warmup_cycles, **kwargs,
    ), tspec


def _row_base(point: _Point) -> dict:
    rate = point.rate_gbps
    if rate is None and point.spec.trace is not None:
        rate = point.spec.trace.mean_rate_bps / 1e9
    return {c: None for c in COLUMNS} | {"rate_gbps": rate, "tau_us": point.tau}


def _analytic_row(point: _Point) -> dict:
    spec = point.spec
    row = _row_base(point)
    tspec = _traffic_for(spec, point.rate_gbps)
    stats = _stats_for(tspec, spec.params)
    phi, delay, toff, v, qw = _analytic_values(point.policy, spec.params, stats)
    row.update(phi_analytic=phi, delay_analytic_us=delay, toff_analytic_us=toff,
               mean_V_us=v, mean_Qw=qw)
    if stats is not None and point.tau is not None:
        row["bound_phi"] = analytic.energy_lower_bound(point.tau, spec.params, stats)
    return row


def _bound_row(point: _Point) -> dict:
    spec = point.spec
    row = _row_base(point)
    tspec = _traffic_for(spec, point.rate_gbps)
    stats = _stats_for(tspec, spec.params)
    if stats is not None:
        t_up = analytic.toff_upper_bound(point.tau, spec.params, stats)
        row["toff_analytic_us"] = None if math.isnan(t_up) else t_up
        row["bound_phi"] = analytic.energy_lower_bound(point.tau, spec.params, stats)
    return row


def _sim_row(point: _Point) -> dict:
    spec = point.spec
    row = _row_base(point)
    report, tspec = _run_sim(point)
    stats = _stats_for(tspec, spec.params)
    phi, delay, toff, _, _ = _analytic_values(point.policy, spec.params, stats)
    row.update(phi_analytic=phi, delay_analytic_us=delay, toff_analytic_us=toff)
    row.update(
        phi_measured=report.measured_phi,
        delay_measured_us=report.mean_delay_us,
        toff_measured_us=report.mean_toff_us,
        mean_V_us=report.mean_planned_v_us,
        mean_Qw=report.mean_planned_qw,
        suspend_frac=report.suspend_fraction,
        seed=spec.seed,
    )
    if not report.warmed_up:
        where = "the trace" if point.rate_gbps is None else f"{point.rate_gbps:g} Gb/s"
        tau = "" if point.tau is None else f", tau {point.tau:g} us"
        print(f"warning: {point.policy.label()} at {where}{tau}: {report.n_cycles} cycles "
              f"for warmup_cycles = {spec.warmup_cycles}; the row averages over every cycle",
              file=sys.stderr)
    if stats is not None and not math.isnan(report.mean_delay_us) and report.mean_delay_us > 0:
        row["bound_phi"] = analytic.energy_lower_bound(report.mean_delay_us, spec.params, stats)
    return row


def _cdf_point(point: _Point):
    report, _ = _run_sim(point)
    edges, cdf = simcore.delay_cdf(report, point.spec.cdf_bin_us)
    return edges, cdf


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
    label = point.policy.label()
    rate = "trace" if point.rate_gbps is None else f"{point.rate_gbps:g}gbps"
    tau = "" if point.tau is None else f"_{point.tau:g}us"
    return f"cdf_{label}_{rate}{tau}.csv"


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Execute all grid points and write CSVs; returns the written paths."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    if spec.mode == "bound":
        rates = list(spec.rates_gbps) if spec.trace is None else [None]
        pts = [_Point(spec, PolicyConfig.none(), r, t, 0)
               for r in rates for t in spec.taus_us]
        path = spec.out_dir / "bound.csv"
        _write_csv(path, COLUMNS, [_bound_row(p) for p in pts])
        return [path]

    # one CSV per policy; grid points numbered across the whole experiment
    # so per-point seeds stay stable
    index = 0
    groups = []
    for line in spec.policies:
        pts = _points(spec, line, index)
        index += len(pts)
        groups.append((line[0], pts))

    if spec.mode == "analytic":
        for pol, pts in groups:
            path = spec.out_dir / f"analytic_{pol.label()}.csv"
            _write_csv(path, COLUMNS, [_analytic_row(p) for p in pts])
            written.append(path)
        return written

    if spec.mode == "cdf":
        for pol, pts in groups:
            results = _map_points(_cdf_point, pts, spec.jobs)
            for point, (edges, cdf) in zip(pts, results):
                path = spec.out_dir / _cdf_filename(point)
                rows = [{"delay_us": float(e), "cdf": float(c)} for e, c in zip(edges, cdf)]
                _write_csv(path, ["delay_us", "cdf"], rows)
                written.append(path)
        return written

    # sim / sweep
    for pol, pts in groups:
        rows = _map_points(_sim_row, pts, spec.jobs)
        path = spec.out_dir / f"{spec.mode}_{pol.label()}.csv"
        _write_csv(path, COLUMNS, rows)
        written.append(path)
    return written


def _map_points(fn, pts, jobs):
    if jobs <= 1 or len(pts) <= 1:
        return [fn(p) for p in pts]
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
        cfg = Config.load(args.config)
        spec = build_spec(args.mode, cfg, args)
        if spec.mode == "sim":
            n_points = sum(len(_points(spec, line, 0)) for line in spec.policies)
            if n_points > 1:
                print(
                    f"note: sim mode with {n_points} grid points; "
                    "use sweep for grids", file=sys.stderr,
                )
        written = run_experiment(spec)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
