"""One benchmark invocation in a fresh interpreter.

    python3 perfbench/child.py '<request json>'

The request names the repository root, the sweep config, the output
directory, the seed, ``--jobs``, whether to trace, and the policy kinds to
warm up.  The child imports eeecoal from ``<root>/src`` (and from nowhere
else), makes one tiny ``run()`` per policy kind, then calls
``eeecoal.cli.main`` once.  It prints one JSON line with the instant set-up
ended on the ``time.perf_counter`` clock (CLOCK_MONOTONIC on Linux, shared
with the parent), the CLI's wall time, exit code, peak RSS, what each
``SimReport`` said, and the layer metrics when tracing.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _backend():
    try:
        accel = importlib.import_module("eeecoal._accel")
    except ImportError:
        return None
    return getattr(accel, "NUMBA_ENABLED", None)


def _warm_up(kinds):
    from eeecoal import EeeParams, FixedSize, Poisson, PolicyConfig, TrafficSpec, run

    policies = {
        "none": lambda: PolicyConfig.none(),
        "static_timer": lambda: PolicyConfig.static_timer(24.0),
        "static_size": lambda: PolicyConfig.static_size(12),
        "static_dual": lambda: PolicyConfig.static_dual(24.0, 12),
        "dynamic_timer": lambda: PolicyConfig.dynamic_timer(16.0),
        "dynamic_size": lambda: PolicyConfig.dynamic_size(16.0),
        "dynamic_size_cubic": lambda: PolicyConfig.dynamic_size(16.0, solver="cubic"),
    }
    spec = TrafficSpec(arrival=Poisson(5000.0 / 12000.0), sizes=FixedSize(1500))
    for kind in kinds:
        run(spec, policies[kind](), EeeParams(), n_frames=300, seed=0)


def _capture_reports(simcore, reports):
    """Wrap ``simcore.run`` (as the CLI looks it up) to keep each report's counts."""
    run = simcore.run

    def captured(*args, **kwargs):
        r = run(*args, **kwargs)
        reports.append({
            "n_frames": int(r.n_frames),
            "n_cycles": int(r.n_cycles),
            "warmed_up": bool(r.warmed_up),
            "overload": bool(r.overload),
            "suspend_fraction": float(r.suspend_fraction),
            "phi": float(r.measured_phi),
            "delay_us": float(r.mean_delay_us),
        })
        return r

    simcore.run = captured


def main() -> int:
    req = json.loads(sys.argv[1])
    src = Path(req["root"]) / "src"
    sys.path.insert(0, str(src))
    import eeecoal

    if Path(eeecoal.__file__).resolve().parent != (src / "eeecoal").resolve():
        print(f"eeecoal imported from {eeecoal.__file__}, not {src}", file=sys.stderr)
        return 3
    import numpy
    from eeecoal import cli, simcore

    numba = _backend()
    _warm_up(req["warmup"])
    t_ready = time.perf_counter()

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer(numba=bool(numba))
    reports = []
    _capture_reports(simcore, reports)

    argv = ["sweep", "--config", req["config"], "--out", req["out"],
            "--seed", str(req["seed"]), "--jobs", str(req["jobs"])]
    stdout = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.root(cli.main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported to the parent, which counts the points failed
        code, error = 1, traceback.format_exc()
    wall = time.perf_counter() - t0

    layers = None
    if tracer is not None and code == 0:
        paths = {p for st in tracer.stats.values() for p in st.paths}
        line_counts = {}
        for p in paths:
            with open(p, "rb") as fh:
                line_counts[p] = sum(1 for _ in fh)
        layers = tracer.metrics(reports, line_counts)

    print(json.dumps({
        "t_ready": t_ready,
        "wall_s": wall,
        "exit": code,
        "error": error,
        "written": stdout.getvalue().splitlines(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reports": reports,
        "numba": numba,
        "numpy": numpy.__version__,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
