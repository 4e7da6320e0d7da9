#!/usr/bin/env python3
"""eeecoal benchmark: end-to-end and per-layer numbers for three sweep workloads.

    python3 perfbench/run.py --workload sweep-static --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports eeecoal from ``src/``.  For
``--seconds`` it repeats one ``eeecoal sweep --jobs 1`` invocation, each in a
fresh interpreter and one at a time (a closed loop with one client).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics.  Every
run also checks its outputs: the CSVs of all invocations must agree byte for
byte, a ``--jobs 2`` rerun must reproduce them, and a run on the reference
seed must match ``reference.json`` (row counts and per-point cycle and frame
counts exactly, numbers within ``REF_RTOL``).  Detail lines go to stdout
first; the last line is the JSON result.  Scratch files live under
``.perfbench/`` and are removed on exit.

``--write-reference`` regenerates ``reference.json`` for the workload and
scale from the reference seed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

REF_RTOL = 1e-6          # numeric CSV cells, and CSV against SimReport
REF_ATOL = 1e-12
RUN_BUDGET_S = 170.0     # whole run, checks included
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "mframes_per_s": "Mframes/s", "peak_rss_mb": "MB",
}


class Invocation:
    """One child interpreter's outcome and the checks made on it."""

    def __init__(self, setup_s, result, csvs, error):
        self.setup_s = setup_s
        self.result = result          # child's JSON, or None when it failed
        self.csvs = csvs              # [(file name, [row lines])] in write order
        self.error = error

    @property
    def ok(self):
        return self.result is not None and self.result["exit"] == 0

    def rows(self):
        return [(name, row) for name, lines in self.csvs for row in lines[1:]]


def invoke(req, deadline):
    """Run child.py once; waits for it (and its process group) to end."""
    out = Path(req["out"])
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(req)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Invocation(math.nan, None, [], "timed out")
    result, error = None, stderr.strip()[-2000:] or None
    if proc.returncode == 0:
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = error or "no result from child"
        else:
            error = result["error"] or (error if result["exit"] else None)
    csvs = []
    if result is not None:
        try:
            for name in (Path(p).name for p in result["written"]):
                csvs.append((name, (out / name).read_text(encoding="utf-8").splitlines()))
        except OSError as exc:
            error = f"reading CSVs: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    setup = result["t_ready"] - t_spawn if result else math.nan
    return Invocation(setup, result, csvs, error)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=REF_ATOL)


def _cells_close(row, ref):
    a, b = row.split(","), ref.split(",")
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x == "") != (y == ""):
            return False
        if x and not _close(float(x), float(y)):
            return False
    return True


def check(inv, workload, expected_frames, base=None, reference=None, parallel=False):
    """Indices of failed grid points in one invocation (all of them if it failed).

    Each CSV row must be sane and, unless the points ran in worker processes,
    agree with its SimReport.  ``base`` asks for byte-identical rows and equal
    cycle counts; ``reference`` for equal counts and cells within REF_RTOL.
    """
    n = workload.n_points()
    all_points = set(range(n))
    if not inv.ok:
        return all_points
    rows, reports = inv.rows(), inv.result["reports"]
    if len(rows) != n or (not parallel and len(reports) != n):
        return all_points
    header = inv.csvs[0][1][0].split(",")
    base_rows = base.rows() if base is not None and base.ok else []
    if reference is not None:
        ref_rows = [(f, line) for f, lines in reference["files"] for line in lines[1:]]
    failed = set()
    for k, (name, row) in enumerate(rows):
        cells = dict(zip(header, row.split(",")))
        phi = float(cells.get("phi_measured") or "nan")
        delay = float(cells.get("delay_measured_us") or "nan")
        ok = 0.0 < phi <= 1.0 and delay >= 0.0
        if not parallel:
            r = reports[k]
            ok = ok and (r["n_frames"] == expected_frames
                         and _close(phi, r["phi"]) and _close(delay, r["delay_us"]))
        if base is not None:
            ok = ok and k < len(base_rows) and (name, row) == base_rows[k]
            if not parallel:
                ok = ok and r["n_cycles"] == base.result["reports"][k]["n_cycles"]
        if reference is not None:
            ok = ok and k < len(ref_rows) and ref_rows[k][0] == name and _cells_close(
                row, ref_rows[k][1]) and [r["n_frames"], r["n_cycles"]] == reference["points"][k]
        if not ok:
            failed.add(k)
    return failed


def model_errors(inv):
    """Max over rows of |delay_measured/delay_analytic - 1| and |phi_measured - phi_analytic|."""
    d_err = p_err = 0.0
    for _, lines in inv.csvs:
        header = lines[0].split(",")
        for row in lines[1:]:
            c = dict(zip(header, row.split(",")))
            if c["delay_analytic_us"] and c["delay_measured_us"]:
                d_err = max(d_err, abs(float(c["delay_measured_us"]) / float(c["delay_analytic_us"]) - 1.0))
            if c["phi_analytic"] and c["phi_measured"]:
                p_err = max(p_err, abs(float(c["phi_measured"]) - float(c["phi_analytic"])))
    return d_err, p_err


def _metadata(workload, seed, base, scale):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    res = base.result if base is not None and base.ok else {}
    reports = res.get("reports", [])
    numba = res.get("numba")
    return {
        "workload": workload.name,
        "scale": scale,
        "seed": seed,
        "backend": "unknown" if numba is None else ("numba" if numba else "pure-python"),
        "python": platform.python_version(),
        "numpy": res.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "points": workload.n_points(),
        "frames": sum(r["n_frames"] for r in reports),
        "cycles": sum(r["n_cycles"] for r in reports),
    }


def _median(values):
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else None


def _layer_metrics(traced, untraced):
    """Medians over traced invocations; absent metrics keep their reason."""
    layers = [inv.result["layers"] for inv in traced if inv.ok and inv.result["layers"]]
    if not layers:
        return {}
    out = {}
    for name, first in layers[0].items():
        if isinstance(first, str):
            out[name] = {"value": None, "unit": None, "absent": first}
        else:
            out[name] = {"value": _median([l[name][0] for l in layers]), "unit": first[1]}
    walls = [inv.result["wall_s"] for inv in traced if inv.ok]
    accounted = [sum(l[n][0] for n in tracer.PARTITION if not isinstance(l[n], str)) / w
                 for l, w in zip(layers, walls)]
    t_wall = _median(walls)
    u_wall = _median([inv.result["wall_s"] for inv in untraced if inv.ok])
    out["trace.wall_s"] = {"value": t_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": None if u_wall is None else t_wall - u_wall, "unit": "s"}
    out["trace.accounted_frac"] = {"value": _median(accounted), "unit": "fraction"}
    return out


def _shares(layers, designated):
    base = layers.get("trace.wall_s", {}).get("value")
    if not base:
        return None
    shares = {n: layers[n]["value"] / base for n in tracer.PARTITION
              if layers.get(n, {}).get("value") is not None}
    top = max(shares, key=shares.get)
    return {"base": "median traced wall_s", "base_s": base, "designated": designated,
            "designated_share": shares.get(designated), "top": top, "shares": shares}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=wl.SCALES, default="full",
                    help="horizon size; 'tiny' is for the self-test")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the reference-seed outputs in reference.json and exit")
    args = ap.parse_args()

    if not (ROOT / "src" / "eeecoal" / "__init__.py").is_file():
        print(f"error: no eeecoal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S
    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, workload, tmp, deadline) -> int:
    expected_frames = workload.horizon[args.scale]
    counter = count()

    def request(config, seed, trace=False, jobs=1):
        return {"root": str(ROOT), "config": str(config), "out": str(tmp / f"out-{next(counter)}"),
                "seed": seed, "jobs": jobs, "trace": trace, "warmup": list(workload.warmup)}

    # inputs are written before anything is timed
    ref_config = wl.write_config(workload, args.scale, tmp, wl.REF_SEED)
    if args.write_reference:
        inv = invoke(request(ref_config, wl.REF_SEED), deadline)
        if not inv.ok or check(inv, workload, expected_frames):
            print(f"error: reference run failed: {inv.error}", file=sys.stderr)
            return 1
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs.setdefault(workload.name, {})[args.scale] = {
            "seed": wl.REF_SEED,
            "files": inv.csvs,
            "points": [[r["n_frames"], r["n_cycles"]] for r in inv.result["reports"]],
        }
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {workload.name}/{args.scale} to {REFERENCE}")
        return 0
    config = wl.write_config(workload, args.scale, tmp, args.seed)

    untraced, traced = [], []
    t_start = time.perf_counter()
    while (len(untraced) + len(traced) < 2
           or time.perf_counter() - t_start < args.seconds):
        tracing = bool(args.trace) and len(traced) < len(untraced)
        (traced if tracing else untraced).append(
            invoke(request(config, args.seed, trace=tracing), deadline))

    # correctness: every invocation against the first, --jobs 2, reference seed
    base = untraced[0]
    attempted = failed = 0
    notes = []
    for i, inv in enumerate(untraced + traced):
        bad = check(inv, workload, expected_frames, base=None if i == 0 else base)
        attempted, failed = attempted + workload.n_points(), failed + len(bad)
        if bad:
            notes.append(f"invocation {i}: {len(bad)} point(s) failed {inv.error or ''}".strip())
    for label, inv, kw in (
        ("jobs2", invoke(request(config, args.seed, jobs=2), deadline),
         {"base": base, "parallel": True}),
        ("reference", invoke(request(ref_config, wl.REF_SEED), deadline),
         {"reference": _reference(workload, args.scale)}),
    ):
        bad = check(inv, workload, expected_frames, **kw)
        attempted, failed = attempted + workload.n_points(), failed + len(bad)
        if bad:
            notes.append(f"{label}: {len(bad)} point(s) failed {inv.error or ''}".strip())

    meta = _metadata(workload, args.seed, base, args.scale)
    meta.update(fail_frac=failed / attempted,
                untraced_wall_s=[inv.result["wall_s"] for inv in untraced if inv.ok],
                traced_wall_s=[inv.result["wall_s"] for inv in traced if inv.ok])
    print(json.dumps({"meta": meta}))
    for note in notes:
        print(f"check: {note}")

    # seed noise moves the model errors by far more than any end-to-end bound,
    # so they are per-layer metrics, and detail lines of untraced runs
    d_err, p_err = model_errors(base) if base.ok else (None, None)
    model = {"model_delay_err": {"value": d_err, "unit": "fraction"},
             "model_phi_err": {"value": p_err, "unit": "fraction"}}
    if args.trace:
        metrics = _layer_metrics(traced, untraced) | model
        shares = _shares(metrics, workload.designated)
        if shares:
            print(json.dumps({"shares": shares}))
        # warm-up and overload flags per point: the CSVs leave them out
        points = [{"file": name, "row": row.split(",")[:2]} | r
                  for (name, row), r in zip(base.rows(), base.result["reports"])] if base.ok else []
        print(json.dumps({"points": points}))
    else:
        for name, m in model.items():
            print(f"{workload.name} {name} = {m['value']} {m['unit']}")
        ok = [inv for inv in untraced if inv.ok]
        values = {
            "setup_s": _median([inv.setup_s for inv in ok]),
            "wall_s": _median([inv.result["wall_s"] for inv in ok]),
            "mframes_per_s": _median([meta["frames"] / inv.result["wall_s"] / 1e6 for inv in ok]),
            "peak_rss_mb": _median([inv.result["rss_mb"] for inv in ok]),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    for name, m in metrics.items():
        value = m["value"] if m["value"] is not None else f"absent ({m.get('absent', 'no sample')})"
        print(f"{workload.name} {name} = {value} {m['unit'] or ''}".rstrip())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _reference(workload, scale):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    try:
        return refs[workload.name][scale]
    except KeyError:
        return {"files": [], "points": []}


if __name__ == "__main__":
    sys.exit(main())
