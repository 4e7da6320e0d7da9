#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root.

    python3 perfbench/selftest.py

1. Every workload runs once with tiny horizons, untraced and traced.  The
   last line must be the result object with exactly its four keys, the
   run must be correct, and every metric BENCHMARK.json names must be emitted
   with its unit (a per-layer metric may instead be absent with a reason).
2. A wrapped internal that is missing (as after a rename), or compiled by
   numba, is reported absent and the traced invocation still completes.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def _result(proc):
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return res if isinstance(res, dict) and set(res) == RESULT_KEYS else None


def check_workloads(spec):
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _bench(ROOT, "--workload", workload["name"], "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
            res = _result(proc)
            where = f"{workload['name']} --trace {trace}"
            assert proc.returncode == 0 and res is not None, f"{where}: {proc.stderr}"
            assert res["correct"] and res["failed"] == 0, f"{where}: {proc.stdout}"
            assert res["attempted"] >= 1
            for metric in listed:
                got = res["metrics"].get(metric["name"])
                assert got is not None, f"{where}: {metric['name']} missing"
                if got["value"] is None:
                    assert got.get("absent"), f"{where}: {metric['name']} has no value or reason"
                else:
                    assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']}"
                    assert isinstance(got["value"], (int, float))
            print(f"ok   {where}: {len(listed)} metrics, {res['attempted']} points checked")


def check_absent():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import tracer
    import workloads

    renamed = [t for t in tracer.TARGETS if t[0] != "simcore.kernel"]
    renamed.append(("simcore.kernel", "eeecoal.simcore", "_sim_kernel_renamed", False))
    tr = tracer.Tracer(targets=renamed)
    assert "not found" in tr.absent["simcore.kernel"]
    compiled = tracer.Tracer(targets=[("policy.plan", "eeecoal.simcore", "_plan_scalar", True)],
                             numba=True)
    assert "numba" in compiled.absent["policy.plan"]

    from eeecoal import cli

    tmp = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS["sweep-static"]
        config = workloads.write_config(wl, "tiny", tmp, 1)
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.root(cli.main, ["sweep", "--config", str(config), "--out", str(tmp / "out")])
        assert code == 0
        layers = tr.metrics([], {})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert isinstance(layers["simcore.kernel.s"], str)
    assert isinstance(layers["simcore.kernel.ns_per_frame"], str)
    assert layers["policy.plan.calls"][0] > 0
    inv = run.Invocation(0.0, {"exit": 0, "wall_s": tr.root_s, "layers": layers}, [], None)
    merged = run._layer_metrics([inv], [inv])
    assert merged["simcore.kernel.s"]["value"] is None and merged["simcore.kernel.s"]["absent"]
    json.dumps(merged)
    print("ok   renamed or compiled internals are reported absent")


def check_bare_directory():
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "sweep-static", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and _result(proc) is None, proc.stdout
    print("ok   bare directory: exit code", proc.returncode, "and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_absent()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
