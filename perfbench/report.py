#!/usr/bin/env python3
"""Run every workload and print each metric by name and unit; run from the repository root.

    python3 perfbench/report.py --seed 1 --seconds 10 [--trace] [--out bench.json]

Without ``--trace`` it reports the end-to-end metrics, with it the per-layer
ones.  ``--out`` also writes everything (run metadata, metrics, layer shares
and check results per workload) as one JSON file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    combined, ok = {}, True
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            capture_output=True, text=True, timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark failed\n{proc.stderr}", file=sys.stderr)
            return 1
        entry = {}
        for line in lines[:-1]:
            if line.startswith("{"):
                entry.update(json.loads(line))
            else:
                print(line)
        entry["result"] = json.loads(lines[-1])
        ok = ok and entry["result"]["correct"]
        print(f"{name} fail_frac = {entry['meta']['fail_frac']} fraction "
              f"({entry['result']['failed']} of {entry['result']['attempted']} points)")
        combined[name] = entry
    if args.out:
        args.out.write_text(json.dumps(combined, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
