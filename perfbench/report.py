#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, as a text table and as JSON.

    python3 perfbench/report.py [--workload NAME ...] [--seed 1] [--seconds 25]

Runs perfbench/run.py once untraced (end-to-end metrics) and once traced
(per-layer metrics) for each named workload, all four by default, from the
root of a source checkout. The table comes first; the last line is one
JSON object {workload: {"correct", "end_to_end", "per_layer"}}.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER
from workloads import SPECS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(SPECS),
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    results = {}
    ok = True
    for workload in args.workload or list(SPECS):
        entry = {}
        for kind, trace, names in (("end_to_end", 0, END_TO_END), ("per_layer", 1, PER_LAYER)):
            result = run_once(workload, args.seed, args.seconds, trace)
            if result is None:
                print(f"{workload}: {kind} run printed no result")
                ok = False
                continue
            entry["correct"] = entry.get("correct", True) and result["correct"]
            entry[kind] = result["metrics"]
            print(f"\n{workload} ({kind}, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']})")
            for name in names:
                metric = result["metrics"][name]
                print(f"  {name:40s} {metric['value']:>18.6g} {metric['unit']}")
        ok = ok and entry.get("correct", False)
        results[workload] = entry
    print(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
