#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly for a seed.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every count and ratio metric (all per-layer metrics except the
``*_s`` times).  Exits 1 if any differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith("_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    bad = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        diff = {k: (first[k], second.get(k)) for k in first
                if first[k] != second.get(k)}
        status = "identical" if not diff else f"DIFFER {diff}"
        print(f"{workload} seed={args.seed}: {len(first)} counts {status}")
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
