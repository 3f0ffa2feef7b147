#!/usr/bin/env python3
"""Run one g2lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 10 --trace 0

Run from the root of a g2lab checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics from a traced
run (see perfbench/README.md).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The end-to-end times are scaled to a reference host speed
(see perfbench/hostspeed.py).  The full result, with the raw times and the
environment block, goes to ``.perfbench_out/``.  Exit status: 0 when every
check passed, 1 when a check failed, 2 when the checkout has no g2lab
source.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# fresh-interpreter import samples taken before the warm-up (one more
# precedes each timed repeat)
SETUP_FIRST = 2

# Imports every g2lab module in a fresh interpreter and prints the seconds
# that took, numpy and the module-level tables included, less the steal
# time, then the mean CPU time of the host-speed probe run for as long again.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import StealClock, probe_mean
steal = StealClock()
t0 = time.perf_counter()
import importlib, pkgutil
sys.path.insert(0, sys.argv[1])
import g2lab
for info in pkgutil.iter_modules(g2lab.__path__):
    importlib.import_module("g2lab." + info.name)
seconds = time.perf_counter() - t0
steal.tick()
print(repr(seconds - steal.seconds), repr(probe_mean(seconds)))
"""

# the metrics a --trace 0 run reports on its result line
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "residual_headroom_digits": "digits"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes_computed"):
        return "B"
    if name.endswith(".shots_per_call"):
        return "1/call"
    if name.endswith(".frames_per_fit"):
        return "1/fit"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_bytes() -> int | None:
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return size
    except (ValueError, OSError):
        pass
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size"
                    ).read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(workload: str, steps, seed: int, seconds: float,
                trace: int) -> dict:
    import numpy as np
    from hostspeed import INTERVAL_S, PROBE_REF_S
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 # unset means the library default, one thread per CPU
                 "threads": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "git": _git_state(),
        "workload": workload,
        "seed": seed,
        "steps": [step.label for step in steps],
        "seconds": seconds,
        "trace": trace,
        "probe_ref_s": PROBE_REF_S,
        "probe_interval_s": INTERVAL_S,
    }


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(seconds, seconds at the reference speed) each of several fresh
    interpreters takes to import g2lab."""
    from hostspeed import PROBE_REF_S
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(HERE)], capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        seconds, probe_s = map(float,
                               proc.stdout.strip().splitlines()[-1].split())
        out.append((seconds, seconds * PROBE_REF_S / probe_s))
    return out


class Runner:
    """Runs repeats of one workload and applies the correctness gate."""

    def __init__(self, steps, seed: int) -> None:
        from g2lab.errors import G2LabError
        from workloads import row_failed
        self.steps = steps
        self.seed = seed
        self.attempted = 0
        self.failed_checks: list[str] = []
        self._errors = G2LabError
        self._row_failed = row_failed

    def repeat(self, r: int):
        """Repeat r (0 is the warm-up); returns (wall seconds, CPU seconds,
        check rows)."""
        rows = []
        t0, c0 = time.perf_counter(), time.process_time()
        for step in self.steps:
            try:
                rows += step.run(self.seed)
            except self._errors as exc:
                rows.append({"name": f"error.{type(exc).__name__}",
                             "max_residual": math.nan, "tolerance": 0.0,
                             "pass": False})
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += len(rows)
        self.failed_checks += [f"repeat {r}: {row['name']}"
                               for row in rows if self._row_failed(row)]
        return wall, cpu, rows


def _summary(samples, unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples),
            "samples": list(samples)}


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    from hostspeed import Sampler
    from workloads import headroom_digits
    setup = measure_setup(SETUP_FIRST)
    _, _, warm_rows = runner.repeat(0)
    raw = {"wall": [], "cpu": [], "steal": [], "factor": []}
    start = time.perf_counter()
    while not raw["wall"] or time.perf_counter() - start < seconds:
        # set-up samples spread over the run see more of the host's states
        setup += measure_setup(1)
        with Sampler() as speed:
            runner.repeat(len(raw["wall"]) + 1)
        raw["wall"].append(speed.wall_s)
        raw["cpu"].append(speed.cpu_s)
        raw["steal"].append(speed.steal_s)
        raw["factor"].append(speed.factor)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = {key: [t * f for t, f in zip(raw[key], raw["factor"])]
              for key in ("wall", "cpu")}
    return {
        "wall_s": _summary(scaled["wall"], "s"),
        "cpu_s": _summary(scaled["cpu"], "s"),
        "setup_s": _summary([s for _, s in setup], "s"),
        "peak_rss_mb": _summary([peak_mb], "MB"),
        # every repeat has the same inputs; the warm-up's checks stand for all
        "residual_headroom_digits": _summary([headroom_digits(warm_rows)],
                                             "digits"),
        # the unscaled times, the steal taken out and the scale, for the
        # record
        "wall_raw_s": _summary(raw["wall"], "s"),
        "steal_s": _summary(raw["steal"], "s"),
        "cpu_raw_s": _summary(raw["cpu"], "s"),
        "setup_raw_s": _summary([s for s, _ in setup], "s"),
        "host_factor": _summary(raw["factor"], "ratio"),
    }


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from spans import Tracer, install, layer_metrics
    runner.repeat(0)
    tracer = Tracer()
    first = None
    timed: dict[str, list[float]] = {}
    overheads = []
    start = time.perf_counter()
    r = 1
    while True:
        plain, _, _ = runner.repeat(r)
        tracer.reset()
        patch = install(tracer)
        try:
            traced, _, _ = runner.repeat(r)
        finally:
            patch.restore()
        overheads.append(traced - plain)
        metrics = layer_metrics(tracer)
        if first is None:
            first = metrics
            spans_path.write_text(json.dumps({"spans": tracer.records()}))
        for name, value in metrics.items():
            if name.endswith("self_s"):
                timed.setdefault(name, []).append(value)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    out = {}
    for name, value in first.items():
        if name in timed:
            out[name] = _summary(timed[name], "s")
        else:
            # counts and ratios, from the first traced repeat
            out[name] = {"value": value, "unit": layer_unit(name), "n": 1}
    out["trace.overhead_s"] = _summary(overheads, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "g2lab" / "__init__.py").is_file():
        print(f"error: no g2lab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import g2lab
    if Path(g2lab.__file__).resolve().parent != SRC / "g2lab":
        print(f"error: imported g2lab from {g2lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    for info in pkgutil.iter_modules(g2lab.__path__):
        importlib.import_module("g2lab." + info.name)

    from workloads import WORKLOADS
    steps = WORKLOADS.get(args.workload)
    if steps is None:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(steps, args.seed)
    if args.trace:
        metrics = run_traced(runner, args.seconds,
                             OUT_DIR / f"{stem}-spans.json")
    else:
        metrics = run_end_to_end(runner, args.seconds)
    failed = len(runner.failed_checks)
    failed_frac = failed / runner.attempted
    env = environment(args.workload, steps, args.seed, args.seconds,
                      args.trace)
    result = {"env": env, "metrics": metrics,
              "checks_attempted": runner.attempted,
              "checks_failed": runner.failed_checks,
              "checks_failed_frac": failed_frac}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        extra = f" (n={m['n']})" if m["n"] > 1 else ""
        print(f"{name} {m['value']!r} {m['unit']}{extra}")
    print(f"checks_failed_frac {failed_frac!r} ratio "
          f"({failed} of {runner.attempted} checks)")
    for name in runner.failed_checks:
        print(f"FAILED {name}")
    reported = metrics if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in reported},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
