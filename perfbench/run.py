"""Benchmark for twobridge: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # all three workloads, one after another

Each workload runs in its own fresh interpreter, which imports twobridge
from src/ with one BLAS thread and without TWOBRIDGE_THREADS.  With
--trace 0 the result carries setup_s (the median, over several fresh
interpreters, of the time from launch until ``import twobridge`` returns)
and the workload's end-to-end metrics; with --trace 1 it carries the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, in this process (set before refspeed imports numpy) and
# in every process it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from refspeed import SpeedProbe  # noqa: E402

WORKLOADS = ("survey", "census", "long")
SETUP_LAUNCHES = 9
# Reference samples taken before the first launch and after each; a launch
# is scaled by the samples just before and just after it.
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_CODE = "import time, twobridge; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TWOBRIDGE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(cmd: list[str], env: dict[str, str], deadline: float) -> subprocess.CompletedProcess:
    """Run cmd to completion; subprocess.run kills and reaps it on timeout."""
    try:
        return subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} did not finish in time") from exc


def setup_seconds(env: dict[str, str], deadline: float) -> list[float]:
    """Launch-to-import times of fresh interpreters, at nominal speed (see refspeed)."""
    times = []
    probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    for _ in range(SETUP_LAUNCHES):
        first = len(probe.samples) - SETUP_SAMPLES
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = _run([sys.executable, "-c", SETUP_CODE], env, deadline)
        if proc.returncode != 0:
            raise BenchError(f"import twobridge failed:\n{proc.stderr}")
        elapsed = float(proc.stdout.split()[-1]) - start
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        times.append(elapsed * probe.scale(first))
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one workload in a fresh process, echo its report and return its result."""
    env = child_env()
    metrics = {}
    if not trace:
        times = setup_seconds(env, deadline)
        metrics["setup_s"] = {"value": statistics.median(times), "unit": "s"}
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = _run(cmd, env, deadline)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {workload} exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    if not trace:
        print(f"metric setup_s {metrics['setup_s']['value']:.6g} s (median of {len(times)} launches)")
    sys.stdout.flush()
    result = json.loads(lines[-1])
    result["metrics"] = {**metrics, **result["metrics"]}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twobridge" / "__init__.py").is_file():
        print(f"error: no twobridge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
