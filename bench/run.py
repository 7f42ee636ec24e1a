"""Benchmark of the harnack CLI: one workload per call.

    python3 bench/run.py --workload pair-sandwich --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` and need not be installed.  The workload runs in a fresh child
process (``runner.py``), closed loop with one client: one command at a
time, no threads, BLAS pinned to one thread.  Set-up is timed in that
child and in a few more that only set up, and the median is reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Exit status
is 0 when every check passed, 1 when a check failed, and 2 when the
workload could not run; in that last case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # the workload's own process and four that only set up
TIME_LIMIT_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in SINGLE_THREAD:
        env[var] = "1"
    return env


def _start(args, workdir: str, extra: list, deadline: float):
    """Start a runner and wait for the end of its set-up; returns (process, set-up seconds)."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise BenchError(f"runner did not finish set-up (exit status {proc.returncode})")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("runner exceeded the time limit") from None
    return out


def measure(args, work: str) -> tuple[dict, list]:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        proc, setup = _start(args, os.path.join(work, f"setup{i}"), ["--setup-only"], deadline)
        _finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up run exited with status {proc.returncode}")
        setups.append(setup)
    spans_dir = os.path.join(ROOT, ".bench_work")
    extra = ["--spans", os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    proc, setup = _start(args, os.path.join(work, "run"), extra if args.trace else [], deadline)
    setups.append(setup)
    out = _finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"runner exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("runner printed no result")
    result = json.loads(lines[-1])
    return result, setups


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "harnack", "cli.py")):
        sys.stderr.write(f"error: no harnack sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    try:
        result, setups = measure(args, work)
    except (BenchError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for reason, count in sorted(result["failures"].items()):
        sys.stderr.write(f"failed {count}x: {reason}\n")
    correct = not result["check_failures"]
    out = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
