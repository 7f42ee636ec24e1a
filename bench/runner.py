"""One workload in one process: set up, then run whole rounds and check them.

Started by ``run.py`` with ``PYTHONPATH=src``.  It imports ``harnack.cli``,
writes the workload's inputs, prints ``READY`` (the end of set-up), and,
unless ``--setup-only`` is given, runs rounds of the workload's commands
through ``harnack.cli.main(argv)`` until the commands have taken
``--seconds`` seconds.  Each round's outputs are moved into a directory of
their own.  After the last round the process's peak memory is read, and
then every output is checked, so neither the checks' time nor their memory
counts.  Bursts of a fixed probe run between commands; on the workloads
in ``probe.SCALED`` they scale the command times (see probe.py).  The last
line of its output is one JSON object with the counts, the check failures
and the metrics.

With ``--trace 1`` the rounds alternate between untraced and traced ones;
the traced rounds give the per-layer metrics, and their extra time over
the untraced rounds is the tracing overhead.  One more traced round, with
``tracemalloc`` running inside ``set_separation``, gives the allocation
peak; its times are not used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

from harnack import cli

import checks
import probe
import spans
import workloads

FAILURE_SAMPLES = 5  # check failures quoted in the result
UNITS = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_p95_ms": "ms", "peak_rss_mb": "MB",
         "gap_ln": "1", "sep_sum": "1"}


def run_round(ops, round_dir):
    """Run the round's commands in order.  A command that raised or exited
    with a status other than 0 or 1 has failed; the output of every other
    command is moved into round_dir to be checked, because a sandwich that
    exits 1 (inconsistent) still writes its report.  A burst of probes
    follows a command for every probe.INTERVAL_S of command time, so the
    probes take the same share of every workload's time."""
    latencies, errors, samples = [], [], []
    since_probe = 0.0
    for op in ops:
        if os.path.exists(op.out):
            os.remove(op.out)
        error = None
        start = time.perf_counter()
        try:
            status = cli.main(op.argv)
            if status not in (0, 1):
                error = f"exit status {status}"
        except Exception as e:  # a failed command must not end the run
            error = f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - start)
        errors.append(error)
        since_probe += latencies[-1]
        while since_probe >= probe.INTERVAL_S:
            samples += probe.burst()
            since_probe -= probe.INTERVAL_S
    if not samples:
        samples = probe.burst()
    os.makedirs(round_dir)
    for op in ops:
        if os.path.exists(op.out):
            os.replace(op.out, os.path.join(round_dir, os.path.basename(op.out)))
    return {"latencies": latencies, "errors": errors, "dir": round_dir, "probes": samples}


def check_round(ops, r):
    """Check the outputs of one round; returns failures by reason, check
    problems and the report summaries."""
    failures, problems, summaries = {}, [], []
    for op, error in zip(ops, r["errors"]):
        if error is None:
            try:
                errs, summary = checks.check(op, r["dir"])
            except checks.NoResult as e:
                error = str(e)
            except Exception as e:  # an unreadable output is a wrong output
                errs, summary = [f"output could not be checked: {type(e).__name__}: {e}"], {}
            if error is None:
                if errs:
                    error = "check failed: " + "; ".join(errs)
                    problems.append(f"{' '.join(op.argv)}: {error}")
                summaries.append(summary)
        if error is not None:
            key = f"{op.kind} {op.domain_name}: {error}"
            failures[key] = failures.get(key, 0) + 1
    return failures, problems, summaries


def median_latencies(rounds, scaled: bool) -> list:
    """Each command's median latency over the rounds, scaled to the
    probe's reference speed by the probes of these rounds if scaled.

    The median over the whole run repeats from run to run better than the
    fastest repetition, which depends on whether the run caught a quiet
    moment of the shared machine; the scale takes out the slow spells that
    last longer than a run (see probe.py).
    """
    factor = probe.scale([t for r in rounds for t in r["probes"]]) if scaled else 1.0
    return [factor * statistics.median(ts) for ts in zip(*(r["latencies"] for r in rounds))]


def latency_metrics(typical) -> dict:
    """wall_s and the percentiles over the round's commands, each at its
    typical latency."""
    lat_ms = sorted(1e3 * t for t in typical)
    return {
        "wall_s": sum(typical),
        "cmd_p50_ms": statistics.median(lat_ms),
        "cmd_p95_ms": lat_ms[math.ceil(0.95 * len(lat_ms)) - 1],
    }


def end_to_end(rounds, summaries, peak_rss_mb, scaled: bool) -> dict:
    """End-to-end metrics of untraced rounds; the report figures come from
    the first round's summaries."""
    # gap_ln is the mean of the middle 80 % of the reports' gaps.  A few
    # sandwich pairs pass close to the union's necks, where their gap swings
    # by 100 under a jitter of 0.01; rounds of fewer than ten reports keep
    # every report.
    gaps = sorted(s["gap_ln"] for s in summaries if "gap_ln" in s)
    trim = len(gaps) // 10
    return {
        **latency_metrics(median_latencies(rounds, scaled)),
        "peak_rss_mb": peak_rss_mb,
        "gap_ln": statistics.fmean(gaps[trim:len(gaps) - trim]) if gaps else math.nan,
        "sep_sum": sum(s["sep"] for s in summaries if s.get("sep") is not None),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    redrawn = []
    ops = workloads.build(args.workload, args.seed, args.workdir, redrawn)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if redrawn:
        sys.stderr.write(
            f"set-up: {len(redrawn)} seeded pair draws fell where entropy.eac_harnack_bound "
            "overflows and were drawn again\n"
        )

    tracer = spans.Tracer() if args.trace else None
    rounds = []

    def run(mode):
        """mode: "plain", "traced", or "alloc" (traced with tracemalloc)."""
        index = len(rounds)
        if mode != "plain":
            tracer.install(index, alloc=mode == "alloc")
        try:
            r = run_round(ops, os.path.join(args.workdir, f"round{index}"))
        finally:
            if mode != "plain":
                tracer.uninstall()
        r["mode"] = mode
        rounds.append(r)
        return sum(r["latencies"])

    measured = 0.0
    # untraced and traced rounds alternate in a traced run; stop after a pair
    per_cycle = 2 if tracer else 1
    while measured < args.seconds or len(rounds) % per_cycle:
        measured += run("traced" if tracer is not None and len(rounds) % 2 == 1 else "plain")
    if tracer is not None:
        run("alloc")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, problems, summaries = {}, [], []
    for r in rounds:
        f, p, s = check_round(ops, r)
        for k, n in f.items():
            failures[k] = failures.get(k, 0) + n
        problems += p
        summaries.append(s)
    plain = [r for r in rounds if r["mode"] == "plain"]
    scaled = args.workload in probe.SCALED
    if tracer is None:
        metrics = end_to_end(plain, summaries[0], peak_rss_mb, scaled)
        raw = latency_metrics(median_latencies(plain, scaled=False))
        sys.stderr.write(
            ("unscaled: " if scaled else "not scaled: ")
            + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
            + f"; median probe {1e3 * statistics.median(t for r in plain for t in r['probes']):.4g} ms"
            + f" (reference {1e3 * probe.REFERENCE_S:g} ms)\n"
        )
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
    else:
        traced = [i for i, r in enumerate(rounds) if r["mode"] == "traced"]
        metrics = spans.median_metrics([tracer.round_metrics(i) for i in traced])
        metrics["separation.alloc_peak_mb"] = tracer.alloc_peak_mb(len(rounds) - 1)
        metrics["entropy.eac_sum"] = sum(
            s["eac"] for s in summaries[traced[0]] if s.get("eac") is not None
        )
        metrics["trace.overhead_s"] = sum(
            median_latencies([rounds[i] for i in traced], scaled)
        ) - sum(median_latencies(plain, scaled))
        metrics = {k: (v, spans.unit(k)) for k, v in metrics.items()}
        if args.spans:
            tracer.write(args.spans)
    result = {
        "rounds": len(rounds),
        "attempted": len(ops) * len(rounds),
        "failed": sum(failures.values()),
        "failures": failures,
        "check_failures": problems[:FAILURE_SAMPLES],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
