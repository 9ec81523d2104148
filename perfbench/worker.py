"""One workload in one process: set up, then run timed rounds of its jobs.

Started by ``run.py``; not meant to be run by hand.  Protocol on the
original standard output: the line ``ready`` once set-up is done, then one
JSON object with the run's results.  Everything the program prints goes to
standard error instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
import traceback
from statistics import median

import harness
from harness import KnownFault, nearest_rank

# A run starts no new round once this much wall time has passed, so that
# it ends well inside the three minutes it is allowed.
ROUND_DEADLINE_S = 120.0
REPEAT_UNTIL_S = 0.1
THREE_SAMPLES_BELOW_S = 0.5
MAX_SAMPLES = 5


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(job, args) -> tuple[object, float, float]:
    c0 = _cpu()
    t0 = time.perf_counter()
    output = job.run(*args)
    t1 = time.perf_counter()
    return output, t1 - t0, _cpu() - c0


def _needs_sample(samples: list) -> bool:
    if len(samples) >= MAX_SAMPLES:
        return False
    total = sum(wall for wall, _ in samples)
    return total < REPEAT_UNTIL_S or (len(samples) < 3 and samples[0][0] < THREE_SAMPLES_BELOW_S)


def _run_round(jobs, counts: dict, repeat: bool) -> tuple[dict, dict, bool]:
    """Run every job, checking its output; returns per-job wall and CPU
    times and correctness.

    With ``repeat``, short jobs are sampled again: a job under
    ``THREE_SAMPLES_BELOW_S`` gets three samples, and one whose samples add
    up to less than ``REPEAT_UNTIL_S`` gets up to ``MAX_SAMPLES``.  Its
    times are the medians of its samples.  The machine's speed drifts over
    seconds, so the extra samples are spread out: after each job of at
    least ``THREE_SAMPLES_BELOW_S``, every short job still short of samples
    gets one more, and whatever is missing at the end is taken in final
    sweeps.  Every repetition must return the same output as the first.
    """
    samples: dict[str, list] = {}
    first: dict[str, object] = {}
    state = {"correct": True}

    def sample(job) -> None:
        args = job.prepare() if job.prepare is not None else ()
        # every job starts from the same collector state, so that which job
        # pays for a full collection does not depend on the others
        gc.collect()
        try:
            output, wall, cpu = _timed(job, args)
        except Exception:
            traceback.print_exc()
            print(f"job {job.name}: raised", file=sys.stderr)
            state["correct"] = False
            return
        if job.name not in first:
            first[job.name] = output
            samples[job.name] = [(wall, cpu)]
            state["correct"] = _check(job, output, counts) and state["correct"]
        else:
            samples[job.name].append((wall, cpu))
            if output != first[job.name]:
                print(f"job {job.name}: a repetition returned another output", file=sys.stderr)
                state["correct"] = False

    def short_of_samples(job) -> bool:
        return repeat and job.name in samples and _needs_sample(samples[job.name])

    pending = []
    for job in jobs:
        sample(job)
        if short_of_samples(job):
            pending.append(job)
        elif job.name in samples and samples[job.name][0][0] >= THREE_SAMPLES_BELOW_S:
            for other in pending:
                sample(other)
            pending = [other for other in pending if short_of_samples(other)]
    while pending:
        for other in pending:
            sample(other)
        pending = [other for other in pending if short_of_samples(other)]
    counts["attempted"] += len(jobs)
    walls = {name: median(w for w, _ in s) for name, s in samples.items()}
    cpus = {name: median(c for _, c in s) for name, s in samples.items()}
    return walls, cpus, state["correct"]


def _check(job, output, counts) -> bool:
    """Check one job's first output; a known fault counts as failed."""
    if isinstance(output, KnownFault):
        counts["failed"] += 1
        if output.fault != job.fault:
            print(f"job {job.name}: unexpected fault {output}", file=sys.stderr)
            return False
        return True
    try:
        job.check(output)
    except AssertionError as exc:
        print(f"job {job.name}: check failed: {exc}", file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--once", action="store_true", help="one round, no timing target")
    args = parser.parse_args()

    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    harness.use_checkout_sources()
    workload = importlib.import_module(f"wl_{args.workload}")
    ctx = workload.setup(args.seed)
    try:
        jobs = workload.jobs(ctx)
        protocol.write("ready\n")
        if not args.setup_only:
            protocol.write(json.dumps(_measure(args, workload, ctx, jobs)) + "\n")
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown(ctx)
    return 0


def _measure(args, workload, ctx, jobs) -> dict:
    counts = {"attempted": 0, "failed": 0}
    per_job: dict[str, list[float]] = {job.name: [] for job in jobs}
    walls, cpus = [], []
    correct = True
    # a traced run compares one untraced and one traced round, each job
    # sampled once in both
    repeat = getattr(workload, "REPEAT_SHORT_JOBS", True) and not args.trace
    start = time.perf_counter()
    while True:
        times, cpu_times, ok = _run_round(jobs, counts, repeat)
        correct = correct and ok
        walls.append(sum(times.values()))
        cpus.append(sum(cpu_times.values()))
        for name, t in times.items():
            per_job[name].append(t)
        elapsed = time.perf_counter() - start
        if args.once or args.trace or not correct:
            break
        if elapsed >= args.seconds or elapsed * (len(walls) + 1) / len(walls) > ROUND_DEADLINE_S:
            break

    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        ctx.tracer = tracer
        tracer.install()
        try:
            times, _, ok = _run_round(jobs, counts, repeat=False)
        finally:
            tracer.uninstall()
        correct = correct and ok
        wall = sum(times.values())
        snap = workload.trace_snapshot(ctx, tracer) if hasattr(workload, "trace_snapshot") else tracer.snapshot()
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(snap).items()
        }
        metrics["trace.run_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall - walls[0], "unit": "s"}
        _write_out(f"trace-{args.workload}-{args.seed}.json", {"trace": snap, "job_s": times})
    else:
        job_medians = [median(v) for v in per_job.values() if v]
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "run_s": {"value": median(walls), "unit": "s"},
            "cpu_s": {"value": median(cpus), "unit": "s"},
            "job_p50_s": {"value": median(job_medians), "unit": "s"},
            "job_tail_s": {
                "value": nearest_rank(job_medians, harness.TAIL_PERCENTILE[args.workload]),
                "unit": "s",
            },
            "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024, "unit": "MB"},
        }
        _write_out(f"jobs-{args.workload}-{args.seed}.json", {"job_s": per_job, "round_s": walls, "cpu_s": cpus})
    return {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
        "rounds": len(walls),
        "jobs": len(jobs),
    }


def _write_out(name: str, data: dict) -> None:
    """Keep a run's raw figures under perfbench/out/ for later inspection."""
    os.makedirs(harness.OUT, exist_ok=True)
    with open(os.path.join(harness.OUT, name), "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
