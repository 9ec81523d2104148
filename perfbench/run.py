"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
there.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced round.  The
workload runs in a process of its own; set-up is timed from the start of
that process until it reports ready, three times per untraced run (two
set-up-only processes, then the measured one), and the median is reported.
Exits non-zero without a result when the sources are missing or a process
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time

import harness

TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 3


class RunFailed(Exception):
    pass


def _start(argv):
    return subprocess.Popen(
        [sys.executable, os.path.join(harness.HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=harness.child_env(),
        cwd=harness.ROOT,
        start_new_session=True,
        text=True,
    )


def _stop(proc) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _read_line(proc, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise RunFailed("worker timed out")
    line = proc.stdout.readline()
    if not line:
        raise RunFailed(f"worker ended early with code {proc.wait()}")
    return line.strip()


def _setup_time(proc, deadline: float) -> float:
    t0 = time.perf_counter()
    line = _read_line(proc, deadline)
    if line != "ready":
        raise RunFailed(f"worker said {line!r} instead of ready")
    return time.perf_counter() - t0


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    worker_argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--once"] if args.once else [])
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            t0 = time.perf_counter()
            proc = _start(worker_argv + ["--setup-only"])
            try:
                _read_line(proc, deadline)
                setups.append(time.perf_counter() - t0)
                if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
                    raise RunFailed("set-up process failed")
            finally:
                _stop(proc)
    t0 = time.perf_counter()
    proc = _start(worker_argv)
    try:
        line = _read_line(proc, deadline)
        setups.append(time.perf_counter() - t0)
        if line != "ready":
            raise RunFailed(f"worker said {line!r} instead of ready")
        result = json.loads(_read_line(proc, deadline))
        if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise RunFailed("worker failed")
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("worker did not exit") from exc
    finally:
        _stop(proc)
    print(
        f"{args.workload} seed {args.seed}: {result.pop('rounds', 1)} round(s) of "
        f"{result.pop('jobs', '?')} jobs",
        file=sys.stderr,
    )
    if not args.trace:
        setups.sort()
        result["metrics"]["setup_s"] = {"value": setups[len(setups) // 2], "unit": "s"}
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--once", action="store_true", help="a single checked round")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(harness.SRC, "fraisse", "__init__.py")):
        print(f"run.py: no fraisse sources under {harness.SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
