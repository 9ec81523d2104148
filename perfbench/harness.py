"""Shared pieces of the benchmark: paths, jobs, and order statistics."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("catalogue", "models", "interpret", "cli")

# Highest percentile of per-job wall time with at least ten jobs beyond it,
# fixed per workload from its job count (see README).
TAIL_PERCENTILE = {"catalogue": 90, "models": 75, "interpret": 75, "cli": 75}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, one thread per numeric library, and a
    fixed string-hash seed so that reruns do the same work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def use_checkout_sources() -> None:
    """Import ``fraisse`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fraisse", "__init__.py")):
        raise SystemExit(f"no fraisse sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import fraisse

    if not os.path.abspath(fraisse.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fraisse was imported from {fraisse.__file__}, not {SRC}")


@dataclass
class KnownFault:
    """The outcome of a job that hit a fault named in the README."""

    fault: str
    detail: str


@dataclass
class Job:
    """One timed operation.

    ``prepare`` (untimed) returns the arguments of ``run`` (timed); ``check``
    raises ``oracles.CheckFailed`` on a wrong output.  A job with ``fault``
    set may return ``KnownFault(fault, ...)``, which counts as a failed
    operation rather than a wrong one.
    """

    name: str
    run: Callable
    check: Callable[[object], None]
    prepare: Callable[[], tuple] | None = None
    fault: str | None = None


def nearest_rank(values, percentile: int) -> float:
    """The nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]
