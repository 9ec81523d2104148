"""Run one ``fraisse`` command under the tracer (the ``cli`` workload's
traced round).

    python3 perfbench/trace_child.py TRACE_FILE -- <fraisse arguments>

Behaves like ``python -m fraisse.cli <arguments>`` and afterwards writes the
tracer's snapshot, plus the import time of ``fraisse.cli``, to TRACE_FILE.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py TRACE_FILE -- ARGS...")
    t0 = time.perf_counter()
    import fraisse.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return fraisse.cli.main(argv)
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["extra"]["cli.import_s"] = import_s
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(snap, handle)


if __name__ == "__main__":
    sys.exit(main())
