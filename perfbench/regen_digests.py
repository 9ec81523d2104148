"""Freeze the sha256 digests of the cli workload's seed-independent reports.

    python3 perfbench/regen_digests.py

Run from the root of a checkout whose reports are known to be right: it
runs each frozen command of the session once and rewrites
``perfbench/cli_digests.json``.  The benchmark then requires every later
report to be byte-identical to these.
"""

from __future__ import annotations

import hashlib
import json

import harness


def main() -> int:
    harness.use_checkout_sources()
    import wl_cli

    ctx = wl_cli.setup(0)
    try:
        digests = {}
        for label, argv, _, frozen in wl_cli.session(ctx):
            if frozen:
                proc = wl_cli._run(ctx, argv)
                digests[label] = hashlib.sha256(proc.stdout).hexdigest()
                print(f"{proc.returncode}  {label}")
    finally:
        wl_cli.teardown(ctx)
    with open(wl_cli.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
