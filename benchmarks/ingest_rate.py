"""Served ingest rate of any server command line, on perfbench's ingest stream.

A thin wrapper over the repository benchmark (``perfbench/``, imported
read-only): it starts the server command given after ``--`` with
perfbench's ``Daemon`` (any ``repro serve`` or ``repro fleet serve``
invocation; it must print ``serving on HOST:PORT``), drives the
``ingest`` workload's closed loop against it (spec off, fault-tolerant
hello, ~10k messages per session, one client), checks every verdict
against the in-process observer, and prints the events/s.  The server
command is an argument so that the same script and seed can time
different deployments; ``--root`` names the checkout whose ``src/`` the
server runs from, so two commits can be timed with one script::

    PYTHONPATH=src python benchmarks/ingest_rate.py --seed 1 -- \\
        python -m repro serve --port 0
    PYTHONPATH=src python benchmarks/ingest_rate.py --seed 1 -- \\
        python -m repro fleet serve --port 0 --shards 1 --checkpoint /tmp/ck
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from inproc import Baseline  # noqa: E402
from run import check_parity, environment, summarize  # noqa: E402
from served import Daemon, drive  # noqa: E402
from streams import WORKLOADS, make_pool  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="closed-loop run length (default 15)")
    ap.add_argument("--root", default=ROOT,
                    help="checkout whose src/ the server runs from "
                         "(default: this one)")
    ap.add_argument("server", nargs=argparse.REMAINDER,
                    help="server command line, after --")
    args = ap.parse_args()
    argv = args.server[1:] if args.server[:1] == ["--"] else args.server
    if not argv:
        ap.error("give the server command after --")

    wl = WORKLOADS["ingest"]
    pool = make_pool(wl, args.seed)
    daemon = Daemon(argv, os.path.abspath(args.root))
    try:
        daemon.wait_ready()
        runs = drive(daemon.port, pool, wl.clients, args.seconds)
    finally:
        daemon.stop()
    base = Baseline(pool)
    base.complete()
    failed = check_parity(runs, base.refs, wl.name)
    s = summarize(runs)
    print(f"server: {' '.join(argv)} (from {args.root})")
    print(f"env: {environment(args.seed)}")
    print(f"{len(runs)} sessions, {s['events']} events in {s['wall']:.2f}s, "
          f"{failed} failed")
    print(f"ingest: {s['events_per_s']:,.0f} ev/s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
