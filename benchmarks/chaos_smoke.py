"""Chaos smoke: crash the analysis mid-stream, demand verdict parity.

Two faults, injected while a client streams a workload to a journaled
daemon (``checkpoint_dir`` set, so every session journals what it
analyzed):

* ``daemon-kill``  — SIGKILL the daemon half way through the stream.  The
  daemon runs as a fleet of one (``FleetConfig(shards=1)``, the CLI's
  ``repro fleet serve --shards 1``): the shard supervisor must respawn it
  with recovery, the session must be rebuilt from its journal, and the
  client's resume must finish with the same verdict as an undisturbed
  run.
* ``conn-drop``    — sever the client's TCP connection to a bare daemon
  half way through the stream.  The client's
  :class:`~repro.server.ReconnectPolicy` must resume by token and resend
  the unacked window, again with verdict parity.

Parity means: violation count, counterexample text, *and* final vector
clocks all match a standalone Observer fed the same execution.  Run by
the ``chaos-smoke`` CI job; exits non-zero on any mismatch.

With ``--fleet`` the same contract runs against a 2-shard
:class:`~repro.fleet.AnalysisFleet`:

* ``shard-kill``   — SIGKILL the whole shard *daemon* owning the session
  (looked up from the session-id stride) half way through the stream.
  The fleet supervisor must respawn the slot with recovery, the client's
  resume must be routed to the reborn shard, and the verdict must match.
* ``conn-drop``    — sever the client's connection to the router.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --seeds 3
    PYTHONPATH=src python benchmarks/chaos_smoke.py --seeds 2 --fleet
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile

from repro.observer import Observer
from repro.sched import RandomScheduler, run_program
from repro.server import AnalysisServer, ReconnectPolicy, ServerConfig, attach
from repro.workloads import (
    AUDIT_PROPERTY,
    LANDING_PROPERTY,
    XYZ_PROPERTY,
    landing_controller,
    transfer_program,
    xyz_program,
)

WORKLOADS = [
    ("xyz", xyz_program, XYZ_PROPERTY, ("x", "y", "z")),
    ("landing", landing_controller, LANDING_PROPERTY,
     ("landing", "approved", "radio")),
    ("bank", transfer_program, AUDIT_PROPERTY, ("a", "b", "audited")),
]

FAULTS = ("daemon-kill", "conn-drop")
FLEET_FAULTS = ("shard-kill", "conn-drop")
KILLS = ("daemon-kill", "shard-kill")


def control(factory, spec, variables, seed, backend="flat"):
    """Undisturbed run: execution + expected verdict from a standalone
    Observer (the same ground truth the soak tests use).  ``backend``
    picks Algorithm A's clock representation for the instrumented run —
    verdict parity must hold whichever backend produced the stream."""
    execution = run_program(factory(), RandomScheduler(seed),
                            clock_backend=backend)
    initial = {v: execution.initial_store[v] for v in variables}
    observer = Observer(execution.n_threads, initial, spec=spec)
    clocks = [tuple([0] * execution.n_threads)
              for _ in range(execution.n_threads)]
    for m in execution.messages:
        observer.receive(m)
        clocks[m.thread] = tuple(m.clock)
    observer.finish()
    expected = sorted(v.pretty(tuple(sorted(variables)))
                      for v in observer.violations)
    return execution, initial, expected, tuple(clocks)


def drop_connection(session):
    """Sever the client's socket under it (simulates a network cut)."""
    import socket as _socket

    sock = session._sender._sock
    try:
        sock.shutdown(_socket.SHUT_RDWR)
    except OSError:
        pass


@contextlib.contextmanager
def serving(fault, shards, ckpt_dir):
    """Yield ``(host, port, fleet)``: a fleet of ``shards`` shards, or —
    for a connection cut in single-daemon mode — one bare daemon
    (``fleet`` is then None)."""
    if shards == 1 and fault == "conn-drop":
        config = ServerConfig(
            port=0, workers=2, checkpoint_dir=ckpt_dir, checkpoint_every=4,
            resume_timeout=10.0, drain_timeout=60.0)
        with AnalysisServer(config) as srv:
            yield srv.host, srv.port, None
        return
    from repro.fleet import AnalysisFleet, FleetConfig

    config = FleetConfig(
        shards=shards, workers=1, checkpoint_dir=ckpt_dir,
        checkpoint_every=4, resume_timeout=15.0, drain_timeout=60.0,
        heartbeat_interval=0.1, heartbeat_timeout=1.0,
        restart_backoff=0.05, restart_backoff_cap=0.2)
    with AnalysisFleet(config) as fleet:
        yield fleet.host, fleet.port, fleet


def run_case(name, factory, spec, variables, seed, fault, ckpt_dir,
             backend="flat", shards=1):
    """Stream one workload, inject ``fault`` half way, check parity.
    A kill takes out the daemon owning the session (found via the
    session-id stride), not a thread inside it."""
    from repro.fleet import shard_of_session
    from repro.observer.reliable import RetransmitConfig

    execution, initial, expected, clocks = control(
        factory, spec, variables, seed, backend)
    problems = []
    restarts = None
    with serving(fault, shards, ckpt_dir) as (host, port, fleet):
        extra = {} if fleet is None else dict(
            fault_tolerant=True, config=RetransmitConfig(window=64))
        session = attach(
            host, port, n_threads=execution.n_threads,
            initial=initial, spec=spec, program=name,
            reconnect=ReconnectPolicy(max_attempts=10, backoff=0.1),
            **extra)
        half = max(1, len(execution.messages) // 2)
        for m in execution.messages[:half]:
            session.send(m)
        if fault in KILLS:
            slot = shard_of_session(session.session_id)
            if fleet.supervisor.kill_shard(slot) is None:
                problems.append(f"no live shard {slot} to kill")
        else:
            drop_connection(session)
        for m in execution.messages[half:]:
            session.send(m)
        verdict = session.close(timeout=60.0)
        if fleet is not None:
            restarts = fleet.status()["fleet"]["router"]["shard_restarts"]

    if verdict.state != "finished":
        problems.append(f"state={verdict.state} error={verdict.error}")
    if verdict.analyzed != len(execution.messages):
        problems.append(
            f"analyzed {verdict.analyzed} != {len(execution.messages)}")
    got = sorted(verdict.counterexamples)
    if got != expected:
        problems.append(f"counterexamples {got} != {expected}")
    if verdict.violations != len(expected):
        problems.append(
            f"violations {verdict.violations} != {len(expected)}")
    if tuple(tuple(c) for c in verdict.final_clocks) != clocks:
        problems.append(
            f"final clocks {verdict.final_clocks} != {clocks}")
    if fault in KILLS and restarts < 1:
        problems.append(f"{fault} injected but the supervisor recorded no "
                        "restart")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3,
                    help="seeds per workload per fault (default 3)")
    ap.add_argument("--backend", default="flat",
                    choices=("flat", "tree", "auto"),
                    help="clock backend for the instrumented control run "
                         "(default flat); tree must give identical verdicts")
    ap.add_argument("--fleet", action="store_true",
                    help="inject against a 2-shard fleet (shard-kill + "
                         "conn-drop) instead of one daemon")
    args = ap.parse_args()

    faults = FLEET_FAULTS if args.fleet else FAULTS
    shards = 2 if args.fleet else 1
    failures = 0
    total = 0
    for name, factory, spec, variables in WORKLOADS:
        for seed in range(args.seeds):
            for fault in faults:
                total += 1
                with tempfile.TemporaryDirectory() as ckpt:
                    try:
                        problems = run_case(
                            name, factory, spec, variables, seed, fault,
                            ckpt, backend=args.backend, shards=shards)
                    except Exception as exc:  # noqa: BLE001 - smoke harness
                        problems = [f"exception: {exc!r}"]
                tag = f"{name:<8} seed={seed} {fault:<11}"
                if problems:
                    failures += 1
                    print(f"FAIL {tag} " + "; ".join(problems))
                else:
                    print(f"ok   {tag}")
                sys.stdout.flush()
    print(f"\n{total - failures}/{total} chaos cases with verdict parity")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
