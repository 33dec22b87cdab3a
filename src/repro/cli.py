"""Command-line interface: ``python -m repro <command>``.

The end-user face of the reproduction, mirroring how one would drive the
original tool:

* ``demo``    — run a bundled workload instrumented, predict violations,
  and show the lattice (the Fig. 4 pipeline in one command);
* ``record``  — run a workload and persist the message trace to a file;
* ``check``   — predictive analysis of a recorded trace against a spec;
* ``render``  — print the computation lattice (text or Graphviz DOT);
* ``races``   — happens-before data-race report for a workload;
* ``analyze`` — every analysis in one report;
* ``run``     — compile and predictively analyze a MiniLang source file;
* ``explore`` — exhaustive interleaving enumeration (ground-truth model check);
* ``observe`` — fault-tolerant observation over an imperfect channel
  (seeded drop/duplication/corruption injection + health report);
* ``stats``   — profile a workload: run the full predictive pipeline with
  metrics and tracing enabled, print the metric summary and span
  hotspots, optionally export a Chrome/Perfetto trace;
* ``serve``   — run the multi-session analysis server: one daemon
  observing many instrumented programs concurrently;
* ``attach``  — run a workload as a client of a running server, streaming
  its events over the reliable transport;
* ``sessions`` — query a running server's status endpoint: per-session
  health, verdicts and metrics;
* ``fleet serve`` — run the sharded analysis fleet: one router port in
  front of N shard daemons with consistent-hash placement, admission
  spill, and shard restart-with-recovery; ``--shards 1 --checkpoint DIR``
  is the supervised single daemon (docs/FLEET.md);
* ``status``  — fleet-wide status table: router counters, per-shard
  health and generation, and every session across the fleet (degrades
  to the single-daemon view against a plain ``repro serve``);
* ``lint``    — static shared-state soundness lint over Python/MiniLang
  sources: reports accesses the instrumentor would miss (aliases,
  closures, un-instrumented helpers, …) with stable SC-codes, plus
  spec-relevance findings with ``--spec``;
* ``spec check`` — static spec consistency: proves specs satisfiable,
  falsifiable and non-vacuous before they reach a fleet, with
  synthesized witness/counter traces and SC3xx diagnostics;
* ``archive`` — run a workload (or ingest an existing trace file) into a
  trace archive: v2 segment file + catalog entry with the live verdict;
* ``replay``  — deterministically replay archived traces through the
  analysis pipeline; ``--all --expect-catalog`` is the regression-corpus
  mode (any verdict drift fails), ``--spec`` re-analyzes under a
  different property without re-running the program;
* ``query``   — filter the archive catalog (program, verdict, spec text,
  event counts);
* ``gc``      — apply a retention policy to the archive (age / total
  size / entry count).

Examples::

    python -m repro demo landing
    python -m repro record xyz /tmp/xyz.trace
    python -m repro check /tmp/xyz.trace --spec "(x > 0) -> [y == 0, y > z)"
    python -m repro render landing --dot
    python -m repro races counter
    python -m repro run controller.ml --spec "start(landing == 1) -> [approved == 1, radio == 0)"
    python -m repro observe xyz --faults drop=0.05,dup=0.02,corrupt=0.01 --fault-seed 7
    python -m repro stats xyz --trace-out /tmp/xyz-trace.json
    python -m repro observe landing --metrics --progress 2
    python -m repro serve --port 4040 --max-sessions 8 --archive /var/traces
    python -m repro attach xyz --port 4040
    python -m repro sessions --port 4040
    python -m repro fleet serve --port 4050 --shards 4 --checkpoint /var/ckpt
    python -m repro status --port 4050
    python -m repro lint src/repro/workloads examples --json
    python -m repro spec check --demos --scan src/repro/workloads
    python -m repro spec check "ltl:x == 0 and x == 1" --json
    python -m repro archive /var/traces xyz --seed 7
    python -m repro replay /var/traces --all --expect-catalog
    python -m repro query /var/traces --verdict violation --json
    python -m repro gc /var/traces --max-age-s 604800 --max-bytes 100000000
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from .analysis import detect, find_races, predict
from .core import all_accesses
from .lattice import ComputationLattice, render_computation, render_lattice, to_dot
from .observer.trace import read_trace, write_trace
from .sched import FixedScheduler, RandomScheduler, run_program
from .workloads import (
    AUDIT_PROPERTY,
    LANDING_OBSERVED_SCHEDULE,
    LANDING_PROPERTY,
    LANDING_VARS,
    XYZ_OBSERVED_SCHEDULE,
    XYZ_PROPERTY,
    XYZ_VARS,
    landing_controller,
    racy_counter,
    transfer_program,
    xyz_program,
)

__all__ = ["main"]


class _Demo:
    def __init__(self, factory, spec, variables, schedule=None):
        self.factory = factory
        self.spec = spec
        self.variables = tuple(variables)
        self.schedule = schedule


DEMOS = {
    "landing": _Demo(landing_controller, LANDING_PROPERTY, LANDING_VARS,
                     LANDING_OBSERVED_SCHEDULE),
    "xyz": _Demo(xyz_program, XYZ_PROPERTY, XYZ_VARS, XYZ_OBSERVED_SCHEDULE),
    "bank": _Demo(transfer_program, AUDIT_PROPERTY, ("a", "b", "audited"),
                  [1, 1, 1] + [0] * 6),
    "counter": _Demo(lambda: racy_counter(2, 1), "c >= 0", ("c",)),
}


def _run_demo(demo: _Demo, seed: Optional[int] = None,
              backend: str = "flat", relevance=None):
    scheduler = (RandomScheduler(seed) if seed is not None
                 else FixedScheduler(demo.schedule or [], strict=False))
    return run_program(demo.factory(), scheduler, relevance=relevance,
                       clock_backend=backend)


def _spec_usage_errors(args: argparse.Namespace,
                       out: Callable[[str], None]) -> bool:
    """Up-front syntax validation of ``--spec`` / ``--engine`` arguments.

    Returns True (and prints the parse span) when any is malformed, so
    commands exit 1 with a pointed error instead of a traceback deep in
    monitor or engine construction.
    """
    from .staticcheck.speccheck import (
        validate_selection_syntax,
        validate_spec_syntax,
    )

    bad = False
    spec = getattr(args, "spec", None)
    if spec is not None:
        problem = validate_spec_syntax(spec)
        if problem is not None:
            out(f"error: invalid --spec: {problem}")
            bad = True
    for sel in getattr(args, "engines", None) or ():
        problem = validate_selection_syntax(sel, default_spec=spec)
        if problem is not None:
            out(f"error: invalid --engine {sel!r}: {problem}")
            bad = True
    return bad


def _engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", action="append", default=None, dest="engines",
        metavar="SEL",
        help="analysis engine selection, repeatable: 'ltl[:FORMULA]', "
             "'atomicity', 'pattern:STEPS' (default: one LTL engine under "
             "the spec; see docs/ENGINES.md)")


def _demo_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=sorted(DEMOS),
                        help="bundled workload to run")
    parser.add_argument("--seed", type=int, default=None,
                        help="use a seeded random schedule instead of the "
                             "paper's observed one")


def cmd_demo(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if _spec_usage_errors(args, out):
        return 1
    demo = DEMOS[args.workload]
    spec = args.spec or demo.spec
    execution = _run_demo(demo, args.seed)
    out(f"program: {execution.program_name}   spec: {spec}")
    out("messages:")
    for m in execution.messages:
        out(f"  {m.pretty()}")
    baseline = detect(execution, spec)
    out(f"observed run: {'OK' if baseline.ok else 'VIOLATION'}")
    report = predict(execution, spec, mode="full")
    out(f"lattice: {report.nodes} states, {report.n_runs} runs")
    out(f"violations (observed or predicted): {len(report.violations)}")
    for v in report.violations:
        out("  counterexample: " + v.pretty(demo.variables))
    if report.predicted:
        out("VERDICT: violation PREDICTED from a successful execution")
        return 1
    if not baseline.ok:
        out("VERDICT: violation observed directly")
        return 1
    out("VERDICT: no violation in any consistent run")
    return 0


def cmd_record(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    demo = DEMOS[args.workload]
    execution = _run_demo(demo, args.seed)
    n = write_trace(args.trace, execution.n_threads, execution.initial_store,
                    execution.messages, program=execution.program_name)
    out(f"recorded {n} messages from {execution.program_name} to {args.trace}")
    return 0


def cmd_check(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if not args.spec:
        out("error: --spec is required for check")
        return 2
    if _spec_usage_errors(args, out):
        return 1
    trace = read_trace(args.trace)
    from .lattice import LevelByLevelBuilder
    from .logic import Monitor

    try:
        monitor = Monitor(args.spec)
    except ValueError as exc:
        out(f"error: invalid --spec: {exc}")
        return 1
    initial = {v: trace.initial[v] for v in sorted(monitor.variables)}
    builder = LevelByLevelBuilder(trace.n_threads, initial, monitor)
    builder.feed_many(trace.messages)
    builder.finish()
    out(f"trace: {trace.program}, {len(trace.messages)} messages, "
        f"{trace.n_threads} threads")
    out(f"lattice nodes expanded: {builder.stats.nodes_expanded}")
    out(f"violations: {len(builder.violations)}")
    variables = sorted(monitor.variables)
    for v in builder.violations:
        out("  counterexample: " + v.pretty(variables))
    return 1 if builder.violations else 0


def cmd_render(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    demo = DEMOS[args.workload]
    execution = _run_demo(demo, args.seed)
    initial = {v: execution.initial_store[v] for v in demo.variables}
    lattice = ComputationLattice(execution.n_threads, initial,
                                 execution.messages)
    if args.dot:
        out(to_dot(lattice, demo.variables, title=execution.program_name))
    else:
        out(render_computation(execution.messages, execution.n_threads))
        out("")
        out(render_lattice(lattice, demo.variables))
    return 0


def cmd_analyze(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if _spec_usage_errors(args, out):
        return 1
    demo = DEMOS[args.workload]
    scheduler = (RandomScheduler(args.seed) if args.seed is not None
                 else FixedScheduler(demo.schedule or [], strict=False))
    execution = run_program(demo.factory(), scheduler,
                            relevance=all_accesses(),
                            sync_only_clocks=True)
    from .analysis import analyze

    # Predictive checking needs the full causal clocks; re-run with the
    # default instrumentation for that part.
    pred_exec = _run_demo(demo, args.seed)
    report = analyze(pred_exec, specs=[args.spec or demo.spec],
                     check_races=False)
    race_part = analyze(execution, specs=(), check_races=True)
    report.races = race_part.races
    report.races_checked = True
    report.deadlocks = race_part.deadlocks
    out(report.summary())
    return 0 if report.clean else 1


def cmd_races(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    demo = DEMOS[args.workload]
    scheduler = (RandomScheduler(args.seed) if args.seed is not None
                 else FixedScheduler(demo.schedule or [], strict=False))
    execution = run_program(demo.factory(), scheduler,
                            relevance=all_accesses(),
                            sync_only_clocks=True)
    races = find_races(execution)
    out(f"program: {execution.program_name}   races: {len(races)}")
    for r in races:
        out("  " + r.pretty())
    return 1 if races else 0


def cmd_explore(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if _spec_usage_errors(args, out):
        return 1
    from .analysis import model_check

    demo = DEMOS[args.workload]
    result = model_check(demo.factory(), args.spec or demo.spec,
                         max_executions=args.limit)
    out(f"program: {result.program_name}   spec: {result.spec}")
    out(f"interleavings explored: {result.total_runs}"
        + (" (truncated)" if result.truncated else ""))
    out(f"violating interleavings: {result.violating_runs} "
        f"({result.violation_rate:.1%})")
    if result.witness is not None:
        out(f"witness schedule: {result.witness.schedule}")
    return 0 if result.ok else 1


def cmd_run(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if _spec_usage_errors(args, out):
        return 1
    from .lang import compile_source

    with open(args.source, encoding="utf-8") as fh:
        text = fh.read()
    program = compile_source(text, name=args.source)
    scheduler = (RandomScheduler(args.seed) if args.seed is not None
                 else FixedScheduler([], strict=False))
    execution = run_program(program, scheduler)
    out(f"compiled {args.source}: {program.n_threads} threads, "
        f"shared = {sorted(map(str, program.default_relevance_vars()))}")
    out(f"executed {len(execution.events)} events, "
        f"{len(execution.messages)} relevant messages")
    out(f"final state: { {str(k): v for k, v in execution.final_store.items()} }")
    if not args.spec:
        return 0
    baseline = detect(execution, args.spec)
    out(f"observed run: {'OK' if baseline.ok else 'VIOLATION'}")
    report = predict(execution, args.spec)
    out(f"violations (observed or predicted): {len(report.violations)}")
    from .logic import Monitor

    variables = sorted(Monitor(args.spec).variables)
    for v in report.violations:
        out("  counterexample: " + v.pretty(variables))
    return 1 if report.violations else 0


def cmd_observe(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if _spec_usage_errors(args, out):
        return 1
    from . import obs
    from .observer import FaultPlan, FaultyChannel, MultiChannel, Observer
    from .observer import FifoChannel, ReorderingChannel

    demo = DEMOS[args.workload]
    spec = args.spec or demo.spec
    try:
        plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2

    want_metrics = args.metrics
    want_trace = args.trace_out is not None
    if want_metrics:
        obs.metrics.enable(reset=True)
    if want_trace:
        obs.tracing.enable(reset=True)
    reporter = (obs.ProgressReporter(every=args.progress, out=out,
                                     label="messages")
                if args.progress else None)
    try:
        # engines beyond the LTL default need the sync and read events in
        # the stream, so widen Algorithm A's relevance to every access
        execution = _run_demo(
            demo, args.seed,
            relevance=all_accesses() if args.engines else None)
        inner = {"fifo": lambda: FifoChannel(),
                 "reorder": lambda: ReorderingChannel(seed=plan.seed, window=4),
                 "multi": lambda: MultiChannel(k=2, seed=plan.seed)}[args.channel]()
        channel = FaultyChannel(plan, inner=inner)
        initial = {v: execution.initial_store[v] for v in demo.variables}
        observer = Observer(execution.n_threads, initial, spec=spec,
                            fault_tolerant=True, stall_threshold=args.stall,
                            engines=args.engines)
        totals = [0] * execution.n_threads
        for m in execution.messages:
            totals[m.thread] += 1
            channel.put(m)
            observer.consume(channel)
            if reporter is not None:
                health = observer.health
                stats = observer.stats
                reporter.tick(
                    delivered=health.delivered, buffered=health.pending,
                    level=stats.levels_completed if stats else 0)
        channel.close()
        observer.consume(channel)
        observer.finish(expected_totals=totals)
        if reporter is not None:
            reporter.final(delivered=observer.health.delivered,
                           buffered=observer.health.pending)
    finally:
        if want_metrics:
            obs.metrics.disable()
        if want_trace:
            obs.tracing.disable()

    out(f"program: {execution.program_name}   spec: {spec}")
    out(f"messages emitted: {len(execution.messages)}   "
        f"injected faults: {channel.log.summary()}")
    out("observer health:")
    for line in observer.health.summary().splitlines():
        out("  " + line)
    verdicts = observer.engine_verdicts()
    counterexamples = observer.counterexamples()
    if args.engines:
        out("engine verdicts:")
        for v in verdicts:
            out(f"  {v.qualified} [{v.spec}]: {v.verdict} "
                f"({v.violations} finding(s))")
    out(f"violations (on the analyzed region): "
        f"{sum(v.violations for v in verdicts)}")
    for c in counterexamples:
        out("  counterexample: " + c)
    if want_metrics:
        out("metrics:")
        for line in obs.metrics.REGISTRY.summary().splitlines():
            out("  " + line)
    if want_trace:
        n = obs.tracing.TRACER.export_chrome(args.trace_out)
        out(f"trace: {n} events written to {args.trace_out} "
            "(load in chrome://tracing or ui.perfetto.dev)")
    if observer.health.degraded:
        out("VERDICT: degraded — verdicts sound only outside the "
            "quarantined windows")
    else:
        out("VERDICT: sound everywhere (all faults absorbed)")
    return 1 if any(v.violations for v in verdicts) else 0


def cmd_stats(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Profile one workload end to end: run it instrumented, analyze it
    predictively with metrics + tracing on, and report where the time and
    space went."""
    import json as _json

    if _spec_usage_errors(args, out):
        return 1
    from . import obs

    demo = DEMOS[args.workload]
    spec = args.spec or demo.spec
    obs.enable(reset=True)
    try:
        with obs.tracing.TRACER.span("stats.workload", workload=args.workload):
            execution = _run_demo(demo, args.seed, backend=args.backend)
        report = predict(execution, spec, mode="levels")
    finally:
        obs.disable()

    out(f"program: {execution.program_name}   spec: {spec}")
    out(f"events: {len(execution.events)}   relevant messages: "
        f"{len(execution.messages)}   threads: {execution.n_threads}")
    out(f"lattice: {report.nodes} cuts expanded over "
        f"{report.stats.levels_completed} levels   "
        f"peak resident cuts: {report.stats.peak_resident_cuts}")
    out(f"violations (observed or predicted): {len(report.violations)}")
    out("")
    out("metrics:")
    for line in obs.metrics.REGISTRY.summary().splitlines():
        out("  " + line)
    out("")
    out("span hotspots:")
    for line in obs.tracing.TRACER.hotspots(top=args.top).splitlines():
        out("  " + line)
    if args.trace_out is not None:
        n = obs.tracing.TRACER.export_chrome(args.trace_out)
        out(f"trace: {n} events written to {args.trace_out} "
            "(load in chrome://tracing or ui.perfetto.dev)")
    if args.json:
        out(_json.dumps(obs.metrics.REGISTRY.snapshot(), indent=2,
                        default=str))
    return 0


def cmd_serve(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Run the multi-session analysis server until interrupted."""
    import signal
    import threading

    if _spec_usage_errors(args, out):
        return 1
    from .server import AnalysisServer, ServerConfig

    def on_end(record: dict) -> None:
        verdict = (record["error"] if record["state"] == "failed"
                   else f"{record['violations']} violation(s)")
        out(f"session {record['session']} [{record['program']}] "
            f"{record['state']}: {record['analyzed']} events analyzed, "
            f"{verdict}")
        sys.stdout.flush()

    try:
        config = ServerConfig(
            host=args.host, port=args.port, max_sessions=args.max_sessions,
            max_queued_events=args.max_queued, workers=args.workers,
            results_path=args.results, archive_dir=args.archive,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_timeout=args.resume_timeout, recover=args.recover,
            default_engines=tuple(args.engines or ()),
            strict_specs=args.strict_specs)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    server = AnalysisServer(config, on_session_end=on_end).start()
    out(f"serving on {server.host}:{server.port} "
        f"(max {config.max_sessions} sessions, {config.workers} workers)")
    sys.stdout.flush()

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    stop.wait()
    out("shutting down: draining live sessions ...")
    sys.stdout.flush()
    records = server.shutdown(drain=True)
    finished = sum(r["state"] == "finished" for r in records)
    failed = len(records) - finished
    out(f"served {len(records)} session(s): {finished} finished, "
        f"{failed} failed")
    return 0


def cmd_attach(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Run a bundled workload as a client of a running analysis server."""
    if _spec_usage_errors(args, out):
        return 1
    from .server import ServerRejected, attach

    demo = DEMOS[args.workload]
    spec = args.spec or demo.spec
    execution = _run_demo(
        demo, args.seed,
        relevance=all_accesses() if args.engines else None)
    initial = {v: execution.initial_store[v] for v in demo.variables}
    try:
        session = attach(args.host, args.port,
                         n_threads=execution.n_threads, initial=initial,
                         spec=spec, program=args.workload,
                         engines=args.engines,
                         reconnect=args.resume)
    except (ServerRejected, OSError) as exc:
        out(f"error: attach to {args.host}:{args.port} failed: {exc}")
        return 2
    out(f"attached to {args.host}:{args.port} as session "
        f"{session.session_id}")
    with session:
        for m in execution.messages:
            session.send(m)
    verdict = session.verdict
    out(f"streamed {len(execution.messages)} messages   "
        f"analyzed: {verdict.analyzed}   state: {verdict.state}")
    if verdict.engines and args.engines:
        out("engine verdicts:")
        for doc in verdict.engines:
            out(f"  {doc['engine']}@{doc['version']} [{doc.get('spec')}]: "
                f"{'violation' if doc['violations'] else 'clean'} "
                f"({doc['violations']} finding(s))")
    out(f"violations (observed or predicted): {verdict.violations}")
    for c in verdict.counterexamples:
        out("  counterexample: " + c)
    if verdict.state != "finished":
        out(f"error: session ended {verdict.state}: {verdict.error}")
        return 2
    return 1 if verdict.violations else 0


def _fetch_status_or_explain(host: str, port: int,
                             out: Callable[[str], None]):
    """One status round-trip with human-readable failure modes (instead
    of a raw OSError traceback); returns None after printing the error."""
    import socket

    from .server import fetch_status

    try:
        return fetch_status(host, port)
    except ConnectionRefusedError:
        out(f"error: no daemon is listening on {host}:{port} — is "
            f"'repro serve' (or 'repro fleet serve') running there?")
    except socket.timeout:
        out(f"error: {host}:{port} did not answer the status query in "
            f"time; the daemon may be overloaded or the port may belong "
            f"to something else")
    except OSError as exc:
        out(f"error: status query to {host}:{port} failed: {exc}")
    return None


def _print_session_table(rows: list[dict], out: Callable[[str], None],
                         with_shard: bool = False) -> None:
    if not rows:
        out("no sessions yet")
        return
    shard_col = f"{'shard':>5} " if with_shard else ""
    out(f"{'id':>9}  {shard_col}{'program':<10} {'state':<10} "
        f"{'events':>7} {'pending':>7} {'viol':>5}  detail")
    for r in rows:
        detail = r["error"] or (r["counterexamples"][0]
                                if r["counterexamples"] else "")
        shard_val = (f"{r.get('shard', '?'):>5} " if with_shard else "")
        out(f"{r['session']:>9}  {shard_val}{r['program']:<10} "
            f"{r['state']:<10} {r['analyzed']:>7} {r['pending']:>7} "
            f"{r['violations']:>5}  {detail}")


def cmd_sessions(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Query a running server's status endpoint."""
    import json as _json

    status = _fetch_status_or_explain(args.host, args.port, out)
    if status is None:
        return 2
    if args.json:
        out(_json.dumps(status, indent=2, default=str))
        return 0
    srv = status["server"]
    out(f"server {srv['host']}:{srv['port']} v{srv['version']}   "
        f"up {srv['uptime_s']:.0f}s   "
        f"sessions: {srv['active_sessions']}/{srv['max_sessions']} active, "
        f"{srv['finished']} finished, {srv['failed']} failed, "
        f"{srv['rejected']} rejected")
    _print_session_table(status["sessions"], out,
                         with_shard="fleet" in status)
    return 0


def cmd_status(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Fleet-wide status: router counters, per-shard health, every session.

    Against a plain single daemon (no ``fleet`` section in the status
    document) it degrades to the ``repro sessions`` view.
    """
    import json as _json

    status = _fetch_status_or_explain(args.host, args.port, out)
    if status is None:
        return 2
    if args.json:
        out(_json.dumps(status, indent=2, default=str))
        return 0
    srv = status["server"]
    fleet = status.get("fleet")
    if fleet is None:
        out(f"single daemon {srv['host']}:{srv['port']} v{srv['version']} "
            f"(no fleet section; showing its own status)")
        out(f"up {srv['uptime_s']:.0f}s   "
            f"sessions: {srv['active_sessions']}/{srv['max_sessions']} "
            f"active, {srv['finished']} finished, {srv['failed']} failed, "
            f"{srv['rejected']} rejected")
        _print_session_table(status["sessions"], out)
        return 0
    router = fleet["router"]
    shards = fleet["shards"]
    up = sum(r["state"] == "up" for r in shards)
    out(f"fleet {srv['host']}:{srv['port']} v{srv['version']}   "
        f"up {srv['uptime_s']:.0f}s   shards: {up}/{len(shards)} up   "
        f"sessions: {srv['active_sessions']}/{srv['max_sessions']} active, "
        f"{srv['finished']} finished, {srv['failed']} failed, "
        f"{srv['rejected']} rejected")
    out(f"router: {router['routed_sessions']} routed, "
        f"{router['spills']} spills, {router['rejects']} rejects, "
        f"{router['rebalanced_sessions']} rebalanced, "
        f"{router['shard_restarts']} shard restarts")
    out(f"{'shard':>5}  {'state':<12} {'address':<21} {'gen':>3} "
        f"{'restarts':>8} {'active':>9} {'finished':>8} {'failed':>6} "
        f"{'rejected':>8}")
    for r in shards:
        addr = (f"{r['host']}:{r['port']}" if "host" in r else "-")
        active = (f"{r['active_sessions']}/{r['max_sessions']}"
                  if "active_sessions" in r else "-")
        out(f"{r['shard']:>5}  {r['state']:<12} {addr:<21} "
            f"{r.get('generation', '-'):>3} {r['restarts']:>8} "
            f"{active:>9} {r.get('finished', '-'):>8} "
            f"{r.get('failed', '-'):>6} {r.get('rejected', '-'):>8}")
    out("")
    _print_session_table(status["sessions"], out, with_shard=True)
    return 0


def cmd_fleet_serve(args: argparse.Namespace,
                    out: Callable[[str], None]) -> int:
    """Run the sharded analysis fleet until interrupted."""
    import signal
    import threading

    if _spec_usage_errors(args, out):
        return 1
    from .fleet import FleetConfig, AnalysisFleet

    try:
        config = FleetConfig(
            host=args.host, port=args.port, shards=args.shards,
            max_sessions=args.max_sessions,
            max_queued_events=args.max_queued, workers=args.workers,
            results_path=args.results, archive_dir=args.archive,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_timeout=args.resume_timeout,
            default_engines=tuple(args.engines or ()),
            strict_specs=args.strict_specs)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    try:
        fleet = AnalysisFleet(config).start()
    except RuntimeError as exc:
        out(f"error: fleet failed to start: {exc}")
        return 2
    mode = ", journaled" if config.checkpoint_dir else ""
    out(f"fleet serving on {fleet.host}:{fleet.port} "
        f"({config.shards} shards, {config.max_sessions} sessions x "
        f"{config.workers} workers each{mode})")
    for row in fleet.supervisor.snapshot():
        if row["state"] == "up":
            out(f"  shard {row['shard']}: {row['host']}:{row['port']} "
                f"(pid {row['pid']})")
    sys.stdout.flush()

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    stop.wait()
    out("shutting down: draining shards ...")
    sys.stdout.flush()
    final = fleet.status()
    fleet.shutdown()
    router = final["fleet"]["router"]
    out(f"fleet served {router['routed_sessions']} session(s): "
        f"{final['server']['finished']} finished, "
        f"{final['server']['failed']} failed, {router['spills']} spills, "
        f"{router['shard_restarts']} shard restarts")
    return 0


def cmd_lint(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Static shared-state soundness lint + spec-relevance report."""
    import json as _json

    from .staticcheck import lint_paths
    from .staticcheck.speccheck import check_spec_text

    spec_diags = []
    lint_spec = args.spec
    if args.spec is not None:
        # cross-wire the spec-consistency pass: its SC3xx findings land in
        # the same report as the slicing/soundness ones
        spec_result = check_spec_text(args.spec)
        spec_diags = spec_result.diagnostics
        if "SC300" in spec_result.codes():
            lint_spec = None    # unparseable: lint without spec-relevance
    try:
        report = lint_paths(args.paths, spec=lint_spec)
    except OSError as exc:
        out(f"error: {exc}")
        return 2
    report.extend(spec_diags)
    if args.json or args.json_out:
        doc = _json.dumps(report.to_json(), indent=2)
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        if args.json:
            out(doc)
    if not args.json:
        out(report.pretty())
    if not report.ok:
        return 1
    if args.fail_on_warn and report.warnings:
        return 1
    return 0


def cmd_spec_check(args: argparse.Namespace,
                   out: Callable[[str], None]) -> int:
    """Static spec consistency: satisfiability, falsifiability, vacuity,
    with synthesized witness/counter traces (see docs/SPECCHECK.md)."""
    import glob as _glob
    import json as _json
    import os as _os

    from .staticcheck.speccheck import (
        SpecCheckOptions,
        SpecCheckReport,
        check_spec_file,
        check_spec_text,
        scan_python_specs,
    )

    try:
        options = SpecCheckOptions(horizon=args.horizon,
                                   max_values=args.values,
                                   extra_values=tuple(args.value or ()))
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    report = SpecCheckReport()
    had_input = False
    for target in args.targets:
        had_input = True
        try:
            if _os.path.isdir(target):
                for path in sorted(_glob.glob(
                        _os.path.join(target, "**", "*.spec"),
                        recursive=True)):
                    for r in check_spec_file(path, options=options):
                        report.add(r)
            elif _os.path.isfile(target):
                for r in check_spec_file(target, options=options):
                    report.add(r)
            else:
                report.add(check_spec_text(target, options=options))
        except OSError as exc:
            out(f"error: {exc}")
            return 2
    if args.demos:
        had_input = True
        for name in sorted(DEMOS):
            report.add(check_spec_text(DEMOS[name].spec,
                                       file=f"<demo:{name}>",
                                       options=options))
    if args.scan:
        had_input = True
        for src in scan_python_specs(args.scan):
            report.add(check_spec_text(src.text, file=src.file,
                                       line=src.line, col=src.col,
                                       options=options))
    if not had_input:
        out("error: nothing to check — give a spec string, a .spec "
            "file/directory, --demos, or --scan PATH")
        return 2
    if args.json or args.json_out:
        doc = _json.dumps(report.to_json(), indent=2)
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        if args.json:
            out(doc)
    if not args.json:
        out(report.pretty())
    if not report.ok:
        return 1
    if args.fail_on_warn and report.warnings:
        return 1
    return 0


def cmd_archive(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Record a workload run (or ingest a trace file) into an archive."""
    if _spec_usage_errors(args, out):
        return 1
    from .observer.trace import TraceFormatError, TraceHeader, iter_trace
    from .store import TraceArchive

    if (args.workload is None) == (args.import_trace is None):
        out("error: give exactly one of a workload name or --import-trace")
        return 2
    archive = TraceArchive(args.dir)
    if args.import_trace is not None:
        try:
            stream = iter_trace(args.import_trace)
            header = next(stream)
            assert isinstance(header, TraceHeader)
            entry = archive.record_messages(
                args.program or header.program, header.n_threads,
                header.initial, stream, spec=args.spec,
                engines=args.engines)
        except (OSError, TraceFormatError) as exc:
            out(f"error: {exc}")
            return 2
    else:
        demo = DEMOS[args.workload]
        spec = args.spec or demo.spec
        execution = _run_demo(
            demo, args.seed,
            relevance=all_accesses() if args.engines else None)
        entry = archive.record_messages(
            args.program or args.workload, execution.n_threads,
            execution.initial_store, execution.messages, spec=spec,
            engines=args.engines)
    out(f"archived {entry.id}: {entry.events} events, {entry.bytes} bytes, "
        f"verdict {entry.verdict} ({entry.violations} violation(s))")
    for c in entry.counterexamples:
        out("  counterexample: " + c)
    return 0


def cmd_replay(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Deterministically replay archived traces; optionally enforce the
    catalog verdicts (regression-corpus mode) or re-analyze with --spec."""
    import json as _json

    if _spec_usage_errors(args, out):
        return 1
    from .observer.trace import TraceFormatError
    from .store import CatalogError, TraceArchive, replay_entry, verify_entry

    if args.expect_catalog and args.spec is not None:
        out("error: --expect-catalog replays under the recorded spec; "
            "it cannot be combined with --spec")
        return 2
    if bool(args.all) == bool(args.ids):
        out("error: give either --all or one or more trace ids")
        return 2
    try:
        archive = TraceArchive(args.dir)
        entries = (archive.entries() if args.all
                   else [archive.get(i) for i in args.ids])
    except (OSError, CatalogError) as exc:
        out(f"error: {exc}")
        return 2
    if not entries:
        out("archive holds no traces")
        return 0
    # --json emits the result document alone (the query convention);
    # the per-trace progress lines are for humans
    say = (lambda line: None) if args.json else out
    drifted = 0
    violated = 0
    results = []
    for entry in entries:
        try:
            if args.expect_catalog:
                problems = verify_entry(archive, entry,
                                        extra_engines=args.engines or ())
                if problems:
                    drifted += 1
                    say(f"{entry.id}: DRIFT")
                    for p in problems:
                        say(f"  {p}")
                else:
                    say(f"{entry.id}: OK — reproduced "
                        f"{entry.violations} violation(s) over "
                        f"{entry.events} events")
                results.append({"id": entry.id, "drift": problems})
            else:
                r = replay_entry(archive, entry, spec=args.spec,
                                 engines=args.engines)
                violated += bool(r.violations)
                say(f"{entry.id}: {r.verdict} — {r.violations} violation(s) "
                    f"over {r.events} events "
                    f"({r.events_per_sec:,.0f} events/s)"
                    + (f" under spec {args.spec!r}" if args.spec else ""))
                if args.engines:
                    for doc in r.engines:
                        say(f"  {doc['engine']}@{doc['version']} "
                            f"[{doc.get('spec')}]: "
                            f"{'violation' if doc['violations'] else 'clean'} "
                            f"({doc['violations']} finding(s))")
                for c in r.counterexamples:
                    say("  counterexample: " + c)
                results.append({
                    "id": entry.id, "verdict": r.verdict,
                    "violations": r.violations, "events": r.events,
                    "counterexamples": list(r.counterexamples),
                    "final_clocks": [list(c) for c in r.final_clocks],
                    "sound": r.sound, "elapsed_s": round(r.elapsed_s, 6),
                    "engines": list(r.engines),
                })
        except (OSError, TraceFormatError, CatalogError, KeyError) as exc:
            out(f"error: replay of {entry.id} failed: {exc}")
            return 2
    if args.json:
        out(_json.dumps(results, indent=2))
    if args.expect_catalog:
        say(f"replayed {len(entries)} trace(s): "
            + ("all verdicts reproduced exactly" if not drifted
               else f"{drifted} DRIFTED"))
        return 1 if drifted else 0
    return 1 if violated else 0


def cmd_query(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Filter the archive catalog."""
    import json as _json

    from .store import CatalogError, CatalogQuery, TraceArchive

    try:
        query = CatalogQuery(
            program=args.program, spec_contains=args.spec_contains,
            verdict=args.verdict, engine=args.engine,
            min_events=args.min_events, max_events=args.max_events)
        entries = TraceArchive(args.dir).entries(query)
    except (OSError, CatalogError, ValueError) as exc:
        out(f"error: {exc}")
        return 2
    if args.json:
        out(_json.dumps([e.to_json() for e in entries], indent=2,
                        default=str))
        return 0
    if not entries:
        out("no matching traces")
        return 0
    out(f"{'id':<16} {'program':<10} {'threads':>7} {'events':>7} "
        f"{'bytes':>9} {'verdict':<9} {'viol':>4} {'engine':<12}  spec")
    for e in entries:
        out(f"{e.id:<16} {e.program:<10} {e.n_threads:>7} {e.events:>7} "
            f"{e.bytes:>9} {e.verdict:<9} {e.violations:>4} "
            f"{e.engine:<12}  {e.spec or ''}")
    out(f"{len(entries)} trace(s)")
    return 0


def cmd_gc(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Apply the retention policy to an archive."""
    from .store import CatalogError, RetentionPolicy, TraceArchive

    try:
        policy = RetentionPolicy(
            max_age_s=args.max_age_s, max_total_bytes=args.max_bytes,
            max_entries=args.keep)
        archive = TraceArchive(args.dir)
        report = archive.gc(policy, dry_run=args.dry_run)
    except (OSError, CatalogError, ValueError) as exc:
        out(f"error: {exc}")
        return 2
    if not policy.bounded:
        out("warning: no retention bound given "
            "(--max-age-s / --max-bytes / --keep); nothing to do")
    for e in report.removed:
        out(("would remove " if args.dry_run else "removed ")
            + f"{e.id} ({e.bytes} bytes, {e.verdict})")
    out(report.summary())
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MultiPathExplorer: predictive runtime analysis of "
                    "multithreaded programs (Roşu & Sen, IPDPS 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run a workload and predict violations")
    _demo_arg(p)
    p.add_argument("--spec", default=None, help="override the bundled spec")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("record", help="run a workload, persist its trace")
    _demo_arg(p)
    p.add_argument("trace", help="output trace file (JSON lines)")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("check", help="predictive analysis of a trace file")
    p.add_argument("trace", help="trace file produced by 'record'")
    p.add_argument("--spec", required=True, help="safety specification")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("render", help="print the computation lattice")
    _demo_arg(p)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("races", help="happens-before data-race report")
    _demo_arg(p)
    p.set_defaults(fn=cmd_races)

    p = sub.add_parser("analyze", help="all analyses in one report")
    _demo_arg(p)
    p.add_argument("--spec", default=None, help="override the bundled spec")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("explore", help="exhaustive ground-truth model check")
    _demo_arg(p)
    p.add_argument("--spec", default=None, help="override the bundled spec")
    p.add_argument("--limit", type=int, default=100_000,
                   help="max interleavings to explore")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("observe",
                       help="fault-tolerant observation over a faulty channel")
    _demo_arg(p)
    p.add_argument("--spec", default=None, help="override the bundled spec")
    p.add_argument("--faults", default="",
                   help="fault spec, e.g. drop=0.05,dup=0.02,corrupt=0.01 "
                        "(also: delay=, delay_max=, crash_after=)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault-injection RNG")
    p.add_argument("--stall", type=_positive_int, default=None,
                   help="declare blocking gaps lost after this many stalled "
                        "ingests (default: only at end of stream)")
    p.add_argument("--channel", choices=("fifo", "reorder", "multi"),
                   default="fifo", help="delivery-order model under the faults")
    p.add_argument("--metrics", action="store_true",
                   help="collect pipeline metrics and print a summary")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record spans and write a Chrome/Perfetto trace file")
    p.add_argument("--progress", type=_positive_int, default=None, metavar="N",
                   help="print a progress line every N messages ingested")
    _engine_arg(p)
    p.set_defaults(fn=cmd_observe)

    p = sub.add_parser("stats",
                       help="profile a workload with metrics and tracing on")
    _demo_arg(p)
    p.add_argument("--spec", default=None, help="override the bundled spec")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome/Perfetto trace file")
    p.add_argument("--json", action="store_true",
                   help="also dump the raw metrics snapshot as JSON")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="number of span hotspots to show (default 10)")
    p.add_argument("--backend", choices=("flat", "tree", "auto"),
                   default="flat",
                   help="vector-clock backend for the instrumented run "
                        "(see docs/PERFORMANCE.md)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("serve", help="run the multi-session analysis server")
    p.add_argument("--host", default="127.0.0.1", help="listen address")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral, printed at startup)")
    p.add_argument("--max-sessions", type=_positive_int, default=16,
                   help="admission bound on concurrent sessions (default 16)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="analysis worker threads (default 2)")
    p.add_argument("--max-queued", type=_positive_int, default=1024,
                   help="per-session ingest queue bound (default 1024)")
    p.add_argument("--results", default=None, metavar="FILE",
                   help="append terminal session records to this JSONL file")
    p.add_argument("--archive", default=None, metavar="DIR",
                   help="persist every finished session into a trace "
                        "archive rooted at DIR (see 'repro replay/query/gc')")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   dest="checkpoint_dir",
                   help="directory for durable session journals: every "
                        "session journals what it analyzed (required by "
                        "--recover)")
    p.add_argument("--checkpoint-every", type=_positive_int, default=128,
                   help="journal fsync cadence in events (default 128)")
    p.add_argument("--resume-timeout", type=float, default=0.0,
                   metavar="SECS",
                   help="keep a disconnected session resumable for this "
                        "long before failing it (default 0 = fail at once)")
    p.add_argument("--recover", action="store_true",
                   help="on startup, readmit sessions journaled under "
                        "--checkpoint by a previous daemon")
    p.add_argument("--strict-specs", action="store_true",
                   help="run 'repro spec check' on every hello's spec and "
                        "engine selections; reject inconsistent/vacuous "
                        "specs at handshake instead of burning a worker "
                        "(see docs/SPECCHECK.md)")
    _engine_arg(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("attach",
                       help="stream a workload to a running analysis server")
    _demo_arg(p)
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, required=True, help="server port")
    p.add_argument("--spec", default=None, help="override the bundled spec")
    p.add_argument("--resume", action="store_true",
                   help="transparently reconnect and resume the session if "
                        "the connection drops mid-stream")
    _engine_arg(p)
    p.set_defaults(fn=cmd_attach)

    p = sub.add_parser("sessions",
                       help="query a running server's status endpoint")
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, required=True, help="server port")
    p.add_argument("--json", action="store_true",
                   help="dump the raw status document as JSON")
    p.set_defaults(fn=cmd_sessions)

    p = sub.add_parser(
        "fleet", help="sharded analysis fleet (see docs/FLEET.md)")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    p = fleet_sub.add_parser(
        "serve",
        help="run N shard daemons behind one consistent-hash router port")
    p.add_argument("--host", default="127.0.0.1", help="router address")
    p.add_argument("--port", type=int, default=0,
                   help="router port (0 = ephemeral, printed at startup)")
    p.add_argument("--shards", type=_positive_int, default=2,
                   help="shard daemon processes to run (default 2)")
    p.add_argument("--max-sessions", type=_positive_int, default=16,
                   help="admission bound per shard (default 16); the "
                        "fleet admits shards x this many sessions")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="analysis worker threads per shard (default 2)")
    p.add_argument("--max-queued", type=_positive_int, default=1024,
                   help="per-session ingest queue bound (default 1024)")
    p.add_argument("--results", default=None, metavar="FILE",
                   help="shards append terminal session records to this "
                        "JSONL file")
    p.add_argument("--archive", default=None, metavar="DIR",
                   help="fleet archive root: shard N records under "
                        "DIR/shard-NN with trace ids namespaced shNN-")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   dest="checkpoint_dir",
                   help="root for per-shard session journals; with it, "
                        "sessions survive whole-shard crashes (a restarted "
                        "shard recovers them and clients resume)")
    p.add_argument("--checkpoint-every", type=_positive_int, default=128,
                   help="journal fsync cadence in events (default 128)")
    p.add_argument("--resume-timeout", type=float, default=30.0,
                   metavar="SECS",
                   help="per-shard resume window for disconnected "
                        "sessions (default 30; clients re-attach through "
                        "the router after a shard restart)")
    p.add_argument("--strict-specs", action="store_true",
                   help="shards reject inconsistent/vacuous specs at "
                        "handshake (see docs/SPECCHECK.md)")
    _engine_arg(p)
    p.set_defaults(fn=cmd_fleet_serve)

    p = sub.add_parser(
        "status",
        help="fleet-wide status table from a router (or one daemon)")
    p.add_argument("--host", default="127.0.0.1", help="router address")
    p.add_argument("--port", type=int, required=True, help="router port")
    p.add_argument("--json", action="store_true",
                   help="dump the raw status document as JSON")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser(
        "archive",
        help="record a workload run (or a trace file) into a trace archive")
    p.add_argument("dir", help="archive directory (created if absent)")
    p.add_argument("workload", nargs="?", choices=sorted(DEMOS),
                   default=None, help="bundled workload to run and archive")
    p.add_argument("--import-trace", default=None, metavar="FILE",
                   help="ingest an existing trace file (v1 JSONL or v2) "
                        "instead of running a workload")
    p.add_argument("--program", default=None,
                   help="program name for the catalog entry "
                        "(default: workload name / trace header)")
    p.add_argument("--spec", default=None,
                   help="safety spec to analyze under while recording "
                        "(default: the workload's bundled spec)")
    p.add_argument("--seed", type=int, default=None,
                   help="use a seeded random schedule instead of the "
                        "paper's observed one")
    _engine_arg(p)
    p.set_defaults(fn=cmd_archive)

    p = sub.add_parser(
        "replay",
        help="deterministically replay archived traces")
    p.add_argument("dir", help="archive directory")
    p.add_argument("ids", nargs="*",
                   help="trace ids to replay (or use --all)")
    p.add_argument("--all", action="store_true",
                   help="replay every trace in the catalog")
    p.add_argument("--spec", default=None,
                   help="re-analyze under this spec instead of the "
                        "recorded one")
    p.add_argument("--expect-catalog", action="store_true",
                   help="regression-corpus mode: fail (exit 1) unless every "
                        "replay reproduces its catalog verdict bit-for-bit "
                        "(with --engine: extra engines run alongside, the "
                        "diff stays on the recorded ones)")
    p.add_argument("--json", action="store_true",
                   help="also dump the replay results as JSON")
    _engine_arg(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("query", help="filter a trace archive's catalog")
    p.add_argument("dir", help="archive directory")
    p.add_argument("--program", default=None,
                   help="exact program name to match")
    p.add_argument("--spec-contains", default=None, metavar="TEXT",
                   help="substring match against the recorded spec")
    p.add_argument("--verdict", default=None,
                   choices=("violation", "clean"), help="verdict to match")
    p.add_argument("--engine", default=None, metavar="NAME",
                   help="match traces analyzed by this engine: a bare name "
                        "('atomicity') matches any version, 'atomicity@1' "
                        "exactly")
    p.add_argument("--min-events", type=int, default=None,
                   help="minimum event count")
    p.add_argument("--max-events", type=int, default=None,
                   help="maximum event count")
    p.add_argument("--json", action="store_true",
                   help="emit matching catalog entries as JSON")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "gc", help="apply a retention policy to a trace archive")
    p.add_argument("dir", help="archive directory")
    p.add_argument("--max-age-s", type=float, default=None, metavar="S",
                   help="remove traces older than S seconds")
    p.add_argument("--max-bytes", type=int, default=None, metavar="B",
                   help="shrink the archive to at most B bytes (oldest "
                        "traces removed first)")
    p.add_argument("--keep", type=int, default=None, metavar="N",
                   help="keep at most the N newest traces")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without removing it")
    p.set_defaults(fn=cmd_gc)

    p = sub.add_parser(
        "lint",
        help="static shared-state soundness lint (see docs/STATIC.md)")
    p.add_argument("paths", nargs="+",
                   help="Python/MiniLang files or directories to analyze")
    p.add_argument("--spec", default=None,
                   help="specification for spec-relevance (SC113/SC203) "
                        "findings")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report document instead of text")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the JSON report document to FILE")
    p.add_argument("--fail-on-warn", action="store_true",
                   help="exit 1 on WARN findings too (default: only ERROR)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "spec",
        help="specification tooling: 'spec check' is the static "
             "consistency pass (see docs/SPECCHECK.md)")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)
    p = spec_sub.add_parser(
        "check",
        help="prove specs satisfiable/falsifiable/non-vacuous before "
             "deployment, with witness and counter traces")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="a spec or engine-selection string, a .spec file "
                        "(one spec per line, # comments), or a directory "
                        "searched recursively for *.spec files")
    p.add_argument("--demos", action="store_true",
                   help="also check every bundled demo workload's spec")
    p.add_argument("--scan", action="append", default=None, metavar="PATH",
                   help="scan Python sources under PATH for spec string "
                        "literals (*_PROPERTY/*_SPEC assignments, spec= "
                        "and engines= arguments); repeatable")
    p.add_argument("--horizon", type=_positive_int, default=5,
                   help="witness-trace length bound in steps (default 5)")
    p.add_argument("--values", type=_positive_int, default=8,
                   help="per-variable candidate-domain size cap (default 8)")
    p.add_argument("--value", type=int, action="append", default=None,
                   metavar="N",
                   help="extra integer merged into every variable's "
                        "candidate domain; repeatable (escape hatch for "
                        "non-linear arithmetic)")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report document instead of text")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the JSON report document to FILE")
    p.add_argument("--fail-on-warn", action="store_true",
                   help="exit 1 on WARN findings too (default: only ERROR)")
    p.set_defaults(fn=cmd_spec_check)

    p = sub.add_parser("run", help="compile and analyze a MiniLang file")
    p.add_argument("source", help="MiniLang source file")
    p.add_argument("--spec", default=None, help="safety specification")
    p.add_argument("--seed", type=int, default=None,
                   help="seeded random schedule (default: deterministic)")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None,
         out: Callable[[str], None] = print) -> int:
    """Entry point; returns the process exit code (0 clean, 1 violation/race,
    2 usage error)."""
    args = build_parser().parse_args(argv)
    return args.fn(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
