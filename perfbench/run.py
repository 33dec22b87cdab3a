#!/usr/bin/env python3
"""The repository benchmark: the analysis daemon under four closed-loop
workloads, checked session by session against the in-process observer.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced and prints the per-layer metrics,
the tracing overhead and the share of session time no span covers.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  Run from the repository root;
the program is imported from ``src/`` and the daemon is spawned from it.
See ``perfbench/NOTE.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: cold starts per run; ``setup_s`` is their median
SETUP_STARTS = 3
#: traced run: least time spent timing the in-process pipeline, as a
#: share of ``--seconds``
INPROC_SHARE = 0.25


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()[0],
            "python": platform.python_version(), "seed": seed}


def check_parity(runs, refs: dict[int, dict], label: str) -> int:
    """Count failed sessions (errors, unfinished, or a verdict that
    differs from the in-process reference); print the first of them."""
    from inproc import first_difference, verdict_doc

    failed = 0
    shown = False
    for r in runs:
        if r.error is not None:
            problem = r.error
        else:
            problem = first_difference(verdict_doc(r.verdict),
                                       refs[r.stream])
        if problem is None:
            continue
        failed += 1
        if not shown:
            sid = r.verdict.session if r.verdict else "?"
            print(f"parity[{label}]: first failing session {sid} "
                  f"(stream {r.stream}): {problem}")
            shown = True
    print(f"parity[{label}]: {len(runs) - failed}/{len(runs)} sessions "
          f"match the in-process verdict")
    return failed


def summarize(runs) -> dict:
    ok = [r for r in runs if r.error is None]
    if not ok:
        raise RuntimeError("no session completed: "
                           + (runs[0].error if runs else "none attempted"))
    wall = max(r.t_done for r in runs) - min(r.t_attach for r in runs)
    events = sum(r.verdict.analyzed for r in ok)
    return {
        "wall": wall,
        "events": events,
        "events_per_s": events / wall,
        "sessions_per_s": len(ok) / wall,
        "session_ms": [r.session_ms for r in ok],
        "verdict_ms": [r.verdict_ms for r in ok],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(wl, seed: int, seconds: float,
                   quick: bool) -> tuple[dict, int, int]:
    from inproc import Baseline
    from served import Daemon, drive, serve_argv
    from streams import make_pool

    setups = []
    daemon = None
    starts = 1 if quick else SETUP_STARTS
    for k in range(starts):
        t0 = time.perf_counter()
        pool = make_pool(wl, seed, quick)
        gen = time.perf_counter() - t0
        daemon = Daemon(serve_argv(), ROOT)
        try:
            setups.append(gen + daemon.wait_ready())
        except BaseException:
            daemon.stop()
            raise
        if k < starts - 1:
            daemon.stop()
    try:
        runs = drive(daemon.port, pool, wl.clients, seconds)
        rss = daemon.vm_hwm_mb()
    finally:
        daemon.stop()
    base = Baseline(pool)
    base.complete()
    failed = check_parity(runs, base.refs, wl.name)
    s = summarize(runs)
    n = len(s["session_ms"])
    print(f"served: {len(runs)} sessions, {s['events']} events in "
          f"{s['wall']:.3f}s; setup starts: "
          f"{', '.join(f'{x:.3f}' for x in setups)} s")
    print(f"failed_frac {failed / len(runs):.4f} ({failed}/{len(runs)})")
    if n < 100:
        print(f"note: p90 over {n} sessions (< 100): indicative only")
    # name -> (value, unit, samples)
    figures = {
        "events_per_s": (s["events_per_s"], "1/s", 1),
        "sessions_per_s": (s["sessions_per_s"], "1/s", 1),
        "session_ms_p50": (statistics.median(s["session_ms"]), "ms", n),
        "session_ms_p90": (p90(s["session_ms"]), "ms", n),
        "verdict_ms_p50": (statistics.median(s["verdict_ms"]), "ms", n),
        "verdict_ms_p90": (p90(s["verdict_ms"]), "ms", n),
        "daemon_rss_mb": (rss, "MiB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    for name, (value, unit, samples) in figures.items():
        print(f"  {name:22s} {value:14.4f} {unit:5s} (n={samples})")
    metrics = {name: metric(value, unit)
               for name, (value, unit, _n) in figures.items()}
    return metrics, len(runs), failed


def run_traced(wl, seed: int, seconds: float,
               quick: bool) -> tuple[dict, int, int]:
    from inproc import Baseline
    from layers import measure
    from repro.obs import metrics as obs_metrics
    from repro.server import fetch_status
    from served import Daemon, Relay, drive, serve_argv, traced_serve_argv
    from streams import make_pool

    pool = make_pool(wl, seed, quick)
    plain = Daemon(serve_argv(), ROOT)
    traced = Daemon(traced_serve_argv(), ROOT)
    relay = None
    try:
        plain.wait_ready()
        traced.wait_ready()
        untraced_runs = drive(plain.port, pool, wl.clients, seconds / 2)
        plain.stop()

        relay = Relay(traced.port)
        obs_metrics.enable(reset=True)
        cpu0, dcpu0, t0 = os.times(), traced.cpu_seconds(), time.perf_counter()
        traced_runs = drive(relay.port, pool, wl.clients, seconds / 2,
                            traced=True)
        cpu1, dcpu1, t1 = os.times(), traced.cpu_seconds(), time.perf_counter()
        client_snap = obs_metrics.REGISTRY.snapshot()
        obs_metrics.disable()
        status = fetch_status(port=traced.port)
    finally:
        obs_metrics.disable()
        if relay is not None:
            relay.close()
        plain.stop()
        traced.stop()

    base = Baseline(pool)
    base.measure(INPROC_SHARE * seconds)
    base.complete()
    failed = check_parity(untraced_runs, base.refs, wl.name + "/untraced")
    failed += check_parity(traced_runs, base.refs, wl.name + "/traced")
    u, t = summarize(untraced_runs), summarize(traced_runs)
    micro = measure(pool[:wl.probe], relay.first_upstream)

    def counter(snap: dict, name: str) -> float:
        return snap.get(name, {}).get("value", 0)

    ok = [r for r in traced_runs if r.error is None]
    spans = {k: sum(r.spans.get(k, 0) for r in ok)
             for k in ("attach", "algoa", "send", "close")}
    session_ns = sum((r.t_done - r.t_attach) * 1e9 for r in ok)
    sent = counter(client_snap, "reliable.frames_sent")
    server_snap = status.get("metrics", {})
    steps = counter(server_snap, "lattice.monitor_steps")
    hits = counter(server_snap, "lattice.monitor_cache_hits")
    if not steps:
        steps, hits = micro["monitor_steps"], micro["monitor_hits"]
    eng = micro["engines"]
    wall = t1 - t0

    metrics = {
        "inproc.events_per_s": metric(statistics.median(base.rates), "1/s"),
        "algoa.ns_per_op": metric(micro["algoa_ns"] / micro["ops"], "ns"),
        "algoa.msgs_per_op": metric(micro["msgs"] / micro["ops"], "ratio"),
        "encode.ns_per_msg": metric(micro["encode_ns"] / micro["msgs"], "ns"),
        "client.send_ns_per_msg": metric(spans["send"] / t["events"], "ns"),
        "reliable.acks_per_msg": metric(
            counter(client_snap, "reliable.acks") / sent, "ratio"),
        "reliable.frames_per_msg": metric(
            (sent + counter(client_snap, "reliable.retransmissions")
             + counter(client_snap, "reliable.heartbeats")) / sent, "ratio"),
        "wire.bytes_per_event": metric(relay.up / t["events"], "bytes"),
        "decode.ns_per_frame": metric(
            micro["decode_ns"] / max(micro["frames"], 1), "ns"),
        "session.queue_high_water": metric(
            max((r["queue_high_water"] for r in status["sessions"]),
                default=0), "count"),
        "delivery.ns_per_event": metric(
            micro["delivery_ns"] / micro["msgs"], "ns"),
        "bus.annotate_ns_per_event": metric(
            micro["annotate_ns"] / micro["annotated"], "ns"),
        **{f"engine.{name}.ns_per_event": metric(ns / max(n, 1), "ns")
           for name, (n, ns) in sorted(eng.items())},
        "lattice.nodes_expanded": metric(micro["nodes"], "count"),
        "lattice.ns_per_node": metric(
            eng["ltl"][1] / max(micro["nodes"], 1), "ns"),
        "lattice.peak_resident_cuts": metric(micro["peak_cuts"], "count"),
        "lattice.monitor_cache_hit_ratio": metric(hits / max(steps, 1),
                                                  "ratio"),
        "client.attach_ms": metric(
            statistics.median(r.spans["attach"] / 1e6 for r in ok), "ms"),
        "client.close_ms": metric(
            statistics.median(r.spans["close"] / 1e6 for r in ok), "ms"),
        "daemon.cpu_share": metric((dcpu1 - dcpu0) / wall, "ratio"),
        "client.cpu_share": metric(
            (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
            "ratio"),
        "trace.unattributed_share": metric(
            1 - sum(spans.values()) / session_ns, "ratio"),
        "trace.overhead": metric(u["events_per_s"] / t["events_per_s"] - 1,
                                 "ratio"),
    }
    print(f"untraced: {u['events_per_s']:.1f} ev/s over "
          f"{len(untraced_runs)} sessions; traced: "
          f"{t['events_per_s']:.1f} ev/s over {len(traced_runs)} sessions "
          f"(tracing overhead {metrics['trace.overhead']['value']:+.1%}); "
          f"in-process: median of {len(base.rates)} stream runs")
    print(f"server counters: events_ingested="
          f"{counter(server_snap, 'server.events_ingested')} "
          f"lattice.nodes_expanded="
          f"{counter(server_snap, 'lattice.nodes_expanded')} "
          f"monitor_steps={counter(server_snap, 'lattice.monitor_steps')}")
    if micro["probed"]:
        print(f"probe only (not on this workload's served path, first "
              f"{wl.probe} stream(s), <= 256 messages): "
              f"engine.{{{','.join(micro['probed'])}}}"
              + (", lattice.*" if "ltl" in micro["probed"] else ""))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    return metrics, len(untraced_runs) + len(traced_runs), failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small streams and one cold start (smoke test)")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import streams

    wl = streams.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r} (one of "
              f"{', '.join(streams.WORKLOADS)})", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(args.seed)))
    print(f"workload {wl.name}: {wl.clients} closed-loop client(s), "
          f"pool of {wl.pool} streams")
    run = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed = run(wl, args.seed, args.seconds,
                                     args.quick)
    print("env-end: " + json.dumps({"loadavg": os.getloadavg()[0]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
