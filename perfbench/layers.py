"""Per-layer micro-pass of the traced run.

Times calls into each layer's public functions on the workload's own
seeded streams, one layer at a time, in this process:

    AlgorithmA.process -> Message.to_json -> FrameDecoder.feed_line
    -> CausalDelivery.offer_batch -> AnalysisBus.annotate
    -> engine.feed_batch + finish (ltl / atomicity / pattern)

A layer the workload's served path does not use (for example any engine
on ``ingest``) is still measured, on a short prefix of the workload's
stream, and reported as a probe so every run prints every metric.
"""

from __future__ import annotations

import time

from repro.core.algorithm_a import AlgorithmA
from repro.engines import AnalysisBus, make_engine
from repro.obs import metrics
from repro.observer.delivery import CausalDelivery
from repro.observer.reliable import FrameDecoder

from streams import MULTI_ENGINES, Stream

#: batch size of the daemon's worker turns (``ServerConfig.batch``)
BATCH = 64
#: engine probes on a stream whose session runs no such engine stop here
PROBE_MESSAGES = 256

clock = time.perf_counter_ns


def _batches(seq: list, n: int = BATCH):
    for i in range(0, len(seq), n):
        yield seq[i:i + n]


def _selections(s: Stream) -> dict[str, str]:
    """The engine selection string per engine kind: the stream's own where
    its session runs that engine, else the multi-engine default."""
    chosen = {sel.split(":", 1)[0]: sel for sel in MULTI_ENGINES}
    if s.spec and not s.engines:
        chosen["ltl"] = "ltl"
    for sel in s.engines:
        chosen[sel.split(":", 1)[0]] = sel
    return chosen


def _served_engines(s: Stream) -> set[str]:
    if s.engines:
        return {sel.split(":", 1)[0] for sel in s.engines}
    return {"ltl"} if s.spec else set()


def measure(probe: list[Stream], upstream: bytes) -> dict:
    """Returns raw per-layer totals; ``run.py`` turns them into metrics."""
    out = {k: 0 for k in (
        "ops", "algoa_ns", "msgs", "encode_ns", "frames", "decode_ns",
        "delivery_ns", "annotated", "annotate_ns",
        "nodes", "peak_cuts", "monitor_steps", "monitor_hits")}
    engines: dict[str, list[int]] = {}     # name -> [events, ns]
    probed: set[str] = set()

    for s in probe:
        algo = AlgorithmA(s.n_threads, relevance=s.relevance_fn())
        process = algo.process
        t = clock()
        for op in s.ops:
            process(*op)
        out["algoa_ns"] += clock() - t
        out["ops"] += len(s.ops)
        msgs = algo.emitted
        out["msgs"] += len(msgs)

        t = clock()
        for m in msgs:
            m.to_json()
        out["encode_ns"] += clock() - t

        delivery = CausalDelivery(s.n_threads)
        t = clock()
        for chunk in _batches(msgs):
            delivery.offer_batch(chunk)
        out["delivery_ns"] += clock() - t

        bus = AnalysisBus(s.n_threads, [], ordered=True)
        annotate = bus.annotate
        t = clock()
        evs = [annotate(m) for m in msgs]
        out["annotate_ns"] += clock() - t
        out["annotated"] += len(evs)

        served = _served_engines(s)
        for name, sel in _selections(s).items():
            these = evs if name in served else evs[:PROBE_MESSAGES]
            if name not in served:
                probed.add(name)
            spec = s.spec or f"{sorted(s.initial)[0]} >= 0"
            engine = make_engine(sel, s.n_threads, s.initial,
                                 default_spec=spec)
            t = clock()
            for chunk in _batches(these):
                engine.feed_batch(chunk)
            engine.finish()
            ns = clock() - t
            acc = engines.setdefault(name, [0, 0])
            acc[0] += len(these)
            acc[1] += ns
            if name == "ltl":
                out["nodes"] += engine.stats.nodes_expanded
                out["peak_cuts"] = max(out["peak_cuts"],
                                       engine.stats.peak_resident_cuts)
                if name not in served:
                    # served sessions count these in the traced daemon
                    steps, hits = _monitor_counts(sel, s, spec, these)
                    out["monitor_steps"] += steps
                    out["monitor_hits"] += hits

    decoder = FrameDecoder(send=lambda _b: None)
    lines = bytes(upstream).decode("utf-8", "replace").splitlines()[1:]
    t = clock()
    for line in lines:
        decoder.feed_line(line)
    out["decode_ns"] = clock() - t
    out["frames"] = len(lines)
    out["engines"] = engines
    out["probed"] = sorted(probed)
    return out


def _monitor_counts(sel: str, s: Stream, spec: str, evs) -> tuple[int, int]:
    """Monitor steps and memo hits of one LTL run, from the program's own
    counters (an untimed rerun: counting costs time)."""
    engine = make_engine(sel, s.n_threads, s.initial, default_spec=spec)
    metrics.enable(reset=True)
    try:
        for chunk in _batches(evs):
            engine.feed_batch(chunk)
        engine.finish()
        snap = metrics.REGISTRY.snapshot()
    finally:
        metrics.disable()
    return (snap["lattice.monitor_steps"]["value"],
            snap["lattice.monitor_cache_hits"]["value"])
