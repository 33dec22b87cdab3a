"""The in-process side: the ``repro observe`` mode, the baseline rate and
the reference verdicts the served ones are checked against.

The reference runs the same stream through ``AlgorithmA`` with an
``Observer`` as its sink, built with the same spec, engines and
fault-tolerance flag the session hello carries, so a served verdict must
equal it field for field.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from repro.core.algorithm_a import AlgorithmA
from repro.logic.monitor import Monitor
from repro.observer import Observer
from repro.server import SessionVerdict

from streams import Stream


def reference(s: Stream) -> tuple[dict, int, float]:
    """Run one stream in-process; returns ``(verdict doc, messages,
    seconds)`` with the seconds covering Algorithm A plus the analysis."""
    t0 = time.perf_counter()
    observer = Observer(
        s.n_threads, s.initial,
        spec=Monitor(s.spec) if s.spec else None,
        fault_tolerant=s.fault_tolerant,
        engines=list(s.engines) or None)
    algo = AlgorithmA(s.n_threads, relevance=s.relevance_fn(),
                      sink=observer.receive, collect=False)
    process = algo.process
    for op in s.ops:
        process(*op)
    observer.finish()
    seconds = time.perf_counter() - t0
    verdicts = observer.engine_verdicts()
    doc = {
        "state": "finished",
        "analyzed": observer.n_received,
        "violations": sum(v.violations for v in verdicts),
        "counterexamples": observer.counterexamples(),
        "engines": [v.to_json() for v in verdicts],
        "sound": observer.health.sound_everywhere,
    }
    # through JSON, as the served verdict came
    return json.loads(json.dumps(doc)), observer.n_received, seconds


def verdict_doc(v: SessionVerdict) -> dict:
    return json.loads(json.dumps({
        "state": v.state,
        "analyzed": v.analyzed,
        "violations": v.violations,
        "counterexamples": list(v.counterexamples),
        "engines": list(v.engines),
        "sound": v.sound,
    }))


def first_difference(served: dict, ref: dict) -> Optional[str]:
    """None when the verdicts agree, else the first differing field."""
    for key in ref:
        if served.get(key) != ref[key]:
            return (f"{key}: served {served.get(key)!r} != in-process "
                    f"{ref[key]!r}")
    return None


class Baseline:
    """Reference verdicts for a pool, computed while timing the
    in-process pipeline on it.  :meth:`measure` may be called several
    times; each call resumes the round-robin over the pool."""

    def __init__(self, pool: list[Stream]):
        self._pool = pool
        self._next = 0
        self.refs: dict[int, dict] = {}
        #: messages per second of each in-process stream run
        self.rates: list[float] = []

    def measure(self, min_seconds: float) -> None:
        """Run streams until ``min_seconds`` are spent (at least one)."""
        spent = 0.0
        while True:
            i = self._next % len(self._pool)
            self._next += 1
            doc, msgs, dt = reference(self._pool[i])
            if self.refs.setdefault(i, doc) != doc:
                raise RuntimeError(
                    f"in-process verdict of stream {i} is not deterministic")
            self.rates.append(msgs / dt)
            spent += dt
            if spent >= min_seconds:
                return

    def complete(self) -> None:
        """Make sure every stream has its reference verdict."""
        while len(self.refs) < len(self._pool):
            self.measure(0.0)
