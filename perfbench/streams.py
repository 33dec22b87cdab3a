"""Seeded inputs for the four benchmark workloads.

A workload is a pool of :class:`Stream` objects: one instrumented-program
run each, kept as the raw operation list Algorithm A will see, plus
everything the session hello needs (thread count, initial store, spec,
engines).  The benchmark replays a stream through ``AlgorithmA`` inside
the timed region, so generation never touches a clock or a message.

Same ``(workload, seed, quick)`` -> same pool, operation for operation.

The lattice-bound workloads (``predict``, ``multi_engine``) are built
from *windows*: inside a window the threads' relevant events are
concurrent, so the window's lattice has a size fixed by its shape, and a
two-round barrier between windows keeps them from multiplying.  The seed
draws values, variable roles and the interleaving; the shape, and with it
``lattice.nodes_expanded``, stays put.  That is what lets ten seeds agree
on a lattice-bound time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.algorithm_a import all_accesses, relevant_writes
from repro.core.events import EventKind
from repro.sched import RandomScheduler, run_program
from repro.workloads import (
    LANDING_PROPERTY,
    LANDING_VARS,
    XYZ_PROPERTY,
    XYZ_VARS,
    landing_controller,
    xyz_program,
)

R, W = EventKind.READ, EventKind.WRITE
ACQ, REL = EventKind.ACQUIRE, EventKind.RELEASE

#: One Algorithm A input: ``(thread, kind, var, value, label)``.
Op = tuple


@dataclass(frozen=True)
class Stream:
    """One session's worth of input."""

    program: str
    n_threads: int
    initial: dict
    spec: Optional[str]
    engines: tuple[str, ...]
    fault_tolerant: bool
    #: ``"writes"`` (every write), ``"spec-writes"`` (writes of
    #: ``relevant_vars``, the paper's rule) or ``"accesses"``.
    relevance: str
    relevant_vars: tuple[str, ...]
    ops: tuple[Op, ...]

    def relevance_fn(self):
        if self.relevance == "writes":
            return None                     # Algorithm A's default
        if self.relevance == "spec-writes":
            return relevant_writes(self.relevant_vars)
        return all_accesses()


@dataclass(frozen=True)
class Workload:
    name: str
    #: concurrent closed-loop clients (sessions open at once)
    clients: int
    #: distinct streams per run; the clients cycle through them
    pool: int
    #: streams of the pool the traced run's per-layer micro-pass times
    probe: int
    make: Callable[[random.Random, bool], Stream]


def _merge(rng: random.Random, lists: list[list]) -> list[Op]:
    """Random interleaving that keeps each thread's program order.

    An item that is a ``Joint`` sits in several threads' lists and is
    emitted as one contiguous block once it heads all of them, which pins
    the order of the cross-thread accesses it holds.
    """
    idx = [0] * len(lists)
    out: list[Op] = []
    while True:
        ready = []
        for t, items in enumerate(lists):
            if idx[t] == len(items):
                continue
            it = items[idx[t]]
            if isinstance(it, _Joint):
                if all(idx[p] < len(lists[p]) and lists[p][idx[p]] is it
                       for p in it.threads):
                    ready.append(t)
            else:
                ready.append(t)
        if not ready:
            return out
        t = rng.choice(ready)
        it = lists[t][idx[t]]
        if isinstance(it, _Joint):
            out.extend(it.ops)
            for p in it.threads:
                idx[p] += 1
        else:
            out.append(it)
            idx[t] += 1


class _Joint:
    def __init__(self, threads: tuple[int, ...], ops: list[Op]):
        self.threads = threads
        self.ops = ops


def _barrier(n: int, w: int) -> list[Op]:
    """Two rounds of lock-protected writes to one variable: every event
    after the second round is causally after every event before the
    first, in Algorithm A's clocks and in the sync-only clocks the
    atomicity engine uses."""
    ops: list[Op] = []
    for _ in range(2):
        for t in range(n):
            ops += [(t, ACQ, "B", None, None), (t, W, "bar", w, None),
                    (t, REL, "B", None, None)]
    return ops


# -- ingest ------------------------------------------------------------------

def _ingest(rng: random.Random, quick: bool) -> Stream:
    """Spec off, 4 threads, 8 variables, every write relevant."""
    n, nvars = 4, 8
    n_ops = 2_000 if quick else 13_500
    ops = []
    for _ in range(n_ops):
        t = rng.randrange(n)
        var = f"g{rng.randrange(nvars)}"
        if rng.random() < 0.75:
            ops.append((t, W, var, rng.randrange(1000), None))
        else:
            ops.append((t, R, var, None, None))
    return Stream("ingest", n, {f"g{i}": 0 for i in range(nvars)}, None, (),
                  True, "writes", (), tuple(ops))


# -- predict -----------------------------------------------------------------

_PREDICT_SPEC = "(v0 > 5 and v3 < 3) -> [v1 >= 0, v2 + v4 > 100)"


def _predict(rng: random.Random, quick: bool) -> Stream:
    """Paper relevance: only writes of the spec's five variables.  Each
    thread owns one spec variable and writes it ``k`` times between
    private reads and writes; no thread reads another's data, so the
    lattice is the product of five chains, ``(k+1)**5`` cuts.  Values stay
    in ``[-2, 10)``, where the spec always holds.

    25 messages fit the sender's 64-frame ack window, so close never
    waits behind a window stall, and the lattice backlog at close
    outlasts the ~90 ms TCP wait.  Two such windows behind a barrier made
    close -> verdict bimodal from run to run."""
    n, k = 5, (3 if quick else 5)
    owner = rng.sample([f"v{i}" for i in range(n)], n)
    lists = []
    for t in range(n):
        seq: list = []
        for _ in range(k):
            for _ in range(rng.randrange(1, 3)):
                seq.append((t, W, f"d{t}", rng.randrange(100), None))
                seq.append((t, R, f"d{t}", None, None))
            seq.append((t, W, owner[t], rng.randrange(-2, 10), None))
        lists.append(seq)
    return Stream("predict", n, {f"v{i}": 0 for i in range(n)},
                  _PREDICT_SPEC, (), False, "spec-writes",
                  tuple(f"v{i}" for i in range(n)), tuple(_merge(rng, lists)))


# -- multi_engine ------------------------------------------------------------

MULTI_ENGINES = ("ltl", "atomicity", "pattern:W(x);R(x)")


def _multi_engine(rng: random.Random, quick: bool) -> Stream:
    """Every access relevant, three engines, a one-variable spec.  Per
    window each thread works on private data; one thread reads ``x``
    twice inside a locked region around another thread's write of ``x``
    (an unserializable R-W-R), and one thread writes the spec variable.

    Six windows (288 messages) keep a session near 150 ms, so a run holds
    about 100 sessions: enough for a p90 with ten sessions beyond it.
    Longer sessions flip between the client and the daemon being the
    slower side, and close -> verdict with them."""
    n, m = 3, 4
    windows = 2 if quick else 6
    ops: list[Op] = []
    for w in range(windows):
        lists: list[list] = [[] for _ in range(n)]
        a, b = rng.sample(range(n), 2)
        joint = _Joint((a, b), [(a, R, "x", None, None),
                                (b, W, "x", rng.randrange(10), None),
                                (a, R, "x", None, None)])
        for t in range(n):
            for _ in range(m):
                lists[t].append((t, R, f"d{t}", None, None))
                lists[t].append((t, W, f"d{t}", rng.randrange(100), None))
        lists[a][1:1] = [(a, ACQ, f"L{a}", None, None), joint,
                         (a, REL, f"L{a}", None, None)]
        lists[b].insert(rng.randrange(len(lists[b]) + 1), joint)
        vt = rng.randrange(n)
        lists[vt].insert(rng.randrange(len(lists[vt]) + 1),
                         (vt, W, "v0", rng.randrange(10), None))
        ops += _merge(rng, lists)
        ops += _barrier(n, w)
    return Stream("multi_engine", n, {"v0": 0}, "v0 >= 0", MULTI_ENGINES,
                  False, "accesses", (), tuple(ops))


# -- sessions ----------------------------------------------------------------

def _sessions(rng: random.Random, quick: bool) -> Stream:
    """One bundled paper program (Example 1 landing or Example 2 xyz)
    under a seeded random schedule."""
    if rng.random() < 0.5:
        program, name, spec, variables = (
            xyz_program(), "xyz", XYZ_PROPERTY, XYZ_VARS)
    else:
        checks = rng.randrange(4, 80)
        program, name, spec, variables = (
            landing_controller(rng.randrange(checks), checks), "landing",
            LANDING_PROPERTY, LANDING_VARS)
    run = run_program(program, RandomScheduler(rng.randrange(1 << 30)))
    ops = tuple((e.thread, e.kind, e.var, e.value, e.label)
                for e in run.events)
    initial = {v: run.initial_store[v] for v in variables}
    return Stream(name, run.n_threads, initial, spec, (), False,
                  "spec-writes", tuple(sorted(variables)), ops)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("ingest", clients=1, pool=3, probe=1, make=_ingest),
    Workload("predict", clients=1, pool=12, probe=2, make=_predict),
    Workload("multi_engine", clients=1, pool=12, probe=2,
             make=_multi_engine),
    Workload("sessions", clients=2, pool=64, probe=16, make=_sessions),
)}


def make_pool(workload: Workload, seed: int, quick: bool = False
              ) -> list[Stream]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make(rng, quick) for _ in range(workload.pool)]
