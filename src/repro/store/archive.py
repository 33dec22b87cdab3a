"""The trace archive: a durable, append-only store of analyzed sessions.

Layout on disk::

    <root>/
      catalog.json          # the index (repro.store.catalog)
      traces/
        s000001-xyz.rpt     # v2 segment files, one per committed session
        s000002-bank.rpt.part   # in-flight writer (never cataloged)

Writing is two-phase so the catalog only ever names complete traces:

1. :meth:`TraceArchive.begin` allocates an id and opens a
   :class:`PendingTrace` streaming into ``<id>.rpt.part``;
2. the pipeline calls :meth:`PendingTrace.write` per analyzed message
   (tracking the final per-thread vector clocks as it goes);
3. :meth:`PendingTrace.commit` seals the segment file, renames it to its
   final name, and publishes the catalog entry — or :meth:`PendingTrace.abort`
   deletes the partial file, leaving no trace of a failed session.

All catalog mutation is serialized behind one archive-wide lock; the
analysis server commits from its worker threads concurrently.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..core.events import Message, VarName
from ..obs import metrics as _metrics
from ..observer.trace import TraceFormatError
from .catalog import (
    VERDICT_CLEAN,
    VERDICT_VIOLATION,
    Catalog,
    CatalogEntry,
    CatalogError,
    CatalogQuery,
)
from .format import FORMAT_VERSION, SegmentWriter, read_trace_meta

__all__ = ["TraceArchive", "PendingTrace", "CatalogRebuildReport"]

_C_COMMITTED = _metrics.REGISTRY.counter(
    "store.traces_committed", unit="traces",
    help="sessions committed to the archive (catalog entries created)")
_C_ABORTED = _metrics.REGISTRY.counter(
    "store.traces_aborted", unit="traces",
    help="in-flight archive writes abandoned (failed sessions)")
_C_GCED = _metrics.REGISTRY.counter(
    "store.traces_gced", unit="traces",
    help="archived traces removed by retention GC")
_C_REBUILT = _metrics.REGISTRY.counter(
    "store.catalog_rebuilds", unit="rebuilds",
    help="corrupt catalog.json files quarantined and rebuilt from trace "
         "footers on archive open")

# Trace-id sequence extractor; tolerates an optional shard namespace
# prefix (``sh00-s000001-xyz``) in front of the classic ``s000001-xyz``.
_ID_SEQ = re.compile(r"^(?:[A-Za-z0-9_]+-)??s(\d{6})-")


def catalog_extras(*, program: str, spec: Optional[str], n_threads: int,
                   counterexamples: Sequence[str],
                   final_clocks: Sequence[Sequence[int]], sound: bool,
                   wall_time_s: float,
                   engines: Optional[list] = None) -> dict:
    """The verdict a sealed trace embeds in its footer.

    ``engines`` is the per-engine attribution — a list of
    :class:`~repro.engines.base.EngineVerdict` (or anything with
    ``engine``/``version``/``spec``/``qualified``), in verdict order; the
    first engine is the primary one named in the catalog.  Without it the
    entry is attributed to the classic pipeline (``ltl`` when a spec was
    given, ``none`` otherwise).  Embedding the verdict lets a lost
    ``catalog.json`` be rebuilt from the trace files alone (file size and
    path are recomputable and deliberately omitted).
    """
    if engines:
        primary = engines[0]
        engine, engine_version = primary.engine, primary.version
        engine_spec = primary.spec
        qualified = [v.qualified for v in engines]
        engine_specs = [v.spec for v in engines]
    else:
        engine = "ltl" if spec else "none"
        engine_version = "1"
        engine_spec = spec
        qualified = [f"{engine}@{engine_version}"] if spec else []
        engine_specs = [spec] if spec else []
    return {
        "program": program,
        "spec": spec,
        "n_threads": n_threads,
        "verdict": VERDICT_VIOLATION if counterexamples else VERDICT_CLEAN,
        "violations": len(counterexamples),
        "counterexamples": list(counterexamples),
        "final_clocks": [list(c) for c in final_clocks],
        "sound": sound,
        "wall_time_s": round(wall_time_s, 6),
        "created_at": time.time(),
        "engine": engine,
        "engine_version": engine_version,
        "engines": qualified,
        "engine_spec": engine_spec,
        "engine_specs": engine_specs,
    }


class PendingTrace:
    """An in-flight archive write: a session being recorded.

    Mirrors the Algorithm A sink shape (``write(msg)``), accumulates the
    final per-thread vector clocks, and resolves to exactly one of
    :meth:`commit` (trace published, catalog entry returned) or
    :meth:`abort` (partial file removed).  Both are idempotent and
    thread-safe — the server may race a worker's commit against a reader
    thread's teardown.
    """

    def __init__(self, archive: "TraceArchive", trace_id: str,
                 n_threads: int, initial: Mapping[VarName, Any],
                 program: str, spec: Optional[str]):
        self.archive = archive
        self.id = trace_id
        self.program = program
        self.spec = spec
        self.n_threads = n_threads
        self._final_clocks: list[tuple[int, ...]] = [
            (0,) * n_threads for _ in range(n_threads)]
        self._part_path = archive.traces_dir / f"{trace_id}.rpt.part"
        self._final_path = archive.traces_dir / f"{trace_id}.rpt"
        self._writer: Optional[SegmentWriter] = SegmentWriter(
            self._part_path, n_threads, initial, program=program,
            events_per_segment=archive.events_per_segment)
        self._lock = threading.Lock()
        self._resolved = False

    @property
    def count(self) -> int:
        w = self._writer
        return w.count if w is not None else 0

    def write(self, msg: Message) -> None:
        """Append one analyzed message (not thread-safe against itself:
        exactly one writer thread, the session's worker, calls this)."""
        w = self._writer
        if w is None:
            raise RuntimeError(f"pending trace {self.id} already resolved")
        w.write(msg)
        self._final_clocks[msg.thread] = tuple(msg.clock)

    @property
    def final_clocks(self) -> tuple[tuple[int, ...], ...]:
        """Final MVC per thread: the clock of each thread's last archived
        message (all-zeros for silent threads)."""
        return tuple(self._final_clocks)

    def commit(self, counterexamples: list[str], sound: bool,
               wall_time_s: float,
               engines: Optional[list] = None) -> Optional[CatalogEntry]:
        """Seal the trace and publish its catalog entry (``engines`` as
        in :func:`catalog_extras`).

        Returns ``None`` when the trace was already resolved (a concurrent
        abort won the race)."""
        with self._lock:
            if self._resolved:
                return None
            self._resolved = True
            writer, self._writer = self._writer, None
        extras = catalog_extras(
            program=self.program, spec=self.spec, n_threads=self.n_threads,
            counterexamples=counterexamples, final_clocks=self.final_clocks,
            sound=sound, wall_time_s=wall_time_s, engines=engines)
        writer.close(extra=extras)
        os.replace(self._part_path, self._final_path)
        entry = CatalogEntry(
            id=self.id,
            program=self.program,
            spec=self.spec,
            n_threads=self.n_threads,
            events=writer.count,
            verdict=extras["verdict"],
            violations=len(counterexamples),
            counterexamples=tuple(counterexamples),
            final_clocks=self.final_clocks,
            sound=sound,
            wall_time_s=extras["wall_time_s"],
            created_at=extras["created_at"],
            bytes=self._final_path.stat().st_size,
            path=str(self._final_path.relative_to(self.archive.root)),
            format=FORMAT_VERSION,
            engine=extras["engine"],
            engine_version=extras["engine_version"],
            engines=tuple(extras["engines"]),
            engine_spec=extras["engine_spec"],
            engine_specs=tuple(extras["engine_specs"]),
        )
        self.archive._publish(entry)
        if _metrics.ENABLED:
            _C_COMMITTED.inc()
        return entry

    def abort(self) -> None:
        """Drop the partial file; no catalog entry is ever created."""
        with self._lock:
            if self._resolved:
                return
            self._resolved = True
            writer, self._writer = self._writer, None
        if writer is not None:
            writer.abort()
        if _metrics.ENABLED:
            _C_ABORTED.inc()


@dataclass
class CatalogRebuildReport:
    """What happened when a corrupt ``catalog.json`` was rebuilt."""

    #: Where the damaged document was moved (never deleted).
    quarantined_to: str
    #: Entries reconstructed from trace footers.
    rebuilt: int = 0
    #: ``(filename, reason)`` for traces that could not be re-indexed
    #: (sealed by a pre-footer-extras writer, or damaged).
    skipped: list[tuple[str, str]] = field(default_factory=list)


class TraceArchive:
    """A directory of archived traces plus their catalog.

    Args:
        root: archive directory; created (with ``traces/``) if absent.
        events_per_segment: segment granularity handed to the v2 writer.
        namespace: prefix for every allocated trace id (e.g. ``sh00`` →
            ``sh00-s000001-xyz``).  A fleet gives each shard's archive
            directory its own namespace so the per-shard catalogs share
            one fleet-wide id space and query results never collide.

    Thread-safe: catalog reads and mutations are serialized behind one
    lock, and every mutation persists the catalog atomically before
    returning.

    A truncated or otherwise unreadable ``catalog.json`` does not prevent
    the archive from opening: the damaged document is *quarantined*
    (renamed alongside, never deleted) and the catalog is rebuilt from the
    verdicts embedded in each sealed trace's footer —
    :attr:`last_rebuild` reports what was recovered and what had to be
    skipped.
    """

    CATALOG_NAME = "catalog.json"

    def __init__(self, root: str | Path, events_per_segment: int = 512,
                 namespace: str = ""):
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.events_per_segment = events_per_segment
        self.namespace = namespace
        self._lock = threading.RLock()
        #: Set when this open had to quarantine and rebuild the catalog.
        self.last_rebuild: Optional[CatalogRebuildReport] = None
        try:
            self._catalog = Catalog.load(self.root / self.CATALOG_NAME)
        except CatalogError:
            self._catalog, self.last_rebuild = self._rebuild_catalog()

    # -- catalog recovery -----------------------------------------------------

    def _quarantine_catalog(self) -> Path:
        src = self.root / self.CATALOG_NAME
        dst = self.root / (self.CATALOG_NAME + ".quarantined")
        n = 1
        while dst.exists():
            dst = self.root / (self.CATALOG_NAME + f".quarantined.{n}")
            n += 1
        os.replace(src, dst)
        return dst

    def _rebuild_catalog(self) -> tuple[Catalog, CatalogRebuildReport]:
        """The corrupt-catalog recovery path: move the damaged document
        aside and re-index every sealed trace from its footer verdict."""
        quarantined = self._quarantine_catalog()
        report = CatalogRebuildReport(quarantined_to=str(quarantined))
        catalog = Catalog(self.root / self.CATALOG_NAME)
        max_seq = 0
        for trace_path in sorted(self.traces_dir.glob("*.rpt")):
            trace_id = trace_path.stem
            m = _ID_SEQ.match(trace_id)
            if m:
                max_seq = max(max_seq, int(m.group(1)))
            try:
                meta = read_trace_meta(trace_path)
            except (TraceFormatError, OSError) as exc:
                report.skipped.append((trace_path.name, str(exc)))
                continue
            if meta.catalog is None:
                report.skipped.append(
                    (trace_path.name,
                     "no catalog extras in footer (sealed by an older "
                     "writer); re-import with 'repro archive --import-trace'"))
                continue
            try:
                entry = self._entry_from_footer(trace_id, trace_path, meta)
                catalog.add(entry)
            except (CatalogError, KeyError, TypeError, ValueError) as exc:
                report.skipped.append((trace_path.name, repr(exc)))
                continue
            report.rebuilt += 1
        catalog.next_seq = max_seq + 1
        catalog.save()
        if _metrics.ENABLED:
            _C_REBUILT.inc()
        return catalog, report

    def _entry_from_footer(self, trace_id: str, trace_path: Path,
                           meta) -> CatalogEntry:
        doc = dict(meta.catalog)
        doc.setdefault("program", meta.header.program)
        doc.setdefault("n_threads", meta.header.n_threads)
        doc["id"] = trace_id           # the filename is authoritative
        doc["events"] = meta.events
        doc["bytes"] = trace_path.stat().st_size
        doc["path"] = str(trace_path.relative_to(self.root))
        doc["format"] = FORMAT_VERSION
        return CatalogEntry.from_json(doc)

    # -- recording ------------------------------------------------------------

    def begin(self, program: str, n_threads: int,
              initial: Mapping[VarName, Any],
              spec: Optional[str] = None) -> PendingTrace:
        """Open an in-flight recording (allocates and persists the id)."""
        with self._lock:
            trace_id = self._catalog.allocate_id(program,
                                                 namespace=self.namespace)
            self._catalog.save()   # ids survive a restart mid-recording
        return PendingTrace(self, trace_id, n_threads, initial,
                            program=program, spec=spec)

    def _publish(self, entry: CatalogEntry) -> None:
        with self._lock:
            self._catalog.add(entry)
            self._catalog.save()

    def record_messages(self, program: str, n_threads: int,
                        initial: Mapping[VarName, Any], messages,
                        spec: Optional[str] = None,
                        engines: Optional[list[str]] = None) -> CatalogEntry:
        """Archive a complete message stream in one call.

        Runs the live pipeline (``Observer`` with causal delivery, feeding
        the analysis bus — a single LTL engine when only ``spec`` is given,
        or the selected ``engines``) while streaming the messages into
        a pending trace, then commits with the resulting verdict — the
        ``repro archive`` CLI path.  ``messages`` may be any iterable,
        including a lazy :func:`~repro.observer.trace.iter_trace` stream.
        """
        from ..logic.monitor import Monitor
        from ..observer.observer import Observer

        monitor = Monitor(spec) if spec else None
        observer = Observer(n_threads, initial, spec=monitor,
                            causal_log=True, engines=engines)
        pending = self.begin(program, n_threads, initial, spec=spec)
        t0 = time.perf_counter()
        try:
            for m in messages:
                observer.receive(m)
                pending.write(m)
            observer.finish()
        except BaseException:
            pending.abort()
            raise
        entry = pending.commit(
            observer.counterexamples(),
            observer.health.sound_everywhere,
            time.perf_counter() - t0,
            engines=observer.engine_verdicts())
        assert entry is not None   # nothing else can resolve this pending
        return entry

    def adopt_sealed(self, sealed_path: str | Path,
                     wall_time_s: Optional[float] = None) -> CatalogEntry:
        """Move an externally sealed v2 trace into the archive and publish
        its catalog entry from the verdict embedded in its footer.

        This is how the crash-resilient server promotes a finished
        session's durable journal: the worker seals the journal file
        (footer + catalog extras) in its own process, then the daemon
        adopts it here.  Raises :class:`TraceFormatError` if the file is
        unsealed, :class:`~repro.store.catalog.CatalogError` if its footer
        carries no catalog extras.
        """
        sealed_path = Path(sealed_path)
        meta = read_trace_meta(sealed_path)
        if meta.catalog is None:
            raise CatalogError(
                f"{sealed_path}: footer has no embedded catalog extras; "
                "cannot adopt without a verdict")
        with self._lock:
            trace_id = self._catalog.allocate_id(
                meta.catalog.get("program", meta.header.program),
                namespace=self.namespace)
            self._catalog.save()
        final = self.traces_dir / f"{trace_id}.rpt"
        shutil.move(str(sealed_path), final)
        if wall_time_s is not None:
            meta = TraceArchive._with_wall_time(meta, wall_time_s)
        entry = self._entry_from_footer(trace_id, final, meta)
        self._publish(entry)
        if _metrics.ENABLED:
            _C_COMMITTED.inc()
        return entry

    @staticmethod
    def _with_wall_time(meta, wall_time_s: float):
        doc = dict(meta.catalog)
        doc["wall_time_s"] = round(wall_time_s, 6)
        return type(meta)(header=meta.header, events=meta.events,
                          segments=meta.segments, catalog=doc)

    # -- queries --------------------------------------------------------------

    def entries(self, query: Optional[CatalogQuery] = None
                ) -> list[CatalogEntry]:
        with self._lock:
            return self._catalog.entries(query)

    def get(self, entry_id: str) -> CatalogEntry:
        with self._lock:
            return self._catalog.get(entry_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._catalog)

    def total_bytes(self) -> int:
        with self._lock:
            return self._catalog.total_bytes()

    def path_of(self, entry: CatalogEntry) -> Path:
        return self.root / entry.path

    # -- removal --------------------------------------------------------------

    def remove(self, entry_id: str) -> CatalogEntry:
        """Drop one trace: catalog entry first (persisted), then the file —
        a crash in between leaves an orphan file, never a dangling entry."""
        with self._lock:
            entry = self._catalog.remove(entry_id)
            self._catalog.save()
        try:
            self.path_of(entry).unlink()
        except OSError:
            pass
        if _metrics.ENABLED:
            _C_GCED.inc()
        return entry

    def gc(self, policy, now: Optional[float] = None, dry_run: bool = False):
        """Apply a retention policy; see :func:`repro.store.gc.collect`."""
        from .gc import collect

        return collect(self, policy, now=now, dry_run=dry_run)
