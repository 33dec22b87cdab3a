"""Durable session journals: the checkpoint/recovery layer of the server.

Every admitted session under ``ServerConfig(checkpoint_dir=...)`` owns one
journal directory::

    <checkpoint_dir>/session-<token>/
        meta.json     session identity: id, token, epoch, program,
                      n_threads, initial store, spec, fault tolerance,
                      and how many times a daemon restart recovered it
        events.rpt    v2 trace (repro.store.format) of the delivered
                      prefix, checkpointed incrementally

The journal is written *behind* the analysis (an event is journaled only
after the observer accepted it), so on recovery the journaled prefix is
exactly a replayable prefix of the analysis: because the whole pipeline is
a deterministic function of the message sequence, feeding the prefix back
through :meth:`~repro.observer.observer.Observer.rebuild` reconstructs
byte-identical analyzer state, and the session resumes from the next
delivery index with verdict parity guaranteed.

Crash windows are handled at two granularities:

* a torn tail inside ``events.rpt`` (writer killed mid-frame) is dropped
  by :func:`repro.store.read_trace_prefix`'s whole-frame atomicity — the
  journal silently rolls back to the last durable checkpoint, and the
  resuming client resends everything past it from its resume buffer (it
  prunes that buffer only below a ``ckpt`` frame's durable count);
* a missing/corrupt ``meta.json`` makes the whole journal unrecoverable —
  :func:`scan_journals` reports it as skipped rather than crashing daemon
  recovery.

The journal uses the trace-archive file format on purpose: a finished
session *seals* its journal with the catalog footer extras and the daemon
promotes the file into the archive with ``TraceArchive.adopt_sealed`` —
no rewrite, no second copy of the trace.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..core.events import Message
from ..logic.monitor import Monitor
from ..obs import metrics as _metrics
from ..observer.observer import Observer
from ..observer.trace import TraceFormatError
from ..store.format import SegmentWriter, read_trace_prefix

__all__ = ["JournalError", "SessionJournal", "scan_journals",
           "build_observer"]

META_NAME = "meta.json"
EVENTS_NAME = "events.rpt"
META_VERSION = 1

_C_REPLAYED = _metrics.REGISTRY.counter(
    "server.recovery_replayed_events", unit="messages",
    help="journaled events replayed into rebuilt observers after a daemon "
         "restart")


class JournalError(RuntimeError):
    """A session journal is missing, malformed, or unrecoverable."""


def _atomic_write_json(path: Path, doc: Mapping[str, Any]) -> None:
    tmp = path.with_suffix(".tmp")
    data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass
class JournalMeta:
    """Identity of a journaled session — everything needed to rebuild its
    observer and readmit it after a daemon restart."""

    session: int
    token: str
    epoch: int
    program: str
    n_threads: int
    initial: dict[str, Any]
    spec: Optional[str]
    fault_tolerant: bool
    created_at: float
    version: int = META_VERSION
    #: Engine selection strings (see :mod:`repro.engines`); empty means
    #: the classic single-LTL pipeline implied by ``spec``.
    engines: tuple[str, ...] = ()
    #: Daemon restarts that readmitted this session (``recover=True``).
    recoveries: int = 0

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "session": self.session,
            "token": self.token,
            "epoch": self.epoch,
            "program": self.program,
            "n_threads": self.n_threads,
            "initial": dict(self.initial),
            "spec": self.spec,
            "fault_tolerant": self.fault_tolerant,
            "created_at": self.created_at,
            "engines": list(self.engines),
            "recoveries": self.recoveries,
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "JournalMeta":
        try:
            if d["version"] != META_VERSION:
                raise JournalError(
                    f"unsupported journal meta version {d['version']!r}")
            return cls(
                session=int(d["session"]),
                token=str(d["token"]),
                epoch=int(d["epoch"]),
                program=str(d["program"]),
                n_threads=int(d["n_threads"]),
                initial=dict(d["initial"]),
                spec=d["spec"],
                fault_tolerant=bool(d["fault_tolerant"]),
                created_at=float(d["created_at"]),
                engines=tuple(d.get("engines") or ()),
                recoveries=int(d.get("recoveries", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal meta: {exc!r}") from exc


class SessionJournal:
    """One session's durable checkpoint directory.

    The daemon *creates* journals and reads their metadata; the session
    *opens* its journal for writing via :meth:`recover_and_open`, which
    atomically rolls a possibly-torn ``events.rpt`` back to its last
    durable prefix and returns the recovered messages for observer
    rebuild.
    """

    def __init__(self, directory: Path, meta: JournalMeta):
        self.dir = Path(directory)
        self.meta = meta
        self._writer: Optional[SegmentWriter] = None
        self._since_checkpoint = 0

    # -- daemon side ----------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, *, session: int, token: str,
               program: str, n_threads: int,
               initial: Mapping[str, Any], spec: Optional[str],
               fault_tolerant: bool, epoch: int = 1,
               engines: Sequence[str] = ()) -> "SessionJournal":
        directory = Path(root) / f"session-{token}"
        directory.mkdir(parents=True, exist_ok=False)
        meta = JournalMeta(
            session=session, token=token, epoch=epoch, program=program,
            n_threads=n_threads, initial=dict(initial), spec=spec,
            fault_tolerant=fault_tolerant, created_at=time.time(),
            engines=tuple(engines))
        _atomic_write_json(directory / META_NAME, meta.to_json())
        return cls(directory, meta)

    @classmethod
    def open_dir(cls, directory: str | Path) -> "SessionJournal":
        directory = Path(directory)
        meta_path = directory / META_NAME
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(
                f"cannot read journal meta {meta_path}: {exc!r}") from exc
        if not isinstance(doc, dict):
            raise JournalError(f"journal meta {meta_path} is not an object")
        return cls(directory, JournalMeta.from_json(doc))

    def bump_epoch(self, epoch: int) -> None:
        """Persist a resume's epoch bump so a daemon restart readmits the
        session at the epoch the client last saw."""
        self.meta.epoch = epoch
        _atomic_write_json(self.dir / META_NAME, self.meta.to_json())

    def note_recovery(self) -> int:
        """Persist one more daemon-restart recovery *before* the prefix is
        replayed — so a journal whose replay kills the daemon still counts
        toward the budget — and return the new count."""
        self.meta.recoveries += 1
        _atomic_write_json(self.dir / META_NAME, self.meta.to_json())
        return self.meta.recoveries

    @property
    def events_path(self) -> Path:
        return self.dir / EVENTS_NAME

    @property
    def count(self) -> int:
        """Events journaled so far (only meaningful while open)."""
        w = self._writer
        return w.count if w is not None else 0

    # -- session side ----------------------------------------------------------

    def recover_and_open(self) -> list[Message]:
        """Open the journal for writing, first salvaging any prior prefix.

        Reads the durable prefix of ``events.rpt`` (tolerating a torn
        tail), rewrites it into a fresh file, atomically replaces the old
        one, and keeps the writer open positioned after the prefix.
        Returns the recovered messages, in delivery order, for
        :meth:`Observer.rebuild`.
        """
        if self._writer is not None:
            raise RuntimeError("journal already open")
        recovered: list[Message] = []
        path = self.events_path
        if path.exists():
            try:
                prefix = read_trace_prefix(path)
                recovered = list(prefix.messages)
            except TraceFormatError:
                # even the header is gone: the journal starts over and the
                # resuming client resends its whole buffer
                recovered = []
        new_path = self.dir / (EVENTS_NAME + ".new")
        writer = SegmentWriter(
            new_path, self.meta.n_threads, self.meta.initial,
            program=self.meta.program)
        try:
            for msg in recovered:
                writer.write(msg)
            writer.checkpoint(fsync=True)
            os.replace(new_path, path)
        except BaseException:
            writer.abort()
            raise
        writer.path = path          # the open handle now lives under events.rpt
        self._writer = writer
        self._since_checkpoint = 0
        if recovered and _metrics.ENABLED:
            _C_REPLAYED.inc(len(recovered))
        return recovered

    def write(self, msg: Message) -> None:
        if self._writer is None:
            raise RuntimeError("journal is not open")
        self._writer.write(msg)
        self._since_checkpoint += 1

    def maybe_checkpoint(self, every: int) -> Optional[int]:
        """Checkpoint when ``every`` events accumulated since the last one.
        Returns the durable event count when a checkpoint happened."""
        if self._since_checkpoint < max(1, every):
            return None
        return self.checkpoint()

    def checkpoint(self, fsync: bool = True) -> int:
        if self._writer is None:
            raise RuntimeError("journal is not open")
        count = self._writer.checkpoint(fsync=fsync)
        self._since_checkpoint = 0
        return count

    def seal(self, extra: Optional[Mapping[str, Any]] = None) -> Path:
        """Close the trace with its footer (and catalog ``extra``), making
        it adoptable by ``TraceArchive.adopt_sealed``."""
        if self._writer is None:
            raise RuntimeError("journal is not open")
        writer, self._writer = self._writer, None
        writer.close(extra=extra)
        return self.events_path

    def close(self) -> None:
        """Close without sealing (no footer): the journal stays a
        recoverable prefix."""
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.checkpoint(fsync=True)
            except (OSError, RuntimeError):
                pass
            writer._abandon()

    def delete(self) -> None:
        """Remove the journal directory — the session is terminal and its
        trace is either promoted into the archive or abandoned."""
        self.close()
        for name in (EVENTS_NAME, EVENTS_NAME + ".new", META_NAME,
                     "meta.tmp"):
            try:
                (self.dir / name).unlink()
            except OSError:
                pass
        try:
            self.dir.rmdir()
        except OSError:
            pass


def scan_journals(root: str | Path) -> tuple[list[SessionJournal],
                                             list[tuple[str, str]]]:
    """Find every recoverable journal under ``root``.

    Returns ``(journals, skipped)`` where ``skipped`` pairs a directory
    name with the reason it was passed over — daemon recovery reports them
    instead of refusing to start.
    """
    root = Path(root)
    journals: list[SessionJournal] = []
    skipped: list[tuple[str, str]] = []
    if not root.is_dir():
        return journals, skipped
    for directory in sorted(root.iterdir()):
        if not directory.is_dir() or not directory.name.startswith("session-"):
            continue
        try:
            journals.append(SessionJournal.open_dir(directory))
        except JournalError as exc:
            skipped.append((directory.name, str(exc)))
    journals.sort(key=lambda j: j.meta.session)
    return journals, skipped


def build_observer(meta: JournalMeta) -> Observer:
    """A fresh observer matching a journaled session's parameters —
    identical construction to the live path, so replay parity holds."""
    return Observer(
        meta.n_threads,
        meta.initial,
        spec=Monitor(meta.spec) if meta.spec else None,
        fault_tolerant=meta.fault_tolerant,
        thread_safe=True,
        engines=list(meta.engines) or None,
    )
