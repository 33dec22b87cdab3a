"""Sessions: one observed program inside the multi-session server.

A session owns everything single-program about the pipeline — an
:class:`~repro.observer.observer.Observer` (with its
:class:`~repro.analysis.predictive.OnlinePredictor` when the client sent a
spec) plus a bounded ingest queue between the connection's reader thread
and the analysis worker pool.  Lifecycle::

    HANDSHAKE ──▶ STREAMING ──▶ DRAINING ──▶ FINISHED
                       │             │
                       └─────────────┴─────▶ FAILED (overload, lost
                                             connection, analysis error,
                                             shutdown timeout)

The reader thread *enqueues* (and blocks briefly when the queue is full —
that unacked backlog is what backpressures the remote sender); a worker
*drains* in batches and feeds the observer.  Exactly one worker services a
session at a time (the pool's scheduled flag), so the observer only needs
coarse thread safety, and per-session event order is the reliable
transport's send order.

Orthogonal to the lifecycle, a session tracks its *attachment*: which
client connection (if any) currently owns it, authenticated by a resume
token and versioned by an epoch that increments on every (re)attach.
When the daemon is configured with a resume window, a dropped connection
*detaches* the session (analysis keeps running on whatever is queued)
instead of failing it, and a reconnecting client reclaims it by token.

With a durable :class:`~repro.server.recovery.SessionJournal` (the
daemon's ``checkpoint_dir``), the worker also journals each analyzed
batch right after the observer accepted it and sends a ``ckpt`` frame
whenever the journal fsyncs, so the client can prune its resume buffer.
Analysis is a deterministic function of the message sequence, so a
daemon that dies and restarts with ``recover=True`` rebuilds the same
observer from the journaled prefix and the client resumes past it.
"""

from __future__ import annotations

import enum
import json
import threading
import time
from collections import deque
from typing import Any, Optional, Sequence

from ..logic.monitor import Monitor
from ..obs import metrics as _metrics
from ..observer.observer import Observer
from .protocol import Hello
from .recovery import SessionJournal

__all__ = ["SessionState", "Session"]

#: Queue sentinel: end of stream, run ``Observer.finish`` next.
_FIN = object()

_C_CHECKPOINTS = _metrics.REGISTRY.counter(
    "server.checkpoints", unit="checkpoints",
    help="durable session-journal checkpoints (fsyncs) taken by sessions")


class SessionState(enum.Enum):
    """Where a session is in its lifecycle."""

    HANDSHAKE = "handshake"
    STREAMING = "streaming"
    DRAINING = "draining"
    FINISHED = "finished"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (SessionState.FINISHED, SessionState.FAILED)


class Session:
    """One client's analysis run inside the server.

    Args:
        session_id: server-assigned id (monotone per server).
        hello: the validated attach handshake.
        max_queued: bound on events parked between reader and worker.
        peer: remote address string, for the status report.
        journal: durable journal to write behind the analysis, or None.
            It is opened here; a prefix it already holds (a daemon
            restart's recovery) is rebuilt into the observer by the first
            :meth:`process_batch`, and :attr:`rebuilt` is set once it is.
        checkpoint_every: journal fsync cadence, in events (checked once
            per analyzed batch).

    Construction builds the observer eagerly, so a spec whose variables are
    absent from ``hello.initial`` raises here — the daemon turns that into
    a handshake *reject* with the exception text as the reason.
    """

    def __init__(self, session_id: int, hello: Hello, max_queued: int = 1024,
                 peer: str = "",
                 default_engines: Sequence[str] = (),
                 journal: Optional[SessionJournal] = None,
                 checkpoint_every: int = 128):
        if max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        self.id = session_id
        self.program = hello.program
        self.spec = hello.spec
        self.peer = peer
        self.n_threads = hello.n_threads
        self.initial = dict(hello.initial)
        self._monitor = Monitor(hello.spec) if hello.spec else None
        # engine selection: the client's hello wins, then the server's
        # configured default pipeline, then the classic spec→LTL observer
        self.engines_requested: tuple[str, ...] = (
            hello.engines or tuple(default_engines))
        self.observer = Observer(
            hello.n_threads,
            hello.initial,
            spec=self._monitor,
            fault_tolerant=hello.fault_tolerant,
            thread_safe=True,
            engines=list(self.engines_requested) or None,
        )
        self._max_queued = max_queued
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._state = SessionState.STREAMING
        self.error: Optional[str] = None
        self.received = 0        # events accepted off the wire
        self.analyzed = 0        # events fed to the observer
        self.queue_high_water = 0
        self.started_at = time.time()
        self.finished_at: Optional[float] = None
        self._t0 = time.monotonic()
        self._elapsed: Optional[float] = None
        self.done = threading.Event()
        self._sealed: Optional[dict] = None
        # daemon-owned plumbing: the connection socket, the optional
        # labelled per-session counter, and the worker-pool scheduled flag
        # (the latter guarded by the pool's lock, not ours)
        self.conn = None
        self.meter = None
        self.scheduled = False
        # trace-archive plumbing (repro.store): a PendingTrace when the
        # daemon was configured with archive_dir, else None
        self._pending = None
        self.archive_id: Optional[str] = None
        # attachment: which connection owns this session.  The epoch
        # counts (re)attaches; the token authenticates a resume; the io
        # lock serializes everything written to the current conn (acks
        # from the reader thread, ckpt/err frames from other threads).
        self.token: str = ""
        self.epoch = 1
        self.attached = True
        self.resume_timer = None        # daemon-managed threading.Timer
        self._io_lock = threading.Lock()
        self.final_clocks: list[tuple[int, ...]] = [
            (0,) * hello.n_threads for _ in range(hello.n_threads)]
        # the durable journal; the lock keeps a worker's batch write from
        # racing the close/delete of a failing session on another thread
        self.journal = journal
        self._journal_lock = threading.Lock()
        self._checkpoint_every = checkpoint_every
        self._archive = None   # adopts the sealed journal at finish
        # a recovered journal's prefix, rebuilt on the first worker turn
        # (process_batch) rather than here so that a daemon's start-up
        # does not wait for lattice work; `rebuilt` is set once it is in
        self._replay: list = []
        self.rebuilt = threading.Event()
        if journal is not None:
            self._replay = journal.recover_and_open()
            # counted as received up front: a resume's `delivered` is the
            # prefix length whether or not the rebuild has finished
            self.received = len(self._replay)
        if not self._replay:
            self.rebuilt.set()

    def _rebuild(self, max_batch: int) -> None:
        """Replay the recovered prefix into the observer, ``max_batch``
        messages per observer call, so status queries still get the
        observer's lock between calls.  Every message was journaled
        already; only the analysis is rebuilt."""
        prefix, self._replay = self._replay, []
        try:
            for at in range(0, len(prefix), max_batch):
                if self._state.terminal:
                    return
                chunk = prefix[at:at + max_batch]
                self.observer.rebuild(chunk)
                self.analyzed += len(chunk)
                for m in chunk:
                    self.final_clocks[m.thread] = tuple(m.clock)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            self.fail(f"analysis error while rebuilding the journaled "
                      f"prefix: {exc}")
        finally:
            self.rebuilt.set()

    # -- state ----------------------------------------------------------------

    @property
    def state(self) -> SessionState:
        return self._state

    @property
    def pending(self) -> int:
        """Events parked between reader and worker right now."""
        return len(self._queue)

    def _enter_terminal(self, state: SessionState) -> None:
        self._state = state
        self.finished_at = time.time()
        self._elapsed = time.monotonic() - self._t0
        self.done.set()
        self.rebuilt.set()   # wake a reader held back for the rebuild

    # -- connection io --------------------------------------------------------

    def send_bytes(self, data: bytes) -> bool:
        """Write raw bytes to the currently attached connection under the
        per-session io lock (acks, ckpt and err frames come from different
        threads).  Detached or dead connections are a silent no-op — the
        reliable transport's retransmit/resume machinery recovers."""
        with self._io_lock:
            conn = self.conn
            if conn is None:
                return False
            try:
                conn.sendall(data)
                return True
            except OSError:
                return False

    def send_frame(self, obj: dict) -> bool:
        return self.send_bytes(
            (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8"))

    # -- attachment -----------------------------------------------------------

    def mark_detached(self) -> None:
        """The owning connection dropped but the session survives inside
        its resume window: analysis keeps draining the queue, a resume
        with the right token reclaims it."""
        with self._io_lock:
            self.attached = False
            self.conn = None

    def resume(self, conn) -> int:
        """Attach a new connection, bumping the epoch.  Closes any stale
        connection first (waking its blocked reader).  Returns the new
        epoch."""
        with self._io_lock:
            old, self.conn = self.conn, conn
            self.attached = True
            self.epoch += 1
            epoch = self.epoch
        if old is not None and old is not conn:
            try:
                old.close()
            except OSError:
                pass
        return epoch

    def delivered_for_resume(self) -> int:
        """How many ``msg`` frames a resuming client may skip.

        For an in-process session every accepted event lives in our queue
        or observer, so the received count is safe to re-ack from."""
        return self.received

    def fail(self, reason: str) -> bool:
        """Move to FAILED (idempotent; terminal states win).  Returns
        whether this call performed the transition."""
        with self._cond:
            if self._state.terminal:
                return False
            self.error = reason
            self._queue.clear()
            self._enter_terminal(SessionState.FAILED)
            self._cond.notify_all()
        # outside the condition: file I/O must not block enqueuers.  A
        # failed session is never archived — the partial trace is removed.
        self._abort_archive()
        journal = self._take_journal()
        if journal is not None:
            if reason == "server shutdown":
                journal.close()   # `--recover` readmits it; the client resumes
            else:
                journal.delete()
        return True

    # -- trace archive --------------------------------------------------------

    def attach_archive(self, archive) -> None:
        """Record this session into ``archive`` (a
        :class:`~repro.store.archive.TraceArchive`): every analyzed message
        is streamed into a pending trace, committed with the verdict when
        the session finishes, aborted (file removed) when it fails.  A
        journaled session already writes the same trace format, so its
        sealed journal is adopted at finish instead of written twice."""
        if self.journal is not None:
            self._archive = archive
            return
        self._pending = archive.begin(
            program=self.program, n_threads=self.n_threads,
            initial=self.initial, spec=self.spec)
        self.archive_id = self._pending.id

    def _archive_write(self, msg) -> None:
        pending = self._pending
        if pending is None:
            return
        try:
            pending.write(msg)
        except (OSError, RuntimeError):
            # a full disk (or a racing abort) degrades the archive, never
            # the analysis: drop the recording, keep the session alive
            self._pending = None
            pending.abort()

    def _commit_archive(self) -> None:
        pending = self._pending
        if pending is None:
            return
        try:
            pending.commit(self.violations_pretty(),
                           self.observer.health.sound_everywhere,
                           time.monotonic() - self._t0,
                           engines=self.observer.engine_verdicts())
        except OSError:
            pending.abort()

    def _abort_archive(self) -> None:
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.abort()

    # -- durable journal ------------------------------------------------------

    def _journal_batch(self, batch: list) -> None:
        """Journal an analyzed batch; on a checkpoint, tell the client how
        much is durable (it prunes its resume buffer below that)."""
        with self._journal_lock:
            journal = self.journal
            if journal is None:
                return
            for msg in batch:
                journal.write(msg)
            durable = journal.maybe_checkpoint(self._checkpoint_every)
        if durable is not None:
            if _metrics.ENABLED:
                _C_CHECKPOINTS.inc()
            self.send_frame({"t": "ckpt", "n": durable})

    def _take_journal(self) -> Optional[SessionJournal]:
        """Detach the journal so exactly one thread ends it."""
        with self._journal_lock:
            journal, self.journal = self.journal, None
        return journal

    def _promote_journal(self) -> None:
        """Finished: seal the journal with the verdict and move it into
        the archive (when one is attached), then drop the journal."""
        journal = self._take_journal()
        if journal is None:
            return
        archive = self._archive
        try:
            if archive is not None:
                from ..store.archive import catalog_extras

                journal.seal(extra=catalog_extras(
                    program=self.program, spec=self.spec,
                    n_threads=self.n_threads,
                    counterexamples=self.violations_pretty(),
                    final_clocks=self.final_clocks,
                    sound=self.observer.health.sound_everywhere,
                    wall_time_s=time.time() - journal.meta.created_at,
                    engines=self.observer.engine_verdicts()))
                self.archive_id = archive.adopt_sealed(journal.events_path).id
        except Exception:  # noqa: BLE001 - archive loss is not analysis loss
            self.archive_id = None
        finally:
            journal.delete()

    # -- reader side ----------------------------------------------------------

    def enqueue(self, msg: Any, timeout: float) -> bool:
        """Park one message for the worker pool.

        Blocks up to ``timeout`` while the queue is full — during that
        window the reader is not acking, which is exactly the backpressure
        signal the remote sender's bounded window responds to.  Returns
        False if the queue is *still* full after the timeout (the caller
        declares overload) or the session already left STREAMING.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while (len(self._queue) >= self._max_queued
                   and self._state is SessionState.STREAMING):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    if len(self._queue) >= self._max_queued:
                        return False
            if self._state is not SessionState.STREAMING:
                return False
            self._queue.append(msg)
            self.received += 1
            if len(self._queue) > self.queue_high_water:
                self.queue_high_water = len(self._queue)
            return True

    def begin_drain(self) -> None:
        """End of stream (fin seen, all frames delivered): no more
        enqueues; the worker will run ``finish`` after the backlog."""
        with self._cond:
            if self._state is SessionState.STREAMING:
                self._state = SessionState.DRAINING
                self._queue.append(_FIN)
                self._cond.notify_all()

    # -- worker side ----------------------------------------------------------

    def process_batch(self, max_batch: int = 64) -> bool:
        """Drain up to ``max_batch`` queued events into the observer.

        Runs on a worker-pool thread; never on the reader.  The backlog is
        popped as one chunk (stopping at the fin sentinel) and handed to
        :meth:`Observer.receive_batch`, so the whole chunk costs one arena
        write and one lattice advance instead of one per event.  Returns
        whether work remains queued.  Any exception out of the analysis
        marks the session FAILED with the exception text.  A recovered
        session rebuilds its journaled prefix first (:meth:`_rebuild`).
        """
        if self._replay:
            self._rebuild(max_batch)
        with self._cond:
            if self._state.terminal or not self._queue:
                return False
            batch: list = []
            saw_fin = False
            while self._queue and len(batch) < max_batch:
                item = self._queue.popleft()
                if item is _FIN:
                    saw_fin = True
                    break
                batch.append(item)
            self._cond.notify_all()   # freed queue space → reader resumes
        try:
            if batch:
                self.observer.receive_batch(batch)
                self.analyzed += len(batch)
                for item in batch:
                    self.final_clocks[item.thread] = tuple(item.clock)
                    self._archive_write(item)
                if self.journal is not None:
                    self._journal_batch(batch)
            if saw_fin:
                self.observer.finish()
                # archive the verdict before `done` is published: once the
                # reader sees `done` it may seal() and drop the observer
                # this commit still reads from
                if self.journal is None:
                    self._commit_archive()
                else:
                    self._promote_journal()
                with self._cond:
                    if not self._state.terminal:
                        self._enter_terminal(SessionState.FINISHED)
                return False
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            self.fail(f"analysis error: {exc}")
            return False
        with self._cond:
            return bool(self._queue) and not self._state.terminal

    def has_pending(self) -> bool:
        with self._cond:
            return bool(self._queue) and not self._state.terminal

    # -- results --------------------------------------------------------------

    def violations_pretty(self) -> list[str]:
        """Every engine's pretty-printed findings, in engine order (equal
        to the classic LTL counterexample list for single-LTL sessions)."""
        return self.observer.counterexamples()

    def engine_verdicts_json(self) -> list[dict]:
        return [v.to_json() for v in self.observer.engine_verdicts()]

    def seal(self) -> dict:
        """Freeze the final record and drop the observer (and its lattice
        state) so a long-running server does not accumulate one analyzer
        per finished session.  Only meaningful in a terminal state."""
        if self._sealed is None:
            self._sealed = self.record()
            self.observer = None  # type: ignore[assignment]
            self._abort_archive()   # no-op when already committed/aborted
        return self._sealed

    def record(self) -> dict:
        """JSON-able status record — one line of ``repro sessions``."""
        if self._sealed is not None:
            return dict(self._sealed)
        elapsed = (self._elapsed if self._elapsed is not None
                   else time.monotonic() - self._t0)
        health = self.observer.health
        verdicts = self.observer.engine_verdicts()
        return {
            "session": self.id,
            "program": self.program,
            "peer": self.peer,
            "state": self._state.value,
            "spec": self.spec,
            "n_threads": self.n_threads,
            "received": self.received,
            "analyzed": self.analyzed,
            "pending": self.pending,
            "queue_high_water": self.queue_high_water,
            "violations": sum(v.violations for v in verdicts),
            "counterexamples": self.violations_pretty(),
            "engines": [v.to_json() for v in verdicts],
            "sound": health.sound_everywhere,
            "final_clocks": [list(c) for c in self.final_clocks],
            "epoch": self.epoch,
            "attached": self.attached,
            "archive": self.archive_id,
            "error": self.error,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_s": round(elapsed, 6),
        }
