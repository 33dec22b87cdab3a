"""Client side of the multi-session analysis server.

The instrumented program (or the ``repro attach`` CLI) uses this module to
open a session: a synchronous one-line handshake, then the stock
:class:`~repro.observer.reliable.ReliableSender` owns the socket and
streams messages with acks, retransmission and backpressure exactly as in
the two-process pipeline.  Closing the session completes the fin/finack
handshake and returns the server's verdicts.

With a :class:`ReconnectPolicy` the session also survives the *connection*
dying: every sent message is buffered until the server checkpoints it
(``ckpt`` frames prune the buffer), and a transport failure triggers a
transparent resume — reconnect with capped exponential backoff, present
the resume token, and idempotently resend everything past the server's
delivered count.  The server re-acks replayed duplicates, so the stream
the analysis sees is exactly-once regardless of how many times the wire
dropped.

Usage::

    from repro.server import attach

    with attach(port=4040, n_threads=2, initial={"x": -1, "y": 0, "z": 0},
                spec=XYZ_PROPERTY, program="xyz") as session:
        run_program(xyz_program(), scheduler, sink=session.send)
    print(session.verdict.counterexamples)
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from ..core.events import Message, VarName
from ..obs import metrics as _metrics
from ..observer.reliable import (
    ReliableSender,
    ReliableTransportError,
    RetransmitConfig,
)
from .protocol import Hello, ProtocolError, encode_frame, read_frame_line

__all__ = ["ServerRejected", "ResultTimeout", "ReconnectPolicy",
           "SessionVerdict", "AttachedSession", "attach", "fetch_status"]

_C_RECONNECTS = _metrics.REGISTRY.counter(
    "client.reconnects", unit="reconnects",
    help="successful resume handshakes after a dropped connection")
_C_RESENT = _metrics.REGISTRY.counter(
    "client.resent_messages", unit="messages",
    help="buffered messages replayed to the server during a resume")


class ServerRejected(ConnectionError):
    """The server refused the attach; :attr:`reason` is its explanation
    (capacity, shutdown in progress, malformed hello, bad spec)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ResultTimeout(ReliableTransportError):
    """The server acknowledged the whole stream (finack) but produced no
    ``result`` frame within the caller's timeout."""


@dataclass(frozen=True)
class ReconnectPolicy:
    """Re-attach behavior after a transport failure.

    Attributes:
        max_attempts: resume attempts per failure before giving up and
            re-raising the original transport error.
        backoff / backoff_cap: capped exponential delay before each
            attempt (``backoff * 2**n``, at most ``backoff_cap``).
        connect_timeout: per-attempt dial + handshake budget.
    """

    max_attempts: int = 6
    backoff: float = 0.1
    backoff_cap: float = 2.0
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoffs must be >= 0")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be > 0")


@dataclass(frozen=True)
class SessionVerdict:
    """The server's final word on one session."""

    session: int
    state: str
    violations: int
    counterexamples: tuple[str, ...] = ()
    sound: bool = True
    analyzed: int = 0
    final_clocks: tuple[tuple[int, ...], ...] = ()
    error: Optional[str] = None
    #: Per-engine verdict documents (:meth:`EngineVerdict.to_json` shape),
    #: in engine order; empty when talking to a pre-bus server.
    engines: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        """Finished cleanly with no predicted violation."""
        return self.state == "finished" and self.violations == 0


def _handshake(host: str, port: int, hello: Hello,
               timeout: float) -> tuple[socket.socket, dict]:
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.sendall(encode_frame(hello.to_frame()))
        reply = read_frame_line(sock)
    except BaseException:
        sock.close()
        raise
    kind = reply.get("t")
    if kind == "reject":
        sock.close()
        raise ServerRejected(reply.get("reason", "rejected (no reason given)"))
    return sock, reply


class AttachedSession:
    """A live session: ``send`` messages, ``close`` for the verdict.

    Create via :func:`attach`.  The underlying reliable sender enforces
    the bounded in-flight window, so a slow server backpressures the
    instrumented program instead of buffering without bound; a server-side
    overload or failure surfaces as :class:`ReliableTransportError`
    carrying the server's reason.

    With a reconnect policy, transport failures inside :meth:`send` and
    :meth:`close` trigger a transparent resume instead; only a server-side
    reject of the resume (session failed, token expired) re-raises the
    original error.  ``send``/``close`` remain single-caller: the resume
    buffer assumes the instrumented program streams from one thread, as
    Algorithm A's sink does.
    """

    def __init__(self, session_id: int, sender: ReliableSender, *,
                 host: str = "", port: int = 0, token: str = "",
                 epoch: int = 1,
                 reconnect: Optional[ReconnectPolicy] = None,
                 config: Optional[RetransmitConfig] = None):
        self.session_id = session_id
        self._sender = sender
        self._host, self._port = host, port
        self._token, self.epoch = token, epoch
        self._policy = reconnect
        self._config = config
        self._lock = threading.Lock()
        self._buffer: deque[tuple[int, Message]] = deque()
        self._seq = 0
        self._result_event = threading.Event()
        self._result_box: dict = {}
        self.reconnects = 0
        self.verdict: Optional[SessionVerdict] = None

    # Called from each sender's ack-reader thread with reverse frames the
    # transport itself does not consume.
    def _on_frame(self, d: dict) -> None:
        kind = d.get("t")
        if kind == "result":
            self._result_box["frame"] = d
            self._result_event.set()
        elif kind == "ckpt":
            n = d.get("n")
            if isinstance(n, int):
                with self._lock:
                    while self._buffer and self._buffer[0][0] < n:
                        self._buffer.popleft()

    def send(self, msg: Message) -> None:
        """Stream one message (usable directly as Algorithm A's sink)."""
        if self._policy is not None:
            with self._lock:
                self._buffer.append((self._seq, msg))
        self._seq += 1
        try:
            self._sender.send(msg)
        except (ReliableTransportError, OSError) as exc:
            # _reattach replays the buffer — this message included — or
            # raises; either way delivery is settled when it returns
            self._reattach(exc)

    def close(self, timeout: float = 30.0) -> SessionVerdict:
        """Flush, complete the fin/finack handshake and return the server's
        verdict.  Raises :class:`ReliableTransportError` if the stream
        could not be completed, :class:`ResultTimeout` if the server
        acknowledged it but never produced a result frame."""
        attempts = self._policy.max_attempts if self._policy else 1
        for _ in range(max(1, attempts)):
            try:
                self._sender.close(timeout=timeout)
                break
            except (ReliableTransportError, OSError) as exc:
                self._reattach(exc)   # raises when resume is impossible
        else:
            raise ReliableTransportError(
                f"session {self.session_id}: close did not complete after "
                f"{attempts} resume attempts")
        # the result frame precedes the finack on the wire, so it normally
        # has already been captured by the sender's reader thread; the wait
        # honors the caller's own budget
        if not self._result_event.wait(timeout=timeout):
            raise ResultTimeout(
                f"session {self.session_id}: server acknowledged the stream "
                f"but sent no result frame within {timeout}s")
        d = self._result_box["frame"]
        self.verdict = SessionVerdict(
            session=d.get("session", self.session_id),
            state=d.get("state", "unknown"),
            violations=d.get("violations", 0),
            counterexamples=tuple(d.get("counterexamples") or ()),
            sound=bool(d.get("sound", False)),
            analyzed=d.get("analyzed", 0),
            final_clocks=tuple(tuple(c) for c in d.get("final_clocks") or ()),
            error=d.get("error"),
            engines=tuple(d.get("engines") or ()),
        )
        return self.verdict

    def _reattach(self, cause: BaseException) -> None:
        """Resume the session on a fresh connection, replaying the unpruned
        buffer.  Re-raises ``cause`` when reconnecting is off, rejected by
        the server, or still failing after the policy's attempts."""
        policy = self._policy
        if policy is None:
            raise cause
        for attempt in range(policy.max_attempts):
            time.sleep(min(policy.backoff * (2 ** attempt),
                           policy.backoff_cap))
            hello = Hello(mode="resume", session=self.session_id,
                          token=self._token, epoch=self.epoch)
            try:
                sock, reply = _handshake(self._host, self._port, hello,
                                         policy.connect_timeout)
            except ServerRejected as rej:
                # the server's answer is final — and `cause` usually
                # carries the more informative server-side err reason
                raise cause from rej
            except (OSError, ProtocolError):
                continue
            delivered = reply.get("delivered")
            epoch = reply.get("epoch")
            if (reply.get("t") != "helloack"
                    or not isinstance(delivered, int)
                    or not isinstance(epoch, int)):
                sock.close()
                continue
            sock.settimeout(None)
            self._poison(self._sender)
            sender = ReliableSender(sock=sock, config=self._config,
                                    on_frame=self._on_frame,
                                    first_seq=delivered)
            self.epoch = epoch
            # keep what lies below `delivered`: a live daemon holds it in
            # memory, but only a ckpt frame says it would survive a crash
            with self._lock:
                replay = [(seq, m) for seq, m in self._buffer
                          if seq >= delivered]
            try:
                for _seq, msg in replay:
                    sender.send(msg)
            except (ReliableTransportError, OSError):
                self._poison(sender)
                continue
            self._sender = sender
            self.reconnects += 1
            if _metrics.ENABLED:
                _C_RECONNECTS.inc()
                if replay:
                    _C_RESENT.inc(len(replay))
            return
        raise cause

    @staticmethod
    def _poison(sender: ReliableSender) -> None:
        """Make an abandoned sender's threads exit: kill its socket."""
        with sender._sock_lock:
            try:
                sender._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sender._sock.close()
            except OSError:
                pass

    def abort(self) -> None:
        """Drop the connection without the close handshake (the server
        fails the session with ``connection lost`` — or parks it for
        resume when the server runs with a resume window)."""
        self._policy = None
        self._poison(self._sender)

    def __enter__(self) -> "AttachedSession":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def attach(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    n_threads: int,
    initial: Mapping[VarName, Any],
    spec: Optional[str] = None,
    program: str = "unknown",
    fault_tolerant: bool = False,
    engines: Optional[Sequence[str]] = None,
    config: Optional[RetransmitConfig] = None,
    connect_timeout: float = 10.0,
    reconnect: Union[ReconnectPolicy, bool, None] = None,
) -> AttachedSession:
    """Open an analysis session on a running ``repro serve`` daemon.

    Raises :class:`ServerRejected` when the server refuses (capacity,
    shutdown, invalid spec/initial combination) — an explicit answer, by
    design, rather than a hang.

    ``reconnect`` (a :class:`ReconnectPolicy`, or ``True`` for the
    defaults) makes the session survive dropped connections by resuming
    with the server-issued token; it only helps against servers running
    with ``resume_timeout > 0``, which also emit the ``ckpt`` frames that
    bound the client-side resend buffer.
    """
    if reconnect is True:
        reconnect = ReconnectPolicy()
    elif reconnect is False:
        reconnect = None
    hello = Hello(mode="attach", program=program, n_threads=n_threads,
                  initial={str(k): v for k, v in initial.items()},
                  spec=spec, fault_tolerant=fault_tolerant,
                  engines=tuple(engines or ()))
    sock, reply = _handshake(host, port, hello, connect_timeout)
    if reply.get("t") != "helloack" or not isinstance(
            reply.get("session"), int):
        sock.close()
        raise ProtocolError(f"expected a helloack frame, got {reply!r}")
    sock.settimeout(None)
    session = AttachedSession(
        reply["session"],
        sender=None,  # type: ignore[arg-type]  # set below, same statement
        host=host, port=port,
        token=reply.get("token") or "",
        epoch=reply.get("epoch") or 1,
        reconnect=reconnect, config=config)
    session._sender = ReliableSender(sock=sock, config=config,
                                     on_frame=session._on_frame)
    return session


def fetch_status(host: str = "127.0.0.1", port: Optional[int] = None,
                 timeout: float = 10.0) -> dict:
    """One status round-trip: server health plus every session record.

    ``port`` is required (keyword or positional): there is no default
    daemon port, and dialing port 0 can never reach one.  Against a fleet
    router the reply additionally carries a ``fleet`` section with
    per-shard health (docs/FLEET.md).
    """
    if not port:
        raise ValueError(
            "fetch_status needs the daemon's port, e.g. "
            "fetch_status(port=4040) — there is no default and port 0 is "
            "never routable")
    sock, reply = _handshake(host, port, Hello(mode="status"), timeout)
    sock.close()
    if reply.get("t") != "status":
        raise ProtocolError(f"expected a status frame, got {reply!r}")
    return reply
