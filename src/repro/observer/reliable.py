"""Reliable transport: ack-based retransmission over a lossy wire.

``SocketTransport`` (the paper's deployment shape) assumes TCP's perfect
in-order byte stream.  When the wire itself is imperfect — frames dropped,
duplicated or corrupted above the socket layer, as :class:`LossyWire`
simulates and as UDP-style or multi-hop deployments really behave — the
two-process pipeline needs its own reliability layer.  This module
provides one:

* every payload rides a sequence-numbered, CRC-checked frame;
* the receiver acks each frame it accepts; duplicates are re-acked and
  dropped; corrupt frames are *not* acked, so the sender retries;
* the sender retransmits unacked frames after a per-send timeout with
  exponential backoff and (seeded) jitter, up to a bounded retry budget;
* the in-flight window is bounded: :meth:`ReliableSender.send` blocks
  (backpressure) when too many frames are unacked, so a slow or dead
  receiver cannot make the sender buffer grow without bound;
* heartbeats flow while the sender is idle, letting the receiver
  distinguish "quiet" from "crashed";
* the stream ends with a ``fin`` frame carrying the total count, which
  the receiver uses to verify zero loss end-to-end.

Wire format: newline-delimited JSON frames over TCP ::

    {"t": "msg", "seq": 3, "crc": 123, "payload": "<Message.to_json()>"}
    {"t": "ack", "seq": 3}
    {"t": "hb"}
    {"t": "fin", "count": 17}
    {"t": "finack"}

Delivery to the application is in send order (frames are reassembled by
``seq``), exactly once, or :class:`ReliableTransportError` is raised at
the sender once the retry budget is exhausted — loss is never silent.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.events import Message
from ..obs import metrics as _metrics

__all__ = ["RetransmitConfig", "ReliableSender", "ReliableReceiver",
           "FrameDecoder", "LossyWire", "ReliableTransportError"]

_C_FRAMES = _metrics.REGISTRY.counter(
    "reliable.frames_sent", unit="frames",
    help="data frames first-sent by the reliable sender")
_C_RETRANS = _metrics.REGISTRY.counter(
    "reliable.retransmissions", unit="frames",
    help="frames retransmitted after an ack timeout")
_C_HEARTBEATS = _metrics.REGISTRY.counter(
    "reliable.heartbeats", unit="frames",
    help="idle heartbeats sent")
_C_ACKS = _metrics.REGISTRY.counter(
    "reliable.acks", unit="frames",
    help="acks received by the sender")
_G_INFLIGHT = _metrics.REGISTRY.gauge(
    "reliable.window_inflight", unit="frames",
    help="unacked frames in flight (max = window pressure)")
_C_RECV_MSGS = _metrics.REGISTRY.counter(
    "reliable.recv_messages", unit="messages",
    help="messages delivered in order by the reliable receiver")
_C_RECV_DUPS = _metrics.REGISTRY.counter(
    "reliable.recv_duplicates", unit="frames",
    help="duplicate frames re-acked and dropped by the receiver")
_C_RECV_CORRUPT = _metrics.REGISTRY.counter(
    "reliable.recv_corrupt_frames", unit="frames",
    help="frames the receiver rejected (bad JSON, shape or CRC)")


class ReliableTransportError(RuntimeError):
    """Raised when the reliability contract cannot be met (retry budget
    exhausted, receiver gone, or stream closed incomplete)."""


def _frame(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


@dataclass(frozen=True)
class RetransmitConfig:
    """Retransmission and flow-control knobs for :class:`ReliableSender`.

    One frozen value object holds everything that shapes the sender's
    recovery behavior, so deployments can pass a single tuned config
    around (and tests can assert against it) instead of seven loose
    keyword arguments.

    Attributes:
        timeout: initial per-send ack timeout, seconds.  Each retry
            multiplies it by ``backoff``.
        max_retries: retransmissions per frame before the sender declares
            the contract broken (:class:`ReliableTransportError`).
        backoff: exponential backoff multiplier (>= 1).
        jitter: fraction of each backoff randomized, decorrelating retry
            storms across senders; drawn from the seeded RNG.
        window: maximum unacked frames in flight.  When full,
            :meth:`ReliableSender.send` *blocks* — backpressure, so a slow
            or dead receiver bounds the sender's buffer instead of
            growing it.
        heartbeat_interval: idle period (seconds) after which a heartbeat
            frame is sent; ``None`` disables heartbeats.
        seed: RNG seed for the jitter (reproducible retry schedules).
    """

    timeout: float = 0.05
    max_retries: int = 10
    backoff: float = 2.0
    jitter: float = 0.1
    window: int = 64
    heartbeat_interval: Optional[float] = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter:
            raise ValueError("jitter must be >= 0")
        if (self.heartbeat_interval is not None
                and self.heartbeat_interval <= 0):
            raise ValueError("heartbeat_interval must be positive or None")


class LossyWire:
    """Deterministic frame-level fault injector for a send function.

    Sits between a sender and its socket: each outgoing frame is dropped
    or duplicated according to a seeded RNG.  The transport on top must
    recover — this is the wire the acceptance demo runs over.
    """

    def __init__(self, send_fn: Callable[[bytes], None],
                 drop: float = 0.0, dup: float = 0.0, seed: int = 0):
        if not 0.0 <= drop <= 1.0 or not 0.0 <= dup <= 1.0:
            raise ValueError("rates must be within [0, 1]")
        if drop + dup > 1.0:
            raise ValueError("drop + dup must be at most 1")
        self._send = send_fn
        self._drop = drop
        self._dup = dup
        self._rng = random.Random(seed)
        self.frames_dropped = 0
        self.frames_duplicated = 0

    def __call__(self, data: bytes) -> None:
        u = self._rng.random()
        if u < self._drop:
            self.frames_dropped += 1
            return
        self._send(data)
        if u < self._drop + self._dup:
            self.frames_duplicated += 1
            self._send(data)


class FrameDecoder:
    """Receive-side frame state machine for **one** peer connection.

    Owns exactly the transport concerns — CRC check, ack emission,
    duplicate suppression and in-order reassembly by ``seq`` — and leaves
    policy to the caller: every reassembled :class:`Message` is handed to
    ``on_message`` in send order, and control frames the decoder does not
    consume (``fin``, handshake frames, anything unknown) are *returned*
    from :meth:`feed_line` so the caller decides how to answer them.
    This is the piece :class:`ReliableReceiver` (single peer) and the
    multi-session server (:mod:`repro.server`, one decoder per client
    connection) share.

    Args:
        send: callable taking raw frame ``bytes`` — used to emit acks back
            to this peer.
        on_message: called with each :class:`Message` as it becomes
            deliverable in seq order.  Exceptions propagate to the caller
            of :meth:`feed_line` (the server uses this to abort a session
            on overload without acking the frame that overflowed it).
        start_seq: first sequence number this decoder will deliver.  A
            resumed session hands the peer's already-delivered count here,
            so replayed frames below it are re-acked as duplicates instead
            of being delivered twice.
    """

    def __init__(self, send: Callable[[bytes], None],
                 on_message: Optional[Callable[[Message], None]] = None,
                 start_seq: int = 0):
        if start_seq < 0:
            raise ValueError("start_seq must be >= 0")
        self._send = send
        self._on_message = on_message
        self._by_seq: dict[int, str] = {}
        self._next_deliver = start_seq
        self.expected_total: Optional[int] = None
        self.duplicates = 0
        self.corrupt_frames = 0
        self.heartbeats = 0
        self.last_heartbeat: Optional[float] = None
        self.errors: list[str] = []

    @property
    def delivered(self) -> int:
        """Messages handed to ``on_message`` so far (== next seq wanted)."""
        return self._next_deliver

    @property
    def complete(self) -> bool:
        """A fin has been seen and every seq before its count delivered."""
        return (self.expected_total is not None
                and self._next_deliver >= self.expected_total)

    def feed_line(self, line: str) -> Optional[dict]:
        """Consume one wire line.  Data/heartbeat frames are fully handled
        here (returns ``None``); any other parsed frame is returned for the
        caller to act on.  A ``fin`` frame records its count before being
        returned.  Unparseable lines, and a ``fin`` whose count is not a
        non-negative integer, count as corrupt and return ``None``.
        """
        line = line.strip()
        if not line:
            return None
        try:
            d = json.loads(line)
        except ValueError:
            self.corrupt_frames += 1
            if _metrics.ENABLED:
                _C_RECV_CORRUPT.inc()
            return None
        if not isinstance(d, dict):
            self.corrupt_frames += 1
            if _metrics.ENABLED:
                _C_RECV_CORRUPT.inc()
            return None
        kind = d.get("t")
        if kind == "msg":
            self._on_msg_frame(d)
            return None
        if kind == "hb":
            self.heartbeats += 1
            self.last_heartbeat = time.monotonic()
            return None
        if kind == "fin":
            count = d.get("count")
            if (not isinstance(count, int) or isinstance(count, bool)
                    or count < 0):
                self.corrupt_frames += 1
                if _metrics.ENABLED:
                    _C_RECV_CORRUPT.inc()
                return None
            self.expected_total = count
        return d

    def _on_msg_frame(self, d: dict) -> None:
        seq, payload = d.get("seq"), d.get("payload")
        if not isinstance(seq, int) or not isinstance(payload, str):
            self.corrupt_frames += 1
            if _metrics.ENABLED:
                _C_RECV_CORRUPT.inc()
            return
        if zlib.crc32(payload.encode("utf-8")) != d.get("crc"):
            self.corrupt_frames += 1
            if _metrics.ENABLED:
                _C_RECV_CORRUPT.inc()
            return  # no ack: the sender will retransmit an intact copy
        if seq < self._next_deliver or seq in self._by_seq:
            self.duplicates += 1
            if _metrics.ENABLED:
                _C_RECV_DUPS.inc()
        else:
            self._by_seq[seq] = payload
            while self._next_deliver in self._by_seq:
                text = self._by_seq.pop(self._next_deliver)
                try:
                    msg = Message.from_json(text)
                except Exception as exc:  # noqa: BLE001 - recorded
                    self.errors.append(f"seq {self._next_deliver}: {exc}")
                else:
                    if _metrics.ENABLED:
                        _C_RECV_MSGS.inc()
                    if self._on_message is not None:
                        self._on_message(msg)
                self._next_deliver += 1
        self._send(_frame({"t": "ack", "seq": seq}))


class ReliableSender:
    """The instrumented-program side: send messages, survive a lossy wire.

    Args:
        host/port: the :class:`ReliableReceiver` address.
        timeout/max_retries/backoff/jitter/window/heartbeat_interval/seed:
            individual retransmission knobs; see :class:`RetransmitConfig`
            for their semantics.
        wire: optional wrapper around the raw frame-send function — e.g.
            a :class:`LossyWire` — applied to data frames *and* heartbeats
            (acks travel the reverse direction and are not wrapped here).
        config: a complete :class:`RetransmitConfig`; when given it takes
            precedence over the individual keyword knobs.  The effective
            configuration is always readable back as :attr:`config`.
        sock: an already-connected socket to use instead of dialing
            ``host:port`` — the multi-session client performs its
            handshake synchronously and then hands the socket over.
        on_frame: callback for reverse-direction frames the sender does
            not consume itself (acks, finacks and heartbeats are handled
            internally; an ``err`` frame fails the transport with the
            peer's reason).  The server uses this channel to push the
            session's final ``result`` frame back to the client.
        first_seq: sequence number of the first frame this sender emits.
            A resuming client sets it to the server's delivered count so
            replayed messages keep their original sequence numbers (and
            :meth:`close`'s fin count stays the absolute stream total).
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 0.05,
        max_retries: int = 10,
        backoff: float = 2.0,
        jitter: float = 0.1,
        window: int = 64,
        heartbeat_interval: Optional[float] = 0.5,
        seed: int = 0,
        wire: Optional[Callable[[Callable[[bytes], None]],
                                Callable[[bytes], None]]] = None,
        config: Optional[RetransmitConfig] = None,
        sock: Optional[socket.socket] = None,
        on_frame: Optional[Callable[[dict], None]] = None,
        first_seq: int = 0,
    ):
        if first_seq < 0:
            raise ValueError("first_seq must be >= 0")
        if config is None:
            config = RetransmitConfig(
                timeout=timeout, max_retries=max_retries, backoff=backoff,
                jitter=jitter, window=window,
                heartbeat_interval=heartbeat_interval, seed=seed,
            )
        #: The effective (validated) retransmission configuration.
        self.config = config
        self._on_frame = on_frame
        if sock is not None:
            self._sock = sock
        elif host is not None and port is not None:
            self._sock = socket.create_connection((host, port))
        else:
            raise ValueError("need either host+port or a connected sock")
        self._sock_lock = threading.Lock()
        self._raw_send = self._locked_send
        self._wire_send = wire(self._raw_send) if wire else self._raw_send
        self._timeout = config.timeout
        self._max_retries = config.max_retries
        self._backoff = config.backoff
        self._jitter = config.jitter
        self._window = config.window
        self._hb_interval = config.heartbeat_interval
        self._rng = random.Random(config.seed)

        self._cond = threading.Condition()
        #: seq -> (frame bytes, retries so far, next retransmit deadline)
        self._unacked: dict[int, list] = {}
        self._next_seq = first_seq
        self._failed: Optional[str] = None
        self._fin_acked = False
        self._closing = False
        self._last_activity = time.monotonic()
        self.retransmissions = 0
        self.heartbeats_sent = 0

        self._ack_thread = threading.Thread(target=self._ack_loop, daemon=True)
        self._ack_thread.start()
        self._timer_thread = threading.Thread(target=self._timer_loop,
                                              daemon=True)
        self._timer_thread.start()

    # -- plumbing -------------------------------------------------------------

    def _locked_send(self, data: bytes) -> None:
        with self._sock_lock:
            self._sock.sendall(data)

    def _deadline(self, retries: int) -> float:
        base = self._timeout * (self._backoff ** retries)
        return time.monotonic() + base * (1.0 + self._jitter * self._rng.random())

    def _ack_loop(self) -> None:
        try:
            with self._sock.makefile("r", encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        d = json.loads(line)
                    except ValueError:
                        continue
                    kind = d.get("t") if isinstance(d, dict) else None
                    with self._cond:
                        if kind == "ack":
                            self._unacked.pop(d.get("seq"), None)
                            if _metrics.ENABLED:
                                _C_ACKS.inc()
                                _G_INFLIGHT.set(len(self._unacked))
                            self._cond.notify_all()
                            continue
                        if kind == "finack":
                            self._fin_acked = True
                            self._cond.notify_all()
                            continue
                        if kind == "err":
                            # the peer declared the stream dead (overload,
                            # session failure): fail fast with its reason
                            self._failed = (
                                f"peer error: {d.get('reason', 'unknown')}")
                            self._cond.notify_all()
                            continue
                    if self._on_frame is not None:
                        self._on_frame(d)
        except OSError:
            pass
        with self._cond:
            self._cond.notify_all()

    def _timer_loop(self) -> None:
        tick = min(self._timeout / 2, 0.02)
        while True:
            time.sleep(tick)
            with self._cond:
                if self._failed or (self._closing and not self._unacked):
                    if self._fin_acked or self._failed:
                        return
                now = time.monotonic()
                overdue = [
                    (seq, entry) for seq, entry in self._unacked.items()
                    if entry[2] <= now
                ]
                for seq, entry in overdue:
                    if entry[1] >= self._max_retries:
                        self._failed = (
                            f"frame seq={seq} unacked after "
                            f"{self._max_retries} retries"
                        )
                        self._cond.notify_all()
                        return
                    entry[1] += 1
                    entry[2] = self._deadline(entry[1])
                    self.retransmissions += 1
                    if _metrics.ENABLED:
                        _C_RETRANS.inc()
                    frame = entry[0]
                    self._transmit(frame)
                if (self._hb_interval is not None and not overdue
                        and now - self._last_activity > self._hb_interval):
                    self.heartbeats_sent += 1
                    if _metrics.ENABLED:
                        _C_HEARTBEATS.inc()
                    self._last_activity = now
                    self._transmit(_frame({"t": "hb"}))

    def _transmit(self, frame: bytes) -> None:
        try:
            self._wire_send(frame)
        except OSError as exc:
            # Condition() wraps an RLock, so this is safe from the timer
            # thread, which already holds it.
            with self._cond:
                self._failed = f"socket send failed: {exc}"
                self._cond.notify_all()

    def _raise_if_failed(self) -> None:
        if self._failed:
            raise ReliableTransportError(self._failed)

    # -- public API -----------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Queue one message; blocks while the in-flight window is full."""
        with self._cond:
            self._raise_if_failed()
            if self._closing:
                raise ReliableTransportError("sender already closed")
            while len(self._unacked) >= self._window and not self._failed:
                self._cond.wait(timeout=self._timeout)
            self._raise_if_failed()
            seq = self._next_seq
            self._next_seq += 1
            payload = msg.to_json()
            frame = _frame({
                "t": "msg", "seq": seq,
                "crc": zlib.crc32(payload.encode("utf-8")),
                "payload": payload,
            })
            self._unacked[seq] = [frame, 0, self._deadline(0)]
            self._last_activity = time.monotonic()
            if _metrics.ENABLED:
                _C_FRAMES.inc()
                _G_INFLIGHT.set(len(self._unacked))
        self._transmit(frame)
        self._raise_if_failed()

    def close(self, timeout: float = 10.0) -> None:
        """Flush: wait for every frame to be acked, then exchange fin/finack.

        Raises :class:`ReliableTransportError` if the contract could not be
        met — the caller *knows* whether everything arrived.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self._raise_if_failed()
            self._closing = True
            while self._unacked and not self._failed:
                if not self._cond.wait(timeout=deadline - time.monotonic()):
                    break
                if time.monotonic() > deadline:
                    break
            self._raise_if_failed()
            if self._unacked:
                raise ReliableTransportError(
                    f"{len(self._unacked)} frames still unacked at close"
                )
            count = self._next_seq
        fin = _frame({"t": "fin", "count": count})
        # fin itself rides the lossy wire: retry until finacked.  Once the
        # finack is in, the exchange has *succeeded* — the peer may close
        # its end immediately after finacking, so a socket error raced by
        # a retransmitted fin or a heartbeat must not fail the close.
        retries = 0
        while True:
            self._transmit(fin)
            with self._cond:
                self._cond.wait_for(
                    lambda: self._fin_acked or self._failed is not None,
                    timeout=self._timeout * (self._backoff ** retries))
                if self._fin_acked:
                    break
                self._raise_if_failed()
            retries += 1
            if retries > self._max_retries:
                raise ReliableTransportError("fin never acknowledged")
        with self._sock_lock:
            # The ack-reader's makefile keeps the underlying fd alive past
            # close(); shutdown pushes our FIN out now so the peer's
            # post-finack drain sees EOF immediately instead of timing out.
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "ReliableSender":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        else:  # don't mask the original error with flush failures
            with self._sock_lock:
                self._sock.close()


class ReliableReceiver:
    """The observer side: reassemble an exactly-once, in-order stream.

    Accepts one sender, acks every valid frame, drops duplicates (re-acking
    them — the ack may have been the lost frame), ignores corrupt frames
    (no ack → sender retries), and buffers out-of-order arrivals until the
    gap fills.  ``on_message`` (when given) is called with each
    :class:`Message` as it becomes deliverable in seq order.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 accept_timeout: float = 30.0,
                 on_message: Optional[Callable[[Message], None]] = None):
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()
        self._accept_timeout = accept_timeout
        self._on_message = on_message
        self._thread: Optional[threading.Thread] = None
        self._received: list[Message] = []
        self._decoder = FrameDecoder(send=lambda data: None,
                                     on_message=self._deliver)
        self.sender_never_connected = False

    # decoder state, re-exported under the receiver's historical names
    @property
    def duplicates(self) -> int:
        return self._decoder.duplicates

    @property
    def corrupt_frames(self) -> int:
        return self._decoder.corrupt_frames

    @property
    def heartbeats(self) -> int:
        return self._decoder.heartbeats

    @property
    def last_heartbeat(self) -> Optional[float]:
        return self._decoder.last_heartbeat

    @property
    def errors(self) -> list[str]:
        return self._decoder.errors

    @property
    def _expected_total(self) -> Optional[int]:
        return self._decoder.expected_total

    @property
    def _next_deliver(self) -> int:
        return self._decoder.delivered

    def _deliver(self, msg: Message) -> None:
        self._received.append(msg)
        if self._on_message is not None:
            self._on_message(msg)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        self._server.settimeout(self._accept_timeout)
        try:
            conn, _addr = self._server.accept()
        except (socket.timeout, OSError):
            self.sender_never_connected = True
            return
        conn.settimeout(self._accept_timeout)
        self._decoder._send = conn.sendall
        try:
            with conn, conn.makefile("r", encoding="utf-8") as f:
                for line in f:
                    frame = self._decoder.feed_line(line)
                    if frame is not None and frame.get("t") == "fin":
                        conn.sendall(_frame({"t": "finack"}))
                        if self._decoder.complete:
                            return
        except (socket.timeout, OSError) as exc:
            self._decoder.errors.append(f"receive loop ended: {exc!r}")

    def wait(self, timeout: float = 10.0) -> list[Message]:
        """Wait for the full stream (fin received and every seq delivered);
        returns messages in send order."""
        if self._thread is None:
            raise RuntimeError("start was not called")
        try:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError(
                    "reliable receiver incomplete: "
                    + (f"{self._next_deliver}/{self._expected_total} delivered"
                       if self._expected_total is not None
                       else f"{self._next_deliver} delivered, no fin seen")
                )
        finally:
            self.close()
        if self.sender_never_connected:
            raise ConnectionError(
                f"no sender connected to {self.host}:{self.port} within "
                f"{self._accept_timeout}s"
            )
        if self._expected_total is not None \
                and len(self._received) != self._expected_total:
            raise ReliableTransportError(
                f"stream ended with {len(self._received)} of "
                f"{self._expected_total} messages"
            )
        return list(self._received)

    def close(self) -> None:
        self._server.close()

    def __enter__(self) -> "ReliableReceiver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
