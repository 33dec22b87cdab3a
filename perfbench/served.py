"""The served side of the benchmark: daemon processes, a byte-counting
relay, and the closed-loop clients.

Every session is driven exactly as an instrumented program would drive
it: ``attach`` a session, run ``AlgorithmA`` over the stream's operations
with ``AttachedSession.send`` as its sink, then ``close`` for the verdict.
"""

from __future__ import annotations

import itertools
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.algorithm_a import AlgorithmA
from repro.server import SessionVerdict, attach, fetch_status

from streams import Stream

_SERVING = re.compile(r"serving on (\S+):(\d+)")
START_TIMEOUT = 60.0
#: one session's close budget; far above any workload's verdict time
CLOSE_TIMEOUT = 120.0
#: client->server bytes of the first relayed session kept for decoding
KEEP_BYTES = 4 << 20


class Daemon:
    """One analysis-server subprocess, cold-started and stopped here."""

    def __init__(self, argv: list[str], root: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.port = 0
        self.tail: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        # the daemon prints a line per finished session: keep draining so
        # a full pipe can never block it
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.tail = (self.tail + [line.rstrip()])[-20:]
            if not self.port:
                self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> float:
        """Block until the daemon accepts a handshake; returns seconds
        since the spawn."""
        deadline = self.t0 + START_TIMEOUT
        while not self.port:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("daemon did not start: "
                                   + " | ".join(self.tail))
            m = _SERVING.search(line)
            if m:
                self.port = int(m.group(2))
        fetch_status(port=self.port, timeout=START_TIMEOUT)
        return time.perf_counter() - self.t0

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as f:
            return f.read()

    def vm_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``), MiB."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU time consumed so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), SIGKILL as a fallback;
        returns once the process and its reader are gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()


def serve_argv() -> list[str]:
    """``repro serve`` with default settings on an ephemeral port."""
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def traced_serve_argv() -> list[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "traced_serve.py")]


class Relay:
    """A localhost TCP relay that counts the bytes each way.  Used by the
    traced run only, for ``wire.bytes_per_event``; it also keeps the
    first connection's client->server bytes for the decode micro-pass."""

    def __init__(self, target_port: int):
        self._target = target_port
        self._srv = socket.create_server(("127.0.0.1", 0))
        self.port = self._srv.getsockname()[1]
        self.up = 0
        self.down = 0
        self.first_upstream = bytearray()
        self._conns = 0
        self._lock = threading.Lock()
        self._socks: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._accept = threading.Thread(target=self._accept_loop,
                                        daemon=True)
        self._accept.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._srv.accept()
            except OSError:
                return
            upstream = socket.create_connection(("127.0.0.1", self._target))
            with self._lock:
                first = self._conns == 0
                self._conns += 1
                self._socks += [client, upstream]
            for src, dst, up in ((client, upstream, True),
                                 (upstream, client, False)):
                t = threading.Thread(target=self._pump,
                                     args=(src, dst, up, first and up),
                                     daemon=True)
                t.start()
                self._threads.append(t)

    def _pump(self, src: socket.socket, dst: socket.socket, up: bool,
              keep: bool) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                with self._lock:
                    if up:
                        self.up += len(data)
                    else:
                        self.down += len(data)
                if keep and len(self.first_upstream) < KEEP_BYTES:
                    self.first_upstream += data
                dst.sendall(data)
        except OSError:
            pass
        finally:
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def close(self) -> None:
        self._srv.close()
        self._accept.join(timeout=10)
        for t in self._threads:
            t.join(timeout=10)
        for s in self._socks:
            s.close()


@dataclass
class SessionRun:
    """One closed-loop session, timed on the generator's clock."""

    stream: int
    t_attach: float
    t_done: float = 0.0
    t_close: float = 0.0
    verdict: Optional[SessionVerdict] = None
    error: Optional[str] = None
    #: traced run only: ns spent per client-side layer
    spans: dict = field(default_factory=dict)

    @property
    def session_ms(self) -> float:
        return (self.t_done - self.t_attach) * 1e3

    @property
    def verdict_ms(self) -> float:
        return (self.t_done - self.t_close) * 1e3


def run_session(port: int, index: int, s: Stream,
                traced: bool) -> SessionRun:
    run = SessionRun(index, time.perf_counter())
    session = None
    try:
        session = attach(port=port, n_threads=s.n_threads,
                         initial=s.initial, spec=s.spec, program=s.program,
                         engines=s.engines or None,
                         fault_tolerant=s.fault_tolerant)
        t_attached = time.perf_counter()
        if traced:
            _stream_traced(session, s, run)
        else:
            algo = AlgorithmA(s.n_threads, relevance=s.relevance_fn(),
                              sink=session.send, collect=False)
            process = algo.process
            for op in s.ops:
                process(*op)
        run.t_close = time.perf_counter()
        run.verdict = session.close(timeout=CLOSE_TIMEOUT)
        run.t_done = time.perf_counter()
        if traced:
            run.spans["attach"] = int((t_attached - run.t_attach) * 1e9)
            run.spans["close"] = int((run.t_done - run.t_close) * 1e9)
    except Exception as exc:  # noqa: BLE001 - a failed session is counted
        run.t_done = time.perf_counter()
        run.error = f"{type(exc).__name__}: {exc}"
        if session is not None:
            session.abort()
    return run


def _stream_traced(session, s: Stream, run: SessionRun) -> None:
    """The same loop with a span around each call into Algorithm A and
    each ``send``; Algorithm A's self time excludes the send it calls."""
    clock = time.perf_counter_ns
    send_ns = [0]
    send = session.send

    def sink(msg) -> None:
        t = clock()
        send(msg)
        send_ns[0] += clock() - t

    algo = AlgorithmA(s.n_threads, relevance=s.relevance_fn(), sink=sink,
                      collect=False)
    process = algo.process
    process_ns = 0
    for op in s.ops:
        t = clock()
        process(*op)
        process_ns += clock() - t
    run.spans["send"] = send_ns[0]
    run.spans["algoa"] = process_ns - send_ns[0]


def drive(port: int, pool: list[Stream], clients: int, seconds: float,
          traced: bool = False) -> list[SessionRun]:
    """Closed loop: each client starts its next session only once the
    previous verdict is in, until ``seconds`` have passed.  Sessions cycle
    through the pool in order."""
    counter = itertools.count()
    runs: list[SessionRun] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            i = next(counter) % len(pool)
            runs.append(run_session(port, i, pool[i], traced))

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * CLOSE_TIMEOUT)
        if t.is_alive():
            raise RuntimeError("a client did not finish its last session")
    return sorted(runs, key=lambda r: r.t_attach)
