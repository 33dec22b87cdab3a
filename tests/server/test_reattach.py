"""Client re-attach: resume tokens, epochs, replay, daemon restart.

The re-attach protocol's promises: a dropped connection resumes
transparently (same verdict as an undisturbed run), a wrong token is
rejected, a restarted daemon readmits journaled sessions for resume, and
a server that acknowledges the stream but never produces a result raises
:class:`ResultTimeout` instead of hanging — plus the accept-loop error
accounting satellite.
"""

import errno
import json
import socket
import threading
import time

import pytest

from repro.obs import metrics as _metrics
from repro.observer import Observer
from repro.server import (
    AnalysisServer,
    ReconnectPolicy,
    ResultTimeout,
    ServerConfig,
    ServerRejected,
    attach,
)
from repro.server.client import _handshake
from repro.server.protocol import Hello
from repro.workloads import XYZ_PROPERTY, XYZ_VARS


@pytest.fixture
def xyz_initial(xyz_execution):
    return {v: xyz_execution.initial_store[v] for v in XYZ_VARS}


def _standalone(execution, initial, spec):
    obs = Observer(execution.n_threads, initial, spec=spec)
    for m in execution.messages:
        obs.receive(m)
    obs.finish()
    return sorted(v.pretty(tuple(sorted(initial))) for v in obs.violations)


def _drop(session):
    try:
        session._sender._sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class TestResume:
    def test_drop_and_resume_has_verdict_parity(self, xyz_execution,
                                                xyz_initial):
        config = ServerConfig(port=0, workers=2, resume_timeout=10.0)
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY,
                             reconnect=ReconnectPolicy(max_attempts=8,
                                                       backoff=0.05))
            half = len(xyz_execution.messages) // 2
            for m in xyz_execution.messages[:half]:
                session.send(m)
            _drop(session)
            for m in xyz_execution.messages[half:]:
                session.send(m)
            verdict = session.close(timeout=60.0)
        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        assert session.reconnects >= 1
        assert session.epoch >= 2

    def test_resume_with_wrong_token_is_rejected(self, xyz_execution,
                                                 xyz_initial):
        config = ServerConfig(port=0, workers=1, resume_timeout=10.0)
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY)
            hello = Hello(mode="resume", session=session.session_id,
                          token="0000000000000000", epoch=1)
            with pytest.raises(ServerRejected, match="token mismatch"):
                _handshake(srv.host, srv.port, hello, 5.0)
            session.abort()

    def test_resume_of_unknown_session_is_rejected(self):
        with AnalysisServer(ServerConfig(port=0, workers=1,
                                         resume_timeout=5.0)) as srv:
            hello = Hello(mode="resume", session=404, token="cafe", epoch=1)
            with pytest.raises(ServerRejected, match="no such live session"):
                _handshake(srv.host, srv.port, hello, 5.0)

    def test_detached_session_expires_after_window(self, xyz_execution,
                                                   xyz_initial):
        records = []
        config = ServerConfig(port=0, workers=1, resume_timeout=0.2)
        with AnalysisServer(config, on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY)
            session.send(xyz_execution.messages[0])
            session.abort()
            deadline = time.monotonic() + 10.0
            while not records and time.monotonic() < deadline:
                time.sleep(0.02)
        [record] = records
        assert record["state"] == "failed"
        assert "did not resume" in record["error"]


class TestDaemonRestart:
    def test_recover_readmits_and_client_resumes(self, tmp_path,
                                                 xyz_execution, xyz_initial):
        ckpt = str(tmp_path / "ckpt")
        base = dict(workers=2, checkpoint_dir=ckpt,
                    checkpoint_every=1, resume_timeout=30.0,
                    drain_timeout=60.0)
        first = AnalysisServer(ServerConfig(port=0, **base)).start()
        port = first.port
        session = attach(first.host, port,
                         n_threads=xyz_execution.n_threads,
                         initial=xyz_initial, spec=XYZ_PROPERTY,
                         program="xyz",
                         reconnect=ReconnectPolicy(max_attempts=12,
                                                   backoff=0.1))
        half = len(xyz_execution.messages) // 2
        for m in xyz_execution.messages[:half]:
            session.send(m)
        # wait for a journaled prefix (the shutdown below fsyncs it)
        deadline = time.monotonic() + 10.0
        journal = first._sessions[session.session_id].journal
        while journal.count == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        first.shutdown(drain=False)   # journals survive a daemon shutdown

        # rebinding the very same port can briefly lose to lingering
        # connection state from the first daemon; retry like an operator
        second = None
        deadline = time.monotonic() + 10.0
        while second is None:
            try:
                second = AnalysisServer(
                    ServerConfig(port=port, recover=True, **base)).start()
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        try:
            for m in xyz_execution.messages[half:]:
                session.send(m)
            verdict = session.close(timeout=60.0)
        finally:
            second.shutdown()
        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        assert session.reconnects >= 1


    def test_recovery_rebuild_runs_after_start_and_holds_the_resume(
            self, tmp_path, xyz_execution, xyz_initial, monkeypatch):
        # the journaled prefix is rebuilt on the worker pool, so a slow
        # rebuild (a large lattice) neither delays start() past a
        # supervisor's spawn timeout nor lets the resumed stream overtake it
        ckpt = str(tmp_path / "ckpt")
        base = dict(workers=2, checkpoint_dir=ckpt, checkpoint_every=1,
                    resume_timeout=30.0, drain_timeout=60.0)
        first = AnalysisServer(ServerConfig(port=0, **base)).start()
        port = first.port
        session = attach(first.host, port,
                         n_threads=xyz_execution.n_threads,
                         initial=xyz_initial, spec=XYZ_PROPERTY,
                         program="xyz",
                         reconnect=ReconnectPolicy(max_attempts=12,
                                                   backoff=0.1))
        half = len(xyz_execution.messages) // 2
        for m in xyz_execution.messages[:half]:
            session.send(m)
        journal = first._sessions[session.session_id].journal
        deadline = time.monotonic() + 10.0
        while journal.count == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        first.shutdown(drain=False)

        real_rebuild = Observer.rebuild

        def slow_rebuild(self, messages):
            time.sleep(1.5)
            return real_rebuild(self, messages)

        monkeypatch.setattr(Observer, "rebuild", slow_rebuild)
        second = None
        deadline = time.monotonic() + 10.0
        while second is None:
            try:
                started = time.monotonic()
                second = AnalysisServer(
                    ServerConfig(port=port, recover=True, **base)).start()
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        try:
            assert time.monotonic() - started < 1.0
            recovered = second._sessions[session.session_id]
            assert not recovered.rebuilt.is_set()
            assert recovered.received > 0
            for m in xyz_execution.messages[half:]:
                session.send(m)
            verdict = session.close(timeout=60.0)
        finally:
            second.shutdown()
        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected

    def test_resume_then_daemon_crash_resends_the_unjournaled_tail(
            self, tmp_path, xyz_execution, xyz_initial):
        # a live resume reports everything *received* as delivered, but
        # only the journaled prefix survives a daemon restart: the client
        # must keep messages until a ckpt frame, not until a helloack
        ckpt = str(tmp_path / "ckpt")
        base = dict(checkpoint_dir=ckpt, resume_timeout=30.0,
                    drain_timeout=60.0)
        # no workers: nothing is analyzed, so nothing is journaled
        first = AnalysisServer(ServerConfig(port=0, workers=0,
                                            **base)).start()
        port = first.port
        session = attach(first.host, port,
                         n_threads=xyz_execution.n_threads,
                         initial=xyz_initial, spec=XYZ_PROPERTY,
                         program="xyz",
                         reconnect=ReconnectPolicy(max_attempts=12,
                                                   backoff=0.1))
        messages = list(xyz_execution.messages)
        half = len(messages) // 2
        for m in messages[:half]:
            session.send(m)
        live = first._sessions[session.session_id]
        deadline = time.monotonic() + 10.0
        while live.received < half and time.monotonic() < deadline:
            time.sleep(0.02)
        _drop(session)
        session.send(messages[half])          # resumes: delivered == half
        assert session.reconnects == 1
        first.shutdown(drain=False)

        second = None
        deadline = time.monotonic() + 10.0
        while second is None:
            try:
                second = AnalysisServer(ServerConfig(
                    port=port, workers=2, recover=True, **base)).start()
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        try:
            for m in messages[half + 1:]:
                session.send(m)
            verdict = session.close(timeout=60.0)
        finally:
            second.shutdown()
        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(messages)
        assert sorted(verdict.counterexamples) == expected


class _FakeServer:
    """Acks every message and the fin, but never sends a result frame."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn, conn.makefile("r", encoding="utf-8") as reader:
            reader.readline()   # hello
            conn.sendall((json.dumps(
                {"t": "helloack", "session": 1, "epoch": 1,
                 "token": "feed"}) + "\n").encode())
            for line in reader:
                d = json.loads(line)
                if d.get("t") == "msg":
                    conn.sendall((json.dumps(
                        {"t": "ack", "seq": d["seq"]}) + "\n").encode())
                elif d.get("t") == "fin":
                    conn.sendall(b'{"t": "finack"}\n')
                    # keep reading; never send a result

    def close(self):
        self.sock.close()


class TestResultTimeout:
    def test_acked_stream_without_result_raises(self, xyz_execution,
                                                xyz_initial):
        fake = _FakeServer()
        try:
            session = attach("127.0.0.1", fake.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY)
            for m in xyz_execution.messages:
                session.send(m)
            started = time.monotonic()
            with pytest.raises(ResultTimeout, match="no result frame"):
                session.close(timeout=0.5)
            assert time.monotonic() - started < 10.0
        finally:
            fake.close()


class _FlakyAcceptSocket:
    """EMFILE twice (transient), then EBADF (fatal)."""

    def __init__(self):
        self.calls = 0

    def accept(self):
        self.calls += 1
        if self.calls <= 2:
            raise OSError(errno.EMFILE, "too many open files")
        raise OSError(errno.EBADF, "bad file descriptor")


class TestAcceptErrors:
    def test_accept_errors_are_counted_and_logged_once(self, caplog):
        _metrics.enable(reset=True)
        try:
            srv = AnalysisServer(ServerConfig(port=0, workers=1))
            stub = _FlakyAcceptSocket()
            srv._server = stub
            with caplog.at_level("WARNING", logger="repro.server"):
                srv._accept_loop()   # returns on the fatal errno
            assert stub.calls == 3
            emfile = _metrics.REGISTRY.get(
                "server.accept_errors{errno=%d}" % errno.EMFILE)
            ebadf = _metrics.REGISTRY.get(
                "server.accept_errors{errno=%d}" % errno.EBADF)
            assert emfile is not None and emfile.value == 2
            assert ebadf is not None and ebadf.value == 1
            # one log line per distinct errno, not per occurrence
            warnings = [r for r in caplog.records
                        if "accept" in r.getMessage()]
            assert len(warnings) == 2
        finally:
            _metrics.disable()
