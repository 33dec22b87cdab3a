"""The multi-session analysis server: admission, analysis, lifecycle."""

import json
import time

import pytest

from repro.observer import Observer
from repro.observer.reliable import ReliableTransportError, RetransmitConfig
from repro.server import (
    AnalysisServer,
    ServerConfig,
    ServerRejected,
    SessionState,
    attach,
    fetch_status,
)
from repro.workloads import XYZ_PROPERTY, XYZ_VARS


@pytest.fixture
def xyz_initial(xyz_execution):
    return {v: xyz_execution.initial_store[v] for v in XYZ_VARS}


def _standalone_counterexamples(execution, initial, spec):
    obs = Observer(execution.n_threads, initial, spec=spec)
    for m in execution.messages:
        obs.receive(m)
    obs.finish()
    return sorted(v.pretty(tuple(sorted(initial))) for v in obs.violations)


def _attach_and_stream(server, execution, initial, spec, **kw):
    session = attach(server.host, server.port,
                     n_threads=execution.n_threads, initial=initial,
                     spec=spec, **kw)
    for m in execution.messages:
        session.send(m)
    return session.close()


class TestEndToEnd:
    def test_verdict_matches_standalone_observer(self, xyz_execution,
                                                 xyz_initial):
        with AnalysisServer(ServerConfig(port=0, workers=2)) as srv:
            verdict = _attach_and_stream(srv, xyz_execution, xyz_initial,
                                         XYZ_PROPERTY, program="xyz")
        expected = _standalone_counterexamples(
            xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        assert verdict.violations == len(expected) == 1
        assert verdict.sound
        assert not verdict.ok   # a violation was predicted

    def test_no_spec_session(self, xyz_execution, xyz_initial):
        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            verdict = _attach_and_stream(srv, xyz_execution, xyz_initial,
                                         spec=None)
        assert verdict.state == "finished"
        assert verdict.violations == 0
        assert verdict.ok

    def test_sequential_sessions_get_distinct_ids(self, xyz_execution,
                                                  xyz_initial):
        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            ids = []
            for _ in range(3):
                s = attach(srv.host, srv.port,
                           n_threads=xyz_execution.n_threads,
                           initial=xyz_initial, spec=XYZ_PROPERTY)
                ids.append(s.session_id)
                for m in xyz_execution.messages:
                    s.send(m)
                assert s.close().state == "finished"
        assert ids == [1, 2, 3]


class TestStatus:
    def test_status_reports_session_records(self, xyz_execution, xyz_initial):
        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            _attach_and_stream(srv, xyz_execution, xyz_initial, XYZ_PROPERTY,
                               program="xyz")
            assert srv.wait_idle(timeout=10.0)
            status = fetch_status(srv.host, srv.port)
        assert status["t"] == "status"
        assert status["server"]["active_sessions"] == 0
        assert status["server"]["finished"] == 1
        assert status["server"]["max_sessions"] == srv.config.max_sessions
        (record,) = status["sessions"]
        assert record["program"] == "xyz"
        assert record["state"] == SessionState.FINISHED.value
        assert record["violations"] == 1
        assert record["analyzed"] == len(xyz_execution.messages)
        # one JSON line end to end
        json.dumps(status)

    def test_status_is_one_json_line_on_the_wire(self, xyz_execution,
                                                 xyz_initial):
        import socket

        from repro.server.protocol import Hello, encode_frame

        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.sendall(encode_frame(Hello(mode="status").to_frame()))
                data = b""
                while not data.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
        assert data.count(b"\n") == 1
        assert json.loads(data)["t"] == "status"


class TestAdmissionControl:
    def test_capacity_reject_is_explicit_and_fast(self, xyz_execution,
                                                  xyz_initial):
        with AnalysisServer(ServerConfig(port=0, workers=1,
                                         max_sessions=1)) as srv:
            first = attach(srv.host, srv.port,
                           n_threads=xyz_execution.n_threads,
                           initial=xyz_initial, spec=XYZ_PROPERTY)
            t0 = time.monotonic()
            with pytest.raises(ServerRejected) as exc:
                attach(srv.host, srv.port,
                       n_threads=xyz_execution.n_threads,
                       initial=xyz_initial, spec=XYZ_PROPERTY)
            assert time.monotonic() - t0 < 5.0   # an answer, not a hang
            assert "capacity" in exc.value.reason
            # the admitted session is unaffected
            for m in xyz_execution.messages:
                first.send(m)
            assert first.close().state == "finished"
            # the slot frees once the reader retires the finished session,
            # which races our finack — poll briefly instead of flaking
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    second = attach(srv.host, srv.port,
                                    n_threads=xyz_execution.n_threads,
                                    initial=xyz_initial, spec=XYZ_PROPERTY)
                    break
                except ServerRejected:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)
            for m in xyz_execution.messages:
                second.send(m)
            assert second.close().state == "finished"
            status = fetch_status(srv.host, srv.port)
            # at least the explicit reject above; retries of the second
            # attach may have been counted too
            assert status["server"]["rejected"] >= 1

    def test_concurrent_attaches_never_exceed_max_sessions(self, tmp_path,
                                                           monkeypatch):
        # sessions (and their journals) are built outside the server lock
        # on a reserved slot: a burst of attaches admits exactly
        # max_sessions of them and leaves no reservation behind
        import sys
        import threading

        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        config = ServerConfig(port=0, workers=1, max_sessions=2,
                              checkpoint_dir=str(tmp_path / "ckpt"))
        admitted, rejected = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AnalysisServer(config) as srv:
                start = threading.Barrier(8)

                def client():
                    start.wait(timeout=10.0)
                    try:
                        admitted.append(attach(srv.host, srv.port,
                                               n_threads=2,
                                               initial={"x": 0}))
                    except ServerRejected as exc:
                        rejected.append(exc.reason)

                threads = [threading.Thread(target=client)
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                assert len(admitted) == 2
                assert len(rejected) == 6
                assert all("capacity" in r for r in rejected)
                assert srv._admitting == 0
                assert len(srv._sessions) == 2
                for session in admitted:
                    assert session.close(timeout=10.0).state == "finished"
        finally:
            sys.setswitchinterval(interval)
        assert crashes == []

    def test_bad_spec_rejected_with_reason(self, srv_factory=None):
        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            with pytest.raises(ServerRejected) as exc:
                attach(srv.host, srv.port, n_threads=2, initial={"x": 0},
                       spec="missing > 0")
            assert "missing" in exc.value.reason

    def test_malformed_hello_rejected(self):
        import socket

        from repro.server.protocol import read_frame_line

        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.sendall(b'{"t":"hello","v":999,"mode":"attach"}\n')
                reply = read_frame_line(sock)
        assert reply["t"] == "reject"
        assert "version" in reply["reason"]


class TestBackpressureAndOverload:
    def test_overload_fails_session_explicitly(self, xyz_execution,
                                               xyz_initial):
        # No workers: nothing drains, so a tiny queue must overflow and the
        # server must answer with an err frame -- not stall the client.
        config = ServerConfig(port=0, workers=0, max_queued_events=2,
                              overload_timeout=0.05)
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY,
                             config=RetransmitConfig(window=64))
            with pytest.raises(ReliableTransportError, match="overload"):
                for _ in range(200):
                    for m in xyz_execution.messages:
                        session.send(m)
                session.close(timeout=5.0)
            assert srv.wait_idle(timeout=10.0)
            status = fetch_status(srv.host, srv.port)
        (record,) = status["sessions"]
        assert record["state"] == SessionState.FAILED.value
        assert "overload" in record["error"]

    def test_queue_high_water_is_bounded(self, xyz_execution, xyz_initial):
        config = ServerConfig(port=0, workers=1, max_queued_events=2)
        with AnalysisServer(config) as srv:
            verdict = _attach_and_stream(srv, xyz_execution, xyz_initial,
                                         XYZ_PROPERTY)
            assert verdict.state == "finished"
            assert srv.wait_idle(timeout=10.0)
            (record,) = fetch_status(srv.host, srv.port)["sessions"]
        # DRAINING appends the fin sentinel, so the bound is max_queued + 1
        assert record["queue_high_water"] <= config.max_queued_events + 1


class TestLifecycle:
    def test_dropped_connection_fails_session(self, xyz_execution,
                                              xyz_initial):
        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY)
            session.send(xyz_execution.messages[0])
            session.abort()
            assert srv.wait_idle(timeout=10.0)
            (record,) = fetch_status(srv.host, srv.port)["sessions"]
        assert record["state"] == SessionState.FAILED.value
        assert "connection" in record["error"]

    def test_shutdown_returns_all_records_and_writes_results(
            self, xyz_execution, xyz_initial, tmp_path):
        results = tmp_path / "results.jsonl"
        srv = AnalysisServer(ServerConfig(port=0, workers=2,
                                          results_path=str(results))).start()
        for _ in range(2):
            verdict = _attach_and_stream(srv, xyz_execution, xyz_initial,
                                         XYZ_PROPERTY)
            assert verdict.state == "finished"
        assert srv.wait_idle(timeout=10.0)
        records = srv.shutdown()
        assert [r["state"] for r in records] == ["finished", "finished"]
        lines = [json.loads(l) for l in results.read_text().splitlines()]
        assert [r["session"] for r in lines] == [r["session"] for r in records]

    def test_attach_during_shutdown_rejected(self, xyz_execution,
                                             xyz_initial):
        srv = AnalysisServer(ServerConfig(port=0, workers=1)).start()
        srv.shutdown()
        with pytest.raises((ServerRejected, OSError)):
            attach(srv.host, srv.port, n_threads=xyz_execution.n_threads,
                   initial=xyz_initial, spec=XYZ_PROPERTY)

    def test_on_session_end_callback(self, xyz_execution, xyz_initial):
        seen = []
        config = ServerConfig(port=0, workers=1)
        with AnalysisServer(config, on_session_end=seen.append) as srv:
            _attach_and_stream(srv, xyz_execution, xyz_initial, XYZ_PROPERTY)
            assert srv.wait_idle(timeout=10.0)
        assert len(seen) == 1
        assert seen[0]["state"] == "finished"

    def test_record_history_is_bounded(self, xyz_execution, xyz_initial):
        config = ServerConfig(port=0, workers=1, max_records=2)
        with AnalysisServer(config) as srv:
            for _ in range(4):
                _attach_and_stream(srv, xyz_execution, xyz_initial,
                                   spec=None)
            assert srv.wait_idle(timeout=10.0)
            status = fetch_status(srv.host, srv.port)
        assert [r["session"] for r in status["sessions"]] == [3, 4]


class TestServerConfig:
    @pytest.mark.parametrize("kw", [
        {"max_sessions": 0},
        {"max_queued_events": 0},
        {"workers": -1},
        {"batch": 0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ServerConfig(**kw)

    @pytest.mark.parametrize("knob", ["supervised", "heartbeat_timeout",
                                      "restart_backoff"])
    def test_no_per_session_supervision_knobs(self, knob):
        # process supervision lives in repro.fleet; a daemon journals
        # when it has a checkpoint_dir
        with pytest.raises(TypeError):
            ServerConfig(**{knob: 1})


class TestServerMetrics:
    def test_session_lifecycle_metrics(self, xyz_execution, xyz_initial):
        from repro.obs import metrics

        metrics.enable(reset=True)
        try:
            with AnalysisServer(ServerConfig(port=0, workers=1,
                                             max_sessions=1)) as srv:
                _attach_and_stream(srv, xyz_execution, xyz_initial,
                                   XYZ_PROPERTY)
                with pytest.raises(ServerRejected):
                    # hold the slot open to force a rejection
                    holder = attach(srv.host, srv.port,
                                    n_threads=xyz_execution.n_threads,
                                    initial=xyz_initial, spec=XYZ_PROPERTY)
                    try:
                        attach(srv.host, srv.port,
                               n_threads=xyz_execution.n_threads,
                               initial=xyz_initial, spec=XYZ_PROPERTY)
                    finally:
                        for m in xyz_execution.messages:
                            holder.send(m)
                        holder.close()
                assert srv.wait_idle(timeout=10.0)
                snap = metrics.REGISTRY.snapshot()
        finally:
            metrics.disable()
        assert snap["server.sessions_started"]["value"] == 2
        assert snap["server.sessions_finished"]["value"] == 2
        assert snap["server.sessions_rejected"]["value"] == 1
        assert snap["server.active_sessions"]["value"] == 0
        assert (snap["server.events_ingested"]["value"]
                == 2 * len(xyz_execution.messages))
        # labelled per-session counters exist
        labelled = [n for n in snap
                    if metrics.base_name(n) == "server.session.events"]
        assert len(labelled) == 2


class TestStatusPortIsExplicit:
    def test_fetch_status_requires_a_port(self):
        # port 0 is never routable; the old default silently dialled it
        with pytest.raises(ValueError, match="port"):
            fetch_status()
        with pytest.raises(ValueError, match="port"):
            fetch_status("127.0.0.1", 0)


class TestRejectCategories:
    def test_capacity_reject_carries_a_why_category(self, xyz_execution,
                                                    xyz_initial):
        # routers spill on why == "capacity" and must not have to parse
        # the human-facing reason string
        import socket

        from repro.server.protocol import Hello, encode_frame, \
            read_frame_line

        with AnalysisServer(ServerConfig(port=0, workers=1,
                                         max_sessions=1)) as srv:
            holder = attach(srv.host, srv.port,
                            n_threads=xyz_execution.n_threads,
                            initial=xyz_initial, spec=XYZ_PROPERTY)
            try:
                hello = Hello(mode="attach",
                              n_threads=xyz_execution.n_threads,
                              initial={str(k): v
                                       for k, v in xyz_initial.items()},
                              spec=XYZ_PROPERTY)
                with socket.create_connection((srv.host, srv.port)) as sock:
                    sock.sendall(encode_frame(hello.to_frame()))
                    reply = read_frame_line(sock)
            finally:
                for m in xyz_execution.messages:
                    holder.send(m)
                holder.close()
        assert reply["t"] == "reject"
        assert reply["why"] == "capacity"
        assert "capacity" in reply["reason"]

    def test_bad_hello_reject_category(self):
        import socket

        from repro.server.protocol import read_frame_line

        with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.sendall(b'{"t":"hello","v":999,"mode":"attach"}\n')
                reply = read_frame_line(sock)
        assert reply["t"] == "reject"
        assert reply["why"] == "bad-hello"

    def test_rejects_metric_is_labelled_by_reason(self, xyz_execution,
                                                  xyz_initial):
        from repro.obs import metrics

        metrics.enable()
        metrics.REGISTRY.reset()
        try:
            with AnalysisServer(ServerConfig(port=0, workers=1,
                                             max_sessions=1)) as srv:
                holder = attach(srv.host, srv.port,
                                n_threads=xyz_execution.n_threads,
                                initial=xyz_initial, spec=XYZ_PROPERTY)
                try:
                    with pytest.raises(ServerRejected):
                        attach(srv.host, srv.port,
                               n_threads=xyz_execution.n_threads,
                               initial=xyz_initial, spec=XYZ_PROPERTY)
                finally:
                    for m in xyz_execution.messages:
                        holder.send(m)
                    holder.close()
                assert srv.wait_idle(timeout=10.0)
                snap = metrics.REGISTRY.snapshot()
        finally:
            metrics.disable()
        labelled = {n: v["value"] for n, v in snap.items()
                    if metrics.base_name(n) == "server.rejects"}
        assert sum(labelled.values()) >= 1
        assert any("reason=capacity" in n for n in labelled)


class TestFinishedConnection:
    def test_open_socket_after_the_verdict_holds_no_analyzer_or_slot(self):
        # the session is retired once its result and finack are sent: a
        # client that keeps the socket open afterwards pins neither the
        # observer nor a max_sessions slot
        import socket

        from repro.server.protocol import Hello, encode_frame, \
            read_frame_line

        with AnalysisServer(ServerConfig(port=0, workers=1,
                                         max_sessions=1)) as srv:
            hello = Hello(mode="attach", n_threads=2, initial={"x": 0})
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.settimeout(10.0)
                sock.sendall(encode_frame(hello.to_frame()))
                ack = read_frame_line(sock)
                live = srv._sessions[ack["session"]]
                sock.sendall(b'{"t":"fin","count":0}\n')
                assert read_frame_line(sock)["t"] == "result"
                assert read_frame_line(sock)["t"] == "finack"
                assert srv.wait_idle(timeout=10.0)
                assert live.observer is None
                second = attach(srv.host, srv.port, n_threads=2,
                                initial={"x": 0})
                assert second.close(timeout=10.0).state == "finished"


class TestMalformedFin:
    @pytest.mark.parametrize("count", ['"3"', "true", "-1", "null", "2.0"])
    def test_bad_fin_count_is_a_corrupt_frame_not_a_crash(self, count,
                                                          monkeypatch):
        # a fin whose count is not a non-negative int used to raise a
        # TypeError out of the reader thread: traceback, no err frame
        import socket
        import threading

        from repro.server.protocol import Hello, encode_frame, \
            read_frame_line

        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        records = []
        with AnalysisServer(ServerConfig(port=0, workers=1),
                            on_session_end=records.append) as srv:
            hello = Hello(mode="attach", n_threads=2, initial={"x": 0})
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.settimeout(10.0)
                sock.sendall(encode_frame(hello.to_frame()))
                assert read_frame_line(sock)["t"] == "helloack"
                sock.sendall(b'{"t":"fin","count":' + count.encode()
                             + b'}\n')
                # the bad fin was dropped; a well-formed one still ends
                # the stream with a verdict
                sock.sendall(b'{"t":"fin","count":0}\n')
                reply = read_frame_line(sock)
            assert srv.wait_idle(timeout=10.0)
        assert crashes == []
        assert reply["t"] == "result"
        assert reply["state"] == "finished"
        assert reply["analyzed"] == 0
        assert [r["state"] for r in records] == ["finished"]
