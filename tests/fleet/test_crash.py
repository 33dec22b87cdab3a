"""Journaled sessions on a fleet of one: parity, promotion, SIGKILL, crash loop.

``FleetConfig(shards=1, checkpoint_dir=...)`` is the supervised single
daemon: the session journals its analyzed prefix inside the daemon, and
the shard supervisor respawns a dead daemon with ``recover=True``.  The
crash model must (a) be invisible when nothing crashes — verdict parity
with a standalone observer, and the journal promoted into the archive —
(b) survive a SIGKILL of the daemon mid-stream with the same verdict,
and (c) give up on a crash loop with a reasoned error instead of hanging
the client.
"""

import dataclasses
import os
import time

import pytest

from repro.fleet import AnalysisFleet, FleetConfig
from repro.observer import Observer
from repro.observer.reliable import ReliableTransportError, RetransmitConfig
from repro.server import ReconnectPolicy, ServerConfig, attach
from repro.store.format import read_trace_prefix
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


def _config(tmp_path, **kw):
    kw.setdefault("shards", 1)
    kw.setdefault("workers", 1)
    kw.setdefault("checkpoint_dir", str(tmp_path / "ckpt"))
    kw.setdefault("checkpoint_every", 2)
    kw.setdefault("resume_timeout", 15.0)
    kw.setdefault("drain_timeout", 60.0)
    kw.setdefault("heartbeat_interval", 0.1)
    kw.setdefault("heartbeat_timeout", 1.0)
    kw.setdefault("restart_backoff", 0.05)
    kw.setdefault("restart_backoff_cap", 0.2)
    return FleetConfig(**kw)


def _attach(fleet, execution, initial):
    return attach(fleet.host, fleet.port, n_threads=execution.n_threads,
                  initial=initial, spec=XYZ_PROPERTY, program="xyz",
                  config=RetransmitConfig(window=64),
                  reconnect=ReconnectPolicy(max_attempts=10, backoff=0.1))


def _wait_generation(fleet, generation, timeout=20.0):
    deadline = time.monotonic() + timeout
    while True:
        addr = fleet.supervisor.address(0)
        if addr is not None and addr[2] >= generation:
            return
        assert time.monotonic() < deadline, (
            f"shard never came back as generation {generation}")
        time.sleep(0.05)


def _die_now(*_args, **_kwargs):
    os._exit(70)


class _DiesDuringReplay(ServerConfig):
    """A shard config whose daemon process dies inside any journal replay,
    standing in for an OOM kill while a large lattice is rebuilt.  The
    fault is installed when the shard process unpickles its config."""

    def __setstate__(self, state):
        from repro.observer.observer import Observer as ShardObserver

        ShardObserver.rebuild = _die_now
        self.__dict__.update(state)


def _wait_durable(ckpt_dir, timeout=20.0):
    """Block until some session journal under *ckpt_dir* holds a durable
    (flushed) non-empty prefix."""
    deadline = time.monotonic() + timeout
    while True:
        for path in ckpt_dir.glob("*/*/events.rpt"):
            try:
                if read_trace_prefix(path).messages:
                    return
            except Exception:  # noqa: BLE001 - torn while being written
                pass
        assert time.monotonic() < deadline, "nothing was journaled"
        time.sleep(0.05)


class TestJournaledParity:
    def test_clean_run_matches_standalone(self, tmp_path, xyz_execution,
                                          xyz_initial):
        with AnalysisFleet(_config(tmp_path)) as fleet:
            session = _attach(fleet, xyz_execution, xyz_initial)
            for m in xyz_execution.messages:
                session.send(m)
            verdict = session.close(timeout=60.0)
            [record] = fleet.status()["sessions"]

        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        assert verdict.sound
        assert verdict.final_clocks
        assert record["state"] == "finished"
        assert session.reconnects == 0
        # terminal sessions clean their journals up
        assert list((tmp_path / "ckpt" / "shard-00").iterdir()) == []

    def test_journal_archive_promotion(self, tmp_path, xyz_execution,
                                       xyz_initial):
        from repro.store import TraceArchive

        config = _config(tmp_path, archive_dir=str(tmp_path / "arch"))
        with AnalysisFleet(config) as fleet:
            session = _attach(fleet, xyz_execution, xyz_initial)
            for m in xyz_execution.messages:
                session.send(m)
            session.close(timeout=60.0)
        [entry] = TraceArchive(tmp_path / "arch" / "shard-00").entries()
        assert entry.id.startswith("sh00-")
        assert entry.program == "xyz"
        assert entry.verdict == "violation"
        assert entry.events == len(xyz_execution.messages)


class TestDaemonCrash:
    def test_sigkill_mid_stream_recovers_with_parity(self, tmp_path,
                                                     xyz_execution,
                                                     xyz_initial):
        with AnalysisFleet(_config(tmp_path)) as fleet:
            session = _attach(fleet, xyz_execution, xyz_initial)
            half = len(xyz_execution.messages) // 2
            for m in xyz_execution.messages[:half]:
                session.send(m)
            assert fleet.supervisor.kill_shard(0) is not None
            for m in xyz_execution.messages[half:]:
                session.send(m)
            verdict = session.close(timeout=60.0)
            router = fleet.status()["fleet"]["router"]

        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        assert session.reconnects >= 1
        assert router["shard_restarts"] >= 1

    def test_crash_loop_fails_with_reason_not_hang(self, tmp_path,
                                                   xyz_execution,
                                                   xyz_initial):
        # the shard budget outlasts the per-session recovery budget
        # (ServerConfig.max_restarts, default 3): the fourth recovery
        # fails the journal with a reason and the daemon boots clean
        config = _config(tmp_path, max_shard_restarts=10)
        with AnalysisFleet(config) as fleet:
            session = _attach(fleet, xyz_execution, xyz_initial)
            session.send(xyz_execution.messages[0])
            for generation in range(2, 6):
                assert fleet.supervisor.kill_shard(0) is not None
                _wait_generation(fleet, generation)
            [record] = fleet.status()["sessions"]
            assert record["state"] == "failed"
            assert "crash loop" in record["error"]
            assert "recovery budget" in record["error"]
            # the client is told, not left hanging
            started = time.monotonic()
            with pytest.raises((ReliableTransportError, OSError)) as exc:
                for m in xyz_execution.messages[1:]:
                    session.send(m)
                session.close(timeout=30.0)
            assert time.monotonic() - started < 30.0
            assert "recovery budget" in str(exc.value.__cause__)

    def test_replay_that_kills_the_daemon_ends_in_a_reasoned_failure(
            self, tmp_path, xyz_execution, xyz_initial, monkeypatch):
        # every recovery replay kills the respawned daemon; the journal's
        # persisted recovery count must still reach its budget, after
        # which the daemon boots without replaying and the slot is up
        real = FleetConfig.shard_config

        def shard_config(self, index, recover=False):
            config = real(self, index, recover=recover)
            if not recover:
                return config
            return _DiesDuringReplay(**{
                f.name: getattr(config, f.name)
                for f in dataclasses.fields(config)})

        monkeypatch.setattr(FleetConfig, "shard_config", shard_config)
        config = _config(tmp_path, max_shard_restarts=10)
        with AnalysisFleet(config) as fleet:
            session = _attach(fleet, xyz_execution, xyz_initial)
            for m in xyz_execution.messages[:6]:
                session.send(m)
            _wait_durable(tmp_path / "ckpt")
            assert fleet.supervisor.kill_shard(0) is not None
            deadline = time.monotonic() + 60.0
            while True:
                records = fleet.status()["sessions"]
                [row] = fleet.supervisor.snapshot()
                if (row["state"] == "up" and records
                        and records[0]["state"] == "failed"):
                    break
                assert time.monotonic() < deadline, (row, records)
                time.sleep(0.1)
            session.abort()
        [record] = records
        assert "crash loop" in record["error"]
        assert "recovery budget (max_restarts=3)" in record["error"]
        # a restart after the SIGKILL and after each of the three replays
        # that died; the fourth recovery fails the journal instead
        assert row["restarts"] == 4
        assert row["generation"] == 5

    def test_failed_respawn_is_retried(self, tmp_path, monkeypatch):
        # a replacement that dies before reporting ready is one more
        # restart, retried after the backoff: the slot is not lost
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        real = FleetConfig.shard_config
        recoveries = []

        def shard_config(self, index, recover=False):
            config = real(self, index, recover=recover)
            if recover:
                recoveries.append(index)
                if len(recoveries) == 1:
                    return dataclasses.replace(config,
                                               archive_dir=str(blocker))
            return config

        monkeypatch.setattr(FleetConfig, "shard_config", shard_config)
        with AnalysisFleet(_config(tmp_path)) as fleet:
            assert fleet.supervisor.kill_shard(0) is not None
            _wait_generation(fleet, 3)
            [row] = fleet.supervisor.snapshot()
        assert row["state"] == "up"
        assert row["restarts"] == 2
        assert len(recoveries) == 2
