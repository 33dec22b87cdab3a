"""Shard failover: SIGKILL the owning shard mid-stream, lose nothing.

The chain under test: supervisor notices the dead process, respawns the
slot with ``recover=True`` (same checkpoint directory, generation + 1);
the broken splice kicks the client off; its :class:`ReconnectPolicy`
re-dials the *router*, whose session-id stride lands the resume on the
reborn shard; journal recovery plus idempotent resend close the gap.
The verdict must equal a fault-free run's — zero session loss.
"""

import time

import pytest

from repro.fleet import AnalysisFleet, FleetConfig, shard_of_session
from repro.observer.reliable import RetransmitConfig
from repro.server import ReconnectPolicy, attach
from repro.workloads import XYZ_PROPERTY, XYZ_VARS


@pytest.fixture
def xyz_initial(xyz_execution):
    return {v: xyz_execution.initial_store[v] for v in XYZ_VARS}


def _fleet_config(tmp_path) -> FleetConfig:
    return FleetConfig(
        shards=2, workers=1,
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=2,
        resume_timeout=15.0,
        heartbeat_interval=0.1, heartbeat_timeout=1.0,
        restart_backoff=0.05, restart_backoff_cap=0.2)


def _run(fleet, execution, initial, kill=False):
    session = attach(
        fleet.host, fleet.port, n_threads=execution.n_threads,
        initial=initial, spec=XYZ_PROPERTY, fault_tolerant=True,
        config=RetransmitConfig(window=64),
        reconnect=ReconnectPolicy(max_attempts=10, backoff=0.1))
    messages = list(execution.messages)
    half = len(messages) // 2
    for m in messages[:half]:
        session.send(m)
    if kill:
        slot = shard_of_session(session.session_id)
        assert fleet.supervisor.kill_shard(slot) is not None
    for m in messages[half:]:
        session.send(m)
    verdict = session.close(timeout=60.0)
    return session, verdict


class TestShardFailover:
    def test_sigkill_mid_stream_preserves_the_verdict(
            self, xyz_execution, xyz_initial, tmp_path):
        with AnalysisFleet(_fleet_config(tmp_path / "a")) as fleet:
            _, control = _run(fleet, xyz_execution, xyz_initial, kill=False)
        assert control.state == "finished"

        with AnalysisFleet(_fleet_config(tmp_path / "b")) as fleet:
            session, verdict = _run(fleet, xyz_execution, xyz_initial,
                                    kill=True)
            slot = shard_of_session(session.session_id)
            status = fleet.status()

        assert verdict.state == "finished"
        assert verdict.analyzed == control.analyzed \
            == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == \
            sorted(control.counterexamples)
        assert session.reconnects >= 1

        router = status["fleet"]["router"]
        assert router["shard_restarts"] >= 1
        assert router["rebalanced_sessions"] >= 1
        (row,) = [r for r in status["fleet"]["shards"]
                  if r["shard"] == slot]
        assert row["state"] == "up"
        assert row["generation"] >= 2
        assert row["restarts"] >= 1

    def test_sibling_shard_untouched_by_the_kill(
            self, xyz_execution, xyz_initial, tmp_path):
        # sessions on the surviving shard never notice the crash: no
        # reconnects, same verdict, generation still 1
        with AnalysisFleet(_fleet_config(tmp_path)) as fleet:
            first = attach(
                fleet.host, fleet.port, n_threads=xyz_execution.n_threads,
                initial=xyz_initial, spec=XYZ_PROPERTY, fault_tolerant=True,
                reconnect=ReconnectPolicy(max_attempts=10, backoff=0.1))
            victim_slot = 1 - shard_of_session(first.session_id)
            assert fleet.supervisor.kill_shard(victim_slot) is not None
            for m in xyz_execution.messages:
                first.send(m)
            verdict = first.close(timeout=60.0)
            assert verdict.state == "finished"
            assert first.reconnects == 0

            # wait for the victim slot to come back before shutdown so
            # the fleet drains cleanly (the session above can finish
            # before the monitor has even noticed the kill)
            deadline = time.monotonic() + 15.0
            while (fleet.supervisor.address(victim_slot) or
                   (0, 0, 1))[2] < 2:
                assert time.monotonic() < deadline, "victim never respawned"
                time.sleep(0.05)
            (row,) = [r for r in fleet.status()["fleet"]["shards"]
                      if r["shard"] == victim_slot]
            assert row["generation"] >= 2
