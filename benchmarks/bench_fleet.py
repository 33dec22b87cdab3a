"""Fleet scaling: N shard daemons behind one router vs one daemon.

The deployment question ``repro.fleet`` answers: once a single daemon's
worker pool saturates a core, does adding shard *processes* behind the
router buy session throughput roughly linearly?  Both sides of the
comparison run in-process here — same machine, same workload (the
paper's xyz program through the full predictive pipeline), same client
count — so the ratio isolates the router + sharding layer.

Quick mode (``--quick``, the CI perf-smoke and the committed
``BENCH_fleet.json``) runs 12 clients over 2 shards; the full
configuration runs 100 clients over 4 shards.  The >= 2.5x scaling
floor from the issue is only asserted in the full configuration on a
machine with at least 4 cores — on fewer cores there is no parallelism
for the shards to harvest and the ratio measures scheduler noise.
"""

import os
import threading
import time

from conftest import table

from repro.fleet import AnalysisFleet, FleetConfig
from repro.sched import FixedScheduler, run_program
from repro.server import AnalysisServer, ServerConfig, attach
from repro.workloads import XYZ_OBSERVED_SCHEDULE, XYZ_PROPERTY, xyz_program


def _xyz_run():
    execution = run_program(xyz_program(),
                            FixedScheduler(XYZ_OBSERVED_SCHEDULE))
    initial = {v: execution.initial_store[v] for v in ("x", "y", "z")}
    return execution, initial


def _client_batch(host, port, execution, initial, n_clients):
    """n_clients concurrent attach→stream→verdict round-trips; returns
    the batch's wall-clock seconds."""
    verdicts = [None] * n_clients

    def client(i):
        session = attach(host, port, n_threads=execution.n_threads,
                         initial=initial, spec=XYZ_PROPERTY, program="xyz")
        for m in execution.messages:
            session.send(m)
        verdicts[i] = session.close()

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert all(v is not None and v.state == "finished" for v in verdicts)
    return elapsed


def test_fleet_scaling_benchmark(benchmark, quick):
    execution, initial = _xyz_run()
    n_clients = 12 if quick else 100
    shards = 2 if quick else 4
    per_shard = max(4, (n_clients + shards - 1) // shards)

    # reference: ONE daemon with one shard's worth of workers, so the
    # ratio reports what the extra shard processes buy
    with AnalysisServer(ServerConfig(port=0, workers=2,
                                     max_sessions=n_clients)) as srv:
        single_s = _client_batch(srv.host, srv.port, execution, initial,
                                 n_clients)

    config = FleetConfig(shards=shards, workers=2, max_sessions=per_shard)
    with AnalysisFleet(config) as fleet:
        timings = []

        def fleet_batch():
            timings.append(_client_batch(fleet.host, fleet.port, execution,
                                         initial, n_clients))
            return n_clients

        benchmark(fleet_batch)
        status = fleet.status()

    fleet_s = min(timings)
    speedup = single_s / fleet_s
    mode = "quick" if quick else "full"
    table(f"fleet scaling ({mode}: {n_clients} concurrent clients)",
          ["mode", "cores", "clients", "shards", "single-daemon s",
           "fleet s", "speedup", "spills"],
          [(mode, os.cpu_count(), n_clients, shards, f"{single_s:.3f}",
            f"{fleet_s:.3f}", f"{speedup:.2f}x",
            status["fleet"]["router"]["spills"])])
    assert status["fleet"]["router"]["routed_sessions"] >= n_clients
    # scaling floor: only meaningful with real cores to spread over
    if not quick and (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.5, (
            f"4-shard fleet only {speedup:.2f}x a single daemon at "
            f"{n_clients} clients")


def test_fleet_shard_kill_zero_session_loss(tmp_path):
    """Kill a shard mid-stream under load: every session still finishes
    (the crash is absorbed by shard respawn, journal recovery and client
    re-attach)."""
    from repro.fleet import shard_of_session
    from repro.observer.reliable import RetransmitConfig
    from repro.server import ReconnectPolicy

    execution, initial = _xyz_run()
    n_clients = 4
    config = FleetConfig(
        shards=2, workers=1,
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=2,
        resume_timeout=15.0, heartbeat_interval=0.1, heartbeat_timeout=1.0,
        restart_backoff=0.05, restart_backoff_cap=0.2)
    with AnalysisFleet(config) as fleet:
        verdicts = [None] * n_clients
        barrier = threading.Barrier(n_clients + 1)

        def client(i):
            session = attach(
                fleet.host, fleet.port, n_threads=execution.n_threads,
                initial=initial, spec=XYZ_PROPERTY, fault_tolerant=True,
                config=RetransmitConfig(window=64),
                reconnect=ReconnectPolicy(max_attempts=10, backoff=0.1))
            half = len(execution.messages) // 2
            for m in execution.messages[:half]:
                session.send(m)
            barrier.wait(timeout=30.0)   # everyone mid-stream
            barrier.wait(timeout=30.0)   # shard killed
            for m in execution.messages[half:]:
                session.send(m)
            verdicts[i] = (shard_of_session(session.session_id),
                           session.close(timeout=60.0))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        barrier.wait(timeout=30.0)
        assert fleet.supervisor.kill_shard(0) is not None
        barrier.wait(timeout=30.0)
        for t in threads:
            t.join()
        status = fleet.status()

    finished = sum(1 for v in verdicts if v and v[1].state == "finished")
    on_killed = sum(1 for v in verdicts if v and v[0] == 0)
    table("fleet shard-kill survival (SIGKILL shard 0 mid-stream)",
          ["cores", "clients", "on killed shard", "finished", "lost",
           "shard restarts"],
          [(os.cpu_count(), n_clients, on_killed, finished,
            n_clients - finished,
            status["fleet"]["router"]["shard_restarts"])])
    assert finished == n_clients, "a session was lost to the shard kill"
    assert status["fleet"]["router"]["shard_restarts"] >= 1
    for v in verdicts:
        assert v[1].analyzed == len(execution.messages)
