"""Deployment knobs for the sharded analysis fleet.

A :class:`FleetConfig` describes the whole deployment — how many shard
daemons to run, the per-shard :class:`~repro.server.daemon.ServerConfig`
knobs the fleet passes through, and the router/supervisor behavior on
top.  :meth:`FleetConfig.shard_config` derives each shard's server
config, giving every shard a disjoint session-id stride and (when an
archive root is set) its own archive directory under a shared catalog
namespace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..server.daemon import ServerConfig

__all__ = ["FleetConfig", "SESSION_STRIDE", "shard_of_session"]

#: Size of each shard's session-id block.  Shard *i* mints ids in
#: ``[i*STRIDE + 1, (i+1)*STRIDE]``, so a resume hello's session id alone
#: identifies the owning shard — the router needs no routing table and
#: resume routing survives router restarts.
SESSION_STRIDE = 1 << 20


def shard_of_session(session_id: int) -> int:
    """The shard slot that minted *session_id* (see :data:`SESSION_STRIDE`)."""
    return (session_id - 1) // SESSION_STRIDE


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for :class:`~repro.fleet.router.AnalysisFleet`.

    Attributes:
        host/port: the router's listen address (port 0 = ephemeral).
        shards: number of shard daemons to spawn.
        vnodes: virtual nodes per shard on the placement hash ring.
        max_sessions / max_queued_events / workers / batch /
        overload_timeout / drain_timeout / io_timeout / results_path:
            per-shard :class:`ServerConfig` pass-throughs (``max_sessions``
            is *per shard*; the fleet admits up to ``shards *
            max_sessions`` concurrent sessions).
        archive_dir: fleet archive root; each shard records under
            ``<archive_dir>/shard-NN`` with trace ids namespaced
            ``shNN-…`` so the per-shard catalogs share one id space.
        checkpoint_dir / checkpoint_every: crash resilience
            pass-throughs.  With ``checkpoint_dir`` every shard journals
            its sessions under ``<checkpoint_dir>/shard-NN`` and a
            respawned shard recovers them, so sessions survive
            whole-shard kills.
        resume_timeout: per-shard resume window.  Defaults to 30s —
            unlike a lone daemon, a fleet exists to survive shard
            restarts, which only works when clients can re-attach.
        default_engines / strict_specs: analysis pass-throughs.
        heartbeat_interval / heartbeat_timeout: shard supervisor probe
            cadence and silence threshold.
        max_shard_restarts: restart budget per shard slot; an exhausted
            budget marks the slot down and the router routes around it.
        restart_backoff / restart_backoff_cap: capped exponential delay
            between restarts of one slot.
        spawn_timeout: how long to wait for a spawned shard to report
            ready before declaring the boot failed.
        status_ttl: router-side cache lifetime for shard status probes
            (admission decisions tolerate this much staleness).
        resume_wait: how long the router holds a resume handshake for a
            shard slot that is mid-restart before rejecting it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    vnodes: int = 64
    max_sessions: int = 16
    max_queued_events: int = 1024
    workers: int = 2
    batch: int = 64
    overload_timeout: float = 2.0
    drain_timeout: float = 30.0
    io_timeout: float = 60.0
    results_path: Optional[str] = None
    archive_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 128
    resume_timeout: float = 30.0
    default_engines: tuple[str, ...] = ()
    strict_specs: bool = False
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 2.0
    max_shard_restarts: int = 5
    restart_backoff: float = 0.2
    restart_backoff_cap: float = 2.0
    spawn_timeout: float = 30.0
    status_ttl: float = 0.25
    resume_wait: float = 10.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat intervals must be > 0")
        if self.max_shard_restarts < 0:
            raise ValueError("max_shard_restarts must be >= 0")
        if self.spawn_timeout <= 0:
            raise ValueError("spawn_timeout must be > 0")
        if self.resume_wait < 0:
            raise ValueError("resume_wait must be >= 0")

    def shard_config(self, index: int, recover: bool = False) -> ServerConfig:
        """The :class:`ServerConfig` for shard slot *index*.

        ``recover=True`` is used on restart-after-crash: a shard with a
        checkpoint directory rescans its journals and readmits every
        session as detached, awaiting the client's resume through the
        router.
        """
        if not 0 <= index < self.shards:
            raise ValueError(f"shard index {index} out of range "
                             f"[0, {self.shards})")
        archive_dir = None
        if self.archive_dir is not None:
            archive_dir = os.path.join(self.archive_dir, f"shard-{index:02d}")
        checkpoint_dir = None
        if self.checkpoint_dir is not None:
            checkpoint_dir = os.path.join(self.checkpoint_dir,
                                          f"shard-{index:02d}")
        return ServerConfig(
            host="127.0.0.1",     # shards are local; the router is the
            port=0,               # fleet's only public address
            max_sessions=self.max_sessions,
            max_queued_events=self.max_queued_events,
            workers=self.workers,
            batch=self.batch,
            overload_timeout=self.overload_timeout,
            drain_timeout=self.drain_timeout,
            io_timeout=self.io_timeout,
            results_path=self.results_path,
            archive_dir=archive_dir,
            archive_namespace=f"sh{index:02d}" if archive_dir else "",
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            resume_timeout=self.resume_timeout,
            recover=recover and checkpoint_dir is not None,
            default_engines=self.default_engines,
            strict_specs=self.strict_specs,
            session_id_base=index * SESSION_STRIDE + 1,
        )
