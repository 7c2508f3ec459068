"""Datacenter grouping and request routing (Figure 4).

A :class:`Datacenter` bundles the engines it hosts with its cache replica;
:class:`ScaliaCluster` wires multiple datacenters over one shared metadata
cluster, provider registry and statistics pipeline, and routes client
requests to engines round-robin — "a client can send requests indifferently
to each datacenter" (Section III).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.cluster.cache import CacheLayer
from repro.cluster.clock import Clock
from repro.cluster.engine import Engine, PendingDeleteQueue, Planner
from repro.cluster.leader import HeartbeatElection
from repro.cluster.locks import LockManager
from repro.cluster.metadata import MetadataCluster
from repro.cluster.statistics import LogAgent, LogAggregator, StatsDatabase
from repro.erasure.rs import CodeCache
from repro.providers.health import HedgePolicy
from repro.providers.registry import ProviderRegistry
from repro.util.ids import IdGenerator


class Datacenter:
    """Engines plus the local cache of one datacenter."""

    def __init__(self, name: str, engines: List[Engine]) -> None:
        if not engines:
            raise ValueError(f"datacenter {name!r} needs at least one engine")
        self.name = name
        self.engines = engines
        # itertools.cycle advances atomically under the GIL (next() on a C
        # iterator never interleaves), so concurrent routers share the
        # cursor without a lock — the round-robin state the old global
        # lock used to guard is thread-safe by construction now.
        self._rr = itertools.cycle(range(len(engines)))

    def next_engine(self) -> Engine:
        """Round-robin engine pick within the datacenter."""
        return self.engines[next(self._rr)]


class ScaliaCluster:
    """The full multi-datacenter brokerage stack, minus the decision logic.

    The *planner* (core placement/classification) is injected so the cluster
    substrate stays independent of the optimization code; the broker facade
    in :mod:`repro.core.broker` builds both and snaps them together.
    """

    def __init__(
        self,
        *,
        registry: ProviderRegistry,
        planner: Planner,
        datacenters: int = 1,
        engines_per_dc: int = 2,
        cache_capacity_bytes: int = 0,
        seed: int = 0,
        id_epoch: int = 0,
        stats: Optional[StatsDatabase] = None,
        hedge: Optional[HedgePolicy] = None,
        metrics=None,
        journal=None,
    ) -> None:
        if datacenters < 1 or engines_per_dc < 1:
            raise ValueError("need at least one datacenter and one engine")
        dc_names = [f"dc{i + 1}" for i in range(datacenters)]
        self.registry = registry
        self.metadata = MetadataCluster(dc_names)
        self.cache: Optional[CacheLayer] = (
            CacheLayer(dc_names, cache_capacity_bytes) if cache_capacity_bytes > 0 else None
        )
        self.stats = stats if stats is not None else StatsDatabase()
        self.aggregator = LogAggregator(self.stats)
        self.election = HeartbeatElection(lease=1.0)
        self.pending_deletes = PendingDeleteQueue()
        self.ids = IdGenerator(seed=seed, epoch=id_epoch)
        # One lock manager for the whole cluster: engines share the
        # metadata store and providers, so they must share the striped
        # object/container locks (and the in-flight write registry the
        # scrubber's orphan sweep consults) too.
        self.locks = LockManager(metrics=metrics)
        # One simulated clock, for the same reason: the broker's tick
        # advances it and every engine reads it.
        self.clock = Clock()
        # One hedge policy cluster-wide: every engine reads with the same
        # degraded-mode behaviour (and the gateway reports one config).
        self.hedge = hedge if hedge is not None else HedgePolicy()
        code_cache = CodeCache()

        self.datacenters: Dict[str, Datacenter] = {}
        for dc in dc_names:
            engines = []
            for j in range(engines_per_dc):
                engine_id = f"{dc}-engine{j + 1}"
                engine = Engine(
                    engine_id,
                    dc,
                    registry=registry,
                    metadata=self.metadata,
                    cache=self.cache,
                    log_agent=LogAgent(self.aggregator),
                    planner=planner,
                    ids=self.ids,
                    pending_deletes=self.pending_deletes,
                    code_cache=code_cache,
                    locks=self.locks,
                    clock=self.clock,
                    hedge=self.hedge,
                    metrics=metrics,
                    journal=journal,
                )
                engines.append(engine)
                self.election.register(engine_id)
            self.datacenters[dc] = Datacenter(dc, engines)
        # Shares the GIL-atomicity argument of Datacenter._rr.
        self._dc_rr = itertools.cycle(sorted(self.datacenters))

    # -- routing -----------------------------------------------------------

    def route(self, dc: Optional[str] = None) -> Engine:
        """Pick an engine: in ``dc`` when given, else round-robin over DCs."""
        if dc is not None:
            return self.datacenters[dc].next_engine()
        return self.datacenters[next(self._dc_rr)].next_engine()

    def all_engines(self) -> List[Engine]:
        """Every engine across datacenters, id-sorted (Figure 7's set E)."""
        engines = [e for dc in self.datacenters.values() for e in dc.engines]
        return sorted(engines, key=lambda e: e.engine_id)

    # -- shared upkeep ------------------------------------------------------

    def heartbeat_all(self, now: float) -> None:
        """Every live engine heartbeats the election."""
        for engine in self.all_engines():
            self.election.heartbeat(engine.engine_id, now)

    def leader_engine(self, now: float) -> Optional[Engine]:
        """The engine currently holding optimization leadership."""
        leader_id = self.election.leader(now)
        if leader_id is None:
            return None
        for engine in self.all_engines():
            if engine.engine_id == leader_id:
                return engine
        return None

    def flush_logs(self) -> None:
        """Ship all buffered statistics to the database."""
        for engine in self.all_engines():
            engine._log.flush()  # noqa: SLF001 — cluster owns its engines
