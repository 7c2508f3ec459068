"""The Scalia broker facade: the paper's whole system behind one object.

``Scalia`` wires the provider registry, the multi-datacenter cluster
substrate (engines, MVCC metadata, caches, statistics pipeline, leader
election) and the core decision logic (rules, Algorithm-1 placement, cost
model, object classes, trend detection, adaptive decision periods, periodic
optimization) into the S3-like interface of Section III:

    broker = Scalia()
    broker.put("pictures", "myvacation.gif", data, mime="image/gif")
    data = broker.get("pictures", "myvacation.gif")
    broker.tick()          # advance one sampling period

Simulated time advances through :meth:`Scalia.tick`, which closes the
sampling period: statistics are flushed and folded, class profiles refresh,
the periodic optimization runs, postponed deletes retry and the provider
meters roll over.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.datacenter import ScaliaCluster
from repro.cluster.engine import DEFAULT_STRIPE_SIZE, PlacementError, ReadPlan, Validator
from repro.cluster.errors import ObjectNotFoundError
from repro.cluster.hedging import HedgeStats
from repro.providers.health import HedgePolicy
from repro.cluster.multipart import MultipartState, PartState
from repro.core.classifier import ClassStatistics, object_class
from repro.core.costmodel import AccessProjection, CostModel
from repro.core.decision import DecisionPeriodController
from repro.core.optimizer import OptimizationReport, PeriodicOptimizer
from repro.core.placement import PlacementEngine
from repro.core.rules import RuleBook
from repro.cluster.statistics import StatsDatabase
from repro.cluster.writepath import Stager
from repro.obs.events import EventJournal, resolve_journal
from repro.obs.history import MetricsHistory
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import DEFAULT_SLO_RULES, SloMonitor, SloRule
from repro.providers.pricing import cost_of_usage, paper_catalog
from repro.providers.registry import ProviderRegistry
from repro.storage.persistence import DurabilityManager
from repro.storage.auditor import AuditReport, Auditor
from repro.storage.scrubber import ScrubReport, Scrubber
from repro.types import ListPage, ObjectMeta, Placement
from repro.util.ids import object_row_key

#: Periods a new object's placement is priced over when its class has no
#: lifetime estimate yet.
DEFAULT_HORIZON_PERIODS = 24


class CorePlanner:
    """Implements the engine's Planner protocol with the core logic.

    New objects (no access history) are placed from their class statistics
    — "thanks to the statistics collected for each class of objects, the
    probability that the first placement is already optimal increases"
    (Section III-A2) — while objects with history are placed from their
    recent access pattern over the adaptive decision period.
    """

    def __init__(
        self,
        *,
        registry: ProviderRegistry,
        rules: RuleBook,
        stats: StatsDatabase,
        class_stats: ClassStatistics,
        placement_engine: PlacementEngine,
        cost_model: CostModel,
        decision: DecisionPeriodController,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.registry = registry
        self.rules = rules
        self.stats = stats
        self.class_stats = class_stats
        self.placement_engine = placement_engine
        self.cost_model = cost_model
        self.decision = decision
        self.journal = resolve_journal(journal)

    # -- Planner protocol -------------------------------------------------

    def classify(self, size: int, mime: str) -> str:
        return object_class(mime, size)

    def rule_for(self, rule_name: Optional[str], class_key: str) -> str:
        return self.rules.resolve_name(rule_name=rule_name, class_key=class_key)

    def place(
        self,
        *,
        container: str,
        key: str,
        size: int,
        mime: str,
        rule_name: Optional[str],
        period: int,
        exclude: frozenset[str],
    ) -> Placement:
        row_key = object_row_key(container, key)
        class_key = self.classify(size, mime)
        rule = self.rules.resolve(
            rule_name=rule_name, class_key=class_key, object_key=row_key
        )
        projection, horizon = self._projection_for(row_key, class_key, size, period)
        # Health-gated placement: providers whose circuit breaker is not
        # closed are dropped first, so new objects avoid providers that
        # are up but demonstrably misbehaving.  When the healthy pool
        # alone cannot satisfy the rule, fall back to every available
        # provider — a degraded placement beats a failed write.
        specs = self.registry.specs(include_failed=False, include_sick=False)
        try:
            decision, runners = self._decide(specs, rule, projection, horizon, exclude)
        except PlacementError:
            all_specs = self.registry.specs(include_failed=False)
            if len(all_specs) == len(specs):
                raise
            decision, runners = self._decide(
                all_specs, rule, projection, horizon, exclude
            )
        self._emit_chosen(
            container, key, rule, decision, runners, projection, horizon
        )
        return decision.placement

    def _decide(self, specs, rule, projection, horizon, exclude):
        """Best placement plus, when the journal is live, the runners-up.

        Either way it is one pricing pass over the engine's table; the
        runners-up are sorted out of it only when somebody will actually
        read the rationale.
        """
        if not self.journal.enabled:
            best = self.placement_engine.best_placement(
                specs, rule, projection, horizon, exclude=exclude
            )
            return best, []
        ranked = self.placement_engine.ranked(
            specs, rule, projection, horizon, exclude=exclude, limit=4
        )
        if not ranked:
            raise PlacementError(
                f"no feasible placement for rule {rule.name!r} "
                f"over {len(specs)} providers (excluded: {sorted(exclude)})"
            )
        return ranked[0], ranked[1:]

    def _emit_chosen(
        self, container, key, rule, decision, runners, projection, horizon
    ) -> None:
        if not self.journal.enabled:
            return
        candidates = [
            {
                "providers": list(decision.placement.providers),
                "m": decision.placement.m,
                "cost": decision.expected_cost,
            }
        ]
        for runner in runners:
            candidates.append(
                {
                    "providers": list(runner.placement.providers),
                    "m": runner.placement.m,
                    "cost": runner.expected_cost,
                    "lost_by": runner.expected_cost - decision.expected_cost,
                }
            )
        self.journal.emit(
            "placement.chosen",
            key=f"{container}/{key}",
            rule=rule.name,
            placement=decision.placement.label(),
            expected_cost=decision.expected_cost,
            horizon_periods=horizon,
            projection={
                "size_bytes": projection.size_bytes,
                "reads_per_period": projection.reads_per_period,
                "writes_per_period": projection.writes_per_period,
            },
            candidates=candidates,
        )

    # -- internals ----------------------------------------------------------

    def _projection_for(
        self, row_key: str, class_key: str, size: int, period: int
    ) -> tuple[AccessProjection, float]:
        depth = self.stats.history_depth(row_key, period)
        if depth > 0:
            d = self.decision.current_d(row_key, max_d=depth)
            history = self.stats.history(row_key, period, d)
            return AccessProjection.from_history(history, size), float(d)
        profile = self.class_stats.profile(class_key)
        if profile is not None and profile.n_objects > 0:
            projection = AccessProjection(
                size_bytes=size,
                reads_per_period=profile.reads_per_object_period,
                writes_per_period=profile.writes_per_object_period,
                one_time_writes=1.0,
            )
            lifetime = profile.expected_lifetime()
            if lifetime is not None and lifetime > 0:
                horizon = max(
                    1.0, math.ceil(lifetime / self.cost_model.period_hours)
                )
            else:
                horizon = float(DEFAULT_HORIZON_PERIODS)
            return projection, horizon
        projection = AccessProjection(size_bytes=size, one_time_writes=1.0)
        return projection, float(DEFAULT_HORIZON_PERIODS)


@dataclass
class BrokerCosts:
    """Dollar cost summary across providers."""

    by_provider: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.by_provider.values())


class Scalia:
    """The adaptive multi-cloud storage broker (the paper's system)."""

    def __init__(
        self,
        registry: Optional[ProviderRegistry] = None,
        rules: Optional[RuleBook] = None,
        *,
        datacenters: int = 1,
        engines_per_dc: int = 2,
        cache_capacity_bytes: int = 0,
        sampling_period_hours: float = 1.0,
        initial_decision_period: int = 24,
        decision_adaptive: bool = True,
        trend_limit: float = 0.1,
        dynamic_trend_limit: bool = False,
        repair_strategy: str = "repair",
        class_refresh_every: int = 24,
        literal_algorithm1: bool = False,
        seed: int = 0,
        planner=None,
        enable_optimizer: bool = True,
        class_priors: Sequence = (),
        data_dir: Optional[str] = None,
        storage_sync: str = "os",
        stripe_size_bytes: int = DEFAULT_STRIPE_SIZE,
        optimizer_batch_size: int = 64,
        scrub_batch_size: int = 64,
        audit_batch_size: int = 64,
        hedge: Optional[HedgePolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        enable_metrics: bool = True,
        events: Optional[EventJournal] = None,
        enable_events: bool = True,
        event_log: Optional[str] = None,
        history_interval_s: float = 10.0,
        slo_rules: Optional[Sequence[SloRule]] = None,
    ) -> None:
        if stripe_size_bytes < 1:
            raise ValueError("stripe_size_bytes must be >= 1")
        self.stripe_size_bytes = stripe_size_bytes
        # Per-broker registry (never module-global: two brokers in one
        # process — tests, tools — must not cross-contaminate series).
        if metrics is not None:
            self.metrics = metrics
        else:
            self.metrics = MetricsRegistry(enabled=enable_metrics)
        # Decision-event journal: same per-broker/no-op story as metrics.
        # ``event_log`` additionally streams every event to a JSONL file.
        self._event_sink_file = None
        if events is not None:
            self.events = events
        else:
            sink = None
            if event_log is not None and enable_events:
                sink = open(event_log, "a", encoding="utf-8")
                self._event_sink_file = sink
            self.events = EventJournal(enabled=enable_events, sink=sink)
        # Durability first: the data directory supplies the providers'
        # chunk-store backends and the id epoch, both needed at build time.
        self.durability: Optional[DurabilityManager] = None
        id_epoch = 0
        if data_dir is not None:
            self.durability = DurabilityManager(
                data_dir, sync=storage_sync, metrics=self.metrics,
                events=self.events,
            )
            id_epoch = self.durability.boot_epoch
        if registry is not None:
            self.registry = registry
            if self.durability is not None:
                self.registry.set_backend_factory(self.durability.backend_factory)
        else:
            self.registry = ProviderRegistry(
                paper_catalog(),
                backend_factory=(
                    self.durability.backend_factory if self.durability else None
                ),
            )
        self.rules = rules if rules is not None else RuleBook()
        self.cost_model = CostModel(sampling_period_hours)
        self.placement_engine = PlacementEngine(
            self.cost_model, literal_algorithm1=literal_algorithm1
        )
        self.class_stats = ClassStatistics()
        for prior in class_priors:
            self.class_stats.seed(prior)
        self.decision = DecisionPeriodController(
            initial_d=initial_decision_period, adaptive=decision_adaptive
        )
        self.sampling_period_hours = sampling_period_hours
        self.class_refresh_every = class_refresh_every
        self.enable_optimizer = enable_optimizer

        stats = StatsDatabase()
        if planner is not None:
            self.planner = planner
        else:
            self.planner = CorePlanner(
                registry=self.registry,
                rules=self.rules,
                stats=stats,
                class_stats=self.class_stats,
                placement_engine=self.placement_engine,
                cost_model=self.cost_model,
                decision=self.decision,
                journal=self.events,
            )
        self.cluster = ScaliaCluster(
            registry=self.registry,
            planner=self.planner,
            datacenters=datacenters,
            engines_per_dc=engines_per_dc,
            cache_capacity_bytes=cache_capacity_bytes,
            seed=seed,
            id_epoch=id_epoch,
            stats=stats,
            hedge=hedge,
            metrics=self.metrics,
            journal=self.events,
        )
        self.optimizer = PeriodicOptimizer(
            cluster=self.cluster,
            registry=self.registry,
            rules=self.rules,
            stats=self.cluster.stats,
            class_stats=self.class_stats,
            placement_engine=self.placement_engine,
            cost_model=self.cost_model,
            decision=self.decision,
            trend_limit=trend_limit,
            dynamic_limit=dynamic_trend_limit,
            repair_strategy=repair_strategy,
            batch_size=optimizer_batch_size,
            metrics=self.metrics,
            journal=self.events,
        )
        self.reports: List[OptimizationReport] = []
        self.scrubber = Scrubber(
            self.cluster, self.registry, batch_size=scrub_batch_size,
            metrics=self.metrics, journal=self.events,
        )
        self.auditor = Auditor(
            self.cluster, self.registry, batch_size=audit_batch_size, seed=seed,
            metrics=self.metrics, journal=self.events,
        )
        self.recovery: Optional[dict] = None
        self.registry.attach_metrics(self.metrics)
        # Breaker transitions are reported by the health tracker *after*
        # its per-provider lock is released (see HealthTracker._report).
        self.registry.health.on_transition = self._on_breaker_transition
        # Downsampled registry snapshots for trends + SLO burn rates.
        self.history = MetricsHistory(
            sampler=lambda: self._history_sample(self.metrics.collect()),
            interval_s=history_interval_s,
            enabled=self.metrics.enabled,
        )
        self.slo = SloMonitor(
            self.history,
            rules=tuple(slo_rules) if slo_rules is not None else DEFAULT_SLO_RULES,
            journal=self.events,
        )
        self._register_collectors()
        if self.durability is not None:
            # Replay snapshot + WAL into the fresh substrate, then hook the
            # metadata cluster so every subsequent apply is journaled.
            self.recovery = self.durability.recover(self)
            self.durability.attach(self)
        self._closed = False
        # The broker is thread-safe on its own: the data plane coordinates
        # through the cluster's striped object/container locks, every
        # shared structure (metadata, statistics, caches, meters, queues)
        # takes short internal locks, and the control plane (tick,
        # optimizer, scrubber) runs as incremental background work under
        # the same per-object locks.  See docs/CONCURRENCY.md for the
        # hierarchy.
        # Serializes clock advancement: concurrent tick() calls close
        # periods one after the other instead of interleaving the
        # flush/refresh/optimize/flush sequence of one period.
        self._tick_lock = threading.Lock()

    # -- observability -----------------------------------------------------

    def _register_collectors(self) -> None:
        """Declare the scrape-time gauges mirroring state owned elsewhere.

        Queue depths, breaker states, stored bytes and hedge counters are
        all maintained by their own subsystems; sampling them only when
        ``/metrics`` is scraped keeps the data path untouched.
        """
        if not self.metrics.enabled:
            return
        m = self.metrics
        breaker_state = m.gauge(
            "scalia_breaker_state",
            "Circuit breaker state per provider (0=closed, 1=open, 2=half_open).",
            ("provider",),
        )
        breaker_opens = m.counter(
            "scalia_breaker_opens_total",
            "Breaker closed->open transitions per provider.",
            ("provider",),
        )
        provider_up = m.gauge(
            "scalia_provider_up",
            "1 while the provider is reachable, 0 during an outage.",
            ("provider",),
        )
        stored = m.gauge(
            "scalia_provider_stored_bytes",
            "Bytes currently held on each provider.",
            ("provider",),
        )
        provider_bytes = m.counter(
            "scalia_provider_bytes_total",
            "Chunk bytes moved to (in) and from (out) a provider.",
            ("provider", "direction"),
        )
        pending = m.gauge(
            "scalia_pending_deletes",
            "Chunk deletes postponed until their provider recovers.",
        )
        inflight_writes = m.gauge(
            "scalia_inflight_writes",
            "Storage keys whose chunks are shipped but metadata not committed.",
        )
        period = m.gauge(
            "scalia_sampling_period", "Index of the current sampling period."
        )
        wal_bytes = m.gauge(
            "scalia_wal_size_bytes", "Current size of the metadata WAL file."
        )
        hedge_counters = {
            "hedged_reads": m.counter(
                "scalia_hedged_reads_total",
                "Stripe fetches that took the parallel hedged path.",
            ),
            "hedges_fired": m.counter(
                "scalia_hedges_fired_total",
                "Hedge fetches launched on straggler deadlines.",
            ),
            "replacements": m.counter(
                "scalia_hedge_replacements_total",
                "Replacement fetches launched after failed fetches.",
            ),
            "suppressed": m.counter(
                "scalia_hedges_suppressed_total",
                "Hedges skipped by breaker admission control.",
            ),
        }
        slo_burn = m.gauge(
            "scalia_slo_burn_rate",
            "SLO error-budget burn rate per rule and window (1.0 = on target).",
            ("slo", "window"),
        )
        alert_active = m.gauge(
            "scalia_alert_active",
            "1 while the SLO rule's multi-window alert is firing.",
            ("slo",),
        )
        events_emitted = m.counter(
            "scalia_events_emitted_total",
            "Decision events recorded in the in-memory journal.",
        )
        events_dropped = m.counter(
            "scalia_events_dropped_total",
            "Journal events evicted by the ring budgets or dropped oversize.",
            ("reason",),
        )
        placement_searches = m.counter(
            "scalia_placement_searches_total",
            "Algorithm-1 pricing passes: served from the placement table "
            "(hit) or after building its entry (built).",
            ("table",),
        )
        placement_rows = m.gauge(
            "scalia_placement_table_rows",
            "Feasible-subset rows the placement table holds.",
        )
        breaker_code = {"closed": 0.0, "open": 1.0, "half_open": 2.0}

        def collect() -> None:
            health = self.registry.health
            for provider in self.registry.providers():
                name = provider.name
                view = health.view(name)
                breaker_state.labels(name).set(
                    breaker_code.get(str(view.breaker), -1.0)
                )
                breaker_opens.labels(name).set_total(view.opens)
                provider_up.labels(name).set(0.0 if provider.failed else 1.0)
                stored.labels(name).set(provider.stored_bytes)
                usage = provider.meter.total()
                provider_bytes.labels(name, "in").set_total(usage.bytes_in)
                provider_bytes.labels(name, "out").set_total(usage.bytes_out)
            pending.set(len(self.cluster.pending_deletes))
            inflight_writes.set(len(self.cluster.locks.in_flight))
            period.set(self.period)
            if self.durability is not None:
                wal_bytes.set(self.durability.journal.size_bytes())
            totals = HedgeStats()
            for engine in self.cluster.all_engines():
                totals.merge(engine.hedge_stats)
            snapshot = totals.snapshot()
            for key, counter in hedge_counters.items():
                counter.set_total(snapshot[key])
            journal_stats = self.events.stats()
            events_emitted.set_total(journal_stats["emitted"])
            events_dropped.labels("evicted").set_total(journal_stats["evicted"])
            events_dropped.labels("oversize").set_total(
                journal_stats["dropped_oversize"]
            )
            table = self.placement_engine.table_stats()
            placement_searches.labels("hit").set_total(table["hit"])
            placement_searches.labels("built").set_total(table["built"])
            placement_rows.set(table["rows"])
            # evaluate() also steps the alert state machine, so alerts
            # fire even when nobody polls /alerts.  It reads the ring as
            # it stands: this scrape's own sample is taken from its
            # snapshot once the collectors ran (the reader below).
            for state in self.slo.evaluate():
                name = str(state["name"])
                burn = state["burn"]
                slo_burn.labels(name, "fast").set(float(burn.get("fast", 0.0)))
                slo_burn.labels(name, "slow").set(float(burn.get("slow", 0.0)))
                alert_active.labels(name).set(1.0 if state["active"] else 0.0)

        m.add_collector(collect)
        # A scrape with a history sample due samples what it collected,
        # so each collector runs once per scrape.
        m.add_reader(lambda snapshot: self.history.maybe_sample(
            sampler=lambda: self._history_sample(snapshot)
        ))

    def _on_breaker_transition(
        self, name: str, old: str, new: str, info: dict
    ) -> None:
        """Health-tracker callback: journal every breaker state change."""
        self.events.emit(f"breaker.{new}", key=name, previous=old, **info)

    def _history_sample(self, snapshot: Dict[str, dict]) -> Dict[str, float]:
        """One downsampled reading of a registry ``snapshot`` (and of the
        providers) for the history ring.

        Flat series: request/error totals and folded latency buckets from
        the gateway families, per-provider health and stored bytes, and
        the cost model's projected storage $/period (total and blended
        per-GB — the series the ``cost_gb`` SLO watches).
        """
        values: Dict[str, float] = {}
        requests = 0.0
        errors = 0.0
        family = snapshot.get("scalia_gateway_requests_total")
        if family is not None:
            status_at = family["labels"].index("status")
            for labelvalues, count in family["children"]:
                requests += count
                status = labelvalues[status_at]
                # "0" is a request that died before a status was sent.
                if status == "0" or status.startswith("5"):
                    errors += count
        values["requests.total"] = requests
        values["errors.total"] = errors
        family = snapshot.get("scalia_gateway_request_seconds")
        if family is not None:
            # Every child's buckets, folded; the last is the +Inf bucket.
            les = [str(float(bound)) for bound in family["bounds"]] + ["inf"]
            for index, le in enumerate(les):
                values[f"request.bucket.{le}"] = float(
                    sum(cumulative[index] for _, (cumulative, _) in family["children"])
                )
        total_bytes = 0.0
        cost_per_period = 0.0
        for provider in self.registry.providers():
            name = provider.name
            values[f"provider.up.{name}"] = 0.0 if provider.failed else 1.0
            stored = float(provider.stored_bytes)
            values[f"provider.stored_bytes.{name}"] = stored
            total_bytes += stored
            gb_hours = stored / 1e9 * self.sampling_period_hours
            cost_per_period += provider.spec.pricing.storage_cost(gb_hours)
        values["stored_bytes.total"] = total_bytes
        values["cost.projected_per_period"] = cost_per_period
        values["cost.per_gb_period"] = (
            cost_per_period / (total_bytes / 1e9) if total_bytes > 0 else 0.0
        )
        return values

    def explain(self, container: str, key: str) -> dict:
        """Why an object lives where it does — the ``repro explain`` join.

        Combines the current metadata, a live cost-model what-if (current
        placement vs the best feasible alternative vs the paper-baseline
        full replication) and every journaled event about the object.
        When a ``migration.committed`` event is on record, its appraisal
        is *replayed* from the recorded inputs so the decision-time saving
        and today's what-if can be compared within rounding.
        """
        meta = self.head(container, key)
        if meta is None:
            raise ObjectNotFoundError(f"{container}/{key} not found")
        row_key = object_row_key(container, key)
        if isinstance(self.planner, CorePlanner):
            projection, horizon = self.planner._projection_for(  # noqa: SLF001
                row_key, meta.class_key, meta.size, self.period
            )
        else:
            projection = AccessProjection(size_bytes=meta.size)
            horizon = 24.0
        try:
            rule = self.rules.get(meta.rule_name)
        except KeyError:
            rule = self.rules.default
        current_cost: Optional[float] = None
        try:
            current_specs = [
                self.registry.get(p).spec for p in meta.placement.providers
            ]
            current_cost = self.cost_model.expected_cost(
                current_specs, meta.m, projection, horizon
            )
        except KeyError:
            pass  # a provider left the pool; no current price exists
        specs = self.registry.specs(include_failed=False)
        alternative: Optional[dict] = None
        saving: Optional[float] = None
        try:
            best = self.placement_engine.best_placement(
                specs, rule, projection, horizon
            )
        except PlacementError:
            best = None
        if best is not None:
            alternative = {
                "placement": best.placement.label(),
                "providers": list(best.placement.providers),
                "m": best.placement.m,
                "cost": best.expected_cost,
            }
            if current_cost is not None:
                saving = current_cost - best.expected_cost
        events = self.events.query(key=f"{container}/{key}")
        replay = None
        for event in reversed(events):
            if event.get("type") == "migration.committed":
                replay = self._replay_migration(event)
                break
        return {
            "container": container,
            "key": key,
            "found": True,
            "size": meta.size,
            "class": meta.class_key,
            "rule": rule.name,
            "placement": {
                "label": meta.placement.label(),
                "providers": list(meta.placement.providers),
                "m": meta.m,
            },
            "projection": {
                "size_bytes": projection.size_bytes,
                "reads_per_period": projection.reads_per_period,
                "writes_per_period": projection.writes_per_period,
            },
            "horizon_periods": horizon,
            "costs": {
                "current": current_cost,
                "best_alternative": alternative,
                "full_replication": self.cost_model.full_replication_cost(
                    specs, projection, horizon
                ),
                "switch_saving": saving,
            },
            "last_migration": replay,
            "events": events,
        }

    def _replay_migration(self, event: dict) -> Optional[dict]:
        """Re-price a journaled migration from its recorded inputs.

        Returns the decision-time numbers next to a fresh CostModel run
        over the same projection/placements/horizon; ``agrees`` is the
        acceptance check that the journal and the what-if tell one story.
        """
        projection_doc = event.get("projection")
        if not isinstance(projection_doc, dict):
            return None
        try:
            projection = AccessProjection(
                size_bytes=int(projection_doc.get("size_bytes", 0)),
                reads_per_period=float(projection_doc.get("reads_per_period", 0.0)),
                writes_per_period=float(projection_doc.get("writes_per_period", 0.0)),
            )
            horizon = float(event["horizon_periods"])
            old_specs = [
                self.registry.get(p).spec for p in event["old_providers"]
            ]
            new_specs = [
                self.registry.get(p).spec for p in event["new_providers"]
            ]
            old_m = int(event["old_m"])
            new_m = int(event["new_m"])
        except (KeyError, TypeError, ValueError):
            return None
        current = self.cost_model.expected_cost(
            old_specs, old_m, projection, horizon
        )
        new = self.cost_model.expected_cost(new_specs, new_m, projection, horizon)
        replayed_saving = current - new
        logged_saving = float(event.get("saving", 0.0))
        tolerance = max(1e-9, 1e-6 * max(abs(replayed_saving), abs(logged_saving)))
        return {
            "seq": event.get("seq"),
            "period": event.get("period"),
            "from": event.get("old_placement"),
            "to": event.get("new_placement"),
            "logged_saving": logged_saving,
            "replayed_saving": replayed_saving,
            "logged_migration_cost": event.get("migration_cost"),
            "agrees": abs(replayed_saving - logged_saving) <= tolerance,
        }

    # -- clock ------------------------------------------------------------

    @property
    def period(self) -> int:
        """Index of the current (open) sampling period."""
        return self.cluster.clock.period

    @property
    def now(self) -> float:
        """Simulated wall time in hours."""
        return self.cluster.clock.now

    # -- client API ----------------------------------------------------------

    def put(
        self,
        container: str,
        key: str,
        data,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        ttl_hint: Optional[float] = None,
        dc: Optional[str] = None,
        size_hint: Optional[int] = None,
        content_md5: Optional[bytes] = None,
    ) -> ObjectMeta:
        """Store an object: ``bytes``, a binary file-like, any iterable of
        byte blocks, or an int byte-count in synthetic mode.

        Payloads larger than :attr:`stripe_size_bytes` are streamed in as
        independently erasure-coded stripes with O(stripe) peak memory.
        """
        return self.cluster.route(dc).put(
            container,
            key,
            data,
            mime=mime,
            rule=rule,
            ttl_hint=ttl_hint,
            stripe_size=self.stripe_size_bytes,
            size_hint=size_hint,
            content_md5=content_md5,
        )

    def get(
        self,
        container: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
        dc: Optional[str] = None,
    ):
        """Read an object back (bytes, or the synthetic byte count).

        ``byte_range=(start, end)`` (inclusive; ``end=None`` = through the
        last byte) fetches — and bills — only the Merkle leaves covering
        the range (whole chunks where a chunk is one leaf).
        """
        return self.cluster.route(dc).get(container, key, byte_range=byte_range)

    def get_many(
        self, container: str, key: str, count: int, *, dc: Optional[str] = None
    ):
        """Serve ``count`` identical reads, billed exactly (burst batching)."""
        return self.cluster.route(dc).get_many(container, key, count)

    def open_get(
        self,
        container: str,
        key: str,
        *,
        validate: Optional[Validator] = None,
        raw: bool = False,
        dc: Optional[str] = None,
    ) -> Tuple[ReadPlan, object]:
        """A read up to and including its first segment, as ``(plan,
        first)``, on one routed engine under one shared hold of the
        object (:meth:`Engine.open_get`): the row is resolved once,
        ``validate(meta)`` turns it into the byte range to read, and
        what is planned, served and logged is that one version.  The
        gateway's GET; stripes after the first are :meth:`read_stripe`.
        """
        return self.cluster.route(dc).open_get(container, key, validate=validate, raw=raw)

    def open_read(
        self,
        container: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
        dc: Optional[str] = None,
    ) -> ReadPlan:
        """Resolve a (possibly ranged) read into per-stripe segments, to
        pull through :meth:`read_stripe` (which bills the chunk traffic)
        and log with :meth:`commit_read`: three holds where
        :meth:`open_get` takes one."""
        return self.cluster.route(dc).open_read(container, key, byte_range=byte_range)

    def read_stripe(
        self,
        meta: ObjectMeta,
        stripe: int,
        lo: int = 0,
        hi: Optional[int] = None,
        *,
        dc: Optional[str] = None,
    ):
        """Plaintext ``[lo, hi)`` of one stripe of a planned read (see
        :meth:`open_read`), fetching only the leaves that cover it."""
        return self.cluster.route(dc).read_stripe(meta, stripe, lo, hi)

    def commit_read(
        self, plan: ReadPlan, *, count: int = 1, dc: Optional[str] = None
    ) -> None:
        """Log a planned read once its bytes were actually served."""
        self.cluster.route(dc).commit_read(plan, count=count)

    def delete(self, container: str, key: str, *, dc: Optional[str] = None) -> None:
        """Delete an object everywhere."""
        self.cluster.route(dc).delete(container, key)

    def list(
        self,
        container: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        max_keys: Optional[int] = None,
        continuation_token: Optional[str] = None,
        dc: Optional[str] = None,
    ) -> ListPage:
        """Paginated listing of a container (list-compatible page object)."""
        return self.cluster.route(dc).list_objects(
            container,
            prefix=prefix,
            delimiter=delimiter,
            max_keys=max_keys,
            continuation_token=continuation_token,
        )

    # -- multipart upload --------------------------------------------------

    def create_multipart_upload(
        self,
        container: str,
        key: str,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
        dc: Optional[str] = None,
    ) -> MultipartState:
        """Open a multipart upload; state is journaled for crash recovery."""
        return self.cluster.route(dc).create_multipart_upload(
            container, key,
            mime=mime, rule=rule, stripe_size=self.stripe_size_bytes, size_hint=size_hint,
        )

    def upload_part(
        self,
        container: str,
        key: str,
        upload_id: str,
        part_number: int,
        data,
        *,
        dc: Optional[str] = None,
        content_md5: Optional[bytes] = None,
    ) -> PartState:
        """Store one part of an open upload (streamed stripe by stripe)."""
        return self.cluster.route(dc).upload_part(
            container, key, upload_id, part_number, data, content_md5=content_md5
        )

    def complete_multipart_upload(
        self,
        container: str,
        key: str,
        upload_id: str,
        parts: Optional[Sequence[Tuple[int, Optional[str]]]] = None,
        *,
        dc: Optional[str] = None,
    ) -> ObjectMeta:
        """Make the uploaded parts the live object (pure metadata)."""
        return self.cluster.route(dc).complete_multipart_upload(container, key, upload_id, parts)

    def abort_multipart_upload(
        self, container: str, key: str, upload_id: str, *, dc: Optional[str] = None
    ) -> int:
        """Drop an in-flight upload and its staged chunks."""
        return self.cluster.route(dc).abort_multipart_upload(container, key, upload_id)

    def list_multipart_uploads(
        self, container: str, *, dc: Optional[str] = None
    ) -> List[MultipartState]:
        """In-flight multipart uploads of a container, oldest first."""
        return self.cluster.route(dc).list_multipart_uploads(container)

    def head(self, container: str, key: str, *, dc: Optional[str] = None) -> Optional[ObjectMeta]:
        """Object metadata without reading data."""
        return self.cluster.route(dc).head(container, key)

    def stager(self, *, dc: Optional[str] = None) -> Stager:
        """The engine's staged write protocol (what the ops RPC serves to
        gateway workers); each primitive reads the clock when it runs."""
        return self.cluster.route(dc).stager()

    def fetch_stripe_chunks(
        self, meta: ObjectMeta, stripe: int, *, dc: Optional[str] = None
    ):
        """One stripe's ``m`` best chunks, undecoded, as ``(length, chunks)``."""
        length = meta.stripe_lengths[stripe]
        return length, self.fetch_stripe_window(meta, stripe, 0, length, dc=dc)[1]

    def fetch_stripe_window(
        self, meta: ObjectMeta, stripe: int, lo: int, hi: int, *, dc: Optional[str] = None
    ):
        """Fetch (without cutting or decoding) what serves ``[lo, hi)`` of
        one stripe for a worker: proven leaves, or ``m`` whole chunks."""
        return self.cluster.route(dc).fetch_stripe_window(meta, stripe, lo, hi)

    def placement_of(self, container: str, key: str) -> Optional[Placement]:
        """Current placement of an object, or ``None`` when absent."""
        meta = self.head(container, key)
        return meta.placement if meta else None

    # -- simulation advance -----------------------------------------------------

    def tick(
        self,
        periods: int = 1,
        *,
        optimizer_yield_fn=None,
    ) -> List[OptimizationReport]:
        """Close ``periods`` sampling periods, running the Figure-7 loop.

        Safe to call while foreground traffic is in flight: the optimizer
        claims objects in batches under their striped locks (a client
        operation waits for at most one in-flight migration, never the
        round), and concurrent ticks serialize on the tick mutex.  After
        a class-statistics refresh consumes the raw log records, the
        statistics database prunes them, keeping its memory bounded by
        one refresh interval's traffic.

        ``optimizer_yield_fn`` is this call's between-batches hook (the
        background control plane passes its stop probe here — a per-call
        argument, so a concurrent manual tick never inherits it).  An
        abort raised from the hook leaves the clock and report list
        consistent: fully-closed periods keep their reports, and the
        clock, which moves only once a period is closed, stays in the
        aborted one.  The optimizer is handed the period's end; its
        migrations, like any operation, read the clock when they run.
        """
        clock = self.cluster.clock
        new_reports: List[OptimizationReport] = []
        with self._tick_lock:
            for _ in range(periods):
                start, period = clock.read()
                end = start + self.sampling_period_hours
                self.cluster.flush_logs()
                if period % max(1, self.class_refresh_every) == 0:
                    self.class_stats.refresh(self.cluster.stats, period)
                    self.cluster.stats.prune_consumed()
                if self.enable_optimizer:
                    report = self.optimizer.run(end, period, yield_fn=optimizer_yield_fn)
                else:
                    report = OptimizationReport(period=period)
                # The pending-delete queue is shared cluster-wide: flush it
                # once, explicitly, rather than through any one engine.
                self.cluster.pending_deletes.flush(self.registry)
                self.registry.on_period(period, self.sampling_period_hours)
                # The clock moves once per period, whole, and before the
                # close is journaled: a snapshot taken by that append (or
                # during the round) records a reading a restart resumes.
                clock.set(end, period + 1)
                if self.durability is not None:
                    self.durability.on_period_closed(self, period)
                # Commit per period: an abort mid multi-period call must
                # not drop the reports of periods already closed.
                new_reports.append(report)
                self.reports.append(report)
        # Control-plane pull-through: one history point per tick batch
        # (rate-limited by the ring's own interval guard).
        self.history.maybe_sample()
        return new_reports

    # -- storage engine ------------------------------------------------------

    def scrub(self, *, repair: bool = True) -> ScrubReport:
        """Run one integrity pass over every stored chunk (and repair).

        Safe to run concurrently with client traffic: each object is
        verified/repaired under its striped object lock, the orphan sweep
        respects the in-flight write registry, and the pass yields
        between batches (``scrub_batch_size``) so foreground operations
        never wait for more than one object's scrub.
        """
        return self.scrubber.scrub(repair=repair)

    def audit(self, *, repair: bool = True, seed: Optional[int] = None) -> AuditReport:
        """Run one challenge-response sweep over every stored chunk.

        Each provider proves possession of sampled Merkle leaves against
        the roots held in object metadata — O(log) proof bytes per chunk
        instead of the scrubber's full reads.  Failed proofs force the
        provider's breaker open and trigger the same erasure-coded repair
        the scrubber uses.  Runs under the identical bounded-stall lock
        discipline (``audit_batch_size`` objects per batch).
        """
        return self.auditor.audit(repair=repair, seed=seed)

    def drain_hedges(self, timeout: float = 10.0) -> None:
        """Join every engine's in-flight hedge fetch threads.

        Call before asserting metered totals: a hedged read may leave a
        straggler fetch still billing its provider in the background.
        """
        for engine in self.cluster.all_engines():
            engine.drain_hedges(timeout)

    def hedge_stats(self) -> dict:
        """Aggregated hedged-read counters across every engine, plus the
        cluster's hedge policy (the ``/stats`` hedging block)."""
        total = HedgeStats()
        for engine in self.cluster.all_engines():
            total.merge(engine.hedge_stats)
        out = total.snapshot()
        out["policy"] = self.cluster.hedge.describe()
        return out

    def health_report(self) -> dict:
        """Per-provider health picture (breakers, EWMAs, fault profiles)."""
        return self.registry.health_report()

    def storage_stats(self) -> dict:
        """JSON-ready description of the data plane's durability state."""
        return {
            "durable": self.durability is not None,
            "backends": {
                p.name: p.backend_stats() for p in self.registry.providers()
            },
            "durability": self.durability.stats() if self.durability else None,
            "recovery": self.recovery,
            "last_scrub": (
                self.scrubber.last_report.to_dict()
                if self.scrubber.last_report is not None
                else None
            ),
            "last_audit": (
                self.auditor.last_report.to_dict()
                if self.auditor.last_report is not None
                else None
            ),
        }

    def close(self) -> None:
        """Flush and release durable state (snapshot, WAL, segment files).

        Idempotent; a broker without a ``data_dir`` closes trivially.
        With one, a clean shutdown ends on a fresh snapshot so the next
        boot recovers without replaying the journal.
        """
        if self._closed:
            return
        self._closed = True
        if self.durability is not None:
            self.durability.close()
        for provider in self.registry.providers():
            provider.backend.close()
        if self._event_sink_file is not None:
            try:
                self._event_sink_file.close()
            except OSError:
                pass

    def __enter__(self) -> "Scalia":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accounting ---------------------------------------------------------------

    def costs(self) -> BrokerCosts:
        """Total dollar cost so far, per provider (metered, not projected)."""
        return BrokerCosts(
            by_provider={
                p.name: cost_of_usage(p.spec.pricing, p.meter.total())
                for p in self.registry.providers()
            }
        )

    def cost_by_period(self) -> Dict[int, float]:
        """Total dollar cost per closed sampling period."""
        out: Dict[int, float] = {}
        for provider in self.registry.providers():
            pricing = provider.spec.pricing
            for period, usage in provider.meter.usage_by_period().items():
                out[period] = out.get(period, 0.0) + cost_of_usage(pricing, usage)
        return out
