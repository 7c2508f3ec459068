"""The periodic optimization procedure (Section III-A3, Figure 7).

Every optimization round:

1. the elected leader fetches from the statistics database the set ``A`` of
   objects accessed or modified since the previous round — plus, when the
   provider pool changed (failure, recovery, arrival, new prices), every
   live object, since "the provider set of an object will change only if
   its access history varies significantly or if the set of storage
   providers P(obj) changes";
2. ``A`` is split evenly across all engines of all datacenters;
3. each engine runs the momentum ``detect()`` on its objects and recomputes
   the placement (Algorithm 1, with the D/2-D-2D decision-period coupling)
   only for objects whose access pattern moved;
4. a better placement is adopted only when the projected saving over the
   next decision period covers the migration cost — except for *repairs*
   (a placement referencing a failed provider), which migrate immediately
   under the ``repair`` strategy.

A round runs as an **incremental background worker**: the assigned row
keys are processed in small batches (``batch_size``), each object's
migration takes only that object's striped lock (inside
``Engine.migrate``), and the optimizer yields between batches
(``yield_fn``).  A concurrent client operation therefore waits at most
for the single object the optimizer is currently moving — never for the
whole round, however many thousand objects it examines.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.datacenter import ScaliaCluster
from repro.cluster.engine import Engine, PlacementError, ReadFailedError
from repro.cluster.maintenance import sweep
from repro.cluster.statistics import StatsDatabase
from repro.core.classifier import ClassStatistics
from repro.core.costmodel import AccessProjection, CostModel
from repro.core.decision import DecisionPeriodController
from repro.core.placement import PlacementDecision, PlacementEngine
from repro.core.rules import RuleBook
from repro.core.trend import MomentumDetector
from repro.obs.events import resolve_journal
from repro.providers.provider import (
    CapacityExceededError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.providers.registry import ProviderRegistry
from repro.types import ObjectMeta, Placement

#: Sampling periods a momentum detector's moving average spans.
TREND_WINDOW = 3
#: Periods a migration's saving is projected over when neither a TTL hint
#: nor the class statistics give the object's remaining lifetime (a year
#: of hourly periods).
BENEFIT_HORIZON_PERIODS = 8760


@dataclass(frozen=True)
class MigrationAppraisal:
    """Why a migration was, or was not, worth its cost.

    Costs are dollars over ``horizon_periods``; ``saving`` is
    ``current_cost - new_cost``; the migration is worth it when the
    saving strictly exceeds ``migration_cost``.  This is the record the
    event journal persists at decision time — and the exact inputs
    ``repro explain``'s what-if must reproduce.
    """

    worth: bool
    reason: str                      # "saving" | "not-worth" | "pool-left" | "unreadable"
    current_cost: float = 0.0
    new_cost: float = 0.0
    migration_cost: float = 0.0
    horizon_periods: float = 0.0
    projection: Optional[AccessProjection] = None

    @property
    def saving(self) -> float:
        return self.current_cost - self.new_cost

    def event_fields(self) -> dict:
        fields = {
            "reason": self.reason,
            "current_cost": self.current_cost,
            "new_cost": self.new_cost,
            "saving": self.saving,
            "migration_cost": self.migration_cost,
            "horizon_periods": self.horizon_periods,
        }
        if self.projection is not None:
            fields["projection"] = {
                "size_bytes": self.projection.size_bytes,
                "reads_per_period": self.projection.reads_per_period,
                "writes_per_period": self.projection.writes_per_period,
            }
        return fields


@dataclass
class ObjectOutcome:
    """Per-object result of one optimization round (for reports/tests)."""

    row_key: str
    trend_changed: bool = False
    recomputed: bool = False
    migrated: bool = False
    repaired: bool = False
    old_placement: Optional[Placement] = None
    new_placement: Optional[Placement] = None
    chosen_d: Optional[int] = None


@dataclass
class OptimizationReport:
    """Summary of one optimization round."""

    period: int
    leader: Optional[str] = None
    examined: int = 0
    trend_changes: int = 0
    recomputations: int = 0
    migrations: int = 0
    repairs: int = 0
    outcomes: List[ObjectOutcome] = field(default_factory=list)


class PeriodicOptimizer:
    """Drives rounds of the Figure-7 procedure over a cluster."""

    def __init__(
        self,
        *,
        cluster: ScaliaCluster,
        registry: ProviderRegistry,
        rules: RuleBook,
        stats: StatsDatabase,
        class_stats: ClassStatistics,
        placement_engine: PlacementEngine,
        cost_model: CostModel,
        decision: DecisionPeriodController,
        trend_limit: float = 0.1,
        dynamic_limit: bool = False,
        repair_strategy: str = "repair",
        batch_size: int = 64,
        metrics=None,
        journal=None,
    ) -> None:
        if repair_strategy not in ("repair", "wait"):
            raise ValueError("repair_strategy must be 'repair' or 'wait'")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.registry = registry
        self.rules = rules
        self.stats = stats
        self.class_stats = class_stats
        self.placement_engine = placement_engine
        self.cost_model = cost_model
        self.decision = decision
        self.trend_limit = trend_limit
        self.dynamic_limit = dynamic_limit
        self.repair_strategy = repair_strategy
        self._class_limits: Dict[str, float] = {}
        self.batch_size = batch_size
        self._run_lock = threading.Lock()
        self._detectors: Dict[str, MomentumDetector] = {}
        self._fed_upto: Dict[str, int] = {}
        self._last_run_period: int = -1
        self._last_epoch: Optional[int] = None
        self.journal = resolve_journal(journal)
        self._m_batches = None
        if metrics is not None and metrics.enabled:
            self._m_batches = metrics.histogram(
                "scalia_optimizer_batch_seconds",
                "Wall time of one optimizer batch (objects re-evaluated).",
            )
            self._m_migrations = metrics.counter(
                "scalia_optimizer_migrations_total",
                "Objects migrated by optimizer rounds.",
            )

    # ------------------------------------------------------------------

    def run(
        self,
        now: float,
        period: int,
        *,
        batch_size: Optional[int] = None,
        yield_fn: Optional[Callable[[], None]] = None,
    ) -> OptimizationReport:
        """Execute one optimization round at the end of ``period``.

        The round claims row keys in batches of ``batch_size`` (the
        constructor default unless overridden); each object is optimized
        — and, when worthwhile, migrated — under its own striped object
        lock, and ``yield_fn`` runs between batches holding no locks at
        all.  Foreground traffic is therefore blocked by at most one
        in-flight migration, never a whole round.  Rounds serialize on an
        internal mutex (two concurrent ticks cannot interleave one
        round's bookkeeping).
        """
        with self._run_lock:
            return self._run_round(
                now,
                period,
                batch_size if batch_size is not None else self.batch_size,
                yield_fn,
            )

    def _run_round(
        self,
        now: float,
        period: int,
        batch_size: int,
        yield_fn: Optional[Callable[[], None]],
    ) -> OptimizationReport:
        self.cluster.heartbeat_all(now)
        leader = self.cluster.leader_engine(now)
        report = OptimizationReport(period=period)
        if leader is None:
            return report
        report.leader = leader.engine_id

        keys = set(self.stats.accessed_between(self._last_run_period + 1, period))
        epoch = self.registry.epoch
        pool_changed = self._last_epoch is not None and epoch != self._last_epoch
        if pool_changed:
            keys |= set(leader.live_row_keys())
        self._last_epoch = epoch
        self._last_run_period = period

        engines = self.cluster.all_engines()
        assignments: Dict[str, List[str]] = {e.engine_id: [] for e in engines}
        for i, row_key in enumerate(sorted(keys)):
            assignments[engines[i % len(engines)].engine_id].append(row_key)
        work = [
            (engine, row_key)
            for engine in engines
            for row_key in assignments[engine.engine_id]
        ]

        def visit(item) -> None:
            engine, row_key = item
            outcome = self._optimize_object(engine, row_key, now, period, pool_changed)
            if outcome is None:
                return
            report.examined += 1
            report.trend_changes += outcome.trend_changed
            report.recomputations += outcome.recomputed
            report.migrations += outcome.migrated
            report.repairs += outcome.repaired
            report.outcomes.append(outcome)

        sweep(work, visit, batch_size, yield_fn, getattr(self._m_batches, "observe", None))
        if self._m_batches is not None:
            self._m_migrations.inc(report.migrations)
        return report

    # ------------------------------------------------------------------

    def _detector(self, row_key: str, class_key: Optional[str] = None) -> MomentumDetector:
        detector = self._detectors.get(row_key)
        if detector is None:
            limit = self.trend_limit
            if self.dynamic_limit and class_key is not None:
                limit = self._calibrated_limit(class_key)
            detector = MomentumDetector(TREND_WINDOW, limit)
            self._detectors[row_key] = detector
        return detector

    def _calibrated_limit(self, class_key: str) -> float:
        """The paper's dynamic limit: the minimum momentum per object class
        that would result in a different best provider set.

        Cached per class; falls back to the static limit when the class has
        no profile yet or no demand change within range flips the optimum.
        """
        cached = self._class_limits.get(class_key)
        if cached is not None:
            return cached
        profile = self.class_stats.profile(class_key)
        limit = self.trend_limit
        if profile is not None and profile.n_objects > 0 and profile.mean_size > 0:
            from repro.core.trend import calibrate_limit

            projection = AccessProjection(
                size_bytes=int(profile.mean_size),
                reads_per_period=max(profile.reads_per_object_period, 1e-6),
                writes_per_period=profile.writes_per_object_period,
            )
            try:
                calibrated = calibrate_limit(
                    self.placement_engine,
                    self.registry.specs(include_failed=False),
                    self.rules.default,
                    projection,
                    24.0,
                )
            except PlacementError:
                calibrated = math.inf
            if math.isfinite(calibrated):
                limit = max(self.trend_limit, calibrated)
        self._class_limits[class_key] = limit
        return limit

    def _feed_detector(
        self, row_key: str, period: int, class_key: Optional[str] = None
    ) -> bool:
        """Feed unseen periods into the object's detector; True on change."""
        known = self.stats.known_periods(row_key)
        if not known:
            return False
        start = self._fed_upto.get(row_key, known[0] - 1) + 1
        if start > period:
            return False
        detector = self._detector(row_key, class_key)
        history = self.stats.history(row_key, period, period - start + 1)
        changed = False
        for stats in history:
            if detector.update(stats.ops):
                changed = True
        self._fed_upto[row_key] = period
        return changed

    def _rule_for(self, meta: ObjectMeta):
        try:
            return self.rules.get(meta.rule_name)
        except KeyError:
            return self.rules.default

    def _max_decision_period(self, meta: ObjectMeta, now: float, period: int) -> int:
        """``min(TTL_obj, |H_obj|)`` in sampling periods."""
        depth = max(1, self.stats.history_depth(_row_key_of(meta), period))
        age = max(0.0, now - meta.created_at)
        ttl: Optional[float] = None
        if meta.ttl_hint is not None:
            ttl = max(0.0, meta.ttl_hint - age)
        else:
            ttl = self.class_stats.expected_remaining(meta.class_key, age)
        if ttl is None:
            return depth
        ttl_periods = max(1, math.ceil(ttl / self.cost_model.period_hours))
        return max(1, min(depth, ttl_periods))

    def _optimize_object(
        self,
        engine: Engine,
        row_key: str,
        now: float,
        period: int,
        pool_changed: bool,
    ) -> Optional[ObjectOutcome]:
        meta = engine.resolve_row(row_key)
        if meta is None:
            # Deleted object: drop tracking state.
            self._detectors.pop(row_key, None)
            self._fed_upto.pop(row_key, None)
            return None
        outcome = ObjectOutcome(row_key=row_key, old_placement=meta.placement)
        outcome.trend_changed = self._feed_detector(row_key, period, meta.class_key)

        broken = [
            p
            for p in meta.placement.providers
            if not self.registry.is_available(p)
        ]
        needs_repair = bool(broken) and self.repair_strategy == "repair"
        if not (outcome.trend_changed or pool_changed or needs_repair):
            return outcome

        rule = self._rule_for(meta)
        max_d = self._max_decision_period(meta, now, period)
        coupled = self.decision.coupling_due(row_key)
        candidates = self.decision.candidates(row_key, max_d=max_d)
        # Health-gated recomputation: migration targets avoid providers
        # whose circuit breaker is not closed, falling back to the full
        # available pool when the healthy subset cannot satisfy the rule
        # (better a placement on a flaky provider than none at all).
        specs = self.registry.specs(include_failed=False, include_sick=False)
        best, best_d = self._search_candidates(
            row_key, period, meta, rule, candidates, specs
        )
        if best is None:
            all_specs = self.registry.specs(include_failed=False)
            if len(all_specs) != len(specs):
                best, best_d = self._search_candidates(
                    row_key, period, meta, rule, candidates, all_specs
                )
        outcome.recomputed = True
        if best is None:
            return outcome  # nothing feasible right now; wait
        self.decision.after_optimization(row_key, best_d if coupled else None)
        outcome.chosen_d = best_d
        new_placement = best.placement
        outcome.new_placement = new_placement
        if new_placement == meta.placement:
            return outcome

        appraisal = self._appraise_migration(
            meta, new_placement, best_d or 1, now, period
        )
        if not needs_repair and not appraisal.worth:
            outcome.new_placement = meta.placement
            return outcome
        object_key = f"{meta.container}/{meta.key}"
        # Machine-readable placements ride along with the labels so
        # `repro explain` can re-price the decision from the event alone.
        placement_fields = {
            "old_providers": list(meta.placement.providers),
            "old_m": meta.placement.m,
            "new_providers": list(new_placement.providers),
            "new_m": new_placement.m,
        }
        self.journal.emit(
            "migration.planned",
            key=object_key,
            period=period,
            old_placement=meta.placement.label(),
            new_placement=new_placement.label(),
            repair=needs_repair,
            chosen_d=best_d,
            **placement_fields,
            **appraisal.event_fields(),
        )
        try:
            engine.migrate(meta.container, meta.key, new_placement, now=now, period=period)
        except (ReadFailedError, PlacementError, ProviderUnavailableError,
                CapacityExceededError, ChunkTooLargeError) as exc:
            # Too many chunks unreachable, or a (possibly injected)
            # transient fault hit a migration write: retry next round.
            self.journal.emit(
                "migration.aborted",
                key=object_key,
                period=period,
                old_placement=meta.placement.label(),
                new_placement=new_placement.label(),
                error=type(exc).__name__,
            )
            return outcome
        self.journal.emit(
            "migration.committed",
            key=object_key,
            period=period,
            old_placement=meta.placement.label(),
            new_placement=new_placement.label(),
            repair=needs_repair,
            chosen_d=best_d,
            **placement_fields,
            **appraisal.event_fields(),
        )
        outcome.migrated = True
        outcome.repaired = needs_repair
        return outcome

    def _search_candidates(
        self,
        row_key: str,
        period: int,
        meta: ObjectMeta,
        rule,
        candidates,
        specs,
    ):
        """Best (decision, d) over the decision-period candidates, by the
        cost *rate* with the placement engine's total order as tie-break."""
        best: Optional[PlacementDecision] = None
        best_rate = math.inf
        best_d: Optional[int] = None
        for d in candidates:
            history = self.stats.history(row_key, period, d)
            projection = AccessProjection.from_history(history, meta.size)
            try:
                decision = self.placement_engine.best_placement(
                    specs, rule, projection, float(d)
                )
            except PlacementError:
                continue
            rate = decision.expected_cost / d
            if rate < best_rate - 1e-18 or (
                rate <= best_rate and best is not None
                and self.placement_engine.better(decision, best)
            ):
                best, best_rate, best_d = decision, rate, d
        return best, best_d

    def _appraise_migration(
        self,
        meta: ObjectMeta,
        new_placement: Placement,
        window_d: int,
        now: float,
        period: int,
    ) -> MigrationAppraisal:
        """Price the move; worth it when the saving covers the migration.

        The saving is projected over the object's *expected remaining
        lifetime* (TTL hint or class statistics; :data:`BENEFIT_HORIZON_PERIODS`
        when unknown) — a migration that only pays off long after the
        object is deleted must not happen, while slow storage-price savings
        on long-lived objects must (Section IV-B's post-crowd move back to
        the storage-cheapest set).  The full rationale is returned (and
        journaled by the caller) rather than collapsed to a bool, so
        ``repro explain`` can replay the decision from its recorded inputs.
        """
        try:
            old_specs = [self.registry.get(p).spec for p in meta.placement.providers]
        except KeyError:
            # A provider left the pool entirely: must move.
            return MigrationAppraisal(worth=True, reason="pool-left")
        new_specs = [self.registry.get(p).spec for p in new_placement.providers]
        readable = [s for s in old_specs if self.registry.is_available(s.name)]
        if len(readable) < meta.m:
            # Cannot reconstruct right now.
            return MigrationAppraisal(worth=False, reason="unreadable")

        age = max(0.0, now - meta.created_at)
        if meta.ttl_hint is not None:
            ttl: Optional[float] = max(0.0, meta.ttl_hint - age)
        else:
            ttl = self.class_stats.expected_remaining(meta.class_key, age)
        if ttl is not None:
            horizon = max(1.0, ttl / self.cost_model.period_hours)
        else:
            horizon = float(BENEFIT_HORIZON_PERIODS)
        horizon = max(horizon, float(window_d))

        history = self.stats.history(_row_key_of(meta), period, window_d)
        projection = AccessProjection.from_history(history, meta.size)
        current_cost = self.cost_model.expected_cost(
            old_specs, meta.m, projection, horizon
        )
        new_cost = self.cost_model.expected_cost(
            new_specs, new_placement.m, projection, horizon
        )
        migration = self.cost_model.migration_cost(
            old_specs,
            meta.m,
            new_specs,
            new_placement.m,
            meta.size,
            readable_old=readable,
        )
        worth = current_cost - new_cost > migration
        return MigrationAppraisal(
            worth=worth,
            reason="saving" if worth else "not-worth",
            current_cost=current_cost,
            new_cost=new_cost,
            migration_cost=migration,
            horizon_periods=horizon,
            projection=projection,
        )


def _row_key_of(meta: ObjectMeta) -> str:
    from repro.util.ids import object_row_key

    return object_row_key(meta.container, meta.key)
