"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloRule` states an objective — availability, p99 latency, or
a cost budget — and the :class:`SloMonitor` evaluates it over the
:class:`~repro.obs.history.MetricsHistory` ring on two windows (a fast
one to catch fires, a slow one to ignore blips):

    rules = [parse_slo_rule("availability:target=99.5,fast=60s,slow=300s"),
             parse_slo_rule("p99:target=250ms"),
             parse_slo_rule("cost_gb:target=0.05")]
    monitor = SloMonitor(history, rules)
    monitor.evaluate()          # -> alert states for GET /alerts

The **burn rate** is "how fast is the error budget being spent": 1.0
means exactly on target, N means the budget burns N× too fast.

- ``availability``: windowed error rate over the windowed request count,
  divided by the budget ``1 - target`` (so 99.5% target and a 1% error
  rate burn at 2.0).
- ``p99``: the *windowed* p99 (from bucket deltas, see
  :meth:`MetricsHistory.quantile`) over the target latency.
- ``cost_gb``: the latest projected $/GB/period over the budget.

An alert **fires** when every window burns above the rule's threshold
and **resolves** when the fast window drops back under it — the classic
multi-window compromise between detection speed and flap resistance.
Windows with no data burn at 0.0 (an idle broker is never on fire).

State transitions are journaled (``alert.fired`` / ``alert.resolved``)
when a journal is attached, and the broker exports the evaluation as
``scalia_slo_burn_rate{slo,window}`` and ``scalia_alert_active{slo}``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import EventJournal, resolve_journal
from repro.obs.history import MetricsHistory
from repro.util.units import parse_duration

__all__ = ["SloRule", "SloMonitor", "parse_slo_rule", "DEFAULT_SLO_RULES"]

KINDS = ("availability", "p99", "cost_gb")

#: Series names the broker sampler records (see Scalia._history_sample).
SERIES_REQUESTS = "requests.total"
SERIES_ERRORS = "errors.total"
BUCKET_PREFIX = "request.bucket."
SERIES_COST_GB = "cost.per_gb_period"


@dataclass(frozen=True)
class SloRule:
    """One objective evaluated over the history ring."""

    kind: str                    # availability | p99 | cost_gb
    target: float                # fraction, milliseconds, or $/GB/period
    name: str = ""
    fast_s: float = 60.0
    slow_s: float = 300.0
    threshold: float = 1.0       # burn rate at/above which the rule is hot

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.target <= 0:
            raise ValueError("SLO target must be > 0")
        if self.kind == "availability" and not self.target < 1.0:
            raise ValueError("availability target must be < 1 (a fraction)")
        if self.fast_s <= 0 or self.slow_s <= 0:
            raise ValueError("SLO windows must be > 0")
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "fast_s": self.fast_s,
            "slow_s": self.slow_s,
            "threshold": self.threshold,
        }


def _fraction(text: str) -> float:
    """A plain number, or a percentage: ``99.5%`` is 0.995."""
    text = text.strip()
    return float(text[:-1]) / 100.0 if text.endswith("%") else float(text)


def parse_slo_rule(spec: str) -> SloRule:
    """Parse a CLI rule spec: ``kind[:key=value,...]``.

    Examples::

        availability:target=99.5%,fast=30s,slow=120s
        p99:target=250ms
        cost_gb:target=0.05,name=storage-budget

    ``target`` for availability accepts a percentage (``99.5`` or
    ``99.5%`` both mean 0.995); for p99 it is a duration, milliseconds
    when bare (``250``, ``250ms``, ``0.25s``); for cost_gb it is
    $/GB/period.  ``fast`` and ``slow`` are durations, seconds when bare
    (``60``, ``500ms``, ``5m``); see :func:`~repro.util.units.parse_duration`.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise ValueError(f"unknown SLO kind {kind!r} (expected one of {', '.join(KINDS)})")
    kwargs: Dict[str, object] = {}
    if rest:
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed SLO option {part!r} (expected key=value)")
            key = key.strip()
            if key == "name":
                kwargs["name"] = value.strip()
            elif key in ("fast", "slow"):
                kwargs[f"{key}_s"] = parse_duration(value)
            elif key == "target" and kind == "p99":
                kwargs["target"] = parse_duration(value, unit="ms")
            elif key in ("target", "threshold"):
                parsed = _fraction(value)
                if key == "target" and kind == "availability" and parsed >= 1.0:
                    parsed /= 100.0  # bare "99.5" means a percentage
                kwargs[key] = parsed
            else:
                raise ValueError(f"unknown SLO option {key!r}")
    if "target" not in kwargs:
        raise ValueError(f"SLO rule {spec!r} needs target=")
    return SloRule(kind=kind, **kwargs)


#: Sensible defaults for `repro serve`: three nines of availability and
#: a quarter-second p99 (add a cost_gb rule explicitly via --slo).
DEFAULT_SLO_RULES = (
    SloRule(kind="availability", target=0.999),
    SloRule(kind="p99", target=250.0),
)


@dataclass
class _AlertState:
    rule: SloRule
    active: bool = False
    fired_at: Optional[float] = None
    resolved_at: Optional[float] = None
    fired_count: int = 0
    burn: Dict[str, float] = field(default_factory=dict)


class SloMonitor:
    """Evaluates rules over the history ring and tracks alert state."""

    def __init__(
        self,
        history: MetricsHistory,
        rules=DEFAULT_SLO_RULES,
        journal: Optional[EventJournal] = None,
        clock=time.time,
    ) -> None:
        self.history = history
        self.rules = list(rules)
        self.journal = resolve_journal(journal)
        self._clock = clock
        self._lock = threading.Lock()
        self._states = {rule.name: _AlertState(rule) for rule in self.rules}

    # -- burn rates --------------------------------------------------------

    def _burn(self, rule: SloRule, window_s: float) -> float:
        if rule.kind == "availability":
            requests = self.history.delta(SERIES_REQUESTS, window_s)
            errors = self.history.delta(SERIES_ERRORS, window_s)
            if not requests:
                return 0.0
            error_rate = (errors or 0.0) / requests
            budget = 1.0 - rule.target
            return error_rate / budget if budget > 0 else 0.0
        if rule.kind == "p99":
            p99_s = self.history.quantile(BUCKET_PREFIX, 0.99, window_s)
            if p99_s is None:
                return 0.0
            return (p99_s * 1000.0) / rule.target
        if rule.kind == "cost_gb":
            points = self.history.series(SERIES_COST_GB, window_s)
            if not points:
                return 0.0
            mean = sum(v for _, v in points) / len(points)
            return mean / rule.target
        return 0.0

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """Recompute every rule's burn and step the alert state machine."""
        if now is None:
            now = self._clock()
        out = []
        with self._lock:
            for rule in self.rules:
                state = self._states[rule.name]
                fast = self._burn(rule, rule.fast_s)
                slow = self._burn(rule, rule.slow_s)
                state.burn = {"fast": round(fast, 4), "slow": round(slow, 4)}
                if not state.active and fast >= rule.threshold and slow >= rule.threshold:
                    state.active = True
                    state.fired_at = now
                    state.resolved_at = None
                    state.fired_count += 1
                    self.journal.emit(
                        "alert.fired", key=rule.name, kind=rule.kind,
                        target=rule.target, burn_fast=state.burn["fast"],
                        burn_slow=state.burn["slow"],
                    )
                elif state.active and fast < rule.threshold:
                    state.active = False
                    state.resolved_at = now
                    self.journal.emit(
                        "alert.resolved", key=rule.name, kind=rule.kind,
                        burn_fast=state.burn["fast"],
                    )
                out.append(self._describe_state(state))
        return out

    def _describe_state(self, state: _AlertState) -> Dict[str, object]:
        doc = state.rule.describe()
        doc.update(
            active=state.active,
            burn=dict(state.burn),
            fired_at=state.fired_at,
            resolved_at=state.resolved_at,
            fired_count=state.fired_count,
        )
        return doc

    def active_alerts(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                self._describe_state(state)
                for state in self._states.values()
                if state.active
            ]

    def to_dict(self, now: Optional[float] = None) -> Dict[str, object]:
        """The ``GET /alerts`` document (evaluates first)."""
        alerts = self.evaluate(now)
        return {
            "rules": [rule.describe() for rule in self.rules],
            "alerts": alerts,
            "active": [a for a in alerts if a["active"]],
        }
