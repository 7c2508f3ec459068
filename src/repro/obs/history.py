"""In-process time series: a ring of downsampled metrics snapshots.

``GET /metrics`` is a point-in-time scrape; this module keeps *trend*.
A :class:`MetricsHistory` owns a sampler callback (the broker wires one
that reads its registry and cost model) and a bounded ring of
``(timestamp, {series: value})`` snapshots taken at a fixed minimum
interval:

    history = MetricsHistory(sampler=broker_sampler, interval_s=10.0)
    history.maybe_sample()            # no-op until the interval elapsed
    history.series("requests.total", window_s=300.0)

Sampling is *pull-through*: the gateway calls :meth:`maybe_sample` when
``/history`` or ``/alerts`` is scraped and the broker calls it from its
control-plane tick, so an idle broker records nothing and there is no
dedicated thread.  The interval guard makes both call sites safe to
invoke at any frequency.

Series are flat dotted names (``requests.total``, ``errors.total``,
``provider.up.S3(l)``, ``cost.projected_per_period`` …).  Cumulative
counters are stored as-is; :meth:`rate` and :meth:`delta` difference
them over a window, treating a decrease as a restart (the negative step
is skipped, not summed).  Latency distributions are stored as their raw
cumulative bucket counts (``request.bucket.<le>``) so :meth:`quantile`
can compute a *windowed* p99 from bucket deltas — a lifetime p99 would
never move again after the first million requests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import quantile_from_buckets

__all__ = ["MetricsHistory"]

#: Default ring: 720 snapshots at the default 10 s interval = 2 hours.
DEFAULT_CAPACITY = 720
DEFAULT_INTERVAL_S = 10.0

Sampler = Callable[[], Dict[str, float]]


class MetricsHistory:
    """Fixed-interval downsampled snapshots of a metrics sampler."""

    def __init__(
        self,
        sampler: Optional[Sampler] = None,
        enabled: bool = True,
        capacity: int = DEFAULT_CAPACITY,
        interval_s: float = DEFAULT_INTERVAL_S,
        clock=time.time,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if interval_s < 0:
            raise ValueError("interval_s must be >= 0")
        self.enabled = enabled
        self.capacity = capacity
        self.interval_s = interval_s
        self._sampler = sampler
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: Deque[Tuple[float, Dict[str, float]]] = deque(maxlen=capacity)
        self._last_sample = -float("inf")
        self._samples_taken = 0
        self._sampler_errors = 0

    # -- sampling ----------------------------------------------------------

    def maybe_sample(self, now: Optional[float] = None, force: bool = False, sampler=None) -> bool:
        """Take a snapshot if the interval elapsed; returns True if taken.

        ``sampler`` reads it in place of the ring's own (a scrape hands
        in one over what it already collected).  Sampler exceptions are
        counted and swallowed — a broken collector must never take the
        serving path down with it.
        """
        sampler = sampler or self._sampler
        if not self.enabled or sampler is None:
            return False
        if now is None:
            now = self._clock()
        with self._lock:
            if not force and now - self._last_sample < self.interval_s:
                return False
            # Claim the slot before sampling so concurrent scrapes don't
            # double-sample; an error still consumes the interval.
            self._last_sample = now
        try:
            values = dict(sampler())
        except Exception:
            with self._lock:
                self._sampler_errors += 1
            return False
        with self._lock:
            self._ring.append((now, values))
            self._samples_taken += 1
        return True

    def record(self, values: Dict[str, float], now: Optional[float] = None) -> None:
        """Append a snapshot directly (tests, samplerless use)."""
        if not self.enabled:
            return
        if now is None:
            now = self._clock()
        with self._lock:
            self._ring.append((now, dict(values)))
            self._last_sample = now
            self._samples_taken += 1

    # -- queries -----------------------------------------------------------

    def snapshots(self, window_s: Optional[float] = None) -> List[Tuple[float, Dict[str, float]]]:
        """Snapshots (oldest first), optionally only the last ``window_s``."""
        with self._lock:
            snaps = list(self._ring)
        if window_s is not None and snaps:
            cutoff = snaps[-1][0] - window_s
            snaps = [(ts, values) for ts, values in snaps if ts >= cutoff]
        return snaps

    def names(self) -> List[str]:
        """Sorted union of series names across the ring."""
        seen = set()
        with self._lock:
            for _, values in self._ring:
                seen.update(values)
        return sorted(seen)

    def series(self, name: str, window_s: Optional[float] = None) -> List[Tuple[float, float]]:
        """``(ts, value)`` points for one series over the window."""
        return [
            (ts, values[name])
            for ts, values in self.snapshots(window_s)
            if name in values
        ]

    def latest(self, name: str) -> Optional[float]:
        with self._lock:
            for _, values in reversed(self._ring):
                if name in values:
                    return values[name]
        return None

    def delta(self, name: str, window_s: float) -> Optional[float]:
        """Counter increase over the window (restart-safe); None if < 2 points."""
        points = self.series(name, window_s)
        if len(points) < 2:
            return None
        total = 0.0
        for (_, prev), (_, cur) in zip(points, points[1:]):
            step = cur - prev
            if step > 0:
                total += step
        return total

    def rate(self, name: str, window_s: float) -> Optional[float]:
        """Counter increase per second over the window; None if < 2 points."""
        points = self.series(name, window_s)
        if len(points) < 2:
            return None
        span = points[-1][0] - points[0][0]
        if span <= 0:
            return None
        increase = self.delta(name, window_s)
        if increase is None:
            return None
        return increase / span

    def quantile(self, bucket_prefix: str, q: float, window_s: float) -> Optional[float]:
        """Windowed quantile from cumulative-bucket series.

        Series named ``<bucket_prefix><le>`` (``le`` a float or ``inf``)
        are differenced over the window and fed to
        :func:`quantile_from_buckets`.  Returns None when the window saw
        no observations.
        """
        snaps = self.snapshots(window_s)
        if len(snaps) < 2:
            return None
        first, last = snaps[0][1], snaps[-1][1]
        bounds: List[float] = []
        deltas: Dict[float, float] = {}
        for name, end_value in last.items():
            if not name.startswith(bucket_prefix):
                continue
            try:
                bound = float(name[len(bucket_prefix):])
            except ValueError:
                continue
            start_value = first.get(name, 0.0)
            step = end_value - start_value
            if step < 0:  # restart: the whole cumulative count is new
                step = end_value
            bounds.append(bound)
            deltas[bound] = step
        if not bounds:
            return None
        bounds.sort()
        cumulative = [deltas[b] for b in bounds]
        # Re-cumulate defensively: bucket series are cumulative already,
        # but restart handling can briefly break monotonicity.
        for i in range(1, len(cumulative)):
            if cumulative[i] < cumulative[i - 1]:
                cumulative[i] = cumulative[i - 1]
        total = cumulative[-1]
        if total <= 0:
            return None
        finite = [b for b in bounds if b != float("inf")]
        if not finite:
            return None
        # quantile_from_buckets wants the finite bounds plus a cumulative
        # list that includes the +Inf bucket's entry.
        return quantile_from_buckets(finite, cumulative, total, q)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._ring),
                "capacity": self.capacity,
                "interval_s": self.interval_s,
                "samples_taken": self._samples_taken,
                "sampler_errors": self._sampler_errors,
            }

    def to_dict(
        self,
        series: Optional[str] = None,
        window_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """The ``GET /history`` document.

        ``series`` filters by exact name, or by prefix when it ends with
        a dot; None returns everything.
        """
        snaps = self.snapshots(window_s)
        out: Dict[str, List[List[float]]] = {}
        for ts, values in snaps:
            for name, value in values.items():
                if series is not None:
                    if series.endswith("."):
                        if not name.startswith(series):
                            continue
                    elif name != series:
                        continue
                out.setdefault(name, []).append([round(ts, 3), value])
        return {
            "interval_s": self.interval_s,
            "window_s": window_s,
            "snapshots": len(snaps),
            "series": out,
        }
