"""Thread-safe metrics primitives and the registry that renders them.

Design constraints, in order:

1. **Hot-path cheap.**  A histogram observation is one C-speed
   :func:`bisect.bisect_left` plus two list-item increments on a
   *thread-local* shard — no lock at all, since each thread is the sole
   writer of its shard and the GIL keeps the increments untorn for the
   scrape-time fold.  Counters and gauges accumulate into per-thread
   cells the same way.  Per-thread storage is keyed by thread ident, so
   the short-lived threads the hedged-read path spawns adopt recycled
   shards instead of growing the shard map (and paying registration)
   per request.  When the registry is *disabled* every family
   hands out a shared no-op child and ``registry.enabled`` lets call
   sites skip the ``perf_counter()`` bracketing entirely — this is what
   ``repro serve --no-metrics`` and the bench overhead guard measure.

2. **No dependencies.**  The Prometheus text exposition (format 0.0.4:
   ``# HELP``/``# TYPE`` comments, ``_bucket{le=...}``/``_sum``/
   ``_count`` histogram series) is rendered by hand; the JSON variant
   additionally carries interpolated p50/p95/p99 so ``repro top`` never
   has to re-derive quantiles client-side.  Every rendering, the worker
   push and the history sampler read one plain snapshot,
   :meth:`MetricsRegistry.collect`; only the JSON rendering computes
   quantiles.

3. **Exact-ish quantiles.**  Percentiles come from linear interpolation
   inside the bucket where the target rank falls, so the estimate is
   wrong by at most the width of that bucket (property-tested in
   ``tests/obs/test_metrics.py``).

Gauges that mirror state owned elsewhere (queue depths, breaker states,
stored bytes) are fed by *collector callbacks* registered with
:meth:`MetricsRegistry.add_collector` and invoked only at scrape time —
zero cost on the data path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from threading import get_ident
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Default latency buckets in seconds: 0.5 ms up to 10 s, roughly
#: logarithmic.  Wide enough for WAL fsyncs and injected 500 ms faults,
#: fine enough near the bottom to separate cache hits from chunk reads.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus clients expect.

    Integral values print without the trailing ``.0`` so counters look
    like counters; everything else uses repr-precision floats.
    """
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def quantile_from_buckets(
    bounds: Sequence[float],
    cumulative: Sequence[int],
    total: int,
    q: float,
) -> float:
    """Estimate the ``q``-quantile from cumulative bucket counts.

    ``bounds`` are the finite upper bounds; ``cumulative`` has one extra
    entry for the ``+Inf`` bucket.  Linear interpolation inside the
    crossing bucket bounds the error by that bucket's width.  Ranks that
    land in the ``+Inf`` bucket clamp to the largest finite bound — the
    honest answer ("somewhere above 10 s") isn't a number.
    """
    if total <= 0:
        return 0.0
    rank = q * total
    for index, count in enumerate(cumulative):
        if count >= rank:
            if index >= len(bounds):
                return bounds[-1] if bounds else 0.0
            upper = bounds[index]
            lower = bounds[index - 1] if index > 0 else 0.0
            below = cumulative[index - 1] if index > 0 else 0
            in_bucket = count - below
            if in_bucket <= 0:
                return upper
            fraction = (rank - below) / in_bucket
            return lower + (upper - lower) * min(1.0, max(0.0, fraction))
    return bounds[-1] if bounds else 0.0


class Counter:
    """Monotonically increasing sample (one labelled child).

    ``inc`` is lock-free: each thread accumulates into a private cell it
    alone mutates (a one-element list, so the += is a C-level item
    assignment kept untorn by the GIL).  Cells are keyed by
    :func:`threading.get_ident` rather than ``threading.local`` on
    purpose: the hedged-read path spawns a short-lived thread per chunk
    fetch, and ident recycling lets each new thread *adopt* a dead
    thread's cell — steady state pays no first-touch registration and the
    cell map is bounded by peak thread concurrency, not threads ever
    created.  ``value`` folds the cells; the lock guards only the cell
    *map* and the ``set_total`` base.
    """

    __slots__ = ("_lock", "_cells", "_base", "_external")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: Dict[int, List[float]] = {}
        self._base = 0.0
        self._external: Dict[str, float] = {}

    def _cell(self, ident: int) -> List[float]:
        with self._lock:
            return self._cells.setdefault(ident, [0.0])

    def inc(self, amount: float = 1.0) -> None:
        ident = get_ident()
        cell = self._cells.get(ident)
        if cell is None:
            cell = self._cell(ident)
        cell[0] += amount

    def set_total(self, value: float) -> None:
        """Overwrite the running total.

        For collectors that mirror a monotonic counter maintained
        elsewhere (e.g. :class:`~repro.cluster.hedging.HedgeStats`) —
        still a counter to scrapers, just not incremented here.
        """
        with self._lock:
            self._base = float(value) - sum(c[0] for c in self._cells.values())

    def set_external(self, source: str, value: float) -> None:
        """Set ``source``'s additive contribution to this counter.

        External contributions (per-worker snapshots folded in by the
        broker's aggregator) add to — never clobber — locally incremented
        samples.  Re-setting the same source is idempotent.
        """
        with self._lock:
            self._external[source] = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return (
                self._base
                + sum(c[0] for c in self._cells.values())
                + sum(self._external.values())
            )


class Gauge(Counter):
    """Point-in-time sample that can go up and down: a :class:`Counter`
    cell that also decrements, and whose ``set`` rebases the total."""

    __slots__ = ()

    set = Counter.set_total

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket latency histogram with lock-free thread-local shards.

    Each thread owns a private shard it alone mutates, so ``observe``
    takes no lock: under the GIL every ``counts[i] += 1`` is a private
    read-modify-write, and a concurrent scrape reading another thread's
    shard sees either the old or the new int — never a torn value.
    Shards are keyed by :func:`threading.get_ident` (see :class:`Counter`
    for why: short-lived hedge threads adopt recycled idents' shards, so
    the map stays bounded and steady state never re-registers).  The
    shard *map* is guarded by a lock taken only on an ident's first
    observation and at scrape.  The snapshot is per-shard-consistent,
    not globally atomic: ``total`` can momentarily exceed the folded
    ``sum``'s sample count by in-flight observations, which scrapers by
    design tolerate.
    """

    __slots__ = ("bounds", "_nbuckets", "_shards", "_lock", "_external")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._nbuckets = len(self.bounds) + 1  # +1 for the +Inf bucket
        # Each shard is a flat list: one count per bucket, then one
        # trailing cell accumulating the sum of observed values.  List
        # item increments beat attribute read-modify-writes on the hot
        # path, and the sample total is just the folded bucket counts.
        self._shards: Dict[int, List[float]] = {}
        self._lock = threading.Lock()
        # source -> (per-bucket counts incl. +Inf, sum): additive external
        # contributions (worker snapshots), folded into every snapshot.
        self._external: Dict[str, Tuple[List[int], float]] = {}

    def _shard(self, ident: int) -> List[float]:
        with self._lock:
            return self._shards.setdefault(
                ident, [0] * self._nbuckets + [0.0]
            )

    def observe(self, value: float) -> None:
        ident = get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            shard = self._shard(ident)
        shard[bisect_left(self.bounds, value)] += 1
        shard[-1] += value

    def set_external(
        self, source: str, cumulative: Sequence[int], total_sum: float
    ) -> None:
        """Record an additive external contribution (a worker snapshot).

        ``cumulative`` is a cumulative bucket-count list including the
        ``+Inf`` bucket, as produced by :meth:`snapshot` on the remote
        side; it replaces any prior contribution from ``source`` without
        touching local observations.  Lists of the wrong arity (a peer
        with different bounds) are rejected.
        """
        if len(cumulative) != self._nbuckets:
            raise ValueError(
                f"external snapshot has {len(cumulative)} buckets, "
                f"expected {self._nbuckets}"
            )
        with self._lock:
            self._external[source] = ([int(c) for c in cumulative], float(total_sum))

    def snapshot(self) -> Tuple[List[int], int, float]:
        """Fold the shards: (cumulative bucket counts, total, sum).

        The cumulative list has ``len(bounds) + 1`` entries; the last is
        the ``+Inf`` bucket and equals ``total``.
        """
        counts = [0] * self._nbuckets
        acc = 0.0
        with self._lock:
            shards = list(self._shards.values())
            external = list(self._external.values())
        for shard in shards:
            for i in range(self._nbuckets):
                counts[i] += shard[i]
            acc += shard[-1]
        running = 0
        cumulative = []
        for c in counts:
            running += c
            cumulative.append(running)
        for ext_cum, ext_sum in external:
            for i in range(self._nbuckets):
                cumulative[i] += ext_cum[i]
            acc += ext_sum
        return cumulative, (cumulative[-1] if cumulative else 0), acc

    def quantile(self, q: float) -> float:
        cumulative, total, _ = self.snapshot()
        return quantile_from_buckets(self.bounds, cumulative, total, q)


class _NullChild:
    """Shared no-op stand-in for every metric type when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def set_external(self, source: str, *args) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self):
        return [], 0, 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    @property
    def value(self) -> float:
        return 0.0


_NULL_CHILD = _NullChild()


class MetricFamily:
    """One named metric with a fixed label schema and cached children.

    ``labels(*values)`` returns the child for that label combination,
    creating it on first use; call sites on the hot path resolve their
    children once up front.  A family declared with no label names *is*
    its single child — ``inc``/``set``/``observe`` proxy straight
    through.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        factory: Callable[[], object],
        enabled: bool,
        bounds: Tuple[float, ...] = (),
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        #: A histogram's finite bucket bounds, sorted; empty otherwise.
        self.bounds = bounds
        self._factory = factory
        self._enabled = enabled
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        # Unlabelled families resolve their single child here so the
        # convenience proxies (inc/observe/...) skip labels() entirely.
        self._default_child: object = _NULL_CHILD
        if not self.labelnames and enabled:
            self._default_child = self._children[()] = factory()

    def labels(self, *values: object):
        if not self._enabled:
            return _NULL_CHILD
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._factory()
                    self._children[key] = child
        return child

    def _default(self):
        if self._default_child is not _NULL_CHILD or not self._enabled:
            return self._default_child
        return self.labels()

    # Unlabelled convenience proxies.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_total(self, value: float) -> None:
        self._default().set_total(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    def snapshot(self):
        return self._default().snapshot()

    def quantile(self, q: float) -> float:
        return self._default().quantile(q)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Names and renders every metric family in one broker process.

    Per-broker, not module-global, so concurrently running tests (or
    two brokers in one process) never cross-contaminate series.  A
    registry built with ``enabled=False`` keeps the full family API but
    every child is a shared no-op — the ``--no-metrics`` configuration.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []
        self._readers: List[Callable[[Dict[str, dict]], None]] = []

    # -- declaration ----------------------------------------------------

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        factory: Callable[[], object],
        bounds: Tuple[float, ...] = (),
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, help_text, kind, labelnames, factory, self.enabled, bounds
                )
                self._families[name] = family
            elif (family.kind, family.labelnames, family.bounds) != (
                kind, tuple(labelnames), bounds
            ):
                raise ValueError(
                    f"metric {name!r} re-registered with a different schema"
                )
            return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help_text, "counter", labelnames, Counter)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help_text, "gauge", labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        bounds = tuple(sorted(buckets))
        return self._family(
            name, help_text, "histogram", labelnames, lambda: Histogram(bounds), bounds
        )

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a scrape-time callback that refreshes gauge values."""
        with self._lock:
            self._collectors.append(fn)

    def add_reader(self, fn: Callable[[Dict[str, dict]], None]) -> None:
        """Register a callback handed every :meth:`collect` snapshot once
        the collectors ran: what reads the registry on each scrape reads
        the scrape's own snapshot instead of collecting again."""
        with self._lock:
            self._readers.append(fn)

    # -- scraping -------------------------------------------------------

    def _run(self, callbacks: List[Callable], *args) -> None:
        with self._lock:
            callbacks = list(callbacks)
        for fn in callbacks:
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 — a broken collector must
                pass  # never take down /metrics.

    def _sorted_families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> Dict[str, dict]:
        """Run the collectors once and read every family that has a child.

        Returns ``{name: family}`` in name order, each family a plain dict
        of ``kind``, ``help``, ``labels`` (the label names), ``bounds``
        (a histogram's finite bucket bounds; histograms only) and
        ``children``: ``[label values, state]`` pairs in label order.  A
        counter's or gauge's state is its value; a histogram's is
        ``[cumulative bucket counts, +Inf included, sum]``.  Plain lists
        and dicts throughout, so a snapshot crosses the ops RPC as it is:
        every rendering and every other reader of the registry walks one.
        """
        self._run(self._collectors)
        snapshot: Dict[str, dict] = {}
        for family in self._sorted_families():
            children = family.children()
            if not children:
                continue
            entry = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
            }
            if family.kind == "histogram":
                entry["bounds"] = list(family.bounds)
            states = []
            for values, child in children:
                if family.kind == "histogram":
                    cumulative, _, acc = child.snapshot()
                    state = [cumulative, acc]
                else:
                    state = child.value
                states.append([list(values), state])
            entry["children"] = states
            snapshot[family.name] = entry
        self._run(self._readers, snapshot)
        return snapshot

    def render_text(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        return _expose(self.collect(), _TEXT)

    def render_openmetrics(self) -> str:
        """OpenMetrics 1.0 text exposition."""
        return _expose(self.collect(), _OPENMETRICS)

    def render_json(self) -> dict:
        """JSON scrape with interpolated quantiles for each histogram."""
        families: Dict[str, dict] = {}
        for name, family in self.collect().items():
            names = family["labels"]
            samples = []
            for values, state in family["children"]:
                sample = {"labels": dict(zip(names, values))}
                if family["kind"] == "histogram":
                    bounds = family["bounds"]
                    cumulative, acc = state
                    total = cumulative[-1]
                    sample.update(count=total, sum=acc)
                    for key, q in _QUANTILES:
                        sample[key] = quantile_from_buckets(bounds, cumulative, total, q)
                    sample["buckets"] = [list(pair) for pair in zip(bounds, cumulative)]
                else:
                    sample["value"] = state
                samples.append(sample)
            families[name] = {
                "type": family["kind"],
                "help": family["help"],
                "samples": samples,
            }
        return {"metrics": families}


class _Format(NamedTuple):
    """What sets one text exposition format apart from the other."""

    #: Counter metadata drops a ``_total`` suffix and counter samples
    #: always carry one (OpenMetrics); otherwise both use the family name.
    counter_total_suffix: bool
    #: The series a histogram child ends with, after its buckets.
    tail: Tuple[str, str]
    #: The lines after the last family.
    end: Tuple[str, ...]


#: Prometheus text format 0.0.4.
_TEXT = _Format(False, ("sum", "count"), ())
#: OpenMetrics 1.0.
_OPENMETRICS = _Format(True, ("count", "sum"), ("# EOF",))

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _expose(snapshot: Dict[str, dict], fmt: _Format) -> str:
    """Write a :meth:`MetricsRegistry.collect` snapshot in ``fmt``."""
    lines: List[str] = []
    for name, family in snapshot.items():
        kind, names = family["kind"], family["labels"]
        meta = sample = name
        if kind == "counter" and fmt.counter_total_suffix:
            meta = name[: -len("_total")] if name.endswith("_total") else name
            sample = meta + "_total"
        lines.append(f"# HELP {meta} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {meta} {kind}")
        if kind != "histogram":
            for values, value in family["children"]:
                lines.append(f"{sample}{_render_labels(names, values)} {_format_value(value)}")
            continue
        les = [_format_value(bound) for bound in family["bounds"]] + ["+Inf"]
        for values, (cumulative, acc) in family["children"]:
            for le, count in zip(les, cumulative):
                rendered = _render_labels(names + ["le"], values + [le])
                lines.append(f"{sample}_bucket{rendered} {count}")
            plain = _render_labels(names, values)
            tail = {"sum": _format_value(acc), "count": cumulative[-1]}
            lines.extend(f"{sample}_{series}{plain} {tail[series]}" for series in fmt.tail)
    lines.extend(fmt.end)
    return "\n".join(lines) + "\n" if lines else ""


#: Shared disabled registry: the default for components constructed
#: without one, so instrumented code never needs ``if metrics:`` checks.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def resolve(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Map ``None`` to the shared disabled registry."""
    return metrics if metrics is not None else NULL_REGISTRY
