"""Spans recorded by the benchmark around its own calls, and their arithmetic.

A traced run replays one sampled request at every depth of the stack
(HTTP client, frontend, broker, engine, then the leaf calls with the same
arguments).  Each call is one span; the spans of one sampled request
share a trace id and point at the span of the next-outer depth.  A
layer's self time is its inclusive time minus its children's, taken per
request and summarised as a median.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: ``(trace, span, parent, name, start_ns, end_ns)``; parent -1 = root.
Span = Tuple[int, int, int, str, int, int]


class Spans:
    """An in-memory span log."""

    def __init__(self) -> None:
        self.rows: List[Span] = []

    def call(self, trace: int, parent: int, name: str, fn: Callable[[], object]):
        """Run ``fn`` inside a span; returns ``(span id, fn's result)``."""
        span_id = len(self.rows)
        self.rows.append(None)  # reserve the id: children may be recorded first
        start = time.perf_counter_ns()
        result = fn()
        end = time.perf_counter_ns()
        self.rows[span_id] = (trace, span_id, parent, name, start, end)
        return span_id, result

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for trace, span, parent, name, start, end in self.rows:
                fh.write(
                    json.dumps(
                        {
                            "trace": trace, "span": span,
                            "parent": None if parent < 0 else parent,
                            "name": name, "start_ns": start, "end_ns": end,
                        }
                    )
                    + "\n"
                )

    def inclusive_by_trace(self) -> Dict[int, Dict[str, int]]:
        """Per trace, the summed duration of the spans of each name."""
        out: Dict[int, Dict[str, int]] = {}
        for trace, _span, _parent, name, start, end in self.rows:
            layers = out.setdefault(trace, {})
            layers[name] = layers.get(name, 0) + (end - start)
        return out


def self_times(
    inclusive: Mapping[str, float], children: Mapping[str, Sequence[str]]
) -> Dict[str, float]:
    """Inclusive time of each layer minus the inclusive time of its children.

    Children absent from ``inclusive`` (a layer the request never
    entered) count as zero.  The result can dip below zero by the
    measurement noise when a layer does almost nothing; it is reported as
    measured, not clamped.
    """
    return {
        layer: value - sum(inclusive.get(child, 0.0) for child in children.get(layer, ()))
        for layer, value in inclusive.items()
    }


def summarise(
    per_trace: Sequence[Mapping[str, float]], children: Mapping[str, Sequence[str]]
) -> Dict[str, Tuple[float, float]]:
    """Median ``(inclusive, self)`` of every layer over the sampled requests."""
    inclusive: Dict[str, List[float]] = {}
    selfs: Dict[str, List[float]] = {}
    for layers in per_trace:
        own = self_times(layers, children)
        for layer, value in layers.items():
            inclusive.setdefault(layer, []).append(value)
            selfs.setdefault(layer, []).append(own[layer])
    return {
        layer: (statistics.median(values), statistics.median(selfs[layer]))
        for layer, values in inclusive.items()
    }


def render(
    title: str,
    order: Sequence[str],
    summary: Mapping[str, Tuple[float, float]],
    samples: int,
) -> List[str]:
    """The waterfall of one op: layer, inclusive us, self us, share of the root."""
    present = [layer for layer in order if layer in summary]
    if not present:
        return []
    root = summary[present[0]][0]
    total_self = sum(summary[layer][1] for layer in present)
    lines = [
        f"-- waterfall: {title} ({samples} sampled requests, medians, us)",
        f"   {'layer':<24} {'inclusive':>12} {'self':>12} {'share':>7}",
    ]
    for layer in present:
        incl, own = summary[layer]
        lines.append(
            f"   {layer:<24} {incl / 1e3:>12.1f} {own / 1e3:>12.1f} {own / root * 100:>6.1f}%"
        )
    lines.append(
        f"   {'sum of self times':<24} {'':>12} {total_self / 1e3:>12.1f} "
        f"{total_self / root * 100:>6.1f}%  (of {present[0]} inclusive)"
    )
    return lines


def median_ns(fn: Callable[[], object], reps: int, budget_s: float = 0.5) -> float:
    """Median wall time of ``fn`` over ``reps`` calls (fewer if over budget)."""
    samples: List[int] = []
    stop_at = time.perf_counter() + budget_s
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
        if len(samples) >= 3 and time.perf_counter() > stop_at:
            break
    return float(statistics.median(samples))


def median_us(fn: Callable[[], object], reps: int, budget_s: float = 0.5) -> float:
    return median_ns(fn, reps, budget_s) / 1e3
