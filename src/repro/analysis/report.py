"""ASCII rendering of tables and series for the benchmark harness.

The benches print these next to the paper's reported values, paper
and measured side by side.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.overcost import OvercostRow
from repro.analysis.series import downsample


def format_overcost_table(
    rows: Sequence[OvercostRow], *, title: str = "Cumulative price"
) -> str:
    """The Figure-14/16 table: one line per provider set."""
    lines = [title, f"{'#':>3} {'set of providers':<28} {'total $':>12} {'% over cost':>12}"]
    for row in rows:
        lines.append(
            f"{row.index:>3} {row.label:<28} {row.total_cost:>12.6f} "
            f"{row.over_cost_pct:>12.2f}"
        )
    return "\n".join(lines)


def format_resource_series(
    series: Mapping[str, np.ndarray],
    *,
    points: int = 12,
    title: str = "Total resources",
) -> str:
    """Compact table of the storage/bw-in/bw-out series (Figs. 12/15/17)."""
    keys = list(series)
    n = max(s.size for s in series.values())
    idx = np.linspace(0, n - 1, min(points, n)).round().astype(int)
    header = f"{'hour':>6} " + " ".join(f"{k:>14}" for k in keys)
    lines = [title, header]
    for i in idx:
        row = f"{i:>6} " + " ".join(f"{series[k][i]:>14.6f}" for k in keys)
        lines.append(row)
    return "\n".join(lines)


def format_paper_comparison(
    rows: Sequence[tuple[str, Optional[float], float, str]],
    *,
    title: str,
) -> str:
    """Paper-vs-measured rows: (metric, paper value, measured, unit)."""
    lines = [title, f"{'metric':<42} {'paper':>12} {'measured':>12}  unit"]
    for metric, paper, measured, unit in rows:
        paper_s = f"{paper:>12.4g}" if paper is not None else f"{'—':>12}"
        lines.append(f"{metric:<42} {paper_s} {measured:>12.4g}  {unit}")
    return "\n".join(lines)


def sparkline(series: np.ndarray, *, width: int = 60) -> str:
    """A one-line unicode sketch of a series (quick visual check)."""
    if series.size == 0:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    sampled = downsample(np.asarray(series, dtype=float), width)
    low, high = float(sampled.min()), float(sampled.max())
    if high - low < 1e-30:
        return blocks[1] * sampled.size
    scaled = (sampled - low) / (high - low) * (len(blocks) - 1)
    return "".join(blocks[int(round(v))] for v in scaled)
