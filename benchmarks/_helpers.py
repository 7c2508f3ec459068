"""Shared helpers for the benchmark harness.

Each ``bench_figXX`` module regenerates one table or figure of the paper's
evaluation and prints the paper-vs-measured comparison; run with ``-s`` to
see the tables.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.overcost import (
    best_static,
    overcost_table,
    scalia_row,
    worst_static,
)
from repro.analysis.report import format_overcost_table, format_paper_comparison
from repro.core.costmodel import CostModel
from repro.sim.ideal import ideal_costs
from repro.sim.runner import run_policy_sweep
from repro.sim.simulator import RunResult, Scenario


def run_once(benchmark, fn: Callable):
    """Benchmark a heavy scenario function with exactly one execution."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def sweep_with_ideal(scenario: Scenario, *, policies=None):
    """Run the Figure-13 policy sweep plus the clairvoyant baseline."""
    results = run_policy_sweep(scenario, policies=policies)
    ideal = ideal_costs(
        scenario.workload,
        scenario.rules,
        scenario.timeline(),
        CostModel(scenario.sampling_period_hours),
    )
    return results, ideal


def print_overcost_report(
    title: str,
    results: Sequence[RunResult],
    ideal_total: float,
    paper: dict,
):
    """Print the over-cost table plus the paper-vs-measured summary."""
    rows = overcost_table(results, ideal_total)
    print()
    print(format_overcost_table(rows, title=title))
    comparison = [
        ("Scalia % over ideal", paper.get("scalia"), scalia_row(rows).over_cost_pct, "%"),
        ("best static % over ideal", paper.get("best"), best_static(rows).over_cost_pct, "%"),
        ("worst static % over ideal", paper.get("worst"), worst_static(rows).over_cost_pct, "%"),
    ]
    print()
    print(format_paper_comparison(comparison, title=f"{title} — paper vs measured"))
    print(f"best static set : {best_static(rows).label}")
    print(f"worst static set: {worst_static(rows).label}")
    return rows
