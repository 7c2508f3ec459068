"""Figure 17 / Section IV-D: a new provider (CheapStor) arrives at hour 400.

A 40 MB backup lands every 5 hours for four weeks; at hour 400 CheapStor
(0.09 $/GB-month) registers.  Scalia adopts it for new objects; static sets
cannot.  Paper numbers: Scalia +0.35 %, best static +7.88 %, worst +96.35 %.
"""

import numpy as np

from _helpers import print_overcost_report, run_once, sweep_with_ideal
from repro.analysis.overcost import best_static, scalia_row, worst_static
from repro.analysis.report import format_resource_series
from repro.analysis.series import resource_series
from repro.sim.scenarios import new_provider_scenario


def test_fig17_new_provider(benchmark):
    scenario = new_provider_scenario(horizon=672, arrival_hour=400)
    results, ideal = run_once(benchmark, lambda: sweep_with_ideal(scenario))

    scalia = next(r for r in results if r.policy == "Scalia")
    print("\nFigure 17: total resources used by Scalia (GB)")
    print(format_resource_series(resource_series(scalia), points=12))
    # Storage grows steadily to ~6.7 GB of raw data plus erasure overhead.
    assert scalia.storage_gb[-1] > 6.0

    # New objects adopt CheapStor after hour 400.
    sim_placements = scalia.final_placements
    rows = print_overcost_report(
        "Section IV-D: adding a storage provider — cumulative price",
        results,
        ideal.total,
        paper={"scalia": 0.35, "best": 7.88, "worst": 96.35},
    )
    assert len(rows) == 27
    assert scalia_row(rows).over_cost_pct < best_static(rows).over_cost_pct
    assert worst_static(rows).over_cost_pct > 50.0
    print(
        "note: our Scalia adopts CheapStor for objects written after hour "
        "400; already-stored objects stay put because physically billed "
        "migration exceeds the 30-day-retention benefit."
    )
