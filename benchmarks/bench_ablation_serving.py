"""Ablation: read-serving provider ranking (egress-only vs egress+ops).

The paper's reported placements imply ranking read sources by egress
price alone (``CostModel.serving_rank``; docs/FAULTS.md, serving order).  Ranking by total per-chunk cost
(egress + op) instead is locally cheaper for small chunks — RS's free
operations win below ~333 KB — and this bench quantifies the per-read gap
and where the crossover sits.
"""

import numpy as np
import pytest

from repro.core.costmodel import CostModel
from repro.providers.pricing import paper_catalog
from repro.util.units import KB, MB

SPECS = [s for s in paper_catalog() if s.name in ("S3(h)", "RS")]


def test_serving_rank_crossover(benchmark):
    egress = CostModel(serving_rank="egress")
    total = CostModel(serving_rank="total")

    def sweep():
        sizes = [50 * KB, 250 * KB, 333 * KB, 500 * KB, MB, 10 * MB]
        return [
            (size, egress.read_cost(SPECS, 1, size), total.read_cost(SPECS, 1, size))
            for size in sizes
        ]

    rows = benchmark(sweep)
    print("\nServing-rank ablation: per-read cost, [S3(h), RS; m:1]")
    print(f"{'size':>10} {'egress-rank $':>14} {'total-rank $':>14} {'server':>8}")
    for size, e_cost, t_cost in rows:
        server = "RS" if t_cost < e_cost else "same"
        print(f"{size:>10} {e_cost:>14.3e} {t_cost:>14.3e} {server:>8}")
    # Below the ~333 KB crossover the total ranking exploits RS's free ops.
    small = rows[0]
    assert small[2] < small[1]
    # Above it both rankings agree (egress dominates).
    large = rows[-1]
    assert large[1] == pytest.approx(large[2])
    # The gap is bounded by one op price (1e-5 $).
    assert all(abs(e - t) <= 1.01e-5 for _, e, t in rows)
