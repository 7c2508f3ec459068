"""repro — a full reproduction of *Scalia: An Adaptive Scheme for Efficient
Multi-Cloud Storage* (Papaioannou, Bonvin, Aberer; SC 2012).

Scalia is a cloud-storage brokerage system that erasure-codes each object
across a dynamically chosen set of storage providers and continuously
re-optimizes that choice from the object's observed access pattern, subject
to user rules (durability, availability, zones, vendor lock-in).

Quickstart::

    from repro import Scalia

    broker = Scalia()                       # the paper's five providers
    broker.put("pictures", "cat.gif", b"...", mime="image/gif")
    print(broker.placement_of("pictures", "cat.gif").label())
    broker.tick(24)                          # advance a day of sim time

See README.md for the system layout; each ``benchmarks/bench_fig*.py``
prints the paper-vs-measured comparison of one figure.
"""

from repro.types import ObjectMeta, Placement
from repro.core import (
    AccessProjection,
    ClassProfile,
    ClassStatistics,
    CostModel,
    DecisionPeriodController,
    MomentumDetector,
    OptimizationReport,
    PeriodicOptimizer,
    PlacementDecision,
    PlacementEngine,
    RuleBook,
    Scalia,
    StorageRule,
    paper_rulebook,
)
from repro.providers import (
    CHEAPSTOR,
    PAPER_PROVIDERS,
    PricingPolicy,
    PrivateStorageService,
    ProviderRegistry,
    ProviderSpec,
    paper_catalog,
)
from repro.erasure import ReedSolomon
from repro.storage import FileChunkStore, MemoryChunkStore, Scrubber

__version__ = "1.0.0"

__all__ = [
    "Scalia",
    "Placement",
    "ObjectMeta",
    "StorageRule",
    "RuleBook",
    "paper_rulebook",
    "PlacementEngine",
    "PlacementDecision",
    "CostModel",
    "AccessProjection",
    "ClassStatistics",
    "ClassProfile",
    "MomentumDetector",
    "DecisionPeriodController",
    "PeriodicOptimizer",
    "OptimizationReport",
    "ProviderSpec",
    "PricingPolicy",
    "ProviderRegistry",
    "PrivateStorageService",
    "PAPER_PROVIDERS",
    "CHEAPSTOR",
    "paper_catalog",
    "ReedSolomon",
    "FileChunkStore",
    "MemoryChunkStore",
    "Scrubber",
    "__version__",
]
