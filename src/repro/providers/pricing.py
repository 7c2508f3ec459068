"""Provider descriptions and the paper's pricing model (Figure 3).

Prices follow the paper's units: USD per GB for storage (per month),
bandwidth in and out (per transferred GB), and USD per 1000 requests for
operations.  SLA levels are stored as fractions in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.util.units import GB, HOURS_PER_MONTH
from repro.util.validation import check_fraction, check_non_negative


@dataclass(frozen=True)
class PricingPolicy:
    """A provider's price sheet.

    Attributes
    ----------
    storage_gb_month:
        USD per GB of data held for one month (730 h).
    bw_in_gb / bw_out_gb:
        USD per GB transferred into / out of the provider.
    ops_per_1k:
        USD per 1000 API requests (GET/PUT/DELETE/LIST alike, as in the
        paper's Figure 3).
    """

    storage_gb_month: float
    bw_in_gb: float
    bw_out_gb: float
    ops_per_1k: float

    def __post_init__(self) -> None:
        for name in ("storage_gb_month", "bw_in_gb", "bw_out_gb", "ops_per_1k"):
            check_non_negative(getattr(self, name), name)

    def storage_cost(self, gb_hours: float) -> float:
        """Cost of holding ``gb_hours`` GB-hours of data."""
        return self.storage_gb_month * gb_hours / HOURS_PER_MONTH

    def ingress_cost(self, n_bytes: float) -> float:
        """Cost of transferring ``n_bytes`` into the provider."""
        return self.bw_in_gb * n_bytes / GB

    def egress_cost(self, n_bytes: float) -> float:
        """Cost of transferring ``n_bytes`` out of the provider."""
        return self.bw_out_gb * n_bytes / GB

    def ops_cost(self, n_ops: float) -> float:
        """Cost of ``n_ops`` API requests."""
        return self.ops_per_1k * n_ops / 1000.0


@dataclass(frozen=True)
class ProviderSpec:
    """Static description of a storage provider (public or private).

    ``durability`` and ``availability`` are the SLA fractions used by
    Algorithms 1-2; ``zones`` is the set of geographic zones the provider can
    keep data in; ``max_chunk_bytes`` models the per-object size constraint
    some providers impose (Section III-A2); ``capacity_bytes`` bounds private
    resources (Section III-E).
    """

    name: str
    durability: float
    availability: float
    zones: frozenset[str]
    pricing: PricingPolicy
    max_chunk_bytes: Optional[int] = None
    capacity_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        check_fraction(self.durability, "durability")
        check_fraction(self.availability, "availability")
        if not self.name:
            raise ValueError("provider name must be non-empty")
        if not self.zones:
            raise ValueError("provider must serve at least one zone")
        object.__setattr__(self, "zones", frozenset(self.zones))

    def serves_zone(self, zones: frozenset[str]) -> bool:
        """True when the provider can store data in one of ``zones``.

        An empty requirement set (the rulebook's "all") matches everything.
        """
        return not zones or bool(self.zones & zones)

    def with_pricing(self, pricing: PricingPolicy) -> "ProviderSpec":
        """Copy of this spec under a new price sheet (market change)."""
        return replace(self, pricing=pricing)


def _spec(name, durability, availability, zones, storage, bw_in, bw_out, ops):
    return ProviderSpec(
        name=name,
        durability=durability,
        availability=availability,
        zones=frozenset(zones),
        pricing=PricingPolicy(
            storage_gb_month=storage, bw_in_gb=bw_in, bw_out_gb=bw_out, ops_per_1k=ops
        ),
    )


#: The paper's Figure 3 catalog, verbatim.
PAPER_PROVIDERS: tuple[ProviderSpec, ...] = (
    _spec("S3(h)", 0.99999999999, 0.999, ("EU", "US", "APAC"), 0.14, 0.10, 0.15, 0.01),
    _spec("S3(l)", 0.9999, 0.999, ("EU", "US", "APAC"), 0.093, 0.10, 0.15, 0.01),
    _spec("RS", 0.999999, 0.999, ("US",), 0.15, 0.08, 0.18, 0.0),
    _spec("Azu", 0.999999, 0.999, ("US",), 0.15, 0.10, 0.15, 0.01),
    _spec("Ggl", 0.999999, 0.999, ("US",), 0.17, 0.10, 0.15, 0.01),
)

#: The new provider of Section IV-D.  The paper gives its prices only;
#: durability/availability are not stated, we assume the common
#: 99.9999/99.9 tier of the other non-Amazon providers.
CHEAPSTOR: ProviderSpec = _spec(
    "CheapStor", 0.999999, 0.999, ("US",), 0.09, 0.10, 0.15, 0.01
)


def paper_catalog(include_cheapstor: bool = False) -> list[ProviderSpec]:
    """Fresh list of the Figure-3 providers (optionally plus CheapStor)."""
    catalog = list(PAPER_PROVIDERS)
    if include_cheapstor:
        catalog.append(CHEAPSTOR)
    return catalog


def cost_of_usage(pricing: PricingPolicy, usage: "ResourceUsage") -> float:
    """Dollar cost of a metered :class:`ResourceUsage` under ``pricing``.

    ``usage`` is duck-typed (any object with ``storage_gb_hours``,
    ``bytes_in``, ``bytes_out`` and ``ops``) to keep this module free of a
    circular import on :mod:`repro.providers.provider`.
    """
    return (
        pricing.storage_cost(usage.storage_gb_hours)
        + pricing.ingress_cost(usage.bytes_in)
        + pricing.egress_cost(usage.bytes_out)
        + pricing.ops_cost(usage.ops)
    )
