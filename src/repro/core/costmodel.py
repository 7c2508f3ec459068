"""The cost model behind ``computePrice`` (Algorithm 1, line 11).

Given a candidate provider set with threshold m and an object's expected
access pattern, the model projects the dollar cost of the next decision
period:

* **storage** — every provider holds one chunk of ``ceil(size/m)`` bytes;
* **ingress + write ops** — a write pushes one chunk to *every* provider;
* **egress + read ops** — a read fetches m chunks from the *serving set*,
  the m providers with the cheapest per-chunk read cost
  (egress price x chunk + one op), exactly how the engine serves reads;
* **delete ops** — one op per provider when the object dies.

Chunk sizes use the same ``ceil`` rounding as the erasure coder, so the
analytic projection matches the metered simulation bit-for-bit — the
cross-validation tests rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cluster.statistics import PeriodStats
from repro.erasure.striping import chunk_length
from repro.providers.pricing import ProviderSpec


@dataclass(frozen=True)
class AccessProjection:
    """Expected per-sampling-period demand of one object.

    Rates are per sampling period; ``one_time_writes`` covers a known
    up-front write (the insertion itself) that is not part of the steady
    state, and ``one_time_deletes`` the eventual removal.
    """

    size_bytes: int
    reads_per_period: float = 0.0
    writes_per_period: float = 0.0
    one_time_writes: float = 0.0
    one_time_deletes: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        for name in ("reads_per_period", "writes_per_period", "one_time_writes",
                     "one_time_deletes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def from_history(
        cls, history: Sequence[PeriodStats], size_bytes: int
    ) -> "AccessProjection":
        """Mean-rate projection from a window of access statistics.

        "We can reasonably suppose that the access pattern of the data in
        the near future will be similar to the current" (Section III-A).
        """
        if not history:
            return cls(size_bytes=size_bytes)
        n = len(history)
        return cls(
            size_bytes=size_bytes,
            reads_per_period=sum(s.ops_read for s in history) / n,
            writes_per_period=sum(s.ops_write for s in history) / n,
        )

    def scaled(self, read_factor: float = 1.0, write_factor: float = 1.0) -> "AccessProjection":
        """Copy with scaled rates (used by trend-limit calibration)."""
        return replace(
            self,
            reads_per_period=self.reads_per_period * read_factor,
            writes_per_period=self.writes_per_period * write_factor,
        )


class CostModel:
    """Prices a (provider set, m) choice against an access projection.

    ``serving_rank`` selects how the m read-serving providers are chosen:

    * ``"egress"`` (default) ranks by outgoing-bandwidth price alone, which
      is what the paper's engine does — its reported placements (e.g.
      popular gallery pictures on [S3(h), S3(l); m:1] rather than an
      RS-backed set) are only consistent with this ranking;
    * ``"total"`` ranks by egress + per-op price, the locally optimal
      choice for small chunks (RS's free operations win below ~333 KB).
      The ``bench_ablation_serving`` benchmark quantifies the difference.

    Either way the read *cost* includes the op price of the chosen servers.
    """

    def __init__(self, period_hours: float = 1.0, serving_rank: str = "egress") -> None:
        if period_hours <= 0:
            raise ValueError("period_hours must be > 0")
        if serving_rank not in ("egress", "total"):
            raise ValueError("serving_rank must be 'egress' or 'total'")
        self.period_hours = period_hours
        self.serving_rank = serving_rank

    # -- building blocks -------------------------------------------------

    def serving_set(
        self, specs: Sequence[ProviderSpec], m: int, chunk_bytes: int
    ) -> list[ProviderSpec]:
        """The m cheapest providers to read one chunk from.

        Mirrors the engine's read path; name-sorted tie-break keeps the
        choice deterministic.
        """
        if self.serving_rank == "egress":
            key = lambda s: (s.pricing.egress_cost(chunk_bytes), s.name)  # noqa: E731
        else:
            key = lambda s: (  # noqa: E731
                s.pricing.egress_cost(chunk_bytes) + s.pricing.ops_cost(1),
                s.name,
            )
        return sorted(specs, key=key)[:m]

    def read_cost(self, specs: Sequence[ProviderSpec], m: int, size_bytes: int) -> float:
        """Cost of one object read: m chunks from the serving set."""
        chunk = chunk_length(size_bytes, m)
        return sum(
            s.pricing.egress_cost(chunk) + s.pricing.ops_cost(1)
            for s in self.serving_set(specs, m, chunk)
        )

    def write_cost(self, specs: Sequence[ProviderSpec], m: int, size_bytes: int) -> float:
        """Cost of one object write: one chunk to every provider."""
        chunk = chunk_length(size_bytes, m)
        return sum(
            s.pricing.ingress_cost(chunk) + s.pricing.ops_cost(1) for s in specs
        )

    def delete_cost(self, specs: Sequence[ProviderSpec]) -> float:
        """Cost of deleting the object: one op per provider."""
        return sum(s.pricing.ops_cost(1) for s in specs)

    def storage_cost_per_period(
        self, specs: Sequence[ProviderSpec], m: int, size_bytes: int
    ) -> float:
        """Cost of holding the object's chunks for one sampling period."""
        chunk = chunk_length(size_bytes, m)
        gb_hours = chunk / 1e9 * self.period_hours
        return sum(s.pricing.storage_cost(gb_hours) for s in specs)

    # -- computePrice ------------------------------------------------------

    def coefficients(
        self, specs: Sequence[ProviderSpec], m: int, size_bytes: int
    ) -> tuple[float, float, float, float]:
        """(storage/period, per-read, per-write, per-delete) dollar rates.

        Everything about a (set, m, size) choice that the access pattern
        does not change; the placement engine keeps them per feasible
        subset so a search is one :meth:`price` per row.
        """
        return (
            self.storage_cost_per_period(specs, m, size_bytes),
            self.read_cost(specs, m, size_bytes),
            self.write_cost(specs, m, size_bytes),
            self.delete_cost(specs),
        )

    @staticmethod
    def price(
        coefficients: tuple[float, float, float, float],
        projection: AccessProjection,
        horizon_periods: float,
    ) -> float:
        """Dollars of :meth:`coefficients` under an access projection.

        ``horizon_periods`` is the decision period length |D| in sampling
        periods; one-time writes/deletes are charged once, everything else
        scales with the horizon.  The one place the expression is written:
        every cost in the system associates its terms this way.
        """
        if horizon_periods < 0:
            raise ValueError("horizon_periods must be >= 0")
        storage, read, write, delete = coefficients
        per_period = (
            storage
            + projection.reads_per_period * read
            + projection.writes_per_period * write
        )
        one_time = (
            projection.one_time_writes * write + projection.one_time_deletes * delete
        )
        return per_period * horizon_periods + one_time

    def expected_cost(
        self,
        specs: Sequence[ProviderSpec],
        m: int,
        projection: AccessProjection,
        horizon_periods: float,
    ) -> float:
        """``computePrice``: expected cost over the next decision period."""
        return self.price(
            self.coefficients(specs, m, projection.size_bytes),
            projection,
            horizon_periods,
        )

    def full_replication_cost(
        self,
        specs: Sequence[ProviderSpec],
        projection: AccessProjection,
        horizon_periods: float,
    ) -> float:
        """The paper's baseline: a full copy on every provider (m = 1).

        The yardstick Scalia's evaluation measures itself against —
        ``repro explain`` prices it alongside the current placement so
        "what is erasure-coded placement saving me" has a number.
        """
        if not specs:
            return 0.0
        return self.expected_cost(specs, 1, projection, horizon_periods)

    # -- migration -------------------------------------------------------------

    def migration_cost(
        self,
        old_specs: Sequence[ProviderSpec],
        old_m: int,
        new_specs: Sequence[ProviderSpec],
        new_m: int,
        size_bytes: int,
        *,
        readable_old: Optional[Sequence[ProviderSpec]] = None,
    ) -> float:
        """Cost of moving an object between placements (Section III-A3).

        Mirrors the engine's migration paths:

        * **same code** (m and n unchanged): each relocated chunk is copied
          directly from its current provider when that provider is readable
          (one egress + op per chunk); chunks stranded on an unreadable
          provider trigger a single reconstruction read of ``old_m`` chunks
          from the cheapest readable sources.
        * **re-stripe** (m or n changes): the object is reconstructed
          (``old_m`` chunk reads) and every new chunk is written.

        Dropped old chunks cost one delete op each; pass ``readable_old``
        to mark failed providers (their chunks cost nothing to abandon but
        cannot serve as sources).
        """
        sources = list(readable_old) if readable_old is not None else list(old_specs)
        old_names = {s.name for s in old_specs}
        new_names = {s.name for s in new_specs}
        if old_names == new_names and old_m == new_m:
            return 0.0
        if len(sources) < old_m:
            raise ValueError("not enough readable providers to reconstruct")

        readable_names = {s.name for s in sources}
        old_chunk = chunk_length(size_bytes, old_m)
        new_chunk = chunk_length(size_bytes, new_m)
        same_code = old_m == new_m and len(old_specs) == len(new_specs)

        reconstruction = sum(
            s.pricing.egress_cost(old_chunk) + s.pricing.ops_cost(1)
            for s in self.serving_set(sources, old_m, old_chunk)
        )
        if same_code:
            movers = [s for s in old_specs if s.name not in new_names]
            if all(s.name in readable_names for s in movers):
                read = sum(
                    s.pricing.egress_cost(old_chunk) + s.pricing.ops_cost(1)
                    for s in movers
                )
            else:
                read = reconstruction
            writers = [s for s in new_specs if s.name not in old_names]
            droppers = movers
        else:
            read = reconstruction
            writers = list(new_specs)
            droppers = list(old_specs)
        write = sum(
            s.pricing.ingress_cost(new_chunk) + s.pricing.ops_cost(1) for s in writers
        )
        drop = sum(
            s.pricing.ops_cost(1) for s in droppers if s.name in readable_names
        )
        return read + write + drop
