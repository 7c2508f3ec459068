"""Shared data types crossing the core/cluster boundary.

Kept dependency-free so the cluster substrate (engines, metadata) and the
core decision logic (placement, cost model) can exchange values without
import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Placement:
    """A chosen provider set plus the erasure threshold m (Algorithm 1).

    ``providers`` is the name tuple (one chunk each, n = len(providers));
    any ``m`` chunks reconstruct the object.
    """

    providers: Tuple[str, ...]
    m: int

    def __post_init__(self) -> None:
        if len(set(self.providers)) != len(self.providers):
            raise ValueError("placement providers must be distinct")
        if not 1 <= self.m <= len(self.providers):
            raise ValueError(
                f"threshold m={self.m} invalid for {len(self.providers)} providers"
            )
        object.__setattr__(self, "providers", tuple(self.providers))

    @property
    def n(self) -> int:
        """Total number of chunks (= number of providers)."""
        return len(self.providers)

    @property
    def lockin(self) -> float:
        """The lock-in factor 1/N of this placement (Equation 1)."""
        return 1.0 / len(self.providers)

    @property
    def storage_overhead(self) -> float:
        """Erasure storage blow-up n/m (Section II-A1)."""
        return self.n / self.m

    def label(self) -> str:
        """Human-readable label like ``[S3(h), S3(l); m:1]`` (paper style)."""
        return f"[{', '.join(self.providers)}; m:{self.m}]"


@dataclass(frozen=True)
class ObjectMeta:
    """Persisted object metadata: file meta + striping meta (Figure 11).

    ``stripes`` is the multi-stripe extension of the data plane: an object
    larger than the configured stripe size is stored as an ordered list of
    independently erasure-coded stripes, each entry a ``(tag, length)``
    pair — ``tag`` names the stripe inside the provider chunk keys and
    ``length`` is its plaintext byte count.  An *empty* tuple is the
    degenerate single-stripe layout every object had before the streaming
    redesign (chunk keys ``skey:index``), so pre-existing snapshots and
    WALs replay unchanged.  All stripes of one object share the same
    placement (``chunk_map`` / ``m``); any ``m`` chunks of a stripe
    reconstruct that stripe alone, which is what makes ranged reads fetch
    only the covering stripes.
    """

    container: str
    key: str
    size: int
    mime: str
    rule_name: str
    class_key: str
    skey: str
    m: int
    chunk_map: Tuple[Tuple[int, str], ...]  # (chunk index, provider name)
    created_at: float
    checksum: str = ""
    ttl_hint: Optional[float] = None
    stripes: Tuple[Tuple[str, int], ...] = ()  # (stripe tag, plaintext bytes)
    modified_at: Optional[float] = None
    # Per-chunk Merkle roots for challenge-response audits: sorted
    # (chunk-key suffix, root hex) pairs, where the suffix is the part of
    # the provider chunk key after ``skey:`` — ``"{index}"`` for the
    # legacy single-stripe layout, ``"{tag}.{index}"`` for striped
    # objects.  Synthetic chunks carry the sentinel root.  An empty tuple
    # means the object predates auditing; the scrubber backfills it.
    merkle: Tuple[Tuple[str, str], ...] = ()

    @property
    def n(self) -> int:
        return len(self.chunk_map)

    @property
    def etag(self) -> str:
        """The object's ETag: its content MD5, S3-style (a multipart
        object's is ``md5(part-digests)-N``).  An object stored in
        synthetic mode has no payload digest and falls back to its
        version key."""
        return self.checksum or self.skey

    @property
    def placement(self) -> Placement:
        """The placement this metadata encodes: the provider *set* and
        ``m``, names sorted as the planner sorts them.  Which provider
        holds which chunk index is ``chunk_map``'s business (the engine
        numbers chunks by read price) and is no part of the identity the
        optimizer compares placements by."""
        return Placement(providers=tuple(sorted(p for _, p in self.chunk_map)), m=self.m)

    @property
    def stripe_count(self) -> int:
        """Number of stripes (1 for the degenerate legacy layout)."""
        return len(self.stripes) or 1

    @property
    def stripe_lengths(self) -> Tuple[int, ...]:
        """Plaintext byte length of each stripe, in order."""
        if not self.stripes:
            return (self.size,)
        return tuple(length for _, length in self.stripes)

    @property
    def last_modified(self) -> float:
        """Simulated wall time (hours) of the last content write."""
        return self.modified_at if self.modified_at is not None else self.created_at

    def chunk_key(self, index: int, stripe: int = 0) -> str:
        """Provider-side key of chunk ``index`` of stripe ``stripe``.

        Legacy single-stripe objects keep the historical ``skey:index``
        form; striped objects scope the key by the stripe tag
        (``skey:tag.index``) so every stripe's chunk set is disjoint.
        """
        if not self.stripes:
            return f"{self.skey}:{index}"
        tag = self.stripes[stripe][0]
        return f"{self.skey}:{tag}.{index}"

    def iter_chunks(self) -> Iterator[Tuple[int, int, str, str]]:
        """Yield ``(stripe, index, provider, chunk_key)`` for every chunk."""
        for stripe in range(self.stripe_count):
            for index, provider in self.chunk_map:
                yield stripe, index, provider, self.chunk_key(index, stripe)

    def merkle_root(self, index: int, stripe: int = 0) -> Optional[str]:
        """Stored Merkle root for chunk ``index`` of ``stripe``, if any.

        ``None`` means the object predates per-chunk auditing (pre-PR-10
        WAL rows) — callers fall back to full-read verification.
        """
        if not self.merkle:
            return None
        if not self.stripes:
            suffix = str(index)
        else:
            suffix = f"{self.stripes[stripe][0]}.{index}"
        for key_suffix, root in self.merkle:
            if key_suffix == suffix:
                return root
        return None

    def stripe_offset(self, stripe: int) -> int:
        """Byte offset where ``stripe`` begins inside the object."""
        return sum(self.stripe_lengths[:stripe])

    def stripes_for_range(self, start: int, end: int) -> List[Tuple[int, int, int]]:
        """Stripes covering the inclusive byte range ``[start, end]``.

        Returns ``(stripe, lo, hi)`` triples where ``[lo, hi)`` is the
        slice of that stripe's plaintext belonging to the range.
        """
        segments: List[Tuple[int, int, int]] = []
        offset = 0
        for stripe, length in enumerate(self.stripe_lengths):
            s_start, s_end = offset, offset + length
            if s_end > start and s_start <= end:
                segments.append(
                    (stripe, max(0, start - s_start), min(length, end + 1 - s_start))
                )
            offset = s_end
            if s_start > end:
                break
        return segments

    def to_dict(self) -> dict:
        """Plain-dict form for the metadata store."""
        out = {
            "container": self.container,
            "key": self.key,
            "size": self.size,
            "mime": self.mime,
            "rule_name": self.rule_name,
            "class_key": self.class_key,
            "skey": self.skey,
            "m": self.m,
            "chunk_map": [list(pair) for pair in self.chunk_map],
            "created_at": self.created_at,
            "checksum": self.checksum,
            "ttl_hint": self.ttl_hint,
        }
        # Only the new layouts carry the new fields; legacy rows stay
        # byte-identical so pre-redesign WALs and snapshots round-trip.
        if self.stripes:
            out["stripes"] = [list(pair) for pair in self.stripes]
        if self.modified_at is not None:
            out["modified_at"] = self.modified_at
        if self.merkle:
            out["merkle"] = [list(pair) for pair in self.merkle]
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ObjectMeta":
        """Inverse of :meth:`to_dict`."""
        return cls(
            container=data["container"],
            key=data["key"],
            size=data["size"],
            mime=data["mime"],
            rule_name=data["rule_name"],
            class_key=data["class_key"],
            skey=data["skey"],
            m=data["m"],
            chunk_map=tuple((int(i), str(p)) for i, p in data["chunk_map"]),
            created_at=data["created_at"],
            checksum=data.get("checksum", ""),
            ttl_hint=data.get("ttl_hint"),
            stripes=tuple(
                (str(tag), int(length)) for tag, length in data.get("stripes", ())
            ),
            modified_at=data.get("modified_at"),
            merkle=tuple(
                (str(suffix), str(root)) for suffix, root in data.get("merkle", ())
            ),
        )


def raw_chunk_refs(value: Mapping) -> Iterator[Tuple[str, str]]:
    """``(provider, chunk_key)`` pairs referenced by one raw metadata value.

    Understands both object rows (``chunk_map`` + optional ``stripes``)
    and multipart-upload staging rows (``kind == "mpu"``); anything else
    (tombstones, list-index rows) yields nothing.  The scrubber's orphan
    sweep uses this over *every* stored version, so the enumeration must
    stay in lockstep with :meth:`ObjectMeta.chunk_key` and the multipart
    part-key scheme.
    """
    if not value:
        return
    if "chunk_map" in value:
        skey = value["skey"]
        stripes = value.get("stripes") or ()
        for index, provider_name in value["chunk_map"]:
            if not stripes:
                yield str(provider_name), f"{skey}:{int(index)}"
            else:
                for tag, _length in stripes:
                    yield str(provider_name), f"{skey}:{tag}.{int(index)}"
    elif value.get("kind") == "mpu":
        skey = value["skey"]
        providers = value["providers"]
        for part in value.get("parts", {}).values():
            for tag, _length in part.get("stripes", ()):
                for index, provider_name in enumerate(providers):
                    yield str(provider_name), f"{skey}:{tag}.{index}"


@dataclass
class ListPage:
    """One page of a paginated listing (S3 ListObjectsV2 shape).

    Behaves like the plain ``list[str]`` of keys the pre-pagination API
    returned (iteration, indexing, ``==`` against a list), while carrying
    the pagination surface: rolled-up ``common_prefixes`` when a delimiter
    was used, and an opaque ``next_token`` when the page was truncated.
    """

    keys: List[str] = field(default_factory=list)
    common_prefixes: List[str] = field(default_factory=list)
    next_token: Optional[str] = None
    is_truncated: bool = False

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, item):
        return self.keys[item]

    def __contains__(self, item) -> bool:
        return item in self.keys

    def __eq__(self, other) -> bool:
        if isinstance(other, ListPage):
            return (
                self.keys == other.keys
                and self.common_prefixes == other.common_prefixes
                and self.next_token == other.next_token
                and self.is_truncated == other.is_truncated
            )
        if isinstance(other, (list, tuple)):
            return self.keys == list(other)
        return NotImplemented

    def to_dict(self) -> dict:
        return {
            "keys": list(self.keys),
            "common_prefixes": list(self.common_prefixes),
            "next_token": self.next_token,
            "is_truncated": self.is_truncated,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ListPage":
        """Inverse of :meth:`to_dict`."""
        return cls(
            keys=list(data["keys"]),
            common_prefixes=list(data["common_prefixes"]),
            next_token=data.get("next_token"),
            is_truncated=bool(data.get("is_truncated")),
        )
