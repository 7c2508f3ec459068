"""The one write procedure (Section III-D), driven over a staged protocol.

Plan a placement, erasure-code stripe by stripe, upload the chunks,
publish metadata under ``skey = MD5(container|key|UUID)``, re-plan around
a provider that is down or full (III-D3, III-E).  The engine exposes the
steps as ``begin → write_stripe* → commit | abort`` (``part_begin`` /
``part_commit`` for multipart parts); the two loops above them live here,
once each: :func:`_write_stripes` and the re-plan loop in
:func:`put_object`.  They talk to a :class:`Stager` — in the broker
process the engine's own primitives, each reading the broker's clock
when it runs (:meth:`~repro.cluster.engine.Engine.stager`), in a gateway
worker an RPC stub (:class:`~repro.gateway.remote.RpcStager`) — so
encoding and hashing run wherever the driver runs and write semantics
cannot differ between the two.  The object's lock is held at commit only: racing puts of one
key both stream, the last commit wins, the loser's chunks are collected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.errors import MultipartError, PlacementError, WriteFailedError
from repro.cluster.multipart import PartState
from repro.erasure.striping import Chunk, split_synthetic
from repro.providers.provider import (
    CapacityExceededError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.storage.merkle import kept_root
from repro.types import ObjectMeta
from repro.util.streams import ByteSource


@dataclass
class StagedWrite:
    """One staged write session: what was planned and what has shipped.

    The driver holds it in process; ``OpsService`` keeps it by
    :attr:`sid` for a worker, which sees only the plan — so stripes and
    commits use the placement the broker planned, never one echoed back.
    """

    container: str
    key: str
    skey: str
    m: int
    providers: Sequence[str]
    # Part sessions only: the upload, the part's journaled generation and
    # the stripe size fixed when the upload was created.
    upload_id: Optional[str] = None
    part_number: int = 0
    gen: int = 0
    stripe_size: int = 0
    #: ``(provider, chunk_key)`` of every chunk shipped, for abort.
    written: List[Tuple[str, str]] = field(default_factory=list)
    #: ``(chunk-key suffix, Merkle root)`` of every chunk shipped.
    merkle: List[Tuple[str, str]] = field(default_factory=list)
    #: Set when commit journals the row (which then owns the chunks) or
    #: abort cleans up; either ends the skey's in-flight registration.
    closed: bool = False

    @property
    def n(self) -> int:
        return len(self.providers)

    @property
    def tag_prefix(self) -> str:
        """Stripe tags are ``<prefix><stripe index>``."""
        return "" if self.upload_id is None else f"p{self.part_number}g{self.gen}."

    @property
    def sid(self) -> str:
        return self.skey if self.upload_id is None else f"{self.skey}#{self.tag_prefix}"

    def to_dict(self) -> dict:
        """The plan, as a worker needs it (no shipped refs, no roots)."""
        return {name: getattr(self, name) for name in _PLAN_FIELDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "StagedWrite":
        return cls(**{name: doc[name] for name in _PLAN_FIELDS})


_PLAN_FIELDS = (
    "container", "key", "skey", "m", "providers",
    "upload_id", "part_number", "gen", "stripe_size",
)


class Stager(NamedTuple):
    """What the drivers need from whoever owns placement and metadata
    (any object with these attributes will do)."""

    #: ``(container, key, *, size_guess, mime, rule, exclude)``; raises
    #: :class:`PlacementError` when nothing feasible is left.
    begin: Callable[..., StagedWrite]
    #: ``(container, key, upload_id, part_number)``
    part_begin: Callable[..., StagedWrite]
    #: ``(session, tag, chunks, roots)``; ``tag=None`` is the single-stripe
    #: layout (``skey:index`` chunk keys, else ``skey:tag.index``).
    write_stripe: Callable[..., None]
    #: ``(session, *, size, checksum, stripes, mime, rule, ttl_hint)``
    commit: Callable[..., ObjectMeta]
    #: ``(session, *, etag, size, stripes)``
    part_commit: Callable[..., PartState]
    #: ``(session)``: delete what shipped; a no-op after commit.
    abort: Callable[[StagedWrite], int]
    #: ``(block, m, n)``: erasure-code one stripe on this side.
    encode: Callable[[bytes, int, int], Sequence[Chunk]]


def _ship(stager: Stager, session: StagedWrite, tag: Optional[str], chunks) -> None:
    # Roots are hashed here, while the encoded bytes are hot, on whichever
    # CPU encoded them; the metadata owner only anchors what it is told.
    # The levels of that one pass stay on each chunk, and a store in this
    # process answers challenges from them.
    stager.write_stripe(session, tag, chunks, [kept_root(c) for c in chunks])


def _write_stripes(
    stager: Stager,
    session: StagedWrite,
    source: Optional[ByteSource],
    first,
    stripe_size: int,
    *,
    single: bool,
) -> Tuple[str, int, List[Tuple[str, int]]]:
    """Ship ``first`` and then the rest of ``source``, one stripe at a time.

    Returns ``(md5 hex, size, stripe table)``.  ``single`` is the
    one-stripe layout with an empty stripe table; a synthetic byte count
    (``source is None``) is always single and has no checksum.  The first
    block ships even when empty (a 0-byte object still owns chunks); a
    stripe-aligned source gets no phantom trailing stripe.
    """
    if source is None:
        _ship(stager, session, None, split_synthetic(first, session.m, session.n))
        return "", first, []
    digest = hashlib.md5()
    stripes: List[Tuple[str, int]] = []
    size = 0
    block = first
    while True:
        digest.update(block)
        tag = None if single else f"{session.tag_prefix}{len(stripes)}"
        _ship(stager, session, tag, stager.encode(block, session.m, session.n))
        size += len(block)
        if single:
            break
        stripes.append((tag, len(block)))
        if len(block) < stripe_size:
            break
        block = source.read(stripe_size)
        if not block:
            break
    return digest.hexdigest(), size, stripes


def put_object(
    stager: Stager,
    container: str,
    key: str,
    data,
    *,
    stripe_size: int,
    size_hint: Optional[int] = None,
    mime: str = "application/octet-stream",
    rule: Optional[str] = None,
    ttl_hint: Optional[float] = None,
) -> ObjectMeta:
    """Store an object through ``stager``, re-planning around failures.

    ``data`` is ``bytes``, a file-like, an iterable of byte blocks, or a
    synthetic byte count.  A provider that is down, full or refuses the
    chunk size between planning and writing is excluded and the write
    re-planned from a restarted source; a one-shot source fails clean.
    The aborted attempt's chunks are deleted, and a failure names each
    disqualified provider in :attr:`WriteFailedError.causes`.
    """
    if isinstance(data, int) and not isinstance(data, bool):
        if data < 0:
            raise ValueError("synthetic size must be >= 0")
        source, first = None, int(data)
    else:
        if stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        source = ByteSource(data, size_hint=size_hint)
        first = source.read(stripe_size)
    causes: Dict[str, BaseException] = {}
    while True:
        if source is None:
            single, size_guess = True, first
        elif len(first) < stripe_size:
            single, size_guess = True, len(first)
        else:
            # Length unknown: place by a guess (metadata gets the exact
            # size; the optimizer corrects any resulting misplacement).
            single, size_guess = False, source.size_hint or 2 * stripe_size
        try:
            session = stager.begin(
                container, key,
                size_guess=size_guess, mime=mime, rule=rule, exclude=sorted(causes),
            )
        except PlacementError as exc:
            raise WriteFailedError(str(exc), causes=causes) from exc
        try:
            checksum, size, stripes = _write_stripes(
                stager, session, source, first, stripe_size, single=single
            )
            return stager.commit(
                session,
                size=size, checksum=checksum, stripes=stripes,
                mime=mime, rule=rule, ttl_hint=ttl_hint,
            )
        except (ProviderUnavailableError, CapacityExceededError, ChunkTooLargeError) as exc:
            stager.abort(session)
            failed = exc.provider_name
            if not failed:
                raise
            if failed in causes:
                # The planner handed back a provider it was told to avoid.
                raise WriteFailedError(
                    f"no reachable placement for {container}/{key}", causes=causes
                ) from exc
            causes[failed] = exc
            if source is not None:
                if not source.restart():
                    raise WriteFailedError(
                        f"provider {failed} failed mid-stream and "
                        f"the source cannot restart",
                        causes=causes,
                    ) from exc
                first = source.read(stripe_size)
        except BaseException:
            # A corrupt frame, a failed Content-MD5 precondition raised by
            # the source, a lost commit: shipped stripes must not leak.
            stager.abort(session)
            raise


def put_part(
    stager: Stager,
    container: str,
    key: str,
    upload_id: str,
    part_number: int,
    data,
) -> PartState:
    """Store one multipart part through ``stager``.

    Placement and stripe size were fixed when the upload was created, so
    there is no re-plan loop: a failure deletes the staged chunks and is
    reported.  Every attempt stages under a fresh journaled generation,
    so no retry or race reuses a chunk key.
    """
    if isinstance(data, int) and not isinstance(data, bool):
        raise MultipartError("multipart parts must carry real bytes")
    source = ByteSource(data)
    session = stager.part_begin(container, key, upload_id, int(part_number))
    try:
        etag, size, stripes = _write_stripes(
            stager, session, source, source.read(session.stripe_size),
            session.stripe_size, single=False,
        )
        return stager.part_commit(session, etag=etag, size=size, stripes=stripes)
    except BaseException:
        stager.abort(session)
        raise
