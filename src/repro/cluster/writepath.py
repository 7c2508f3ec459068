"""The one write procedure (Section III-D), driven over a staged protocol.

Plan a placement, erasure-code stripe by stripe, upload the chunks,
publish metadata under ``skey = MD5(container|key|UUID)``, re-plan around
a provider that is down or full (III-D3, III-E).  The engine exposes the
steps as ``begin → (write_stripe | replan)* → commit | abort``
(``part_begin`` / ``part_commit`` for multipart parts, which never
re-plan); the loop above them lives here, once: :func:`_write_stripes`,
which :func:`put_object` and :func:`put_part` drive.  A source is read
once, front to back, and never rewound: a provider lost mid-stream is
re-planned *forward* — the stripes that landed move to the new placement
through the engine's relocation loop (the one a migration runs) and the
block in hand ships there — so a caller may hand in a socket.  The
drivers talk to a :class:`Stager` — in the broker process the engine's
own primitives, each reading the broker's clock when it runs
(:meth:`~repro.cluster.engine.Engine.stager`), in a gateway worker an RPC
stub (:class:`~repro.gateway.remote.RpcStager`) — so encoding and hashing
run wherever the driver runs and write semantics cannot differ between
the two.  The object's lock is held at commit only: racing puts of one
key both stream, the last commit wins, the loser's chunks are collected.
"""
from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.errors import (
    BadDigestError,
    MultipartError,
    PlacementError,
    WriteFailedError,
)
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
    #: ``(session, stripes, *, exclude, size_guess, mime, rule)``: move the
    #: landed ``stripes`` to a placement on none of ``exclude`` and return
    #: the session to ship the rest on (``session`` ends); raises
    #: :class:`PlacementError` when nothing feasible is left, and then
    #: leaves ``session`` open for the abort.
    replan: Callable[..., StagedWrite]
    #: ``(session, *, size, checksum, stripes, mime, rule, ttl_hint)``
    commit: Callable[..., ObjectMeta]
    #: ``(session, *, etag, size, stripes)``
    part_commit: Callable[..., PartState]
    #: ``(session)``: delete what shipped; a no-op after commit.
    abort: Callable[[StagedWrite], int]
    #: ``(block, m, n)``: erasure-code one stripe on this side.
    encode: Callable[[bytes, int, int], Sequence[Chunk]]


#: Smallest block MD5'd on its own thread: a thread start and join (about
#: 65 us on 2 vCPU) pays against 2 ms of MD5 per MiB, not against the few
#: us a small write's MD5 costs.
OVERLAP_MIN_BYTES = 1024 * 1024


def _ship(stager: Stager, session: StagedWrite, tag: Optional[str], chunks) -> None:
    # Roots are hashed here, while the encoded bytes are hot, on whichever
    # CPU encoded them; the metadata owner only anchors what it is told.
    # The levels of that one pass stay on each chunk, and a store in this
    # process answers challenges from them.
    stager.write_stripe(session, tag, chunks, [kept_root(c) for c in chunks])


def _write_stripes(
    stager: Stager, session: StagedWrite, source: Optional[ByteSource], first, stripe_size: int,
    *, single: bool, content_md5: Optional[bytes], finish: Callable[..., Any],
    replan: Optional[Callable[..., StagedWrite]] = None,
):
    """Ship ``first`` (``None``: read it here) and then the rest of
    ``source``, one stripe at a time, and return ``finish(session, md5
    hex, size, stripe table)``.

    ``single`` is the one-stripe layout with an empty stripe table; a
    synthetic byte count (``source is None``) is always single and has no
    checksum.  The first block ships even when empty (a 0-byte object
    still owns chunks); a stripe-aligned source gets no phantom trailing
    stripe.  A provider error while a stripe ships goes to
    ``replan(session, landed stripes, error)``, and the block in hand
    ships again on the session it returns; with no ``replan`` the error
    propagates.  Any error aborts the session in hand.

    The MD5 is the body's one digest: the ETag, and what a client's
    ``Content-MD5`` is checked against before ``finish``.  A block of
    :data:`OVERLAP_MIN_BYTES` or more is hashed on its own thread while
    it is encoded and shipped (``hashlib`` releases the GIL while it
    hashes a large buffer); that thread is joined before the next block,
    so the digest stays in stripe order, and before any error propagates.
    A block is hashed once however many times it ships.
    """
    encode = split_synthetic if source is None else stager.encode
    digest = hashlib.md5()
    stripes: List[Tuple[str, int]] = []
    size = 0
    try:
        block = source.read(stripe_size) if first is None else first
        while True:
            tag = None if single else f"{session.tag_prefix}{len(stripes)}"
            hasher = None
            if source is None:
                pass  # a synthetic byte count has no digest
            elif len(block) >= OVERLAP_MIN_BYTES:
                hasher = threading.Thread(target=digest.update, args=(block,), name="etag-md5")
                hasher.start()
            else:
                digest.update(block)
            failure = None
            try:
                while True:
                    try:
                        if failure is not None:
                            session = replan(session, stripes, failure)
                        _ship(stager, session, tag, encode(block, session.m, session.n))
                        break
                    except (
                        ProviderUnavailableError, CapacityExceededError, ChunkTooLargeError
                    ) as exc:
                        # A provider is down, full or refuses the chunk size
                        # (III-D3) while the block ships or while a re-plan
                        # moves the landed stripes: re-plan without it.  An
                        # error ``replan`` raised again ends the write.
                        if replan is None or exc is failure:
                            raise
                        failure = exc
            finally:
                if hasher is not None:
                    hasher.join()
            size += block if source is None else len(block)
            if single:
                break
            stripes.append((tag, len(block)))
            if len(block) < stripe_size:
                break
            block = source.read(stripe_size)
            if not block:
                break
        checksum = "" if source is None else digest.hexdigest()
        if content_md5 is not None and checksum != content_md5.hex():
            raise BadDigestError("Content-MD5 mismatch: payload corrupted in transit")
        return finish(session, checksum, size, stripes)
    except BaseException:
        # A lost provider with nothing left to re-plan on, a corrupt
        # frame, a Content-MD5 mismatch, a lost commit: shipped stripes
        # must not leak.
        stager.abort(session)
        raise


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
    content_md5: Optional[bytes] = None,
) -> ObjectMeta:
    """Store an object through ``stager``, re-planning around failures.

    ``data`` is ``bytes``, a file-like, an iterable of byte blocks, or a
    synthetic byte count; it is read once, front to back.  A provider
    that is down, full or refuses the chunk size while a stripe ships is
    excluded and the write re-planned forward (:attr:`Stager.replan`):
    the stripes that landed move to the new placement and the stripe in
    hand ships there, so nothing is read twice.  When no feasible
    placement is left the write fails clean, naming each disqualified
    provider in :attr:`WriteFailedError.causes`.  ``content_md5`` (16
    bytes) is checked against the body's digest before commit; a
    mismatch aborts with :class:`BadDigestError`.
    """
    if isinstance(data, int) and not isinstance(data, bool):
        if data < 0:
            raise ValueError("synthetic size must be >= 0")
        source, first = None, int(data)
        single, size_guess = True, first
    else:
        if stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        source = ByteSource(data, size_hint=size_hint)
        first = source.read(stripe_size)
        if len(first) < stripe_size:
            single, size_guess = True, len(first)
        else:
            # Length unknown: place by a guess (metadata gets the exact
            # size; the optimizer corrects any resulting misplacement).
            single, size_guess = False, source.size_hint or 2 * stripe_size
    causes: Dict[str, BaseException] = {}

    def replan(session: StagedWrite, stripes, exc: BaseException) -> StagedWrite:
        failed = exc.provider_name
        if not failed:
            raise exc
        if failed in causes:
            # The planner handed back a provider it was told to avoid.
            raise WriteFailedError(
                f"no reachable placement for {container}/{key}", causes=causes
            ) from exc
        causes[failed] = exc
        return stager.replan(
            session, stripes,
            exclude=sorted(causes), size_guess=size_guess, mime=mime, rule=rule,
        )

    try:
        session = stager.begin(
            container, key, size_guess=size_guess, mime=mime, rule=rule, exclude=()
        )
        return _write_stripes(
            stager, session, source, first, stripe_size,
            single=single, content_md5=content_md5, replan=replan,
            finish=lambda session, checksum, size, stripes: stager.commit(
                session,
                size=size, checksum=checksum, stripes=stripes,
                mime=mime, rule=rule, ttl_hint=ttl_hint,
            ),
        )
    except PlacementError as exc:
        # Nothing feasible is left (the write's chunks are already gone).
        raise WriteFailedError(str(exc), causes=causes) from exc


def put_part(
    stager: Stager,
    container: str,
    key: str,
    upload_id: str,
    part_number: int,
    data,
    *,
    content_md5: Optional[bytes] = None,
) -> PartState:
    """Store one multipart part through ``stager``.

    Placement and stripe size were fixed when the upload was created, so
    there is no re-plan: a failure deletes the staged chunks and is
    reported.  Every attempt stages under a fresh journaled generation,
    so no retry or race reuses a chunk key.  ``content_md5`` is checked
    as :func:`put_object` checks it.
    """
    if isinstance(data, int) and not isinstance(data, bool):
        raise MultipartError("multipart parts must carry real bytes")
    source = ByteSource(data)
    session = stager.part_begin(container, key, upload_id, int(part_number))
    return _write_stripes(
        stager, session, source, None, session.stripe_size,
        single=False, content_md5=content_md5,
        finish=lambda session, etag, size, stripes: stager.part_commit(
            session, etag=etag, size=size, stripes=stripes
        ),
    )
