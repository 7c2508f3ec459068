"""The broker-side ops RPC: sole owner of metadata, serving worker requests.

In pre-forked mode (``repro serve --workers N``) the gateway worker
processes do all per-request CPU work — HTTP, body streaming, erasure
coding, checksumming — and reach the single broker process through this
service, built on the length-prefixed transport of
:mod:`repro.replication.rpc`.  The broker keeps sole ownership of
metadata, striped locks, the WAL and the control plane; what crosses the
socket is *encoded chunks* (as raw binary payloads, no base64) and small
JSON control frames.

Writes serve the engine's staged protocol (:meth:`Scalia.stager`) to the
write driver running in the worker (:mod:`repro.cluster.writepath`): it
encodes each stripe, ships the shards in one binary frame, and commits
with the md5 it computed while streaming.  Reads are the mirror image:
``read_stripe`` returns one stripe's fetched chunks — sorted by shard
index, shipped back-to-back — and the worker decodes; when the ``m``
cheapest chunks happen to be the data shards the worker serves a single
zero-copy slice of the receive buffer.  A window narrower than the chunks
it touches returns the proven Merkle leaves that cover it, never a stripe
(:mod:`repro.cluster.readpath`); the worker verifies them again and cuts.

Typed broker errors cross the RPC as structured ``err`` documents
(``kind`` + message + optional fields) so the worker re-raises the exact
exception type its HTTP layer already maps to status codes.

Every operation that has a direct-mode counterpart runs under
:meth:`BrokerFrontend.run_op` with the matching op name, so the broker's
op/error counters — and everything layered on them (``/stats``,
``repro top``) — stay whole-system truthful regardless of which process
did the encoding.

Everything else a worker asks of the broker is plain call forwarding,
declared once in :data:`OPERATIONS`: the handler here, the worker's stub
(:mod:`repro.gateway.remote`) and the cluster's write gate
(:data:`WRITE_OPS`) all derive from a row.  Only the eight ops that carry
a session or a binary payload are framed by hand.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.engine import (
    InvalidRangeError,
    InvalidContinuationTokenError,
    MultipartError,
    NoSuchUploadError,
    ObjectNotFoundError,
    PlacementError,
    ReadFailedError,
    ReadPlan,
    WriteFailedError,
)
from repro.cluster.multipart import MultipartState, PartState
from repro.cluster.readpath import detach_leaves
from repro.cluster.writepath import StagedWrite
from repro.erasure.striping import Chunk, SyntheticChunk
from repro.gateway.frontend import BrokerFrontend, FrontendClosedError
from repro.obs.workers import WorkerMetricsAggregator
from repro.providers.provider import (
    CapacityExceededError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.providers.registry import UnknownProviderError
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
from repro.replication.rpc import RpcError, RpcServer
from repro.types import ListPage, ObjectMeta


def _size(value) -> int:
    return int(value or 0)


def _same(value):
    return value


def _cause_messages(causes) -> Dict[str, str]:
    return {name: str(exc) for name, exc in (causes or {}).items()}


def _cause_errors(messages) -> Dict[str, BaseException]:
    return {name: RuntimeError(msg) for name, msg in (messages or {}).items()}


class _WireError(NamedTuple):
    """One typed broker exception as it crosses the ops RPC."""

    kind: str
    cls: type
    #: Exception attributes that travel too: name -> (to wire, from wire).
    fields: Dict[str, Tuple[Callable, Callable]] = {}


_PROVIDER = {"provider_name": (_same, _same)}

#: The error vocabulary of the ops RPC, declared once: encode
#: (:func:`error_doc`, broker side) and decode (:func:`error_from_doc`,
#: worker side) both derive from it.  Encode takes the first row whose
#: class matches, so a subclass goes before its base; decode takes the
#: first row of a kind, so ``TypeError`` arrives as ``ValueError`` (the
#: HTTP layer answers both with 400).
WIRE_ERRORS: Tuple[_WireError, ...] = (
    _WireError("object_not_found", ObjectNotFoundError),
    _WireError("invalid_range", InvalidRangeError, {"object_size": (_size, _size)}),
    _WireError("write_failed", WriteFailedError,
               {"causes": (_cause_messages, _cause_errors)}),
    _WireError("read_failed", ReadFailedError),
    _WireError("no_placement", PlacementError),
    _WireError("no_such_upload", NoSuchUploadError),
    _WireError("multipart", MultipartError),
    _WireError("bad_token", InvalidContinuationTokenError),
    _WireError("provider_unavailable", ProviderUnavailableError, _PROVIDER),
    _WireError("capacity_exceeded", CapacityExceededError, _PROVIDER),
    _WireError("chunk_too_large", ChunkTooLargeError, _PROVIDER),
    _WireError("unknown_provider", UnknownProviderError),
    _WireError("closed", FrontendClosedError),
    # A follower's (or a deposed leader's) broker refusing a write: the
    # worker answers the 503 the single-process node would.
    _WireError("not_leader", NotLeaderError, {"leader_url": (_same, _same)}),
    _WireError("cluster_unavailable", ClusterUnavailableError,
               {"retry_after": (_same, _same)}),
    _WireError("value_error", ValueError),
    _WireError("value_error", TypeError),
)
_BY_KIND = {row.kind: row for row in reversed(WIRE_ERRORS)}


def error_doc(exc: Exception) -> Optional[Dict[str, Any]]:
    """Map a typed broker exception to a structured wire document."""
    for row in WIRE_ERRORS:
        if isinstance(exc, row.cls):
            doc = {"kind": row.kind, "msg": str(exc.args[0]) if exc.args else str(exc)}
            for attr, (encode, _) in row.fields.items():
                doc[attr] = encode(getattr(exc, attr, None))
            return doc
    return None


def error_from_doc(err: Dict[str, Any]) -> Exception:
    """Rebuild the exception an ``err`` document was made from."""
    kind = err.get("kind")
    msg = err.get("msg", kind or "remote broker error")
    row = _BY_KIND.get(kind)
    if row is None:
        return RpcError(msg)
    exc = row.cls(msg)
    for attr, (_, decode) in row.fields.items():
        setattr(exc, attr, decode(err.get(attr)))
    return exc


class Op(NamedTuple):
    """One call the ops RPC forwards, as it is declared."""

    #: Dotted path from the :class:`OpsService` to the callable
    #: (``broker.head``); also the op's name on the wire.
    target: str
    #: The :class:`BrokerFrontend` counter the call runs under, if any.  A
    #: ``broker.*`` target is wrapped in ``run_op(counter, …)`` by the
    #: handler; a ``frontend.*`` method counts itself, under this name.
    counter: Optional[str] = None
    #: Mutates broker state: its counter is gated to the leader and waits
    #: for quorum commit in a cluster (:data:`WRITE_OPS`).
    write: bool = False


#: Every forwarded operation, declared once.  Adding one is adding a row
#: (docs/API.md, "Adding an operation"); what is *not* here is framed by
#: hand in :class:`OpsService` because it carries a session or raw chunks.
OPERATIONS: Tuple[Op, ...] = (
    Op("broker.head", "head"),
    Op("broker.open_read", "open_read"),
    Op("broker.commit_read", "commit_read"),
    # Synthetic byte counts only: real bytes take the staged protocol.
    Op("broker.put", "put", write=True),
    Op("broker.delete", "delete", write=True),
    Op("broker.list", "list"),
    Op("broker.create_multipart_upload", "create_upload", write=True),
    Op("broker.complete_multipart_upload", "complete_upload", write=True),
    Op("broker.abort_multipart_upload", "abort_upload", write=True),
    Op("broker.list_multipart_uploads", "list_uploads"),
    Op("broker.explain", "explain"),
    Op("frontend.stats", "stats"),
    # These three journal period closes and repairs.
    Op("frontend.tick_report", "tick", write=True),
    Op("frontend.scrub", "scrub", write=True),
    Op("frontend.audit", "audit", write=True),
    Op("frontend.history"),
    Op("frontend.alerts"),
    Op("frontend.recovery_status"),
    # A clustered worker's HTTP layer asks these before it forwards a
    # write; an unclustered one never does (``hello`` said so).
    Op("frontend.is_leader"),
    Op("frontend.leader_gateway_url"),
    Op("frontend.cluster_status"),
    Op("frontend.fault_profiles", "faults"),
    # Not a write: each cluster node injects its own faults.
    Op("frontend.set_fault_profile", "set_fault"),
    Op("broker.events.query"),
    Op("broker.events.emit"),
    Op("broker.events.stats"),
    Op("broker.metrics.render_text"),
    Op("broker.metrics.render_openmetrics"),
    Op("broker.metrics.render_json"),
    # Served only by a service that was given an aggregator.
    Op("aggregator.push"),
    Op("aggregator.retire"),
)

#: Counters of the two staged commits, the hand-framed writes.
_COMMIT_COUNTERS = {"write_commit": "put", "part_commit": "upload_part"}

#: Frontend counters that mutate broker state: in a cluster they run on
#: the leader and wait for quorum commit (``ClusterFrontend._run``).
WRITE_OPS = frozenset(
    {op.counter for op in OPERATIONS if op.write} | set(_COMMIT_COUNTERS.values())
)

#: Typed values that cross as ``{"__wire__": name, "value": to_dict()}``;
#: everything else crosses as the JSON it already is.
_TAG = "__wire__"
_WIRE_TYPES = {
    cls.__name__: cls
    for cls in (ObjectMeta, MultipartState, PartState, ListPage, ReadPlan)
}
_WIRE_NAMES = {cls: name for name, cls in _WIRE_TYPES.items()}


def to_wire(value):
    """Encode an argument or a result for the RPC's JSON header, by type."""
    kind = type(value)
    if kind is dict:
        doc = {key: to_wire(item) for key, item in value.items()}
        # A plain dict that happens to use the tag key crosses boxed, so
        # outside input (a fault profile, event fields) cannot pose as a
        # typed value.
        return {_TAG: "dict", "value": doc} if _TAG in doc else doc
    if kind is list or kind is tuple:
        return [to_wire(item) for item in value]
    name = _WIRE_NAMES.get(kind)
    if name is not None:
        return {_TAG: name, "value": value.to_dict()}
    return value


def from_wire(value):
    """Inverse of :func:`to_wire` (tuples arrive as lists)."""
    kind = type(value)
    if kind is dict:
        name = value.get(_TAG)
        if name is None:
            return {key: from_wire(item) for key, item in value.items()}
        if name == "dict":
            return {key: from_wire(item) for key, item in value["value"].items()}
        cls = _WIRE_TYPES.get(name)
        if cls is None:
            raise ValueError(f"unknown wire type {name!r}")
        return cls.from_dict(value["value"])
    if kind is list:
        return [from_wire(item) for item in value]
    return value


def _guarded(fn: Callable) -> Callable:
    """Turn typed broker exceptions into structured ``err`` responses.

    Anything unmapped propagates to the RPC server's generic ``ok: false``
    path — a worker treats that as an internal error (HTTP 500).
    """

    @functools.wraps(fn)
    def wrapper(self, *args):
        try:
            return fn(self, *args)
        except Exception as exc:  # noqa: BLE001 — mapped or re-raised
            doc = error_doc(exc)
            if doc is None:
                raise
            return {"err": doc}

    return wrapper


class OpsService:
    """Handler table for one broker's worker-facing ops RPC.

    Forwarded operations (:data:`OPERATIONS`) share one derived handler.
    Eight ops are framed by hand, because they are not call forwarding:
    ``hello`` (the handshake), the staged write protocol ``write_begin``,
    ``write_stripe``, ``write_commit``, ``part_begin``, ``part_commit``,
    ``staged_abort`` (sessions kept here by ``sid``, so stripes and
    commits use the placement planned at begin and an abort cleans up
    without trusting the worker to remember what it shipped) and
    ``read_stripe`` (raw chunks or leaves).  Chunk payloads ride the transport's
    binary frames (``request["_payload"]`` inbound, ``(body, buffers)``
    outbound).
    """

    def __init__(
        self,
        frontend: BrokerFrontend,
        *,
        aggregator: Optional[WorkerMetricsAggregator] = None,
    ) -> None:
        self.frontend = frontend
        self.broker = frontend.broker
        self.aggregator = aggregator
        self._sessions: Dict[str, StagedWrite] = {}
        self._sessions_lock = threading.Lock()

    # -- wiring ---------------------------------------------------------

    def handlers(self) -> Dict[str, Callable]:
        framed = {
            "hello": self._op_hello,
            "write_begin": self._op_write_begin,
            "write_stripe": self._op_write_stripe,
            "write_commit": self._op_write_commit,
            "part_begin": self._op_part_begin,
            "part_commit": self._op_part_commit,
            "staged_abort": self._op_staged_abort,
            "read_stripe": self._op_read_stripe,
        }
        forwarded = {
            op.target: functools.partial(self._forward, op) for op in OPERATIONS
        }
        return {**framed, **forwarded}

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> RpcServer:
        """Start the ops RPC server; read the port off ``.address``."""
        return RpcServer(host, port, self.handlers())

    @_guarded
    def _forward(self, op: Op, request: dict) -> dict:
        """The handler of every :data:`OPERATIONS` row.

        Arguments bind to the target's own signature at the call, so a
        frame that does not fit it is a ``TypeError`` (a 400 at the
        worker) before any of the target runs.
        """
        target = functools.reduce(getattr, op.target.split("."), self)
        call = functools.partial(
            target, *from_wire(request.get("args", [])), **from_wire(request.get("kwargs", {}))
        )
        if op.counter is not None and not op.target.startswith("frontend."):
            result = self.frontend.run_op(op.counter, call)
        else:
            result = call()
        return {"result": to_wire(result)}

    # -- session bookkeeping --------------------------------------------

    def _session(self, sid: str) -> StagedWrite:
        with self._sessions_lock:
            session = self._sessions.get(sid)
        if session is None:
            raise ValueError(f"unknown staged session {sid!r}")
        return session

    def _open_session(self, session: StagedWrite) -> dict:
        with self._sessions_lock:
            self._sessions[session.sid] = session
        return session.to_dict()

    def _close_session(self, sid: str) -> Optional[StagedWrite]:
        with self._sessions_lock:
            return self._sessions.pop(sid, None)

    # -- handshake ------------------------------------------------------

    def _op_hello(self, request: dict) -> dict:
        return {
            "stripe_size": self.broker.stripe_size_bytes,
            "clustered": self.frontend.clustered,
        }

    # -- staged writes --------------------------------------------------

    @_guarded
    def _op_write_begin(self, request: dict) -> dict:
        # A follower refuses before anything is planned or landed; the
        # commit's own gate covers a leader deposed in between.
        self.frontend.ensure_leader()
        return self._open_session(
            self.broker.stager().begin(
                request["container"],
                request["key"],
                size_guess=int(request.get("size_guess", 1)),
                mime=request.get("mime", "application/octet-stream"),
                rule=request.get("rule"),
                exclude=tuple(request.get("exclude", ())),
            )
        )

    @_guarded
    def _op_write_stripe(self, request: dict) -> dict:
        session = self._session(request["sid"])
        payload = request.get("_payload")
        if payload is None:
            raise ValueError("write_stripe needs a binary payload")
        # Worker and broker are one build spawned by one supervisor, so a
        # frame without a root per shard is malformed, not an older
        # layout: a chunk must never commit without its audit anchor.
        lists = [
            request.get(name) for name in ("indices", "lengths", "checksums", "roots")
        ]
        if any(not isinstance(v, list) or len(v) != session.n for v in lists):
            raise ValueError(
                "write_stripe needs indices, lengths, checksums and roots, "
                "one of each per provider of the session"
            )
        indices, lengths, checksums, roots = lists
        chunks: List[Chunk] = []
        offset = 0
        for index, length, checksum in zip(indices, lengths, checksums):
            shard = payload[offset : offset + int(length)]
            offset += int(length)
            if len(shard) != int(length):
                raise ValueError("write_stripe payload shorter than its shard list")
            chunks.append(Chunk(index=int(index), data=shard, checksum=checksum))
        self.broker.stager().write_stripe(session, request.get("tag"), chunks, roots)
        return {"written": len(chunks)}

    @_guarded
    def _op_write_commit(self, request: dict) -> dict:
        sid = request["sid"]
        session = self._session(sid)
        meta = self.frontend.run_op(
            _COMMIT_COUNTERS["write_commit"],
            lambda: self.broker.stager().commit(
                session,
                size=int(request["size"]),
                checksum=request["checksum"],
                stripes=[(str(t), int(n)) for t, n in request.get("stripes", [])],
                mime=request.get("mime", "application/octet-stream"),
                rule=request.get("rule"),
                ttl_hint=request.get("ttl_hint"),
            ),
        )
        self._close_session(sid)
        return {"meta": meta.to_dict()}

    @_guarded
    def _op_staged_abort(self, request: dict) -> dict:
        session = self._close_session(request["sid"])
        if session is None:
            return {"deleted": 0}
        return {"deleted": self.broker.stager().abort(session)}

    # -- staged multipart -----------------------------------------------

    @_guarded
    def _op_part_begin(self, request: dict) -> dict:
        self.frontend.ensure_leader()  # before the begin row is journaled
        return self._open_session(
            self.broker.stager().part_begin(
                request["container"],
                request["key"],
                request["upload_id"],
                int(request["part_number"]),
            )
        )

    @_guarded
    def _op_part_commit(self, request: dict) -> dict:
        sid = request["sid"]
        session = self._session(sid)
        part = self.frontend.run_op(
            _COMMIT_COUNTERS["part_commit"],
            lambda: self.broker.stager().part_commit(
                session,
                etag=request["etag"],
                size=int(request["size"]),
                stripes=[(str(t), int(n)) for t, n in request.get("stripes", [])],
            ),
        )
        self._close_session(sid)
        return {"part": part.to_dict()}

    # -- reads ----------------------------------------------------------

    @_guarded
    def _op_read_stripe(self, request: dict):
        meta = ObjectMeta.from_dict(request["meta"])
        stripe = int(request["stripe"])
        length = meta.stripe_lengths[stripe]
        lo, hi = int(request.get("lo", 0)), int(request.get("hi", length))
        windows, chunks = self.frontend.run_op(
            "get_stripe", lambda: self.broker.fetch_stripe_window(meta, stripe, lo, hi)
        )
        if windows is not None:
            runs = [p.run for _window, proven in windows for p in proven]
            if None in runs:  # shape-only proofs: nothing to ship but the span
                return {"length": hi - lo, "synthetic": True}
            # A sub-chunk window ships the proven leaves, never a stripe:
            # per planned row, each answering chunk's proof with its leaf
            # bytes riding beside it as raw payload.  The worker plans the
            # same rows from the same ``meta`` and checks every proof again.
            body = {
                "synthetic": False,
                "windows": [
                    [
                        {"index": p.index, "length": len(p.run), "proof": detach_leaves(p.proof)}
                        for p in proven
                    ]
                    for _window, proven in windows
                ],
            }
            return body, runs
        if chunks and isinstance(chunks[0], SyntheticChunk):
            return {"length": hi - lo, "synthetic": True}
        # Ship shards sorted by index: when the m fetched chunks are the
        # data shards (the common all-healthy case for systematic codes),
        # their concatenation *is* the padded stripe — the worker serves
        # a single zero-copy slice of its receive buffer.
        ordered = sorted(chunks, key=lambda c: c.index)
        body = {
            "length": length,
            "synthetic": False,
            "indices": [c.index for c in ordered],
            "lengths": [len(c.data) for c in ordered],
            "checksums": [c.checksum for c in ordered],
        }
        return body, [c.data for c in ordered]
