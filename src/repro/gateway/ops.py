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
``open_get`` runs a GET up to its first stripe here
(:meth:`BrokerFrontend.open_get`) and answers with the plan and that
stripe, ``read_stripe`` with each further one, as the fetched chunks —
sorted by shard index, shipped back-to-back — which the worker decodes;
when the ``m`` cheapest chunks happen to be the data shards the worker
serves a single zero-copy slice of the receive buffer.  A window narrower
than the chunks it touches returns the proven Merkle leaves that cover
it, never a stripe (:mod:`repro.cluster.readpath`); the worker verifies
them again and cuts.

Typed broker errors cross the RPC as structured ``err`` documents
(``kind`` + message + optional fields) so the worker re-raises the exact
exception type its HTTP layer already maps to status codes.

A frame served for a worker counts nothing: the worker counted the
operation in its own frontend, and its registry reaches ``/stats``
through the aggregator.  A frame that writes still passes
:meth:`BrokerFrontend.gate` under its op name, so in a cluster it runs
on the leader and waits for quorum commit.

Everything else a worker asks of the broker is plain call forwarding,
declared once in :data:`OPERATIONS`: the handler here, the worker's stub
(:mod:`repro.gateway.remote`) and the cluster's write gate
(:data:`WRITE_OPS`) all derive from a row.  Only the ten ops that carry
a session or a binary payload are framed by hand.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.multipart import MultipartState, PartState
from repro.cluster.readpath import detach_leaves
from repro.cluster.writepath import StagedWrite
from repro.erasure.striping import Chunk, SyntheticChunk
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.routes import ERRORS
from repro.obs.workers import WorkerMetricsAggregator
from repro.replication.rpc import RpcError, RpcServer
from repro.types import ListPage, ObjectMeta


#: The error vocabulary of the ops RPC: the rows of :data:`ERRORS` that
#: have a wire kind.  Encode (:func:`error_doc`, broker side) takes the
#: first row whose class matches, decode (:func:`error_from_doc`, worker
#: side) the first row of a kind.
WIRE_ERRORS = tuple(row for row in ERRORS if row.kind is not None)
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
    #: The op name :meth:`BrokerFrontend.gate` keys on, if any.  A
    #: ``broker.*`` target is run through ``gate(counter, …)`` by the
    #: handler (the worker counted it); a ``frontend.*`` method gates and
    #: counts itself, under this name.
    counter: Optional[str] = None
    #: Mutates broker state: its op name is gated to the leader and waits
    #: for quorum commit in a cluster (:data:`WRITE_OPS`).
    write: bool = False


#: Every forwarded operation, declared once.  Adding one is adding a row
#: (docs/API.md, "Adding an operation"); what is *not* here is framed by
#: hand in :class:`OpsService` because it carries a session or raw chunks.
OPERATIONS: Tuple[Op, ...] = (
    Op("broker.head", "head"),
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

#: The op names the two staged commits, the hand-framed writes, are
#: gated under.
_COMMIT_COUNTERS = {"write_commit": "put", "part_commit": "upload_part"}

#: Op names that mutate broker state: in a cluster they run on the
#: leader and wait for quorum commit (``ClusterFrontend.gate``).
WRITE_OPS = frozenset(
    {op.counter for op in OPERATIONS if op.write} | set(_COMMIT_COUNTERS.values())
)

#: Typed values that cross as ``{"__wire__": name, "value": to_dict()}``;
#: everything else crosses as the JSON it already is.
_TAG = "__wire__"
_WIRE_TYPES = {
    cls.__name__: cls
    for cls in (ObjectMeta, MultipartState, PartState, ListPage)
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


def _guarded(handler: Callable) -> Callable:
    """``handler``, turning typed broker exceptions into structured
    ``err`` responses.

    Anything unmapped propagates to the RPC server's generic ``ok: false``
    path — a worker treats that as an internal error (HTTP 500).
    """

    def wrapper(request: dict):
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 — mapped or re-raised
            doc = error_doc(exc)
            if doc is None:
                raise
            return {"err": doc}

    return wrapper


def _counted(child, handler: Callable) -> Callable:
    """``handler``, counting every frame it serves."""

    def wrapper(request: dict):
        child.inc()
        return handler(request)

    return wrapper


class OpsService:
    """Handler table for one broker's worker-facing ops RPC.

    Forwarded operations (:data:`OPERATIONS`) share one derived handler.
    Ten ops are framed by hand, because they are not call forwarding:
    ``hello`` (the handshake), the staged write protocol ``write_begin``,
    ``write_stripe``, ``write_replan``, ``write_commit``, ``part_begin``, ``part_commit``,
    ``staged_abort`` (sessions kept here by ``sid``, so stripes and
    commits use the placement planned at begin and an abort cleans up
    without trusting the worker to remember what it shipped), and the
    reads ``open_get`` and ``read_stripe`` (raw chunks or leaves).  Chunk
    payloads ride the transport's binary frames (``request["_payload"]``
    inbound, ``(body, buffers)`` outbound).

    A session belongs to the worker ``(slot, incarnation)`` its begin
    named, if it named one; :meth:`abort_sessions_of` is what the
    supervisor calls when that worker dies, so a SIGKILL mid-PUT leaves
    neither a session nor an in-flight skey behind.  Whoever takes a
    session out of the table is the only one who may commit or abort it.
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
        #: sid -> (session, the ``(slot, incarnation)`` that began it or None)
        self._sessions: Dict[str, Tuple[StagedWrite, Optional[Tuple[int, int]]]] = {}
        #: slot -> newest incarnation the supervisor reported dead
        self._buried: Dict[int, int] = {}
        self._sessions_lock = threading.Lock()

    # -- wiring ---------------------------------------------------------

    def handlers(self) -> Dict[str, Callable]:
        framed = {
            "hello": self._op_hello,
            "write_begin": self._op_write_begin,
            "write_stripe": self._op_write_stripe,
            "write_replan": self._op_write_replan,
            "write_commit": self._op_write_commit,
            "part_begin": self._op_part_begin,
            "part_commit": self._op_part_commit,
            "staged_abort": self._op_staged_abort,
            "open_get": self._op_open_get,
            "read_stripe": self._op_read_stripe,
        }
        forwarded = {
            op.target: functools.partial(self._forward, op) for op in OPERATIONS
        }
        table = {op: _guarded(fn) for op, fn in {**framed, **forwarded}.items()}
        # The broker's registry; a stand-in frontend without one (the
        # engine tests serve a bare stager) is served uncounted.
        metrics = getattr(self.frontend, "metrics", None)
        if metrics is None or not metrics.enabled:
            return table
        frames = metrics.counter(
            "scalia_ops_rpc_frames_total",
            "Ops-RPC frames served to gateway workers, by op.",
            ("op",),
        )
        return {op: _counted(frames.labels(op), fn) for op, fn in table.items()}

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> RpcServer:
        """Start the ops RPC server; read the port off ``.address``."""
        return RpcServer(host, port, self.handlers())

    def _forward(self, op: Op, request: dict) -> dict:
        """The handler of every :data:`OPERATIONS` row.

        Arguments bind to the target's own signature at the call, so a
        frame that does not fit it is a ``TypeError`` (a 500 at the
        worker) before any of the target runs.
        """
        target = functools.reduce(getattr, op.target.split("."), self)
        call = functools.partial(
            target, *from_wire(request.get("args", [])), **from_wire(request.get("kwargs", {}))
        )
        if op.counter is not None and not op.target.startswith("frontend."):
            call = functools.partial(self.frontend.gate, op.counter, call)
        return {"result": to_wire(call())}

    # -- session bookkeeping --------------------------------------------

    def _session(self, sid: str) -> StagedWrite:
        with self._sessions_lock:
            entry = self._sessions.get(sid)
        if entry is None:
            raise ValueError(f"unknown staged session {sid!r}")
        return entry[0]

    def _gone(self, owner) -> bool:
        """Whether ``owner`` was reported dead (call with the lock held)."""
        return owner is not None and owner[1] <= self._buried.get(owner[0], 0)

    def _open_session(self, session: StagedWrite, owner) -> dict:
        """Keep ``session`` for its worker.  A begin (or a failed commit)
        still in service when the supervisor reported that worker dead
        comes here after the abort: its session is aborted on the spot."""
        if owner is not None:
            owner = (int(owner[0]), int(owner[1]))
        with self._sessions_lock:
            gone = self._gone(owner)
            if not gone:
                self._sessions[session.sid] = (session, owner)
        if gone:
            self.broker.stager().abort(session)
            raise ValueError(f"worker {owner} is gone; its staged session is aborted")
        return session.to_dict()

    def _take_session(self, sid: str):
        """Remove and return ``(session, owner)``, or ``None``."""
        with self._sessions_lock:
            return self._sessions.pop(sid, None)

    def _commit(self, sid: str, op: str, commit: Callable[[StagedWrite], Any]):
        """Run a staged commit through the gate, on a session taken out of
        the table: aborting a dead worker's sessions cannot race the
        journaling.  A failed commit puts it back for the driver's abort."""
        entry = self._take_session(sid)
        if entry is None:
            raise ValueError(f"unknown staged session {sid!r}")
        try:
            return self.frontend.gate(_COMMIT_COUNTERS[op], lambda: commit(entry[0]))
        except BaseException:
            self._open_session(*entry)
            raise

    def abort_sessions_of(self, slot: int, incarnation: int) -> int:
        """Abort every session a dead worker left open; returns deletions.

        A stripe of such a session may still be landing on a connection
        thread here: what it lands after this abort deleted the refs is
        unreferenced and no longer in flight, an ordinary orphan of the
        next scrub.
        """
        with self._sessions_lock:
            self._buried[slot] = max(incarnation, self._buried.get(slot, 0))
            dead = [sid for sid, (_, owner) in self._sessions.items() if self._gone(owner)]
            sessions = [self._sessions.pop(sid)[0] for sid in dead]
        return sum(self.broker.stager().abort(session) for session in sessions)

    # -- handshake ------------------------------------------------------

    def _op_hello(self, request: dict) -> dict:
        return {
            "stripe_size": self.broker.stripe_size_bytes,
            "clustered": self.frontend.clustered,
            "metrics": self.frontend.metrics.enabled,
        }

    # -- staged writes --------------------------------------------------

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
            ),
            request.get("owner"),
        )

    def _op_write_stripe(self, request: dict) -> dict:
        session = self._session(request["sid"])
        payload = request.get("_payload")
        if payload is None:
            raise ValueError("write_stripe needs a binary payload")
        # Worker and broker are one build spawned by one supervisor, so a
        # frame without a root per shard is malformed, not an older
        # layout: a chunk must never commit without its audit anchor.
        lists = [request.get(name) for name in ("indices", "lengths", "roots")]
        if any(not isinstance(v, list) or len(v) != session.n for v in lists):
            raise ValueError(
                "write_stripe needs indices, lengths and roots, "
                "one of each per provider of the session"
            )
        indices, lengths, roots = lists
        chunks: List[Chunk] = []
        offset = 0
        for index, length in zip(indices, lengths):
            shard = payload[offset : offset + int(length)]
            offset += int(length)
            if len(shard) != int(length):
                raise ValueError("write_stripe payload shorter than its shard list")
            chunks.append(Chunk(index=int(index), data=shard))
        self.broker.stager().write_stripe(session, request.get("tag"), chunks, roots)
        return {"written": len(chunks)}

    def _op_write_replan(self, request: dict) -> dict:
        """Re-plan a session forward; its successor takes its table entry
        and its owner.  The session is out of the table while it moves,
        as at commit, so a dead worker's abort cannot race the move; a
        failed re-plan puts it back for the driver's abort."""
        entry = self._take_session(request["sid"])
        if entry is None:
            raise ValueError(f"unknown staged session {request['sid']!r}")
        try:
            successor = self.broker.stager().replan(
                entry[0], request["stripes"], exclude=request["exclude"],
                size_guess=int(request["size_guess"]), mime=request["mime"], rule=request["rule"],
            )
        except BaseException:
            self._open_session(*entry)
            raise
        return self._open_session(successor, entry[1])

    def _op_write_commit(self, request: dict) -> dict:
        meta = self._commit(
            request["sid"],
            "write_commit",
            lambda session: self.broker.stager().commit(
                session,
                size=int(request["size"]),
                checksum=request["checksum"],
                stripes=[(str(t), int(n)) for t, n in request.get("stripes", [])],
                mime=request.get("mime", "application/octet-stream"),
                rule=request.get("rule"),
                ttl_hint=request.get("ttl_hint"),
            ),
        )
        return {"meta": meta.to_dict()}

    def _op_staged_abort(self, request: dict) -> dict:
        entry = self._take_session(request["sid"])
        if entry is None:
            return {"deleted": 0}
        return {"deleted": self.broker.stager().abort(entry[0])}

    # -- staged multipart -----------------------------------------------

    def _op_part_begin(self, request: dict) -> dict:
        self.frontend.ensure_leader()  # before the begin row is journaled
        return self._open_session(
            self.broker.stager().part_begin(
                request["container"],
                request["key"],
                request["upload_id"],
                int(request["part_number"]),
            ),
            request.get("owner"),
        )

    def _op_part_commit(self, request: dict) -> dict:
        part = self._commit(
            request["sid"],
            "part_commit",
            lambda session: self.broker.stager().part_commit(
                session,
                etag=request["etag"],
                size=int(request["size"]),
                stripes=[(str(t), int(n)) for t, n in request.get("stripes", [])],
            ),
        )
        return {"part": part.to_dict()}

    # -- reads ----------------------------------------------------------

    def _op_open_get(self, request: dict):
        """A GET up to and including its first segment, in one frame: the
        plan, and the first segment as ``read_stripe`` would answer it."""
        range_spec = request.get("range")
        plan, first = self.frontend.open_get(
            request["container"],
            request["bucket"],
            request["key"],
            range_spec=tuple(range_spec) if range_spec is not None else None,
            if_match=request.get("if_match"),
            if_none_match=request.get("if_none_match"),
            raw=True,
        )
        if first is None:  # a zero-length read plans no segment
            return {"plan": plan.to_dict()}
        stripe, lo, hi = plan.segments[0]
        body, buffers = self._stripe_reply(plan.meta.stripe_lengths[stripe], lo, hi, *first)
        return {"plan": plan.to_dict(), **body}, buffers

    def _op_read_stripe(self, request: dict):
        meta = ObjectMeta.from_dict(request["meta"])
        stripe = int(request["stripe"])
        length = meta.stripe_lengths[stripe]
        lo, hi = int(request.get("lo", 0)), int(request.get("hi", length))
        fetched = self.broker.fetch_stripe_window(meta, stripe, lo, hi)
        return self._stripe_reply(length, lo, hi, *fetched)

    @staticmethod
    def _stripe_reply(length: int, lo: int, hi: int, windows, chunks):
        """What :meth:`Scalia.fetch_stripe_window` fetched for ``[lo, hi)`` of a
        stripe of ``length`` plaintext bytes, as the ``(body, buffers)`` a
        worker opens with ``_RemoteBroker._open_stripe``."""
        if windows is not None:
            runs = [p.run for _window, proven in windows for p in proven]
            if None in runs:  # shape-only proofs: nothing to ship but the span
                return {"length": hi - lo, "synthetic": True}, ()
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
            return {"length": hi - lo, "synthetic": True}, ()
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
        }
        return body, [c.data for c in ordered]
