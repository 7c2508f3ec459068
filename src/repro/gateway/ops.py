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
zero-copy slice of the receive buffer.

Typed broker errors cross the RPC as structured ``err`` documents
(``kind`` + message + optional fields) so the worker re-raises the exact
exception type its HTTP layer already maps to status codes.

Every operation that has a direct-mode counterpart runs under
:meth:`BrokerFrontend.run_op` with the matching op name, so the broker's
op/error counters — and everything layered on them (``/stats``,
``repro top``) — stay whole-system truthful regardless of which process
did the encoding.
"""

from __future__ import annotations

import functools
import os
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
from repro.replication.rpc import RpcError, RpcServer
from repro.types import ObjectMeta


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
    _WireError("value_error", ValueError),
    _WireError("value_error", TypeError),
)
_BY_KIND = {row.kind: row for row in reversed(WIRE_ERRORS)}


def error_doc(exc: Exception) -> Optional[Dict[str, Any]]:
    """Map a typed broker exception to a structured wire document."""
    for row in WIRE_ERRORS:
        if isinstance(exc, row.cls):
            doc = {"kind": row.kind, "msg": str(exc.args[0]) if exc.args else str(exc)}
            for attr, (to_wire, _) in row.fields.items():
                doc[attr] = to_wire(getattr(exc, attr, None))
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
    for attr, (_, from_wire) in row.fields.items():
        setattr(exc, attr, from_wire(err.get(attr)))
    return exc


def _guarded(fn: Callable) -> Callable:
    """Turn typed broker exceptions into structured ``err`` responses.

    Anything unmapped propagates to the RPC server's generic ``ok: false``
    path — a worker treats that as an internal error (HTTP 500).
    """

    @functools.wraps(fn)
    def wrapper(self, request: dict):
        try:
            return fn(self, request)
        except Exception as exc:  # noqa: BLE001 — mapped or re-raised
            doc = error_doc(exc)
            if doc is None:
                raise
            return {"err": doc}

    return wrapper


class OpsService:
    """Handler table for one broker's worker-facing ops RPC.

    Wire conventions: chunk payloads ride the transport's binary frames
    (``request["_payload"]`` inbound, ``(body, buffers)`` outbound);
    metadata documents use the existing ``to_dict``/``from_dict`` forms.
    Staged write sessions (:class:`~repro.cluster.writepath.StagedWrite`)
    are kept broker-side by ``sid``: stripes and commits use the
    placement planned at begin, and an abort cleans up without trusting
    the worker to remember what it shipped.
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
        return {
            "hello": self._op_hello,
            "write_begin": self._op_write_begin,
            "write_stripe": self._op_write_stripe,
            "write_commit": self._op_write_commit,
            "part_begin": self._op_part_begin,
            "part_commit": self._op_part_commit,
            "staged_abort": self._op_staged_abort,
            "put_synthetic": self._op_put_synthetic,
            "head": self._op_head,
            "read_open": self._op_read_open,
            "read_stripe": self._op_read_stripe,
            "read_commit": self._op_read_commit,
            "delete": self._op_delete,
            "list": self._op_list,
            "create_upload": self._op_create_upload,
            "complete_upload": self._op_complete_upload,
            "abort_upload": self._op_abort_upload,
            "list_uploads": self._op_list_uploads,
            "stats": self._op_stats,
            "tick": self._op_tick,
            "scrub": self._op_scrub,
            "audit": self._op_audit,
            "history": self._op_history,
            "alerts": self._op_alerts,
            "explain": self._op_explain,
            "recovery": self._op_recovery,
            "faults_get": self._op_faults_get,
            "faults_set": self._op_faults_set,
            "events_query": self._op_events_query,
            "events_emit": self._op_events_emit,
            "metrics_push": self._op_metrics_push,
            "metrics_retire": self._op_metrics_retire,
            "metrics_render": self._op_metrics_render,
        }

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> RpcServer:
        """Start the ops RPC server; read the port off ``.address``."""
        return RpcServer(host, port, self.handlers())

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
            "pid": os.getpid(),
            "stripe_size": self.broker.stripe_size_bytes,
            "mode": self.frontend.mode,
            "metrics_enabled": self.broker.metrics.enabled,
        }

    # -- staged writes --------------------------------------------------

    @_guarded
    def _op_write_begin(self, request: dict) -> dict:
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
            "put",
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

    @_guarded
    def _op_put_synthetic(self, request: dict) -> dict:
        meta = self.frontend.run_op(
            "put",
            lambda: self.broker.put(
                request["container"],
                request["key"],
                int(request["size"]),
                mime=request.get("mime", "application/octet-stream"),
                rule=request.get("rule"),
                ttl_hint=request.get("ttl_hint"),
            ),
        )
        return {"meta": meta.to_dict()}

    # -- staged multipart -----------------------------------------------

    @_guarded
    def _op_part_begin(self, request: dict) -> dict:
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
            "upload_part",
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
    def _op_head(self, request: dict) -> dict:
        meta = self.frontend.run_op(
            "head", lambda: self.broker.head(request["container"], request["key"])
        )
        return {"meta": meta.to_dict() if meta is not None else None}

    @_guarded
    def _op_read_open(self, request: dict) -> dict:
        byte_range = request.get("range")
        if byte_range is not None:
            byte_range = (
                int(byte_range[0]),
                None if byte_range[1] is None else int(byte_range[1]),
            )
        plan = self.frontend.run_op(
            "open_read",
            lambda: self.broker.open_read(
                request["container"], request["key"], byte_range=byte_range
            ),
        )
        return {
            "meta": plan.meta.to_dict(),
            "segments": [[s, lo, hi] for s, lo, hi in plan.segments],
            "start": plan.start,
            "end": plan.end,
            "length": plan.length,
        }

    @_guarded
    def _op_read_stripe(self, request: dict):
        meta = ObjectMeta.from_dict(request["meta"])
        length, chunks = self.frontend.run_op(
            "get_stripe",
            lambda: self.broker.fetch_stripe_chunks(meta, int(request["stripe"])),
        )
        if chunks and isinstance(chunks[0], SyntheticChunk):
            return {"length": length, "synthetic": True}
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

    @_guarded
    def _op_read_commit(self, request: dict) -> dict:
        meta = ObjectMeta.from_dict(request["meta"])
        length = int(request.get("length", meta.size))
        plan = ReadPlan(
            meta=meta, segments=[], start=0, end=max(0, length - 1), length=length
        )
        self.frontend.run_op(
            "commit_read",
            lambda: self.broker.commit_read(plan, count=int(request.get("count", 1))),
        )
        return {}

    # -- namespace ops --------------------------------------------------

    @_guarded
    def _op_delete(self, request: dict) -> dict:
        self.frontend.run_op(
            "delete", lambda: self.broker.delete(request["container"], request["key"])
        )
        return {}

    @_guarded
    def _op_list(self, request: dict) -> dict:
        page = self.frontend.run_op(
            "list",
            lambda: self.broker.list(
                request["container"],
                prefix=request.get("prefix", ""),
                delimiter=request.get("delimiter", ""),
                max_keys=request.get("max_keys"),
                continuation_token=request.get("continuation_token"),
            ),
        )
        return {
            "keys": list(page.keys),
            "common_prefixes": list(page.common_prefixes),
            "next_token": page.next_token,
            "is_truncated": page.is_truncated,
        }

    # -- multipart control ----------------------------------------------

    @_guarded
    def _op_create_upload(self, request: dict) -> dict:
        state = self.frontend.run_op(
            "create_upload",
            lambda: self.broker.create_multipart_upload(
                request["container"],
                request["key"],
                mime=request.get("mime", "application/octet-stream"),
                rule=request.get("rule"),
                size_hint=request.get("size_hint"),
            ),
        )
        return {"state": state.to_dict()}

    @_guarded
    def _op_complete_upload(self, request: dict) -> dict:
        raw_parts = request.get("parts")
        parts = (
            None
            if raw_parts is None
            else [(int(n), etag) for n, etag in raw_parts]
        )
        meta = self.frontend.run_op(
            "complete_upload",
            lambda: self.broker.complete_multipart_upload(
                request["container"], request["key"], request["upload_id"], parts
            ),
        )
        return {"meta": meta.to_dict()}

    @_guarded
    def _op_abort_upload(self, request: dict) -> dict:
        deleted = self.frontend.run_op(
            "abort_upload",
            lambda: self.broker.abort_multipart_upload(
                request["container"], request["key"], request["upload_id"]
            ),
        )
        return {"deleted": deleted}

    @_guarded
    def _op_list_uploads(self, request: dict) -> dict:
        states = self.frontend.run_op(
            "list_uploads",
            lambda: self.broker.list_multipart_uploads(request["container"]),
        )
        return {"uploads": [s.to_dict() for s in states]}

    # -- admin / observability ------------------------------------------

    @_guarded
    def _op_stats(self, request: dict) -> dict:
        return {"stats": self.frontend.stats()}

    @_guarded
    def _op_tick(self, request: dict) -> dict:
        return {"report": self.frontend.tick_report(int(request.get("periods", 1)))}

    @_guarded
    def _op_scrub(self, request: dict) -> dict:
        return {"report": self.frontend.scrub(repair=bool(request.get("repair", True)))}

    @_guarded
    def _op_audit(self, request: dict) -> dict:
        seed = request.get("seed")
        return {
            "report": self.frontend.audit(
                repair=bool(request.get("repair", True)),
                seed=int(seed) if seed is not None else None,
            )
        }

    @_guarded
    def _op_history(self, request: dict) -> dict:
        return {
            "history": self.frontend.history(
                series=request.get("series"), window_s=request.get("window_s")
            )
        }

    @_guarded
    def _op_alerts(self, request: dict) -> dict:
        return {"alerts": self.frontend.alerts()}

    @_guarded
    def _op_explain(self, request: dict) -> dict:
        def fn():
            try:
                return self.broker.explain(request["container"], request["key"])
            except KeyError:
                raise ObjectNotFoundError(
                    f"{request['container']}/{request['key']} not found"
                ) from None

        return {"doc": self.frontend.run_op("explain", fn)}

    @_guarded
    def _op_recovery(self, request: dict) -> dict:
        return {"recovery": self.frontend.recovery_status()}

    @_guarded
    def _op_faults_get(self, request: dict) -> dict:
        return {"faults": self.frontend.fault_profiles()}

    @_guarded
    def _op_faults_set(self, request: dict) -> dict:
        return {
            "result": self.frontend.set_fault_profile(
                request["provider"], request.get("profile")
            )
        }

    # -- events ----------------------------------------------------------

    @_guarded
    def _op_events_query(self, request: dict) -> dict:
        journal = self.broker.events
        events = journal.query(
            type=request.get("type"),
            since=request.get("since"),
            key=request.get("key"),
            limit=request.get("limit"),
        )
        return {
            "events": events,
            "latest_seq": journal.latest_seq,
            "stats": journal.stats(),
        }

    @_guarded
    def _op_events_emit(self, request: dict) -> dict:
        fields = request.get("fields") or {}
        seq = self.broker.events.emit(
            request["type"], key=request.get("key"), **fields
        )
        return {"seq": seq}

    # -- worker metrics ---------------------------------------------------

    @_guarded
    def _op_metrics_push(self, request: dict) -> dict:
        if self.aggregator is not None:
            self.aggregator.push(
                int(request["slot"]), int(request["incarnation"]), request["doc"]
            )
        return {}

    @_guarded
    def _op_metrics_retire(self, request: dict) -> dict:
        if self.aggregator is not None:
            self.aggregator.retire(int(request["slot"]))
        return {}

    @_guarded
    def _op_metrics_render(self, request: dict) -> dict:
        fmt = request.get("fmt", "json")
        metrics = self.broker.metrics
        if fmt == "json":
            return {"doc": metrics.render_json()}
        if fmt == "openmetrics":
            return {"text": metrics.render_openmetrics()}
        return {"text": metrics.render_text()}
