"""The worker side of the pre-forked gateway: a broker reached over RPC.

:class:`RemoteBrokerFrontend` is what a gateway worker process hands to
:class:`~repro.gateway.server.ScaliaGateway` instead of a local
:class:`~repro.gateway.frontend.BrokerFrontend`.  It *is* a
``BrokerFrontend`` — same dispatch, same tenant mapping, same error
translation — whose ``broker`` attribute is a :class:`_RemoteBroker`
adapter speaking the ops RPC (:mod:`repro.gateway.ops`) instead of
holding engine state.

The split follows the issue's CPU budget: everything per-request and
compute-bound happens here in the worker — HTTP parsing, body streaming,
Reed-Solomon encode/decode, MD5/SHA1 checksumming — while the broker
process only moves chunks and mutates metadata.  Writes run the engine's
own write driver (:mod:`repro.cluster.writepath`) against the broker's
staged protocol (begin / ship encoded stripes as raw binary payloads /
commit with the streamed MD5); reads fetch one stripe's chunks per RPC and
decode locally.  When the ``m`` fetched chunks are exactly the data
shards (the all-healthy common case of a systematic code), their
back-to-back arrival order means the plaintext is a *single slice of the
receive buffer* — served zero-copy, no decode, no join.

Tenant/bucket -> container mapping stays worker-side (it is pure
hashing); the ops RPC carries internal container names only.
"""

from __future__ import annotations

import functools
import hashlib
import queue
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.engine import ReadFailedError, ReadPlan
from repro.cluster.multipart import MultipartState, PartState
from repro.cluster.writepath import StagedWrite, put_object, put_part
from repro.erasure.rs import CodeCache
from repro.erasure.striping import split_object
from repro.gateway.frontend import BrokerFrontend, FrontendClosedError
from repro.gateway.ops import error_from_doc
from repro.obs.metrics import MetricsRegistry
from repro.replication.rpc import Buffer, RpcClient, RpcError
from repro.types import ListPage, ObjectMeta


class _RpcPool:
    """A small pool of persistent ops-RPC connections.

    Request threads borrow a connection per call (LIFO, so the pool
    stays as small as the true concurrency) and create one when none is
    idle.  A connection whose socket died mid-call is dropped rather
    than returned; :class:`RpcClient` reconnects lazily anyway, this
    just keeps the pool from accumulating corpses.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._idle: "queue.LifoQueue[RpcClient]" = queue.LifoQueue()
        self._closed = False

    def call(self, op: str, _buffers: Sequence[Buffer] = (), **args) -> dict:
        if self._closed:
            raise FrontendClosedError("frontend is closed")
        try:
            client = self._idle.get_nowait()
        except queue.Empty:
            client = RpcClient(
                self.host, self.port, timeout=self._timeout, connect_timeout=5.0
            )
        try:
            return client.call(op, _buffers, **args)
        finally:
            # A transport failure tears the socket down inside call();
            # a peer-reported error leaves it healthy and reusable.
            if self._closed or client._sock is None:
                client.close()
            else:
                self._idle.put(client)

    def close(self) -> None:
        self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return


class _ClusterStub:
    """The slice of ``broker.cluster`` the frontend touches worker-side.

    ``cache=None`` deliberately disables the frontend's whole-object
    cache path: the cache lives in the broker process (one cache, one
    truth) and worker reads go through the stripe RPC.
    """

    cache = None


class RpcStager:
    """The staged write protocol over the ops RPC: what the drivers of
    :mod:`repro.cluster.writepath` talk to in a worker.

    Each call is one frame to the broker, which keeps the session by
    ``sid``.  ``call`` raises typed broker errors, so a provider failing
    broker-side reaches the re-plan loop as the exception it would be in
    process.
    """

    def __init__(self, call, codes: CodeCache) -> None:
        self._call = call
        self.encode = functools.partial(split_object, code_cache=codes)

    def begin(self, container, key, *, size_guess, mime, rule, exclude) -> StagedWrite:
        return StagedWrite.from_dict(self._call(
            "write_begin",
            container=container, key=key, size_guess=size_guess,
            mime=mime, rule=rule, exclude=list(exclude),
        ))

    def part_begin(self, container, key, upload_id, part_number) -> StagedWrite:
        return StagedWrite.from_dict(self._call(
            "part_begin",
            container=container, key=key,
            upload_id=upload_id, part_number=part_number,
        ))

    def write_stripe(self, session, tag, chunks, roots) -> None:
        self._call(
            "write_stripe",
            _buffers=[c.data for c in chunks],
            sid=session.sid,
            tag=tag,
            indices=[c.index for c in chunks],
            lengths=[len(c.data) for c in chunks],
            checksums=[c.checksum for c in chunks],
            roots=list(roots),
        )

    def commit(self, session, *, size, checksum, stripes, mime, rule, ttl_hint) -> ObjectMeta:
        response = self._call(
            "write_commit",
            sid=session.sid, size=size, checksum=checksum,
            stripes=[[t, length] for t, length in stripes],
            mime=mime, rule=rule, ttl_hint=ttl_hint,
        )
        return ObjectMeta.from_dict(response["meta"])

    def part_commit(self, session, *, etag, size, stripes) -> PartState:
        response = self._call(
            "part_commit",
            sid=session.sid, etag=etag, size=size,
            stripes=[[t, length] for t, length in stripes],
        )
        return PartState.from_dict(response["part"])

    def abort(self, session) -> int:
        """Best-effort: the error being reported stays primary, and an
        unreachable broker's sessions die with its session table."""
        try:
            return int(self._call("staged_abort", sid=session.sid)["deleted"])
        except Exception:  # noqa: BLE001
            return 0


class _RemoteBroker:
    """Duck-typed stand-in for :class:`~repro.core.broker.Scalia`.

    Implements exactly the broker surface :class:`BrokerFrontend`'s
    tenant-facing operations use, backed by the ops RPC.  All erasure
    coding and checksumming happens here, in the worker process.
    """

    def __init__(self, pool: _RpcPool) -> None:
        self._pool = pool
        self._codes = CodeCache()
        self._stager = RpcStager(self._call, self._codes)
        self.cluster = _ClusterStub()
        hello = self._call("hello")
        self.stripe_size_bytes = int(hello["stripe_size"])
        self.broker_pid = int(hello.get("pid", 0))

    def _call(self, op: str, _buffers: Sequence[Buffer] = (), **args) -> dict:
        response = self._pool.call(op, _buffers, **args)
        err = response.get("err")
        if err:
            raise error_from_doc(err)
        return response

    # -- write path -----------------------------------------------------

    def put(
        self,
        container: str,
        key: str,
        data,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        ttl_hint: Optional[float] = None,
        size_hint: Optional[int] = None,
    ) -> ObjectMeta:
        """The write driver, run here; a synthetic byte count has nothing
        to encode, so the broker stores it in one call."""
        if isinstance(data, int) and not isinstance(data, bool):
            response = self._call(
                "put_synthetic",
                container=container, key=key, size=int(data),
                mime=mime, rule=rule, ttl_hint=ttl_hint,
            )
            return ObjectMeta.from_dict(response["meta"])
        return put_object(
            self._stager, container, key, data,
            stripe_size=self.stripe_size_bytes, size_hint=size_hint,
            mime=mime, rule=rule, ttl_hint=ttl_hint,
        )

    # -- read path ------------------------------------------------------

    def head(self, container: str, key: str) -> Optional[ObjectMeta]:
        response = self._call("head", container=container, key=key)
        doc = response.get("meta")
        return ObjectMeta.from_dict(doc) if doc is not None else None

    def open_read(
        self,
        container: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> ReadPlan:
        wire_range = None if byte_range is None else list(byte_range)
        response = self._call(
            "read_open", container=container, key=key, range=wire_range
        )
        return ReadPlan(
            meta=ObjectMeta.from_dict(response["meta"]),
            segments=[tuple(seg) for seg in response["segments"]],
            start=int(response["start"]),
            end=int(response["end"]),
            length=int(response["length"]),
        )

    def read_stripe(self, meta: ObjectMeta, stripe: int):
        """Fetch one stripe's chunks from the broker and decode locally.

        Every shard is verified against its shipped SHA-1 (parity with
        ``reassemble_object``'s ``verify=True`` on the direct path).
        When the shards are exactly the data shards in index order, the
        plaintext is the first ``length`` bytes of the receive buffer —
        returned as one zero-copy memoryview.
        """
        response = self._call("read_stripe", meta=meta.to_dict(), stripe=int(stripe))
        length = int(response["length"])
        if response.get("synthetic"):
            return length
        payload = response.get("_payload")
        if payload is None:
            raise ReadFailedError("read_stripe reply carried no chunk payload")
        indices = [int(i) for i in response["indices"]]
        lengths = [int(n) for n in response["lengths"]]
        checksums = response["checksums"]
        shards: Dict[int, memoryview] = {}
        offset = 0
        for index, shard_len, checksum in zip(indices, lengths, checksums):
            shard = payload[offset : offset + shard_len]
            offset += shard_len
            if hashlib.sha1(shard).hexdigest() != checksum:
                raise ValueError(f"chunk {index} failed checksum verification")
            shards[index] = shard
        if indices == list(range(meta.m)):
            # Systematic code + contiguous data shards: the concatenated
            # shards are the padded stripe, plaintext is its prefix.
            return payload[:length]
        code = self._codes.get(meta.m, meta.n)
        return code.decode(shards, length)

    def commit_read(self, plan: ReadPlan, *, count: int = 1) -> None:
        self._call(
            "read_commit",
            meta=plan.meta.to_dict(), length=plan.length, count=count,
        )

    def _materialize(self, plan: ReadPlan):
        """Worker-side mirror of the engine's plan materialization."""
        if not plan.segments:
            return b"" if plan.meta.checksum else 0
        pieces: List[bytes] = []
        synthetic_total = 0
        synthetic = False
        for stripe, lo, hi in plan.segments:
            payload = self.read_stripe(plan.meta, stripe)
            if isinstance(payload, int):
                synthetic = True
                synthetic_total += hi - lo
            else:
                pieces.append(payload[lo:hi])
        if synthetic:
            return synthetic_total
        return bytes(pieces[0]) if len(pieces) == 1 else b"".join(pieces)

    def get(self, container: str, key: str):
        plan = self.open_read(container, key)
        payload = self._materialize(plan)
        self.commit_read(plan)
        return payload

    def get_with_meta(self, container: str, key: str):
        plan = self.open_read(container, key)
        payload = self._materialize(plan)
        self.commit_read(plan)
        return payload, plan.meta

    # -- namespace ops --------------------------------------------------

    def delete(self, container: str, key: str) -> None:
        self._call("delete", container=container, key=key)

    def list(
        self,
        container: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        max_keys: Optional[int] = None,
        continuation_token: Optional[str] = None,
    ) -> ListPage:
        response = self._call(
            "list",
            container=container, prefix=prefix, delimiter=delimiter,
            max_keys=max_keys, continuation_token=continuation_token,
        )
        return ListPage(
            keys=list(response["keys"]),
            common_prefixes=list(response["common_prefixes"]),
            next_token=response.get("next_token"),
            is_truncated=bool(response.get("is_truncated")),
        )

    def explain(self, container: str, key: str) -> dict:
        return self._call("explain", container=container, key=key)["doc"]

    # -- multipart ------------------------------------------------------

    def create_multipart_upload(
        self,
        container: str,
        key: str,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
    ) -> MultipartState:
        response = self._call(
            "create_upload",
            container=container, key=key,
            mime=mime, rule=rule, size_hint=size_hint,
        )
        return MultipartState.from_dict(response["state"])

    def upload_part(
        self, container: str, key: str, upload_id: str, part_number: int, data
    ) -> PartState:
        return put_part(self._stager, container, key, upload_id, part_number, data)

    def complete_multipart_upload(
        self,
        container: str,
        key: str,
        upload_id: str,
        parts: Optional[Sequence[Tuple[int, Optional[str]]]] = None,
    ) -> ObjectMeta:
        wire_parts = (
            None if parts is None else [[int(n), etag] for n, etag in parts]
        )
        response = self._call(
            "complete_upload",
            container=container, key=key, upload_id=upload_id, parts=wire_parts,
        )
        return ObjectMeta.from_dict(response["meta"])

    def abort_multipart_upload(self, container: str, key: str, upload_id: str) -> int:
        response = self._call(
            "abort_upload", container=container, key=key, upload_id=upload_id
        )
        return int(response["deleted"])

    def list_multipart_uploads(self, container: str) -> List[MultipartState]:
        response = self._call("list_uploads", container=container)
        return [MultipartState.from_dict(doc) for doc in response["uploads"]]


class _WorkerMetrics:
    """Dual-face metrics for a worker process.

    Instrumentation (``counter``/``gauge``/``histogram``) lands in the
    worker's *local* registry — incremented on the request hot path with
    zero RPCs; the pusher thread ships snapshots to the broker.
    Rendering (``render_*``) asks the *broker* for the aggregated
    whole-system document, so ``GET /metrics`` answers identically from
    any worker; if the broker is unreachable the local view is served
    rather than failing the scrape.
    """

    def __init__(self, local: MetricsRegistry, pool: _RpcPool) -> None:
        self.local = local
        self._pool = pool

    @property
    def enabled(self) -> bool:
        return self.local.enabled

    def counter(self, name, help_text, labelnames=()):
        return self.local.counter(name, help_text, labelnames)

    def gauge(self, name, help_text, labelnames=()):
        return self.local.gauge(name, help_text, labelnames)

    def histogram(self, name, help_text, labelnames=(), **kwargs):
        return self.local.histogram(name, help_text, labelnames, **kwargs)

    def add_collector(self, fn) -> None:
        self.local.add_collector(fn)

    def render_text(self) -> str:
        try:
            return self._pool.call("metrics_render", fmt="text")["text"]
        except (RpcError, FrontendClosedError):
            return self.local.render_text()

    def render_openmetrics(self) -> str:
        try:
            return self._pool.call("metrics_render", fmt="openmetrics")["text"]
        except (RpcError, FrontendClosedError):
            return self.local.render_openmetrics()

    def render_json(self) -> dict:
        try:
            return self._pool.call("metrics_render", fmt="json")["doc"]
        except (RpcError, FrontendClosedError):
            return self.local.render_json()


class _RemoteJournal:
    """The broker's event journal, reached over RPC.

    ``emit`` is fire-and-forget (event emission must never fail a
    request); queries surface the broker's journal verbatim.
    """

    def __init__(self, pool: _RpcPool) -> None:
        self._pool = pool

    def emit(self, type: str, key: Optional[str] = None, **fields) -> Optional[int]:
        try:
            response = self._pool.call(
                "events_emit", type=type, key=key, fields=fields
            )
            return response.get("seq")
        except (RpcError, FrontendClosedError):
            return None

    def query(
        self,
        *,
        type: Optional[str] = None,
        since: Optional[int] = None,
        key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        response = self._pool.call(
            "events_query", type=type, since=since, key=key, limit=limit
        )
        return response["events"]

    @property
    def latest_seq(self) -> int:
        return int(self._pool.call("events_query", limit=0)["latest_seq"])

    def stats(self) -> Dict[str, int]:
        return self._pool.call("events_query", limit=0)["stats"]


class RemoteBrokerFrontend(BrokerFrontend):
    """A ``BrokerFrontend`` whose broker lives in another process.

    Data-plane operations inherit the base class verbatim (they only
    touch the duck-typed ``self.broker``); admin and observability
    surfaces are overridden to query the broker process directly, so
    ``/stats``, ``/history``, ``/alerts`` et al. report whole-system
    truth no matter which worker answers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        mapper=None,
        metrics: Optional[MetricsRegistry] = None,
        rpc_timeout: float = 60.0,
    ) -> None:
        self._pool = _RpcPool(host, port, timeout=rpc_timeout)
        broker = _RemoteBroker(self._pool)
        super().__init__(broker, mode="direct", mapper=mapper)
        self.local_metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=True)
        )
        self._metrics = _WorkerMetrics(self.local_metrics, self._pool)
        self._events = _RemoteJournal(self._pool)

    # -- observability behind the broker process -------------------------

    @property
    def metrics(self):
        return self._metrics

    @property
    def events(self):
        return self._events

    def stats(self) -> Dict[str, Any]:
        return self._pool.call("stats")["stats"]

    def tick_report(self, periods: int = 1) -> Dict[str, Any]:
        return self._pool.call("tick", periods=periods)["report"]

    def tick(self, periods: int = 1):
        raise NotImplementedError("worker frontends tick via tick_report()")

    def scrub(self, *, repair: bool = True) -> Dict[str, Any]:
        return self._pool.call("scrub", repair=repair)["report"]

    def audit(
        self, *, repair: bool = True, seed: Optional[int] = None
    ) -> Dict[str, Any]:
        return self._pool.call("audit", repair=repair, seed=seed)["report"]

    def history(self, series: Optional[str] = None, window_s: Optional[float] = None):
        return self._pool.call("history", series=series, window_s=window_s)["history"]

    def alerts(self) -> Dict[str, Any]:
        return self._pool.call("alerts")["alerts"]

    def recovery_status(self) -> Dict[str, Any]:
        return self._pool.call("recovery")["recovery"]

    def fault_profiles(self) -> Dict[str, Any]:
        return self._pool.call("faults_get")["faults"]

    def set_fault_profile(
        self, provider: str, profile_doc: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        return self._pool.call(
            "faults_set", provider=provider, profile=profile_doc
        )["result"]

    # -- worker metric shipping ------------------------------------------

    def push_metrics(self, slot: int, incarnation: int) -> None:
        """Ship the local registry snapshot to the broker aggregator."""
        self._pool.call(
            "metrics_push",
            slot=slot, incarnation=incarnation,
            doc=self.local_metrics.render_json(),
        )

    def retire_metrics(self, slot: int) -> None:
        """Fold this worker's last snapshot into the broker's retired
        totals (clean-shutdown path; counters survive, gauges die)."""
        self._pool.call("metrics_retire", slot=slot)

    def close(self) -> None:
        super().close()
        self._pool.close()
