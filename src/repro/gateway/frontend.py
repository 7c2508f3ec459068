"""The thin dispatch layer between the HTTP gateway and the broker.

The broker is thread-safe on its own contract: striped per-object locks,
a shared/exclusive container lock for listings, internally locked
statistics/metadata/meter structures, and a background control plane that
claims objects in batches (docs/CONCURRENCY.md).  The frontend therefore
serializes nothing: every request thread calls straight into the broker,
and non-conflicting operations on different keys run in parallel under
the broker's own lock hierarchy.  What is left here is mapping tenant
namespaces, translating errors and counting operations, once each, in
the metrics registry of the process that ran them
(``scalia_frontend_ops_total``, which ``/stats`` reads back).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cluster.engine import InvalidRangeError, ObjectNotFoundError
from repro.cluster.multipart import MultipartState, PartState
from repro.core.broker import Scalia
from repro.core.optimizer import OptimizationReport
from repro.gateway.namespace import NamespaceError, NamespaceMapper
from repro.gateway.routes import (
    FrontendClosedError,
    check_preconditions,
    requires_leader,
    resolve_byte_range,
)
from repro.types import ListPage, ObjectMeta


def _tenant_facing(fn: Callable[[], Any], bucket: str, key: str) -> Callable[[], Any]:
    """``fn``, reporting a missing object by the tenant's name for it and
    an unsatisfiable range in the words of HTTP, never by the internal
    container."""

    def call():
        try:
            return fn()
        except ObjectNotFoundError:
            raise ObjectNotFoundError(f"{bucket}/{key} not found") from None
        except InvalidRangeError as exc:
            raise InvalidRangeError("requested range not satisfiable", exc.object_size) from None

    return call


class BrokerFrontend:
    """Thread-safe facade over one :class:`~repro.core.broker.Scalia` broker."""

    def __init__(
        self,
        broker: Optional[Scalia] = None,
        *,
        mode: str = "direct",
        mapper: Optional[NamespaceMapper] = None,
    ) -> None:
        # A wart kept on purpose: the dispatch modes are gone, but
        # benchmarks/spine/layers.py passes mode="direct" and this PR may
        # not edit that tree.  A later benchmark PR drops the argument and
        # this keyword together.
        if mode != "direct":
            raise ValueError(f"unknown frontend mode {mode!r}; want 'direct'")
        self.broker = broker if broker is not None else Scalia()
        self.mapper = mapper if mapper is not None else NamespaceMapper()
        self._closed = False
        self._ops = self.metrics.counter(
            "scalia_frontend_ops_total",
            "Frontend operations, by op and outcome (ok or error).",
            ("op", "outcome"),
        )
        # (op, outcome) -> label child, so a counted call never pays a
        # labels() lookup after the first of its kind.
        self._op_children: Dict[tuple, Any] = {}

    # -- dispatch ---------------------------------------------------------

    def _run(self, op: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the calling thread, through :meth:`gate`, and
        count it under ``op`` in this process's registry."""
        if self._closed:
            raise FrontendClosedError("frontend is closed")
        try:
            result = self.gate(op, fn)
        except Exception:
            self._count(op, "error")
            raise
        self._count(op, "ok")
        return result

    def _count(self, op: str, outcome: str) -> None:
        child = self._op_children.get((op, outcome))
        if child is None:
            # Racing first touches are idempotent: labels() hands every
            # caller the same child.
            child = self._op_children[op, outcome] = self._ops.labels(op, outcome)
        child.inc()

    def gate(self, op: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn``, the operation named ``op``, and count nothing.

        Standalone there is nothing to gate; ``ClusterFrontend`` holds a
        write to the leader and to quorum commit here.  The ops service
        serves a worker's frames through this alone: the worker counts
        the operation in its own ``_run``.
        """
        return fn()

    # -- tenant-facing object API ----------------------------------------

    def put(
        self,
        tenant: str,
        bucket: str,
        key: str,
        data,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
        content_md5: Optional[bytes] = None,
    ) -> ObjectMeta:
        """Store an object; ``data`` may be bytes, a file-like or a block
        iterator (streamed into stripes with O(stripe) gateway memory).
        ``content_md5`` is the client's digest, checked before commit."""
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "put",
            lambda: self.broker.put(
                container, key, data, mime=mime, rule=rule, size_hint=size_hint,
                content_md5=content_md5,
            ),
        )

    def get(self, tenant: str, bucket: str, key: str):
        """The whole object (bytes, or a synthetic object's byte count):
        :meth:`stream_get`'s blocks joined, so one ``get`` plus one
        ``get_stripe`` per further stripe, in either topology."""
        plan, blocks = self.stream_get(tenant, bucket, key)
        body = b"".join(blocks)
        return body if plan.meta.checksum else plan.length

    def stream_get(
        self,
        tenant: str,
        bucket: str,
        key: str,
        *,
        range_spec: Optional[tuple] = None,
        if_match: Optional[str] = None,
        if_none_match: Optional[str] = None,
    ):
        """A (possibly ranged, conditional) read as ``(plan, blocks)``.

        :meth:`open_get` resolves, validates, plans and fetches the first
        block, so every failure that has a status of its own (404, 304,
        412, 416, a first stripe nobody can serve) is raised from here,
        before any header; the block iterator then reads one further
        stripe's slice per broker call, so a slow client never holds any
        broker lock across its whole download and the gateway never
        buffers more than one stripe.  ``range_spec`` is the parsed
        ``Range`` header (suffix ranges resolve against the live size);
        unsatisfiable ranges raise :class:`InvalidRangeError` carrying
        ``object_size``.
        """
        container = self.mapper.internal_container(tenant, bucket)
        plan, first = self._run("get", lambda: self.open_get(
            container, bucket, key,
            range_spec=range_spec, if_match=if_match, if_none_match=if_none_match,
        ))

        def blocks():
            if isinstance(first, (bytes, bytearray, memoryview)):
                yield first
            for stripe, lo, hi in plan.segments[1:]:
                payload = self._run(
                    "get_stripe",
                    lambda: self.broker.read_stripe(plan.meta, stripe, lo, hi),
                )
                if isinstance(payload, (bytes, bytearray, memoryview)):
                    yield payload

        return plan, blocks()

    def open_get(
        self,
        container: str,
        bucket: str,
        key: str,
        *,
        range_spec: Optional[tuple] = None,
        if_match: Optional[str] = None,
        if_none_match: Optional[str] = None,
        raw: bool = False,
    ):
        """A GET up to and including its first block, as ``(plan, first)``;
        :meth:`stream_get` counts it as the GET's one ``get``.

        :meth:`Scalia.open_get` resolves the row once and, under one
        shared hold of the object, applies ``If-Match`` /
        ``If-None-Match`` (a 304 or 412 bills no read) and the range to
        that version, plans the covering stripes, fetches the first
        planned segment and logs the read.  ``first`` is that segment's
        plaintext (a byte count for a synthetic object, ``None`` for a
        zero-length read), or the whole object when the engine's cache
        served it.  With ``raw`` it is what
        :meth:`Scalia.fetch_stripe_window` returns, for a caller that cuts
        and decodes elsewhere: the ops service, serving a worker's
        ``open_get`` frame (docs/API.md), which the worker counts and
        which is never served from the whole-object cache.  ``bucket``
        is only the name a missing object is reported by.
        """

        def validate(meta: ObjectMeta):
            # Preconditions before Range (RFC 9110 §13.2.2).
            check_preconditions(meta.etag, if_match, if_none_match)
            return resolve_byte_range(range_spec, meta.size)

        return _tenant_facing(
            lambda: self.broker.open_get(container, key, validate=validate, raw=raw),
            bucket, key,
        )()

    def head(self, tenant: str, bucket: str, key: str) -> Optional[ObjectMeta]:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run("head", lambda: self.broker.head(container, key))

    def delete(self, tenant: str, bucket: str, key: str) -> None:
        container = self.mapper.internal_container(tenant, bucket)

        fn = _tenant_facing(lambda: self.broker.delete(container, key), bucket, key)
        return self._run("delete", fn)

    def list(
        self,
        tenant: str,
        bucket: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        max_keys: Optional[int] = None,
        continuation_token: Optional[str] = None,
    ) -> ListPage:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "list",
            lambda: self.broker.list(
                container,
                prefix=prefix,
                delimiter=delimiter,
                max_keys=max_keys,
                continuation_token=continuation_token,
            ),
        )

    # -- multipart upload -------------------------------------------------

    def create_upload(
        self,
        tenant: str,
        bucket: str,
        key: str,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
    ) -> MultipartState:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "create_upload",
            lambda: self.broker.create_multipart_upload(
                container, key, mime=mime, rule=rule, size_hint=size_hint
            ),
        )

    def upload_part(
        self,
        tenant: str,
        bucket: str,
        key: str,
        upload_id: str,
        part_number: int,
        data,
        *,
        content_md5: Optional[bytes] = None,
    ) -> PartState:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "upload_part",
            lambda: self.broker.upload_part(
                container, key, upload_id, part_number, data, content_md5=content_md5
            ),
        )

    def complete_upload(
        self,
        tenant: str,
        bucket: str,
        key: str,
        upload_id: str,
        parts=None,
    ) -> ObjectMeta:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "complete_upload",
            lambda: self.broker.complete_multipart_upload(
                container, key, upload_id, parts
            ),
        )

    def abort_upload(self, tenant: str, bucket: str, key: str, upload_id: str) -> int:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "abort_upload",
            lambda: self.broker.abort_multipart_upload(container, key, upload_id),
        )

    def list_uploads(self, tenant: str, bucket: str) -> List[MultipartState]:
        container = self.mapper.internal_container(tenant, bucket)
        return self._run(
            "list_uploads", lambda: self.broker.list_multipart_uploads(container)
        )

    # -- admin API --------------------------------------------------------

    def tick(self, periods: int = 1) -> List[OptimizationReport]:
        """Close sampling periods (the gateway's ``POST /tick``)."""
        return self._run("tick", lambda: self.broker.tick(periods))

    def tick_report(self, periods: int = 1) -> Dict[str, Any]:
        """Tick plus a post-tick summary, read atomically.

        ``POST /tick`` needs the resulting period in its response; reading
        ``broker.period`` after :meth:`tick` returns would race a
        concurrent tick and misreport which period this call closed.
        """

        def fn():
            reports = self.broker.tick(periods)
            return {
                "periods_closed": len(reports),
                "period": self.broker.period,
                "migrations": sum(r.migrations for r in reports),
                "repairs": sum(r.repairs for r in reports),
            }

        return self._run("tick", fn)

    def scrub(self, *, repair: bool = True) -> Dict[str, Any]:
        """Run a broker-wide integrity scrub (the gateway's ``POST /scrub``).

        The pass runs concurrently with client traffic:
        each object is verified/repaired under its striped lock and the
        orphan sweep honours the in-flight write registry, so repairs
        cannot race client writes on the same object.
        """
        return self._run("scrub", lambda: self.broker.scrub(repair=repair).to_dict())

    def audit(
        self, *, repair: bool = True, seed: Optional[int] = None
    ) -> Dict[str, Any]:
        """Run a challenge-response possession sweep (``POST /audit``).

        The cheap sibling of :meth:`scrub`: providers prove possession of
        sampled Merkle leaves at O(log) bytes per chunk, and only a
        failed proof escalates to full-read repair (plus a force-opened
        breaker for the lying provider).  ``seed`` pins the sweep's leaf
        sampling for replay.
        """
        return self._run(
            "audit",
            lambda: self.broker.audit(repair=repair, seed=seed).to_dict(),
        )

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of gateway and broker health."""
        return self._run("stats", lambda: self._snapshot())

    @property
    def metrics(self):
        """The broker's metrics registry (the gateway's ``GET /metrics``).

        Scrapes bypass ``_run``: reading metrics must work even while the
        frontend is draining, and must never count as an operation.
        """
        return self.broker.metrics

    @property
    def events(self):
        """The broker's decision-event journal (``GET /events``).

        Same bypass rationale as :attr:`metrics`: querying the journal is
        read-only observability, never an operation.
        """
        return self.broker.events

    def event_key(self, tenant: str, key: Optional[str]) -> Optional[str]:
        """Translate a client-facing ``bucket/key`` filter to a journal subject.

        The journal records internal container names; clients filter by the
        bucket names they know.  Keys without a ``/`` (provider names for
        breaker events) and unmappable buckets pass through literally.
        """
        if not key or "/" not in key:
            return key
        bucket, _, rest = key.partition("/")
        try:
            return f"{self.mapper.internal_container(tenant, bucket)}/{rest}"
        except NamespaceError:
            return key

    def history(self, series: Optional[str] = None, window_s: Optional[float] = None):
        """The ``GET /history`` document (pull-through sampled)."""
        self.broker.history.maybe_sample()
        return self.broker.history.to_dict(series=series, window_s=window_s)

    def alerts(self) -> Dict[str, Any]:
        """The ``GET /alerts`` document: rules, burn rates, active alerts."""
        self.broker.history.maybe_sample()
        return self.broker.slo.to_dict()

    def explain(self, tenant: str, bucket: str, key: str) -> Dict[str, Any]:
        """The placement-rationale join (``POST /explain``)."""
        container = self.mapper.internal_container(tenant, bucket)

        def fn():
            doc = self.broker.explain(container, key)
            doc["bucket"] = bucket
            doc["tenant"] = tenant
            return doc

        return self._run("explain", _tenant_facing(fn, bucket, key))

    def recovery_status(self) -> Dict[str, Any]:
        """Durability/recovery summary for the ``/healthz`` body."""
        return {
            "durable": self.broker.durability is not None,
            "recovery": self.broker.recovery,
        }

    # -- cluster surface (standalone answers; ClusterFrontend overrides) ----

    #: Whether a replication node stands behind this frontend.  A worker
    #: learns it once, from ``hello``.
    clustered = False

    def requires_leader(self, kind: str, method: str) -> bool:
        """Whether the HTTP layer must forward this route to the leader.

        A table lookup, never an RPC; a standalone broker is its own
        leader for everything.
        """
        return self.clustered and requires_leader(kind, method)

    def ensure_leader(self) -> None:
        """Raise unless a write may start here (the staged begins ask)."""

    def leader_gateway_url(self) -> Optional[str]:
        return None

    def is_leader(self) -> bool:
        return True

    def cluster_status(self) -> Optional[Dict[str, Any]]:
        """``GET /cluster`` document, or ``None`` when not clustered."""
        return None

    def _snapshot(self) -> Dict[str, Any]:
        broker = self.broker
        costs = broker.costs()
        # One collect() folds every worker's last push in beside this
        # process's own counts.
        counts: Dict[str, Dict[str, int]] = {"ok": {}, "error": {}}
        family = broker.metrics.collect().get("scalia_frontend_ops_total", {"children": ()})
        for (op, outcome), count in family["children"]:
            counts[outcome][op] = int(count)
        return {
            "period": broker.period,
            "now_hours": broker.now,
            "providers": broker.registry.names(),
            "ops": counts["ok"],
            "errors": counts["error"],
            "stats_records": broker.cluster.stats.record_count(),
            "pending_deletes": len(broker.cluster.pending_deletes),
            "cost_total": costs.total,
            "cost_by_provider": costs.by_provider,
            "storage": broker.storage_stats(),
            "health": broker.health_report(),
            "hedging": broker.hedge_stats(),
        }

    # -- fault injection (the chaos-tooling surface) ----------------------

    def fault_profiles(self) -> Dict[str, Any]:
        """Per-provider installed fault profile (``GET /faults``)."""
        return self._run("faults", lambda: self.broker.registry.fault_profiles())

    def set_fault_profile(
        self, provider: str, profile_doc: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Install (``profile_doc``) or clear (``None``) a fault profile.

        The document uses the JSON form of ``FaultProfile.describe``;
        returns the provider's resulting profile state.
        """
        from repro.providers.faults import profile_from_dict

        def fn():
            profile = profile_from_dict(profile_doc) if profile_doc else None
            self.broker.registry.set_fault_profile(provider, profile)
            return {
                "provider": provider,
                "fault_profile": profile.describe() if profile else None,
            }

        return self._run("set_fault", fn)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work."""
        self._closed = True

    def __enter__(self) -> "BrokerFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
