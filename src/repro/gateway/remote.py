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
Reed-Solomon encode/decode, MD5 and Merkle hashing — while the broker
process only moves chunks and mutates metadata.  Writes run the engine's
own write driver (:mod:`repro.cluster.writepath`) against the broker's
staged protocol (begin / ship encoded stripes as raw binary payloads /
commit with the streamed MD5); a read is one ``open_get`` frame that
answers with the plan and the first stripe's chunks, then one
``read_stripe`` per further stripe, each decoded locally.  When the ``m``
fetched chunks are exactly the data shards (the all-healthy common case
of a systematic code), their back-to-back arrival order means the
plaintext is a *single slice of the receive buffer* — served zero-copy,
no decode, no join.  A ranged read narrower than its chunks gets the
covering Merkle leaves with their proofs, never a stripe, and re-verifies
them here.

Tenant/bucket -> container mapping stays worker-side (it is pure
hashing); the ops RPC carries internal container names only.
"""

from __future__ import annotations

import functools
import queue
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.engine import ReadFailedError, ReadPlan
from repro.cluster.multipart import PartState
from repro.cluster.readpath import (
    ProvenRun,
    attach_leaves,
    cut_windows,
    open_run,
    rows_for_window,
)
from repro.cluster.writepath import StagedWrite, put_object, put_part
from repro.erasure.rs import CodeCache
from repro.erasure.striping import chunk_length, split_object
from repro.gateway.frontend import BrokerFrontend, FrontendClosedError
from repro.gateway.ops import OPERATIONS, error_from_doc, from_wire, to_wire
from repro.obs.metrics import MetricsRegistry
from repro.replication.rpc import Buffer, RpcClient, RpcError
from repro.storage.backend import ChunkCorruptionError
from repro.storage.merkle import merkle_root
from repro.types import ObjectMeta


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
        """One RPC; a typed broker error comes back as its exception.

        Every call a worker makes goes through here, so this is the one
        place an ``err`` document is read.
        """
        if self._closed:
            raise FrontendClosedError("frontend is closed")
        try:
            client = self._idle.get_nowait()
        except queue.Empty:
            client = RpcClient(
                self.host, self.port, timeout=self._timeout, connect_timeout=5.0
            )
        try:
            response = client.call(op, _buffers, **args)
        finally:
            # A transport failure tears the socket down inside call();
            # a peer-reported error leaves it healthy and reusable.
            if self._closed or client._sock is None:
                client.close()
            else:
                self._idle.put(client)
        err = response.get("err")
        if err:
            raise error_from_doc(err)
        return response

    def close(self) -> None:
        self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return


def _stubs(owner: str) -> type:
    """A base class holding the worker half of every :data:`OPERATIONS`
    row whose target is ``<owner>.<method>``: a method of that name which
    encodes its arguments, makes the one call and decodes the result.  A
    subclass overrides a stub to add to it and reaches it via ``super()``.
    """

    def stub(target: str):
        def call(self, *args, **kwargs):
            response = self._pool.call(
                target, args=to_wire(args), kwargs=to_wire(kwargs)
            )
            return from_wire(response["result"])

        call.__name__ = call.__qualname__ = target  # what a traceback shows
        return call

    def __init__(self, pool: _RpcPool) -> None:
        self._pool = pool

    methods = {"__init__": __init__}
    for op in OPERATIONS:
        path, _, method = op.target.rpartition(".")
        if path == owner:
            methods[method] = stub(op.target)
    return type(f"_Stubs:{owner}", (), methods)


class RpcStager:
    """The staged write protocol over the ops RPC: what the drivers of
    :mod:`repro.cluster.writepath` talk to in a worker.

    Each call is one frame to the broker, which keeps the session by
    ``sid``.  ``call`` raises typed broker errors, so a provider failing
    broker-side reaches the re-plan loop as the exception it would be in
    process.  ``owner`` is the worker's ``(slot, incarnation)``: the two
    begins carry it, so the supervisor can abort what a dead worker left.
    """

    def __init__(self, call, codes: CodeCache, owner: Optional[Tuple[int, int]] = None) -> None:
        self._call = call
        self._owner = owner
        self.encode = functools.partial(split_object, code_cache=codes)

    def begin(self, container, key, *, size_guess, mime, rule, exclude) -> StagedWrite:
        return StagedWrite.from_dict(self._call(
            "write_begin",
            container=container, key=key, size_guess=size_guess,
            mime=mime, rule=rule, exclude=list(exclude), owner=self._owner,
        ))

    def part_begin(self, container, key, upload_id, part_number) -> StagedWrite:
        return StagedWrite.from_dict(self._call(
            "part_begin",
            container=container, key=key,
            upload_id=upload_id, part_number=part_number, owner=self._owner,
        ))

    def write_stripe(self, session, tag, chunks, roots) -> None:
        self._call(
            "write_stripe",
            _buffers=[c.data for c in chunks],
            sid=session.sid,
            tag=tag,
            indices=[c.index for c in chunks],
            lengths=[len(c.data) for c in chunks],
            roots=list(roots),
        )

    def replan(self, session, stripes, *, exclude, size_guess, mime, rule) -> StagedWrite:
        return StagedWrite.from_dict(self._call(
            "write_replan", sid=session.sid, stripes=stripes, exclude=list(exclude),
            size_guess=size_guess, mime=mime, rule=rule,
        ))

    # Stripe tables cross as JSON lists; the broker takes them as they come.

    def commit(self, session, *, size, checksum, stripes, mime, rule, ttl_hint) -> ObjectMeta:
        return ObjectMeta.from_dict(self._call(
            "write_commit", sid=session.sid, size=size, checksum=checksum, stripes=stripes,
            mime=mime, rule=rule, ttl_hint=ttl_hint,
        )["meta"])

    def part_commit(self, session, *, etag, size, stripes) -> PartState:
        return PartState.from_dict(self._call(
            "part_commit", sid=session.sid, etag=etag, size=size, stripes=stripes
        )["part"])

    def abort(self, session) -> int:
        """Best-effort: the error being reported stays primary, and an
        unreachable broker's sessions die with its session table."""
        try:
            return int(self._call("staged_abort", sid=session.sid)["deleted"])
        except Exception:  # noqa: BLE001
            return 0


class _RemoteBroker(_stubs("broker")):
    """Duck-typed stand-in for :class:`~repro.core.broker.Scalia`.

    Implements exactly the broker surface :class:`BrokerFrontend`'s
    tenant-facing operations use, backed by the ops RPC: the forwarded
    calls are the inherited stubs, what is written out here runs in the
    worker process (all erasure coding and checksumming).  ``metrics``
    instruments a registry of this process's own, enabled when ``hello``
    says the broker keeps metrics; ``events`` is the broker's journal.
    """

    def __init__(self, pool: _RpcPool, owner: Optional[Tuple[int, int]] = None) -> None:
        super().__init__(pool)
        self._call = pool.call
        self._codes = CodeCache()
        self._stager = RpcStager(self._call, self._codes, owner)
        hello = self._call("hello")
        self.stripe_size_bytes = int(hello["stripe_size"])
        self.clustered = bool(hello["clustered"])
        self.metrics = _WorkerMetrics(MetricsRegistry(enabled=bool(hello["metrics"])), pool)
        self.events = _RemoteJournal(pool)

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
        content_md5: Optional[bytes] = None,
    ) -> ObjectMeta:
        """The write driver, run here, so ``content_md5`` is checked
        here too; a synthetic byte count has nothing to encode, so the
        broker stores it in one call."""
        if isinstance(data, int) and not isinstance(data, bool):
            return super().put(
                container, key, data, mime=mime, rule=rule, ttl_hint=ttl_hint
            )
        return put_object(
            self._stager, container, key, data,
            stripe_size=self.stripe_size_bytes, size_hint=size_hint,
            mime=mime, rule=rule, ttl_hint=ttl_hint, content_md5=content_md5,
        )

    def upload_part(
        self, container: str, key: str, upload_id: str, part_number: int, data,
        *, content_md5: Optional[bytes] = None,
    ) -> PartState:
        return put_part(
            self._stager, container, key, upload_id, part_number, data,
            content_md5=content_md5,
        )

    # -- read path ------------------------------------------------------

    def open_get(
        self,
        container: str,
        bucket: str,
        key: str,
        *,
        range_spec: Optional[tuple] = None,
        if_match: Optional[str] = None,
        if_none_match: Optional[str] = None,
    ):
        """:meth:`BrokerFrontend.open_get`, run in the broker process, as
        one frame: the plan and the first segment, opened here exactly as
        a :meth:`read_stripe` reply is.  :class:`RemoteBrokerFrontend`
        calls it in place of the ``Scalia.open_get`` a local frontend
        makes, so the validation runs where the row is resolved."""
        response = self._call(
            "open_get",
            container=container, bucket=bucket, key=key,
            range=list(range_spec) if range_spec is not None else None,
            if_match=if_match, if_none_match=if_none_match,
        )
        plan = ReadPlan.from_dict(response["plan"])
        if not plan.segments:
            return plan, None
        return plan, self._open_stripe(plan.meta, *plan.segments[0], response)

    def read_stripe(
        self, meta: ObjectMeta, stripe: int, lo: int = 0, hi: Optional[int] = None
    ):
        """Plaintext ``[lo, hi)`` of one stripe: the broker fetches, the
        decode and the cut happen here (:meth:`_open_stripe`)."""
        if hi is None:
            hi = meta.stripe_lengths[stripe]
        response = self._call(
            "read_stripe", meta=meta.to_dict(), stripe=int(stripe), lo=int(lo), hi=int(hi)
        )
        return self._open_stripe(meta, stripe, lo, hi, response)

    def _open_stripe(self, meta: ObjectMeta, stripe: int, lo: int, hi: int, response: dict):
        """Plaintext ``[lo, hi)`` of a stripe from the broker's reply to
        ``read_stripe`` (or the stripe half of its reply to ``open_get``).

        Every whole shard is checked against the root this worker's
        ``meta`` anchors for it, as the engine checks every chunk it
        fetches in process.  When the shards are exactly the data shards
        in index order, the plaintext is a slice of the receive buffer —
        returned as one zero-copy memoryview.  A sub-chunk window
        arrives as proven leaves (:meth:`_cut_leaves`).
        """
        if response.get("synthetic"):
            return int(response["length"])
        payload = response.get("_payload")
        if payload is None:
            raise ReadFailedError("read_stripe reply carried no chunk payload")
        if "windows" in response:
            return self._cut_leaves(meta, stripe, lo, hi, response["windows"], payload)
        indices = [int(i) for i in response["indices"]]
        lengths = [int(n) for n in response["lengths"]]
        shards: Dict[int, memoryview] = {}
        offset = 0
        for index, shard_len in zip(indices, lengths):
            shard = payload[offset : offset + shard_len]
            offset += shard_len
            root = meta.merkle_root(index, stripe)
            if root is not None and merkle_root(shard) != root:
                raise ChunkCorruptionError(
                    f"chunk {index} of stripe {stripe} fails its Merkle root"
                )
            shards[index] = shard
        if indices == list(range(meta.m)):
            # Systematic code + contiguous data shards: the concatenated
            # shards are the padded stripe, plaintext is its prefix.
            return payload[lo:hi]
        code = self._codes.get(meta.m, meta.n)
        return code.decode(shards, meta.stripe_lengths[stripe])[lo:hi]

    def _cut_leaves(self, meta: ObjectMeta, stripe: int, lo: int, hi: int, answers, payload):
        """A sub-chunk window from the proven leaves the broker shipped.

        The rows are planned here, from the ``meta`` this worker already
        holds, and every proof is checked against that ``meta``'s roots
        before :func:`~repro.cluster.readpath.cut_windows` (the function
        the engine runs in process) slices or decodes: no byte the
        broker-held root does not vouch for reaches a client.
        """
        length = meta.stripe_lengths[stripe]
        size = chunk_length(length, meta.m)
        windows = rows_for_window(length, meta.m, lo, hi)
        if len(answers) != len(windows):
            raise ReadFailedError("read_stripe reply does not match the planned rows")
        fetched = []
        offset = 0
        for window, chunks in zip(windows, answers):
            proven = []
            for chunk in chunks:
                index, width = int(chunk["index"]), int(chunk["length"])
                proof = attach_leaves(chunk["proof"], payload[offset : offset + width])
                offset += width
                run = open_run(proof, meta.merkle_root(index, stripe), size, window)
                proven.append(ProvenRun(index, proof, run))
            fetched.append((window, proven))
        return cut_windows(self._codes.get(meta.m, meta.n), fetched)


class _WorkerMetrics(_stubs("broker.metrics")):
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
        super().__init__(pool)
        self.local = local

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

    def _render(self, method: str):
        try:
            return getattr(super(), method)()
        except (RpcError, FrontendClosedError):
            return getattr(self.local, method)()

    def render_text(self) -> str:
        return self._render("render_text")

    def render_openmetrics(self) -> str:
        return self._render("render_openmetrics")

    def render_json(self) -> dict:
        return self._render("render_json")


class _RemoteJournal(_stubs("broker.events")):
    """The broker's event journal, reached over RPC.

    ``emit`` is fire-and-forget (event emission must never fail a
    request); ``query`` and ``stats`` surface the broker's journal
    verbatim.
    """

    def emit(self, type: str, key: Optional[str] = None, **fields) -> Optional[int]:
        try:
            return super().emit(type, key, **fields)
        except (RpcError, FrontendClosedError):
            return None

    @property
    def latest_seq(self) -> int:
        return int(self.stats()["latest_seq"])


#: The broker's worker-metrics aggregator (``push``, ``retire``).
_RemoteAggregator = _stubs("aggregator")


class RemoteBrokerFrontend(_stubs("frontend"), BrokerFrontend):
    """A ``BrokerFrontend`` whose broker lives in another process.

    Data-plane operations inherit ``BrokerFrontend`` verbatim (they only
    touch the duck-typed ``self.broker``), except that :meth:`open_get`
    runs in the broker process, as one frame.  Each is counted here, in
    the worker's registry, which reaches the broker's with the next
    push.  The admin and observability surfaces are the stubs, which ask
    the broker process, so ``/stats``, ``/history``, ``/alerts`` et al.
    report whole-system truth no matter which worker answers.  So does
    the cluster surface (``is_leader``, ``leader_gateway_url``,
    ``cluster_status``), except that whether there is a cluster at all
    is learnt once, from ``hello``: an unclustered worker never pays an
    RPC to hear that it leads.  Whether the broker keeps metrics is
    learnt there too: a worker over a ``--no-metrics`` broker
    instruments nothing and pushes nothing.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        mapper=None,
        owner: Optional[Tuple[int, int]] = None,
    ) -> None:
        pool = _RpcPool(host, port)
        self._pool = pool  # what the inherited stubs call through
        BrokerFrontend.__init__(self, _RemoteBroker(pool, owner), mapper=mapper)
        self.clustered = self.broker.clustered  # said once, by ``hello``
        self._aggregator = _RemoteAggregator(pool)

    def tick(self, periods: int = 1):
        raise NotImplementedError("worker frontends tick via tick_report()")

    def open_get(self, container: str, bucket: str, key: str, **conditions):
        """The whole sequence as one frame: it runs where the broker is."""
        return self.broker.open_get(container, bucket, key, **conditions)

    # -- worker metric shipping ------------------------------------------

    def push_metrics(self, slot: int, incarnation: int) -> None:
        """Ship the local registry snapshot to the broker aggregator
        (nothing when the broker keeps no metrics)."""
        local = self.metrics.local
        if local.enabled:
            self._aggregator.push(slot, incarnation, local.collect())

    def retire_metrics(self, slot: int) -> None:
        """Fold this worker's last snapshot into the broker's retired
        totals (clean-shutdown path; counters survive, gauges die)."""
        self._aggregator.retire(slot)

    def close(self) -> None:
        super().close()
        self._pool.close()
