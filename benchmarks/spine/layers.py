"""The traced run: the serving stack in-process, measured from outside.

Nothing under ``src/`` is instrumented.  The benchmark builds the stack
``repro serve`` builds (broker, frontend, HTTP gateway, and the ops RPC
with a remote frontend, as ``--workers`` wires them), samples requests
from the workload's own op stream, and replays each one at every depth
through the layer's public functions, one span per call.  Fixed-size
micro-runs of the leaf functions follow.  End-to-end numbers never come
from here: in one process the client shares a GIL with the server.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.metadata import MetadataCluster
from repro.core.broker import Scalia
from repro.erasure.matrix import gf_inverse
from repro.erasure.rs import CodeCache
from repro.erasure.striping import Chunk, reassemble_object, split_object
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.obs.logging import LogConfig, StructuredLogger
from repro.providers.pricing import paper_catalog
from repro.providers.provider import SimulatedProvider
from repro.providers.registry import ProviderRegistry
from repro.replication.rpc import RpcClient, RpcServer, recv_message, send_message
from repro.storage.merkle import chunk_root
from repro.storage.segment import FileChunkStore
from repro.storage.wal import Journal
from repro.types import ObjectMeta
from repro.util.ids import object_row_key

import catalog
import loadgen
import servers
from mixes import BUCKET, MIME, STRIPE_BYTES, TENANT, Mix, Op, Payloads, op_stream
from waterfall import Spans, median_ns, median_us, render, summarise

MIB = 1024 * 1024
SCRATCH = "spine-scratch"  # container for fixed-size engine runs, never read by the mix

#: parent -> children, for self-time subtraction.  ``gateway.server`` and
#: ``replication.rpc`` are derived rows (see ``_derive``); the rest are spans.
_LEAVES = (
    "cluster.locks", "cluster.metadata", "types.objectmeta", "core.placement",
    "erasure.striping", "storage.merkle", "gateway.etag_md5", "providers.provider",
    "storage.wal",
)
CHILDREN_DIRECT = {
    "gateway.client": ("gateway.server",),
    "gateway.server": ("gateway.frontend",),
    "gateway.frontend": ("core.broker",),
    "core.broker": ("cluster.engine",),
    "cluster.engine": _LEAVES,
    "erasure.striping": ("erasure.rs",),
}
CHILDREN_WORKERS = {
    **CHILDREN_DIRECT,
    "gateway.server": ("gateway.remote",),
    "gateway.remote": ("replication.rpc",),
    "replication.rpc": ("gateway.frontend",),
}
ORDER = (
    "gateway.client", "gateway.server", "gateway.remote", "replication.rpc",
    "gateway.frontend", "core.broker", "cluster.engine",
    "cluster.locks", "cluster.metadata", "types.objectmeta", "core.placement",
    "erasure.striping", "erasure.rs", "storage.merkle", "gateway.etag_md5",
    "providers.provider", "storage.wal",
)


# -- the stack ----------------------------------------------------------------


class Stack:
    """Broker, frontend, gateway, ops RPC and remote frontend in one process."""

    def __init__(self, mix: Mix, workdir) -> None:
        self.mix = mix
        self.workdir = workdir
        self.workers = "--workers" in mix.serve_args
        self.sync = "always" if mix.durable else "os"
        self.broker = Scalia(
            ProviderRegistry(paper_catalog()),
            data_dir=str(workdir / "data") if mix.durable else None,
            storage_sync=self.sync,
        )
        self.frontend = BrokerFrontend(self.broker, mode="direct")
        self.container = self.frontend.mapper.internal_container(TENANT, BUCKET)
        self.rpc_calls = 0
        handlers = {
            op: self._counted(handler)
            for op, handler in OpsService(self.frontend).handlers().items()
        }
        self.rpc_server = RpcServer("127.0.0.1", 0, handlers)
        self.remote = RemoteBrokerFrontend(*self.rpc_server.address)
        # The gateway logs every request at info, as `repro serve` does by
        # default; the lines go to a file instead of this process's stderr.
        self._log = open(workdir / "gateway.log", "w", encoding="utf-8")
        logger = StructuredLogger("gateway", LogConfig(level="info", stream=self._log))
        self.gateway = ScaliaGateway(
            self.remote if self.workers else self.frontend, port=0, logger=logger
        ).start()
        self.client = GatewayClient(*self.gateway.address, tenant=TENANT, timeout=60.0)
        self.dc = self.broker.cluster.metadata.datacenters[0]
        self.codes = CodeCache()

    def _counted(self, handler: Callable) -> Callable:
        def wrapper(request: dict):
            self.rpc_calls += 1
            return handler(request)

        return wrapper

    def close(self) -> None:
        self.client.close()
        self.gateway.close()
        self.remote.close()
        self.rpc_server.close()
        self.frontend.close()
        self.broker.close()
        self._log.close()

    def registry_count(self, family: str, field: str = "value") -> float:
        doc = {"metrics": self.broker.metrics.render_json().get("metrics", {})}
        return servers.metric_total(doc, family, field)


def _body(data: bytes):
    """What the HTTP server hands the frontend: bytes when small, a file-like
    once the body was spooled (over 1 MiB)."""
    return data if len(data) <= MIB else io.BytesIO(data)


class Depth:
    """One depth of the stack: how to get, put and multipart-put through it."""

    def __init__(self, name: str, stack: Stack) -> None:
        self.name = name
        self.stack = stack

    def get(self, key: str, byte_range: Optional[Tuple[int, int]]) -> bytes:
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> int:
        raise NotImplementedError

    def mpu(self, key: str, parts: Sequence[bytes]) -> int:
        raise NotImplementedError


class ClientDepth(Depth):
    def get(self, key, byte_range):
        return self.stack.client.get(BUCKET, key, byte_range=byte_range)

    def put(self, key, data):
        client = self.stack.client
        if len(data) > self.stack.mix.part_bytes:
            return client.put_stream(BUCKET, key, io.BytesIO(data), size=len(data), mime=MIME)["size"]
        return client.put(BUCKET, key, data, mime=MIME)["size"]

    def mpu(self, key, parts):
        return self.stack.client.put_multipart(
            BUCKET, key, io.BytesIO(b"".join(parts)), part_size=len(parts[0]), mime=MIME
        )["size"]


class FrontendDepth(Depth):
    """``BrokerFrontend`` exactly as ``GatewayHandler`` calls it."""

    def __init__(self, name: str, stack: Stack, frontend: BrokerFrontend) -> None:
        super().__init__(name, stack)
        self.frontend = frontend

    def get(self, key, byte_range):
        _plan, blocks = self.frontend.stream_get(TENANT, BUCKET, key, range_spec=byte_range)
        return b"".join(bytes(block) for block in blocks)

    def put(self, key, data):
        return self.frontend.put(
            TENANT, BUCKET, key, _body(data), mime=MIME, size_hint=len(data)
        ).size

    def mpu(self, key, parts):
        fe = self.frontend
        upload = fe.create_upload(TENANT, BUCKET, key, mime=MIME)
        manifest = [
            (n, fe.upload_part(TENANT, BUCKET, key, upload.upload_id, n, _body(part)).etag)
            for n, part in enumerate(parts, 1)
        ]
        return fe.complete_upload(TENANT, BUCKET, key, upload.upload_id, manifest).size


class BrokerDepth(Depth):
    """The ``Scalia`` calls ``BrokerFrontend`` makes for the same request."""

    def target(self):
        """``(object to call, clock kwargs, kwargs of calls that cut stripes)``:
        ``Scalia`` fills both in itself, ``Engine`` is handed them."""
        return self.stack.broker, {}, {}

    def get(self, key, byte_range):
        broker, clock, _ = self.target()
        container = self.stack.container
        broker.head(container, key)
        plan = broker.open_read(container, key, byte_range=byte_range, **clock)
        pieces = [
            bytes(broker.read_stripe(plan.meta, stripe)[lo:hi])
            for stripe, lo, hi in plan.segments
        ]
        broker.commit_read(plan, **{k: v for k, v in clock.items() if k == "period"})
        return b"".join(pieces)

    def put(self, key, data):
        broker, clock, stripes = self.target()
        return broker.put(
            self.stack.container, key, _body(data), mime=MIME, size_hint=len(data),
            **clock, **stripes,
        ).size

    def mpu(self, key, parts):
        broker, clock, stripes = self.target()
        container = self.stack.container
        upload = broker.create_multipart_upload(container, key, mime=MIME, **clock, **stripes)
        manifest = [
            (n, broker.upload_part(container, key, upload.upload_id, n, _body(part), **clock).etag)
            for n, part in enumerate(parts, 1)
        ]
        return broker.complete_multipart_upload(
            container, key, upload.upload_id, manifest, **clock
        ).size


class EngineDepth(BrokerDepth):
    """The ``Engine`` calls ``Scalia`` forwards to, clock arguments included."""

    def target(self):
        broker = self.stack.broker
        clock = {"now": broker.now, "period": broker.period}
        return broker.cluster.route(None), clock, {"stripe_size": STRIPE_BYTES}


# -- leaves ---------------------------------------------------------------------


def _get_leaves(stack: Stack, spans: Spans, trace: int, parent: int, key: str, byte_range) -> None:
    """The leaf calls an engine GET makes, replayed with its arguments."""
    broker = stack.broker
    locks, metadata = broker.cluster.locks, broker.cluster.metadata
    row_key = object_row_key(stack.container, key)

    def hold_shared():
        with locks.read_object(row_key):
            pass

    meta = None
    for _ in range(2):  # head, then open_read: each resolves the row again
        spans.call(trace, parent, "cluster.locks", hold_shared)
        _, resolution = spans.call(
            trace, parent, "cluster.metadata", lambda: metadata.read(stack.dc, row_key)
        )
        _, meta = spans.call(
            trace, parent, "types.objectmeta",
            lambda: ObjectMeta.from_dict(resolution.winner.value),
        )
    start, end = byte_range if byte_range else (0, meta.size - 1)
    providers = dict(meta.chunk_map)
    for stripe, _lo, _hi in meta.stripes_for_range(start, end):
        spans.call(trace, parent, "cluster.locks", hold_shared)
        # The chunks the engine serves this stripe from, in its serving order.
        length, chunks = broker.fetch_stripe_chunks(meta, stripe)
        for chunk in chunks:
            provider = broker.registry.get(providers[chunk.index])
            chunk_key = meta.chunk_key(chunk.index, stripe)
            spans.call(trace, parent, "providers.provider", lambda: provider.get_chunk(chunk_key))
        striping, _ = spans.call(
            trace, parent, "erasure.striping",
            lambda: reassemble_object(chunks, meta.m, meta.n, length, code_cache=stack.codes),
        )
        code = stack.codes.get(meta.m, meta.n)
        shards = {chunk.index: chunk.data for chunk in chunks}
        spans.call(trace, striping, "erasure.rs", lambda: code.decode(shards, length))


def _put_leaves(
    stack: Stack, spans: Spans, trace: int, parent: int, key: str, pieces: Sequence[bytes],
    scratch_meta: MetadataCluster, scratch_wal: Optional[Journal], wal_appends: int,
) -> None:
    """The leaf calls an engine write makes; ``pieces`` is the payload of a
    PUT, or the parts of a multipart upload (placed once, hashed per part)."""
    broker = stack.broker
    locks, metadata = broker.cluster.locks, broker.cluster.metadata
    row_key = object_row_key(stack.container, key)

    def hold_exclusive():
        with locks.mutate_object(stack.container, row_key):
            pass

    _, resolution = spans.call(
        trace, parent, "cluster.metadata", lambda: metadata.read(stack.dc, row_key)
    )
    _, meta = spans.call(
        trace, parent, "types.objectmeta", lambda: ObjectMeta.from_dict(resolution.winner.value)
    )
    _, placement = spans.call(
        trace, parent, "core.placement",
        lambda: broker.planner.place(
            container=stack.container, key=key, size=sum(map(len, pieces)), mime=MIME,
            rule_name=None, period=broker.period, exclude=frozenset(),
        ),
    )
    code = stack.codes.get(placement.m, placement.n)
    for number, piece in enumerate(pieces):
        spans.call(trace, parent, "cluster.locks", hold_exclusive)
        for offset in range(0, len(piece), STRIPE_BYTES):
            block = piece[offset:offset + STRIPE_BYTES]
            striping, chunks = spans.call(
                trace, parent, "erasure.striping",
                lambda: split_object(block, placement.m, placement.n, code_cache=stack.codes),
            )
            spans.call(trace, striping, "erasure.rs", lambda: code.encode(block))
            for chunk, name in zip(chunks, placement.providers):
                provider = broker.registry.get(name)
                scratch_key = f"spine-leaf:{trace}:{number}.{offset}.{chunk.index}"
                spans.call(trace, parent, "storage.merkle", lambda: chunk_root(chunk))
                spans.call(trace, parent, "providers.provider", lambda: provider.put_chunk(scratch_key, chunk))
                # A re-put deletes the previous version's chunk on each provider.
                spans.call(trace, parent, "providers.provider", lambda: provider.delete_chunk(scratch_key))
        spans.call(trace, parent, "gateway.etag_md5", lambda: hashlib.md5(piece).hexdigest())
    doc = meta.to_dict()
    for value, name in ((doc, row_key), ({"key": key, "row_key": row_key}, f"idx|{key}")):
        spans.call(
            trace, parent, "cluster.metadata",
            lambda: scratch_meta.write(stack.dc, name, value, uuid=f"{trace}", timestamp=0.0),
        )
    if scratch_wal is not None:
        record = {"t": "apply", "dc": stack.dc, "row": row_key, "value": doc}
        for _ in range(wal_appends):
            spans.call(trace, parent, "storage.wal", lambda: scratch_wal.append(dict(record)))


# -- the replay ---------------------------------------------------------------


def _derive(layers: Dict[str, float], cpu_ns: float, workers: bool, rpc_ns: float) -> Dict[str, float]:
    """Add the rows no call can time: the server under the client, the wire
    under the remote stub."""
    out = dict(layers)
    out["gateway.server"] = layers["gateway.client"] - cpu_ns
    if workers:
        out["replication.rpc"] = layers["gateway.frontend"] + rpc_ns
    else:
        out.pop("gateway.remote", None)
    return out


class Replay:
    """Sampled requests replayed at every depth, with their spans."""

    def __init__(self, stack: Stack, seed: int) -> None:
        self.stack = stack
        self.mix = stack.mix
        self.spans = Spans()
        self.payloads = Payloads(seed)
        self.versions = loadgen.KeyVersions(self.mix.all_keys())
        self.depths: List[Depth] = [
            ClientDepth("gateway.client", stack),
            FrontendDepth("gateway.remote", stack, stack.remote),
            FrontendDepth("gateway.frontend", stack, stack.frontend),
            BrokerDepth("core.broker", stack),
            EngineDepth("cluster.engine", stack),
        ]
        self.kind_of: Dict[int, str] = {}
        self.client_cpu: Dict[int, int] = {}
        self.rpcs: Dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.scratch_meta = MetadataCluster([stack.dc])
        self.scratch_wal: Optional[Journal] = None
        self.wal_appends = 0

    def preload(self) -> None:
        """Every key written once, straight through the frontend."""
        depth = self.depths[2]
        for op in loadgen.preload_ops(self.mix):
            data = self._next_payload(op.key)
            if op.kind == "mpu":
                depth.mpu(op.key, self._parts(data))
            else:
                depth.put(op.key, data)
            self.versions.ack_write(op.key, 1)
        if self.mix.durable:
            before = self.stack.registry_count("scalia_wal_appends_total")
            key = self.mix.object_keys()[0]
            for _ in range(20):
                depth.put(key, self.payloads.full(key, 1, self.mix.object_bytes))
            self.wal_appends = round(
                (self.stack.registry_count("scalia_wal_appends_total") - before) / 20
            )
            self.scratch_wal = Journal(self.stack.workdir / "leaf-wal.log", sync=self.stack.sync)

    def _next_payload(self, key: str) -> bytes:
        version = self.versions.begin_write(key)
        return self.payloads.full(key, version, self.mix.size_of(key))

    def _parts(self, data: bytes) -> List[bytes]:
        size = self.mix.part_bytes
        return [data[i:i + size] for i in range(0, len(data), size)]

    def _check(self, op: Op, depth: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"trace {op.kind} {op.key} at {depth}: wrong result")

    def run(self, ops, budget_s: float) -> None:
        """Whole blocks of the mix, so every op kind is sampled in its share."""
        stop_at = time.perf_counter() + budget_s
        trace = 0
        for _ in range(self.mix.trace_blocks):
            for _ in self.mix.block:
                self.one(trace, next(ops))
                trace += 1
            if time.perf_counter() > stop_at:
                break

    def one(self, trace: int, op: Op) -> None:
        stack, spans = self.stack, self.spans
        self.kind_of[trace] = op.kind
        size = self.mix.size_of(op.key)
        byte_range = (op.lo, op.hi) if op.kind == "range" else None
        if op.kind in ("get", "range"):
            lo, hi = (op.lo, op.hi + 1) if byte_range else (0, size)
            want = self.payloads.slice(op.key, self.versions.acked(op.key), lo, hi)
            call = lambda depth: depth.get(op.key, byte_range)  # noqa: E731
            good = lambda got: got == want  # noqa: E731
        else:
            data = self._next_payload(op.key)
            parts = self._parts(data)
            if op.kind == "mpu":
                call = lambda depth: depth.mpu(op.key, parts)  # noqa: E731
            else:
                call = lambda depth: depth.put(op.key, data)  # noqa: E731
            good = lambda got: got == len(data)  # noqa: E731

        parent = -1
        for depth in self.depths:
            if depth.name == "gateway.client":
                cpu = time.thread_time_ns()
            if depth.name == "gateway.remote":
                rpcs = stack.rpc_calls
            span, got = spans.call(trace, parent, depth.name, lambda: call(depth))
            if depth.name == "gateway.client":
                self.client_cpu[trace] = time.thread_time_ns() - cpu
            if depth.name == "gateway.remote":
                self.rpcs[trace] = stack.rpc_calls - rpcs
            self._check(op, depth.name, good(got))
            parent = span
        if op.kind in ("get", "range"):
            _get_leaves(stack, spans, trace, parent, op.key, byte_range)
        else:
            _put_leaves(
                stack, spans, trace, parent, op.key, parts if op.kind == "mpu" else [data],
                self.scratch_meta, self.scratch_wal, self.wal_appends,
            )
            self.versions.ack_write(op.key, self.versions.started(op.key))

    def summary(self, by_trace, kind: str, rpc_roundtrip_ns: float, workers: bool):
        """Per-layer ``(inclusive, self)`` medians of one op kind, seen as the
        direct chain or as the worker chain; ``by_trace`` is
        ``spans.inclusive_by_trace()``."""
        per_trace = [
            _derive(layers, self.client_cpu[trace], workers, self.rpcs[trace] * rpc_roundtrip_ns)
            for trace, layers in by_trace.items()
            if self.kind_of[trace] == kind
        ]
        return summarise(per_trace, CHILDREN_WORKERS if workers else CHILDREN_DIRECT)

    def waterfall(self, out: Dict[str, float]) -> List[str]:
        """Fill the per-layer self times into ``out``; return the printed tables.

        The tables show the chain this workload serves through.  The
        remote-hop metrics come from the worker view of the same replay on
        every workload, because the contract wants every layer metric on
        every workload.
        """
        stack = self.stack
        rpc_ns = out["replication.rpc.roundtrip_us"] * 1e3
        by_trace = self.spans.inclusive_by_trace()
        lines: List[str] = []
        server_ns = 0.0
        for kind in loadgen.KINDS:
            samples = sum(1 for k in self.kind_of.values() if k == kind)
            worker_view = self.summary(by_trace, kind, rpc_ns, True)
            served = worker_view if stack.workers else self.summary(by_trace, kind, rpc_ns, False)
            lines += render(f"{self.mix.name} {kind}", ORDER, served, samples)
            if kind not in ("get", "put"):
                continue
            for layer in ("gateway.client", "gateway.server", "gateway.frontend", "core.broker", "cluster.engine"):
                out[f"{layer}.{kind}_self_us"] = served[layer][1] / 1e3
            out[f"gateway.remote.{kind}_self_us"] = worker_view["gateway.remote"][1] / 1e3
            out[f"gateway.ops.rpcs_per_{kind}"] = statistics.median(
                self.rpcs[trace] for trace, k in self.kind_of.items() if k == kind
            )
            server_ns += served["gateway.server"][1]
        out["gateway.server.stream_MBps"] = _mbps(2 * self.mix.object_bytes, server_ns)
        return lines


# -- fixed-size micro-runs of the leaves -------------------------------------------


def _mbps(n_bytes: int, ns: float) -> float:
    return n_bytes / (ns / 1e9) / 1e6


def micro_rpc(out: Dict[str, float], meta_doc: dict) -> None:
    server = RpcServer("127.0.0.1", 0, {"echo": lambda request: {}})
    client = RpcClient(*server.address, timeout=30.0)
    try:
        client.call("echo")
        out["replication.rpc.roundtrip_us"] = median_us(lambda: client.call("echo"), 1000)
        blob = os.urandom(MIB)
        out["replication.rpc.roundtrip_1MiB_us"] = median_us(
            lambda: client.call("echo", _buffers=[blob]), 40
        )
    finally:
        client.close()
        server.close()
    # One frame of the size the read path ships (an object's metadata row).
    header = {"op": "read_commit", "meta": meta_doc, "length": 1024, "count": 1}
    left, right = socket.socketpair()
    try:
        def codec():
            send_message(left, header)
            recv_message(right)

        out["replication.rpc.header_codec_us"] = median_us(codec, 2000)
    finally:
        left.close()
        right.close()


def micro_small_calls(out: Dict[str, float], stack: Stack, replay: Replay) -> None:
    broker = stack.broker
    locks, metadata = broker.cluster.locks, broker.cluster.metadata
    keys = stack.mix.object_keys()
    rows = [object_row_key(stack.container, key) for key in keys[:500]]
    turn = itertools.count()

    def row() -> str:
        return rows[next(turn) % len(rows)]

    out["cluster.metadata.read_us"] = median_us(lambda: metadata.read(stack.dc, row()), 3000)
    doc = metadata.read(stack.dc, rows[0]).winner.value
    out["types.objectmeta_from_dict_us"] = median_us(lambda: ObjectMeta.from_dict(doc), 3000)
    scratch = replay.scratch_meta
    out["cluster.metadata.write_us"] = median_us(
        lambda: scratch.write(stack.dc, row(), doc, uuid=str(next(turn)), timestamp=0.0), 2000
    )

    def shared():
        with locks.read_object(rows[0]):
            pass

    def exclusive():
        with locks.mutate_object(stack.container, rows[0]):
            pass

    out["cluster.locks.shared_acquire_us"] = median_us(shared, 3000)
    out["cluster.locks.exclusive_acquire_us"] = median_us(exclusive, 3000)
    out["gateway.namespace.hash_us"] = median_us(
        lambda: stack.frontend.mapper.internal_container(TENANT, BUCKET), 3000
    )
    out["core.placement.place_us"] = median_us(
        lambda: broker.planner.place(
            container=stack.container, key=keys[0], size=stack.mix.object_bytes, mime=MIME,
            rule_name=None, period=broker.period, exclude=frozenset(),
        ),
        300,
    )
    out["gateway.server.http_floor_us"] = median_us(stack.client.health, 300)


def micro_erasure(out: Dict[str, float]) -> None:
    codes = CodeCache()
    big = codes.get(4, 5)
    stripe = os.urandom(STRIPE_BYTES)
    out["erasure.rs.encode_MBps"] = _mbps(STRIPE_BYTES, median_ns(lambda: big.encode(stripe), 3, 2.0))
    shards = dict(enumerate(bytes(s) for s in big.encode(stripe)))
    systematic = {i: shards[i] for i in range(4)}
    parity = {i: shards[i] for i in range(1, 5)}
    out["erasure.rs.decode_systematic_MBps"] = _mbps(
        STRIPE_BYTES, median_ns(lambda: big.decode(systematic, STRIPE_BYTES), 3, 2.0)
    )
    out["erasure.rs.decode_parity_MBps"] = _mbps(
        STRIPE_BYTES, median_ns(lambda: big.decode(parity, STRIPE_BYTES), 3, 2.0)
    )
    small = codes.get(1, 2)
    one_kib = os.urandom(1024)
    parity_only = {1: bytes(small.encode(one_kib)[1])}
    out["erasure.rs.decode_small_us"] = median_us(lambda: small.decode(parity_only, 1024), 3000)
    sub = big.generator[[1, 2, 3, 4]]
    out["erasure.rs.gf_inverse_us"] = median_us(lambda: gf_inverse(sub), 1000)
    two_mib = os.urandom(2 * MIB)  # one chunk of an 8 MiB stripe at m:4
    out["erasure.striping.chunk_build_MBps"] = _mbps(
        len(two_mib), median_ns(lambda: Chunk.build(0, two_mib), 10)
    )
    chunk = Chunk.build(0, two_mib)
    out["storage.merkle.chunk_root_MBps"] = _mbps(len(two_mib), median_ns(lambda: chunk_root(chunk), 10))
    out["gateway.etag_md5_MBps"] = _mbps(
        STRIPE_BYTES, median_ns(lambda: hashlib.md5(stripe).hexdigest(), 5)
    )


def micro_providers(out: Dict[str, float], stack: Stack, replay: Replay) -> None:
    provider = SimulatedProvider(paper_catalog()[0])
    small = Chunk.build(0, os.urandom(1024))
    turn = itertools.count()
    out["providers.provider.put_us"] = median_us(
        lambda: provider.put_chunk(f"c{next(turn) % 512}", small), 3000
    )
    out["providers.provider.get_us"] = median_us(
        lambda: provider.get_chunk(f"c{next(turn) % 512}"), 3000
    )
    large = Chunk.build(0, os.urandom(2 * MIB))
    out["providers.provider.put_MBps"] = _mbps(
        2 * MIB, median_ns(lambda: provider.put_chunk("large", large), 30)
    )
    # Counts, from the broker's own registry, around the workload's own requests.
    key = stack.mix.object_keys()[0]
    engine = replay.depths[-1]
    rounds = 3 if stack.mix.object_bytes > MIB else 50
    data = replay.payloads.full(key, replay.versions.acked(key), stack.mix.object_bytes)

    def counts():
        return (
            stack.registry_count("scalia_provider_op_seconds", "count"),
            stack.registry_count("scalia_wal_appends_total"),
            stack.registry_count("scalia_wal_fsync_seconds", "count"),
        )

    before = counts()
    for _ in range(rounds):
        engine.get(key, None)
    middle = counts()
    for _ in range(rounds):
        engine.put(key, data)
    after = counts()
    out["providers.ops_per_get"] = (middle[0] - before[0]) / rounds
    out["providers.ops_per_put"] = (after[0] - middle[0]) / rounds
    out["storage.wal.appends_per_put"] = (after[1] - middle[1]) / rounds
    out["storage.wal.fsyncs_per_put"] = (after[2] - middle[2]) / rounds if stack.sync == "always" else 0.0


def micro_storage(out: Dict[str, float], workdir, meta_doc: dict) -> None:
    record = {"t": "apply", "dc": "dc", "row": "0" * 32, "value": meta_doc}
    for sync, name, reps in (("os", "append_us", 2000), ("always", "append_fsync_us", 200)):
        journal = Journal(workdir / f"micro-wal-{sync}.log", sync=sync)
        try:
            out[f"storage.wal.{name}"] = median_us(lambda: journal.append(dict(record)), reps)
        finally:
            journal.close()
    store = FileChunkStore(workdir / "micro-segments", sync="always")
    chunk = Chunk.build(0, os.urandom(1024))
    turn = itertools.count()
    try:
        out["storage.segment.put_us"] = median_us(
            lambda: store.put(f"c{next(turn) % 256}", chunk), 300
        )
        out["storage.segment.get_us"] = median_us(
            lambda: store.get(f"c{next(turn) % 256}"), 2000
        )
    finally:
        store.close()
    # Crash (no snapshot, no flush) after 300 puts, then time the next boot.
    data_dir = workdir / "micro-recover"
    objects, size = 300, 1024
    crashed = Scalia(data_dir=str(data_dir), storage_sync="os")
    for i in range(objects):
        crashed.put(SCRATCH, f"r{i}", os.urandom(size))
    crashed.durability.abandon()
    for provider in crashed.registry.providers():
        provider.backend.close()
    on_disk = sum(f.stat().st_size for f in data_dir.rglob("*") if f.is_file())
    out["storage.persistence.disk_bytes_per_user_byte"] = on_disk / (objects * size)
    start = time.perf_counter()
    recovered = Scalia(data_dir=str(data_dir), storage_sync="os")
    out["storage.persistence.recover_s"] = time.perf_counter() - start
    recovered.close()


def micro_engine(out: Dict[str, float], stack: Stack) -> None:
    """Multi-stripe engine paths at fixed sizes, on a scratch container."""
    broker = stack.broker
    engine = broker.cluster.route(None)
    clock = {"now": broker.now, "period": broker.period}
    size = 2 * STRIPE_BYTES
    data = os.urandom(size)
    out["cluster.engine.put_streamed_MBps"] = _mbps(size, median_ns(
        lambda: engine.put(
            SCRATCH, "streamed", io.BytesIO(data), mime=MIME, size_hint=size,
            stripe_size=STRIPE_BYTES, **clock,
        ), 2, 0.0))
    upload = engine.create_multipart_upload(
        SCRATCH, "parts", mime=MIME, stripe_size=STRIPE_BYTES, **clock
    )
    part = data[:STRIPE_BYTES]
    out["cluster.engine.upload_part_MBps"] = _mbps(STRIPE_BYTES, median_ns(
        lambda: engine.upload_part(SCRATCH, "parts", upload.upload_id, 1, io.BytesIO(part), **clock),
        2, 0.0))
    engine.abort_multipart_upload(SCRATCH, "parts", upload.upload_id, **clock)
    # A 64 KiB range decodes one whole stripe: self = engine time minus the
    # provider fetches and the reassembly it had to wait for, paired per
    # repetition because both are tens of milliseconds and self is not.
    byte_range = (3 * MIB, 3 * MIB + 64 * 1024 - 1)
    meta = engine.head(SCRATCH, "streamed")
    length, chunks = broker.fetch_stripe_chunks(meta, 0)
    providers = dict(meta.chunk_map)

    def leaves():
        for chunk in chunks:
            broker.registry.get(providers[chunk.index]).get_chunk(meta.chunk_key(chunk.index, 0))
        reassemble_object(chunks, meta.m, meta.n, length, code_cache=stack.codes)

    own = []
    for _ in range(9):
        began = time.perf_counter_ns()
        engine.get(SCRATCH, "streamed", byte_range=byte_range, **clock)
        middle = time.perf_counter_ns()
        leaves()
        own.append((middle - began) - (time.perf_counter_ns() - middle))
    out["cluster.engine.range_get_self_us"] = statistics.median(own) / 1e3
    engine.delete(SCRATCH, "streamed", **clock)


def micro_background(out: Dict[str, float]) -> None:
    """Control-plane work over 2 000 small objects, with a foreground reader."""
    objects = 2000
    broker = Scalia()
    try:
        for i in range(objects):
            broker.put(SCRATCH, f"b{i}", os.urandom(1024))
        start = time.perf_counter()
        broker.tick(1)
        out["core.optimizer.tick_ms_per_kobj"] = (time.perf_counter() - start) * 1e3 / (objects / 1000)
        ticker = threading.Thread(target=broker.tick, args=(1,))
        worst, i = 0, 0
        ticker.start()
        while ticker.is_alive() or i < 50:
            began = time.perf_counter_ns()
            broker.get(SCRATCH, f"b{i % objects}")
            worst = max(worst, time.perf_counter_ns() - began)
            i += 1
        ticker.join()
        out["core.controlplane.tick_get_max_ms"] = worst / 1e6
        stored = sum(p.stored_bytes for p in broker.registry.providers())
        start = time.perf_counter()
        broker.scrub(repair=False)
        out["storage.scrubber.scrub_MBps"] = stored / (time.perf_counter() - start) / 1e6
        start = time.perf_counter()
        report = broker.audit(repair=False)
        out["storage.auditor.chunks_per_s"] = report.chunks_audited / (time.perf_counter() - start)
    finally:
        broker.close()


def micro_overhead(out: Dict[str, float]) -> None:
    """Metrics+events on vs off, one in-process GET each, interleaved per request."""
    objects, pairs, blocks = 200, 2000, 10
    on = Scalia()
    off = Scalia(enable_metrics=False, enable_events=False)
    try:
        for broker in (on, off):
            for i in range(objects):
                broker.put(SCRATCH, f"o{i}", os.urandom(1024))
        estimates = []
        for block in range(blocks):
            t_on, t_off = [], []
            for i in range(pairs // blocks):
                key = f"o{(block * 31 + i) % objects}"
                order = ((on, t_on), (off, t_off)) if i % 2 else ((off, t_off), (on, t_on))
                for broker, sink in order:
                    began = time.perf_counter_ns()
                    broker.get(SCRATCH, key)
                    sink.append(time.perf_counter_ns() - began)
            estimates.append((statistics.median(t_on) / statistics.median(t_off) - 1.0) * 100.0)
        q1, _, q3 = statistics.quantiles(estimates, n=4)
        out["obs.metrics.overhead_pct"] = statistics.median(estimates)
        out["obs.metrics.overhead_iqr_pct"] = q3 - q1
    finally:
        on.close()
        off.close()


# -- the traced run ---------------------------------------------------------------


def run_traced(mix: Mix, seed: int, seconds: float) -> dict:
    workdir = servers.make_workdir(f"trace-{mix.name}")
    out: Dict[str, float] = {}
    stack = Stack(mix, workdir)
    try:
        replay = Replay(stack, seed)
        replay.preload()
        micro_small_calls(out, stack, replay)  # before the replay: the floor also warms HTTP
        replay.run(op_stream(mix, seed, 1), seconds)

        meta_doc = stack.broker.head(stack.container, mix.object_keys()[0]).to_dict()
        micro_rpc(out, meta_doc)
        micro_providers(out, stack, replay)
        micro_engine(out, stack)
        micro_erasure(out)
        micro_storage(out, workdir, meta_doc)
        micro_background(out)
        micro_overhead(out)
        noop = Spans()
        for _ in range(5000):
            noop.call(0, -1, "noop", lambda: None)
        out["spine.span_overhead_us"] = statistics.median(end - start for *_, start, end in noop.rows) / 1e3

        lines = replay.waterfall(out)
        replay.spans.write_jsonl(servers.OUT_DIR / f"trace-{mix.name}.jsonl")
    finally:
        stack.close()
        servers.remove_workdir(workdir)

    missing = [m.name for m in catalog.PER_LAYER if m.name not in out]
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    return {
        "workload": mix.name,
        "trace": 1,
        "correct": replay.failed == 0,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "failed_ratio": replay.failed / max(1, replay.attempted),
        "problems": replay.problems,
        "metrics": {m.name: {"value": out[m.name], "unit": m.unit} for m in catalog.PER_LAYER},
        "waterfall": lines,
        "spans": len(replay.spans.rows),
    }
