"""The metric catalogue: every name the spine prints, with unit and direction.

``BENCHMARK.json`` lists the same names (``test_spine.py`` checks the two
agree).  The catalogue additionally records what the contract file has no
key for: which end-to-end metric, on which workload, each per-layer metric
is expected to move.  A later change names its claim from this table
*before* it measures.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS = ("small_direct", "small_workers1", "large_stream", "durable_put")

SMALL = ("small_direct", "small_workers1", "durable_put")
EVERY = WORKLOADS


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this layer metric should move.
    moves: Tuple[Tuple[str, str], ...]
    #: Why ``moves`` is empty, for the few metrics that move nothing here.
    none_because: str = ""


# Every time-based metric carries the widest bound the contract allows:
# the host's speed drifts by the minute (README, "Steadiness"), and the
# quartile spread over ten seeds reached 15% on the steadier metrics.  The
# count ratios do not depend on the host and repeat within 1%.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median boot (spawn to first 200 /healthz, 3 boots) + preload + warm-up"),
    EndToEnd("get_p50_ms", "ms", "lower", 0.25, "full-object GET latency, c1 median"),
    EndToEnd("put_p50_ms", "ms", "lower", 0.25, "PUT latency (streamed on large_stream), c1 median"),
    EndToEnd("range_get_p50_ms", "ms", "lower", 0.25, "ranged GET latency, c1 median"),
    EndToEnd("mpu_put_p50_ms", "ms", "lower", 0.25,
             "whole multipart upload (create, parts, complete), c1 median"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25, "one closed-loop client, ops per second of c1"),
    EndToEnd("goodput_MBps", "MB/s", "higher", 0.25, "user bytes in+out per second of c1"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25,
             "utime+stime of the server process tree over c1, per op"),
    EndToEnd("server_peak_rss_mb", "MB", "lower", 0.25, "sum of VmHWM over the server tree"),
    EndToEnd("stored_bytes_per_user_byte", "ratio", "lower", 0.05,
             "/stats stored bytes / live user bytes"),
    EndToEnd("provider_bytes_per_user_byte", "ratio", "lower", 0.05,
             "provider bytes in+out / user bytes put+got, c1"),
    EndToEnd("billed_usd_per_mop", "usd", "lower", 0.05,
             "/stats cost_total delta over c1, per million ops"),
]


def _pairs(metrics: Tuple[str, ...], workloads: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
    return tuple((m, w) for m in metrics for w in workloads)


_GET = ("get_p50_ms", "cpu_ms_per_op", "ops_per_s")
_PUT = ("put_p50_ms", "cpu_ms_per_op", "ops_per_s")
_BOTH = ("get_p50_ms", "put_p50_ms", "cpu_ms_per_op", "ops_per_s")
_BULK = ("goodput_MBps", "get_p50_ms", "put_p50_ms", "range_get_p50_ms", "mpu_put_p50_ms")
_WORKER = _pairs(_BOTH, ("small_workers1",))
_DURABLE = _pairs(("put_p50_ms", "ops_per_s", "setup_s"), ("durable_put",))
_BACKGROUND = "no background work runs in the four workloads; recorded because a median hides these stalls"

PER_LAYER: List[Layer] = [
    Layer("gateway.client.get_self_us", "us", "lower", _pairs(("get_p50_ms",), EVERY)),
    Layer("gateway.client.put_self_us", "us", "lower", _pairs(("put_p50_ms",), EVERY)),
    Layer("gateway.server.http_floor_us", "us", "lower", _pairs(_BOTH, SMALL)),
    Layer("gateway.server.get_self_us", "us", "lower", _pairs(_GET, SMALL)),
    Layer("gateway.server.put_self_us", "us", "lower", _pairs(_PUT, SMALL)),
    Layer("gateway.server.stream_MBps", "MB/s", "higher", _pairs(("goodput_MBps",), ("large_stream",))),
    Layer("gateway.frontend.get_self_us", "us", "lower", _pairs(_GET, SMALL)),
    Layer("gateway.frontend.put_self_us", "us", "lower", _pairs(_PUT, SMALL)),
    Layer("gateway.namespace.hash_us", "us", "lower", _pairs(_BOTH, SMALL)),
    Layer("gateway.remote.get_self_us", "us", "lower", _pairs(_GET, ("small_workers1",))),
    Layer("gateway.remote.put_self_us", "us", "lower", _pairs(_PUT, ("small_workers1",))),
    Layer("gateway.ops.rpcs_per_get", "count", "lower", _pairs(_GET, ("small_workers1",))),
    Layer("gateway.ops.rpcs_per_put", "count", "lower", _pairs(_PUT, ("small_workers1",))),
    Layer("replication.rpc.roundtrip_us", "us", "lower", _WORKER),
    Layer("replication.rpc.roundtrip_1MiB_us", "us", "lower", _WORKER),
    Layer("replication.rpc.header_codec_us", "us", "lower", _WORKER),
    Layer("core.broker.get_self_us", "us", "lower", _pairs(_GET, SMALL)),
    Layer("core.broker.put_self_us", "us", "lower", _pairs(_PUT, SMALL)),
    Layer("cluster.engine.get_self_us", "us", "lower", _pairs(_GET, SMALL)),
    Layer("cluster.engine.put_self_us", "us", "lower", _pairs(_PUT, SMALL)),
    Layer("cluster.engine.put_streamed_MBps", "MB/s", "higher",
          _pairs(("put_p50_ms", "goodput_MBps"), ("large_stream",))),
    Layer("cluster.engine.upload_part_MBps", "MB/s", "higher",
          _pairs(("mpu_put_p50_ms", "goodput_MBps"), ("large_stream",))),
    Layer("cluster.engine.range_get_self_us", "us", "lower",
          _pairs(("range_get_p50_ms",), ("large_stream",))),
    Layer("core.placement.place_us", "us", "lower", _pairs(("put_p50_ms",), SMALL)),
    Layer("cluster.metadata.read_us", "us", "lower", _pairs(_BOTH, ("small_direct",))),
    Layer("cluster.metadata.write_us", "us", "lower", _pairs(_PUT, ("small_direct",))),
    Layer("types.objectmeta_from_dict_us", "us", "lower", _pairs(_BOTH, ("small_direct",))),
    Layer("cluster.locks.shared_acquire_us", "us", "lower", _pairs(_GET, ("small_direct",))),
    Layer("cluster.locks.exclusive_acquire_us", "us", "lower", _pairs(_PUT, ("small_direct",))),
    Layer("erasure.rs.encode_MBps", "MB/s", "higher",
          _pairs(("goodput_MBps", "put_p50_ms", "mpu_put_p50_ms"), ("large_stream",))),
    Layer("erasure.rs.decode_systematic_MBps", "MB/s", "higher",
          _pairs(("goodput_MBps", "get_p50_ms", "range_get_p50_ms"), ("large_stream",))),
    Layer("erasure.rs.decode_parity_MBps", "MB/s", "higher",
          _pairs(("goodput_MBps", "get_p50_ms", "range_get_p50_ms"), ("large_stream",))),
    Layer("erasure.rs.decode_small_us", "us", "lower", _pairs(("get_p50_ms",), ("small_direct",))),
    Layer("erasure.rs.gf_inverse_us", "us", "lower", _pairs(("get_p50_ms",), ("small_direct",))),
    Layer("erasure.striping.chunk_build_MBps", "MB/s", "higher", _pairs(_BULK, ("large_stream",))),
    Layer("storage.merkle.chunk_root_MBps", "MB/s", "higher",
          _pairs(("goodput_MBps", "put_p50_ms", "mpu_put_p50_ms"), ("large_stream",))),
    Layer("gateway.etag_md5_MBps", "MB/s", "higher",
          _pairs(("goodput_MBps", "put_p50_ms", "mpu_put_p50_ms"), ("large_stream",))),
    Layer("providers.provider.put_us", "us", "lower", _pairs(("put_p50_ms",), EVERY)),
    Layer("providers.provider.get_us", "us", "lower", _pairs(("get_p50_ms",), EVERY)),
    Layer("providers.provider.put_MBps", "MB/s", "higher", _pairs(("put_p50_ms",), ("large_stream",))),
    Layer("providers.ops_per_get", "count", "lower",
          _pairs(("billed_usd_per_mop", "get_p50_ms"), EVERY)),
    Layer("providers.ops_per_put", "count", "lower",
          _pairs(("billed_usd_per_mop", "put_p50_ms"), EVERY)),
    Layer("storage.wal.append_us", "us", "lower", _DURABLE),
    Layer("storage.wal.append_fsync_us", "us", "lower", _DURABLE),
    Layer("storage.wal.appends_per_put", "count", "lower", _DURABLE),
    Layer("storage.wal.fsyncs_per_put", "count", "lower", _DURABLE),
    Layer("storage.segment.put_us", "us", "lower", _DURABLE),
    Layer("storage.segment.get_us", "us", "lower", _pairs(("get_p50_ms",), ("durable_put",))),
    Layer("storage.persistence.recover_s", "s", "lower", _pairs(("setup_s",), ("durable_put",))),
    Layer("storage.persistence.disk_bytes_per_user_byte", "ratio", "lower",
          _pairs(("stored_bytes_per_user_byte",), ("durable_put",))),
    Layer("core.optimizer.tick_ms_per_kobj", "ms", "lower", (), _BACKGROUND),
    Layer("core.controlplane.tick_get_max_ms", "ms", "lower", (), _BACKGROUND),
    Layer("storage.scrubber.scrub_MBps", "MB/s", "higher", (), _BACKGROUND),
    Layer("storage.auditor.chunks_per_s", "1/s", "higher", (), _BACKGROUND),
    Layer("obs.metrics.overhead_pct", "%", "lower", _pairs(("cpu_ms_per_op",), ("small_direct",))),
    Layer("obs.metrics.overhead_iqr_pct", "%", "lower", (),
          "the estimator's own spread; read it before believing overhead_pct"),
    Layer("spine.span_overhead_us", "us", "lower", (),
          "cost of one empty span pair; subtract it before reading a self time of a few us"),
]

#: Printed by the untraced run beside the bounded metrics, never gated.  The
#: tails and the two-client rate could not hold the contract's widest bound
#: on every workload (README, "Steadiness"); the rest describe the run.
CLIENT_SIDE: Dict[str, str] = {
    "client.get_p95_ms": "ms",
    "client.put_p95_ms": "ms",
    "client.c2_ops_per_s": "1/s",
    "client.c2_p95_ms": "ms",
    "client.c2_over_c1_ratio": "ratio",
    "client.c1_all_windows_ops_per_s": "1/s",
    "client.boot_s": "s",
    "client.preload_s": "s",
}
