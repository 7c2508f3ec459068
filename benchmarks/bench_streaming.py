"""Streaming data plane: range-read amplification and peak write memory.

Two acceptance numbers for the multi-stripe redesign:

* **Range amplification** — a ranged GET of ``k`` bytes from an N-stripe
  object must fetch (and bill, via the provider bandwidth meters) only
  the 64 KiB Merkle leaves covering the range plus their proofs, not the
  covering stripes and never the whole object.
* **O(stripe) writes** — a streamed PUT and a multipart PUT of a 64 MiB
  object must complete with peak buffered payload bounded by a small
  multiple of the stripe size, never O(object).  Chunks land in durable
  segment stores (on disk) so the measurement isolates *buffers* from
  *storage*.

Run with ``pytest benchmarks/bench_streaming.py -s``.
"""

import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

from _helpers import run_once
from repro.core.broker import Scalia
from repro.storage.merkle import LEAF_SIZE, leaf_count

MiB = 1024 * 1024
STRIPE = 4 * MiB
OBJECT = 64 * MiB
#: Peak *extra* allocation budget while streaming OBJECT bytes in: a few
#: stripes of working set (source block + n erasure shards + codec temps),
#: nowhere near the 64 MiB payload.
PEAK_BUDGET = 10 * STRIPE


def _block_source(total, block=256 * 1024):
    """Deterministic payload stream that never materializes the object."""
    pattern = bytes(range(256)) * (block // 256)
    sent = 0
    while sent < total:
        n = min(block, total - sent)
        yield pattern[:n]
        sent += n


def _bytes_out(broker):
    return sum(p.meter.total().bytes_out for p in broker.registry.providers())


def _covering_bound(meta, start, end):
    """Most provider bytes a ranged read of inclusive ``[start, end]`` may
    bill: per touched row of each covering stripe, the 64 KiB Merkle
    leaves that cover its slice, each with one sibling hash per tree
    level; the stripe itself where that is no narrower."""
    bound = 0
    for stripe, lo, hi in meta.stripes_for_range(start, end):
        length = meta.stripe_lengths[stripe]
        row = -(-length // meta.m)
        levels = (leaf_count(row) - 1).bit_length()
        leaves = 0
        for r in range(lo // row, (hi - 1) // row + 1):
            a, b = max(lo, r * row) - r * row, min(hi, (r + 1) * row) - r * row
            leaves += (b - 1) // LEAF_SIZE - a // LEAF_SIZE + 1
        bound += min(leaves * (LEAF_SIZE + 32 * levels), length + meta.m)
    return bound


def test_range_read_amplification(benchmark):
    def run():
        with Scalia(stripe_size_bytes=STRIPE) as broker:
            broker.put(
                "bench", "big.bin", _block_source(OBJECT), size_hint=OBJECT
            )
            meta = broker.head("bench", "big.bin")
            rows = []
            for label, start, end in (
                ("64 B mid-stripe", 30 * MiB, 30 * MiB + 63),
                ("1 MiB in-stripe", 8 * MiB + 100, 9 * MiB + 99),
                ("boundary straddle", 4 * MiB - 512, 4 * MiB + 511),
                ("8 MiB span", 16 * MiB, 24 * MiB - 1),
            ):
                before = _bytes_out(broker)
                t0 = time.perf_counter()
                payload = broker.get("bench", "big.bin", byte_range=(start, end))
                elapsed = time.perf_counter() - t0
                fetched = _bytes_out(broker) - before
                rows.append(
                    (label, end - start + 1, fetched, elapsed,
                     _covering_bound(meta, start, end))
                )
                assert len(payload) == end - start + 1
            return meta, rows

    meta, rows = run_once(benchmark, run)
    print(f"\nrange-read amplification ({OBJECT // MiB} MiB object, "
          f"{meta.stripe_count} stripes of {STRIPE // MiB} MiB, "
          f"m={meta.m}, n={meta.n})")
    print(f"{'range':>20} {'asked B':>10} {'fetched B':>11} {'amp':>7} {'ms':>8}")
    for label, asked, fetched, elapsed, bound in rows:
        print(f"{label:>20} {asked:>10} {fetched:>11} "
              f"{fetched / asked:>7.1f} {elapsed * 1e3:>8.1f}")
        # Billing is bounded by the covering leaves and their proofs
        # ("64 B mid-stripe": one leaf + 32 B per tree level, where it
        # was one stripe), never the covering stripes, let alone the object.
        assert fetched <= bound, (
            f"{label}: fetched {fetched} B for {asked} B "
            f"(covering leaves plus proofs: {bound} B)"
        )
        assert fetched < OBJECT / 4, f"{label}: range read billed like a full GET"


def _measure_peak(data_dir, upload):
    """Peak tracemalloc delta while `upload(broker)` streams OBJECT bytes."""
    with Scalia(data_dir=str(data_dir), storage_sync="never",
                stripe_size_bytes=STRIPE) as broker:
        tracemalloc.start()
        tracemalloc.reset_peak()
        upload(broker)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        meta = broker.head("bench", "big.bin")
        assert meta is not None and meta.size == OBJECT
    return peak


def test_streamed_put_peak_memory_is_o_stripe(benchmark):
    root = Path(tempfile.mkdtemp(prefix="bench-streaming-"))

    def run():
        def streamed(broker):
            broker.put("bench", "big.bin", _block_source(OBJECT), size_hint=OBJECT)

        def multipart(broker):
            part_size = 8 * MiB
            upload = broker.create_multipart_upload(
                "bench", "big.bin", size_hint=OBJECT
            )
            for number in range(1, OBJECT // part_size + 1):
                broker.upload_part(
                    "bench", "big.bin", upload.upload_id, number,
                    _block_source(part_size),
                )
            broker.complete_multipart_upload("bench", "big.bin", upload.upload_id)

        return (
            _measure_peak(root / "streamed", streamed),
            _measure_peak(root / "multipart", multipart),
        )

    try:
        streamed_peak, multipart_peak = run_once(benchmark, run)
        print(f"\npeak buffered payload while writing a {OBJECT // MiB} MiB object "
              f"(stripe {STRIPE // MiB} MiB, durable backend)")
        print(f"  streamed PUT : {streamed_peak / MiB:7.1f} MiB peak "
              f"(budget {PEAK_BUDGET / MiB:.0f} MiB)")
        print(f"  multipart PUT: {multipart_peak / MiB:7.1f} MiB peak")
        assert streamed_peak < PEAK_BUDGET, (
            f"streamed put peaked at {streamed_peak / MiB:.1f} MiB — "
            f"O(object) buffering crept back in"
        )
        assert multipart_peak < PEAK_BUDGET, (
            f"multipart put peaked at {multipart_peak / MiB:.1f} MiB"
        )
        assert streamed_peak < OBJECT / 2 and multipart_peak < OBJECT / 2
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_streaming_throughput(benchmark):
    root = Path(tempfile.mkdtemp(prefix="bench-streaming-tp-"))

    def run():
        with Scalia(data_dir=str(root / "d"), storage_sync="never",
                    stripe_size_bytes=STRIPE) as broker:
            t0 = time.perf_counter()
            broker.put("bench", "big.bin", _block_source(OBJECT), size_hint=OBJECT)
            put_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            data = broker.get("bench", "big.bin")
            get_s = time.perf_counter() - t0
            assert len(data) == OBJECT
            return put_s, get_s

    try:
        put_s, get_s = run_once(benchmark, run)
        print(f"\nstreamed 64 MiB object (durable backend, sync=never)")
        print(f"  put: {OBJECT / MiB / put_s:6.1f} MiB/s   "
              f"get: {OBJECT / MiB / get_s:6.1f} MiB/s")
    finally:
        shutil.rmtree(root, ignore_errors=True)
