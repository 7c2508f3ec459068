"""Ranged reads of a large object beside small PUTs that land on the
same provider.

A challenge holds the provider's op lock while the store answers it,
and a PUT of a chunk to that provider waits behind it.  Both threads
must bill exactly whatever the interleaving; what the PUTs wait is
printed for the record (``python tests/concurrency/test_range_reads_beside_puts.py``,
with ``PYTHONPATH`` naming the tree to measure), not asserted.
"""

import io
import random
import statistics
import sys
import threading
import time

from repro.cluster.readpath import rows_for_window
from repro.core.broker import Scalia
from repro.erasure.striping import chunk_length
from repro.storage.merkle import LEAF_SIZE, leaf_length, path_length

MiB = 1024 * 1024
STRIPE = 8 * MiB
RANGES = 150
PUTS = 150


def _billed(broker):
    return {
        p.name: (
            p.meter.total().ops_get, p.meter.total().bytes_out,
            p.meter.total().ops_put, p.meter.total().bytes_in,
        )
        for p in broker.registry.providers()
    }


def _run(with_reader: bool):
    """``(billed delta, expected delta, PUT latencies, providers shared)``
    of ``PUTS`` 1 KiB PUTs, with or without a thread range-reading a
    16 MiB object meanwhile."""
    data = random.Random(11).randbytes(2 * STRIPE)
    expected = {}

    def expect(name, gets=0, out=0, puts=0, into=0):
        have = expected.get(name, (0, 0, 0, 0))
        expected[name] = (have[0] + gets, have[1] + out, have[2] + puts, have[3] + into)

    with Scalia(enable_metrics=False) as broker:
        big = broker.put("c", "big", io.BytesIO(data))
        holders = dict(big.chunk_map)
        clen = chunk_length(STRIPE, big.m)
        before = _billed(broker)
        failures = []
        writing = threading.Event()
        writing.set()

        def reader():
            rng = random.Random(3)
            try:
                served = 0
                while served < RANGES or (writing.is_set() and served < 50 * RANGES):
                    lo = rng.randrange(len(data) - LEAF_SIZE)
                    got = broker.get("c", "big", byte_range=(lo, lo + LEAF_SIZE - 1))
                    assert bytes(got) == data[lo : lo + LEAF_SIZE]
                    served += 1
                    for stripe in range(2):
                        s_lo = min(max(lo - stripe * STRIPE, 0), STRIPE)
                        s_hi = min(max(lo + LEAF_SIZE - stripe * STRIPE, 0), STRIPE)
                        for window in rows_for_window(STRIPE, big.m, s_lo, s_hi):
                            proof = sum(
                                leaf_length(clen, i) + 32 * path_length(clen, i)
                                for i in window.leaves
                            )
                            expect(holders[window.row], gets=1, out=proof)
            except BaseException as exc:  # surfaced by the test below
                failures.append(exc)

        latencies, placed, expected_puts = [], set(), []

        def writer():
            try:
                for number in range(PUTS):
                    started = time.perf_counter()
                    meta = broker.put("c", f"small-{number}", bytes([number % 251]) * 1024)
                    latencies.append(time.perf_counter() - started)
                    for _index, name in meta.chunk_map:
                        placed.add(name)
                        expected_puts.append((name, chunk_length(1024, meta.m)))
            except BaseException as exc:
                failures.append(exc)
            finally:
                writing.clear()

        threads = [threading.Thread(target=writer)]
        if with_reader:
            threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        if failures:
            raise failures[0]
        for name, small in expected_puts:
            expect(name, puts=1, into=small)
        after = _billed(broker)
        delta = {
            name: tuple(a - b for a, b in zip(after[name], before[name]))
            for name in after
            if after[name] != before[name]
        }
        return delta, expected, latencies, placed & set(holders.values())


def test_a_reader_of_ranges_and_a_writer_of_small_objects_both_bill_exactly():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        delta, expected, latencies, shared = _run(with_reader=True)
    finally:
        sys.setswitchinterval(interval)
    assert shared  # the two threads did meet at a provider
    assert len(latencies) == PUTS
    assert delta == expected


if __name__ == "__main__":
    sys.setswitchinterval(1e-5)
    for with_reader in (False, True, False, True):
        _delta, _expected, latencies, _shared = _run(with_reader)
        cuts = statistics.quantiles(latencies, n=10)
        print(
            f"1 KiB PUT {'beside a range reader' if with_reader else 'alone':>22}: "
            f"p50 {statistics.median(latencies) * 1e3:.3f} ms, p90 {cuts[8] * 1e3:.3f} ms"
        )
