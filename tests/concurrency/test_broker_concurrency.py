"""Concurrent-correctness hammer for the broker's striped-lock data plane.

These tests call the broker directly from many threads — no HTTP, no
frontend serialization — and assert the concurrency contract the refactor
introduced: no lost updates, no torn metadata, exact billing, and
optimizer/writer races that always converge to a readable object.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.broker import Scalia

WORKERS = 8


def _total_get_ops(broker) -> int:
    return sum(p.meter.total().ops_get for p in broker.registry.providers())


def _total_records(broker) -> int:
    broker.cluster.flush_logs()
    return broker.cluster.stats.record_count()


class TestHammer:
    def test_no_lost_updates_on_private_keys(self):
        """Parallel writers on disjoint keys: every op lands exactly once."""
        broker = Scalia()
        ops_per_worker = 30

        def worker(w: int) -> dict:
            last = {}
            puts = gets = 0
            for i in range(ops_per_worker):
                key = f"w{w}-k{i % 3}"
                if key not in last or i % 3 != 2:
                    value = f"worker{w}-iter{i}-".encode() * 4
                    broker.put("hammer", key, value)
                    last[key] = value
                    puts += 1
                else:
                    assert broker.get("hammer", key) == last[key]
                    gets += 1
            return {"puts": puts, "gets": gets, "final": last}

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(worker, range(WORKERS)))

        total_puts = sum(r["puts"] for r in results)
        total_gets = sum(r["gets"] for r in results)
        assert _total_records(broker) == total_puts + total_gets
        for result in results:
            for key, value in result["final"].items():
                assert broker.get("hammer", key) == value
                meta = broker.head("hammer", key)
                placement = meta.placement  # raises on torn/duplicated maps
                assert 1 <= meta.m <= placement.n
                assert len(set(placement.providers)) == placement.n

    def test_contended_keys_never_tear(self):
        """Many writers on the SAME keys: the winner is one writer's bytes."""
        broker = Scalia()
        keys = [f"shared-{i}" for i in range(4)]
        valid = {
            key: {f"w{w}:{key}".encode() * 8 for w in range(WORKERS)}
            for key in keys
        }

        def worker(w: int) -> None:
            for round_ in range(15):
                for key in keys:
                    broker.put("contended", key, f"w{w}:{key}".encode() * 8)
                    payload = broker.get("contended", key)
                    assert payload in valid[key], "read tore a half-written object"

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(worker, range(WORKERS)))

        for key in keys:
            assert broker.get("contended", key) in valid[key]

    def test_deletes_racing_puts_converge(self):
        """put/delete races end either fully present or fully absent."""
        from repro.cluster.engine import ObjectNotFoundError

        broker = Scalia()
        keys = [f"flip-{i}" for i in range(6)]
        stop = threading.Event()

        def putter():
            i = 0
            while not stop.is_set():
                broker.put("flip", keys[i % len(keys)], b"x" * 64)
                i += 1

        def deleter():
            i = 0
            while not stop.is_set():
                try:
                    broker.delete("flip", keys[(i * 5 + 1) % len(keys)])
                except ObjectNotFoundError:
                    pass
                i += 1

        threads = [threading.Thread(target=putter, daemon=True) for _ in range(3)]
        threads += [threading.Thread(target=deleter, daemon=True) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.6)
        stop.set()
        for t in threads:
            t.join(5.0)
            assert not t.is_alive()

        for key in keys:
            meta = broker.head("flip", key)
            if meta is None:
                with pytest.raises(ObjectNotFoundError):
                    broker.get("flip", key)
            else:
                assert broker.get("flip", key) == b"x" * 64
        # Nothing leaked: a full scrub finds no orphans and no damage.
        report = broker.scrub(repair=True)
        assert report.chunks_missing == 0
        assert report.chunks_corrupt == 0
        assert report.orphans_found == 0

    def test_cached_reads_are_safe_and_consistent(self):
        broker = Scalia(cache_capacity_bytes=1 << 20)
        values = {f"c{i}": (f"value-{i}".encode() * 16) for i in range(8)}
        for key, value in values.items():
            broker.put("cached", key, value)

        def reader(_: int) -> None:
            for _ in range(50):
                for key, value in values.items():
                    assert broker.get("cached", key) == value

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(reader, range(WORKERS)))
        stats = broker.cluster.cache.total_stats()
        assert stats.hits + stats.misses >= 8 * WORKERS * 50


class TestAtomicGetWithMeta:
    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
    def test_payload_and_meta_always_match_under_replacement(self, cache_bytes):
        """The one-hold open pairs bytes with the metadata of the same
        version, even while writers replace the object with payloads of
        different sizes (single-stripe, so the first block is it all)."""
        broker = Scalia(cache_capacity_bytes=cache_bytes)
        broker.put("pair", "obj", b"a" * 100)
        stop = threading.Event()
        errors = []

        def writer():
            size = 100
            while not stop.is_set():
                size = 100 if size != 100 else 5000
                broker.put("pair", "obj", b"a" * size)

        def reader():
            try:
                while not stop.is_set():
                    plan, payload = broker.open_get("pair", "obj")
                    meta = plan.meta
                    assert len(payload) == meta.size, (
                        f"payload {len(payload)}B paired with meta of {meta.size}B"
                    )
            except Exception as exc:  # pragma: no cover — diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer, daemon=True)]
        threads += [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        assert errors == []


class TestMultipartHandoffFence:
    def test_open_upload_skey_is_registered_in_flight_until_completion(self):
        broker = Scalia()
        up = broker.create_multipart_upload("mpu", "big.bin")
        assert up.skey in broker.cluster.locks.in_flight.snapshot()
        broker.upload_part("mpu", "big.bin", up.upload_id, 1, b"x" * 1024)
        assert up.skey in broker.cluster.locks.in_flight.snapshot()
        broker.complete_multipart_upload("mpu", "big.bin", up.upload_id)
        assert up.skey not in broker.cluster.locks.in_flight.snapshot()

    def test_abort_also_releases_the_upload_hold(self):
        broker = Scalia()
        up = broker.create_multipart_upload("mpu", "gone.bin")
        broker.upload_part("mpu", "gone.bin", up.upload_id, 1, b"y" * 512)
        broker.abort_multipart_upload("mpu", "gone.bin", up.upload_id)
        assert up.skey not in broker.cluster.locks.in_flight.snapshot()

    def test_completion_straddling_the_orphan_census_loses_no_chunks(self):
        """Worst-case sweep interleave: the reference census sees neither
        the staging row (tombstoned) nor the object row (scanned too
        early).  The upload-lifetime in-flight hold is the fence that
        must keep the chunks alive through the handoff."""
        from repro.providers.provider import ChunkNotFoundError

        broker = Scalia()
        up = broker.create_multipart_upload("mpu", "big.bin")
        payload = b"x" * 4096
        broker.upload_part("mpu", "big.bin", up.upload_id, 1, payload)

        # Sweep fences in their real order: (1) chunk keys, (2) in-flight…
        candidates = [
            (provider, provider.snapshot_keys())
            for provider in broker.registry.providers()
            if not provider.failed
        ]
        in_flight = broker.cluster.locks.in_flight.snapshot()
        # …and the completion lands before (3), in a spot the batched
        # census straddles: emulate the worst case — it saw neither row.
        broker.complete_multipart_upload("mpu", "big.bin", up.upload_id)
        referenced = set()
        for provider, chunk_keys in candidates:
            for chunk_key in chunk_keys:
                if (provider.name, chunk_key) in referenced:
                    continue
                if chunk_key.split(":", 1)[0] in in_flight:
                    continue
                try:
                    provider.delete_chunk(chunk_key)
                except (ChunkNotFoundError, KeyError):
                    pass
        assert broker.get("mpu", "big.bin") == payload, (
            "sweep reaped the chunks of an acknowledged multipart object"
        )


class TestWritesLockAtCommitOnly:
    """Puts and part uploads stream without their row's lock and take it
    only to commit (docs/CONCURRENCY.md): racers last-commit-wins, and a
    slow source stalls nobody."""

    STRIPE = 4096

    def test_same_part_number_from_two_threads(self):
        """Both uploads stream at once under distinct journaled
        generations; the upload completes to exactly one of them."""
        broker = Scalia(stripe_size_bytes=self.STRIPE)
        up = broker.create_multipart_upload("mpu", "raced.bin")
        payloads = [bytes([w + 1]) * (self.STRIPE + 100) for w in range(2)]
        both_begun = threading.Barrier(2, timeout=10)

        def body(payload):
            # First pulled after part_begin: neither upload streams a byte
            # until both hold their generation.
            both_begun.wait()
            yield payload

        def upload(w: int):
            return broker.upload_part(
                "mpu", "raced.bin", up.upload_id, 1, body(payloads[w])
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            receipts = [f.result(timeout=30) for f in [pool.submit(upload, w) for w in range(2)]]

        (state,) = broker.list_multipart_uploads("mpu")
        assert state.next_gen == 2
        gens = {tag.split(".")[0] for r in receipts for tag, _ in r.stripes}
        assert gens == {"p1g0", "p1g1"}
        meta = broker.complete_multipart_upload("mpu", "raced.bin", up.upload_id)
        winner = broker.get("mpu", "raced.bin")
        assert winner in payloads
        assert state.parts[1].etag == receipts[payloads.index(winner)].etag
        report = broker.scrub()
        assert report.orphans_found == 0
        stored = {
            (p.name, ck) for p in broker.registry.providers() for ck in p.backend.keys()
        }
        assert stored == {(p, ck) for _s, _i, p, ck in meta.iter_chunks()}
        assert len(broker.cluster.locks.in_flight) == 0

    def test_get_is_not_stalled_by_a_put_parked_on_a_slow_source(self):
        broker = Scalia(stripe_size_bytes=self.STRIPE)
        old = b"old" * 100
        new = bytes(range(256)) * 40  # 2.5 stripes
        broker.put("c", "K", old)
        parked, release = threading.Event(), threading.Event()

        def slow_body():
            yield new[: self.STRIPE]
            parked.set()  # the first stripe has shipped; now stall
            assert release.wait(30)
            yield new[self.STRIPE :]

        with ThreadPoolExecutor(max_workers=2) as pool:
            putting = pool.submit(broker.put, "c", "K", slow_body())
            try:
                assert parked.wait(10)
                assert pool.submit(broker.get, "c", "K").result(timeout=10) == old
                assert not putting.done()
            finally:
                release.set()
            assert putting.result(timeout=30).size == len(new)
        assert broker.get("c", "K") == new


class TestExactBilling:
    def test_concurrent_get_many_bills_exactly(self):
        """N threads x get_many(count=K): ops_get grows by exactly N*K*m."""
        broker = Scalia()
        meta = broker.put("billing", "obj", 8192)
        base_ops = _total_get_ops(broker)
        threads, count = 8, 25

        def burst(_: int) -> None:
            assert broker.get_many("billing", "obj", count) == 8192

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(burst, range(threads)))

        expected = threads * count * meta.m
        assert _total_get_ops(broker) - base_ops == expected
        broker.cluster.flush_logs()
        history = broker.cluster.stats.history(
            _row_key("billing", "obj"), 0, 1
        )[0]
        assert history.ops_read == threads * count


def _row_key(container: str, key: str) -> str:
    from repro.util.ids import object_row_key

    return object_row_key(container, key)


class TestOptimizerWriterRaces:
    def test_repair_round_races_writers_on_same_keys(self):
        """Optimizer repairs (migrations) racing rewrites never lose data."""
        broker = Scalia()
        keys = [f"hot-{i}" for i in range(8)]
        payload = lambda w, i: f"w{w}r{i}|".encode() * 32  # noqa: E731
        valid = {
            key: {payload(w, i) for w in range(4) for i in range(10)}
            for key in keys
        }
        for key in keys:
            broker.put("race", key, payload(0, 0))
        broker.tick()

        # Break a provider that placements use, so the next rounds repair
        # (migrate) every object while writers rewrite the same keys.
        placed = {p for key in keys for p in broker.placement_of("race", key).providers}
        victim = sorted(placed)[0]
        broker.registry.fail(victim)

        stop = threading.Event()
        errors = []

        def writer(w: int) -> None:
            try:
                i = 0
                while not stop.is_set() and i < 10:
                    for key in keys:
                        broker.put("race", key, payload(w, i))
                        assert broker.get("race", key) in valid[key]
                    i += 1
            except Exception as exc:  # pragma: no cover — diagnostic
                errors.append(exc)

        def ticker() -> None:
            try:
                for _ in range(5):
                    broker.tick()
            except Exception as exc:  # pragma: no cover — diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,), daemon=True) for w in range(1, 4)]
        threads.append(threading.Thread(target=ticker, daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
            assert not t.is_alive()
        stop.set()
        assert errors == []

        broker.registry.recover(victim)
        broker.tick()
        for key in keys:
            assert broker.get("race", key) in valid[key]
            meta = broker.head("race", key)
            assert len(set(meta.placement.providers)) == meta.placement.n
        report = broker.scrub(repair=True)
        assert report.chunks_corrupt == 0


class TestBoundedForegroundStall:
    def test_round_over_1k_objects_never_blocks_a_get_beyond_one_batch(self):
        """The acceptance-criterion test: with a configurable batch size,
        a concurrent GET completes while an optimization round over >=1k
        objects is suspended between batches — the round holds no lock
        spanning batches, so a GET waits for at most one batch."""
        n_objects = 1100
        batch = 50
        broker = Scalia(optimizer_batch_size=batch)
        for i in range(n_objects):
            broker.put("bulk", f"k{i}", 2048)

        gate = threading.Event()
        mid_round = threading.Event()
        yields = []

        def yield_fn():
            yields.append(time.perf_counter())
            mid_round.set()
            gate.wait(30.0)  # suspend the round between two batches

        reports = []
        ticker = threading.Thread(
            target=lambda: reports.extend(broker.tick(optimizer_yield_fn=yield_fn)),
            daemon=True,
        )
        ticker.start()
        assert mid_round.wait(30.0), "round never reached a batch boundary"

        # The round is parked mid-way holding no object locks: GETs on
        # keys across the whole range must complete *now*, not after the
        # round.  (With the old global broker lock this would hang until
        # the gate opened — i.e. deadlock, because we open it afterwards.)
        for i in (0, n_objects // 2, n_objects - 1):
            assert broker.get("bulk", f"k{i}") == 2048
        gate.set()
        ticker.join(60.0)
        assert not ticker.is_alive()
        assert reports and reports[0].examined >= 1000
        assert len(yields) >= (n_objects // batch) - 1

    def test_scrub_batches_yield_to_foreground(self):
        broker = Scalia(scrub_batch_size=10)
        for i in range(60):
            broker.put("scrubbed", f"k{i}", b"payload-%d" % i)

        gate = threading.Event()
        mid_pass = threading.Event()

        def yield_fn():
            mid_pass.set()
            gate.wait(30.0)

        results = []
        scrubber_thread = threading.Thread(
            target=lambda: results.append(
                broker.scrubber.scrub(repair=True, yield_fn=yield_fn)
            ),
            daemon=True,
        )
        scrubber_thread.start()
        assert mid_pass.wait(30.0)
        # Pass suspended between batches: foreground reads and writes flow.
        assert broker.get("scrubbed", "k5") == b"payload-5"
        broker.put("scrubbed", "k-new", b"written-mid-scrub")
        gate.set()
        scrubber_thread.join(30.0)
        assert not scrubber_thread.is_alive()
        report = results[0]
        assert report.chunks_corrupt == 0
        # The mid-scrub write must not be reaped as an orphan.
        assert broker.get("scrubbed", "k-new") == b"written-mid-scrub"

    def test_audit_batches_yield_to_foreground(self):
        broker = Scalia(audit_batch_size=10)
        for i in range(60):
            broker.put("audited", f"k{i}", b"payload-%d" % i)

        gate = threading.Event()
        mid_sweep = threading.Event()

        def yield_fn():
            mid_sweep.set()
            gate.wait(30.0)

        results = []
        auditor_thread = threading.Thread(
            target=lambda: results.append(
                broker.auditor.audit(repair=True, yield_fn=yield_fn)
            ),
            daemon=True,
        )
        auditor_thread.start()
        assert mid_sweep.wait(30.0)
        # Sweep suspended between batches holds no object lock: a read
        # and a write — of a key it already audited, too — complete now.
        assert broker.get("audited", "k5") == b"payload-5"
        broker.put("audited", "k5", b"rewritten-mid-audit")
        broker.put("audited", "k-new", b"written-mid-audit")
        gate.set()
        auditor_thread.join(30.0)
        assert not auditor_thread.is_alive()
        report = results[0]
        assert report.proofs_failed == 0 and report.chunks_missing == 0
        assert report.objects_audited == 60
        assert broker.get("audited", "k5") == b"rewritten-mid-audit"
        assert broker.get("audited", "k-new") == b"written-mid-audit"
