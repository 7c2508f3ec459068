"""Differential suite: auditor-driven repair vs the full-read scrubber.

Two brokers, identical seeds, identical writes, identical deterministic
tamper.  One heals through ``audit()`` (possession proofs, repair only
on failed proofs), the other through ``scrub()`` (full reads).  The two
paths must converge to *byte-identical* healthy stores — same chunks,
same bytes, same checksums, zero orphans, same readability — while the
audit path bills strictly fewer provider bytes.  The exact-billing
asserts the provider suite pins for get/put extend here to the audit
op: one get op plus precisely the proof's leaf-plus-path bytes.

Objects are sized to single-leaf chunks so one-leaf sampling is
exhaustive and the auditor provably sees every damaged chunk in one
sweep — the differential claim is about the *repair* path, not about
sampling luck.
"""

import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.broker import Scalia
from repro.providers.faults import FaultProfile
from repro.storage.merkle import build_proof, leaf_count, proof_billed_bytes
from repro.types import ObjectMeta, Placement

OBJECT_BYTES = 96 * 1024  # single-leaf chunks at any m the rules pick
OBJECT_COUNT = 6
TAMPER_SEED = 23
STRIPE_BYTES = 16 * 1024  # the rebuild differential's multi-stripe objects
#: ``CHAOS_MAX_EXAMPLES`` raises the budget (the ``chaos-stress`` CI job).
MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "8"))


def _payload(i: int) -> bytes:
    return bytes((i * 13 + j) % 249 for j in range(OBJECT_BYTES))


def _build_tampered_broker(*, enable_metrics: bool = False) -> tuple[Scalia, str]:
    """A broker whose victim provider tampered with every write."""
    broker = Scalia(seed=7, enable_metrics=enable_metrics, enable_events=False)
    probe = broker.put("diff", "probe", _payload(77))
    victim = probe.chunk_map[0][1]
    broker.registry.set_fault_profile(
        victim, FaultProfile(corrupt_rate=1.0, seed=TAMPER_SEED)
    )
    for i in range(OBJECT_COUNT):
        broker.put("diff", f"obj-{i}", _payload(i))
    broker.registry.set_fault_profile(victim, None)
    return broker, victim


def _bytes_out(broker) -> float:
    return sum(
        p.meter.total().bytes_out for p in broker.registry.providers()
    )


def _store_state(broker) -> dict:
    """Every provider's full chunk store: name -> key -> data."""
    state = {}
    for provider in broker.registry.providers():
        chunks = provider.backend._chunks  # noqa: SLF001 — test introspection
        state[provider.name] = {
            key: bytes(chunk.data)
            for key, chunk in chunks.items()
        }
    return state


class TestConvergence:
    def test_audit_and_scrub_repair_to_identical_stores(self):
        audit_broker, victim_a = _build_tampered_broker()
        scrub_broker, victim_b = _build_tampered_broker()
        # Same seeds, same writes, same fault stream: the two brokers
        # are bit-for-bit replicas before healing.
        assert victim_a == victim_b
        assert _store_state(audit_broker) == _store_state(scrub_broker)

        audit_report = audit_broker.audit(seed=0)
        scrub_report = scrub_broker.scrub()

        # Both saw the same damage and healed all of it.
        assert audit_report.proofs_failed == scrub_report.chunks_corrupt
        assert audit_report.proofs_failed > 0
        assert audit_report.repaired == audit_report.proofs_failed
        assert scrub_report.repaired == scrub_report.chunks_corrupt
        assert audit_report.unrepairable == 0
        assert scrub_report.unrepairable == 0

        # Convergence: byte-identical stores, chunk for chunk.
        assert _store_state(audit_broker) == _store_state(scrub_broker)

        # Zero orphans either way (repairs rewrite in place, never fork
        # keys), and both stores read back every object identically.
        assert audit_broker.scrub().orphans_found == 0
        assert scrub_broker.scrub().orphans_found == 0
        for i in range(OBJECT_COUNT):
            expected = _payload(i)
            assert audit_broker.get("diff", f"obj-{i}") == expected
            assert scrub_broker.get("diff", f"obj-{i}") == expected

        audit_broker.close()
        scrub_broker.close()

    def test_audit_bills_strictly_fewer_provider_bytes(self):
        audit_broker, _ = _build_tampered_broker()
        scrub_broker, _ = _build_tampered_broker()

        audit_base = _bytes_out(audit_broker)
        audit_broker.audit(seed=0)
        audit_bytes = _bytes_out(audit_broker) - audit_base

        scrub_base = _bytes_out(scrub_broker)
        scrub_broker.scrub()
        scrub_bytes = _bytes_out(scrub_broker) - scrub_base

        # Even in this worst case for auditing — tiny single-leaf chunks
        # where a proof carries the whole leaf, plus full-read repairs
        # for every damaged chunk — possession proofs undercut full
        # reads, because healthy chunks (the vast majority) cost a leaf
        # instead of a chunk.  At real chunk sizes the gap is ~64x
        # (test_audit_bills_50x_fewer_provider_bytes_at_4_mib_chunks);
        # here it just has to be strict.
        assert 0 < audit_bytes < scrub_bytes

        audit_broker.close()
        scrub_broker.close()

    def test_audit_bills_50x_fewer_provider_bytes_at_4_mib_chunks(self):
        """The economics of challenge-response auditing (Dynamic
        Accountable Storage): a passing proof moves one 64 KiB leaf and
        its sibling path where a scrub reads the whole chunk.  16 MiB
        objects in one stripe are placed m=4, so a chunk is 4 MiB = 64
        leaves and the ratio is about 64.  It is set per chunk, so 8
        synthetic objects read the same as 100 000; both sweeps bill
        synthetic chunks as they would real bytes."""
        object_bytes = 16 * 1024 * 1024
        broker = Scalia(
            enable_metrics=False, enable_events=False,
            stripe_size_bytes=object_bytes,
        )
        for i in range(8):
            broker.put("econ", f"obj-{i}", object_bytes)

        base = _bytes_out(broker)
        audit = broker.audit(repair=False)
        audit_bytes = _bytes_out(broker) - base
        base = _bytes_out(broker)
        scrub = broker.scrub(repair=False)
        scrub_bytes = _bytes_out(broker) - base

        # Every chunk was challenged: the saving is not skipped work.
        assert audit.chunks_audited == scrub.chunks_scanned > 0
        assert audit.proofs_failed == 0 and audit.chunks_unrooted == 0
        assert scrub.chunks_missing + scrub.chunks_corrupt == 0
        assert 0 < 50 * audit_bytes <= scrub_bytes
        broker.close()


class TestExactBilling:
    def test_audit_op_bills_one_get_plus_proof_bytes(self):
        """The audit op extends the provider suite's exact-billing law:
        1 get op, 0 bytes in, and bytes out equal to the proof's leaf
        bytes plus 32 per sibling hash — nothing hidden, nothing free."""
        broker = Scalia(seed=3, enable_metrics=False, enable_events=False)
        data = bytes((j * 31) % 255 for j in range(5 * 64 * 1024 + 123))
        meta = broker.put("bill", "obj", data)

        engine = broker.cluster.all_engines()[0]
        resolved = engine.resolve_row_unlocked(
            engine.live_row_keys()[0]
        )
        assert isinstance(resolved, ObjectMeta)
        stripe, index, provider_name, chunk_key = next(resolved.iter_chunks())
        provider = broker.registry.get(provider_name)
        stored = provider.backend._chunks[chunk_key]  # noqa: SLF001

        leaves = leaf_count(stored.size)
        indices = random.Random("x").sample(range(leaves), min(2, leaves))
        expected_proof = build_proof(stored.data, indices)
        expected_bytes = proof_billed_bytes(expected_proof)

        before = provider.meter.total()
        proof = provider.audit_chunk(chunk_key, indices)
        after = provider.meter.total()

        assert proof == expected_proof
        assert after.ops_get - before.ops_get == 1
        assert after.ops_put == before.ops_put
        assert after.bytes_in == before.bytes_in
        assert after.bytes_out - before.bytes_out == expected_bytes
        # And the billed figure is proof-sized, not chunk-sized.
        assert expected_bytes < stored.size
        broker.close()

    def test_audit_sweep_bills_exactly_its_reported_proof_bytes(self):
        """Sweep-level conservation: the report's ``proof_bytes`` equals
        the sum of provider ``bytes_out`` deltas — audits bill through
        the same meters as everything else, with no side channel."""
        broker = Scalia(seed=5, enable_metrics=False, enable_events=False)
        for i in range(4):
            broker.put("bill", f"obj-{i}", _payload(i))

        before = _bytes_out(broker)
        report = broker.audit(seed=0)
        delta = _bytes_out(broker) - before

        assert report.proofs_failed == 0
        assert report.proof_bytes > 0
        assert delta == report.proof_bytes
        broker.close()

        # The same law on a sweep that escalates: every object with a
        # tampered chunk is challenged twice (shared, then exclusive
        # before the repair), and both rounds were served and billed.
        broker, _victim = _build_tampered_broker(enable_metrics=True)
        served = []
        for provider in broker.registry.providers():
            provider.audit_chunk = _recording(provider.audit_chunk, served)
        counter = broker.metrics.counter("scalia_audit_proof_bytes_total", "")
        counted_before = counter.value

        report = broker.audit(seed=0)

        assert report.proofs_failed > 0 and report.repaired == report.proofs_failed
        assert len(served) > report.chunks_audited, "no object was re-challenged"
        assert report.leaves_sampled == len(served)  # one leaf per challenge
        assert report.proof_bytes == sum(proof_billed_bytes(p) for p in served)
        assert counter.value - counted_before == report.proof_bytes
        # Verdicts come from the authoritative pass alone.
        assert report.chunks_audited == report.proofs_ok + report.proofs_failed
        broker.close()


def _recording(fn, into: list):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        into.append(result)
        return result

    return wrapper


def _lose(broker, provider_name: str, chunk_key: str):
    """Unmetered disk loss of one chunk; returns what was stored."""
    backend = broker.registry.get(provider_name).backend
    stored = backend.get(chunk_key)
    backend.delete(chunk_key)
    return stored


def _fingerprint(chunk):
    data = getattr(chunk, "data", None)
    if data is None:
        return chunk  # synthetic: the (index, size) record is all there is
    return chunk.index, bytes(data)


class TestRebuildDifferential:
    """One lost chunk, three ways back: scrub repair, audit repair and a
    same-code migration off the provider that held it all end in
    ``Engine.rebuild_chunk`` and must restore the same chunk — whatever
    the object's size, and whichever stripe and index was lost."""

    def _rebuilt_by(self, how: str, payload, pick: int):
        broker = Scalia(
            seed=13, stripe_size_bytes=STRIPE_BYTES,
            enable_metrics=False, enable_events=False,
        )
        meta = broker.put("rebuild", "obj", payload)
        index, holder = meta.chunk_map[pick % meta.n]
        chunk_key = meta.chunk_key(index, (pick // meta.n) % meta.stripe_count)
        original = _fingerprint(broker.registry.get(holder).backend.get(chunk_key))
        spares = sorted(set(broker.registry.names()) - set(meta.placement.providers))
        assume(spares)  # a placement on every provider has nowhere to move to
        if how == "migrate":
            broker.registry.fail(holder)
            spare = spares[0]
            target = Placement(
                tuple(spare if p == holder else p for p in meta.placement.providers),
                meta.m,
            )
            receipt = broker.cluster.all_engines()[0].migrate("rebuild", "obj", target)
            assert not receipt.full_restripe
            holder = spare
        else:
            _lose(broker, holder, chunk_key)
            report = broker.scrub() if how == "scrub" else broker.audit(seed=0)
            assert (report.chunks_missing, report.repaired, report.unrepairable) == (1, 1, 0)
        rebuilt = _fingerprint(broker.registry.get(holder).backend.get(chunk_key))
        assert broker.get("rebuild", "obj") == payload
        broker.close()
        return original, rebuilt

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(size=st.integers(0, 3 * STRIPE_BYTES), pick=st.integers(0, 1 << 16))
    def test_real_object(self, size, pick):
        payload = random.Random(size).randbytes(size)
        outcomes = [
            self._rebuilt_by(how, payload, pick) for how in ("scrub", "audit", "migrate")
        ]
        original = outcomes[0][0]
        assert isinstance(original, tuple)  # real bytes and a checksum
        assert outcomes == [(original, original)] * 3

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(size=st.integers(0, 1 << 20), pick=st.integers(0, 1 << 16))
    def test_synthetic_object(self, size, pick):
        outcomes = [
            self._rebuilt_by(how, size, pick) for how in ("scrub", "audit", "migrate")
        ]
        original = outcomes[0][0]
        assert not isinstance(original, tuple)
        assert outcomes == [(original, original)] * 3


def _in_the_gap(broker, action):
    """Run ``action`` once, between an inspector's shared hold and its
    exclusive one: the next exclusive acquire fires it first, with no
    lock held (the action's own acquires pass straight through)."""
    locks = broker.cluster.locks.objects
    real = locks.exclusive
    fired = []

    def exclusive(*keys):
        if not fired:
            fired.append(keys)
            action()
        return real(*keys)

    locks.exclusive = exclusive
    return fired


@pytest.mark.parametrize("inspector", ["scrub", "audit"])
class TestEscalationContract:
    """The verify → escalate → repair step re-resolves and re-checks
    under the exclusive hold: what happened to the object in the gap
    wins, whichever worker is inspecting."""

    def _damaged(self):
        broker = Scalia(seed=7, enable_metrics=False, enable_events=False)
        victim = broker.put("gap", "probe", _payload(77)).chunk_map[0][1]
        broker.delete("gap", "probe")
        broker.registry.set_fault_profile(
            victim, FaultProfile(corrupt_rate=1.0, seed=TAMPER_SEED)
        )
        broker.put("gap", "obj", _payload(1))
        broker.registry.set_fault_profile(victim, None)
        return broker

    def _inspect(self, broker, inspector):
        return broker.scrub() if inspector == "scrub" else broker.audit(seed=0)

    def _assert_nothing_reported(self, report):
        assert report.problems == []
        assert (report.repaired, report.unrepairable, report.chunks_missing) == (0, 0, 0)
        assert getattr(report, "chunks_corrupt", 0) == 0
        assert getattr(report, "proofs_failed", 0) == 0

    def test_object_deleted_in_the_gap(self, inspector):
        broker = self._damaged()
        puts_before = sum(p.meter.total().ops_put for p in broker.registry.providers())
        fired = _in_the_gap(broker, lambda: broker.delete("gap", "obj"))
        report = self._inspect(broker, inspector)
        assert fired, "the inspector never escalated"
        self._assert_nothing_reported(report)
        # No repair wrote anything, and nothing of the object is left.
        assert sum(p.meter.total().ops_put for p in broker.registry.providers()) == puts_before
        assert all(not p.snapshot_keys() for p in broker.registry.providers())
        broker.close()

    def test_object_rewritten_in_the_gap(self, inspector):
        broker = self._damaged()
        fresh = _payload(2)
        fired = _in_the_gap(broker, lambda: broker.put("gap", "obj", fresh))
        report = self._inspect(broker, inspector)
        assert fired, "the inspector never escalated"
        self._assert_nothing_reported(report)
        # The rewrite is what is stored: no chunk of the superseded
        # version was resurrected.
        meta = broker.head("gap", "obj")
        stored = {
            (p.name, key) for p in broker.registry.providers() for key in p.snapshot_keys()
        }
        assert stored == {(p, ck) for _s, _i, p, ck in meta.iter_chunks()}
        assert broker.get("gap", "obj") == fresh
        broker.close()
