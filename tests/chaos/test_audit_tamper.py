"""Tamper-injection chaos: a lying provider vs the Merkle auditor.

The ``corrupt`` fault models the adversary checksums cannot catch: the
provider flips a bit of the stored payload and *recomputes its local
checksum*, so every provider-side verify passes.  Only the broker-held
Merkle root — anchored in metadata at PUT time, before the provider
ever saw the bytes — contradicts the store.  This suite drives the full
incident lifecycle: tamper, detection within one audit sweep, breaker
force-open, erasure-coded repair, and readmission through clean
half-open probes.

Objects are sized so every chunk is a single 64 KiB leaf, making
one-leaf sampling exhaustive — detection within one sweep is then a
guarantee, not a coin flip (multi-leaf chunks get caught across sweeps
as the seed advances; that sampling math is the property suite's job).
"""

import pytest

from repro.core.broker import Scalia
from repro.erasure.striping import Chunk
from repro.providers.faults import FaultProfile
from repro.providers.health import HealthTracker
from repro.providers.pricing import paper_catalog
from repro.providers.registry import ProviderRegistry

OBJECT_BYTES = 96 * 1024  # m=2 -> 48 KiB chunks: exactly one leaf each
OBJECT_COUNT = 4


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def stack():
    clock = FakeClock()
    health = HealthTracker(
        clock=clock, open_after=3, cooldown_s=30.0, half_open_probes=2
    )
    registry = ProviderRegistry(paper_catalog(), health=health)
    broker = Scalia(registry=registry, enable_metrics=True)
    yield broker, clock
    broker.close()


def _payload(i: int) -> bytes:
    return bytes((i * 7 + j) % 251 for j in range(OBJECT_BYTES))


def _seed_objects(broker):
    """Write one clean probe object, pick a victim provider from its
    placement, then write the tamper-window objects."""
    meta = broker.put("tank", "probe", _payload(99))
    victim = meta.chunk_map[0][1]
    broker.registry.set_fault_profile(
        victim, FaultProfile(corrupt_rate=1.0, seed=11)
    )
    tampered_chunks = 0
    for i in range(OBJECT_COUNT):
        meta = broker.put("tank", f"obj-{i}", _payload(i))
        tampered_chunks += sum(
            1 for _, provider in meta.chunk_map if provider == victim
        )
    # Incident over: the provider stops tampering (so repairs stick),
    # but the damage is in its store and its checksums all pass.
    broker.registry.set_fault_profile(victim, None)
    return victim, tampered_chunks


class TestTamperLifecycle:
    def test_caught_within_one_sweep_and_repaired(self, stack):
        broker, _clock = stack
        victim, tampered_chunks = _seed_objects(broker)
        assert tampered_chunks > 0

        report = broker.audit(seed=0)
        # Single-leaf chunks make one-leaf sampling exhaustive: every
        # tampered chunk fails its proof in this very sweep.
        assert report.proofs_failed == tampered_chunks
        assert report.chunks_missing == 0
        assert report.repaired == tampered_chunks
        assert report.unrepairable == 0
        assert {p.provider for p in report.problems} == {victim}
        assert all(p.status == "proof-failed" for p in report.problems)

        # The breaker force-opened on the first failed proof and the
        # provider is out of placement consideration.
        view = broker.registry.health.view(victim)
        assert view.breaker == "open"
        assert view.audit_failures == tampered_chunks
        assert not broker.registry.is_admitted(victim)

        # Repair restored the exact bytes: replayed proofs pass and the
        # objects read back identically.
        again = broker.audit(seed=0)
        assert again.proofs_failed == 0 and again.chunks_missing == 0
        for i in range(OBJECT_COUNT):
            assert broker.get("tank", f"obj-{i}") == _payload(i)
        assert broker.get("tank", "probe") == _payload(99)

    def test_detection_never_reads_full_chunks(self, stack):
        """Detection itself is O(log): only the repair reads whole chunks."""
        broker, _clock = stack
        victim, tampered_chunks = _seed_objects(broker)

        usage_before = broker.registry.get(victim).meter.total()
        report = broker.audit(repair=False, seed=0)
        usage_after = broker.registry.get(victim).meter.total()
        assert report.proofs_failed == tampered_chunks
        assert report.repaired == 0

        # The victim's audit egress is proof-sized (leaf + path), never a
        # full chunk read — no-repair sweeps stay cheap even on damage.
        chunk_bytes = OBJECT_BYTES // 2
        victim_chunks = report.chunks_audited and sum(
            1 for p in report.problems if p.provider == victim
        ) + 1  # probe object's chunk also lives there
        billed = usage_after.bytes_out - usage_before.bytes_out
        assert billed < victim_chunks * chunk_bytes
        assert billed > 0

    def test_readmitted_after_clean_half_open_probes(self, stack):
        broker, clock = stack
        victim, _tampered = _seed_objects(broker)

        broker.audit(seed=0)  # detect + repair + open the breaker
        assert broker.registry.health.breaker_state(victim) == "open"

        # Cooldown not yet served: still open, still not admitted.
        clock.advance(10.0)
        assert broker.registry.health.breaker_state(victim) == "open"

        # Past the cooldown the breaker relaxes to half-open, and the
        # next audit sweep's successful proofs are exactly the clean
        # probes readmission wants (half_open_probes=2 < chunks held).
        clock.advance(30.0)
        assert broker.registry.health.breaker_state(victim) == "half_open"
        report = broker.audit(seed=1)
        assert report.proofs_failed == 0
        assert broker.registry.health.breaker_state(victim) == "closed"
        assert broker.registry.is_admitted(victim)

    def test_half_open_tamper_relapse_reopens(self, stack):
        """A provider caught tampering *again* during probation goes
        straight back to open with a fresh cooldown.

        Half-open providers receive no new placements, so the relapse is
        modelled the way silent rot actually happens: a stored chunk's
        bytes flip in place and the provider re-derives a consistent
        local checksum (`Chunk.build` over the rotten bytes).
        """
        broker, clock = stack
        victim, _tampered = _seed_objects(broker)
        broker.audit(seed=0)
        clock.advance(40.0)
        assert broker.registry.health.breaker_state(victim) == "half_open"

        engine = broker.cluster.all_engines()[0]
        meta = engine.resolve_row_unlocked(engine.live_row_keys()[0])
        store = broker.registry.get(victim).backend
        flipped = 0
        for _stripe, _index, provider, chunk_key in meta.iter_chunks():
            if provider != victim:
                continue
            old = store._chunks[chunk_key]
            rotten = bytearray(old.data)
            rotten[-1] ^= 0x08
            store._chunks[chunk_key] = Chunk.build(old.index, bytes(rotten))
            assert store.get(chunk_key).data == bytes(rotten)  # the store sees nothing
            flipped += 1
        assert flipped > 0

        report = broker.audit(seed=2)
        assert report.proofs_failed == flipped
        assert report.repaired == flipped
        # Probation revoked: back to open, with the cooldown restarted.
        assert broker.registry.health.breaker_state(victim) == "open"
        clock.advance(10.0)
        assert broker.registry.health.breaker_state(victim) == "open"
