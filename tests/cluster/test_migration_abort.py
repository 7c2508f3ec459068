"""A migration that fails part-way deletes what it wrote.

Migration is a staged write like every other (begin, write, commit or
abort): a provider that errors, fills up or refuses a chunk size, or a
source stripe that cannot be read, after the first chunk has landed must
leave the providers holding exactly what they held before the attempt,
so nothing is stored and billed that no metadata row references, and
the optimizer's retry next round starts from a clean slate.
"""

import pytest

from repro.cluster.engine import ReadFailedError
from repro.core.broker import Scalia
from repro.providers.provider import (
    CapacityExceededError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.types import Placement

STRIPE = 4096
DATA = bytes((i * 7 + 3) % 251 for i in range(STRIPE * 3 + 100))  # 4 stripes


def _fail_second_call(owner, name, exc):
    """Make ``owner.name`` raise ``exc`` on its second call; returns undo."""
    real = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise exc
        return real(*args, **kwargs)

    setattr(owner, name, wrapper)
    return lambda: setattr(owner, name, real)


def _chunk_counts(broker) -> dict:
    return {p.name: len(p.snapshot_keys()) for p in broker.registry.providers()}


def _setup(path: str):
    """A 4-stripe object and a placement that moves it along ``path``."""
    broker = Scalia(
        seed=11, stripe_size_bytes=STRIPE, enable_metrics=False, enable_events=False
    )
    meta = broker.put("mig", "obj", DATA)
    assert meta.stripe_count == 4
    old = [p for _, p in meta.chunk_map]
    spare = sorted(set(broker.registry.names()) - set(old))[0]
    if path == "same_code":
        target = Placement((spare, *old[1:]), meta.m)
    else:
        target = Placement((*old, spare), meta.m)
    return broker, meta, spare, target


@pytest.mark.parametrize("path", ["same_code", "restripe"])
@pytest.mark.parametrize(
    "error", [ProviderUnavailableError, CapacityExceededError, ChunkTooLargeError]
)
def test_failed_put_leaves_providers_as_they_were(path, error):
    broker, meta, spare, target = _setup(path)
    engine = broker.cluster.all_engines()[0]
    before = _chunk_counts(broker)

    # The incoming provider takes the first stripe's chunk, then errors.
    undo = _fail_second_call(
        broker.registry.get(spare), "put_chunk", error("injected", spare)
    )
    with pytest.raises(error):
        engine.migrate("mig", "obj", target)
    undo()

    assert _chunk_counts(broker) == before
    assert broker.head("mig", "obj") == meta
    assert broker.scrub(repair=True).orphans_found == 0
    assert broker.get("mig", "obj") == DATA

    receipt = engine.migrate("mig", "obj", target)
    assert receipt.full_restripe == (path == "restripe")
    assert broker.get("mig", "obj") == DATA
    report = broker.scrub(repair=True)
    assert (report.orphans_found, report.chunks_missing, report.chunks_corrupt) == (0, 0, 0)
    broker.close()


@pytest.mark.parametrize("path", ["same_code", "restripe"])
def test_failed_source_read_leaves_providers_as_they_were(path):
    broker, meta, spare, target = _setup(path)
    engine = broker.cluster.all_engines()[0]
    if path == "same_code":
        # The outgoing provider is down, so its chunks are rebuilt from
        # the others — one source fetch per stripe.
        broker.registry.fail(meta.chunk_map[0][1])
    before = _chunk_counts(broker)

    undo = _fail_second_call(engine, "_fetch_chunks", ReadFailedError("injected"))
    with pytest.raises(ReadFailedError):
        engine.migrate("mig", "obj", target)
    undo()

    assert _chunk_counts(broker) == before
    assert broker.head("mig", "obj") == meta
    assert broker.get("mig", "obj") == DATA
    engine.migrate("mig", "obj", target)
    assert broker.get("mig", "obj") == DATA
    broker.registry.recover(meta.chunk_map[0][1])
    broker.cluster.pending_deletes.flush(broker.registry)
    assert broker.scrub(repair=True).orphans_found == 0
    broker.close()


def test_same_code_abort_never_deletes_a_chunk_the_live_row_references():
    broker, meta, spare, target = _setup("same_code")
    engine = broker.cluster.all_engines()[0]
    live = {(p, ck) for _s, _i, p, ck in meta.iter_chunks()}
    deleted = []

    def recording(provider):
        real = provider.delete_chunk

        def delete_chunk(key):
            deleted.append((provider.name, key))
            return real(key)

        return delete_chunk

    for provider in broker.registry.providers():
        provider.delete_chunk = recording(provider)
    undo = _fail_second_call(
        broker.registry.get(spare), "put_chunk", ProviderUnavailableError("injected", spare)
    )
    with pytest.raises(ProviderUnavailableError):
        engine.migrate("mig", "obj", target)
    undo()
    # Exactly the one chunk that landed on the incoming provider goes.
    assert deleted == [(spare, meta.chunk_key(0, 0))]
    assert not live & set(deleted)
    broker.close()


def test_optimizer_retries_an_aborted_repair_next_round():
    """The optimizer journals the abort, leaves no orphan, and the same
    repair goes through on the next round."""
    broker = Scalia(seed=11, stripe_size_bytes=STRIPE, enable_metrics=False)
    meta = broker.put("mig", "obj", DATA)
    victim = meta.chunk_map[0][1]
    broker.tick()
    broker.registry.fail(victim)
    survivors = [p for p in broker.registry.providers() if p.name != victim]
    before = {p.name: len(p.snapshot_keys()) for p in survivors}

    # Whichever provider the optimizer moves the stranded chunks to takes
    # one of them and then goes away.
    undos = [
        _fail_second_call(p, "put_chunk", ProviderUnavailableError("injected", p.name))
        for p in survivors
        if p.name not in meta.placement.providers
    ]
    broker.tick()
    for undo in undos:
        undo()
    assert len(broker.events.query(type="migration.aborted")) == 1
    assert broker.events.query(type="migration.committed") == []
    assert {p.name: len(p.snapshot_keys()) for p in survivors} == before
    assert broker.head("mig", "obj") == meta
    assert broker.scrub(repair=True).orphans_found == 0

    # A round re-examines what was accessed since the last one.
    assert broker.get("mig", "obj") == DATA
    broker.tick()
    assert len(broker.events.query(type="migration.committed")) == 1
    moved = broker.head("mig", "obj")
    assert victim not in moved.placement.providers
    assert broker.get("mig", "obj") == DATA
    broker.close()
