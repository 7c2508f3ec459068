"""Every whole-chunk read checks the Merkle root its row anchors.

A provider under a ``corrupt`` fault stores data chunk 0 of a re-put with
one bit flipped, and a durable backend writes its record checksum over
the flipped bytes, so nothing but the anchored root can tell.  A whole
GET must route around that chunk (any ``m`` of ``n`` serve it, paper
Sections II-A1 and III-D2), return the original bytes and journal
``read.proof_failed``: in process, through a gateway worker's
:class:`RemoteBrokerFrontend`, and on a ``data_dir`` broker, for objects
of one leaf per chunk and of several.  A same-code relocation copies a
chunk straight from its provider, so it must take the same check and
land rebuilt bytes, not the tamper.
"""

import pytest

from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend
from repro.providers.faults import FaultProfile
from repro.providers.provider import _tampered
from repro.storage.merkle import merkle_root
from repro.types import Placement

TENANT = "alice"

#: 1 KiB is one leaf per chunk; 300 KB makes chunks of several 64 KiB leaves.
SIZES = {"one_leaf": 1024, "multi_leaf": 300_000}


def _payload(size: int) -> bytes:
    return bytes((j * 31 + 7) % 251 for j in range(size))


@pytest.fixture(params=["in_process", "remote", "data_dir"])
def topology(request, tmp_path):
    """``(broker, frontend)``: the frontend a GET goes through."""
    data_dir = str(tmp_path / "store") if request.param == "data_dir" else None
    broker = Scalia(enable_metrics=False, data_dir=data_dir)
    local = BrokerFrontend(broker)
    closers = [local.close, broker.close]
    frontend = local
    if request.param == "remote":
        server = OpsService(local).serve("127.0.0.1", 0)
        frontend = RemoteBrokerFrontend(*server.address)
        closers = [frontend.close, server.close, *closers]
    yield broker, frontend
    for close in closers:
        close()


@pytest.mark.parametrize("size", SIZES.values(), ids=list(SIZES))
def test_a_whole_get_skips_a_tampered_data_chunk(topology, size):
    broker, frontend = topology
    data = _payload(size)
    first = frontend.put(TENANT, "bkt", "obj", data)
    victim = dict(first.chunk_map)[0]
    broker.registry.set_fault_profile(victim, FaultProfile(corrupt_rate=1.0, seed=11))
    meta = frontend.put(TENANT, "bkt", "obj", data)
    broker.registry.set_fault_profile(victim, None)
    assert dict(meta.chunk_map)[0] == victim
    stored = broker.registry.get(victim).backend.get(meta.chunk_key(0))
    assert merkle_root(stored.data) != meta.merkle_root(0)  # the tamper landed

    assert frontend.get(TENANT, "bkt", "obj") == data
    failed = broker.events.query(type="read.proof_failed")
    assert [(e["chunk"], e["provider"]) for e in failed] == [(0, victim)]


def test_a_same_code_relocation_rebuilds_a_tampered_chunk():
    broker = Scalia(enable_metrics=False)
    engine = broker.cluster.all_engines()[0]
    names = sorted(broker.registry.names())
    data = _payload(SIZES["multi_leaf"])
    broker.put("c", "k", data)
    engine.migrate("c", "k", Placement(tuple(names[:3]), 2))
    meta = broker.head("c", "k")
    index, source = meta.chunk_map[0]
    store = broker.registry.get(source).backend
    chunk_key = meta.chunk_key(index)
    good = store.get(chunk_key)
    store._chunks[chunk_key] = _tampered(good, 11)  # noqa: SLF001 - a tampering store

    target = names[3]
    moved = [p for p in names[:3] if p != source] + [target]
    engine.migrate("c", "k", Placement(tuple(sorted(moved)), 2))
    after = broker.head("c", "k")
    assert (after.skey, after.m, dict(after.chunk_map)[index]) == (meta.skey, 2, target)
    landed = broker.registry.get(target).backend.get(after.chunk_key(index))
    assert bytes(landed.data) == bytes(good.data)
    assert merkle_root(landed.data) == after.merkle_root(index)
    assert broker.get("c", "k") == data
    failed = broker.events.query(type="read.proof_failed")
    assert [(e["chunk"], e["provider"]) for e in failed] == [(index, source)]
    broker.close()
