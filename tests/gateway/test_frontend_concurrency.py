"""Hammer the BrokerFrontend from a thread pool.

The frontend serializes nothing; these tests assert the broker's own lock
hierarchy protects it: operation counters see no lost updates, the
statistics pipeline records every operation exactly once, and no object
ends up with torn metadata (mismatched chunk maps, duplicate providers,
unreadable payloads).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend

#: The one dispatch left; parametrised so the ids survive the removal of
#: the lock and queue modes.
MODES = ("direct",)

WORKERS = 8
OPS_PER_WORKER = 40
KEYS_PER_WORKER = 4


def _payload(worker: int, iteration: int) -> bytes:
    return f"worker{worker}-iter{iteration}-".encode() * 8


def _hammer(frontend: BrokerFrontend, worker: int) -> dict:
    """Alternate puts and gets over a worker-private key range."""
    puts = gets = 0
    last_value = {}
    for i in range(OPS_PER_WORKER):
        key = f"w{worker}-k{i % KEYS_PER_WORKER}"
        if key not in last_value or i % 3 != 2:
            value = _payload(worker, i)
            frontend.put(worker_tenant(worker), "hammer", key, value)
            last_value[key] = value
            puts += 1
        else:
            assert frontend.get(worker_tenant(worker), "hammer", key) == last_value[key]
            gets += 1
    return {"puts": puts, "gets": gets, "final": last_value}


def worker_tenant(worker: int) -> str:
    return f"tenant{worker}"


@pytest.mark.parametrize("mode", MODES)
def test_no_lost_updates_under_parallel_load(mode):
    broker = Scalia()
    with BrokerFrontend(broker, mode=mode) as frontend:
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(lambda w: _hammer(frontend, w), range(WORKERS)))

        total_puts = sum(r["puts"] for r in results)
        total_gets = sum(r["gets"] for r in results)

        # 1. Frontend counters: every operation counted exactly once.
        stats = frontend.stats()
        assert stats["ops"]["put"] == total_puts
        assert stats["ops"]["get"] == total_gets
        assert stats["errors"] == {}

        # 2. Statistics pipeline: one record per operation, none torn.
        broker.cluster.flush_logs()
        records = list(broker.cluster.stats.iter_records())
        assert len(records) == total_puts + total_gets
        assert sum(r.count for r in records if r.op == "put") == total_puts
        assert sum(r.count for r in records if r.op == "get") == total_gets

        # 3. Metadata: every key readable, final bytes intact, placement sane.
        for worker, result in enumerate(results):
            for key, value in result["final"].items():
                assert frontend.get(worker_tenant(worker), "hammer", key) == value
                meta = frontend.head(worker_tenant(worker), "hammer", key)
                assert meta is not None
                placement = meta.placement  # raises if torn/duplicated
                assert 1 <= meta.m <= placement.n
                assert len(set(placement.providers)) == placement.n


@pytest.mark.parametrize("mode", MODES)
def test_ticks_interleaved_with_requests(mode):
    """The optimizer (tick) and client requests serialize cleanly."""
    broker = Scalia()
    with BrokerFrontend(broker, mode=mode) as frontend:
        def requester(worker: int) -> int:
            value = _payload(worker, 0)
            for i in range(20):
                frontend.put(worker_tenant(worker), "mixed", f"k{worker}", value)
                assert frontend.get(worker_tenant(worker), "mixed", f"k{worker}") == value
            return 40

        def ticker() -> int:
            for _ in range(5):
                frontend.tick()
            return 5

        with ThreadPoolExecutor(max_workers=5) as pool:
            req_futures = [pool.submit(requester, w) for w in range(4)]
            tick_future = pool.submit(ticker)
            total_requests = sum(f.result() for f in req_futures)
            assert tick_future.result() == 5

        assert broker.period == 5
        stats = frontend.stats()
        assert stats["ops"]["put"] + stats["ops"]["get"] == total_requests
        assert stats["ops"]["tick"] == 5
        assert stats["errors"] == {}


@pytest.mark.parametrize("mode", MODES)
def test_close_racing_with_submissions_never_hangs(mode):
    """A request racing close() either completes or gets FrontendClosedError
    promptly — it must not block forever on a never-executed job."""
    import threading

    from repro.gateway.frontend import FrontendClosedError

    frontend = BrokerFrontend(Scalia(), mode=mode)
    start = threading.Barrier(5)
    outcomes = []

    def submitter(worker: int) -> None:
        start.wait()
        try:
            for i in range(50):
                frontend.put(worker_tenant(worker), "race", f"k{i}", b"v")
            outcomes.append("done")
        except FrontendClosedError:
            outcomes.append("closed")

    threads = [
        threading.Thread(target=submitter, args=(w,), daemon=True) for w in range(4)
    ]
    for t in threads:
        t.start()
    start.wait()
    frontend.close()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive(), "submitter hung after close()"
    assert len(outcomes) == 4
