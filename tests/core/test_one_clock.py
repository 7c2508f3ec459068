"""One simulated clock: every operation reads it when it runs.

The broker's tick is the only thing that advances ``(now, period)``.
An engine reads the clock at each step, so a streamed PUT whose begin
precedes a tick and whose commit follows it belongs to the commit's
period, in process and through a gateway worker alike.  The spine's
``now=`` / ``period=`` keywords are accepted only when they agree with
the clock, and a snapshot never records a reading a restart cannot
resume.
"""

import pytest

from repro.cluster.clock import Clock
from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend
from repro.util.ids import object_row_key

STRIPE = 4096


class _Crash(Exception):
    """The process dies here."""


class TestClock:
    def test_reads_and_sets_one_pair(self):
        clock = Clock()
        assert clock.read() == (0.0, 0)
        clock.set(2.5, 3)
        assert clock.read() == (2.5, 3)
        assert (clock.now, clock.period) == (2.5, 3)

    def test_a_cluster_shares_one_clock_with_its_broker(self):
        broker = Scalia(enable_metrics=False, datacenters=2)
        broker.tick(2)
        assert all(e._clock is broker.cluster.clock for e in broker.cluster.all_engines())
        assert (broker.now, broker.period) == broker.cluster.clock.read() == (2.0, 2)
        broker.close()


@pytest.fixture(params=["in_process", "remote"])
def topology(request):
    """``(broker, frontend)`` with small stripes, so a PUT streams."""
    broker = Scalia(enable_metrics=False, stripe_size_bytes=STRIPE)
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


def test_a_streamed_put_across_a_tick_belongs_to_its_commit(topology):
    broker, frontend = topology

    def body():
        yield b"a" * STRIPE  # read before the write begins
        broker.tick()  # after begin and the first stripe, before commit
        yield b"b" * STRIPE
        yield b"c" * 100

    meta = frontend.put("t", "bkt", "streamed", body())
    assert len(meta.stripes) == 3
    assert (broker.now, broker.period) == (1.0, 1)
    assert meta.modified_at == meta.created_at == 1.0
    broker.cluster.flush_logs()
    row_key = object_row_key(meta.container, meta.key)
    puts = [r for r in broker.cluster.stats.iter_records() if r.object_key == row_key]
    assert [(r.op, r.period) for r in puts] == [("put", 1)]


class TestSpineShim:
    """The nine engine methods the spine calls with clock keywords."""

    def setup_method(self):
        self.broker = Scalia(enable_metrics=False)
        self.broker.tick(3)
        self.engine = self.broker.cluster.route(None)

    def teardown_method(self):
        self.broker.close()

    def test_keywords_equal_to_the_clock_are_accepted(self):
        clock = {"now": self.broker.now, "period": self.broker.period}
        engine = self.engine
        engine.put("c", "k", b"payload", **clock)
        assert engine.get("c", "k", **clock) == b"payload"
        plan = engine.open_read("c", "k", **clock)
        engine.commit_read(plan, period=clock["period"])
        upload = engine.create_multipart_upload("c", "m", **clock)
        engine.upload_part("c", "m", upload.upload_id, 1, b"part", **clock)
        engine.complete_multipart_upload("c", "m", upload.upload_id, **clock)
        other = engine.create_multipart_upload("c", "n", **clock)
        engine.abort_multipart_upload("c", "n", other.upload_id, **clock)
        engine.delete("c", "k", **clock)
        assert self.broker.head("c", "m").modified_at == self.broker.now

    @pytest.mark.parametrize("keyword", [{"now": 0.0}, {"period": 0}, {"now": 3.0, "period": 2}])
    def test_keywords_that_disagree_are_refused(self, keyword):
        with pytest.raises(ValueError, match="disagree with the clock"):
            self.engine.put("c", "k", b"payload", **keyword)
        assert self.broker.head("c", "k") is None
        with pytest.raises(ValueError, match="disagree with the clock"):
            self.engine.get("c", "k", **keyword)


class TestSnapshotsResume:
    """A snapshot records a reading a restart can resume from."""

    def _restart(self, broker, tmp_path):
        broker.durability.abandon()
        return Scalia(enable_metrics=False, data_dir=str(tmp_path))

    def test_a_snapshot_taken_by_the_period_close_resumes(self, tmp_path):
        broker = Scalia(enable_metrics=False, data_dir=str(tmp_path))
        broker.put("c", "k", b"x" * 100)
        broker.durability.snapshot_every_records = 1  # the close's append snapshots
        broker.tick(2)
        revived = self._restart(broker, tmp_path)
        assert revived.cluster.clock.read() == (2.0, 2)
        revived.close()

    def test_a_snapshot_taken_during_the_round_resumes(self, tmp_path):
        broker = Scalia(enable_metrics=False, data_dir=str(tmp_path), optimizer_batch_size=1)
        for i in range(3):
            broker.put("c", f"k{i}", b"x" * 100)
        broker.tick()
        for i in range(3):  # accessed in period 1: its round visits them
            broker.get("c", f"k{i}")

        def snapshot_then_crash():
            broker.durability.snapshot()
            raise _Crash

        with pytest.raises(_Crash):
            broker.tick(optimizer_yield_fn=snapshot_then_crash)
        assert broker.cluster.clock.read() == (1.0, 1)
        revived = self._restart(broker, tmp_path)
        assert revived.cluster.clock.read() == (1.0, 1)
        revived.tick()
        assert revived.now == revived.period * revived.sampling_period_hours
        revived.close()
