"""BrokerFrontend semantics (single-threaded paths)."""

import pytest

from repro.cluster.engine import InvalidRangeError, ObjectNotFoundError
from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend, FrontendClosedError
from repro.gateway.namespace import NamespaceError


# The one spelling of the keyword that is left; the id keeps the tests'
# names stable across the removal of the lock and queue modes.
@pytest.fixture(params=["direct"])
def frontend(request):
    fe = BrokerFrontend(Scalia(), mode=request.param)
    yield fe
    fe.close()


class TestObjectAPI:
    def test_put_get_roundtrip(self, frontend):
        payload = b"scalia over the wire" * 10
        meta = frontend.put("alice", "photos", "cat.gif", payload, mime="image/gif")
        assert meta.size == len(payload)
        assert frontend.get("alice", "photos", "cat.gif") == payload

    def test_head_and_list(self, frontend):
        frontend.put("alice", "photos", "a.txt", b"a", mime="text/plain")
        frontend.put("alice", "photos", "b.txt", b"b", mime="text/plain")
        meta = frontend.head("alice", "photos", "a.txt")
        assert meta.size == 1 and meta.mime == "text/plain"
        assert frontend.list("alice", "photos") == ["a.txt", "b.txt"]

    def test_delete(self, frontend):
        frontend.put("alice", "photos", "x", b"x")
        frontend.delete("alice", "photos", "x")
        assert frontend.head("alice", "photos", "x") is None
        assert frontend.list("alice", "photos") == []

    def test_tenant_isolation(self, frontend):
        frontend.put("alice", "photos", "cat.gif", b"alice-cat")
        frontend.put("bob", "photos", "cat.gif", b"bob-cat")
        assert frontend.get("alice", "photos", "cat.gif") == b"alice-cat"
        assert frontend.get("bob", "photos", "cat.gif") == b"bob-cat"
        frontend.delete("bob", "photos", "cat.gif")
        assert frontend.get("alice", "photos", "cat.gif") == b"alice-cat"

    def test_missing_object_reports_tenant_name(self, frontend):
        with pytest.raises(ObjectNotFoundError) as err:
            frontend.get("alice", "photos", "nope.gif")
        assert "photos/nope.gif" in str(err.value)
        assert "gw-" not in str(err.value)

    def test_bad_bucket_rejected_before_broker(self, frontend):
        with pytest.raises(NamespaceError):
            frontend.put("alice", "Bad_Bucket", "k", b"v")
        assert frontend.stats()["ops"].get("put", 0) == 0


class TestRangeAcrossAReput:
    """A re-put that lands just before the read resolves the row: the
    range is resolved, refused and described against the version that is
    served, the one the read resolved."""

    @staticmethod
    def _reput_before_open(frontend, monkeypatch, payload):
        real = frontend.broker.open_get
        pending = [payload]

        def open_get(container, key, **kwargs):
            if pending:  # lands before the one resolution of the row
                frontend.put("alice", "photos", "k", pending.pop())
            return real(container, key, **kwargs)

        monkeypatch.setattr(frontend.broker, "open_get", open_get)

    def test_a_range_the_smaller_new_version_refuses_is_a_416_of_its_size(
        self, frontend, monkeypatch
    ):
        frontend.put("alice", "photos", "k", bytes(100))
        self._reput_before_open(frontend, monkeypatch, bytes(40))
        with pytest.raises(InvalidRangeError) as refused:
            frontend.stream_get("alice", "photos", "k", range_spec=(50, 60))
        # Content-Range: bytes */40, not the 100 of the version it replaced.
        assert refused.value.object_size == 40
        # In range of both versions: served from, and described by, the new one.
        frontend.put("alice", "photos", "k", bytes(100))
        self._reput_before_open(frontend, monkeypatch, b"n" * 40)
        plan, blocks = frontend.stream_get("alice", "photos", "k", range_spec=(30, 60))
        assert (plan.meta.size, plan.start, plan.end) == (40, 30, 39)
        assert b"".join(bytes(b) for b in blocks) == b"n" * 10

    def test_a_suffix_range_is_the_larger_new_versions_last_bytes(
        self, frontend, monkeypatch
    ):
        frontend.put("alice", "photos", "k", bytes(100))
        new = bytes(range(140))
        self._reput_before_open(frontend, monkeypatch, new)
        plan, blocks = frontend.stream_get("alice", "photos", "k", range_spec=(None, 10))
        assert (plan.meta.size, plan.start, plan.end) == (140, 130, 139)
        assert b"".join(bytes(b) for b in blocks) == new[-10:]

    def test_a_range_the_validated_version_refuses_is_a_416_of_its_size(self, frontend):
        frontend.put("alice", "photos", "k", bytes(100))
        with pytest.raises(InvalidRangeError) as refused:
            frontend.stream_get("alice", "photos", "k", range_spec=(100, None))
        assert refused.value.object_size == 100


class TestAdminAPI:
    def test_tick_advances_period(self, frontend):
        assert frontend.broker.period == 0
        reports = frontend.tick(3)
        assert len(reports) == 3
        assert frontend.broker.period == 3

    def test_stats_snapshot(self, frontend):
        frontend.put("alice", "photos", "k", b"v")
        frontend.get("alice", "photos", "k")
        stats = frontend.stats()
        assert "mode" not in stats
        assert stats["ops"]["put"] == 1
        assert stats["ops"]["get"] == 1
        assert stats["period"] == 0
        assert set(stats["cost_by_provider"]) == set(stats["providers"])

    def test_error_counter(self, frontend):
        with pytest.raises(ObjectNotFoundError):
            frontend.get("alice", "photos", "missing")
        stats = frontend.stats()
        assert stats["errors"]["get"] == 1
        assert stats["ops"].get("get", 0) == 0


class TestLifecycle:
    def test_closed_frontend_rejects_work(self, frontend):
        frontend.close()
        with pytest.raises(FrontendClosedError):
            frontend.put("alice", "photos", "k", b"v")

    def test_close_is_idempotent(self, frontend):
        frontend.close()
        frontend.close()

    def test_unknown_mode_rejected(self):
        for gone in ("optimistic", "lock", "queue"):
            with pytest.raises(ValueError):
                BrokerFrontend(Scalia(), mode=gone)

    def test_context_manager(self):
        with BrokerFrontend(Scalia()) as fe:
            fe.put("alice", "photos", "k", b"v")
        with pytest.raises(FrontendClosedError):
            fe.get("alice", "photos", "k")
