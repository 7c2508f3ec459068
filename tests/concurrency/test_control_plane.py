"""The background control plane: tick/scrub workers on wall-clock time."""

import time

import pytest

from repro.core.broker import Scalia
from repro.core.controlplane import BackgroundControlPlane


def _wait_until(predicate, timeout=15.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestBackgroundControlPlane:
    def test_ticker_advances_periods_while_serving(self):
        broker = Scalia()
        broker.put("bg", "obj", b"hello world")
        with BackgroundControlPlane(broker, tick_interval=0.02) as plane:
            assert _wait_until(lambda: plane.ticks_run >= 3)
            # Foreground traffic flows while the loop runs in the back.
            for i in range(20):
                broker.put("bg", f"k{i}", b"x" * 32)
                assert broker.get("bg", f"k{i}") == b"x" * 32
        assert not plane.running
        assert broker.period >= 3
        assert plane.last_tick_error is None

    def test_scrubber_runs_and_reports(self):
        broker = Scalia()
        for i in range(10):
            broker.put("bg", f"s{i}", b"payload" * 4)
        with BackgroundControlPlane(broker, scrub_interval=0.02) as plane:
            assert _wait_until(lambda: plane.scrubs_run >= 2)
        assert broker.scrubber.last_report is not None
        assert broker.scrubber.last_report.chunks_corrupt == 0
        assert plane.last_scrub_error is None

    def test_auditor_runs_and_reports(self):
        broker = Scalia()
        for i in range(10):
            broker.put("bg", f"a{i}", b"payload" * 4)
        with BackgroundControlPlane(broker, audit_interval=0.02) as plane:
            assert _wait_until(lambda: plane.audits_run >= 2)
        report = broker.auditor.last_report
        assert report is not None
        assert report.objects_audited == 10
        assert report.proofs_failed == 0 and report.proofs_ok == report.chunks_audited
        assert plane.last_audit_error is None
        assert plane.stats()["audits_run"] == plane.audits_run

    @pytest.mark.parametrize("worker", ["tick", "scrub", "audit"])
    def test_each_worker_stops_promptly_mid_round(self, worker):
        """One-object batches and a near-zero interval keep the worker
        inside a round almost all the time; stop() must still return at
        the next batch boundary, and the abandoned round is no error."""
        broker = Scalia(
            optimizer_batch_size=1, scrub_batch_size=1, audit_batch_size=1
        )
        for i in range(60):
            broker.put("bg", f"k{i}", b"x" * 64)
        plane = BackgroundControlPlane(
            broker, **{f"{worker}_interval": 0.001}
        ).start()
        assert _wait_until(lambda: getattr(plane, f"{worker}s_run") >= 1)
        started = time.monotonic()
        plane.stop()
        assert time.monotonic() - started < 5.0
        assert not plane.running
        assert getattr(plane, f"last_{worker}_error") is None
        assert broker.now == broker.period * broker.sampling_period_hours

    def test_stop_is_prompt_even_mid_round(self):
        broker = Scalia(optimizer_batch_size=1)
        for i in range(50):
            broker.put("bg", f"k{i}", 256)
        plane = BackgroundControlPlane(broker, tick_interval=0.01).start()
        assert _wait_until(lambda: plane.ticks_run >= 1)
        started = time.monotonic()
        plane.stop()
        assert time.monotonic() - started < 10.0
        assert not plane.running
        # A round aborted at a batch boundary must not skew the clock:
        # now and period always advance together.
        assert broker.now == broker.period * broker.sampling_period_hours

    def test_double_start_rejected(self):
        plane = BackgroundControlPlane(Scalia(), tick_interval=5.0).start()
        try:
            with pytest.raises(RuntimeError):
                plane.start()
        finally:
            plane.stop()

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            BackgroundControlPlane(Scalia(), tick_interval=0)
        with pytest.raises(ValueError):
            BackgroundControlPlane(Scalia(), scrub_interval=-1)

    def test_stats_shape(self):
        plane = BackgroundControlPlane(Scalia(), tick_interval=1.0)
        stats = plane.stats()
        assert stats["running"] is False
        assert stats["tick_interval_s"] == 1.0
        assert stats["ticks_run"] == 0
