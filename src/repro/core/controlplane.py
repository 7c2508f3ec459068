"""The background control plane: tick, scrub and audit as real-time workers.

The paper's architecture (Section III-C) runs the adaptive optimization
loop in the background on an elected leader *while* the engines keep
serving clients.  Simulations drive that loop explicitly through
:meth:`Scalia.tick`; a long-running deployment (``repro serve``) wants it
driven by wall-clock time instead.  :class:`BackgroundControlPlane` owns
three daemon threads:

* a **ticker** that closes one sampling period every ``tick_interval``
  seconds — flushing statistics, refreshing class profiles and running
  the batched optimization round;
* a **scrubber** that runs one full integrity pass (verify + repair +
  orphan sweep) every ``scrub_interval`` seconds;
* an **auditor** that runs one challenge-response possession sweep
  (sampled Merkle proofs, O(log) bytes per chunk) every
  ``audit_interval`` seconds — the cheap continuous check between the
  scrubber's expensive full reads.

All reuse the broker's incremental workers, so every batch of row keys
is claimed under the cluster's striped object locks and the foreground
request path is stalled for at most one object at a time (the bounded
stall contract of docs/CONCURRENCY.md).  Between batches the workers
call a yield hook that also observes the stop flag, which is why
:meth:`stop` interrupts even a long round promptly at the next batch
boundary.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.logging import get_logger
from repro.obs.trace import end_trace, start_trace

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.core.broker import Scalia


class ControlPlaneStopped(Exception):
    """Internal signal: the worker observed the stop flag mid-round."""


#: worker -> (thread name, one round given the between-batches hook,
#: what the round's debug line reports of its result).  The hook rides
#: that one call only — a concurrent manual round (gateway POST /tick)
#: must never inherit our stop probe.
_WORKERS = {
    "tick": (
        "scalia-ticker",
        lambda broker, hook: broker.tick(optimizer_yield_fn=hook),
        lambda broker, _reports: {"period": broker.period},
    ),
    "scrub": (
        "scalia-scrubber",
        lambda broker, hook: broker.scrubber.scrub(repair=True, yield_fn=hook),
        lambda _broker, report: {
            "objects": report.objects_scanned,
            "repaired": report.repaired,
        },
    ),
    "audit": (
        "scalia-auditor",
        lambda broker, hook: broker.auditor.audit(repair=True, yield_fn=hook),
        lambda _broker, report: {
            "objects": report.objects_audited,
            "proofs_failed": report.proofs_failed,
            "repaired": report.repaired,
        },
    ),
}


class BackgroundControlPlane:
    """Runs the broker's periodic work on daemon threads.

    ``tick_interval`` / ``scrub_interval`` / ``audit_interval`` are
    seconds of wall time; ``None`` disables the respective worker.
    Exceptions from a round are recorded (``last_tick_error`` /
    ``last_scrub_error`` / ``last_audit_error``) and the worker keeps
    going — a transient provider outage must not silence the control
    plane forever.
    """

    def __init__(
        self,
        broker: "Scalia",
        *,
        tick_interval: Optional[float] = None,
        scrub_interval: Optional[float] = None,
        audit_interval: Optional[float] = None,
        gate: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.broker = broker
        self.tick_interval = tick_interval
        self.scrub_interval = scrub_interval
        self.audit_interval = audit_interval
        for name in _WORKERS:
            interval = self._interval(name)
            if interval is not None and interval <= 0:
                raise ValueError(f"{name}_interval must be > 0 seconds")
        # In cluster mode the elected leader owns the periodic work
        # (Section III-C): the gate is checked before each round, so a
        # node that loses leadership skips its rounds without restarting
        # the workers, and a newly elected one picks them up.
        self._gate = gate
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.ticks_run = 0
        self.scrubs_run = 0
        self.audits_run = 0
        self.last_tick_error: Optional[BaseException] = None
        self.last_scrub_error: Optional[BaseException] = None
        self.last_audit_error: Optional[BaseException] = None
        self._log = get_logger("controlplane")
        metrics = getattr(broker, "metrics", None)
        self._m_runs = None
        if metrics is not None and metrics.enabled:
            self._m_runs = metrics.counter(
                "scalia_controlplane_runs_total",
                "Completed background rounds, by worker.",
                ("worker",),
            )
            self._m_run_seconds = metrics.histogram(
                "scalia_controlplane_run_seconds",
                "Wall time of one background round, by worker.",
                ("worker",),
            )

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    def start(self) -> "BackgroundControlPlane":
        if self.running:
            raise RuntimeError("control plane already started")
        self._stop.clear()
        self._threads = [
            threading.Thread(
                target=self._loop,
                args=(self._interval(name), name),
                name=thread_name,
                daemon=True,
            )
            for name, (thread_name, _run, _describe) in _WORKERS.items()
            if self._interval(name) is not None
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal every worker and join them.

        A worker mid-round exits at its next batch boundary (the yield
        hook raises), so stop latency is bounded by one batch, not one
        round.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "BackgroundControlPlane":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- workers -----------------------------------------------------------

    def _yield_hook(self) -> None:
        """Between-batches hook: bail out promptly when stopping."""
        if self._stop.is_set():
            raise ControlPlaneStopped

    def _interval(self, name: str) -> Optional[float]:
        return getattr(self, f"{name}_interval")

    def _loop(self, interval: float, name: str) -> None:
        while not self._stop.wait(interval):
            if self._gate is None or self._gate():
                self._round(name)

    def _tick_once(self) -> None:
        self._round("tick")

    def _round(self, name: str) -> None:
        """One round of worker ``name``: counted, timed, logged, survived."""
        _thread_name, run, describe = _WORKERS[name]
        # Background rounds mint their own trace: their lock waits and
        # provider calls must never attribute to some client request.
        trace = start_trace()
        started = time.perf_counter()
        try:
            result = run(self.broker, self._yield_hook)
            setattr(self, f"{name}s_run", getattr(self, f"{name}s_run") + 1)
            setattr(self, f"last_{name}_error", None)
            self._observe(name, started)
            self._log.debug(
                f"controlplane.{name}",
                **describe(self.broker, result),
                duration_ms=round((time.perf_counter() - started) * 1000.0, 3),
                phases=trace.phases_ms(),
            )
        except ControlPlaneStopped:
            pass
        except Exception as exc:  # noqa: BLE001 — worker must survive
            setattr(self, f"last_{name}_error", exc)
            self._log.warning(f"controlplane.{name}_error", error=repr(exc))
        finally:
            end_trace(trace)

    def _observe(self, worker: str, started: float) -> None:
        if self._m_runs is not None:
            self._m_runs.labels(worker).inc()
            self._m_run_seconds.labels(worker).observe(
                time.perf_counter() - started
            )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        out: dict = {"running": self.running}
        for name in _WORKERS:
            out[f"{name}_interval_s"] = self._interval(name)
        for name in _WORKERS:
            out[f"{name}s_run"] = getattr(self, f"{name}s_run")
        for name in _WORKERS:
            error = getattr(self, f"last_{name}_error")
            out[f"last_{name}_error"] = repr(error) if error else None
        return out
