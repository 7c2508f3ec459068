"""Per-request traces carried across threads via :mod:`contextvars`.

The gateway mints a :class:`Trace` per HTTP request (honouring an
inbound ``X-Request-Id``) and installs it in a context variable.  Code
anywhere below — engine, locks, providers — records *phase* timings
against whatever trace is current, without threading a handle through
every signature:

    with span("provider_fetch"):
        chunk = provider.get_chunk(key)

Phases aggregate by name (three chunk fetches sum into one
``provider_fetch`` figure) while the raw spans are kept, capped, for
the slow-request dump (``--trace-slow-ms``).

Context variables don't cross raw ``threading.Thread`` boundaries by
themselves; :func:`wrap_for_thread` snapshots the caller's context so
hedged-fetch workers report into the request that spawned them.  A
recording trace is therefore mutated from several threads at once —
:meth:`Trace.add_span` takes the trace's own mutex.

Background work (control-plane ticks, scrub passes) mints its *own*
trace per run, so its log lines never masquerade as request work.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_TRACE: contextvars.ContextVar[Optional["Trace"]] = contextvars.ContextVar(
    "scalia_trace", default=None
)

#: Spans kept per trace before dropping (phases keep aggregating).
_MAX_SPANS = 512


def new_trace_id() -> str:
    """16 random hex characters."""
    return os.urandom(8).hex()


class Trace:
    """One unit of attributable work: a request, a tick, a scrub pass."""

    __slots__ = ("trace_id", "started_at", "_t0", "_lock", "_phases", "_spans",
                 "dropped_spans", "_token")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._phases: Dict[str, float] = {}
        self._spans: List[dict] = []
        self.dropped_spans = 0
        self._token: Optional[contextvars.Token] = None

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def add_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self._phases[name] = self._phases.get(name, 0.0) + seconds

    def add_span(self, name: str, start_offset: float, seconds: float) -> None:
        thread = threading.current_thread().name
        with self._lock:
            self._phases[name] = self._phases.get(name, 0.0) + seconds
            if len(self._spans) < _MAX_SPANS:
                self._spans.append(
                    {
                        "name": name,
                        "start_ms": round(start_offset * 1000.0, 3),
                        "duration_ms": round(seconds * 1000.0, 3),
                        "thread": thread,
                    }
                )
            else:
                self.dropped_spans += 1

    def phases_ms(self) -> Dict[str, float]:
        """Aggregated per-phase wall time, in milliseconds, name-sorted."""
        with self._lock:
            return {
                name: round(total * 1000.0, 3)
                for name, total in sorted(self._phases.items())
            }

    def spans(self) -> List[dict]:
        with self._lock:
            return list(self._spans)


def start_trace(trace_id: Optional[str] = None) -> Trace:
    """Create a trace and install it as the current one."""
    trace = Trace(trace_id)
    trace._token = _TRACE.set(trace)
    return trace


def end_trace(trace: Trace) -> None:
    """Uninstall ``trace`` (restores whatever was current before)."""
    if trace._token is not None:
        try:
            _TRACE.reset(trace._token)
        except ValueError:
            # Token from another context (e.g. trace ended in a different
            # thread than it started); just clear.
            _TRACE.set(None)
        trace._token = None


def current_trace() -> Optional[Trace]:
    return _TRACE.get()


def current_trace_id() -> Optional[str]:
    trace = _TRACE.get()
    return trace.trace_id if trace is not None else None


@contextmanager
def span(name: str):
    """Time a block against the current trace; free when none is active."""
    trace = _TRACE.get()
    if trace is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        now = time.perf_counter()
        trace.add_span(name, start - trace._t0, now - start)


def add_phase(name: str, seconds: float) -> None:
    """Record ``seconds`` against phase ``name`` of the current trace.

    For call sites that already hold the timing (e.g. a lock acquire
    that measured its own wait) — cheaper than a :func:`span`.
    """
    trace = _TRACE.get()
    if trace is not None:
        trace.add_phase(name, seconds)


def record_span(name: str, start_perf: float, duration: float) -> None:
    """Attach an already-timed span (``time.perf_counter()`` start) to
    the current trace; free when none is active."""
    trace = _TRACE.get()
    if trace is not None:
        trace.add_span(name, start_perf - trace._t0, duration)


def wrap_for_thread(fn: Callable) -> Callable:
    """Bind ``fn`` to the *caller's* context so a worker thread inherits
    the current trace (hedged fetches report into their request)."""
    ctx = contextvars.copy_context()

    def runner(*args, **kwargs):
        return ctx.run(fn, *args, **kwargs)

    return runner
