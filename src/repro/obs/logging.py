"""Structured logging: one event per line, JSON or human-readable text.

Deliberately tiny instead of wrapping :mod:`logging`: the broker needs
exactly one sink (stderr by default, injectable for tests), levelled
filtering, and machine-parseable lines — not handlers, propagation or
per-module hierarchies.  Every event is stamped with the current trace
id (when one is active) so ``grep trace_id=...`` reconstructs a
request's path through gateway, engine and background threads.

JSON lines look like::

    {"ts": 1754500000.123, "level": "info", "component": "gateway",
     "event": "request.complete", "trace_id": "ab12...", "route": "object",
     "status": 200, "duration_ms": 12.3, "phases": {...}}

Text lines carry the same fields as ``key=value`` pairs after a fixed
``TIME LEVEL component event`` prefix.  Values are JSON-encoded either
way, so the CI log-lint can parse both formats.

``configure_logging()`` mutates the process-wide default config (the
CLI calls it from ``--log-format``/``--log-level``); components that
need isolation (tests, embedded gateways) construct their own
:class:`LogConfig` and pass a bound :class:`StructuredLogger` down.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from typing import Optional, TextIO

from repro.obs.trace import current_trace_id

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: The padded level column of a text line.
_LEVEL_LABELS = {level: f"{level.upper():<7}" for level in LEVELS}

#: ``json.dumps(value, default=str)`` without building an encoder per call.
_encode = json.JSONEncoder(default=str).encode

_INF = float("inf")


def _json_text(value) -> str:
    """``json.dumps(value, default=str)``, as ``repr`` for a plain int or
    finite float (which is what JSON writes for them)."""
    kind = type(value)
    if kind is int or (kind is float and -_INF < value < _INF):
        return repr(value)
    return _encode(value)


class LogConfig:
    """Shared sink + format + threshold for a set of loggers."""

    def __init__(
        self,
        fmt: str = "text",
        level: str = "info",
        stream: Optional[TextIO] = None,
    ) -> None:
        if fmt not in ("text", "json"):
            raise ValueError(f"unknown log format {fmt!r}")
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        self.fmt = fmt
        self.level = level
        self.stream = stream
        self._lock = threading.Lock()
        # ``(second, "HH:MM:SS")`` of the last text line; a race only
        # renders the same stamp twice.
        self._stamp = (-1, "")

    @property
    def threshold(self) -> int:
        return LEVELS[self.level]

    def clock_stamp(self, ts: float) -> str:
        """``HH:MM:SS`` local time of ``ts``, rendered once a second."""
        second = int(ts)
        cached, stamp = self._stamp
        if cached != second:
            stamp = time.strftime("%H:%M:%S", time.localtime(ts))
            self._stamp = (second, stamp)
        return stamp

    def _sink(self) -> TextIO:
        return self.stream if self.stream is not None else sys.stderr

    def emit(self, line: str) -> None:
        with self._lock:
            sink = self._sink()
            try:
                sink.write(line + "\n")
                sink.flush()
            except (ValueError, OSError, io.UnsupportedOperation):
                pass  # closed stream during shutdown — drop, never raise


#: Process-wide default config; ``get_logger`` binds to this object, and
#: ``configure_logging`` mutates it in place so existing loggers follow.
_DEFAULT_CONFIG = LogConfig()


def configure_logging(
    fmt: Optional[str] = None,
    level: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> LogConfig:
    """Adjust the process-wide default log config; returns it."""
    if fmt is not None:
        if fmt not in ("text", "json"):
            raise ValueError(f"unknown log format {fmt!r}")
        _DEFAULT_CONFIG.fmt = fmt
    if level is not None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        _DEFAULT_CONFIG.level = level
    if stream is not None:
        _DEFAULT_CONFIG.stream = stream
    return _DEFAULT_CONFIG


class StructuredLogger:
    """A component-bound emitter of structured events."""

    def __init__(self, component: str, config: Optional[LogConfig] = None) -> None:
        self.component = component
        self.config = config if config is not None else _DEFAULT_CONFIG

    def enabled_for(self, level: str) -> bool:
        return LEVELS.get(level, 0) >= self.config.threshold

    def log(self, level: str, event: str, **fields) -> None:
        if not self.enabled_for(level):
            return
        ts = time.time()
        trace_id = fields.pop("trace_id", None) or current_trace_id()
        if self.config.fmt == "json":
            record = {
                "ts": round(ts, 3),
                "level": level,
                "component": self.component,
                "event": event,
            }
            if trace_id:
                record["trace_id"] = trace_id
            record.update(fields)
            line = _encode(record)
        else:
            label = _LEVEL_LABELS[level]  # enabled_for passed: a known level
            parts = [f"{self.config.clock_stamp(ts)} {label} {self.component} {event}"]
            if trace_id:
                parts.append(f"trace_id={trace_id}")
            for key, value in fields.items():
                if isinstance(value, str) and value and " " not in value:
                    parts.append(f"{key}={value}")
                else:
                    parts.append(f"{key}={_json_text(value)}")
            line = " ".join(parts)
        self.config.emit(line)

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


def get_logger(component: str) -> StructuredLogger:
    """A logger bound to the process-wide default config."""
    return StructuredLogger(component)
