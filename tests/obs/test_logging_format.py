"""The structured logger's lines are byte-identical to the plain formatter.

``StructuredLogger.log`` caches the ``HH:MM:SS`` stamp per second, reuses
one JSON encoder and writes plain ints and finite floats with ``repr``;
the reference below is the formatter written without any of that, and
every generated field dict must render the same bytes through both.
"""

import io
import json
import math
import time
import types
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import logging as logging_mod
from repro.obs.logging import LEVELS, LogConfig, StructuredLogger


def _reference_line(fmt, component, level, event, fields, ts):
    fields = dict(fields)
    trace_id = fields.pop("trace_id", None)
    if fmt == "json":
        record = {
            "ts": round(ts, 3),
            "level": level,
            "component": component,
            "event": event,
        }
        if trace_id:
            record["trace_id"] = trace_id
        record.update(fields)
        return json.dumps(record, sort_keys=False, default=str)
    stamp = time.strftime("%H:%M:%S", time.localtime(ts))
    parts = [f"{stamp} {level.upper():<7} {component} {event}"]
    if trace_id:
        parts.append(f"trace_id={trace_id}")
    for key, value in fields.items():
        if isinstance(value, str) and value and " " not in value:
            parts.append(f"{key}={value}")
        else:
            parts.append(f"{key}={json.dumps(value, default=str)}")
    return " ".join(parts)


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1, 1e300])
    | st.text(max_size=12)
    | st.sampled_from(["", " ", "two words", "trace-me-7", 'quo"te', "é\n"])
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    | st.tuples(inner, inner),
    max_leaves=8,
) | st.frozensets(st.integers(), max_size=2)
_keys = st.text(min_size=1, max_size=10).filter(lambda k: k not in ("level", "event"))


@settings(max_examples=300, deadline=None)
@given(
    fmt=st.sampled_from(["text", "json"]),
    level=st.sampled_from(sorted(LEVELS)),
    event=st.sampled_from(["request.complete", "http.access", "x"]),
    fields=st.dictionaries(
        _keys | st.sampled_from(["trace_id", "ts", "component"]), _values, max_size=6
    ),
    ts=st.floats(min_value=0.0, max_value=4e9) | st.sampled_from([1.0, 1.999, 2.0]),
)
def test_lines_match_the_reference_formatter(fmt, level, event, fields, ts):
    stream = io.StringIO()
    logger = StructuredLogger("gateway", LogConfig(fmt=fmt, level="debug", stream=stream))
    clock = types.SimpleNamespace(
        time=lambda: ts, localtime=time.localtime, strftime=time.strftime
    )
    with mock.patch.object(logging_mod, "time", clock):
        logger.log(level, event, **fields)
    expected = _reference_line(fmt, "gateway", level, event, fields, ts)
    assert stream.getvalue() == expected + "\n"


def test_the_stamp_follows_the_second():
    """Two lines a second apart never share a cached stamp."""
    stream = io.StringIO()
    logger = StructuredLogger("gateway", LogConfig(level="info", stream=stream))
    for ts in (1_000_000.2, 1_000_000.9, 1_000_001.0, 999_999.5):
        clock = types.SimpleNamespace(
            time=lambda ts=ts: ts, localtime=time.localtime, strftime=time.strftime
        )
        with mock.patch.object(logging_mod, "time", clock):
            logger.info("tick")
    stamps = [line.split()[0] for line in stream.getvalue().splitlines()]
    assert stamps == [
        time.strftime("%H:%M:%S", time.localtime(ts))
        for ts in (1_000_000.2, 1_000_000.9, 1_000_001.0, 999_999.5)
    ]
