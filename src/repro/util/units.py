"""Unit conventions used across the reproduction.

The paper prices resources in USD per GB (storage per month, bandwidth per
transferred GB) and USD per 1000 requests.  We fix:

* ``GB`` = 10**9 bytes (decimal gigabyte, the billing convention of the
  providers in the paper's Table 3),
* a month = 730 hours (the standard SLA month: 8760 h / 12), so that hourly
  sampling periods convert to storage-month fractions.

Durations typed by an operator (``--slo``, ``--fault``, ``?window=``)
share one grammar, :func:`parse_duration`.
"""

from __future__ import annotations

KB: int = 10**3
MB: int = 10**6
GB: int = 10**9

#: Hours in a billing month (8760 hours per year / 12 months).
HOURS_PER_MONTH: float = 730.0


def bytes_to_gb(n_bytes: float) -> float:
    """Convert a byte count to (decimal) gigabytes."""
    return n_bytes / GB


def gb_to_bytes(n_gb: float) -> float:
    """Convert (decimal) gigabytes to bytes."""
    return n_gb * GB


#: Milliseconds per unit of the duration grammar; ``ms`` is tried before
#: ``s`` and ``m``, which it ends and starts with.
_DURATION_MS = {"ms": 1.0, "s": 1000.0, "m": 60_000.0, "h": 3_600_000.0}


def parse_duration(text: str, unit: str = "s") -> float:
    """A duration (``500ms``, ``0.25s``, ``5m``, ``2h``) in ``unit``.

    A bare number is already in ``unit``.  Raises :class:`ValueError`
    for anything else; the sign and range are the caller's to check.
    """
    raw = text.strip().lower()
    factor = 1.0
    for suffix, scale in _DURATION_MS.items():
        if raw.endswith(suffix):
            raw, factor = raw[: -len(suffix)], scale / _DURATION_MS[unit]
            break
    try:
        return float(raw) * factor
    except ValueError:
        raise ValueError(f"malformed duration {text!r}") from None
