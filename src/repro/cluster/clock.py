"""The broker's one simulated clock (Section III, Figure 7).

Scalia's loop runs on sampling periods: ``Scalia.tick`` closes one, and
every log record, placement and row timestamp belongs to the period that
is open when it is made.  A :class:`Clock` holds that time as one
``(now, period)`` pair — ``now`` in simulated hours, ``period`` the index
of the open sampling period — replaced whole, so no reader sees one half
advanced without the other.  A cluster's engines share one clock; the
broker's tick (and recovery) sets it, and every operation reads it when
it runs.
"""

from __future__ import annotations

from typing import Tuple


class Clock:
    """Simulated ``(now, period)``, read and set as one pair."""

    __slots__ = ("_reading",)

    def __init__(self) -> None:
        self._reading: Tuple[float, int] = (0.0, 0)

    def read(self) -> Tuple[float, int]:
        """``(now, period)``, from one reading."""
        return self._reading

    @property
    def now(self) -> float:
        """Simulated wall time in hours."""
        return self._reading[0]

    @property
    def period(self) -> int:
        """Index of the open sampling period."""
        return self._reading[1]

    def set(self, now: float, period: int) -> None:
        """Move to ``(now, period)`` (a tick's advance, or a recovered reading)."""
        self._reading = (float(now), int(period))
