"""Synthetic "real website" traffic (Sections III-A3 and IV-C).

The paper drives its trend-detection figures and the gallery scenario with
the access pattern of a real website: ~2500 visitors/day, 62 % from Europe,
27 % from North America and 6 % from Asia.  We rebuild that shape as the
superposition of three time-zone-shifted diurnal profiles with Poisson
noise — the substitution preserves the burstiness and day/night swing that
drive momentum detection.
"""

from __future__ import annotations

import numpy as np

#: (share of traffic, local peak hour in UTC) per region.  Europe peaks
#: mid-afternoon CET (~14:00 UTC), North America ~20:00 UTC, Asia ~06:00.
REGIONS: tuple[tuple[str, float, float], ...] = (
    ("EU", 0.62, 14.0),
    ("NA", 0.27, 20.0),
    ("APAC", 0.06, 6.0),
    ("other", 0.05, 12.0),
)


def website_daily_profile(
    visitors_per_day: float = 2500.0, night_floor: float = 0.25
) -> np.ndarray:
    """Expected requests per hour over a 24-hour day (UTC).

    Each region contributes a raised-cosine day/night curve centred on its
    peak hour, on top of a ``night_floor`` share of always-on traffic
    (crawlers, feeds, insomniacs — real sites never go fully quiet); the
    total integrates to ``visitors_per_day``.
    """
    if not 0.0 <= night_floor < 1.0:
        raise ValueError("night_floor must be in [0, 1)")
    hours = np.arange(24.0)
    profile = np.zeros(24)
    for _, share, peak in REGIONS:
        # Raised cosine: max at the peak hour, ~0 twelve hours away.
        phase = (hours - peak) * (2 * np.pi / 24.0)
        regional = (1.0 + np.cos(phase)) ** 2
        regional /= regional.sum()
        profile += share * regional
    profile = night_floor / 24.0 + (1.0 - night_floor) * profile
    return visitors_per_day * profile / profile.sum()


def website_read_series(
    periods: int,
    *,
    visitors_per_day: float = 2500.0,
    period_hours: float = 1.0,
    weekend_factor: float = 0.75,
    seed: int = 0,
) -> np.ndarray:
    """Poisson read counts per sampling period following the diurnal shape.

    ``period_hours`` of 1.0 reproduces Figure 8's hourly samples; 24.0
    gives Figure 9's daily samples.  Weekends (days 5-6 of each week) carry
    ``weekend_factor`` of the weekday traffic.
    """
    if periods < 0:
        raise ValueError("periods must be >= 0")
    rng = np.random.default_rng(seed)
    daily = website_daily_profile(visitors_per_day)
    out = np.zeros(periods, dtype=np.int64)
    for t in range(periods):
        start_hour = t * period_hours
        end_hour = (t + 1) * period_hours
        expected = 0.0
        hour = start_hour
        while hour < end_hour - 1e-9:
            step = min(1.0, end_hour - hour)
            day = int(hour // 24)
            hour_of_day = int(hour % 24)
            weight = weekend_factor if day % 7 in (5, 6) else 1.0
            expected += daily[hour_of_day] * step * weight
            hour += step
        out[t] = rng.poisson(expected)
    return out
