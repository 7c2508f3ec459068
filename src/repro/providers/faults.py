"""Deterministic partial-fault injection for simulated providers.

The binary ``failed`` switch models a total outage, but most real
multi-cloud pain is *partial*: elevated transient error rates, latency
spikes, providers that are slow-but-alive, and links that flap.  A
:class:`FaultProfile` attaches that behaviour to one provider: every
operation draws a latency (base + seeded jitter, multiplied while slow
mode is on) and may raise a transient :class:`ProviderFaultError`, and an
optional :class:`FlapSchedule` cycles the provider through deterministic
down windows counted in operations.

Everything is seeded and replayable: the same profile driven through the
same operation sequence produces byte-identical faults, which is what
lets the chaos suite shrink failures and re-run them from a printed seed.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Optional

from repro.providers.provider import ProviderFaultError
from repro.util.units import parse_duration

__all__ = [
    "FaultDecision",
    "FaultProfile",
    "FlapSchedule",
    "ProviderFaultError",  # defined in provider.py (import-cycle-free home)
    "parse_fault_spec",
    "profile_from_dict",
]


@dataclass(frozen=True)
class FlapSchedule:
    """Deterministic up/down cycle counted in operations.

    The provider serves ``up_ops`` operations, then rejects the next
    ``down_ops`` with a transient fault, and repeats.  ``phase`` shifts
    where in the cycle the schedule starts.  Counting operations (not
    wall time) keeps chaos runs reproducible regardless of machine speed.
    """

    up_ops: int
    down_ops: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.up_ops < 0 or self.down_ops < 1:
            raise ValueError("flap schedule needs up_ops >= 0 and down_ops >= 1")

    def is_down(self, op_index: int) -> bool:
        cycle = self.up_ops + self.down_ops
        return (op_index + self.phase) % cycle >= self.up_ops


@dataclass(frozen=True)
class FaultDecision:
    """What one operation should suffer: a delay, then maybe a fault.

    ``corrupt_seed`` is drawn only for ``put`` operations on profiles
    with a nonzero ``corrupt_rate``: a non-``None`` value instructs the
    provider to flip one seeded bit in the stored bytes — silent
    tampering the writer never sees fail.
    """

    latency_s: float = 0.0
    fault: Optional[str] = None  # None | "error" | "flap"
    corrupt_seed: Optional[int] = None


class FaultProfile:
    """A provider's quality-degradation knob set (seeded, thread-safe).

    Parameters
    ----------
    latency_s / jitter_s:
        Every operation sleeps ``latency_s`` plus a uniform draw from
        ``[0, jitter_s)``.
    error_rate:
        Probability in [0, 1] that an operation raises a transient
        :class:`ProviderFaultError` (after its latency — a timeout, not a
        fast reject).
    corrupt_rate:
        Probability in [0, 1] that a *put* silently stores tampered
        bytes (one seeded bit-flip).  The write still succeeds from the
        client's view; only a Merkle audit or a scrub catches it.
    slow_multiplier:
        Latency multiplier applied while :attr:`slow` is on (a provider
        that degrades without erroring).
    flap:
        Optional :class:`FlapSchedule` of deterministic down windows.
    seed:
        Seeds the private RNG that draws jitter and errors.

    Draws consume one private ``random.Random(seed)`` stream under a
    mutex, indexed by an operation counter, so a profile replayed through
    the same per-provider operation sequence reproduces exactly — even
    when other providers' profiles are driven concurrently.
    """

    def __init__(
        self,
        *,
        latency_s: float = 0.0,
        jitter_s: float = 0.0,
        error_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        slow_multiplier: float = 1.0,
        slow: bool = False,
        flap: Optional[FlapSchedule] = None,
        seed: int = 0,
    ) -> None:
        if latency_s < 0 or jitter_s < 0:
            raise ValueError("latencies must be >= 0")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be in [0, 1]")
        if slow_multiplier < 1.0:
            raise ValueError("slow_multiplier must be >= 1")
        self.latency_s = latency_s
        self.jitter_s = jitter_s
        self.error_rate = error_rate
        self.corrupt_rate = corrupt_rate
        self.slow_multiplier = slow_multiplier
        self.slow = slow
        self.flap = flap
        self.seed = seed
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._ops = 0

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Rewind the RNG and the operation counter (replay support)."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self._ops = 0

    def set_slow(self, slow: bool) -> None:
        """Toggle slow mode at runtime (latency ×= slow_multiplier)."""
        self.slow = bool(slow)

    # -- the draw ----------------------------------------------------------

    def draw(self, kind: str) -> FaultDecision:
        """Decide one operation's fate; advances the deterministic stream.

        ``kind`` is the operation kind (``get``/``put``/...) — recorded
        for the message only; all kinds share one latency distribution,
        matching how a sick endpoint degrades every verb at once.
        """
        with self._lock:
            op_index = self._ops
            self._ops += 1
            jitter = self._rng.uniform(0.0, self.jitter_s) if self.jitter_s else 0.0
            errored = (
                self._rng.random() < self.error_rate if self.error_rate else False
            )
            # The corrupt draw is gated on the rate *and* the kind so
            # profiles without it (and non-put traffic) keep their
            # historical RNG stream byte-for-byte.
            corrupt_seed: Optional[int] = None
            if self.corrupt_rate and kind == "put":
                if self._rng.random() < self.corrupt_rate:
                    corrupt_seed = self._rng.getrandbits(32)
        latency = self.latency_s + jitter
        if self.slow:
            latency *= self.slow_multiplier
        fault: Optional[str] = None
        if self.flap is not None and self.flap.is_down(op_index):
            fault = "flap"
        elif errored:
            fault = "error"
        return FaultDecision(
            latency_s=latency, fault=fault, corrupt_seed=corrupt_seed
        )

    @property
    def ops_drawn(self) -> int:
        """How many operations have consumed the stream (test hook)."""
        with self._lock:
            return self._ops

    # -- description -------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready summary for ``/stats`` and ``repro status``."""
        out = {
            "latency_ms": round(self.latency_s * 1000.0, 3),
            "jitter_ms": round(self.jitter_s * 1000.0, 3),
            "error_rate": self.error_rate,
            "corrupt_rate": self.corrupt_rate,
            "slow_multiplier": self.slow_multiplier,
            "slow": self.slow,
            "seed": self.seed,
        }
        if self.flap is not None:
            out["flap"] = {
                "up_ops": self.flap.up_ops,
                "down_ops": self.flap.down_ops,
                "phase": self.flap.phase,
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover — debugging nicety
        return f"FaultProfile({self.describe()})"


def parse_fault_spec(spec: str) -> FaultProfile:
    """Build a profile from a compact CLI/HTTP spec string.

    Comma-separated ``key=value`` pairs::

        latency=500ms,jitter=50ms,error=0.05,corrupt=0.01,slow=4,seed=7,flap=20/5

    Keys: ``latency``/``jitter`` (seconds, or with a unit:
    :func:`~repro.util.units.parse_duration`),
    ``error`` (rate in [0,1]), ``corrupt`` (silent put-tamper rate in
    [0,1]), ``slow`` (multiplier; implies slow mode on), ``flap``
    (``UP/DOWN`` operation counts), ``seed``.
    """
    kwargs: dict = {}
    spec = spec.strip()
    if not spec:
        raise ValueError("empty fault spec")
    for pair in spec.split(","):
        key, eq, value = pair.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not value:
            raise ValueError(f"malformed fault spec element {pair!r}")
        if key == "latency":
            kwargs["latency_s"] = parse_duration(value)
        elif key == "jitter":
            kwargs["jitter_s"] = parse_duration(value)
        elif key == "error":
            kwargs["error_rate"] = float(value)
        elif key == "corrupt":
            kwargs["corrupt_rate"] = float(value)
        elif key == "slow":
            kwargs["slow_multiplier"] = float(value)
            kwargs["slow"] = True
        elif key == "seed":
            kwargs["seed"] = int(value)
        elif key == "flap":
            up, slash, down = value.partition("/")
            if not slash:
                raise ValueError("flap wants UP/DOWN operation counts")
            kwargs["flap"] = FlapSchedule(up_ops=int(up), down_ops=int(down))
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    return FaultProfile(**kwargs)


def profile_from_dict(doc: dict) -> FaultProfile:
    """Build a profile from the JSON form the gateway's ``POST /faults``
    accepts (the inverse of :meth:`FaultProfile.describe`)."""
    flap = None
    flap_doc = doc.get("flap")
    if flap_doc:
        missing = [name for name in ("up_ops", "down_ops") if name not in flap_doc]
        if missing:
            raise ValueError(f"flap needs {' and '.join(missing)}")
        flap = FlapSchedule(
            up_ops=int(flap_doc["up_ops"]),
            down_ops=int(flap_doc["down_ops"]),
            phase=int(flap_doc.get("phase", 0)),
        )
    return FaultProfile(
        latency_s=float(doc.get("latency_ms", 0.0)) / 1000.0,
        jitter_s=float(doc.get("jitter_ms", 0.0)) / 1000.0,
        error_rate=float(doc.get("error_rate", 0.0)),
        corrupt_rate=float(doc.get("corrupt_rate", 0.0)),
        slow_multiplier=float(doc.get("slow_multiplier", 1.0)),
        slow=bool(doc.get("slow", False)),
        flap=flap,
        seed=int(doc.get("seed", 0)),
    )
