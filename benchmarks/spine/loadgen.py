"""Seeded, byte-verifying, closed-loop load generator.

Drives ``GatewayClient``'s public API only.  A closed loop: each client
sends its next request when the previous one has been answered, so a slow
server receives less load (the c1 phase is one such client, c2 is two).
Every response is checked against bytes regenerated from the seed; a
failure, refusal or mismatch is counted and never raised, so one bad
request cannot hide the rest of the run.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.gateway.client import GatewayClient, GatewayError

from mixes import BUCKET, MIME, TENANT, Mix, Op, Payloads

#: What a request may raise without being a bug in the generator.
REQUEST_ERRORS = (GatewayError, OSError, http.client.HTTPException, ValueError, KeyError)

KINDS = ("get", "range", "put", "mpu")


# -- sample maths -----------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of sorted samples."""
    if not sorted_values:
        raise ValueError("no samples")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (len(sorted_values) - 1) * q / 100.0
    below = int(rank)
    above = min(below + 1, len(sorted_values) - 1)
    return sorted_values[below] + (sorted_values[above] - sorted_values[below]) * (rank - below)


def highest_supported_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least ``beyond`` samples above it.

    ``None`` when even the median is not supported (fewer than ``2 *
    beyond`` samples): a tail read off a handful of samples is noise.
    """
    if count < 2 * beyond:
        return None
    return 100.0 * (count - beyond) / count


def multipart_etag(parts: Sequence[bytes]) -> str:
    """The S3 convention the gateway answers with: ``md5(part digests)-N``."""
    joined = b"".join(hashlib.md5(part).digest() for part in parts)
    return f"{hashlib.md5(joined).hexdigest()}-{len(parts)}"


# -- what the clients know about the store ----------------------------------


class KeyVersions:
    """Acknowledged and started version of every key, shared by the clients.

    One client at a time touches a key: the broker, as documented, lets a
    read that races an overwrite of the same key fail (503 from a worker,
    an aborted stream for a multi-stripe object), and the benchmark must
    drive workloads on which nothing fails.  Distinct keys stay fully
    concurrent.  A read is correct if it returns any version from the one
    last acknowledged to the one last started: the two differ only after
    a write whose outcome the client never learned (an error, the crash).
    """

    def __init__(self, keys: Iterable[str]) -> None:
        self._lock = threading.Lock()
        self._acked: Dict[str, int] = {}
        self._started: Dict[str, int] = {}
        self._key_locks = {key: threading.Lock() for key in keys}

    def key_lock(self, key: str) -> threading.Lock:
        return self._key_locks[key]

    def begin_write(self, key: str) -> int:
        with self._lock:
            version = self._started.get(key, 0) + 1
            self._started[key] = version
            return version

    def ack_write(self, key: str, version: int) -> None:
        with self._lock:
            self._acked[key] = version

    def acked(self, key: str) -> int:
        with self._lock:
            return self._acked.get(key, 0)

    def started(self, key: str) -> int:
        with self._lock:
            return self._started.get(key, 0)


class Window:
    """What one client measured over a stretch of whole blocks."""

    def __init__(self) -> None:
        self.latency_ns: Dict[str, List[int]] = {kind: [] for kind in KINDS}
        self.attempted = 0
        self.failed = 0
        self.user_bytes = 0  # request + response object bytes, successful ops
        self.failures: List[str] = []
        self.wall_s = 0.0
        self.server_cpu_s = 0.0  # filled when the phase was given a CPU probe

    def ok(self, kind: str, elapsed_ns: int, n_bytes: int) -> None:
        self.attempted += 1
        self.latency_ns[kind].append(elapsed_ns)
        self.user_bytes += n_bytes

    def fail(self, op: Op, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.kind} {op.key}: {why}")


def quiet_half(windows: Sequence[Window]) -> List[Window]:
    """The faster half of a client's windows, by wall time per op.

    Every window of a phase holds the same mix of ops (whole blocks; the
    last one may hold fewer of them), so its wall time per op is a probe
    of how fast host and server were just then.  The host
    this runs on slows down for seconds at a time on its own; statistics
    over the quieter half of a run repeat far better than over all of it,
    and a real regression slows the quiet half just the same.
    """
    ranked = sorted(windows, key=lambda window: window.wall_s / max(1, window.attempted))
    return ranked[: (len(ranked) + 1) // 2]


class Phase:
    """The windows of every client of one phase, plus their totals."""

    def __init__(self, clients: int) -> None:
        self.windows: List[List[Window]] = [[] for _ in range(clients)]
        self.wall_s = 0.0

    def every_window(self) -> List[Window]:
        return [window for client in self.windows for window in client]

    @property
    def attempted(self) -> int:
        return sum(window.attempted for window in self.every_window())

    @property
    def failed(self) -> int:
        return sum(window.failed for window in self.every_window())

    @property
    def user_bytes(self) -> int:
        return sum(window.user_bytes for window in self.every_window())

    @property
    def first_failures(self) -> List[str]:
        return [text for window in self.every_window() for text in window.failures][:5]


def sorted_ms(windows: Sequence[Window], kind: Optional[str] = None) -> List[float]:
    """Latencies of ``kind`` (every kind by default) pooled over ``windows``."""
    kinds = KINDS if kind is None else (kind,)
    return sorted(ns / 1e6 for w in windows for k in kinds for ns in w.latency_ns[k])


def rate(windows: Sequence[Window]) -> float:
    """Ops completed per second of the windows' own wall time."""
    return sum(w.attempted - w.failed for w in windows) / sum(w.wall_s for w in windows)


# -- one client ---------------------------------------------------------------


class Driver:
    """One keep-alive connection executing and verifying ops."""

    def __init__(
        self,
        mix: Mix,
        payloads: Payloads,
        versions: KeyVersions,
        host: str,
        port: int,
    ) -> None:
        self.mix = mix
        self.payloads = payloads
        self.versions = versions
        self.client = GatewayClient(host, port, tenant=TENANT, timeout=60.0)

    def close(self) -> None:
        self.client.close()

    def execute(self, op: Op, window: Window) -> None:
        try:
            with self.versions.key_lock(op.key):
                if op.kind in ("get", "range"):
                    self._read(op, window)
                else:
                    self._write(op, window)
        except REQUEST_ERRORS as exc:
            self.client.close()  # a half-read response poisons keep-alive
            window.fail(op, f"{type(exc).__name__}: {exc}")

    def _read(self, op: Op, window: Window) -> None:
        size = self.mix.size_of(op.key)
        lo, hi = (op.lo, op.hi + 1) if op.kind == "range" else (0, size)
        oldest = self.versions.acked(op.key)
        start = time.perf_counter_ns()
        if op.kind == "range":
            body = self.client.get_range(BUCKET, op.key, op.lo, op.hi)
        else:
            body = self.client.get(BUCKET, op.key)
        elapsed = time.perf_counter_ns() - start
        newest = self.versions.started(op.key)
        if any(
            body == self.payloads.slice(op.key, version, lo, hi)
            for version in range(oldest, newest + 1)
        ):
            window.ok(op.kind, elapsed, len(body))
        else:
            window.fail(op, f"wrong bytes ({len(body)} B) for versions {oldest}..{newest}")

    def _write(self, op: Op, window: Window) -> None:
        mix = self.mix
        version = self.versions.begin_write(op.key)
        payload = self.payloads.full(op.key, version, mix.size_of(op.key))
        if op.kind == "mpu":
            parts = [payload[i:i + mix.part_bytes] for i in range(0, len(payload), mix.part_bytes)]
            want_etag = multipart_etag(parts)
            start = time.perf_counter_ns()
            info = self.client.put_multipart(
                BUCKET, op.key, io.BytesIO(payload), part_size=mix.part_bytes, mime=MIME
            )
        else:
            want_etag = hashlib.md5(payload).hexdigest()
            start = time.perf_counter_ns()
            if len(payload) > mix.part_bytes:
                info = self.client.put_stream(
                    BUCKET, op.key, io.BytesIO(payload), size=len(payload), mime=MIME
                )
            else:
                info = self.client.put(BUCKET, op.key, payload, mime=MIME)
        elapsed = time.perf_counter_ns() - start
        if info.get("size") != len(payload) or info.get("etag") != want_etag:
            window.fail(op, f"acknowledged size/etag {info.get('size')}/{info.get('etag')}")
            return
        self.versions.ack_write(op.key, version)
        window.ok(op.kind, elapsed, len(payload))


# -- phases -------------------------------------------------------------------


def _run_window(
    driver: Driver, ops: Iterator[Op], count: int, probe: Optional[Callable[[], float]],
    stop_on_failure: bool = False,
) -> Window:
    window = Window()
    cpu = probe() if probe else 0.0
    began = time.perf_counter()
    for _ in range(count):
        driver.execute(next(ops), window)
        if stop_on_failure and window.failed:
            break
    window.wall_s = time.perf_counter() - began
    if probe:
        window.server_cpu_s = probe() - cpu
    return window


def run_fixed(
    driver: Driver,
    ops: Iterator[Op],
    count: int,
    *,
    window_ops: Optional[int] = None,
    probe: Optional[Callable[[], float]] = None,
) -> Phase:
    """One closed-loop client, exactly ``count`` ops (c1, warm-up, preload),
    cut into windows of ``window_ops`` (one window by default)."""
    phase = Phase(1)
    began = time.perf_counter()
    step = window_ops or count
    for done in range(0, count, step):
        phase.windows[0].append(_run_window(driver, ops, min(step, count - done), probe))
    phase.wall_s = time.perf_counter() - began
    return phase


def run_timed(
    drivers: Sequence[Driver],
    streams: Sequence[Iterator[Op]],
    seconds: float,
    window_ops: int,
    *,
    stop_on_failure: bool = False,
) -> Phase:
    """Closed-loop clients, one thread each, until ``seconds`` have passed.

    Each client runs whole windows (whole blocks of its mix) and stops
    after the one in which the deadline fell, so every window of the
    phase holds the same ops.
    """
    phase = Phase(len(drivers))
    deadline = time.perf_counter() + seconds

    def loop(index: int) -> None:
        while time.perf_counter() < deadline:
            window = _run_window(
                drivers[index], streams[index], window_ops, None, stop_on_failure
            )
            phase.windows[index].append(window)
            if stop_on_failure and window.failed:
                return

    threads = [
        threading.Thread(target=loop, args=(i,), name=f"spine-client-{i}")
        for i in range(len(drivers))
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall_s = time.perf_counter() - began
    return phase


def preload_ops(mix: Mix) -> List[Op]:
    """One write per key, in key order: the untimed fill before warm-up."""
    return [Op("put", key) for key in mix.object_keys()] + [
        Op("mpu", key) for key in mix.multipart_keys()
    ]


def verify(driver: Driver, keys: Sequence[str]) -> Phase:
    """Read ``keys`` back and check their acknowledged bytes."""
    return run_fixed(driver, (Op("get", key) for key in keys), len(keys))
