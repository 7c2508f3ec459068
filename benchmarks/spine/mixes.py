"""The four workloads: traffic mixes, seeded op streams and derived payloads.

The server sees only requests.  Everything here is a pure function of
``--seed``: the op sequence of client stream *s* and the bytes of key *k*
at version *v*.  Payloads are derived, never stored, so a GET body or a
range slice is checked against bytes regenerated from ``(seed, k, v)``.

Every mix issues all four op kinds (get, range, put, mpu) because the
benchmark contract wants every end-to-end metric measured on every
workload; the read/write split is the one each workload is named for.
Ops come in blocks with a fixed count of each kind, so op counts, bytes
and billing do not depend on the seed: only keys, ranges and order do.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple

BUCKET = "spine"
TENANT = "bench"
MIME = "application/octet-stream"
STRIPE_BYTES = 8 * 1024 * 1024  # repro serve --stripe-bytes default


class Op(NamedTuple):
    kind: str  # get | range | put | mpu
    key: str
    lo: int = 0  # inclusive byte range, kind == "range" only
    hi: int = 0


@dataclass(frozen=True)
class Mix:
    name: str
    why: str
    serve_args: Tuple[str, ...]
    durable: bool
    object_bytes: int  # size of every k* object
    keys: int  # preloaded k* objects (get/range/put targets)
    mpu_keys: int  # preloaded m* objects (mpu targets)
    part_bytes: int  # multipart part size; an m* object is two parts
    range_bytes: int
    #: The op kinds of one block.  Every block holds exactly these; phases
    #: run whole blocks, so every run issues the same number of each kind.
    block: Tuple[str, ...]
    shuffle: bool  # draw the order within each block by seed, or keep it
    zipf_s: float  # GET/range key skew; 0 = uniform over every key
    #: c1 op count per second of ``--seconds``; sized so c1 is ~75% of a run.
    c1_ops_per_run_second: float
    warmup_blocks: int
    trace_blocks: int  # blocks replayed per traced run, at most
    #: The loop that keeps idle CPUs from halting during the run
    #: (a key of servers.IDLE_LOOPS), or None for no loop.
    idle_loop: Optional[str] = None
    #: Most blocks c1 may run whatever ``--seconds`` says, or None.
    c1_max_blocks: Optional[int] = None

    @property
    def mpu_bytes(self) -> int:
        return 2 * self.part_bytes

    def size_of(self, key: str) -> int:
        return self.mpu_bytes if key.startswith("m") else self.object_bytes

    @property
    def live_user_bytes(self) -> int:
        """Every key is preloaded and overwritten at its own size."""
        return self.keys * self.object_bytes + self.mpu_keys * self.mpu_bytes

    def c1_ops(self, seconds: float) -> int:
        """Whole blocks only, so the count of each op kind is fixed too."""
        blocks = max(1, int(self.c1_ops_per_run_second * seconds) // len(self.block))
        if self.c1_max_blocks:
            blocks = min(blocks, self.c1_max_blocks)
        return blocks * len(self.block)

    @property
    def warmup_ops(self) -> int:
        return self.warmup_blocks * len(self.block)

    @property
    def trace_ops(self) -> int:
        return self.trace_blocks * len(self.block)

    def object_keys(self) -> List[str]:
        """Targets of get, range and put."""
        return [f"k{i:05d}" for i in range(self.keys)]

    def multipart_keys(self) -> List[str]:
        """Targets of mpu (``size_of`` tells them by their first letter)."""
        return [f"m{i:03d}" for i in range(self.mpu_keys)]

    def all_keys(self) -> List[str]:
        return self.object_keys() + self.multipart_keys()


def _block(get: int, range_: int, put: int, mpu: int) -> Tuple[str, ...]:
    return ("get",) * get + ("range",) * range_ + ("put",) * put + ("mpu",) * mpu


_SMALL = dict(
    object_bytes=1024, keys=2000, mpu_keys=50, part_bytes=1024, range_bytes=256,
    shuffle=True, zipf_s=0.99, warmup_blocks=6, trace_blocks=40,
)

MIXES = {
    mix.name: mix
    for mix in (
        Mix(
            name="small_direct",
            why="1 KiB objects, 80% read, one process: per-request gateway/frontend/engine "
                "overhead is all the work; erasure, RPC and WAL do almost none",
            serve_args=(), durable=False, block=_block(35, 5, 9, 1),
            c1_ops_per_run_second=1000, idle_loop="spin", **_SMALL,
        ),
        Mix(
            name="small_workers1",
            why="same traffic through --workers 1: adds the ops-RPC hop (gateway.remote, "
                "replication.rpc, gateway.ops) that small_direct does not have",
            serve_args=("--workers", "1"), durable=False, block=_block(35, 5, 9, 1),
            c1_ops_per_run_second=500, idle_loop="spin", **_SMALL,
        ),
        Mix(
            name="large_stream",
            why="16 MiB objects (two 8 MiB stripes, m:4 n:5) streamed, read whole, read by "
                "64 KiB range and uploaded in parts: RS coding, hashing and body streaming dominate",
            serve_args=(), durable=False,
            object_bytes=2 * STRIPE_BYTES, keys=3, mpu_keys=3, part_bytes=STRIPE_BYTES,
            range_bytes=64 * 1024,
            block=("put", "get", "range", "range", "range", "range", "mpu"), shuffle=False,
            zipf_s=0.0, c1_ops_per_run_second=5.2, warmup_blocks=1, trace_blocks=3,
            # No sampling period closes in a run, so the class profile the planner
            # places new writes by only grows, and from about the 13th block on
            # (preload and warm-up are the first two) rewrites get a placement
            # that stores 2 bytes per user byte, not 1.25.  Which of the six
            # objects those are differs by seed, and the count ratios with it
            # (1.25 to 1.64).
            c1_max_blocks=11,
        ),
        Mix(
            name="durable_put",
            why="1 KiB objects, 80% write, --data-dir with --storage-sync always, then SIGKILL "
                "and restart: WAL append, fsync and the segment store dominate",
            serve_args=("--storage-sync", "always"), durable=True, block=_block(8, 2, 38, 2),
            c1_ops_per_run_second=300, idle_loop="yield", **{**_SMALL, "keys": 1000},
        ),
    )
}


def _rng(seed: int, *scope) -> random.Random:
    # A str seed is hashed with SHA-512 by random.seed, so this is stable
    # across processes (unlike hash()).
    return random.Random("/".join(str(part) for part in (seed, *scope)))


def op_stream(mix: Mix, seed: int, stream: int) -> Iterator[Op]:
    """The endless op sequence of one client; ``stream`` tells clients apart."""
    rng = _rng(seed, mix.name, "ops", stream)
    objects, multiparts = mix.object_keys(), mix.multipart_keys()
    # Popularity rank -> key is itself seeded, so the hot keys differ by seed.
    ranked = list(objects)
    _rng(seed, mix.name, "ranks").shuffle(ranked)
    cum = []
    total = 0.0
    for rank in range(mix.keys):
        total += 1.0 / (rank + 1) ** mix.zipf_s
        cum.append(total)
    while True:
        block = list(mix.block)
        if mix.shuffle:
            rng.shuffle(block)
        for kind in block:
            if kind == "mpu":
                yield Op("mpu", rng.choice(multiparts))
            elif kind == "put":
                yield Op("put", rng.choice(objects))
            else:
                if mix.zipf_s:
                    key = ranked[bisect.bisect_left(cum, rng.random() * total)]
                else:
                    # large_stream reads streamed and multipart objects alike.
                    key = rng.choice(objects + multiparts)
                if kind == "get":
                    yield Op("get", key)
                else:
                    lo = rng.randrange(mix.size_of(key) - mix.range_bytes + 1)
                    yield Op("range", key, lo, lo + mix.range_bytes - 1)


def stream_digest(mix: Mix, seed: int, stream: int, count: int = 1000) -> str:
    """SHA-256 over the first ``count`` ops: same seed, same digest."""
    digest = hashlib.sha256()
    ops = op_stream(mix, seed, stream)
    for _ in range(count):
        digest.update(repr(tuple(next(ops))).encode())
    return digest.hexdigest()


class Payloads:
    """Bytes of ``(key, version)``: a keyed 16-byte head, then a rotation of
    one seeded 1 MiB block.  Any slice is computable without the rest."""

    _BLOCK = 1 << 20
    _HEAD = 16

    def __init__(self, seed: int) -> None:
        self._key = hashlib.sha256(f"spine-payload/{seed}".encode()).digest()
        block = _rng(seed, "payload-block").randbytes(self._BLOCK)
        self._block2 = block + block

    def _head(self, key: str, version: int) -> bytes:
        return hashlib.blake2b(
            f"{key}#{version}".encode(), digest_size=self._HEAD, key=self._key
        ).digest()

    def slice(self, key: str, version: int, lo: int, hi: int) -> bytes:
        """Bytes ``[lo, hi)`` of the payload of ``key`` at ``version``."""
        head = self._head(key, version)
        out = bytearray(head[lo:min(hi, self._HEAD)]) if lo < self._HEAD else bytearray()
        pos = max(lo, self._HEAD)
        offset = int.from_bytes(head[:8], "big") + pos - self._HEAD
        remaining = hi - pos
        while remaining > 0:
            start = offset % self._BLOCK
            take = min(remaining, self._BLOCK)
            out += self._block2[start:start + take]
            offset += take
            remaining -= take
        return bytes(out)

    def full(self, key: str, version: int, size: int) -> bytes:
        return self.slice(key, version, 0, size)
