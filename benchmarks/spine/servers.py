"""Spawn, watch and tear down a real ``python -m repro serve`` subprocess.

The server runs in its own session so a wedged tree (``--workers`` forks
children) can be killed as one group: no orphan survives a run.  CPU
time and peak memory are read for the whole tree from ``/proc``, and the
``/stats`` and ``/metrics?format=json`` documents are scraped through the
public client.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.gateway.client import GatewayClient, GatewayError

from mixes import TENANT

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SPINE_DIR / "out"

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server did not boot, or died while the benchmark needed it."""


def make_workdir(tag: str) -> Path:
    """A fresh scratch directory under ``out/`` (data dir, server log)."""
    path = OUT_DIR / f"tmp-{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


_IDLE_LOOP = """
import os, sys
os.sched_setaffinity(0, {{int(sys.argv[1])}})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
step = {step}
parent = os.getppid()
while os.getppid() == parent:  # do not outlive a benchmark that was killed
    for _ in range(100000):
        step()
"""

#: What the loop does on every turn.  ``spin`` stays in user mode; ``yield``
#: enters the scheduler each time.  Measured: a durable PUT took 24 ms next
#: to ``spin`` loops, 2.4 ms next to ``yield`` loops and 3.0 ms alone.  The
#: cause is not established (README, "Steadiness", has a guess).
IDLE_LOOPS = {"spin": "lambda: None", "yield": "os.sched_yield"}


def _cpu_quota_set() -> bool:
    """Whether a cgroup caps this container's CPU time (v2, then v1)."""
    for path, unlimited in (
        ("/sys/fs/cgroup/cpu.max", "max"),
        ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "-1"),
    ):
        try:
            return Path(path).read_text().split()[0] != unlimited
        except (OSError, IndexError):
            continue
    return False


@contextlib.contextmanager
def cpus_kept_awake(idle_loop: Optional[str]) -> Iterator[None]:
    """One ``SCHED_IDLE`` loop per CPU for the length of a run.

    A request of the small mixes takes one to three milliseconds and
    crosses two to ten thread wake-ups (and, when durable, four fsyncs).
    On this VM a halted vCPU is slow to wake and comes back to cold
    caches, by an amount that drifts from minute to minute: it was most
    of the run-to-run spread of those mixes (README, "Steadiness").  An
    idle-class loop runs only when nothing else wants the CPU, so it
    takes no time from server or client; it only keeps the CPU from
    halting.  A mix names the loop it wants (``Mix.idle_loop``, a key of
    ``IDLE_LOOPS``) or ``None``: ``spin`` is the steadier one, ``yield``
    the one that does not stall a durable PUT; the bulk mix is steady without
    and slower with either.  Skipped under a cgroup CPU quota, where it
    would eat the budget the server needs.
    """
    spinners: List[subprocess.Popen] = []
    try:
        if idle_loop and not _cpu_quota_set():
            code = _IDLE_LOOP.format(step=IDLE_LOOPS[idle_loop])
            for cpu in sorted(os.sched_getaffinity(0)):
                spinners.append(subprocess.Popen([sys.executable, "-c", code, str(cpu)]))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


class Server:
    """One ``repro serve`` process tree."""

    def __init__(self, serve_args: Sequence[str], workdir: Path) -> None:
        self.serve_args = list(serve_args)
        self.workdir = workdir
        self.log_path = workdir / "server.log"
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.boot_s = 0.0
        self._log = None

    # -- lifecycle --------------------------------------------------------

    def start(self, *, timeout: float = 60.0) -> "Server":
        """Spawn and wait for the first 200 from ``/healthz``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(self.log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *self.serve_args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(self.workdir),
            start_new_session=True,
        )
        deadline = started + timeout
        try:
            self._read_port(deadline)
            self._wait_healthy(deadline)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started
        return self

    def _read_port(self, deadline: float) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        found = threading.Event()

        def pump() -> None:
            # Keeps draining after the port line so the pipe never fills.
            for raw in self.proc.stdout:
                match = _LISTENING.search(raw.decode("utf-8", "replace"))
                if match and not found.is_set():
                    self.host, self.port = match.group(1), int(match.group(2))
                    found.set()

        threading.Thread(target=pump, name="spine-stdout", daemon=True).start()
        while not found.wait(0.01):
            if self.proc.poll() is not None:
                raise ServerError(f"serve exited with {self.proc.returncode} during boot; {self.log_tail()}")
            if time.perf_counter() > deadline:
                raise ServerError("serve never printed its listen address")

    def _wait_healthy(self, deadline: float) -> None:
        client = self.client()
        try:
            while True:
                try:
                    client.health()
                    return
                except (OSError, GatewayError):
                    client.close()
                if self.proc.poll() is not None:
                    raise ServerError(f"serve exited with {self.proc.returncode}; {self.log_tail()}")
                if time.perf_counter() > deadline:
                    raise ServerError("gateway never answered /healthz")
                time.sleep(0.005)
        finally:
            client.close()

    def client(self) -> GatewayClient:
        return GatewayClient(self.host, self.port, tenant=TENANT, timeout=60.0)

    def stop(self) -> int:
        """SIGTERM, then SIGKILL of the whole group after 20 s."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        return self.kill()

    def kill(self) -> int:
        """SIGKILL the whole process group and reap it (after a clean exit
        a no-op; on its own, the crash in ``durable_put``)."""
        assert self.proc is not None
        try:
            # The leader's pid is the group id (start_new_session); this also
            # takes any worker the leader left behind.
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        code = self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None
        return code

    def log_tail(self, lines: int = 8) -> str:
        try:
            text = self.log_path.read_text("utf-8", "replace")
        except OSError:
            return "(no server log)"
        return "server log tail: " + " | ".join(text.strip().splitlines()[-lines:])

    # -- the process tree, from /proc --------------------------------------

    def tree_pids(self) -> List[int]:
        assert self.proc is not None
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path(f"/proc/{entry}/stat").read_text()
                except OSError:
                    continue  # exited between listdir and read
                # Field 2 (comm) may contain spaces; the rest follow the ")".
                parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = [self.proc.pid]
        for pid in tree:  # grows while iterating: breadth-first descent
            tree.extend(child for child, parent in parents.items() if parent == pid)
        return tree

    def cpu_probe(self) -> Callable[[], float]:
        """A cheap reader of utime + stime summed over the tree as it is now
        (the tree does not fork again once it serves)."""
        paths = [f"/proc/{pid}/stat" for pid in self.tree_pids()]

        def read() -> float:
            ticks = 0
            for path in paths:
                with open(path) as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
                ticks += int(fields[11]) + int(fields[12])  # utime, stime
            return ticks / _CLK_TCK

        return read

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM (peak resident set) over the live tree."""
        total_kb = 0
        for pid in self.tree_pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0


# -- scrapes ------------------------------------------------------------------


def scrape(client: GatewayClient) -> dict:
    """``/stats`` and ``/metrics?format=json`` taken back to back."""
    return {"stats": client.stats(), "metrics": client.metrics().get("metrics", {})}


def metric_total(scrape_doc: dict, family: str, field: str = "value", **labels) -> float:
    """Sum ``field`` over a family's samples whose labels match."""
    total = 0.0
    for sample in scrape_doc["metrics"].get(family, {}).get("samples", []):
        have = sample.get("labels", {})
        if all(have.get(k) == v for k, v in labels.items()):
            total += float(sample.get(field, 0.0))
    return total


def stored_bytes(scrape_doc: dict) -> int:
    backends = scrape_doc["stats"]["storage"]["backends"]
    return sum(int(b.get("stored_bytes", 0)) for b in backends.values())


def scrub_damage(report: dict) -> int:
    """Chunks a no-repair scrub found wrong; a clean store reports 0."""
    return sum(
        int(report.get(field, 0))
        for field in ("chunks_corrupt", "chunks_missing", "unrepairable")
    )
