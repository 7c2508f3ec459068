"""The pre-forked listener of ``repro serve --workers N``.

A :class:`WorkerPool` is to ``repro serve`` what a
:class:`~repro.gateway.server.ScaliaGateway` is — one listen address with
``address``, ``url``, ``serve_forever()`` and ``close()`` — except that the
HTTP work happens in N child processes.  The calling process keeps sole
ownership of the broker (metadata, striped locks, WAL, control plane and,
in a cluster, the replication node) and serves the frontend it is given
to the workers over a loopback ops RPC (:mod:`repro.gateway.ops`); each
worker (:mod:`repro.gateway.worker`) runs a full HTTP gateway — parsing,
body streaming, erasure coding, checksumming — so request CPU scales past
one GIL.  Workers share the listen address via ``SO_REUSEPORT`` (kernel
load balancing, no accept lock), and each builds its gateway and its
logging from the one configuration document ``repro serve`` hands this
pool, read from its stdin.

Supervision: a worker that exits is respawned in the same slot with a
fresh incarnation number — the metrics aggregator uses the incarnation to
fold the dead worker's counters in exactly once, and the ops service to
abort the staged write sessions the dead worker left open — after a
back-off that grows with consecutive crashes.  :meth:`WorkerPool.close`
forwards TERM to every worker, waits out their graceful drains, then
escalates to SIGKILL.  A worker that outlives this process notices within
a second and exits on its own (see the worker's lifecycle notes).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

import repro
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.obs.workers import WorkerMetricsAggregator

#: How long :meth:`WorkerPool.close` waits for TERMed workers to drain
#: before it KILLs them.
DRAIN_DEADLINE_S = 20.0


class WorkerPool:
    """N gateway worker processes behind one listen address."""

    def __init__(
        self, frontend: BrokerFrontend, config: dict, *, workers: int
    ) -> None:
        """``config`` is ``{"gateway": ScaliaGateway keywords, "logging":
        configure_logging keywords}``, as plain JSON values."""
        host, port = config["gateway"]["host"], config["gateway"]["port"]
        if port != 0:
            # SO_REUSEPORT would also let the reservation bind beside a
            # live supervisor's workers, and the kernel would split
            # connections between two brokers.  A probe without it is
            # refused (EADDRINUSE) while anything listens on the port,
            # and not by a bare reservation or TIME_WAIT leftovers.
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind((host, port))
        # This process holds a bound (never listening) reservation socket
        # for its whole lifetime, so the port cannot be stolen between
        # worker restarts and ``port=0`` resolves to one concrete port
        # every worker binds.
        self._reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._reservation.bind((host, port))
        self.address: Tuple[str, int] = self._reservation.getsockname()[:2]
        aggregator = WorkerMetricsAggregator(frontend.broker.metrics)
        self._ops = OpsService(frontend, aggregator=aggregator)
        self._rpc = self._ops.serve("127.0.0.1", 0)

        gateway = dict(config["gateway"], port=self.address[1], reuse_port=True)
        self._config = json.dumps(dict(config, gateway=gateway)).encode("utf-8")
        self._argv = [
            sys.executable, "-m", "repro.gateway.worker",
            "--ops-port", str(self._rpc.address[1]),
        ]
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        self._env = env
        self.max_connections = gateway.get("max_connections")
        # slot -> [process, incarnation, consecutive_failures, respawn_not_before]
        self._slots: Dict[int, list] = {
            slot: [self._spawn(slot, 1), 1, 0, 0.0] for slot in range(workers)
        }

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def describe(self) -> str:
        """The banner line ``repro serve`` prints under the listen address."""
        ops_host, ops_port = self._rpc.address
        cap = self.max_connections if self.max_connections is not None else "unbounded"
        return (
            f"pre-forked workers: {len(self._slots)} (SO_REUSEPORT, "
            f"ops rpc {ops_host}:{ops_port}, max connections/worker {cap})"
        )

    def _spawn(self, slot: int, incarnation: int) -> subprocess.Popen:
        proc = subprocess.Popen(
            self._argv + ["--slot", str(slot), "--incarnation", str(incarnation)],
            stdin=subprocess.PIPE,
            env=self._env,
            bufsize=0,
        )
        # One small unbuffered write: it fits the pipe, so it never waits
        # on the worker.
        try:
            proc.stdin.write(self._config)
        except BrokenPipeError:
            pass  # it died before reading; supervision sees the exit
        proc.stdin.close()
        return proc

    def serve_forever(self) -> None:
        """Supervise on the calling thread until interrupted."""
        while True:
            time.sleep(0.2)
            now = time.monotonic()
            for slot, state in self._slots.items():
                proc, incarnation, failures, _not_before = state
                if proc is not None:
                    code = proc.poll()
                    if code is None:
                        continue
                    # Exit 0 without a shutdown request means the worker
                    # chose to stop; treat any exit as a respawnable gap.
                    failures = 0 if code == 0 else failures + 1
                    delay = min(5.0, 0.5 * failures)
                    print(
                        f"worker {slot} (incarnation {incarnation}) exited "
                        f"with code {code}; respawning"
                        + (f" in {delay:.1f}s" if delay else "")
                    )
                    # Whatever it was writing is nobody's now: drop the
                    # staged chunks and end their in-flight registration.
                    try:
                        self._ops.abort_sessions_of(slot, incarnation)
                    except Exception:  # noqa: BLE001 — supervision goes on
                        traceback.print_exc()
                    state[0] = None
                    state[2] = failures
                    state[3] = now + delay
                if now >= state[3]:
                    state[1] += 1
                    state[0] = self._spawn(slot, state[1])

    def close(self) -> None:
        """TERM every worker, KILL what has not drained, release the port."""
        alive: List[subprocess.Popen] = [
            state[0] for state in self._slots.values() if state[0] is not None
        ]
        for proc in alive:
            try:
                proc.terminate()
            except OSError:
                pass
        deadline = time.monotonic() + DRAIN_DEADLINE_S
        for proc in alive:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
        self._rpc.close()
        self._reservation.close()
