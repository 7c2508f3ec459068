"""Gateway worker process entry point (``python -m repro.gateway.worker``).

Spawned by ``repro serve --workers N``: each worker owns a full HTTP
gateway (parsing, streaming, erasure coding, checksumming) over a
:class:`~repro.gateway.remote.RemoteBrokerFrontend`, while the parent
process keeps the broker and supervises.  Workers accept on a shared
``SO_REUSEPORT`` address, so the kernel spreads connections across them
and no userspace accept lock exists.  Argv carries only what differs per
worker (the ops RPC port, the slot, the incarnation); the gateway and
logging options arrive as one JSON document on stdin, the configuration
``repro serve`` built once for every worker (see
:class:`~repro.gateway.supervisor.WorkerPool`).

Lifecycle:

* A pusher thread ships the local metrics registry to the broker's
  aggregator about once a second (never, when the broker keeps no
  metrics), tagged ``(slot, incarnation)`` so a restarted worker never
  double-counts.  The staged write sessions this worker begins carry
  the same tag: the supervisor aborts them when it sees this process
  exit, so a SIGKILL mid-PUT strands no chunk.
* SIGTERM (and SIGINT) trigger a graceful drain: stop accepting, finish
  requests already in flight (bounded by :data:`DRAIN_TIMEOUT_S`), push the
  final metrics snapshot, retire the slot, exit 0.  The supervisor
  treats exit 0 as clean; anything else is a crash and the slot is
  respawned with a fresh incarnation.
* A worker whose supervisor is gone (its parent pid changed: the
  supervisor was SIGKILLed, taking the broker with it) has nothing left
  to serve.  The pusher thread notices on its next turn and the worker
  takes the same drain path, then exits 1, so the listen port refuses
  connections and a restarted supervisor never shares it with a zombie.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.obs.logging import configure_logging
from repro.replication.rpc import RpcError

METRICS_PUSH_INTERVAL_S = 1.0

#: How long a draining worker waits for its in-flight requests.
DRAIN_TIMEOUT_S = 15.0


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="repro-gateway-worker")
    parser.add_argument("--ops-port", type=int, required=True)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--incarnation", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    # Read before connecting: had the supervisor died earlier still, the
    # connect below fails and the worker never starts.
    supervisor = os.getppid()
    config = json.load(sys.stdin)
    configure_logging(**config["logging"])
    try:
        # The supervisor's ops RPC listens on loopback before it spawns
        # any worker, so one attempt is enough; a failure exits into its
        # respawn back-off.
        frontend = RemoteBrokerFrontend(
            "127.0.0.1", args.ops_port, owner=(args.slot, args.incarnation)
        )
    except (RpcError, OSError) as exc:
        print(f"worker {args.slot}: cannot reach the broker: {exc}", file=sys.stderr)
        return 1

    gateway = ScaliaGateway(frontend, **config["gateway"])

    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    def _push_metrics_loop() -> None:
        while not stop.wait(METRICS_PUSH_INTERVAL_S):
            if os.getppid() != supervisor:
                stop.set()
                return
            try:
                frontend.push_metrics(args.slot, args.incarnation)
            except Exception:  # noqa: BLE001 — the broker may be mid-restart
                pass

    pusher = threading.Thread(
        target=_push_metrics_loop, name="metrics-push", daemon=True
    )
    pusher.start()

    gateway.start()
    stop.wait()

    # Graceful drain: no new connections, finish what is in flight.
    gateway.begin_drain()
    gateway.wait_idle(DRAIN_TIMEOUT_S)
    try:
        frontend.push_metrics(args.slot, args.incarnation)
        frontend.retire_metrics(args.slot)
    except Exception:  # noqa: BLE001 — broker may already be gone
        pass
    gateway.close()
    return 0 if os.getppid() == supervisor else 1


if __name__ == "__main__":
    sys.exit(main())
