"""Gateway worker process entry point (``python -m repro.gateway.worker``).

Spawned by ``repro serve --workers N``: each worker owns a full HTTP
gateway (parsing, streaming, erasure coding, checksumming) over a
:class:`~repro.gateway.remote.RemoteBrokerFrontend`, while the parent
process keeps the broker and supervises.  Workers accept on a shared
``SO_REUSEPORT`` address when the platform has it, or on a listening
socket inherited from the supervisor (``--inherit-fd``) when it does
not; either way the kernel spreads connections across workers and no
userspace accept lock exists.

Lifecycle:

* A pusher thread ships the local metrics registry to the broker's
  aggregator about once a second, tagged ``(slot, incarnation)`` so a
  restarted worker never double-counts.  The staged write sessions this
  worker begins carry the same tag: the supervisor aborts them when it
  sees this process exit, so a SIGKILL mid-PUT strands no chunk.
* SIGTERM (and SIGINT) trigger a graceful drain: stop accepting, finish
  requests already in flight (bounded by ``--drain-timeout``), push the
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
import os
import signal
import socket
import sys
import threading

from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.replication.rpc import RpcError

METRICS_PUSH_INTERVAL_S = 1.0


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="repro-gateway-worker")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--ops-host", default="127.0.0.1")
    parser.add_argument("--ops-port", type=int, required=True)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--incarnation", type=int, default=1)
    parser.add_argument("--max-connections", type=int, default=None)
    parser.add_argument("--reuse-port", action="store_true")
    parser.add_argument(
        "--inherit-fd", type=int, default=None,
        help="adopt this listening socket fd instead of binding",
    )
    parser.add_argument("--drain-timeout", type=float, default=15.0)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--trace-slow-ms", type=float, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    # Read before connecting: had the supervisor died earlier still, the
    # connect below fails and the worker never starts.
    supervisor = os.getppid()
    try:
        # The supervisor's ops RPC listens before it spawns any worker, so
        # one attempt is enough; a failure exits into its respawn back-off.
        frontend = RemoteBrokerFrontend(
            args.ops_host, args.ops_port, owner=(args.slot, args.incarnation)
        )
    except (RpcError, OSError) as exc:
        print(f"worker {args.slot}: cannot reach the broker: {exc}", file=sys.stderr)
        return 1

    inherited = None
    if args.inherit_fd is not None:
        inherited = socket.socket(fileno=args.inherit_fd)
    gateway = ScaliaGateway(
        frontend,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        trace_slow_ms=args.trace_slow_ms,
        max_connections=args.max_connections,
        reuse_port=args.reuse_port and inherited is None,
        inherited_socket=inherited,
    )

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
    gateway.wait_idle(max(0.0, args.drain_timeout))
    try:
        frontend.push_metrics(args.slot, args.incarnation)
        frontend.retire_metrics(args.slot)
    except Exception:  # noqa: BLE001 — broker may already be gone
        pass
    gateway.close()
    return 0 if os.getppid() == supervisor else 1


if __name__ == "__main__":
    sys.exit(main())
