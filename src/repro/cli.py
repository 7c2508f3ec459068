"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog``
    Print the provider catalog (Figure 3), optionally with CheapStor.
``placement``
    One-shot Algorithm-1 query: best provider set for an object described
    by size / SLA / expected access rates.
``scenario``
    Run one of the paper's evaluation scenarios under a policy and print
    the cost summary (and % over the clairvoyant ideal).
``serve``
    Boot the S3-style HTTP gateway over a live broker (see
    ``docs/GATEWAY.md``): ``repro serve --port 8090`` then drive it with
    curl or :class:`repro.gateway.client.GatewayClient`.
``put`` / ``get``
    Streaming object transfer against a running gateway:
    ``repro put photos cat.gif ./cat.gif`` uploads from disk (or stdin
    with ``-``) without materializing the file; ``repro get photos
    cat.gif -o ./cat.gif`` streams it back (stdout with ``-``).  Large
    uploads switch to the multipart protocol automatically.
``status``
    Operational snapshot of a running gateway: period, costs, hedged-read
    counters and the per-provider health table (availability, circuit
    breaker, latency/error EWMAs, installed fault profiles).
``top``
    Live operational table refreshed from ``GET /metrics?format=json``:
    request rate, per-op latency quantiles, per-provider traffic, error
    and breaker state, sparkline trends and SLO burn rates (see
    ``docs/OBSERVABILITY.md``).  ``--once``/``--json`` print one frame
    and exit.
``events``
    Query or ``--follow`` the decision-event journal (``GET /events``):
    placement rationales, migration appraisals, breaker transitions,
    scrub verdicts, hedge outcomes.
``explain``
    Why an object lives where it lives: current placement vs the best
    alternative vs full replication, plus its decision log and a live
    replay of the last migration's projected saving.
``audit``
    Run one challenge-response possession sweep (``POST /audit``):
    every provider proves it still holds each chunk via sampled Merkle
    leaves, at O(log) proof bytes per chunk; failed proofs open the
    provider's breaker and trigger erasure-coded repair.
"""

from __future__ import annotations

import argparse
import http.client
import signal
import socket
import sys
from typing import Optional, Sequence
from urllib.parse import urlsplit

from repro import __version__
from repro.core.broker import Scalia
from repro.core.costmodel import AccessProjection, CostModel
from repro.core.placement import PlacementEngine
from repro.core.rules import StorageRule
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.providers.pricing import paper_catalog
from repro.providers.registry import ProviderRegistry
from repro.sim.ideal import ideal_costs
from repro.sim.scenarios import SCENARIOS
from repro.sim.simulator import ScenarioSimulator


def _cmd_catalog(args: argparse.Namespace) -> int:
    catalog = paper_catalog(include_cheapstor=args.cheapstor)
    print(f"{'name':<10} {'durability':>14} {'avail':>7} {'storage':>8} "
          f"{'bw in':>6} {'bw out':>7} {'ops/1K':>7}  zones")
    for spec in catalog:
        p = spec.pricing
        print(
            f"{spec.name:<10} {spec.durability:>14.11%} {spec.availability:>7.1%} "
            f"{p.storage_gb_month:>8} {p.bw_in_gb:>6} {p.bw_out_gb:>7} "
            f"{p.ops_per_1k:>7}  {','.join(sorted(spec.zones))}"
        )
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    rule = StorageRule(
        "cli",
        durability=args.durability,
        availability=args.availability,
        lockin=args.lockin,
    )
    projection = AccessProjection(
        size_bytes=args.size,
        reads_per_period=args.reads_per_hour,
        writes_per_period=args.writes_per_hour,
    )
    engine = PlacementEngine(CostModel())
    catalog = paper_catalog(include_cheapstor=args.cheapstor)
    decision = engine.best_placement(catalog, rule, projection, args.horizon_hours)
    print(f"placement     : {decision.label()}")
    print(f"expected cost : ${decision.expected_cost:.6f} over {args.horizon_hours:.0f} h")
    print(f"storage blowup: {decision.placement.storage_overhead:.2f}x")
    alternatives = sorted(
        engine.enumerate_feasible(catalog, rule, projection, args.horizon_hours),
        key=lambda d: d.expected_cost,
    )[: args.top]
    print(f"\ntop {len(alternatives)} feasible candidates:")
    for i, alt in enumerate(alternatives, 1):
        print(f"  {i:>2}. {alt.label():<42} ${alt.expected_cost:.6f}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    factory = SCENARIOS[args.name]
    scenario = factory() if args.horizon is None else factory(horizon=args.horizon)
    policy = "scalia" if args.policy == "scalia" else tuple(args.policy.split(","))
    result = ScenarioSimulator(scenario, policy).run()
    print(f"scenario : {scenario.name} ({scenario.workload.horizon} sampling periods)")
    print(f"policy   : {result.policy}")
    print(f"total    : ${result.total_cost:.4f}")
    if result.migrations or result.repairs:
        print(f"moves    : {result.migrations} migrations ({result.repairs} repairs)")
    if result.failed_reads or result.failed_writes:
        print(f"failures : {result.failed_reads} reads, {result.failed_writes} writes")
    if args.ideal:
        ideal = ideal_costs(
            scenario.workload,
            scenario.rules,
            scenario.timeline(),
            CostModel(scenario.sampling_period_hours),
        )
        over = 100.0 * (result.total_cost / ideal.total - 1.0)
        print(f"ideal    : ${ideal.total:.4f}  ({over:+.2f}% over)")
    return 0


def _host_port(spec: str) -> tuple:
    """Parse ``HOST:PORT`` (bare ``:PORT`` binds/targets 127.0.0.1)."""
    host, colon, port = spec.rpartition(":")
    if not colon:
        raise ValueError(f"want HOST:PORT, got {spec!r}")
    return (host or "127.0.0.1", int(port))


def _start_control_plane(args: argparse.Namespace, broker, gate=None):
    """Start the background workers ``args`` asks for; ``None`` if none."""
    from repro.core.controlplane import BackgroundControlPlane

    if not (args.tick_every or args.scrub_every or args.audit_every):
        return None
    control_plane = BackgroundControlPlane(
        broker,
        tick_interval=args.tick_every or None,
        scrub_interval=args.scrub_every or None,
        audit_interval=args.audit_every or None,
        gate=gate,
    ).start()
    print(
        f"background control plane: tick every {args.tick_every or '-'}s, "
        f"scrub every {args.scrub_every or '-'}s, "
        f"audit every {args.audit_every or '-'}s "
        f"(optimizer batch {args.optimizer_batch}, scrub batch {args.scrub_batch})"
    )
    return control_plane


def _print_recovery(args: argparse.Namespace, broker) -> None:
    if broker.recovery is not None:
        print(
            f"durable storage: {args.data_dir} (boot #{broker.recovery['boot_epoch']}, "
            f"snapshot={'yes' if broker.recovery['snapshot_loaded'] else 'no'}, "
            f"wal records replayed={broker.recovery['wal_records_replayed']}, "
            f"recovered in {broker.recovery['duration_seconds']:.3f}s)"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure_logging
    from repro.providers.faults import parse_fault_spec
    from repro.providers.health import HedgePolicy

    # One configuration for the one listener: the in-process gateway, or
    # a pool of pre-forked workers that each build that gateway and their
    # logging from it.
    config = {
        "gateway": dict(
            host=args.host,
            port=args.port,
            trace_slow_ms=args.trace_slow_ms,
            max_connections=args.max_connections,
        ),
        "logging": dict(fmt=args.log_format, level=args.log_level),
    }
    configure_logging(**config["logging"])
    if args.workers and args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    if args.workers and not hasattr(socket, "SO_REUSEPORT"):
        print(
            "--workers needs SO_REUSEPORT, which this platform lacks",
            file=sys.stderr,
        )
        return 2
    cluster_listen = cluster_join = None
    if args.cluster_listen or args.join or args.node_id:
        if not args.cluster_listen:
            print("--join/--node-id require --cluster-listen", file=sys.stderr)
            return 2
        if not args.data_dir:
            print(
                "cluster mode requires --data-dir "
                "(the metadata WAL is the replication stream)",
                file=sys.stderr,
            )
            return 2
        try:
            cluster_listen = _host_port(args.cluster_listen)
            cluster_join = _host_port(args.join) if args.join else None
        except ValueError as exc:
            print(f"bad cluster endpoint: {exc}", file=sys.stderr)
            return 2
    registry = ProviderRegistry(paper_catalog(include_cheapstor=args.cheapstor))
    try:
        hedge = HedgePolicy(
            enabled=not args.no_hedge,
            min_deadline_s=args.hedge_deadline_ms / 1000.0,
        )
    except ValueError as exc:
        print(f"bad --hedge-deadline-ms {args.hedge_deadline_ms}: {exc}", file=sys.stderr)
        return 2
    slo_rules = None
    if args.slo:
        from repro.obs.slo import parse_slo_rule

        try:
            slo_rules = [parse_slo_rule(spec) for spec in args.slo]
        except ValueError as exc:
            print(f"bad --slo: {exc}", file=sys.stderr)
            return 2
    broker = Scalia(
        registry,
        datacenters=args.datacenters,
        engines_per_dc=args.engines,
        cache_capacity_bytes=args.cache_bytes,
        data_dir=args.data_dir,
        storage_sync=args.storage_sync,
        stripe_size_bytes=args.stripe_bytes,
        optimizer_batch_size=args.optimizer_batch,
        scrub_batch_size=args.scrub_batch,
        audit_batch_size=args.audit_batch,
        hedge=hedge,
        enable_metrics=not args.no_metrics,
        enable_events=not args.no_events,
        event_log=args.event_log,
        history_interval_s=args.history_interval,
        slo_rules=slo_rules,
    )
    for spec in args.fault or ():
        name, colon, profile_spec = spec.partition(":")
        if not colon:
            print(f"--fault wants PROVIDER:SPEC, got {spec!r}", file=sys.stderr)
            return 2
        try:
            registry.set_fault_profile(name.strip(), parse_fault_spec(profile_spec))
        except (KeyError, ValueError) as exc:
            print(f"bad --fault {spec!r}: {exc}", file=sys.stderr)
            return 2
        print(f"fault profile installed on {name.strip()}: {profile_spec.strip()}")
    node = None
    if cluster_listen is not None:
        from repro.replication.frontend import ClusterFrontend
        from repro.replication.node import ClusterNode

        node = ClusterNode(
            broker,
            node_id=args.node_id or f"{cluster_listen[0]}:{cluster_listen[1]}",
            listen=cluster_listen,
            join=cluster_join,
            heartbeat=args.heartbeat_ms / 1000.0,
            election_timeout=args.election_timeout_ms / 1000.0,
        )
        frontend = ClusterFrontend(broker, node)
    else:
        frontend = BrokerFrontend(broker)
    # Workers serve this frontend over the ops RPC.  Both listeners offer
    # address, url, serve_forever() and close(), so one lifecycle follows.
    try:
        if args.workers:
            from repro.gateway.supervisor import WorkerPool

            listener = WorkerPool(frontend, config, workers=args.workers)
        else:
            listener = ScaliaGateway(frontend, **config["gateway"])
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        frontend.close()
        broker.close()
        return 2
    if node is not None:
        # The gateway URL rides join/heartbeat traffic so followers know
        # where to forward writes; it only exists once the socket is bound.
        node.gateway_url = listener.url
        node.start()
        rpc_host, rpc_port = node.rpc_address
        print(
            f"cluster node {node.node_id}: rpc {rpc_host}:{rpc_port}, "
            + (f"joining via {args.join}" if args.join else "bootstrap member")
            + f" (heartbeat {args.heartbeat_ms:g}ms, "
            f"election timeout {args.election_timeout_ms:g}ms)"
        )
    # Periodic optimization/scrub/audit is leader-owned in a cluster.
    control_plane = _start_control_plane(
        args, broker, gate=node.is_leader if node is not None else None
    )
    host, port = listener.address
    _print_recovery(args, broker)
    print(f"scalia gateway listening on http://{host}:{port} (providers={len(registry)})")
    if args.workers:
        print(listener.describe())
    # Shut down cleanly on SIGTERM too: orchestrators (and CI) send TERM,
    # and background shells may spawn children with SIGINT ignored.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        listener.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if control_plane is not None:
            control_plane.stop()
        listener.close()
        if node is not None:
            node.close()
        frontend.close()
        # Clean shutdown = snapshot + flush; the next boot recovers without
        # touching the WAL.  A SIGKILLed process skips this and replays.
        broker.close()
    return 0


def _gateway_client(args: argparse.Namespace):
    from repro.gateway.client import GatewayClient

    parts = urlsplit(args.url if "//" in args.url else f"//{args.url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 8090
    return GatewayClient(host, port, tenant=args.tenant)


#: Transport/HTTP failures a CLI command reports as a message + exit 1
#: instead of a traceback.  HTTPException covers the mid-transfer deaths
#: (IncompleteRead, BadStatusLine) that are not OSErrors.
_TRANSFER_ERRORS = (OSError, http.client.HTTPException)


def _cmd_put(args: argparse.Namespace) -> int:
    from repro.gateway.client import GatewayError

    if args.part_size < 1:
        print("--part-size must be >= 1", file=sys.stderr)
        return 2
    try:
        with _gateway_client(args) as client:
            if args.file == "-":
                source = sys.stdin.buffer
                size = None
            else:
                from repro.util.streams import ByteSource

                source = open(args.file, "rb")
                # probes seekable size and restores the position
                size = ByteSource(source).size_hint
            try:
                # Unknown sizes (stdin pipes) go multipart too: a single
                # PUT would hit the gateway's body cap on large streams,
                # and multipart handles non-seekable sources fine.
                if args.multipart or size is None or size > args.multipart_threshold:
                    info = client.put_multipart(
                        args.bucket, args.key, source,
                        part_size=args.part_size, mime=args.mime, rule=args.rule,
                        size_hint=size,
                    )
                else:
                    info = client.put_stream(
                        args.bucket, args.key, source,
                        size=size, mime=args.mime, rule=args.rule,
                    )
            finally:
                if source is not sys.stdin.buffer:
                    source.close()
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"put failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"stored {args.bucket}/{args.key}: {info['size']} bytes, "
        f"etag {info['etag']}, placement {info['placement']}"
        + (f", {info['stripes']} stripes" if "stripes" in info else "")
    )
    return 0


def _cmd_get(args: argparse.Namespace) -> int:
    import os

    from repro.gateway.client import GatewayError

    byte_range = None
    if args.range:
        try:
            if args.range.startswith("-"):
                byte_range = (None, int(args.range[1:]))  # suffix: last N bytes
            else:
                start, _, end = args.range.partition("-")
                byte_range = (int(start), int(end) if end else None)
        except ValueError:
            print(
                f"malformed --range {args.range!r}; want START-[END] or -SUFFIX",
                file=sys.stderr,
            )
            return 2
    try:
        with _gateway_client(args) as client:
            if args.output == "-":
                client.get_to_file(
                    args.bucket, args.key, sys.stdout.buffer, byte_range=byte_range
                )
                sys.stdout.buffer.flush()
                return 0
            # Download into a sibling temp file and rename on success: a
            # 404 or dropped connection must not wipe a pre-existing file.
            partial = f"{args.output}.part"
            try:
                with open(partial, "wb") as sink:
                    headers = client.get_to_file(
                        args.bucket, args.key, sink, byte_range=byte_range
                    )
                os.replace(partial, args.output)
            except BaseException:
                try:
                    os.unlink(partial)
                except OSError:
                    pass
                raise
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"get failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"fetched {args.bucket}/{args.key} -> {args.output} "
        f"({headers.get('content-length', '?')} bytes)"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.gateway.client import GatewayError

    try:
        with _gateway_client(args) as client:
            stats = client.stats()
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    print(f"period   : {stats['period']} (t={stats['now_hours']:.1f} h)")
    print(f"cost     : ${stats['cost_total']:.4f} total")
    print(f"pending  : {stats['pending_deletes']} postponed deletes")
    hedging = stats.get("hedging", {})
    if hedging:
        policy = hedging.get("policy", {})
        print(
            f"hedging  : {'on' if policy.get('enabled') else 'off'} — "
            f"{hedging.get('hedged_reads', 0)} degraded reads, "
            f"{hedging.get('hedges_fired', 0)} hedges fired, "
            f"{hedging.get('replacements', 0)} replacements, "
            f"{hedging.get('suppressed', 0)} suppressed"
        )
    health = stats.get("health", {})
    if health:
        print(f"\n{'provider':<10} {'up':>3} {'breaker':>9} {'ewma ms':>8} "
              f"{'err rate':>9} {'obs':>7} {'opens':>5}  fault profile")
        for name in sorted(health):
            h = health[name]
            profile = h.get("fault_profile")
            desc = "-"
            if profile:
                parts = [f"latency={profile['latency_ms']}ms"]
                if profile.get("jitter_ms"):
                    parts.append(f"jitter={profile['jitter_ms']}ms")
                if profile.get("error_rate"):
                    parts.append(f"error={profile['error_rate']}")
                if profile.get("slow"):
                    parts.append(f"slow×{profile['slow_multiplier']}")
                if profile.get("flap"):
                    parts.append(
                        f"flap={profile['flap']['up_ops']}/{profile['flap']['down_ops']}"
                    )
                desc = ",".join(parts)
            print(
                f"{name:<10} {'yes' if h.get('available') else 'NO':>3} "
                f"{h['breaker']:>9} {h['ewma_latency_ms']:>8.2f} "
                f"{h['ewma_error_rate']:>9.4f} {h['observations']:>7} "
                f"{h['opens']:>5}  {desc}"
            )
    return 0


# -- repro top ------------------------------------------------------------

_BREAKER_NAMES = {0: "closed", 1: "open", 2: "half_open"}


def _samples(snapshot: dict, name: str) -> list:
    return snapshot.get("metrics", {}).get(name, {}).get("samples", [])


def _counter_total(snapshot: dict, name: str, **want) -> float:
    """Sum a counter family, optionally filtered by label values."""
    total = 0.0
    for sample in _samples(snapshot, name):
        labels = sample.get("labels", {})
        if all(labels.get(k) == v for k, v in want.items()):
            total += sample.get("value", 0.0)
    return total


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:,.0f}{unit}" if unit == "B" else f"{n:,.1f}{unit}"
        n /= 1024.0
    return f"{n:,.1f}TiB"


_SPARK_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render ``values`` as a fixed-width unicode bar chart.

    The newest ``width`` values are scaled against the window's own
    min/max (a flat series renders as all-low bars, so change — not
    absolute level — is what catches the eye).
    """
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0:
        return _SPARK_BARS[0] * len(tail)
    return "".join(
        _SPARK_BARS[min(len(_SPARK_BARS) - 1, int((v - lo) / span * len(_SPARK_BARS)))]
        for v in tail
    )


def _series_values(history: dict, name: str) -> list:
    return [v for _, v in history.get("series", {}).get(name, [])]


def _series_deltas(history: dict, name: str) -> list:
    """Positive step deltas of a counter series (restart dips clamp to 0)."""
    values = _series_values(history, name)
    return [max(b - a, 0.0) for a, b in zip(values, values[1:])]


def render_trends(history: dict) -> list:
    """Sparkline trend lines from a ``GET /history`` document."""
    rows = [
        ("req", _series_deltas(history, "requests.total")),
        ("err", _series_deltas(history, "errors.total")),
        ("$/GB·p", _series_values(history, "cost.per_gb_period")),
    ]
    lines = []
    for label, values in rows:
        if len(values) >= 2:
            lines.append(f"  {label:<7} {sparkline(values)}  (last {values[-1]:g})")
    return lines


def render_alerts(alerts: dict) -> list:
    """SLO burn-rate lines from a ``GET /alerts`` document."""
    lines = []
    for rule in alerts.get("rules", []):
        burn = rule.get("burn", {})
        state = "FIRING" if rule.get("active") else "ok"
        lines.append(
            f"  {rule.get('name', '?'):<14} burn {burn.get('fast', 0.0):6.2f} fast "
            f"/ {burn.get('slow', 0.0):6.2f} slow  "
            f"(threshold {rule.get('threshold', 1.0):g})  {state}"
        )
    return lines


def render_top(
    snapshot: dict,
    previous: Optional[tuple] = None,
    history: Optional[dict] = None,
    alerts: Optional[dict] = None,
) -> str:
    """One ``repro top`` frame from a ``/metrics?format=json`` snapshot.

    ``previous`` is the ``(snapshot, monotonic_seconds)`` pair of the
    prior frame (with the current frame's capture time appended by the
    caller as ``(prev_snapshot, prev_t, now_t)``); when present, request
    and byte rates are computed over that window instead of shown as
    totals-only.  ``history`` (a ``GET /history`` document) adds
    sparkline trend rows; ``alerts`` (``GET /alerts``) adds the SLO
    burn-rate section.  Pure function so tests can drive it without a
    terminal.
    """
    lines = []
    requests_now = _counter_total(snapshot, "scalia_gateway_requests_total")
    errors_now = sum(
        sample.get("value", 0.0)
        for sample in _samples(snapshot, "scalia_gateway_requests_total")
        if str(sample.get("labels", {}).get("status", "")).startswith(("4", "5"))
    )
    rate = ""
    if previous is not None:
        prev_snapshot, prev_t, now_t = previous
        dt = max(now_t - prev_t, 1e-9)
        delta = requests_now - _counter_total(prev_snapshot, "scalia_gateway_requests_total")
        rate = f"  |  {max(delta, 0.0) / dt:8.1f} req/s"
    inflight = _counter_total(snapshot, "scalia_gateway_inflight_requests")
    lines.append(
        f"requests {requests_now:,.0f}  errors {errors_now:,.0f}  "
        f"inflight {inflight:,.0f}{rate}"
    )

    hedges = {
        "reads": _counter_total(snapshot, "scalia_hedged_reads_total"),
        "fired": _counter_total(snapshot, "scalia_hedges_fired_total"),
        "repl": _counter_total(snapshot, "scalia_hedge_replacements_total"),
        "supp": _counter_total(snapshot, "scalia_hedges_suppressed_total"),
    }
    lines.append(
        f"hedging  {hedges['reads']:,.0f} degraded reads, "
        f"{hedges['fired']:,.0f} fired, {hedges['repl']:,.0f} replacements, "
        f"{hedges['supp']:,.0f} suppressed"
    )

    op_samples = _samples(snapshot, "scalia_engine_op_seconds")
    if op_samples:
        lines.append("")
        lines.append(f"{'op':<14} {'count':>9} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}")
        for sample in op_samples:
            if not sample.get("count"):
                continue
            op = sample.get("labels", {}).get("op", "?")
            lines.append(
                f"{op:<14} {sample['count']:>9,.0f} "
                f"{sample.get('p50', 0.0) * 1000:>9.2f} "
                f"{sample.get('p95', 0.0) * 1000:>9.2f} "
                f"{sample.get('p99', 0.0) * 1000:>9.2f}"
            )

    providers = sorted(
        {
            sample.get("labels", {}).get("provider")
            for family in ("scalia_provider_up", "scalia_provider_op_seconds")
            for sample in _samples(snapshot, family)
            if sample.get("labels", {}).get("provider")
        }
    )
    if providers:
        breaker = {
            sample["labels"]["provider"]: _BREAKER_NAMES.get(
                int(sample.get("value", 0)), "?"
            )
            for sample in _samples(snapshot, "scalia_breaker_state")
            if "provider" in sample.get("labels", {})
        }
        lines.append("")
        lines.append(
            f"{'provider':<10} {'up':>3} {'breaker':>9} {'ops':>9} {'p99 ms':>8} "
            f"{'errors':>7} {'stored':>10} {'in':>10} {'out':>10}"
        )
        for name in providers:
            count = 0.0
            p99 = 0.0
            for sample in _samples(snapshot, "scalia_provider_op_seconds"):
                if sample.get("labels", {}).get("provider") == name:
                    count += sample.get("count", 0)
                    p99 = max(p99, sample.get("p99", 0.0))
            up = _counter_total(snapshot, "scalia_provider_up", provider=name)
            lines.append(
                f"{name:<10} {'yes' if up else 'NO':>3} "
                f"{breaker.get(name, '?'):>9} {count:>9,.0f} {p99 * 1000:>8.2f} "
                f"{_counter_total(snapshot, 'scalia_provider_errors_total', provider=name):>7,.0f} "
                f"{_fmt_bytes(_counter_total(snapshot, 'scalia_provider_stored_bytes', provider=name)):>10} "
                f"{_fmt_bytes(_counter_total(snapshot, 'scalia_provider_bytes_total', provider=name, direction='in')):>10} "
                f"{_fmt_bytes(_counter_total(snapshot, 'scalia_provider_bytes_total', provider=name, direction='out')):>10}"
            )
    if history is not None:
        trend = render_trends(history)
        if trend:
            lines.append("")
            lines.append("trend (per history sample)")
            lines.extend(trend)
    if alerts is not None and alerts.get("rules"):
        lines.append("")
        lines.append("slo")
        lines.extend(render_alerts(alerts))
        active = alerts.get("active", [])
        if active:
            lines.append(
                "  ACTIVE: " + ", ".join(str(a.get("name", "?")) for a in active)
            )
    if not snapshot.get("metrics"):
        lines.append("")
        lines.append("no metric series: is the gateway running with --no-metrics?")
    return "\n".join(lines)


def _observability_docs(client) -> tuple:
    """Best-effort ``(history, alerts)`` fetch — older gateways lack them."""
    from repro.gateway.client import GatewayError

    history = alerts = None
    try:
        history = client.history()
        alerts = client.alerts()
    except (GatewayError, *_TRANSFER_ERRORS):
        pass
    return history, alerts


def _cmd_top(args: argparse.Namespace) -> int:
    import json as json_mod
    import time

    from repro.gateway.client import GatewayError

    iterations = 1 if args.once or args.json else args.iterations
    previous: Optional[tuple] = None
    iteration = 0
    try:
        with _gateway_client(args) as client:
            while iterations <= 0 or iteration < iterations:
                if iteration:
                    time.sleep(args.interval)
                snapshot = client.metrics()
                now = time.monotonic()
                history, alerts = _observability_docs(client)
                if args.json:
                    print(json_mod.dumps({
                        "metrics": snapshot.get("metrics", {}),
                        "history": history,
                        "alerts": alerts,
                    }, indent=2, sort_keys=True))
                    iteration += 1
                    continue
                window = None
                if previous is not None:
                    window = (previous[0], previous[1], now)
                frame = render_top(snapshot, window, history=history, alerts=alerts)
                if not args.no_clear and iterations != 1:
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                previous = (snapshot, now)
                iteration += 1
    except KeyboardInterrupt:
        return 0
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"top failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _format_event(event: dict) -> str:
    """One journal event as a human-readable line."""
    import datetime

    ts = datetime.datetime.fromtimestamp(
        event.get("ts", 0.0), tz=datetime.timezone.utc
    ).strftime("%H:%M:%S")
    skip = {"seq", "ts", "type", "key"}
    fields = " ".join(
        f"{k}={event[k]!r}" if isinstance(event[k], str) else f"{k}={event[k]}"
        for k in sorted(event)
        if k not in skip
    )
    subject = f" [{event['key']}]" if event.get("key") else ""
    return f"#{event.get('seq', '?'):<6} {ts} {event.get('type', '?'):<22}{subject} {fields}"


def _cmd_events(args: argparse.Namespace) -> int:
    import json as json_mod
    import time

    from repro.gateway.client import GatewayError

    since = args.since
    try:
        with _gateway_client(args) as client:
            while True:
                doc = client.events(
                    type=args.type, since=since, key=args.key, limit=args.limit
                )
                for event in doc["events"]:
                    if args.json:
                        print(json_mod.dumps(event, sort_keys=True))
                    else:
                        print(_format_event(event))
                since = doc["latest_seq"]
                if not args.follow:
                    if not doc["events"]:
                        print("no events matched", file=sys.stderr)
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"events failed: {exc}", file=sys.stderr)
        return 1


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.gateway.client import GatewayError

    bucket, slash, key = args.target.partition("/")
    if not slash or not key:
        print(f"explain wants BUCKET/KEY, got {args.target!r}", file=sys.stderr)
        return 2
    try:
        with _gateway_client(args) as client:
            doc = client.explain(bucket, key)
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(doc, indent=2, sort_keys=True))
        return 0
    placement = doc.get("placement", {})
    projection = doc.get("projection", {})
    costs = doc.get("costs", {})
    print(f"object    : {doc.get('bucket')}/{doc.get('key')} "
          f"({doc.get('size', 0):,} bytes, class {doc.get('class', '?')})")
    print(f"rule      : {doc.get('rule', '?')}")
    print(f"placement : {placement.get('label', '?')}  "
          f"(m={placement.get('m')}, providers={', '.join(placement.get('providers', []))})")
    print(f"projection: {projection.get('reads_per_period', 0.0):g} reads/period, "
          f"{projection.get('writes_per_period', 0.0):g} writes/period over "
          f"{doc.get('horizon_periods', 0.0):g} periods")
    current = costs.get("current")
    print(f"cost      : current ${current:.6f}" if current is not None
          else "cost      : current n/a (provider left the pool)")
    alt = costs.get("best_alternative")
    if alt:
        saving = costs.get("switch_saving") or 0.0
        verdict = f"would save ${saving:.6f}" if saving > 0 else "no better option"
        print(f"            best alternative {alt['placement']} ${alt['cost']:.6f} ({verdict})")
    full = costs.get("full_replication")
    if full is not None and current:
        print(f"            full replication ${full:.6f} "
              f"({full / current:.2f}x current, the paper's baseline)")
    migration = doc.get("last_migration")
    if migration:
        agrees = "agrees with" if migration.get("agrees") else "DISAGREES with"
        print(f"migration : period {migration.get('period')}: "
              f"{migration.get('from')} -> {migration.get('to')}; "
              f"logged saving ${migration.get('logged_saving', 0.0):.6f} "
              f"{agrees} live replay ${migration.get('replayed_saving', 0.0):.6f}")
    else:
        print("migration : never migrated")
    events = doc.get("events", [])
    if events:
        print(f"\ndecision log ({len(events)} events):")
        for event in events[-args.limit:]:
            print(f"  {_format_event(event)}")
    return 0



def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.gateway.client import GatewayError

    try:
        with _gateway_client(args) as client:
            doc = client.cluster()
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"cluster status failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"node     : {doc.get('node_id')} ({doc.get('role')}, term {doc.get('term')})")
    print(f"leader   : {doc.get('leader') or '-'}  "
          f"gateway {doc.get('leader_gateway') or '-'}")
    print(f"log      : last_seq={doc.get('last_seq')} "
          f"commit_seq={doc.get('commit_seq')} "
          f"last_term={doc.get('last_record_term')} "
          f"snapshot_floor={doc.get('snapshot_floor_seq')}")
    members = doc.get("members", {})
    print(f"quorum   : {doc.get('quorum')} of {len(members)} members  "
          f"(heartbeat {doc.get('heartbeat_s', 0) * 1000:g}ms, "
          f"election timeout {doc.get('election_timeout_s', 0) * 1000:g}ms)")
    if members:
        print(f"\n{'member':<24} {'rpc endpoint':<22} {'match':>8} {'alive':>6}  gateway")
        for member_id in sorted(members):
            info = members[member_id]
            endpoint = f"{info.get('host')}:{info.get('port')}"
            match = info.get("match_seq")
            alive = info.get("alive")
            marker = " *" if member_id == doc.get("leader") else (
                " ." if member_id == doc.get("node_id") else "  "
            )
            print(
                f"{member_id + marker:<24} {endpoint:<22} "
                f"{'-' if match is None else match:>8} "
                f"{'-' if alive is None else ('yes' if alive else 'NO'):>6}  "
                f"{info.get('gateway') or '-'}"
            )
        print("\n  (* leader, . this node; match/alive known on the leader only)")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.gateway.client import GatewayError

    try:
        with _gateway_client(args) as client:
            report = client.audit(repair=not args.no_repair, seed=args.seed)
    except (GatewayError, *_TRANSFER_ERRORS) as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"audit sweep (seed {report.get('seed')}): "
          f"{report.get('objects_audited', 0):,} objects, "
          f"{report.get('chunks_audited', 0):,} chunks challenged, "
          f"{report.get('leaves_sampled', 0):,} leaves sampled, "
          f"{report.get('proof_bytes', 0):,} proof bytes")
    print(f"proofs    : {report.get('proofs_ok', 0):,} ok, "
          f"{report.get('proofs_failed', 0):,} failed, "
          f"{report.get('chunks_missing', 0):,} missing, "
          f"{report.get('chunks_skipped', 0):,} skipped, "
          f"{report.get('chunks_unrooted', 0):,} unrooted (await scrub backfill)")
    print(f"repairs   : {report.get('repaired', 0):,} repaired, "
          f"{report.get('unrepairable', 0):,} unrepairable")
    for problem in report.get("problems", []):
        fixed = "repaired" if problem.get("repaired") else "NOT repaired"
        print(f"  {problem.get('container')}/{problem.get('key')} "
              f"chunk {problem.get('chunk_index')} stripe {problem.get('stripe')} "
              f"@ {problem.get('provider')}: {problem.get('status')} ({fixed})")
    # A failed proof that stayed unrepaired means real exposure: exit
    # nonzero so cron/CI notices.
    return 1 if report.get("unrepairable", 0) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalia (SC'12) reproduction — adaptive multi-cloud storage",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="print the Figure-3 provider catalog")
    cat.add_argument("--cheapstor", action="store_true", help="include CheapStor")
    cat.set_defaults(func=_cmd_catalog)

    place = sub.add_parser("placement", help="best provider set for one object")
    place.add_argument("--size", type=int, default=10**6, help="object bytes")
    place.add_argument("--durability", type=float, default=0.99999)
    place.add_argument("--availability", type=float, default=0.9999)
    place.add_argument("--lockin", type=float, default=1.0)
    place.add_argument("--reads-per-hour", type=float, default=0.0)
    place.add_argument("--writes-per-hour", type=float, default=0.0)
    place.add_argument("--horizon-hours", type=float, default=730.0)
    place.add_argument("--cheapstor", action="store_true")
    place.add_argument("--top", type=int, default=5, help="alternatives to list")
    place.set_defaults(func=_cmd_placement)

    scen = sub.add_parser("scenario", help="run a paper evaluation scenario")
    scen.add_argument("name", choices=sorted(SCENARIOS))
    scen.add_argument(
        "--policy",
        default="scalia",
        help='"scalia", "scalia:wait" or a comma list like "S3(h),S3(l)"',
    )
    scen.add_argument("--horizon", type=int, default=None, help="sampling periods")
    scen.add_argument("--ideal", action="store_true", help="compare to the ideal")
    scen.set_defaults(func=_cmd_scenario)

    serve = sub.add_parser("serve", help="serve the broker over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8090, help="0 picks a free port")
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pre-fork N gateway worker processes sharing the listen port "
        "(SO_REUSEPORT); each worker does its own HTTP + erasure coding "
        "while this process keeps sole ownership of metadata and, with "
        "--cluster-listen, of the replication node (0 = in-process gateway)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="cap concurrent connections per gateway (worker); excess "
        "connections get an immediate 503 + Retry-After",
    )
    serve.add_argument(
        "--tick-every",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="close one sampling period (stats flush + optimization round) "
        "every N seconds on a background thread (0 disables)",
    )
    serve.add_argument(
        "--scrub-every",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="run a background integrity scrub every N seconds (0 disables)",
    )
    serve.add_argument(
        "--optimizer-batch",
        type=int,
        default=64,
        help="row keys an optimization round claims per batch before yielding",
    )
    serve.add_argument(
        "--scrub-batch",
        type=int,
        default=64,
        help="row keys a scrub pass verifies per batch before yielding",
    )
    serve.add_argument(
        "--audit-every",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="run a background Merkle possession audit every N seconds "
        "(0 disables)",
    )
    serve.add_argument(
        "--audit-batch",
        type=int,
        default=64,
        help="row keys an audit sweep challenges per batch before yielding",
    )
    serve.add_argument("--datacenters", type=int, default=1)
    serve.add_argument("--engines", type=int, default=2, help="engines per datacenter")
    serve.add_argument("--cache-bytes", type=int, default=0, help="per-DC cache size")
    serve.add_argument("--cheapstor", action="store_true", help="include CheapStor")
    serve.add_argument(
        "--data-dir",
        default=None,
        help="directory for durable chunk segments + metadata WAL; "
        "restarts (even after SIGKILL) recover every acknowledged write",
    )
    serve.add_argument(
        "--stripe-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="stripe size of the streaming data plane (default 8 MiB)",
    )
    serve.add_argument(
        "--storage-sync",
        choices=("os", "always", "never"),
        default="os",
        help="durability flush policy: 'os' survives process crashes, "
        "'always' adds fsync (power-loss safe), 'never' is test-only",
    )
    serve.add_argument(
        "--cluster-listen",
        default=None,
        metavar="HOST:PORT",
        help="enable cluster mode: bind the replication RPC endpoint here "
        "(port 0 picks a free port); requires --data-dir, composes with "
        "--workers",
    )
    serve.add_argument(
        "--join",
        default=None,
        metavar="HOST:PORT",
        help="an existing member's replication endpoint to join the cluster "
        "through (omit on the first, bootstrap node)",
    )
    serve.add_argument(
        "--node-id",
        default=None,
        help="stable cluster identity for this broker (default: the "
        "--cluster-listen endpoint; keep it identical across restarts)",
    )
    serve.add_argument(
        "--heartbeat-ms",
        type=float,
        default=100.0,
        help="leader heartbeat interval in cluster mode (default 100)",
    )
    serve.add_argument(
        "--election-timeout-ms",
        type=float,
        default=1000.0,
        help="base election timeout; each node randomizes in [1x, 2x) so "
        "elections rarely split (default 1000)",
    )
    serve.add_argument(
        "--fault",
        action="append",
        metavar="PROVIDER:SPEC",
        help="install a fault profile at boot, e.g. "
        "'S3(h):latency=500ms,jitter=50ms,error=0.05,seed=7' "
        "(repeatable; also injectable at runtime via POST /faults)",
    )
    serve.add_argument(
        "--no-hedge",
        action="store_true",
        help="disable hedged degraded-mode reads (serial chunk fetching only)",
    )
    serve.add_argument(
        "--hedge-deadline-ms",
        type=float,
        default=50.0,
        help="minimum straggler deadline before a read hedges to a parity "
        "provider (adaptive above this floor; default 50)",
    )
    serve.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="structured log encoding on stderr (default text)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum structured log level (default info)",
    )
    serve.add_argument(
        "--trace-slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="requests at or above this duration dump their full span tree "
        "as a request.slow log event (default: disabled)",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the metrics registry (no /metrics series, no timing "
        "overhead; /metrics then serves an empty exposition)",
    )
    serve.add_argument(
        "--no-events",
        action="store_true",
        help="disable the decision-event journal (/events serves an empty "
        "journal, placement/migration/breaker decisions go unrecorded)",
    )
    serve.add_argument(
        "--event-log",
        default=None,
        metavar="PATH",
        help="append every decision event as one JSON line to this file "
        "(the in-memory ring keeps serving /events either way)",
    )
    serve.add_argument(
        "--history-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds between /history time-series samples (default 10)",
    )
    serve.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        help="replace the default SLO rules, e.g. 'availability:target=0.999' "
        "or 'p99:target=250ms,fast=60,slow=300' or 'cost_gb:target=0.05' "
        "(repeatable; see docs/OBSERVABILITY.md)",
    )
    serve.set_defaults(func=_cmd_serve)

    def add_gateway_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:8090", help="gateway URL")
        p.add_argument("--tenant", default="public", help="tenant id header")

    put = sub.add_parser("put", help="stream a file (or stdin) into the gateway")
    put.add_argument("bucket")
    put.add_argument("key")
    put.add_argument("file", help="source path, or - for stdin")
    put.add_argument("--mime", default="application/octet-stream")
    put.add_argument("--rule", default=None, help="storage rule name")
    put.add_argument(
        "--multipart", action="store_true", help="force the multipart protocol"
    )
    put.add_argument(
        "--multipart-threshold",
        type=int,
        default=64 * 1024 * 1024,
        help="sizes above this auto-switch to multipart (bytes)",
    )
    put.add_argument(
        "--part-size", type=int, default=8 * 1024 * 1024, help="multipart part bytes"
    )
    add_gateway_args(put)
    put.set_defaults(func=_cmd_put)

    get = sub.add_parser("get", help="stream an object from the gateway to disk")
    get.add_argument("bucket")
    get.add_argument("key")
    get.add_argument("-o", "--output", default="-", help="sink path, or - for stdout")
    get.add_argument(
        "--range",
        default=None,
        help="inclusive byte range START-[END] (e.g. 100-199, 100-) "
        "or -SUFFIX for the last N bytes",
    )
    add_gateway_args(get)
    get.set_defaults(func=_cmd_get)

    status = sub.add_parser(
        "status", help="operational snapshot (health, breakers, hedging)"
    )
    add_gateway_args(status)
    status.set_defaults(func=_cmd_status)

    top = sub.add_parser(
        "top", help="live metrics table (req/s, op latency, provider health)"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N frames (0 = run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (for pipes/tests)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no screen clearing, no loop)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="dump one combined JSON document (metrics + history + alerts) "
        "and exit; implies --once",
    )
    add_gateway_args(top)
    top.set_defaults(func=_cmd_top)

    events = sub.add_parser(
        "events", help="query (or tail) the decision-event journal"
    )
    events.add_argument(
        "--type",
        default=None,
        help="event type, exact ('migration.committed') or prefix ('migration.')",
    )
    events.add_argument(
        "--key", default=None, help="subject filter, e.g. BUCKET/KEY or a provider"
    )
    events.add_argument(
        "--since", type=int, default=None, help="exclusive sequence cursor"
    )
    events.add_argument(
        "--limit", type=int, default=50, help="newest N events per query"
    )
    events.add_argument(
        "--follow", action="store_true", help="poll for new events until interrupted"
    )
    events.add_argument(
        "--interval", type=float, default=2.0, help="seconds between --follow polls"
    )
    events.add_argument("--json", action="store_true", help="one JSON object per line")
    add_gateway_args(events)
    events.set_defaults(func=_cmd_events)

    cluster = sub.add_parser(
        "cluster", help="inspect a multi-node broker cluster"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_status = cluster_sub.add_parser(
        "status", help="one node's view: role, term, members, replication lag"
    )
    cluster_status.add_argument(
        "--json", action="store_true", help="raw /cluster document"
    )
    add_gateway_args(cluster_status)
    cluster_status.set_defaults(func=_cmd_cluster_status)

    explain = sub.add_parser(
        "explain",
        help="why an object lives where it lives (placement, costs, migrations)",
    )
    explain.add_argument("target", metavar="BUCKET/KEY")
    explain.add_argument(
        "--limit", type=int, default=10, help="decision-log events to show"
    )
    explain.add_argument("--json", action="store_true", help="raw /explain document")
    add_gateway_args(explain)
    explain.set_defaults(func=_cmd_explain)

    audit = sub.add_parser(
        "audit",
        help="challenge every provider to prove chunk possession "
        "(sampled Merkle proofs; failed proofs repair + open the breaker)",
    )
    audit.add_argument(
        "--no-repair", action="store_true",
        help="report failed proofs without repairing or opening breakers",
    )
    audit.add_argument(
        "--seed", type=int, default=None,
        help="pin the sweep's leaf sampling for replay",
    )
    audit.add_argument("--json", action="store_true", help="raw /audit report")
    add_gateway_args(audit)
    audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
