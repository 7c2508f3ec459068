"""Gateway throughput: requests/sec and tail latency over real HTTP.

Not a paper figure — the paper's evaluation is cost-centric — but the
ROADMAP's "heavy traffic" goal needs a serving-path number.  The benchmark
boots the S3-style gateway on loopback, hammers it with 16 concurrent
keep-alive clients against the in-memory simulated providers, and reports
sustained req/s plus p50/p95/p99 latency.  Request threads call straight
into the broker: non-conflicting requests run in parallel under its own
striped-lock concurrency.

Two scenarios run: ``read_heavy`` (10% PUT — the object-store steady
state) and ``mixed`` (50% PUT).  A standalone run also measures the
**control-plane stall**: client GET latency while a ``POST /tick``
optimization round over thousands of objects runs concurrently.  The
round claims objects in batches under striped locks, so the tail stays at
normal-request scale (bounded by one batch).  Everything is written to
``BENCH_gateway.json``.

Note on parallel speedup: raw req/s only scales with >1 CPU core
(CPython's GIL serializes the compute either way); ``cpu_count`` is
recorded alongside the numbers, and the ``--workers {1,2,4}`` sweep is
the per-box scaling measurement.

Acceptance floor: >= 1000 req/s with zero errors at 16 clients in every
scenario.
"""

import json
import os
import sys
import threading
import time

# Make `python benchmarks/bench_gateway_throughput.py` work without an
# installed package or PYTHONPATH (pytest runs get this from conftest.py).
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import LoadGenerator
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.obs.logging import LogConfig, StructuredLogger

from _helpers import run_once

CLIENTS = 16
REQUESTS_PER_CLIENT = 250
PAYLOAD_BYTES = 256
MIN_RPS = 1000.0

#: (name, put_ratio): the steady-state read-mostly workload plus the
#: write-heavy mix that stresses the striped exclusive locks.
SCENARIOS = (("read_heavy", 0.1), ("mixed", 0.5))

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_gateway.json"
)


def _measure(
    put_ratio: float,
    *,
    requests_per_client: int = REQUESTS_PER_CLIENT,
    enable_metrics: bool = True,
):
    frontend = BrokerFrontend(Scalia(enable_metrics=enable_metrics))
    # Warning-level logger: the bench measures broker throughput, not the
    # cost of writing a request.complete line to stderr per request.
    quiet = StructuredLogger("gateway", LogConfig(level="warning"))
    try:
        with ScaliaGateway(frontend, port=0, logger=quiet).start() as gateway:
            host, port = gateway.address
            generator = LoadGenerator(
                host,
                port,
                clients=CLIENTS,
                put_ratio=put_ratio,
                payload_bytes=PAYLOAD_BYTES,
            )
            return generator.run(requests_per_client=requests_per_client, seed=1)
    finally:
        frontend.close()


@pytest.mark.parametrize("scenario", [name for name, _ in SCENARIOS])
def test_gateway_throughput(benchmark, scenario):
    put_ratio = dict(SCENARIOS)[scenario]
    report = run_once(benchmark, lambda: _measure(put_ratio))
    print(f"\n{scenario}: {report.summary()}")
    assert report.errors == 0
    assert report.total_requests == CLIENTS * REQUESTS_PER_CLIENT
    assert report.rps >= MIN_RPS, (
        f"{scenario} sustained only {report.rps:.0f} req/s "
        f"(floor {MIN_RPS:.0f})"
    )


#: Metrics-overhead guard: the observability layer (histograms on every
#: request/engine/provider op, trace spans, the decision-event journal)
#: must cost < 3% of the read-heavy serving path vs a
#: ``--no-metrics --no-events`` broker.
#:
#: Why not just compare two LoadGenerator runs?  The true instrumentation
#: cost is a few microseconds on a several-hundred-microsecond request —
#: far below this host's noise floor for sequential whole-run A/B:
#: 16-thread runs swing by double digits round to round (GIL convoys),
#: and even two *identical* broker builds differ by several microseconds
#: per op (allocator/placement layout luck).  So the guard measures
#: differentially: boot a metrics-on and a metrics-off gateway **live at
#: the same time**, drive both with one client that alternates individual
#: requests between them (so drift in CPU frequency, page cache and
#: co-tenants lands on both arms symmetrically), and summarize each arm
#: by its per-op **median** latencies recombined at the scenario's 9:1
#: weights (medians shrug off the ms-scale stragglers that poison
#: per-arm sums).  Instance-layout luck still skews any single pair
#: (with random sign), so the guard repeats over ``OVERHEAD_PAIRS``
#: fresh instance pairs — alternating which arm boots first — and
#: asserts on the median across pairs.
OVERHEAD_BUDGET_PCT = 3.0
OVERHEAD_PAIRS = 10
OVERHEAD_REQUESTS = 600  # timed requests per arm per pair (9 GET : 1 PUT)
OVERHEAD_WARMUP = 60
OVERHEAD_KEYS = 10


def _overhead_arm(enabled: bool):
    """Boot one live gateway arm and seed its working set."""
    from repro.gateway.client import GatewayClient

    frontend = BrokerFrontend(Scalia(enable_metrics=enabled, enable_events=enabled))
    quiet = StructuredLogger("gateway", LogConfig(level="warning"))
    ctx = ScaliaGateway(frontend, port=0, logger=quiet).start()
    gateway = ctx.__enter__()
    host, port = gateway.address
    client = GatewayClient(host, port, tenant="bench")
    payload = b"x" * PAYLOAD_BYTES
    for i in range(OVERHEAD_KEYS):
        client.put("bench", f"k{i}", payload)
    return frontend, ctx, client


def _overhead_request(client, i: int, payload: bytes) -> None:
    """Request ``i`` of the read-heavy mix: 9 GET : 1 PUT over 10 keys."""
    key = f"k{i % OVERHEAD_KEYS}"
    if i % 10 == 9:
        client.put("bench", key, payload)
    else:
        client.get("bench", key)


def _measure_metrics_overhead() -> dict:
    import gc
    import statistics

    payload = b"x" * PAYLOAD_BYTES
    pair_pcts = []
    get_pcts = []
    on_us = off_us = 0.0
    for pair_no in range(OVERHEAD_PAIRS):
        # Start each pair from a collected heap: when this runs after the
        # throughput scenarios (bench main, full pytest run) the garbage
        # from prior brokers otherwise triggers mid-measurement gen2
        # collections that land on arms unevenly.
        gc.collect()
        # Alternate build order: instance layout luck must not correlate
        # with which arm is measured.
        build_order = (True, False) if pair_no % 2 == 0 else (False, True)
        arms = {enabled: _overhead_arm(enabled) for enabled in build_order}
        try:
            for i in range(OVERHEAD_WARMUP):
                for enabled in (True, False):
                    _overhead_request(arms[enabled][2], i, payload)
            # Each arm is summarized by its **median** GET and PUT
            # latency, recombined at the scenario's 9:1 weights: per-arm
            # sums are hostage to ms-scale stragglers (scheduler
            # preemption, hedge timers) landing unevenly, and the
            # medians ARE the steady state this guard is about.
            lat = {
                True: {"get": [], "put": []},
                False: {"get": [], "put": []},
            }
            for i in range(OVERHEAD_REQUESTS):
                order = (True, False) if i % 2 == 0 else (False, True)
                op = "put" if i % 10 == 9 else "get"
                for enabled in order:
                    start = time.perf_counter()
                    _overhead_request(arms[enabled][2], i, payload)
                    lat[enabled][op].append(time.perf_counter() - start)
        finally:
            for frontend, ctx, _client in arms.values():
                ctx.__exit__(None, None, None)
                frontend.close()
        med = {
            e: {op: statistics.median(xs) for op, xs in ops.items()}
            for e, ops in lat.items()
        }
        # Steady-state wall time of the 9:1 mix, from per-op medians.
        mix_on = 9 * med[True]["get"] + med[True]["put"]
        mix_off = 9 * med[False]["get"] + med[False]["put"]
        pair_pcts.append(100.0 * (mix_on - mix_off) / mix_off)
        get_pcts.append(
            100.0 * (med[True]["get"] - med[False]["get"]) / med[False]["get"]
        )
        on_us += med[True]["get"] * 1e6
        off_us += med[False]["get"] * 1e6
    return {
        "scenario": "read_heavy",
        "protocol": (
            "paired live gateways, alternating per-request A/B; per "
            "pair, per-op median latencies recombined at the 9:1 mix "
            f"weights; asserted on the median over {OVERHEAD_PAIRS} "
            "instance pairs"
        ),
        "pairs": OVERHEAD_PAIRS,
        "requests_per_arm_per_pair": OVERHEAD_REQUESTS,
        "get_us_metrics_on": round(on_us / OVERHEAD_PAIRS, 1),
        "get_us_metrics_off": round(off_us / OVERHEAD_PAIRS, 1),
        "pair_overhead_pcts": [round(p, 2) for p in pair_pcts],
        "overhead_pct": round(statistics.median(pair_pcts), 2),
        "get_only_overhead_pct": round(statistics.median(get_pcts), 2),
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }


def test_metrics_overhead_read_heavy():
    result = _measure_metrics_overhead()
    print(
        f"\nmetrics overhead (read_heavy): "
        f"GET on {result['get_us_metrics_on']}us, "
        f"off {result['get_us_metrics_off']}us, pairs "
        f"{result['pair_overhead_pcts']} -> median {result['overhead_pct']}% "
        f"(GET-only {result['get_only_overhead_pct']}%)"
    )
    assert result["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"metrics cost {result['overhead_pct']}% of the read-heavy serving "
        f"path (budget {OVERHEAD_BUDGET_PCT}%, "
        f"pairs {result['pair_overhead_pcts']})"
    )


#: ``repro serve --workers N`` scaling sweep.  Each point boots a real
#: pre-forked process tree (supervisor + broker + N gateway workers on a
#: shared SO_REUSEPORT socket) and drives it over HTTP.  On a 1-core CI
#: container N processes are just context switching, so the sweep
#: asserts correctness parity (zero errors, full request counts) and
#: records the curve + core count; the speedup itself only materializes
#: with cores >= workers.
WORKER_SWEEP = (1, 2, 4)
WORKER_SWEEP_REQUESTS = 100  # per client; process startup dominates otherwise


def _measure_prefork(workers: int, put_ratio: float, requests_per_client: int):
    import re
    import signal
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", str(workers), "--port", "0", "--log-level", "warning"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                if proc.poll() is not None:
                    raise RuntimeError("serve exited during startup")
                continue
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError("serve never reported its port")
        import http.client

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    break
                conn.close()
            except OSError:
                pass
            time.sleep(0.2)
        generator = LoadGenerator(
            "127.0.0.1",
            port,
            clients=CLIENTS,
            put_ratio=put_ratio,
            payload_bytes=PAYLOAD_BYTES,
        )
        return generator.run(requests_per_client=requests_per_client, seed=1)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=40)
        except subprocess.TimeoutExpired:
            proc.kill()


def _measure_worker_sweep(requests_per_client: int = WORKER_SWEEP_REQUESTS) -> dict:
    curve = {}
    for workers in WORKER_SWEEP:
        report = _measure_prefork(workers, 0.5, requests_per_client)
        curve[str(workers)] = {
            "rps": round(report.rps, 1),
            "p50_ms": round(report.percentile_ms(50), 3),
            "p99_ms": round(report.percentile_ms(99), 3),
            "errors": report.errors,
            "total_requests": report.total_requests,
        }
    base = curve[str(WORKER_SWEEP[0])]["rps"]
    for workers in WORKER_SWEEP:
        entry = curve[str(workers)]
        entry["scaling_vs_1"] = round(entry["rps"] / base, 3) if base else None
    return {
        "cpu_count": os.cpu_count(),
        "put_ratio": 0.5,
        "requests_per_client": requests_per_client,
        "workers": curve,
        "note": (
            "real serve --workers N process trees over HTTP; speedup needs "
            "cores >= workers — on a 1-core host the curve is flat and only "
            "the zero-error parity is asserted"
        ),
    }


@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_prefork_worker_parity(workers):
    report = _measure_prefork(workers, 0.5, 50)
    print(f"\n--workers {workers}: {report.summary()}")
    assert report.errors == 0
    assert report.total_requests == CLIENTS * 50


#: Objects seeded for the control-plane stall measurement.  Every one of
#: them is in the optimization round's accessed set, so the round's
#: length scales with this count.
STALL_OBJECTS = 4000


def _measure_tick_stall() -> dict:
    """GET latency percentiles while an optimization round runs.

    Seeds ``STALL_OBJECTS`` objects, then serves GETs from 4 clients
    while one thread fires ``POST /tick`` — the whole Figure-7 round over
    every seeded object.  Returns latency percentiles plus the worst
    single GET, which is the number the bounded-stall contract caps.
    """
    from repro.gateway.client import GatewayClient

    frontend = BrokerFrontend(Scalia())
    broker = frontend.broker
    # Seed through the namespace mapper so the HTTP clients see the keys.
    container = frontend.mapper.internal_container("public", "stall")
    payload = b"s" * 512
    for i in range(STALL_OBJECTS):
        broker.put(container, f"k{i}", payload)
    try:
        with ScaliaGateway(frontend, port=0).start() as gateway:
            host, port = gateway.address
            latencies: list = []
            tick_seconds: list = []
            stop = threading.Event()

            def reader(worker: int) -> None:
                client = GatewayClient(host, port, tenant="public")
                i = worker
                while not stop.is_set():
                    start = time.perf_counter()
                    client.get("stall", f"k{i % STALL_OBJECTS}")
                    latencies.append((time.perf_counter() - start) * 1000.0)
                    i += 7

            def ticker() -> None:
                time.sleep(0.2)  # let the readers reach steady state
                client = GatewayClient(host, port)
                start = time.perf_counter()
                client.tick()
                tick_seconds.append(time.perf_counter() - start)
                time.sleep(0.2)
                stop.set()

            threads = [
                threading.Thread(target=reader, args=(w,), daemon=True)
                for w in range(4)
            ]
            threads.append(threading.Thread(target=ticker, daemon=True))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
    finally:
        frontend.close()
    ordered = sorted(latencies)

    def pct(p: float):
        if not ordered:  # every reader died before one GET: report, don't crash
            return None
        return round(ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))], 3)

    return {
        "objects_in_round": STALL_OBJECTS,
        "gets_measured": len(ordered),
        "tick_seconds": round(tick_seconds[0], 3) if tick_seconds else None,
        "get_p50_ms": pct(50),
        "get_p99_ms": pct(99),
        "get_max_ms": round(ordered[-1], 3) if ordered else None,
    }


def main() -> None:
    """Standalone run: measures every scenario, writes BENCH_gateway.json."""
    print(
        f"{CLIENTS} clients, {REQUESTS_PER_CLIENT} requests each, "
        f"{PAYLOAD_BYTES}-byte payloads\n"
    )
    results = {
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "payload_bytes": PAYLOAD_BYTES,
        "cpu_count": os.cpu_count(),
        "note": (
            "raw req/s is GIL-bound on few-core hosts; parallel speedup from "
            "the striped locks needs >1 core. tick_stall is the "
            "core-count-independent measurement: worst GET latency while an "
            "optimization round runs (bounded by one batch)."
        ),
        "scenarios": {},
    }
    for scenario, put_ratio in SCENARIOS:
        print(f"--- {scenario} ({put_ratio:.0%} PUTs) ---")
        report = _measure(put_ratio)
        results["scenarios"][scenario] = {
            "put_ratio": put_ratio,
            "rps": round(report.rps, 1),
            "p50_ms": round(report.percentile_ms(50), 3),
            "p95_ms": round(report.percentile_ms(95), 3),
            "p99_ms": round(report.percentile_ms(99), 3),
            "errors": report.errors,
        }
        print(report.summary())
        print()

    print(f"--- control-plane stall (GET tail during a {STALL_OBJECTS}-object round) ---")
    stall = _measure_tick_stall()
    print(
        f"tick {stall['tick_seconds']}s | GET p50 {stall['get_p50_ms']}ms "
        f"p99 {stall['get_p99_ms']}ms max {stall['get_max_ms']}ms"
    )
    results["tick_stall"] = stall
    print()

    print("--- metrics overhead (read_heavy, paired A/B over "
          f"{OVERHEAD_PAIRS} instance pairs) ---")
    overhead = _measure_metrics_overhead()
    print(
        f"    GET on {overhead['get_us_metrics_on']}us | "
        f"off {overhead['get_us_metrics_off']}us | "
        f"pairs {overhead['pair_overhead_pcts']} | "
        f"median {overhead['overhead_pct']}% (budget {OVERHEAD_BUDGET_PCT}%, "
        f"GET-only {overhead['get_only_overhead_pct']}%)"
    )
    results["metrics_overhead"] = overhead
    print()

    print(f"--- pre-forked worker sweep (--workers {list(WORKER_SWEEP)}, "
          f"{os.cpu_count()} cores) ---")
    sweep = _measure_worker_sweep()
    for workers in WORKER_SWEEP:
        entry = sweep["workers"][str(workers)]
        print(
            f"{workers:>3} workers: {entry['rps']} req/s "
            f"(x{entry['scaling_vs_1']} vs 1) | p50 {entry['p50_ms']}ms "
            f"p99 {entry['p99_ms']}ms | errors {entry['errors']}"
        )
    results["worker_sweep"] = sweep
    print()
    with open(RESULT_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(RESULT_PATH)}")


if __name__ == "__main__":
    main()
