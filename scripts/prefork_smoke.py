#!/usr/bin/env python3
"""Prefork smoke: boot ``serve --workers 2``, hammer it, audit the books.

CI runs this (the ``prefork-smoke`` job) against an installed ``repro``;
it also runs locally from a checkout:

    PYTHONPATH=src python scripts/prefork_smoke.py

Checks, in order:

1. two distinct worker PIDs answer ``/healthz`` on the shared port;
2. a mixed workload (small/multi-stripe/aligned PUTs, full and ranged
   GETs, HEAD, list, multipart upload, DELETE) completes with **zero
   errors** across 8 concurrent client threads;
3. ``/metrics`` is whole-system truthful: the aggregated
   ``scalia_gateway_requests_total`` matches the number of requests the
   clients actually made, and ``scalia_gateway_workers_live`` is 2;
4. ``/stats`` op counters account for the workload (the workers count
   it, and their pushes fold into the broker's registry);
5. a GET is one ops-RPC frame plus one per further stripe: over ``K`` GETs
   of a one-stripe object and ``K`` of a two-stripe one,
   ``scalia_ops_rpc_frames_total`` rises by ``2K`` for ``open_get``, by
   ``K`` for ``read_stripe`` and not at all for ``broker.head``, and
   ``ops.get`` in ``/stats`` rises by exactly ``2K`` once the workers'
   next push has landed;
6. admin calls answer from a worker as they do in process: a typed broker
   error keeps its status and message across the ops RPC (``POST /faults``
   for an unknown provider is 404, a bad profile is a 400 naming the field)
   and ``POST /audit`` returns its report;
7. SIGTERM tears the whole tree down cleanly (exit 0, no leftovers).

Exit code 0 means every check held.
"""

import concurrent.futures
import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, _SRC)

WORKERS = 2
CLIENT_THREADS = 8
ROUNDS_PER_THREAD = 5
STRIPE_BYTES = 65536
FRAME_CHECK_GETS = 5


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def request(port, method, path, body=None, headers=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def boot():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", str(WORKERS),
         "--port", "0", "--stripe-bytes", str(STRIPE_BYTES)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    port = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                fail("serve exited during startup")
            continue
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        fail("serve never reported its port")
    # Drain remaining stdout in the background so the pipe never fills.
    threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True
    ).start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            status, _, _ = request(port, "GET", "/healthz", timeout=2)
            if status == 200:
                return proc, port
        except OSError:
            pass
        time.sleep(0.2)
    proc.kill()
    fail("gateway never became healthy")


def check_worker_fleet(port):
    pids = set()
    for _ in range(60):
        status, _, body = request(port, "GET", "/healthz")
        if status != 200:
            fail(f"healthz returned {status}")
        pids.add(json.loads(body)["pid"])
        if len(pids) >= WORKERS:
            break
    if len(pids) < WORKERS:
        fail(f"expected {WORKERS} distinct worker pids, saw {pids}")
    print(f"ok: {len(pids)} distinct worker pids {sorted(pids)}")
    return 60 if len(pids) >= WORKERS else None


def client_workload(port, thread_id):
    counters = {"put": 0, "get": 0, "head": 0, "delete": 0}
    tenant = {"x-scalia-tenant": "smoke"}
    for round_no in range(ROUNDS_PER_THREAD):
        key = f"t{thread_id}-r{round_no}"
        small = f"small payload {key}".encode()
        big = (key.encode() + b"\x00" * 97) * 700
        for name, payload in (("small", small), ("big", big)):
            status, headers, _ = request(
                port, "PUT", f"/smoke-bkt/{key}-{name}", body=payload,
                headers=tenant,
            )
            if status != 200:
                fail(f"PUT {key}-{name} -> {status}")
            etag = headers.get("ETag", "").strip('"')
            if etag != hashlib.md5(payload).hexdigest():
                fail(f"PUT {key}-{name} etag mismatch")
            counters["put"] += 1
            status, _, body = request(
                port, "GET", f"/smoke-bkt/{key}-{name}", headers=tenant
            )
            if status != 200 or body != payload:
                fail(f"GET {key}-{name} -> {status}, {len(body)} B")
            counters["get"] += 1
        status, _, body = request(
            port, "GET", f"/smoke-bkt/{key}-big",
            headers={**tenant, "Range": "bytes=100-300"},
        )
        if status != 206 or body != big[100:301]:
            fail(f"ranged GET -> {status}")
        counters["get"] += 1
        status, _, _ = request(
            port, "HEAD", f"/smoke-bkt/{key}-small", headers=tenant
        )
        if status != 200:
            fail(f"HEAD -> {status}")
        counters["head"] += 1
        status, _, _ = request(
            port, "DELETE", f"/smoke-bkt/{key}-small", headers=tenant
        )
        if status not in (200, 204):
            fail(f"DELETE -> {status}")
        counters["delete"] += 1
    return counters


def run_workload(port):
    with concurrent.futures.ThreadPoolExecutor(CLIENT_THREADS) as pool:
        futures = [
            pool.submit(client_workload, port, i)
            for i in range(CLIENT_THREADS)
        ]
        per_thread = [f.result() for f in futures]  # re-raises failures
    counters = {
        op: sum(c[op] for c in per_thread)
        for op in ("put", "get", "head", "delete")
    }
    print(f"ok: mixed workload, zero errors ({counters})")
    return counters


def run_multipart(port):
    tenant = {"x-scalia-tenant": "smoke"}
    status, _, body = request(
        port, "POST", "/smoke-bkt/assembled?uploads", headers=tenant
    )
    if status != 200:
        fail(f"create upload -> {status}")
    upload_id = json.loads(body)["uploadId"]
    parts = [b"\x01" * 70000, b"\x02" * 30000]
    for number, part in enumerate(parts, start=1):
        status, _, _ = request(
            port, "PUT",
            f"/smoke-bkt/assembled?partNumber={number}&uploadId={upload_id}",
            body=part, headers=tenant,
        )
        if status != 200:
            fail(f"upload part {number} -> {status}")
    status, _, _ = request(
        port, "POST", f"/smoke-bkt/assembled?uploadId={upload_id}",
        headers=tenant,
    )
    if status != 200:
        fail(f"complete upload -> {status}")
    status, _, body = request(
        port, "GET", "/smoke-bkt/assembled", headers=tenant
    )
    if status != 200 or body != b"".join(parts):
        fail(f"multipart read-back -> {status}, {len(body)} B")
    print("ok: multipart upload assembled and read back")


def check_accounting(port, counters, healthz_requests):
    time.sleep(2.5)  # two push intervals: every worker snapshot lands
    status, _, body = request(port, "GET", "/metrics")
    if status != 200:
        fail(f"/metrics -> {status}")
    text = body.decode()
    live = re.search(r"^scalia_gateway_workers_live (\d+)", text, re.M)
    if not live or int(live.group(1)) != WORKERS:
        fail(f"workers_live != {WORKERS}: {live and live.group(0)}")
    total = 0.0
    for match in re.finditer(
        r'^scalia_gateway_requests_total\{[^}]*route="object"[^}]*\} '
        r"([0-9.e+-]+)$", text, re.M,
    ):
        total += float(match.group(1))
    expected = counters["put"] + counters["get"] + counters["head"] + counters["delete"]
    if total < expected:
        fail(f"aggregated object requests {total} < client-counted {expected}")
    print(f"ok: /metrics aggregation (object requests {total:g} >= {expected})")

    status, _, body = request(port, "GET", "/stats")
    ops = json.loads(body)["ops"]
    if ops.get("put", 0) < counters["put"]:
        fail(f"broker put count {ops.get('put')} < {counters['put']}")
    if ops.get("get", 0) < counters["get"]:
        fail(f"broker get count {ops.get('get')} < {counters['get']}")
    print(f"ok: broker op accounting ({ {k: ops[k] for k in ('put', 'get', 'head', 'delete') if k in ops} })")


def frames_served(port):
    """``scalia_ops_rpc_frames_total`` by op, plus ``ops.get`` of ``/stats``,
    read two push intervals on: a worker counts its GETs, and ``/stats``
    has them with its next push."""
    time.sleep(2.5)
    status, _, body = request(port, "GET", "/metrics")
    if status != 200:
        fail(f"/metrics -> {status}")
    frames = {
        match.group(1): float(match.group(2))
        for match in re.finditer(
            r'^scalia_ops_rpc_frames_total\{op="([^"]+)"\} ([0-9.e+-]+)$',
            body.decode(), re.M,
        )
    }
    status, _, body = request(port, "GET", "/stats")
    return frames, json.loads(body)["ops"].get("get", 0)


def check_frames_per_get(port):
    """Per-op deltas: the workers' one-per-second ``aggregator.push``
    frames are in any total."""
    tenant = {"x-scalia-tenant": "smoke"}
    objects = {"one-stripe": b"1" * 1000, "two-stripe": b"2" * (STRIPE_BYTES + 1000)}
    for name, payload in objects.items():
        status, _, _ = request(port, "PUT", f"/smoke-bkt/{name}", body=payload, headers=tenant)
        if status != 200:
            fail(f"PUT {name} -> {status}")
    frames_before, gets_before = frames_served(port)
    for name, payload in objects.items():
        for _ in range(FRAME_CHECK_GETS):
            status, _, body = request(port, "GET", f"/smoke-bkt/{name}", headers=tenant)
            if status != 200 or body != payload:
                fail(f"GET {name} -> {status}, {len(body)} B")
    frames_after, gets_after = frames_served(port)
    k = FRAME_CHECK_GETS
    moved = {
        op: frames_after.get(op, 0) - frames_before.get(op, 0)
        for op in ("open_get", "read_stripe", "broker.head")
    }
    if moved != {"open_get": 2 * k, "read_stripe": k, "broker.head": 0}:
        fail(f"frames for {k} one-stripe + {k} two-stripe GETs: {moved}")
    if gets_after - gets_before != 2 * k:
        fail(f"/stats ops.get rose by {gets_after - gets_before}, not {2 * k}")
    print(f"ok: a GET is one frame plus one per further stripe ({moved})")


def check_admin(port):
    def post_fault(provider, profile):
        body = json.dumps({"provider": provider, "profile": profile})
        status, _, raw = request(port, "POST", "/faults", body=body)
        return status, raw.decode()

    status, _, body = request(port, "GET", "/faults")
    if status != 200:
        fail(f"GET /faults -> {status}")
    provider = next(iter(json.loads(body)))
    status, text = post_fault("no-such-provider", {"latency_ms": 1})
    if status != 404:
        fail(f"POST /faults for an unknown provider -> {status} {text}")
    status, text = post_fault(provider, {"error_rate": 7})
    if status != 400 or "error_rate" not in text:
        fail(f"POST /faults with error_rate 7 -> {status} {text}")
    status, _, body = request(port, "POST", "/audit?seed=1")
    if status != 200 or "chunks_audited" not in json.loads(body):
        fail(f"POST /audit?seed=1 -> {status} {body[:200]}")
    print("ok: admin errors and the audit report cross the ops RPC intact")


def main():
    proc, port = boot()
    try:
        healthz = check_worker_fleet(port)
        counters = run_workload(port)
        run_multipart(port)
        check_accounting(port, counters, healthz)
        check_frames_per_get(port)
        check_admin(port)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=40)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("serve did not exit on SIGTERM")
    if code != 0:
        fail(f"serve exited {code}")
    print("ok: clean SIGTERM shutdown")
    print("PREFORK SMOKE OK")


if __name__ == "__main__":
    main()
