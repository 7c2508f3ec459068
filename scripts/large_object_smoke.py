#!/usr/bin/env python3
"""Large-object smoke: multipart a ~64 MiB object against a live gateway,
range-read a middle slice, read it whole with and without the provider of
chunk 0 (no field arithmetic, then one recovered row per stripe), SIGKILL
mid-upload, verify clean recovery.

CI runs this (the ``large-object-smoke`` job) against an installed
``repro``; it also runs locally from a checkout:

    PYTHONPATH=src python scripts/large_object_smoke.py

Exit code 0 means every acceptance check held.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.gateway.client import GatewayClient  # noqa: E402
from repro.providers.pricing import paper_catalog  # noqa: E402

MiB = 1024 * 1024
OBJECT = 64 * MiB
PART = 8 * MiB
STRIPE = 4 * MiB
LEAF = 64 * 1024  # repro.storage.merkle.LEAF_SIZE


def spawn(data_dir, port):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--data-dir", str(data_dir),
            "--stripe-bytes", str(STRIPE),
        ],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")
             + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1)
            return proc
        except (urllib.error.URLError, ConnectionError):
            if proc.poll() is not None:
                raise RuntimeError("gateway died during startup")
            time.sleep(0.2)
    proc.kill()
    raise RuntimeError("gateway never became healthy")


def provider_bytes_out(client):
    """``scalia_provider_bytes_total{direction="out"}`` summed over providers."""
    family = client.metrics()["metrics"]["scalia_provider_bytes_total"]
    return sum(
        sample["value"] for sample in family["samples"]
        if sample["labels"].get("direction") == "out"
    )


def recovered_rows(client):
    """``scalia_erasure_recovered_rows_total``: data rows whole-stripe
    decodes have rebuilt by field arithmetic (docs/OBSERVABILITY.md)."""
    family = client.metrics()["metrics"]["scalia_erasure_recovered_rows_total"]
    return sum(sample["value"] for sample in family["samples"])


def holder_of_chunk_0(client, key):
    """A write numbers its chunks by read price (docs/STORAGE.md), so chunk
    0 is on the cheapest-to-read provider of the placement, by name on a tie."""
    providers = client.explain("smoke", key)["placement"]["providers"]
    egress = {spec.name: spec.pricing.bw_out_gb for spec in paper_catalog()}
    return min(providers, key=lambda name: (egress[name], name))


def set_fault(port, provider, profile):
    """``POST /faults``: install a fault profile on a provider, or clear it."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/faults", method="POST",
        data=json.dumps({"provider": provider, "profile": profile}).encode("utf-8"),
    )
    urllib.request.urlopen(request, timeout=10).read()


def get_range_metered(client, key, lo, hi):
    """A ranged GET, the provider bytes it moved, and the 64 KiB Merkle
    leaves that cover it (docs/API.md, "Ranged reads")."""
    before = provider_bytes_out(client)
    body = client.get_range("smoke", key, lo, hi)
    moved = provider_bytes_out(client) - before
    covering = (hi // LEAF - lo // LEAF + 1) * LEAF
    return body, moved, covering


def check(name, ok, detail=""):
    print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    if not ok:
        sys.exit(f"large-object-smoke failed at: {name}")


def main():
    port = int(os.environ.get("SMOKE_PORT", "8093"))
    work = Path(tempfile.mkdtemp(prefix="large-object-smoke-"))
    data_dir = work / "data"
    payload = os.urandom(OBJECT)

    print(f"== phase 1: multipart-upload {OBJECT // MiB} MiB, range-read it back")
    proc = spawn(data_dir, port)
    try:
        client = GatewayClient("127.0.0.1", port, tenant="smoke")
        t0 = time.perf_counter()
        info = client.put_multipart(
            "smoke", "big.bin", iter([payload]), part_size=PART, size_hint=OBJECT
        )
        upload_s = time.perf_counter() - t0
        check("multipart upload completed",
              info["size"] == OBJECT,
              f"{OBJECT / MiB / upload_s:.0f} MiB/s, etag {info['etag']}")
        check("multipart etag is md5-of-md5s-N", info["etag"].endswith(f"-{OBJECT // PART}"))

        lo, hi = 30 * MiB + 11, 34 * MiB + 10  # a middle slice crossing stripes
        middle, moved, covering = get_range_metered(client, "big.bin", lo, hi)
        check("middle range slice matches", middle == payload[lo : hi + 1],
              f"bytes {lo}-{hi}")
        check("middle slice moved at most twice its covering leaves",
              moved <= 2 * covering, f"{moved:.0f} B from providers, {covering} B of leaves")
        # The slice above is half of each of two stripes, which whole-stripe
        # reads also fetch within 2x; 64 KiB inside one stripe tells them apart.
        small, moved, covering = get_range_metered(
            client, "big.bin", 41 * MiB + 7, 41 * MiB + 7 + LEAF - 1)
        check("64 KiB slice matches and moved at most twice its covering leaves",
              small == payload[41 * MiB + 7 : 41 * MiB + 7 + LEAF] and moved <= 2 * covering,
              f"{moved:.0f} B from providers, {covering} B of leaves")
        rows = recovered_rows(client)
        whole_md5 = hashlib.md5(client.get("smoke", "big.bin")).hexdigest()
        check("full download matches", whole_md5 == hashlib.md5(payload).hexdigest())
        check("a healthy whole GET does no field arithmetic",
              recovered_rows(client) == rows, "0 data rows recovered")
        victim = holder_of_chunk_0(client, "big.bin")
        set_fault(port, victim, {"error_rate": 1.0})  # an outage: every op fails
        rows = recovered_rows(client)
        whole_md5 = hashlib.md5(client.get("smoke", "big.bin")).hexdigest()
        recovered = recovered_rows(client) - rows
        set_fault(port, victim, None)
        check(f"full download matches with {victim} (chunk 0) out",
              whole_md5 == hashlib.md5(payload).hexdigest())
        check("that read recovered one data row per stripe",
              recovered == OBJECT // STRIPE, f"{recovered:.0f} rows, {OBJECT // STRIPE} stripes")

        # leave an upload in flight, then die without warning
        inflight_id = client.create_multipart("smoke", "wip.bin")
        client.upload_part("smoke", "wip.bin", inflight_id, 1, payload[:PART])
        client.close()
    finally:
        print("== phase 2: SIGKILL mid-upload")
        proc.kill()
        proc.wait(timeout=10)

    print("== phase 3: recover on the same data dir")
    proc = spawn(data_dir, port)
    try:
        client = GatewayClient("127.0.0.1", port, tenant="smoke")
        body = client.get_range("smoke", "big.bin", lo, hi)
        check("completed object survived SIGKILL", body == payload[lo : hi + 1])
        uploads = client.list_uploads("smoke")
        check("in-flight upload resumed at its acknowledged part",
              [u["upload_id"] for u in uploads] == [inflight_id]
              and [p["part_number"] for p in uploads[0]["parts"]] == [1])
        client.abort_multipart("smoke", "wip.bin", inflight_id)
        scrub = client.scrub()
        check("scrub is clean after recovery",
              scrub["chunks_missing"] == 0 and scrub["chunks_corrupt"] == 0
              and scrub["orphans_found"] == 0,
              f"{scrub['chunks_scanned']} chunks scanned")
        client.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        shutil.rmtree(work, ignore_errors=True)
    print("large-object-smoke: all checks passed")


if __name__ == "__main__":
    main()
