#!/usr/bin/env python3
"""Audit smoke: tamper at a live gateway, catch it with Merkle proofs.

CI runs this (the ``audit-smoke`` job) against an installed ``repro``;
it also runs locally from a checkout:

    PYTHONPATH=src python scripts/audit_smoke.py

The scenario is the docs/AUDITING.md incident, end to end over HTTP:

1. boot a durable gateway, write a probe object and take from
   ``POST /explain`` the provider its GETs are served from: the
   cheapest to read of its placement, which holds data chunk 0
   (docs/STORAGE.md), so a repair that read back what it rebuilds, or
   trusted a source for its checksum, would hand clients the tamper;
2. install a ``corrupt`` fault on that provider (silent put-tamper:
   bytes flip, provider-side checksums recomputed, so a scrub-style
   verify would say everything is fine) and write a batch of small
   objects and one of 4 MiB (chunks of 16 leaves, whose segment store
   answers from a kept tree and ranged reads) through it, then clear
   the fault;
3. GET every tampered object whole before any sweep: every read checks
   each chunk against the root its row anchors, so each must come back
   byte-identical, served around the tampered chunk, with one
   ``read.proof_failed`` per tampered chunk in ``/events``;
4. ``POST /audit`` — every tampered chunk must fail its possession
   proof in this one sweep (the tree of a chunk stored forged is the
   forged bytes' tree, so whichever leaf is sampled), be repaired from
   its erasure peers, and force the victim's breaker open
   (``audit_failures`` in ``/stats``, ``audit.fail``/``audit.repair``
   in ``/events``);
5. the gateway is restarted (no tree survives: each is rebuilt by one
   payload read at its chunk's first challenge); a second sweep (and
   ``repro audit`` itself) comes back clean, every object reads back
   byte-identical, and so does a range of the large one.

Exit code 0 means every check held.
"""

import json
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.providers.pricing import paper_catalog  # noqa: E402

PORT = 8094
BASE = f"http://127.0.0.1:{PORT}"
OBJECT_COUNT = 6
OBJECT_BYTES = 96 * 1024  # single-leaf chunks: one-leaf sampling is exhaustive
LARGE_BYTES = 4 * 1024 * 1024  # multi-leaf chunks
TAMPERED = OBJECT_COUNT + 1


def http(method, path, body=None):
    req = urllib.request.Request(BASE + path, data=body, method=method)
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.read()


def wait_healthy(proc):
    for _ in range(100):
        if proc.poll() is not None:
            raise SystemExit("gateway died during boot")
        try:
            http("GET", "/healthz")
            return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise SystemExit("gateway never became healthy")


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def payload(i: int) -> bytes:
    return bytes((i * 7 + j) % 251 for j in range(OBJECT_BYTES))


def large_payload() -> bytes:
    return (payload(3) * (LARGE_BYTES // OBJECT_BYTES + 1))[:LARGE_BYTES]


def serve(data_dir):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(PORT), "--data-dir", data_dir,
            "--log-format", "json",
        ],
        stderr=subprocess.DEVNULL,
    )
    try:
        wait_healthy(proc)
    except BaseException:
        stop(proc)
        raise
    return proc


def stop(proc):
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=30)


def audit(query=""):
    return json.loads(http("POST", f"/audit{query}", b""))


def main() -> int:
    large = large_payload()
    with tempfile.TemporaryDirectory() as tmp:
        proc = serve(f"{tmp}/data")
        try:
            # A clean probe tells us which providers hold this workload.
            http("PUT", "/audit-bucket/probe.bin", payload(99))
            explain = json.loads(http(
                "POST", "/explain",
                json.dumps({"bucket": "audit-bucket",
                            "key": "probe.bin"}).encode("utf-8"),
            ))
            egress = {spec.name: spec.pricing.bw_out_gb for spec in paper_catalog()}
            victim = min(explain["placement"]["providers"],
                         key=lambda name: (egress[name], name))
            check(victim, f"probe placement names the provider reads go to ({victim})")

            # Tamper window: the victim silently corrupts every PUT.
            http("POST", "/faults", json.dumps({
                "provider": victim,
                "profile": {"corrupt_rate": 1.0, "seed": 11},
            }).encode("utf-8"))
            for i in range(OBJECT_COUNT):
                http("PUT", f"/audit-bucket/obj{i}.bin", payload(i))
            http("PUT", "/audit-bucket/large.bin", large)
            http("POST", "/faults", json.dumps(
                {"provider": victim, "profile": None}).encode("utf-8"))

            # Reads before any sweep: the anchored root refuses the
            # tampered chunk and parity serves the exact bytes.
            for i in range(OBJECT_COUNT):
                check(http("GET", f"/audit-bucket/obj{i}.bin") == payload(i),
                      f"obj{i}.bin reads back exact before any sweep")
            check(http("GET", "/audit-bucket/large.bin") == large,
                  "large.bin reads back exact before any sweep")
            failed = json.loads(http(
                "GET", "/events?type=read.proof_failed&limit=100"))["events"]
            check(len(failed) == TAMPERED and all(e["provider"] == victim for e in failed),
                  f"{len(failed)} read.proof_failed events, each naming the tampering provider")

            # Sweep 1: challenge-response catches every tampered chunk.
            report = audit("?seed=0")
            check(report["proofs_failed"] == TAMPERED,
                  f"{report['proofs_failed']} proofs failed "
                  f"(= {TAMPERED} tampered chunks, one of them of 16 leaves)")
            check(report["repaired"] == TAMPERED
                  and report["unrepairable"] == 0,
                  "every failed proof repaired from erasure peers")
            check(all(p["provider"] == victim and p["status"] == "proof-failed"
                      for p in report["problems"]),
                  "every problem names the tampering provider")

            health = json.loads(http("GET", "/stats"))["health"][victim]
            check(health["breaker"] == "open", "victim breaker force-opened")
            check(health["audit_failures"] == TAMPERED,
                  f"{health['audit_failures']} audit failures on record")

            events = json.loads(http("GET", "/events?type=audit.&limit=100"))
            types = {e["type"] for e in events["events"]}
            check({"audit.pass", "audit.fail", "audit.repair"} <= types,
                  "audit.pass/fail/repair journaled in /events")

            # Sweep 2, after a restart: the store is healthy again, and
            # stays that way through the CLI's own client path.
            stop(proc)
            proc = serve(f"{tmp}/data")
            again = audit("?seed=1")
            check(again["proofs_failed"] == 0 and again["chunks_missing"] == 0,
                  "replayed sweep is clean")
            cli = subprocess.run(
                [sys.executable, "-m", "repro", "audit",
                 "--url", BASE, "--seed", "2", "--json"],
                capture_output=True, text=True, timeout=60,
            )
            check(cli.returncode == 0, "repro audit exits 0")
            check(json.loads(cli.stdout)["proofs_failed"] == 0,
                  "repro audit reports a clean store")

            for i in range(OBJECT_COUNT):
                body = http("GET", f"/audit-bucket/obj{i}.bin")
                check(body == payload(i), f"obj{i}.bin reads back intact")
            check(http("GET", "/audit-bucket/large.bin") == large,
                  "large.bin reads back intact")
            lo = LARGE_BYTES // 2 + 12345
            req = urllib.request.Request(
                BASE + "/audit-bucket/large.bin",
                headers={"Range": f"bytes={lo}-{lo + 65535}"},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                check(resp.status == 206
                      and resp.read() == large[lo:lo + 65536],
                      "a 64 KiB range of large.bin, served from proven leaves, is exact")

            stats = json.loads(http("GET", "/stats"))
            check(stats["storage"]["last_audit"]["proofs_failed"] == 0,
                  "last_audit visible under /stats")
            backends = stats["storage"]["backends"].values()
            kept = sum(b["merkle_bytes"] for b in backends)
            check(0 < kept <= 0.002 * sum(b["stored_bytes"] for b in backends),
                  f"the segment stores keep {kept} B of Merkle levels, rebuilt since the restart")
        finally:
            stop(proc)
    print("audit smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
