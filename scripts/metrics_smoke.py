#!/usr/bin/env python3
"""Metrics smoke: boot a gateway, drive traffic, validate the telemetry.

CI runs this (the ``metrics-smoke`` job) against an installed ``repro``;
it also runs locally from a checkout:

    PYTHONPATH=src python scripts/metrics_smoke.py

Checks, in order:

1. ``GET /metrics`` parses as Prometheus text exposition 0.0.4 and
   every family ``src/`` declares is present, less the named
   :data:`UNOBSERVED` ones this single-process run cannot show;
2. ``GET /metrics?format=json`` is well-formed and agrees on counts;
3. a request against a +300 ms-faulted provider produces a
   ``request.slow`` span dump attributing the time to ``provider_fetch``;
4. every structured log line on stderr is valid JSON;
5. a second gateway is driven through a full breaker cycle: error faults
   on every provider open the circuit breakers (``breaker.open`` in
   ``/events``) and burn the availability SLO until an alert fires in
   ``/alerts``; clearing the faults closes the breakers
   (``breaker.half_open`` → ``breaker.closed``) and resolves the alert;
6. on that healed gateway the placement table answers for itself
   (``scalia_placement_searches_total``: same-size PUTs are hits,
   distinct sizes are builds), and 2 000 further PUTs do not push the
   breaker and alert cycle out of ``/events``.

Exit code 0 means every check held.
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

PORT = 8092
BASE = f"http://127.0.0.1:{PORT}"

#: Declared families this run cannot show, each with the reason.
UNOBSERVED = (
    ("scalia_gateway_workers_live", "--workers only"),
    ("scalia_ops_rpc_frames_total", "--workers only"),
    ("scalia_commit_quorum_latency_seconds", "cluster only"),
    ("scalia_replication_lag_records", "cluster only"),
    ("scalia_controlplane_runs_total", "labelled by round; this serve runs none in the background"),
    ("scalia_controlplane_run_seconds", "labelled by round; this serve runs none in the background"),
    ("scalia_provider_errors_total", "labelled by provider; the faults here add latency, not errors"),
)


def required_families():
    """Every family ``src/`` declares (the scan docs/OBSERVABILITY.md is
    held to), less :data:`UNOBSERVED`."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "obs"))
    from test_docs_agree import _declared

    declared = _declared()[0]
    exempt = {name for name, _reason in UNOBSERVED}
    if exempt - declared:
        raise SystemExit(f"FAIL: exempted but not declared: {sorted(exempt - declared)}")
    return sorted(declared - exempt)


_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$"
)
_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        stderr_path = Path(tmp) / "serve.stderr"
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(PORT), "--data-dir", f"{tmp}/data",
                    "--log-format", "json", "--trace-slow-ms", "250",
                    "--fault", "S3(l):latency=300ms",
                    "--fault", "RS:latency=300ms",
                    "--fault", "S3(h):latency=300ms",
                ],
                stderr=stderr,
            )
            try:
                wait_healthy(proc)
                for i in range(5):
                    http("PUT", f"/smoke/obj{i}.bin", b"x" * 20000)
                    http("GET", f"/smoke/obj{i}.bin")
                try:
                    http("GET", "/smoke/missing.bin")
                except urllib.error.HTTPError as exc:
                    check(exc.code == 404, "404 for a missing key")
                http("POST", "/tick?periods=1", b"")
                http("POST", "/scrub", b"")

                text = http("GET", "/metrics").decode("utf-8")
                for line in text.splitlines():
                    if not line:
                        continue
                    ok = (_COMMENT if line.startswith("#") else _SAMPLE).match(line)
                    if not ok:
                        raise SystemExit(f"FAIL: malformed exposition line {line!r}")
                check(True, "every exposition line parses")
                for family in required_families():
                    check(f"# TYPE {family}" in text, f"series family {family}")

                doc = json.loads(http("GET", "/metrics?format=json"))
                samples = doc["metrics"]["scalia_gateway_requests_total"]["samples"]
                total = sum(s["value"] for s in samples)
                check(total >= 11, f"JSON scrape counts {total:.0f} requests")
            finally:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)

        saw_complete = saw_slow = False
        for line in stderr_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise SystemExit(f"FAIL: non-JSON log line {line!r}")
            if record.get("event") == "request.complete":
                saw_complete = True
            if record.get("event") == "request.slow":
                phases = record.get("phases", {})
                # PUTs against the faulted providers trip the threshold
                # too (provider_put); the acceptance case is a GET whose
                # time lands on provider_fetch.
                if phases.get("provider_fetch", 0.0) >= 250.0:
                    saw_slow = True
        check(saw_complete, "request.complete logged")
        check(saw_slow, "a slow read attributes its latency to provider_fetch")

        breaker_and_alert_cycle(tmp)
        print("metrics smoke: all checks passed")
    return 0


def set_fault(provider, profile):
    body = json.dumps({"provider": provider, "profile": profile}).encode("utf-8")
    http("POST", "/faults", body)


def events_of(type_prefix):
    doc = json.loads(http("GET", f"/events?type={type_prefix}&limit=1000"))
    return doc["events"]


def active_alerts():
    return json.loads(http("GET", "/alerts"))["active"]


def metric_samples(family):
    doc = json.loads(http("GET", "/metrics?format=json"))
    return doc["metrics"][family]["samples"]


def placement_searches():
    return {
        s["labels"]["table"]: s["value"]
        for s in metric_samples("scalia_placement_searches_total")
    }


def placement_table_and_journal(k=200) -> None:
    """Check 6, on the gateway check 5 has just healed."""
    # PUTs of new keys avoid a provider whose breaker is not closed and so
    # never probe it: the pool placements see, hence the table key, holds
    # still from here on (the slack of 2 is for a transition in flight).
    before = placement_searches()
    for i in range(k):
        http("PUT", f"/smoke/same{i}.bin", b"x" * 1000)
    same = placement_searches()
    hit, built = same["hit"] - before["hit"], same["built"] - before["built"]
    check(
        hit >= k - 2 and built <= 2,
        f"{k} PUTs of one size: {hit:.0f} table hits, {built:.0f} builds",
    )
    for i in range(k):
        http("PUT", f"/smoke/distinct{i}.bin", b"x" * (2000 + i))
    built = placement_searches()["built"] - same["built"]
    check(built >= k, f"{k} PUTs of {k} sizes: {built:.0f} builds")
    rows = metric_samples("scalia_placement_table_rows")[0]["value"]
    check(rows > 0, f"placement table holds {rows:.0f} rows")

    # One placement.chosen per PUT used to share the ring with everything
    # else: 1 469 PUTs were enough to lose the cycle driven above.
    for i in range(2000):
        http("PUT", f"/smoke/flood{i % 50}.bin", b"x" * 1000)
    breaker = {e["type"] for e in events_of("breaker.")}
    check(
        {"breaker.open", "breaker.half_open", "breaker.closed"} <= breaker,
        "breaker cycle still in /events after 2000 more PUTs",
    )
    alert = {e["type"] for e in events_of("alert.")}
    check(
        {"alert.fired", "alert.resolved"} <= alert,
        "alert cycle still in /events after 2000 more PUTs",
    )


def breaker_and_alert_cycle(tmp) -> None:
    """Check 5: breaker open/close + SLO alert fire/clear, end to end.

    Short burn windows (fast 3 s / slow 6 s) and a 0.5 s history sample
    interval keep the whole cycle under ~30 s of wall clock.
    """
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(PORT), "--data-dir", f"{tmp}/cycle-data",
            "--log-format", "json",
            "--history-interval", "0.5",
            "--slo", "availability:target=0.99,fast=3s,slow=6s",
        ],
        stderr=subprocess.DEVNULL,
    )
    try:
        wait_healthy(proc)
        for i in range(3):
            http("PUT", f"/smoke/cycle{i}.bin", b"x" * 4000)

        providers = list(json.loads(http("GET", "/faults")))
        check(providers, f"fault surface lists {len(providers)} providers")
        for name in providers:
            set_fault(name, {"error_rate": 1.0, "seed": 7})

        # Error phase: hammer reads until the breakers open and both burn
        # windows run hot enough for the availability alert to fire.
        fired = False
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            for i in range(3):
                try:
                    http("GET", f"/smoke/cycle{i}.bin")
                except urllib.error.HTTPError:
                    pass
            if active_alerts():
                fired = True
                break
            time.sleep(0.25)
        check(events_of("breaker.open"), "breaker.open journaled in /events")
        check(fired, "availability alert fired in /alerts")
        check(events_of("alert.fired"), "alert.fired journaled in /events")

        # Recovery phase: clear the faults; after the 5 s breaker cooldown
        # reads succeed again, the fast window drains and the alert clears.
        for name in providers:
            set_fault(name, None)
        cleared = closed = False
        deadline = time.monotonic() + 40.0
        while time.monotonic() < deadline:
            for i in range(3):
                try:
                    http("GET", f"/smoke/cycle{i}.bin")
                except urllib.error.HTTPError:
                    pass
            cleared = not active_alerts()
            # The alert can clear before the 5 s breaker cooldown elapses;
            # keep driving probe traffic until the breakers close too.
            closed = bool(events_of("breaker.closed"))
            if cleared and closed:
                break
            time.sleep(0.25)
        check(events_of("breaker.half_open"), "breaker.half_open journaled")
        check(closed, "breaker.closed journaled")
        check(cleared, "availability alert cleared in /alerts")
        check(events_of("alert.resolved"), "alert.resolved journaled in /events")
        placement_table_and_journal()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
