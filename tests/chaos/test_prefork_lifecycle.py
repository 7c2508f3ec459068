"""Kill and drain pre-forked gateway workers under live traffic.

Real ``repro serve --workers N`` process trees over loopback:

* SIGTERM to a worker must drain the request it is mid-way through
  serving — the client sees every byte — before the process exits.
* SIGKILL to a worker (no shutdown hooks at all) must be healed by the
  supervisor: a replacement accepts traffic on the same port.
* ``/metrics`` totals must survive the restart without double-counting:
  counters folded from the dead incarnation plus the replacement's own
  add up to exactly the requests served.
* SIGKILL to a worker inside a multi-stripe PUT must strand nothing: the
  supervisor aborts the dead incarnation's staged session, so its chunks
  are deleted or left as ordinary orphans, never fenced until a restart.
* SIGKILL to the *supervisor* must not leave a zombie worker holding the
  port: the orphan drains, exits non-zero and the port refuses, so a
  restarted supervisor on the same ``--port`` serves alone.
* A second supervisor started on a live supervisor's port must not bind
  beside it: it exits 2 and the first one keeps every connection.
* The serve options reach the workers: ``--log-format json`` and
  ``--trace-slow-ms`` shape the request lines a worker logs.
"""

import ctypes
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

# The worker pushes its metrics snapshot about once a second; waiting two
# intervals guarantees the broker has folded everything we counted.
PUSH_SETTLE_S = 2.5


def _serve(port, *serve_args):
    """Start ``repro serve --workers 1`` on ``port``; output on one pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1", "--port", str(port),
         *serve_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )


def _boot(port=0, *serve_args):
    """``repro serve --workers 1`` on ``port``; returns (process, port)."""
    proc = _serve(port, *serve_args)
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
    assert port, "serve never reported its port"
    _wait_healthy(port)
    return proc, port


def _shut_down(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()


@pytest.fixture()
def prefork():
    proc, port = _boot()
    yield port
    _shut_down(proc)


def _wait_healthy(port, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            return _healthz_pid(port)
        except (OSError, http.client.HTTPException):
            time.sleep(0.1)
    raise RuntimeError("gateway never became healthy")


def _healthz_pid(port):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=5
    ) as response:
        return json.loads(response.read())["pid"]


def _put(port, bucket, key, data):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/{bucket}/{key}", data=data, method="PUT"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200


def _post(port, path, doc=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method="POST",
        data=json.dumps(doc).encode() if doc is not None else None,
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _stored_bytes(port):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as response:
        backends = json.loads(response.read())["storage"]["backends"]
    return sum(backend["stored_bytes"] for backend in backends.values())


def _wait_for_new_pid(port, old_pid, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid = _healthz_pid(port)
            if pid != old_pid:
                return pid
        except (OSError, http.client.HTTPException):
            pass
        time.sleep(0.1)
    raise RuntimeError("no replacement worker appeared")


def _scrape_counter(port, name, labels):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as response:
        text = response.read().decode()
    match = re.search(
        rf"^{re.escape(name)}{re.escape(labels)} ([0-9.e+-]+)$", text, re.M
    )
    return float(match.group(1)) if match else 0.0


class TestWorkerLifecycle:
    def test_sigterm_drains_inflight_request(self, prefork):
        port = prefork
        payload = bytes(range(256)) * 16384  # 4 MiB
        _put(port, "drain", "big.bin", payload)
        worker_pid = _healthz_pid(port)

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/drain/big.bin")
        response = conn.getresponse()
        assert response.status == 200
        # Read a prefix only: the rest is in flight (the handler blocks
        # on socket backpressure), then ask the worker to shut down.
        received = response.read(65536)
        os.kill(worker_pid, signal.SIGTERM)
        time.sleep(0.2)
        while True:
            piece = response.read(1 << 20)
            if not piece:
                break
            received += piece
        conn.close()
        assert received == payload, (
            f"drained read truncated: {len(received)}/{len(payload)} bytes"
        )
        # The supervisor replaces the drained worker; service continues.
        _wait_for_new_pid(port, worker_pid)

    def test_sigkilled_worker_is_respawned(self, prefork):
        port = prefork
        first_pid = _healthz_pid(port)
        os.kill(first_pid, signal.SIGKILL)
        second_pid = _wait_for_new_pid(port, first_pid)
        assert second_pid != first_pid
        # The replacement serves real traffic, not just health checks.
        _put(port, "heal", "after.bin", b"served by the replacement")
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/heal/after.bin", timeout=10
        ) as response:
            assert response.read() == b"served by the replacement"

    def test_metrics_survive_restart_without_double_counting(self, prefork):
        port = prefork
        labels = '{route="object",method="PUT",status="200"}'
        for i in range(5):
            _put(port, "count", f"first-{i}", b"x" * 100)
        time.sleep(PUSH_SETTLE_S)
        before = _scrape_counter(port, "scalia_gateway_requests_total", labels)
        assert before == 5.0

        first_pid = _healthz_pid(port)
        os.kill(first_pid, signal.SIGKILL)
        _wait_for_new_pid(port, first_pid)

        for i in range(3):
            _put(port, "count", f"second-{i}", b"x" * 100)
        time.sleep(PUSH_SETTLE_S)
        after = _scrape_counter(port, "scalia_gateway_requests_total", labels)
        # Folded dead-incarnation total (5) + live replacement (3): the
        # counter is monotone and exact — no reset, no double fold.
        assert after == 8.0


def test_worker_sigkilled_inside_a_put_strands_no_chunk():
    latency_s = 1.5
    proc, port = _boot(0, "--stripe-bytes", "65536")
    try:
        payload = bytes(range(256)) * 768  # three stripes of 64 KiB
        _put(port, "kill", "probe.bin", payload)
        with urllib.request.urlopen(
            urllib.request.Request(f"http://127.0.0.1:{port}/kill/probe.bin", method="HEAD"),
            timeout=10,
        ) as response:
            placement = response.headers["x-scalia-placement"]  # "[A, B; m:1]"
        slow = placement.strip("[]").split(";")[0].split(",")[0].strip()
        baseline = _stored_bytes(port)
        # One slow provider holds every write_stripe of the next PUT open.
        _post(port, "/faults", {"provider": slow, "profile": {"latency_ms": latency_s * 1e3}})
        worker_pid = _healthz_pid(port)

        def torn_put():
            try:
                _put(port, "kill", "torn.bin", payload)
            except (OSError, http.client.HTTPException):
                pass  # the worker serving it is about to die

        client = threading.Thread(target=torn_put, daemon=True)
        client.start()
        deadline = time.monotonic() + 30
        while _stored_bytes(port) == baseline:  # until a chunk of it landed
            assert time.monotonic() < deadline, "the PUT never staged a chunk"
            time.sleep(0.05)
        os.kill(worker_pid, signal.SIGKILL)
        killed = time.monotonic()
        _wait_for_new_pid(port, worker_pid)
        _post(port, "/faults", {"provider": slow, "profile": None})
        # The stripe that was landing when the worker died lands in full.
        time.sleep(max(0.0, killed + latency_s + 1.0 - time.monotonic()))
        client.join(timeout=10)
        assert not client.is_alive()

        # The supervisor aborted the dead incarnation's session: what it
        # had landed is deleted, what landed after is an ordinary orphan
        # of the first scrub (a leaked session would fence it: 0 found,
        # the bytes stored until the broker restarts).
        _post(port, "/scrub")
        assert _post(port, "/scrub")["orphans_found"] == 0
        assert _stored_bytes(port) == baseline
    finally:
        _shut_down(proc)


PR_SET_CHILD_SUBREAPER = 36


def test_worker_of_a_sigkilled_supervisor_exits_and_frees_the_port():
    # As a subreaper this process adopts the orphan, so its exit status
    # can be read; the worker sees its parent pid change all the same.
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    assert prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    proc, port = _boot()
    restarted = None
    try:
        worker_pid = _healthz_pid(port)
        proc.kill()
        proc.wait(timeout=10)

        # While the orphan lives it may say only "come back later".
        exit_status = None
        deadline = time.monotonic() + 10
        while exit_status is None and time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5
                ):
                    pytest.fail("a worker with no broker answered 200")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503 and exc.headers["Retry-After"], exc
            except (OSError, http.client.HTTPException):
                pass  # refused, or the connection died with the drain
            pid, status = os.waitpid(worker_pid, os.WNOHANG)
            if pid == worker_pid:
                exit_status = os.waitstatus_to_exitcode(status)
            time.sleep(0.1)
        assert exit_status == 1, "orphaned worker still alive after 10 s"
        with pytest.raises(ConnectionRefusedError):
            http.client.HTTPConnection("127.0.0.1", port, timeout=5).connect()

        # A restarted supervisor on the same port shares it with nobody.
        restarted, _ = _boot(port)
        pids = {_healthz_pid(port) for _ in range(20)}
        assert len(pids) == 1 and worker_pid not in pids
    finally:
        prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
        for process in (proc, restarted):
            if process is not None and process.poll() is None:
                _shut_down(process)


def test_second_supervisor_on_a_live_port_exits_2_and_leaves_it_alone():
    proc, port = _boot()
    second = None
    try:
        pids = {_healthz_pid(port) for _ in range(5)}
        second = _serve(port)
        output, _ = second.communicate(timeout=30)
        assert second.returncode == 2, output
        assert f"cannot bind 127.0.0.1:{port}" in output
        # Every connection still lands on the first supervisor's worker.
        assert {_healthz_pid(port) for _ in range(20)} == pids
    finally:
        for process in (second, proc):
            if process is not None and process.poll() is None:
                _shut_down(process)


def test_serve_log_options_reach_the_worker():
    proc, port = _boot(0, "--log-format", "json", "--trace-slow-ms", "0")
    try:
        _put(port, "logs", "one.bin", b"logged by a worker")
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    records, text = [], []
    for line in output.splitlines():
        if "request.complete" in line or "request.slow" in line:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                text.append(line)
    assert not text, f"worker request lines are not JSON: {text[:2]}"
    put_events = {r["event"] for r in records if r.get("method") == "PUT"}
    assert put_events == {"request.complete", "request.slow"}
