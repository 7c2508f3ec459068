#!/usr/bin/env python3
"""Cluster failover smoke: 3 nodes, SIGKILL the leader, stay available.

CI runs this (the ``cluster-failover-smoke`` job) against an installed
``repro``; it also runs locally from a checkout:

    PYTHONPATH=src python scripts/cluster_failover_smoke.py [--workers N]

``--workers N`` boots every node with N pre-forked gateway workers (the
composed topology); the kill then takes the leader's supervisor only, and
its orphaned workers must get out of the way on their own.

Checks, in order:

1. three ``repro serve --cluster-listen`` processes form one cluster
   (every ``/cluster`` document lists all three members);
2. writes through the leader *and* forwarded through a follower gateway
   are acknowledged and replicated;
3. SIGKILL the leader mid-workload: the survivors elect a new leader
   within a few election timeouts;
4. zero acknowledged writes lost — every 200-acked object is readable
   from the new leader and, once replicated, from the other survivor;
5. the 2-of-3 cluster accepts writes again, and ``repro cluster
   status`` reports the new leader;
6. no request was ever answered with a 5xx other than ``503`` +
   ``Retry-After``.

Exit code 0 means every check held.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, _SRC)

#: Subprocesses need the checkout on their path too when ``repro`` is
#: not installed (the CI job installs it; local runs go via PYTHONPATH).
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = _SRC + os.pathsep + _ENV.get("PYTHONPATH", "")
_ENV["PYTHONUNBUFFERED"] = "1"  # the banners are read off a pipe

HEARTBEAT_MS = 50
ELECTION_MS = 500


#: Every 5xx any request below was answered with: (status, Retry-After).
SERVER_ERRORS = []


def log(message):
    print(f"[failover-smoke] {message}", flush=True)


def http_open(request, timeout):
    try:
        return urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        if exc.code >= 500:
            SERVER_ERRORS.append((exc.code, exc.headers.get("Retry-After")))
        raise


def spawn_node(data_dir, node_id, join=None, workers=0):
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--workers", str(workers),
        "--data-dir", str(data_dir),
        "--node-id", node_id,
        "--cluster-listen", "127.0.0.1:0",
        "--heartbeat-ms", str(HEARTBEAT_MS),
        "--election-timeout-ms", str(ELECTION_MS),
    ]
    if join:
        cmd += ["--join", join]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_ENV,
    )
    base_url = rpc = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(f"{node_id} exited during startup")
            continue
        if "cluster node" in line and " rpc " in line:
            rpc = line.split(" rpc ", 1)[1].split(",", 1)[0].strip()
        if "listening on" in line:
            base_url = line.split("listening on", 1)[1].split()[0]
            break
    if base_url is None or rpc is None:
        proc.kill()
        raise RuntimeError(f"{node_id} never reported gateway + rpc addresses")
    for _ in range(100):
        try:
            urllib.request.urlopen(f"{base_url}/healthz", timeout=1)
            log(f"{node_id}: gateway {base_url}, rpc {rpc}")
            return proc, base_url, rpc
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"{node_id} never became healthy")


def put(base_url, key, data):
    request = urllib.request.Request(
        f"{base_url}/smoke/{key}", data=data, method="PUT"
    )
    with http_open(request, 15) as response:
        if response.status != 200:
            raise RuntimeError(f"PUT {key}: {response.status}")


def get(base_url, key):
    with http_open(f"{base_url}/smoke/{key}", 15) as r:
        return r.read()


def cluster_doc(base_url):
    with http_open(f"{base_url}/cluster", 5) as r:
        return json.loads(r.read())


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            result = predicate()
        except (urllib.error.URLError, ConnectionError, OSError):
            result = None
        if result:
            return result
        time.sleep(0.1)
    raise RuntimeError(f"timed out waiting for {what}")


def main():
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=0,
        help="pre-forked gateway workers per node (0 = in-process gateway)",
    )
    workers = parser.parse_args().workers
    root = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    nodes = {}
    try:
        proc, url, rpc = spawn_node(root / "a", "node-a", workers=workers)
        nodes["node-a"] = (proc, url)
        for node_id, sub in (("node-b", "b"), ("node-c", "c")):
            p, u, _ = spawn_node(root / sub, node_id, join=rpc, workers=workers)
            nodes[node_id] = (p, u)

        wait_for(
            lambda: all(
                len(cluster_doc(u)["members"]) == 3 for _, u in nodes.values()
            ),
            30,
            "membership convergence",
        )
        log("membership converged: 3 members on every node")

        leader_id = wait_for(
            lambda: cluster_doc(nodes["node-a"][1])["leader"], 15, "a leader"
        )
        leader_proc, leader_url = nodes[leader_id]
        followers = {k: v for k, v in nodes.items() if k != leader_id}
        follower_url = next(iter(followers.values()))[1]

        acked = {}
        for i in range(8):
            key = f"pre-{i}.bin"
            payload = os.urandom(512)
            target = follower_url if i % 4 == 3 else leader_url
            put(target, key, payload)
            acked[key] = payload
        log(f"acked {len(acked)} writes (incl. follower-forwarded)")

        leader_proc.send_signal(signal.SIGKILL)
        log(f"SIGKILLed leader {leader_id}" + (" (supervisor only)" if workers else ""))
        for i in range(20):
            key = f"during-{i}.bin"
            payload = os.urandom(256)
            try:
                put(leader_url, key, payload)
                acked[key] = payload
            except (urllib.error.URLError, ConnectionError, OSError):
                break
        leader_proc.wait(timeout=10)

        def new_leader():
            docs = {k: cluster_doc(u) for k, (_, u) in followers.items()}
            leaders = {d["leader"] for d in docs.values()}
            if len(leaders) == 1 and leaders not in ({None}, {leader_id}):
                (who,) = leaders
                if docs[who]["role"] == "leader":
                    return who
            return None

        elected = wait_for(new_leader, 30, "failover election")
        log(f"survivors elected {elected}")

        new_leader_url = followers[elected][1]
        for key, payload in acked.items():
            if get(new_leader_url, key) != payload:
                raise RuntimeError(f"acked write {key} lost or corrupt")
        log(f"all {len(acked)} acked writes intact on the new leader")

        put(new_leader_url, "after-failover.bin", b"alive" * 64)
        if get(new_leader_url, "after-failover.bin") != b"alive" * 64:
            raise RuntimeError("post-failover write corrupt")
        other_url = next(u for k, (_, u) in followers.items() if k != elected)
        wait_for(
            lambda: cluster_doc(other_url)["last_seq"]
            == cluster_doc(new_leader_url)["last_seq"],
            30,
            "survivor replication",
        )
        for key, payload in acked.items():
            if get(other_url, key) != payload:
                raise RuntimeError(f"acked write {key} not on the follower")
        log(f"all {len(acked)} acked writes re-read from the follower")
        put(other_url, "via-follower.bin", b"forwarded" * 64)
        if get(new_leader_url, "via-follower.bin") != b"forwarded" * 64:
            raise RuntimeError("post-failover forwarded write corrupt")
        log("cluster writable again at 2 of 3 (leader and forwarded)")

        cli = subprocess.run(
            [sys.executable, "-m", "repro", "cluster", "status",
             "--url", new_leader_url],
            capture_output=True, text=True, timeout=30, env=_ENV,
        )
        if cli.returncode != 0:
            raise RuntimeError(f"cluster status failed: {cli.stderr}")
        if f"leader   : {elected}" not in cli.stdout:
            raise RuntimeError(f"cluster status missing leader: {cli.stdout}")
        log("repro cluster status agrees")
        if any(status != 503 or not retry for status, retry in SERVER_ERRORS):
            raise RuntimeError(f"5xx other than 503 + Retry-After: {SERVER_ERRORS}")
        log(f"{len(SERVER_ERRORS)} refusals, each a 503 + Retry-After")
        log("OK")
        return 0
    finally:
        for proc, _url in nodes.values():
            if proc.poll() is None:
                proc.kill()
        for proc, _url in nodes.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        import shutil

        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
