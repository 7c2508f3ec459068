"""SIGKILL the cluster leader mid-workload; a follower must take over
with zero acknowledged writes lost.

Three real ``repro serve`` subprocesses form a cluster over loopback.
The leader dies by SIGKILL (no shutdown hooks, no snapshot, no flush
beyond the WAL's per-record discipline) while PUTs are streaming in.
Every write the dead leader acknowledged with a 200 must be readable
from the survivors after failover, the survivors must converge on one
new leader, and the cluster must accept writes again — the paper's
"leader elected among all engines" (Fig. 7) made crash-tolerant.

The same run takes the composed topology as an input: with ``workers=2``
every node serves through two pre-forked gateway workers, only the
leader's *supervisor* is killed (its orphaned workers must get out of the
way on their own), and every request below is answered by some worker.
Whatever the topology, the only 5xx a client may see is ``503`` with
``Retry-After``.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HEARTBEAT_MS = 50
ELECTION_MS = 400


#: Every 5xx any helper below was answered with: (status, Retry-After).
_server_errors = []


def _open(request, timeout):
    try:
        return urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        if exc.code >= 500:
            _server_errors.append((exc.code, exc.headers.get("Retry-After")))
        raise


def _spawn_node(data_dir, node_id, join=None, workers=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
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
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True
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
            return proc, base_url, rpc
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"{node_id} never became healthy")


def _put(base_url, bucket, key, data, timeout=15):
    request = urllib.request.Request(
        f"{base_url}/{bucket}/{key}", data=data, method="PUT"
    )
    with _open(request, timeout) as response:
        assert response.status == 200
        return json.loads(response.read())


def _get(base_url, bucket, key, timeout=15):
    with _open(f"{base_url}/{bucket}/{key}", timeout) as r:
        return r.read()


def _cluster_doc(base_url, timeout=5):
    with _open(f"{base_url}/cluster", timeout) as r:
        return json.loads(r.read())


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            result = predicate()
        except (urllib.error.URLError, ConnectionError, OSError):
            result = None
        if result:
            return result
    raise AssertionError(f"timed out waiting for {what}")


def test_leader_sigkill_mid_workload_loses_no_acked_write(tmp_path):
    _kill_the_leader_mid_workload(tmp_path, workers=0)


def test_leader_supervisor_sigkill_with_workers_loses_no_acked_write(tmp_path):
    _kill_the_leader_mid_workload(tmp_path, workers=2)


def _kill_the_leader_mid_workload(tmp_path, workers):
    nodes = {}
    del _server_errors[:]
    try:
        proc, url, rpc = _spawn_node(tmp_path / "a", "node-a", workers=workers)
        nodes["node-a"] = (proc, url)
        for node_id, sub in (("node-b", "b"), ("node-c", "c")):
            p, u, _ = _spawn_node(tmp_path / sub, node_id, join=rpc, workers=workers)
            nodes[node_id] = (p, u)

        # Everyone sees the 3-member cluster and agrees node-a leads.
        _wait_for(
            lambda: all(
                len(_cluster_doc(u)["members"]) == 3 for _, u in nodes.values()
            ),
            30,
            "membership convergence",
        )
        leader_id = "node-a"
        leader_proc, leader_url = nodes[leader_id]
        followers = {k: v for k, v in nodes.items() if k != leader_id}

        # Mixed workload against the leader: PUTs with interleaved GETs,
        # plus a couple of forwarded writes through a follower gateway.
        acked = {}
        follower_url = next(iter(followers.values()))[1]
        for i in range(12):
            key = f"pre-{i}.bin"
            payload = os.urandom(512 + 100 * i)
            target = follower_url if i % 5 == 4 else leader_url
            _put(target, "bkt", key, payload)
            acked[key] = payload
            if i % 3 == 2:
                assert _get(leader_url, "bkt", key) == payload

        # SIGKILL the leader (with workers: its supervisor only, the
        # broker's process) with writes still flowing: keep PUTting until
        # one fails, recording everything that got its 200.
        leader_proc.send_signal(signal.SIGKILL)
        for i in range(50):
            key = f"during-{i}.bin"
            payload = os.urandom(256)
            try:
                _put(leader_url, "bkt", key, payload, timeout=5)
                acked[key] = payload
            except (urllib.error.URLError, ConnectionError, OSError):
                break
        leader_proc.wait(timeout=10)

        # A survivor takes over within a few election timeouts.
        def new_leader():
            docs = {}
            for node_id, (_, u) in followers.items():
                docs[node_id] = _cluster_doc(u)
            leaders = {d["leader"] for d in docs.values()}
            if len(leaders) == 1 and leaders != {None} and leaders != {leader_id}:
                (who,) = leaders
                if docs[who]["role"] == "leader":
                    return who
            return None

        elected = _wait_for(new_leader, 30, "failover election")
        assert elected in followers

        # `repro cluster status` works against the survivors.
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        cli = subprocess.run(
            [
                sys.executable, "-m", "repro", "cluster", "status",
                "--url", followers[elected][1],
            ],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert cli.returncode == 0, cli.stderr
        assert f"leader   : {elected}" in cli.stdout

        # Zero acked writes lost: every 200 is readable from the new
        # leader, and (after replication) from the other survivor too.
        new_leader_url = followers[elected][1]
        for key, payload in acked.items():
            assert _get(new_leader_url, "bkt", key) == payload, key
        other_url = next(u for k, (_, u) in followers.items() if k != elected)
        _wait_for(
            lambda: _cluster_doc(other_url)["last_seq"]
            == _cluster_doc(new_leader_url)["last_seq"],
            30,
            "survivor replication",
        )
        for key, payload in acked.items():
            assert _get(other_url, "bkt", key) == payload, key

        # And the cluster is writable again (2 of 3 is a quorum), through
        # the leader and, forwarded, through the follower.
        _put(new_leader_url, "bkt", "after-failover.bin", b"alive" * 100)
        assert _get(new_leader_url, "bkt", "after-failover.bin") == b"alive" * 100
        _put(other_url, "bkt", "via-follower.bin", b"forwarded" * 100)
        assert _get(new_leader_url, "bkt", "via-follower.bin") == b"forwarded" * 100

        # Whoever answered, a failure was always "come back later".
        assert all(
            status == 503 and retry_after for status, retry_after in _server_errors
        ), _server_errors
    finally:
        for proc, _url in nodes.values():
            if proc.poll() is None:
                proc.kill()
        for proc, _url in nodes.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
