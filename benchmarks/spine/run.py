#!/usr/bin/env python3
"""The measurement spine: one command, four workloads, every metric by name.

    python3 benchmarks/spine/run.py                      # all four workloads
    python3 benchmarks/spine/run.py --workload small_direct --seed 7
    python3 benchmarks/spine/run.py --trace              # per-layer waterfall
    python3 benchmarks/spine/run.py --aa                 # same code twice, gaps vs bounds
    python3 benchmarks/spine/run.py --spread 10          # quartile spread over 10 seeds

An untraced run boots a real ``python -m repro serve`` subprocess per
workload and drives it from this process; a traced run (``--trace``)
builds the same stack in-process and times the benchmark's own calls
into each layer.  With ``--workload`` the last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
see README.md for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro").is_dir():
    sys.exit(f"spine: {_SRC}/repro not found; run from a checkout of the repository")
sys.path.insert(0, str(_SRC))

import catalog  # noqa: E402
import loadgen  # noqa: E402
import servers  # noqa: E402
from mixes import MIXES, Mix, Payloads, op_stream  # noqa: E402
from servers import OUT_DIR, REPO_ROOT  # noqa: E402

RUN_SECONDS = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"]
BOOTS = 3  # boots per run; setup_s uses their median
C1_WINDOWS = 20  # c1 is cut into about this many windows (whole blocks each)
C2_MIN_SECONDS = 3.0
KILL_AFTER_SECONDS = 0.3  # durable_put: SIGKILL lands this far into a write burst


# -- the untraced run -----------------------------------------------------------


def fingerprint(seed: int, mix: Mix, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_1min_at_start": load1,
        "noisy_host": load1 > 0.5 * nproc,
        "seed": seed,
        "seconds": seconds,
        "c1_ops": mix.c1_ops(seconds),
        "warmup_ops": mix.warmup_ops,
        "preloaded_keys": mix.keys + mix.mpu_keys,
    }


def _serve_args(mix: Mix, workdir, boot: int) -> List[str]:
    args = list(mix.serve_args)
    if mix.durable:
        args += ["--data-dir", str(workdir / f"data-{boot}")]
    return args


def run_untraced(mix: Mix, seed: int, seconds: float) -> dict:
    """Boot, preload, warm up, c1, c2, (crash and restart,) scrub, tear down."""
    doc = {"workload": mix.name, "trace": 0}
    workdir = servers.make_workdir(mix.name)
    server: Optional[servers.Server] = None
    drivers: List[loadgen.Driver] = []
    phases: Dict[str, loadgen.Phase] = {}
    problems: List[str] = []
    try:
        boot_s = []
        for boot in range(BOOTS):
            if server is not None:
                server.stop()
            server = servers.Server(_serve_args(mix, workdir, boot), workdir).start()
            boot_s.append(server.boot_s)

        payloads = Payloads(seed)
        versions = loadgen.KeyVersions(mix.all_keys())

        def driver() -> loadgen.Driver:
            drivers.append(loadgen.Driver(mix, payloads, versions, server.host, server.port))
            return drivers[-1]

        first = driver()
        preload = loadgen.preload_ops(mix)
        phases["preload"] = loadgen.run_fixed(first, iter(preload), len(preload))
        phases["warmup"] = loadgen.run_fixed(first, op_stream(mix, seed, 0), mix.warmup_ops)

        admin = server.client()
        c1_ops = mix.c1_ops(seconds)
        blocks = c1_ops // len(mix.block)
        window_ops = max(1, blocks // C1_WINDOWS) * len(mix.block)
        before = servers.scrape(admin)
        c1 = phases["c1"] = loadgen.run_fixed(
            first, op_stream(mix, seed, 1), c1_ops,
            window_ops=window_ops, probe=server.cpu_probe(),
        )
        after = servers.scrape(admin)

        pair = [first, driver()]
        c2 = phases["c2"] = loadgen.run_timed(
            pair, [op_stream(mix, seed, 2), op_stream(mix, seed, 3)],
            max(C2_MIN_SECONDS, seconds - c1.wall_s), window_ops,
        )
        peak_rss_mb = server.peak_rss_mb()

        crash: Optional[loadgen.Phase] = None
        if mix.durable:
            # Crash under load: both clients write until the kill lands.
            killer = threading.Timer(KILL_AFTER_SECONDS, server.kill)
            killer.start()
            crash = loadgen.run_timed(
                pair, [op_stream(mix, seed, 4), op_stream(mix, seed, 5)],
                10.0, window_ops, stop_on_failure=True,
            )
            killer.join()
            admin.close()
            for d in drivers:
                d.close()
            server = servers.Server(_serve_args(mix, workdir, BOOTS - 1), workdir).start()
            drivers.clear()
            admin = server.client()
            phases["restart_check"] = loadgen.verify(driver(), mix.all_keys())
        else:
            # GETs of the small mixes never read the multipart objects.
            phases["mpu_check"] = loadgen.verify(first, mix.multipart_keys())

        damage = servers.scrub_damage(admin.scrub(repair=False))
        if damage:
            problems.append(f"end-of-run scrub found {damage} damaged chunks")
        admin.close()
        if server.stop() != 0:
            problems.append(f"serve exited with {server.proc.returncode} on SIGTERM")
    finally:
        for d in drivers:
            d.close()
        if server is not None:
            server.stop()
        servers.remove_workdir(workdir)

    attempted = sum(phase.attempted for phase in phases.values())
    failed = sum(phase.failed for phase in phases.values()) + len(problems)
    # Requests the kill cut off were never acknowledged: either version may
    # survive (the restart check accepts both), so they are not failures.
    indeterminate = crash.failed if crash else 0
    attempted += crash.attempted - indeterminate if crash else 0
    for name, phase in phases.items():
        problems += [f"{name}: {text}" for text in phase.first_failures]

    setup_s = statistics.median(boot_s) + phases["preload"].wall_s + phases["warmup"].wall_s
    provider_bytes = servers.metric_total(after, "scalia_provider_bytes_total") - servers.metric_total(
        before, "scalia_provider_bytes_total"
    )
    billed = after["stats"]["cost_total"] - before["stats"]["cost_total"]
    # Time-based metrics use the quieter half of the windows (loadgen.quiet_half);
    # counts use all of c1, which the host's speed cannot move.
    quiet = loadgen.quiet_half(c1.windows[0])
    lat = {kind: loadgen.sorted_ms(quiet, kind) for kind in loadgen.KINDS}
    if any(not values for values in lat.values()):
        raise servers.ServerError(f"c1 completed no {[k for k, v in lat.items() if not v]} ops: {problems}")
    quiet_ops = sum(w.attempted for w in quiet)
    quiet_wall = sum(w.wall_s for w in quiet)
    metrics = {
        "setup_s": setup_s,
        "get_p50_ms": loadgen.percentile(lat["get"], 50),
        "put_p50_ms": loadgen.percentile(lat["put"], 50),
        "range_get_p50_ms": loadgen.percentile(lat["range"], 50),
        "mpu_put_p50_ms": loadgen.percentile(lat["mpu"], 50),
        "ops_per_s": loadgen.rate(quiet),
        "goodput_MBps": sum(w.user_bytes for w in quiet) / quiet_wall / 1e6,
        "cpu_ms_per_op": sum(w.server_cpu_s for w in quiet) * 1000.0 / quiet_ops,
        "server_peak_rss_mb": peak_rss_mb,
        "stored_bytes_per_user_byte": servers.stored_bytes(after) / mix.live_user_bytes,
        "provider_bytes_per_user_byte": provider_bytes / c1.user_bytes,
        "billed_usd_per_mop": billed / c1.attempted * 1e6,
    }
    c2_ops_per_s = sum(loadgen.rate(loadgen.quiet_half(client)) for client in c2.windows)
    client_side = {
        "client.get_p95_ms": loadgen.percentile(lat["get"], 95),
        "client.put_p95_ms": loadgen.percentile(lat["put"], 95),
        "client.c2_ops_per_s": c2_ops_per_s,
        "client.c2_p95_ms": loadgen.percentile(loadgen.sorted_ms(c2.every_window()), 95),
        "client.c2_over_c1_ratio": c2_ops_per_s / metrics["ops_per_s"],
        "client.c1_all_windows_ops_per_s": loadgen.rate(c1.windows[0]),
        "client.boot_s": statistics.median(boot_s),
        "client.preload_s": phases["preload"].wall_s,
    }
    for kind, values in lat.items():
        supported = loadgen.highest_supported_percentile(len(values))
        client_side[f"client.{kind}_samples"] = len(values)
        if supported is not None:
            client_side[f"client.{kind}_pmax_ms"] = loadgen.percentile(values, supported)
            client_side[f"client.{kind}_pmax_percentile"] = supported
    doc.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        indeterminate_at_kill=indeterminate,
        problems=problems,
        metrics={m.name: {"value": metrics[m.name], "unit": m.unit} for m in catalog.END_TO_END},
        client_side=client_side,
    )
    return doc


# -- reporting ------------------------------------------------------------------


def print_doc(doc: dict) -> None:
    host = doc["host"]
    print(
        f"== {doc['workload']} (trace={doc['trace']}, seed={host['seed']}, commit={host['commit']}, "
        f"nproc={host['nproc']}, load={host['loadavg_1min_at_start']:.2f}"
        f"{', NOISY HOST' if host['noisy_host'] else ''})"
    )
    for name, entry in doc["metrics"].items():
        print(f"  {name:<46} {entry['value']:>14.4f} {entry['unit']}")
    for name, value in doc.get("client_side", {}).items():
        unit = catalog.CLIENT_SIDE.get(name, "ms" if name.endswith("_ms") else "")
        print(f"  {name:<46} {value:>14.4f} {unit}")
    print(
        f"  attempted={doc['attempted']} failed={doc['failed']} "
        f"failed_ratio={doc['failed_ratio']:.6f} correct={doc['correct']}"
    )
    for problem in doc.get("problems", []):
        print(f"  ! {problem}")
    for line in doc.get("waterfall", []):
        print(line)


def record(doc: dict) -> None:
    """Append to the trajectory: results are never overwritten."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    slim = {k: v for k, v in doc.items() if k != "waterfall"}
    with open(OUT_DIR / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(slim, sort_keys=True) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    mix = MIXES[name]
    host = fingerprint(seed, mix, seconds)
    with servers.cpus_kept_awake(mix.idle_loop):
        if trace:
            import layers

            doc = layers.run_traced(mix, seed, seconds)
        else:
            doc = run_untraced(mix, seed, seconds)
    doc["host"] = host
    record(doc)
    return doc


def contract_line(doc: dict) -> str:
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": doc["metrics"],
        }
    )


# -- repeat modes -----------------------------------------------------------------


def run_aa(seed: int, seconds: float) -> int:
    """The full set twice on one commit, second time in reverse order."""
    first = {name: run_one(name, seed, seconds, 0) for name in catalog.WORKLOADS}
    second = {name: run_one(name, seed, seconds, 0) for name in reversed(catalog.WORKLOADS)}
    bad = 0
    for name in catalog.WORKLOADS:
        print(f"== A/A {name}")
        for metric in catalog.END_TO_END:
            a = first[name]["metrics"][metric.name]["value"]
            b = second[name]["metrics"][metric.name]["value"]
            gap = abs(b - a) / a
            over = gap > metric.bound
            bad += over
            print(
                f"  {metric.name:<30} {a:>12.4f} {b:>12.4f} {metric.unit:<6} "
                f"gap {gap * 100:6.2f}%  bound {metric.bound * 100:5.1f}%{'  OVER' if over else ''}"
            )
        for run in (first[name], second[name]):
            if not run["correct"]:
                bad += 1
                print(f"  ! incorrect run: {run['problems']}")
    print(f"A/A: {bad} metric(s) over their bound")
    return 1 if bad else 0


def run_spread(runs: int, seed: int, seconds: float, only: Optional[str]) -> int:
    """Quartile spread of every end-to-end metric over ``runs`` seeds.

    The acceptance rule of the benchmark contract: the distance between
    the first and third quartile, as a share of the median, must stay
    within the metric's bound (exit status), and within a third of it for
    the metric to count as steady (a remark).
    """
    bad = 0
    for name in [only] if only else catalog.WORKLOADS:
        docs = [run_one(name, seed + i, seconds, 0) for i in range(runs)]
        print(f"== spread over {runs} seeds: {name}")
        for metric in catalog.END_TO_END:
            values = [d["metrics"][metric.name]["value"] for d in docs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            bad += spread > metric.bound
            remark = "  OVER" if spread > metric.bound else "  unsteady" if spread > metric.bound / 3 else ""
            print(
                f"  {metric.name:<30} median {median:>12.4f} {metric.unit:<6} "
                f"spread {spread * 100:6.2f}%  bound {metric.bound * 100:5.1f}%{remark}"
            )
        if not all(d["correct"] for d in docs):
            bad += 1
            print("  ! at least one incorrect run")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--aa", action="store_true", help="run the full set twice, compare")
    parser.add_argument("--spread", type=int, metavar="RUNS", help="quartile spread over RUNS seeds")
    args = parser.parse_args(argv)
    # A terminated benchmark unwinds like a failed one: servers and loops stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.aa:
        return run_aa(args.seed, args.seconds)
    if args.spread:
        return run_spread(args.spread, args.seed, args.seconds, args.workload)
    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    docs = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    for doc in docs:
        print_doc(doc)
    if args.workload:
        print(contract_line(docs[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
