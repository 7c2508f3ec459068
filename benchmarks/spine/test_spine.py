"""Unit checks of the spine's own arithmetic and of ``BENCHMARK.json``.

No sockets, no subprocesses: the sample maths, the self-time
subtraction, the determinism of the seeded inputs, the verifier's
refusal of wrong bytes, and a lint of the contract file against the
catalogue.
"""

import json
import re
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parent
sys.path.insert(0, str(SPINE))

import catalog  # noqa: E402
import loadgen  # noqa: E402
import mixes  # noqa: E402
import waterfall  # noqa: E402

BENCHMARK = json.loads((SPINE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- sample maths -----------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert loadgen.percentile(values, 0) == 10.0
    assert loadgen.percentile(values, 50) == 30.0
    assert loadgen.percentile(values, 100) == 50.0
    assert loadgen.percentile(values, 90) == pytest.approx(46.0)
    assert loadgen.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert loadgen.highest_supported_percentile(19) is None
    assert loadgen.highest_supported_percentile(20) == 50.0
    assert loadgen.highest_supported_percentile(1000) == 99.0
    assert loadgen.highest_supported_percentile(200, beyond=10) == 95.0


def test_self_time_is_inclusive_minus_children():
    inclusive = {"client": 900.0, "server": 650.0, "engine": 200.0, "locks": 20.0, "codec": 70.0}
    children = {"client": ["server"], "server": ["engine"], "engine": ["locks", "codec", "wal"]}
    own = waterfall.self_times(inclusive, children)
    assert own == {"client": 250.0, "server": 450.0, "engine": 110.0, "locks": 20.0, "codec": 70.0}
    # The self times of a chain telescope back to the root's inclusive time.
    assert sum(own.values()) == inclusive["client"]


def test_summarise_takes_medians_of_per_request_self_times():
    per_trace = [
        {"outer": 100.0, "inner": 40.0},
        {"outer": 120.0, "inner": 50.0},
        {"outer": 500.0, "inner": 45.0},  # one stalled request must not move the medians
    ]
    summary = waterfall.summarise(per_trace, {"outer": ["inner"]})
    assert summary["outer"] == (120.0, 70.0)
    assert summary["inner"] == (45.0, 45.0)


def test_quiet_half_keeps_the_faster_windows():
    windows = []
    for wall in (1.0, 0.8, 3.0, 0.9, 2.0):
        window = loadgen.Window()
        window.wall_s, window.attempted = wall, 100
        windows.append(window)
    quiet = loadgen.quiet_half(windows)
    assert sorted(w.wall_s for w in quiet) == [0.8, 0.9, 1.0]  # 5 windows: the faster 3
    assert loadgen.rate(quiet) == pytest.approx(300 / 2.7)
    # A short last window is ranked by its time per op, not by its wall time.
    windows[-1].attempted = 250  # 2.0 s for 250 ops: now the fastest
    short = loadgen.Window()
    short.wall_s, short.attempted = 0.5, 10  # the slowest, though the shortest
    quiet = loadgen.quiet_half(windows + [short])
    assert sorted(w.wall_s for w in quiet) == [0.8, 0.9, 2.0]


def test_spans_nest_and_sum_by_name():
    spans = waterfall.Spans()
    outer, _ = spans.call(0, -1, "outer", lambda: None)
    spans.call(0, outer, "leaf", lambda: None)
    spans.call(0, outer, "leaf", lambda: None)
    assert [row[2] for row in spans.rows] == [-1, outer, outer]
    layers = spans.inclusive_by_trace()[0]
    assert set(layers) == {"outer", "leaf"}
    assert layers["leaf"] == sum(end - start for *_, name, start, end in spans.rows if name == "leaf")


# -- seeded inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_same_seed_same_op_sequence(name):
    mix = mixes.MIXES[name]
    assert mixes.stream_digest(mix, 7, 1, 300) == mixes.stream_digest(mix, 7, 1, 300)
    assert mixes.stream_digest(mix, 7, 1, 300) != mixes.stream_digest(mix, 8, 1, 300)
    assert mixes.stream_digest(mix, 7, 1, 300) != mixes.stream_digest(mix, 7, 2, 300)


@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_every_mix_issues_every_op_kind_on_preloaded_keys(name):
    mix = mixes.MIXES[name]
    keys = set(mix.all_keys())
    ops = mixes.op_stream(mix, 3, 1)
    seen = set()
    for _ in range(4 * len(mix.block)):
        op = next(ops)
        seen.add(op.kind)
        assert op.key in keys
        if op.kind == "range":
            assert 0 <= op.lo <= op.hi < mix.size_of(op.key)
            assert op.hi - op.lo + 1 == mix.range_bytes
    assert seen == set(loadgen.KINDS)


def test_payload_slices_agree_with_the_whole():
    payloads = mixes.Payloads(5)
    size = 3 * (1 << 20) + 123  # longer than the block, so it wraps
    whole = payloads.full("k00001", 2, size)
    assert len(whole) == size
    for lo, hi in ((0, 16), (3, 40), (16, 17), (1 << 20, (1 << 20) + 70000), (size - 5, size)):
        assert payloads.slice("k00001", 2, lo, hi) == whole[lo:hi]
    assert payloads.full("k00001", 3, 1024) != whole[:1024]
    assert mixes.Payloads(6).full("k00001", 2, 1024) != whole[:1024]


# -- the verifier -----------------------------------------------------------------------


class _CannedClient:
    """Stands in for GatewayClient: serves whatever the test stored."""

    def __init__(self):
        self.objects = {}

    def get(self, bucket, key, byte_range=None):
        return self.objects[key]

    def close(self):
        pass


def _driver(mix):
    driver = loadgen.Driver.__new__(loadgen.Driver)
    driver.mix, driver.payloads = mix, mixes.Payloads(1)
    driver.versions, driver.client = loadgen.KeyVersions(mix.all_keys()), _CannedClient()
    return driver


def test_verifier_counts_a_corrupted_payload_and_does_not_raise():
    mix = mixes.MIXES["small_direct"]
    driver = _driver(mix)
    key = "k00007"
    driver.versions.ack_write(key, driver.versions.begin_write(key))
    good = driver.payloads.full(key, 1, mix.object_bytes)
    window = loadgen.Window()

    driver.client.objects[key] = good
    driver.execute(mixes.Op("get", key), window)
    assert (window.attempted, window.failed) == (1, 0)

    driver.client.objects[key] = good[:100] + bytes([good[100] ^ 1]) + good[101:]
    driver.execute(mixes.Op("get", key), window)
    assert (window.attempted, window.failed) == (2, 1)
    assert "wrong bytes" in window.failures[0]

    del driver.client.objects[key]  # the client raising is a failure too, not a crash
    driver.execute(mixes.Op("get", key), window)
    assert (window.attempted, window.failed) == (3, 2)


def test_a_read_overlapping_a_write_may_return_either_version():
    mix = mixes.MIXES["small_direct"]
    driver = _driver(mix)
    key = "k00009"
    driver.versions.ack_write(key, driver.versions.begin_write(key))
    driver.versions.begin_write(key)  # version 2 is in flight, not acknowledged
    window = loadgen.Window()
    for version in (1, 2):
        driver.client.objects[key] = driver.payloads.full(key, version, mix.object_bytes)
        driver.execute(mixes.Op("get", key), window)
    assert window.failed == 0
    driver.client.objects[key] = driver.payloads.full(key, 3, mix.object_bytes)
    driver.execute(mixes.Op("get", key), window)
    assert window.failed == 1


def test_multipart_etag_is_the_s3_convention():
    import hashlib

    parts = [b"a" * 10, b"b" * 7]
    joined = hashlib.md5(b"a" * 10).digest() + hashlib.md5(b"b" * 7).digest()
    assert loadgen.multipart_etag(parts) == hashlib.md5(joined).hexdigest() + "-2"


# -- BENCHMARK.json ------------------------------------------------------------------------


def test_contract_file_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/spine"]
    assert BENCHMARK["command"][-1].startswith("benchmarks/spine/")
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


def test_contract_workloads_are_the_four_mixes():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(catalog.WORKLOADS)
    assert len(BENCHMARK["workloads"]) == 4
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == mixes.MIXES[workload["name"]].why
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_contract_end_to_end_matches_the_catalogue():
    listed = BENCHMARK["end_to_end"]
    assert 1 <= len(listed) <= 16
    assert listed == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END
    ]
    for metric in listed:
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in listed


def test_contract_per_layer_matches_the_catalogue():
    listed = BENCHMARK["per_layer"]
    assert 1 <= len(listed) <= 128
    assert listed == [{"name": m.name, "unit": m.unit, "better": m.better} for m in catalog.PER_LAYER]


def test_names_are_well_formed_and_used_once():
    names = (
        [w["name"] for w in BENCHMARK["workloads"]]
        + [m["name"] for m in BENCHMARK["end_to_end"]]
        + [m["name"] for m in BENCHMARK["per_layer"]]
    )
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in catalog.END_TO_END}
    for layer in catalog.PER_LAYER:
        assert layer.moves or layer.none_because, layer.name
        for metric, workload in layer.moves:
            assert metric in end_to_end, (layer.name, metric)
            assert workload in catalog.WORKLOADS, (layer.name, workload)
