"""Tests for the command-line interface."""

import random
import socket

import pytest

from repro.cli import main


class TestCatalog:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "S3(h)" in out and "CheapStor" not in out

    def test_catalog_with_cheapstor(self, capsys):
        assert main(["catalog", "--cheapstor"]) == 0
        assert "CheapStor" in capsys.readouterr().out


class TestPlacement:
    def test_cold_object(self, capsys):
        assert main(["placement", "--size", "1000000"]) == 0
        out = capsys.readouterr().out
        # Storage-optimal 5-provider m:4 set for a cold 1 MB object.
        assert "[Azu, Ggl, RS, S3(h), S3(l); m:4]" in out
        assert "top 5 feasible candidates" in out

    def test_hot_object(self, capsys):
        assert main(["placement", "--size", "1000000", "--reads-per-hour", "150"]) == 0
        out = capsys.readouterr().out
        assert "m:1]" in out.splitlines()[0]

    def test_lockin_flag(self, capsys):
        assert main(["placement", "--lockin", "0.25"]) == 0
        # At least four providers in the chosen set.
        first = capsys.readouterr().out.splitlines()[0]
        assert first.count(",") >= 3


class TestScenario:
    def test_static_policy(self, capsys):
        code = main(
            ["scenario", "slashdot", "--policy", "S3(h),S3(l)", "--horizon", "60",
             "--ideal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S3(h)-S3(l)" in out
        assert "% over" in out

    def test_scalia_policy(self, capsys):
        assert main(["scenario", "active_repair", "--horizon", "80"]) == 0
        out = capsys.readouterr().out
        assert "Scalia" in out
        assert "total" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "nonexistent"])


class TestPutGet:
    """repro put / repro get against an in-process gateway."""

    @pytest.fixture()
    def gateway_url(self):
        from repro.core.broker import Scalia
        from repro.gateway.frontend import BrokerFrontend
        from repro.gateway.server import ScaliaGateway

        frontend = BrokerFrontend(Scalia(stripe_size_bytes=64 * 1024))
        gw = ScaliaGateway(frontend, port=0).start()
        yield gw.url
        gw.close()
        frontend.close()

    def test_put_then_get_file(self, tmp_path, capsys, gateway_url):
        data = random.Random(1).randbytes(200_000)  # multi-stripe at 64 KiB
        src = tmp_path / "src.bin"
        src.write_bytes(data)
        out = tmp_path / "out.bin"
        assert main(
            ["put", "photos", "cat.bin", str(src), "--url", gateway_url]
        ) == 0
        assert "stored photos/cat.bin" in capsys.readouterr().out
        assert main(
            ["get", "photos", "cat.bin", "-o", str(out), "--url", gateway_url]
        ) == 0
        assert out.read_bytes() == data

    def test_put_multipart_flag(self, tmp_path, capsys, gateway_url):
        data = random.Random(2).randbytes(300_000)
        src = tmp_path / "big.bin"
        src.write_bytes(data)
        code = main(
            [
                "put", "photos", "big.bin", str(src),
                "--url", gateway_url,
                "--multipart", "--part-size", str(128 * 1024),
            ]
        )
        assert code == 0
        out = tmp_path / "back.bin"
        assert main(
            ["get", "photos", "big.bin", "-o", str(out), "--url", gateway_url]
        ) == 0
        assert out.read_bytes() == data

    def test_get_range_flag(self, tmp_path, capsys, gateway_url):
        data = bytes(range(256)) * 100
        src = tmp_path / "r.bin"
        src.write_bytes(data)
        assert main(["put", "docs", "r.bin", str(src), "--url", gateway_url]) == 0
        out = tmp_path / "slice.bin"
        assert main(
            [
                "get", "docs", "r.bin", "-o", str(out),
                "--range", "100-199", "--url", gateway_url,
            ]
        ) == 0
        assert out.read_bytes() == data[100:200]

    def test_suffix_range_flag(self, tmp_path, capsys, gateway_url):
        data = bytes(range(256)) * 50
        src = tmp_path / "s.bin"
        src.write_bytes(data)
        assert main(["put", "docs", "s.bin", str(src), "--url", gateway_url]) == 0
        out = tmp_path / "tail.bin"
        assert main(
            ["get", "docs", "s.bin", "-o", str(out), "--range", "-500",
             "--url", gateway_url]
        ) == 0
        assert out.read_bytes() == data[-500:]

    def test_malformed_range_rejected(self, tmp_path, capsys, gateway_url):
        assert main(
            ["get", "docs", "x", "-o", str(tmp_path / "x"), "--range", "abc",
             "--url", gateway_url]
        ) == 2

    def test_put_from_stdin_uses_multipart(
        self, tmp_path, capsys, gateway_url, monkeypatch
    ):
        import io
        import types

        data = random.Random(3).randbytes(200_000)
        monkeypatch.setattr(
            "sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(data))
        )
        assert main(
            ["put", "docs", "piped.bin", "-", "--url", gateway_url,
             "--part-size", str(64 * 1024)]
        ) == 0
        out = tmp_path / "piped.bin"
        assert main(
            ["get", "docs", "piped.bin", "-o", str(out), "--url", gateway_url]
        ) == 0
        assert out.read_bytes() == data

    def test_get_of_missing_key_preserves_existing_file(
        self, tmp_path, capsys, gateway_url
    ):
        out = tmp_path / "precious.bin"
        out.write_bytes(b"do not clobber me")
        code = main(
            ["get", "docs", "no-such-key", "-o", str(out), "--url", gateway_url]
        )
        assert code == 1
        assert "get failed" in capsys.readouterr().err
        assert out.read_bytes() == b"do not clobber me"
        assert not (tmp_path / "precious.bin.part").exists()

    def test_unreachable_gateway_is_a_message_not_a_traceback(self, tmp_path, capsys):
        code = main(
            ["get", "docs", "k", "-o", str(tmp_path / "x"),
             "--url", "http://127.0.0.1:1"]  # nothing listens on port 1
        )
        assert code == 1
        assert "get failed" in capsys.readouterr().err
        src = tmp_path / "s.bin"
        src.write_bytes(b"x")
        code = main(["put", "docs", "k", str(src), "--url", "http://127.0.0.1:1"])
        assert code == 1
        assert "put failed" in capsys.readouterr().err


class TestStatus:
    """repro status against an in-process gateway."""

    @pytest.fixture()
    def gateway(self):
        from repro.gateway.frontend import BrokerFrontend
        from repro.gateway.server import ScaliaGateway

        gw = ScaliaGateway(BrokerFrontend(), port=0).start()
        yield gw
        gw.close()

    def test_status_prints_health_table(self, capsys, gateway):
        from repro.providers.faults import parse_fault_spec

        gateway.frontend.broker.registry.set_fault_profile(
            "RS", parse_fault_spec("latency=100ms,error=0.1")
        )
        assert main(["status", "--url", gateway.url]) == 0
        out = capsys.readouterr().out
        assert "breaker" in out
        assert "closed" in out
        assert "latency=100.0ms,error=0.1" in out
        assert "hedging  : on" in out

    def test_status_unreachable_gateway(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
        assert "status failed" in capsys.readouterr().err


class TestServeFaultFlags:
    def test_serve_parser_accepts_fault_and_hedge_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--fault", "RS:latency=5ms,error=0.1", "--fault",
             "Azu:flap=3/2", "--no-hedge", "--hedge-deadline-ms", "80"]
        )
        assert args.fault == ["RS:latency=5ms,error=0.1", "Azu:flap=3/2"]
        assert args.no_hedge is True
        assert args.hedge_deadline_ms == 80.0

    def test_serve_rejects_out_of_range_hedge_deadline(self, capsys):
        # Above HedgePolicy's max_deadline_s: a clean exit-2 message, not
        # a traceback.
        assert main(["serve", "--port", "0", "--hedge-deadline-ms", "3000"]) == 2
        assert "bad --hedge-deadline-ms" in capsys.readouterr().err


class TestServeWorkers:
    def test_workers_without_so_reuseport_exit_2_before_anything_starts(
        self, monkeypatch, capsys, tmp_path
    ):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        data_dir = tmp_path / "data"
        assert main(
            ["serve", "--port", "0", "--workers", "2", "--data-dir", str(data_dir)]
        ) == 2
        out, err = capsys.readouterr()
        assert err.count("SO_REUSEPORT") == 1 and len(err.splitlines()) == 1
        assert out == ""
        assert not data_dir.exists()  # no broker was built


class TestObservabilityCommands:
    """repro top/events/explain against an in-process gateway."""

    @pytest.fixture()
    def gateway(self):
        from repro.gateway.client import GatewayClient
        from repro.gateway.frontend import BrokerFrontend
        from repro.gateway.server import ScaliaGateway

        gw = ScaliaGateway(BrokerFrontend(), port=0).start()
        host, port = gw.address
        client = GatewayClient(host, port)
        client.put("photos", "cat.gif", b"x" * 4000)
        client.get("photos", "cat.gif")
        client.close()
        yield gw
        gw.close()

    def test_top_once_prints_a_single_frame(self, capsys, gateway):
        assert main(["top", "--once", "--url", gateway.url]) == 0
        out = capsys.readouterr().out
        assert out.count("requests ") == 1
        assert "slo" in out
        assert "\x1b[2J" not in out  # no screen clearing in one-shot mode

    def test_top_json_emits_combined_document(self, capsys, gateway):
        import json

        assert main(["top", "--json", "--url", gateway.url]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metrics", "history", "alerts"}
        assert "requests.total" in doc["history"]["series"]
        assert {r["name"] for r in doc["alerts"]["rules"]} == {"availability", "p99"}

    def test_events_lists_and_filters(self, capsys, gateway):
        assert main(["events", "--url", gateway.url]) == 0
        out = capsys.readouterr().out
        assert "placement.chosen" in out
        assert "photos/cat.gif" in out
        assert main(
            ["events", "--type", "migration.", "--url", gateway.url]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no events matched" in captured.err

    def test_events_json_is_one_object_per_line(self, capsys, gateway):
        import json

        assert main(["events", "--json", "--url", gateway.url]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines
        assert all("seq" in l and "type" in l for l in lines)

    def test_explain_prints_rationale(self, capsys, gateway):
        assert main(["explain", "photos/cat.gif", "--url", gateway.url]) == 0
        out = capsys.readouterr().out
        assert "placement :" in out
        assert "full replication" in out
        assert "never migrated" in out
        assert "decision log" in out

    def test_explain_bad_target_and_missing_object(self, capsys, gateway):
        assert main(["explain", "no-slash", "--url", gateway.url]) == 2
        assert "BUCKET/KEY" in capsys.readouterr().err
        assert main(["explain", "photos/nope", "--url", gateway.url]) == 1
        assert "404" in capsys.readouterr().err


class TestSparkline:
    def test_scales_to_the_window(self):
        from repro.cli import sparkline

        line = sparkline([0.0, 5.0, 10.0])
        assert len(line) == 3
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_flat_series_renders_low(self):
        from repro.cli import sparkline

        assert sparkline([4.0, 4.0, 4.0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_width_keeps_newest(self):
        from repro.cli import sparkline

        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10


class TestServeObservabilityFlags:
    def test_parser_accepts_event_and_slo_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--no-events", "--event-log", "/tmp/ev.jsonl",
             "--history-interval", "5", "--slo", "availability:target=99.5%",
             "--slo", "cost_gb:target=0.05"]
        )
        assert args.no_events is True
        assert args.event_log == "/tmp/ev.jsonl"
        assert args.history_interval == 5.0
        assert args.slo == ["availability:target=99.5%", "cost_gb:target=0.05"]

    def test_serve_rejects_malformed_slo(self, capsys):
        assert main(["serve", "--port", "0", "--slo", "bogus:target=1"]) == 2
        assert "bad --slo" in capsys.readouterr().err
