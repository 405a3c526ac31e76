"""CLI observability flags: --metrics-out, --trace-out, --progress,
--log-level, and the metrics/lifecycle sections of --json output."""

import json
import random

import pytest

from repro.cli import main
from repro.net.addr import IPv4Prefix
from repro.net.pcap import write_pcap
from repro.obs.metrics import get_registry, parse_prometheus
from repro.net.trace import Trace, TraceRecord
from repro.obs.tracing import read_trace, spans
from repro.traffic.synthetic import SyntheticTraceBuilder


@pytest.fixture
def pcap_with_loop(tmp_path):
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    builder.add_background(100, 0.0, 30.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=2,
                     replicas_per_packet=5, spacing=0.01, entry_ttl=40)
    path = tmp_path / "loop.pcap"
    write_pcap(builder.build(), path)
    return path


class TestMetricsOut:
    def test_prometheus_file(self, pcap_with_loop, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(["detect", str(pcap_with_loop),
                     "--metrics-out", str(out)])
        assert code == 0
        parsed = parse_prometheus(out.read_text())
        assert parsed["counters"]["detect_loops_total"] == 1
        assert parsed["counters"]["detect_records_total"] == 110

    def test_json_file_by_suffix(self, pcap_with_loop, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["detect", str(pcap_with_loop),
                     "--metrics-out", str(out)])
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["detect_loops_total"] == 1

    def test_registry_restored_after_run(self, pcap_with_loop, tmp_path,
                                         capsys):
        before = get_registry()
        main(["detect", str(pcap_with_loop),
              "--metrics-out", str(tmp_path / "m.prom")])
        assert get_registry() is before

    def test_streaming_metrics(self, pcap_with_loop, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(["detect", str(pcap_with_loop), "--streaming",
                     "--metrics-out", str(out)])
        assert code == 0
        parsed = parse_prometheus(out.read_text())
        assert parsed["counters"]["streaming_records_total"] == 110
        assert parsed["counters"]["streaming_loops_emitted_total"] == 1

    def test_short_records_counted(self, tmp_path, capsys):
        trace = Trace(records=[
            TraceRecord(timestamp=t, data=bytes(length), wire_length=length)
            for t, length in ((1.0, 40), (2.0, 8), (3.0, 0), (4.0, 20))
        ])
        pcap = tmp_path / "short.pcap"
        write_pcap(trace, pcap)
        out = tmp_path / "metrics.prom"
        code = main(["detect", str(pcap), "--metrics-out", str(out)])
        assert code == 0
        parsed = parse_prometheus(out.read_text())
        # The 8- and 0-byte bodies cannot hold an IPv4 header.
        assert parsed["counters"]["detect_records_skipped_short_total"] == 2
        assert parsed["counters"]["detect_records_total"] == 4


class TestDetectJson:
    def test_json_includes_metrics_section(self, pcap_with_loop, capsys):
        code = main(["detect", str(pcap_with_loop), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["detect_loops_total"] == 1
        assert payload["summary"]["loops"] == 1


class TestTraceOut:
    def test_detect_trace_has_phases_and_loops(self, pcap_with_loop,
                                               tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["detect", str(pcap_with_loop),
                     "--trace-out", str(out)])
        assert code == 0
        records = read_trace(out)
        names = {r["name"] for r in records}
        assert {"detect.replicas", "detect.validate",
                "detect.merge"} <= names
        assert len(spans(records, "loop")) == 1

    @pytest.mark.parametrize("extra", [[], ["--streaming"]],
                             ids=["offline", "streaming"])
    def test_stage_spans_match_stage_metrics(self, pcap_with_loop, tmp_path,
                                             capsys, extra):
        """Every wall-clock span in the trace file is a stage in the
        metrics file and vice versa: both come from one stage timer."""
        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.prom"
        code = main(["detect", str(pcap_with_loop), *extra,
                     "--trace-out", str(trace_out),
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        span_names = {r["name"] for r in spans(read_trace(trace_out))
                      if r["attrs"].get("clock") == "wall"}
        prefix = 'perf_stage_seconds{stage="'
        histograms = parse_prometheus(metrics_out.read_text())["histograms"]
        stage_labels = {key[len(prefix):-len('"}')] for key in histograms
                        if key.startswith(prefix)}
        assert span_names
        assert span_names == stage_labels

    def test_simulate_trace_and_lifecycle(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        code = main(["simulate", "backbone3", "--duration", "20",
                     "--trace-out", str(out)])
        assert code == 0
        assert "loop lifecycle:" in capsys.readouterr().out
        records = read_trace(out)
        names = {r["name"] for r in records}
        # Control-plane events plus detection-pipeline phases in one file.
        assert "spf_run" in names
        assert "igp_fib_install" in names
        assert "detect.merge" in names


class TestSimulateJson:
    def test_json_carries_route_cache_and_metrics(self, capsys):
        code = main(["simulate", "backbone3", "--duration", "20",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["route_cache"]) == {
            "hits", "misses", "invalidations", "hit_rate"}
        assert payload["route_cache"]["hits"] > 0
        assert "ttl_expiries" in payload["ground_truth"]
        counters = payload["metrics"]["counters"]
        assert counters["sim_packets_injected_total"] > 0
        assert counters["monitor_packets_seen_total"] > 0

    def test_json_with_trace_adds_lifecycle(self, tmp_path, capsys):
        code = main(["simulate", "backbone3", "--duration", "20",
                     "--json", "--trace-out", str(tmp_path / "t.jsonl")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lifecycle"]["loops"] == payload["summary"]["loops"]


class TestProgressAndLogging:
    def test_progress_logs_heartbeats(self, pcap_with_loop, capsys):
        code = main(["detect", str(pcap_with_loop), "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "read" in err and "done," in err

    def test_error_goes_through_logger(self, capsys):
        code = main(["detect", "/no/such/file.pcap"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_log_level_error_silences_warnings(self, tmp_path, capsys):
        # A truncated pcap warns at warning level; --log-level error
        # hides the log line (the result still prints).
        source = tmp_path / "trunc.pcap"
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(20, 0.0, 5.0)
        write_pcap(builder.build(), source)
        data = source.read_bytes()
        source.write_bytes(data[:-7])
        with pytest.warns(Warning):
            code = main(["detect", str(source), "--log-level", "error"])
        assert code == 0
        assert "mid-record" not in capsys.readouterr().err

    def test_truncated_pcap_logged_with_filename(self, tmp_path, capsys):
        source = tmp_path / "trunc.pcap"
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(20, 0.0, 5.0)
        write_pcap(builder.build(), source)
        data = source.read_bytes()
        source.write_bytes(data[:-7])
        with pytest.warns(Warning):
            code = main(["detect", str(source)])
        assert code == 0
        err = capsys.readouterr().err
        assert "trunc.pcap" in err
        assert "mid-record" in err

    def test_truncation_counter_in_metrics(self, tmp_path, capsys):
        source = tmp_path / "trunc.pcap"
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(20, 0.0, 5.0)
        write_pcap(builder.build(), source)
        data = source.read_bytes()
        source.write_bytes(data[:-7])
        out = tmp_path / "m.prom"
        with pytest.warns(Warning):
            code = main(["detect", str(source), "--metrics-out", str(out)])
        assert code == 0
        parsed = parse_prometheus(out.read_text())
        assert parsed["counters"]["pcap_truncated_records_total"] == 1


class TestMonitorCommand:
    def test_ascii_dashboard_and_summary(self, pcap_with_loop, capsys):
        assert main(["monitor", str(pcap_with_loop)]) == 0
        out = capsys.readouterr().out
        assert "routing-loop live monitor" in out
        assert "looped share per minute (Sec. VI)" in out

    def test_no_dashboard_summary(self, pcap_with_loop, capsys):
        assert main(["monitor", str(pcap_with_loop),
                     "--no-dashboard"]) == 0
        out = capsys.readouterr().out
        assert "records: 110" in out
        assert "routing loops:" in out

    def test_alerts_and_dashboard_out(self, pcap_with_loop, tmp_path,
                                      capsys):
        dashboard = tmp_path / "dash.html"
        assert main(["monitor", str(pcap_with_loop), "--alerts",
                     "--dashboard-out", str(dashboard)]) == 0
        html = dashboard.read_text(encoding="utf-8")
        assert "Looped traffic share per minute" in html
        assert "<svg" in html
        # The synthetic loop pushes the looped share over the Sec. VI
        # ceiling within minute 0, so the alert must have fired.
        out = capsys.readouterr().out
        assert "looped_loss_share" in out

    def test_metrics_out_composes(self, pcap_with_loop, tmp_path,
                                  capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(["monitor", str(pcap_with_loop), "--alerts",
                     "--metrics-out", str(metrics)]) == 0
        parsed = parse_prometheus(metrics.read_text(encoding="utf-8"))
        assert parsed["counters"]["alerts_fired_total"] >= 1


class TestServeEndToEnd:
    def test_serve_scrapes_during_run(self, pcap_with_loop, tmp_path):
        """Full black-box run: spawn the CLI with --serve 0 --linger,
        parse the printed endpoint URL, scrape /metrics and /healthz
        while it lingers, then let it exit cleanly."""
        import os
        import subprocess
        import sys
        import urllib.request

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; raise SystemExit(main())",
             "monitor", str(pcap_with_loop), "--serve", "0",
             "--alerts", "--no-dashboard", "--linger", "20"],
            cwd="/root/repo", env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("monitoring endpoints at http://")
            url = line.rsplit(None, 1)[-1]

            def fetch(path):
                with urllib.request.urlopen(url + path,
                                            timeout=10.0) as resp:
                    return resp.read().decode("utf-8")

            deadline = 100
            while True:
                health = json.loads(fetch("/healthz"))
                if health["finished"]:
                    break
                deadline -= 1
                assert deadline > 0, "stream never finished"
            assert health["records"] == 110
            parsed = parse_prometheus(fetch("/metrics"))
            assert parsed["counters"]["alerts_fired_total"] >= 1
            assert "<svg" in fetch("/")
        finally:
            process.terminate()
            process.wait(timeout=10.0)
