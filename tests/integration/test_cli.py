"""Tests for the command-line interface."""

import random

import pytest

from repro.cli import main
from repro.net.addr import IPv4Prefix
from repro.net.pcap import write_pcap
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


class TestDetectCommand:
    def test_detect_summary(self, pcap_with_loop, capsys):
        code = main(["detect", str(pcap_with_loop)])
        assert code == 0
        out = capsys.readouterr().out
        assert "validated streams: 2" in out
        assert "routing loops: 1" in out

    def test_detect_with_figures(self, pcap_with_loop, capsys):
        code = main(["detect", str(pcap_with_loop), "--figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 9" in out
        assert "escape analysis" in out

    def test_detect_missing_file(self, capsys):
        code = main(["detect", "/no/such/file.pcap"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_detect_options_forwarded(self, pcap_with_loop, capsys):
        code = main(["detect", str(pcap_with_loop),
                     "--min-stream-size", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "validated streams: 0" in out


class TestSimulateCommand:
    def test_simulate_and_pcap_out(self, tmp_path, capsys):
        out_pcap = tmp_path / "sim.pcap"
        code = main(["simulate", "backbone3", "--duration", "20",
                     "--pcap", str(out_pcap)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ground-truth looped packets" in out
        assert out_pcap.exists()

    def test_unknown_scenario(self, capsys):
        code = main(["simulate", "backbone99", "--duration", "20"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestReportCommand:
    def test_report_prints_all_figures(self, capsys):
        code = main(["report", "backbone3", "--duration", "20"])
        assert code == 0
        out = capsys.readouterr().out
        for figure in ("Figure 2", "Figure 3", "Figure 4", "Figure 5",
                       "Figure 6", "Figure 7", "Figure 8", "Figure 9"):
            assert figure in out


class TestAnonymizeCommand:
    def test_anonymize_round_trip(self, pcap_with_loop, tmp_path, capsys):
        from repro.net.pcap import read_pcap

        out = tmp_path / "anon.pcap"
        code = main(["anonymize", str(pcap_with_loop), str(out),
                     "--key", "a-sufficiently-long-secret-key"])
        assert code == 0
        assert "anonymized" in capsys.readouterr().out
        original = read_pcap(pcap_with_loop)
        masked = read_pcap(out)
        assert len(masked) == len(original)
        assert masked[0].data[16:20] != original[0].data[16:20]

    def test_anonymized_detection_equivalent(self, pcap_with_loop,
                                             tmp_path, capsys):
        out = tmp_path / "anon.pcap"
        main(["anonymize", str(pcap_with_loop), str(out),
              "--key", "a-sufficiently-long-secret-key"])
        capsys.readouterr()
        code = main(["detect", str(out)])
        assert code == 0
        assert "routing loops: 1" in capsys.readouterr().out

    def test_short_key_rejected(self, pcap_with_loop, tmp_path, capsys):
        out = tmp_path / "anon.pcap"
        code = main(["anonymize", str(pcap_with_loop), str(out),
                     "--key", "short"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestRemovedOptions:
    """detect and fleet take no in-trace parallelism options."""

    @pytest.mark.parametrize("option", ["--jobs", "--shards"])
    def test_detect_jobs_refused(self, pcap_with_loop, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["detect", str(pcap_with_loop), option, "2"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value",
                             [("--backend", "process"), ("--workers", "2")],
                             ids=["backend", "workers"])
    def test_fleet_backend_refused(self, tmp_path, option, value, capsys):
        config = tmp_path / "fleet.json"
        config.write_text('{"links": [{"id": "a", "source": '
                          '{"kind": "pcap", "path": "a.pcap"}}]}')
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", str(config), option, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestBatchCommand:
    def test_batch_over_pcaps(self, pcap_with_loop, capsys):
        code = main(["batch", str(pcap_with_loop), str(pcap_with_loop),
                     "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch detection" in out
        assert "totals:" in out
        assert "2 loops" in out

    def test_batch_scenario(self, capsys):
        code = main(["batch", "backbone1", "--duration", "20"])
        assert code == 0
        assert "backbone1" in capsys.readouterr().out

    def test_batch_unknown_target(self, capsys):
        code = main(["batch", "no-such-target"])
        assert code == 1
        assert "error" in capsys.readouterr().err
