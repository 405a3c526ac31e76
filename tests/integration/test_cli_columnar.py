"""CLI-level parity: every command prints what the reference oracle
computes.

The CLI reads pcaps through the zero-copy columnar pipeline; the
expected output here is rendered from a materialized trace run through
``tests/oracles.py`` (offline commands) or through the per-record
streaming feed (streaming and monitor commands).  Every output mode
must match byte for byte.
"""

import json
import random
import re

import pytest

from repro.cli import _print_figures, main
from repro.core.detector import DetectorConfig
from repro.core.report import render_summary
from repro.core.serialize import result_to_dict
from repro.net.addr import IPv4Prefix
from repro.net.pcap import read_pcap, write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import (ReferenceStreamingDetector, reference_detect,
                           reference_feed_pairs)


@pytest.fixture(scope="module")
def loop_pcap(tmp_path_factory):
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    builder.add_background(100, 0.0, 30.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=2,
                     replicas_per_packet=5, spacing=0.01, entry_ttl=40)
    path = tmp_path_factory.mktemp("cli_columnar") / "loop.pcap"
    write_pcap(builder.build(), path)
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def _oracle(path, link_name="", **config):
    return reference_detect(read_pcap(path, link_name=link_name),
                            DetectorConfig(**config))


def _streaming_oracle(path, monitor=None):
    """The per-record reference streaming feed over a materialized
    trace."""
    streaming = ReferenceStreamingDetector(DetectorConfig())
    pairs = ((record.timestamp, record.data)
             for record in read_pcap(path))
    if monitor is None:
        loops = []
        for timestamp, data in pairs:
            loops.extend(streaming.process(timestamp, data))
    else:
        from repro.obs.live import attach_detector

        attach_detector(monitor, streaming)
        loops = reference_feed_pairs(streaming, monitor, pairs)
    loops.extend(streaming.flush())
    return streaming, loops


class TestColumnarFlagParity:
    def test_detect_summary_identical(self, loop_pcap, capsys):
        out = _run(capsys, ["detect", str(loop_pcap)])
        assert out == render_summary(_oracle(loop_pcap)) + "\n"
        assert "validated streams: 2" in out
        assert "routing loops: 1" in out

    def test_detect_figures_identical(self, loop_pcap, capsys):
        out = _run(capsys, ["detect", str(loop_pcap), "--figures"])
        result = _oracle(loop_pcap)
        print(render_summary(result))
        _print_figures(result)
        assert out == capsys.readouterr().out
        assert "Figure 2" in out

    def test_detect_json_identical(self, loop_pcap, capsys):
        out = _run(capsys, ["detect", str(loop_pcap), "--json"])
        document = json.loads(out)
        # ``metrics`` is the run's registry snapshot, not detection
        # output; every detection section must match the oracle.
        del document["metrics"]
        assert document == json.loads(json.dumps(
            result_to_dict(_oracle(loop_pcap))))
        assert '"loops"' in out

    def test_detect_streaming_identical(self, loop_pcap, capsys):
        out = _run(capsys, ["detect", str(loop_pcap), "--streaming"])
        streaming, loops = _streaming_oracle(loop_pcap)
        lines = [f"records: {streaming.stats.records}",
                 f"streams completed: {streaming.stats.streams_completed}",
                 f"routing loops: {len(loops)}"]
        lines += [f"  {loop.prefix}  {loop.start:.3f}..{loop.end:.3f}s  "
                  f"delta={loop.ttl_delta} replicas={loop.replica_count}"
                  for loop in loops]
        assert out == "\n".join(lines) + "\n"
        assert "routing loops: 1" in out

    def test_detect_options_identical(self, loop_pcap, capsys):
        out = _run(capsys, ["detect", str(loop_pcap),
                            "--min-stream-size", "9"])
        assert out == render_summary(
            _oracle(loop_pcap, min_stream_size=9)) + "\n"
        assert "validated streams: 0" in out

    def test_monitor_identical(self, loop_pcap, capsys):
        from repro.obs.live import LiveMonitor
        from repro.obs.metrics import MetricsRegistry

        out = _run(capsys, ["monitor", str(loop_pcap), "--no-dashboard"])
        monitor = LiveMonitor(registry=MetricsRegistry(enabled=True))
        streaming, loops = _streaming_oracle(loop_pcap, monitor)
        monitor.finish()
        assert out == (f"records: {streaming.stats.records}\n"
                       f"routing loops: {len(loops)}\n"
                       f"alerts: {len(monitor.alerts.history)}\n")


class TestBatchColumnarParity:
    def test_batch_pcap_identical(self, loop_pcap, capsys):
        from repro.parallel.batch import BatchItemResult, BatchResult

        out = _run(capsys, ["batch", str(loop_pcap)])
        result = _oracle(loop_pcap, link_name=str(loop_pcap))
        expected = BatchResult(items=[BatchItemResult(
            name=str(loop_pcap), kind="pcap",
            records=len(result.trace),
            trace_seconds=result.trace.duration,
            candidate_streams=len(result.candidate_streams),
            validated_streams=result.stream_count,
            loops=result.loop_count,
            looped_packets=result.looped_packet_count,
        )])

        # Wall-clock columns (2-decimal seconds) legitimately vary
        # between runs; every detection number must match.
        def normalize(text):
            return re.sub(r"\d+\.\d\d", "X", text)

        assert normalize(out) == normalize(expected.render() + "\n")


class TestTimeOrderContract:
    """A simulated capture with one record moved 1 s past its successor:
    every live entry point feeds the records before the first
    regressing one, then rejects it, in the state the per-record
    reference has there.  Offline detection is exact in any order."""

    @pytest.fixture(scope="class")
    def regressing(self, shared_run, tmp_path_factory):
        from repro.net.trace import Trace, TraceRecord

        records = list(shared_run.trace.records)
        at = len(records) * 3 // 4  # past the first minute
        moved = records[at]
        records[at] = TraceRecord(records[at + 1].timestamp + 1.0,
                                  moved.data, moved.wire_length)
        path = tmp_path_factory.mktemp("time_order") / "regress.pcap"
        write_pcap(Trace(records=records), path)
        return path, at + 1

    def _feed_until_raise(self, path, feed, detector):
        from repro.net.pcap import read_pcap_columnar
        from tests.obs.test_live import monitored_chain

        streaming, monitor, log = monitored_chain(detector=detector)
        with pytest.raises(ValueError, match="time-ordered"):
            for chunk in read_pcap_columnar(path, chunk_records=1000).chunks:
                feed(streaming, monitor, chunk)
        return streaming, monitor.state(), log

    def test_live_entry_points_stop_at_the_regression(self, regressing):
        from repro.core.streaming import StreamingLoopDetector
        from repro.net.pcap import read_pcap_columnar
        from repro.obs.live import feed_chunk
        from tests.obs.test_live import pair_feed, reference_feed

        path, first_bad = regressing
        ref, ref_state, ref_log = self._feed_until_raise(
            path, reference_feed, ReferenceStreamingDetector)
        assert ref.stats.records == first_bad
        assert ref_log
        for feed in (feed_chunk, pair_feed):
            streaming, state, log = self._feed_until_raise(
                path, feed, StreamingLoopDetector)
            assert (state, log) == (ref_state, ref_log)
            assert streaming.state_snapshot() == ref.state_snapshot()
            assert streaming.stats == ref.stats
        detector = StreamingLoopDetector()
        with pytest.raises(ValueError, match="time-ordered"):
            for chunk in read_pcap_columnar(path, chunk_records=1000).chunks:
                detector.process_chunk(chunk)
        assert detector.state_snapshot() == ref.state_snapshot()
        assert detector.stats == ref.stats

    def test_cli_live_commands_exit_1_offline_detects(self, regressing,
                                                      capsys):
        path, _ = regressing
        assert main(["detect", str(path), "--streaming"]) == 1
        assert main(["monitor", str(path), "--no-dashboard"]) == 1
        assert "time-ordered" in capsys.readouterr().err
        assert main(["detect", str(path)]) == 0
