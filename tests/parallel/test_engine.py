"""Tests for the sharded parallel detection engine.

The load-bearing property is exactness: for any worker count, the
parallel engine must return byte-identical streams and loops to the
reference pipeline in ``tests/oracles.py``.
"""

import random

import pytest

from repro.core.detector import DetectorConfig
from repro.net.addr import IPv4Prefix
from repro.net.pcap import write_pcap
from repro.net.trace import Trace
from repro.net.columnar import ColumnarTrace
from repro.parallel.engine import ParallelError, ParallelLoopDetector
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import reference_detect


def stream_fingerprint(stream):
    return (
        stream.key,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


def loop_fingerprint(loop):
    return (
        str(loop.prefix),
        tuple(stream_fingerprint(s) for s in loop.streams),
    )


def assert_identical(parallel_result, offline_result):
    assert ([stream_fingerprint(s) for s in parallel_result.candidate_streams]
            == [stream_fingerprint(s) for s in offline_result.candidate_streams])
    assert ([stream_fingerprint(s) for s in parallel_result.streams]
            == [stream_fingerprint(s) for s in offline_result.streams])
    assert ([loop_fingerprint(l) for l in parallel_result.loops]
            == [loop_fingerprint(l) for l in offline_result.loops])
    assert (parallel_result.looped_packet_count
            == offline_result.looped_packet_count)
    assert (parallel_result.validation.rejected_too_small
            == offline_result.validation.rejected_too_small)
    assert (parallel_result.validation.rejected_prefix_conflict
            == offline_result.validation.rejected_prefix_conflict)


@pytest.fixture(scope="module")
def mixed_trace():
    """Background plus several loops, including ones that merge and ones
    rejected by validation (a conflicting non-looped packet)."""
    builder = SyntheticTraceBuilder(rng=random.Random(7))
    prefixes = [
        IPv4Prefix((198 << 24) | (51 << 16) | (i << 8), 24) for i in range(8)
    ]
    builder.add_background(8000, 0.0, 300.0, prefixes=prefixes)
    for i in range(5):
        builder.add_loop(
            10.0 + i * 50.0,
            IPv4Prefix((192 << 24) | (i << 8), 24),
            n_packets=3,
            replicas_per_packet=6,
            spacing=0.01,
            packet_gap=0.012,
            entry_ttl=40,
        )
    # Two bursts to one prefix inside one merge gap -> they merge.
    merge_prefix = IPv4Prefix.parse("192.0.200.0/24")
    builder.add_loop(20.0, merge_prefix, n_packets=2, replicas_per_packet=5,
                     spacing=0.01, packet_gap=0.012, entry_ttl=40)
    builder.add_loop(40.0, merge_prefix, n_packets=2, replicas_per_packet=5,
                     spacing=0.01, packet_gap=0.012, entry_ttl=40)
    return builder.build()


@pytest.fixture(scope="module")
def offline_result(mixed_trace):
    return reference_detect(mixed_trace)


class TestExactEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_identical_to_offline(self, mixed_trace, offline_result, jobs):
        result = ParallelLoopDetector(jobs=jobs).detect(mixed_trace)
        assert_identical(result, offline_result)

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_shard_count_does_not_change_results(
        self, mixed_trace, offline_result, shards
    ):
        result = ParallelLoopDetector(jobs=1, shards=shards).detect(mixed_trace)
        assert_identical(result, offline_result)

    def test_custom_config_propagates(self, mixed_trace):
        config = DetectorConfig(merge_gap=5.0, min_stream_size=4,
                                check_prefix_consistency=False,
                                check_gap_consistency=False)
        offline = reference_detect(mixed_trace, config)
        parallel = ParallelLoopDetector(config, jobs=2).detect(mixed_trace)
        assert_identical(parallel, offline)

    def test_scan_stats_match_offline_totals(self, mixed_trace,
                                             offline_result):
        result = ParallelLoopDetector(jobs=2).detect(mixed_trace)
        assert (result.scan_stats.records_scanned
                == offline_result.scan_stats.records_scanned)
        assert (result.scan_stats.records_skipped_short
                == offline_result.scan_stats.records_skipped_short)
        assert (result.scan_stats.candidate_streams
                == offline_result.scan_stats.candidate_streams)


class TestDetectFile:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identical_to_offline_on_reread_trace(
        self, mixed_trace, tmp_path, jobs
    ):
        from repro.net.pcap import read_pcap

        path = tmp_path / "trace.pcap"
        write_pcap(mixed_trace, path)
        offline = reference_detect(read_pcap(path))
        result = ParallelLoopDetector(jobs=jobs).detect_file(
            path, chunk_records=1000
        )
        assert_identical(result, offline)

    def test_summary_matches_trace_metadata(self, mixed_trace, tmp_path):
        from repro.net.pcap import read_pcap

        path = tmp_path / "trace.pcap"
        write_pcap(mixed_trace, path)
        reread = read_pcap(path)
        result = ParallelLoopDetector(jobs=1).detect_file(path)
        summary = result.trace
        assert isinstance(summary, ColumnarTrace)
        assert len(summary) == len(reread)
        assert summary.duration == pytest.approx(reread.duration, abs=1e-6)
        assert summary.total_bytes == reread.total_bytes
        assert summary.average_bandwidth_bps() == pytest.approx(
            reread.average_bandwidth_bps(), rel=1e-6
        )


class TestEdgeCases:
    def test_empty_trace(self):
        result = ParallelLoopDetector(jobs=2).detect(Trace())
        assert result.candidate_streams == []
        assert result.loops == []
        assert result.parallel.records_total == 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(ParallelError):
            ParallelLoopDetector(jobs=0)
        with pytest.raises(ParallelError):
            ParallelLoopDetector(jobs=2, shards=0)

    def test_instrumentation_counters(self, mixed_trace):
        result = ParallelLoopDetector(jobs=2).detect(mixed_trace)
        stats = result.parallel
        assert stats.jobs == 2
        assert stats.shards == 2
        assert stats.records_total == len(mixed_trace)
        assert stats.wall_seconds > 0
        assert stats.records_per_sec > 0
        assert stats.shard_skew >= 1.0
        assert sum(s.records for s in stats.per_shard) == (
            stats.records_total - result.scan_stats.records_skipped_short
        )
        rendered = stats.render()
        assert "2 worker(s)" in rendered
        assert "Shard" in rendered

    def test_render_summary_accepts_parallel_result(self, mixed_trace):
        from repro.core.report import render_summary

        result = ParallelLoopDetector(jobs=1).detect(mixed_trace)
        text = render_summary(result)
        assert f"records: {len(mixed_trace)}" in text
