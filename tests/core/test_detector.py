"""Tests for the detector facade."""

import random

import pytest

from repro.net.addr import IPv4Prefix
from repro.core.detector import DetectionResult, DetectorConfig, DetectorError, LoopDetector
from repro.traffic.synthetic import SyntheticTraceBuilder

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
OTHER = IPv4Prefix.parse("198.51.100.0/24")


def _trace(seed=0, loops=2, background=200):
    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    builder.add_background(background, 0.0, 100.0, prefixes=[OTHER])
    for i in range(loops):
        builder.add_loop(10.0 + i * 30.0, PREFIX, n_packets=3,
                         replicas_per_packet=5, spacing=0.01,
                         packet_gap=0.012, entry_ttl=40)
    return builder.build()


class TestConfig:
    def test_defaults_match_paper(self):
        config = DetectorConfig()
        assert config.min_ttl_delta == 2
        assert config.min_stream_size == 3
        assert config.prefix_length == 24
        assert config.merge_gap == 60.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_ttl_delta": 0},
            {"min_stream_size": 1},
            {"prefix_length": 33},
            {"prefix_length": 4},
            {"merge_gap": -1.0},
            {"max_replica_gap": 0},
            {"max_replica_gap": -1},
            {"eviction_interval": -997},
            {"eviction_interval": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DetectorError):
            DetectorConfig(**kwargs)


class TestPipeline:
    def test_full_pipeline_counts(self):
        result = LoopDetector().detect(_trace(loops=2))
        assert isinstance(result, DetectionResult)
        assert len(result.candidate_streams) == 6
        assert result.stream_count == 6
        assert result.looped_packet_count == 6
        assert result.looped_record_count == 30
        # 30-second spacing < 60 s gap and the prefix is quiet between:
        # one merged loop.
        assert result.loop_count == 1

    def test_smaller_merge_gap_splits_loops(self):
        config = DetectorConfig(merge_gap=10.0)
        result = LoopDetector(config).detect(_trace(loops=2))
        assert result.loop_count == 2

    def test_clean_trace_detects_nothing(self):
        result = LoopDetector().detect(_trace(loops=0))
        assert result.stream_count == 0
        assert result.loop_count == 0

    def test_scan_stats_populated(self):
        trace = _trace()
        result = LoopDetector().detect(trace)
        assert result.scan_stats.records_scanned == len(trace)
        assert result.scan_stats.candidate_streams == 6

    def test_validation_disabled_config(self):
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(1, 1.02, 1.03, prefixes=[PREFIX])
        trace = builder.build()
        strict = LoopDetector().detect(trace)
        assert strict.stream_count == 0
        lax = LoopDetector(
            DetectorConfig(check_prefix_consistency=False,
                           check_gap_consistency=False)
        ).detect(trace)
        assert lax.stream_count == 1

    def test_detect_is_deterministic(self):
        trace = _trace(seed=5)
        a = LoopDetector().detect(trace)
        b = LoopDetector().detect(trace)
        assert a.stream_count == b.stream_count
        assert [l.start for l in a.loops] == [l.start for l in b.loops]

    def test_empty_trace(self):
        from repro.net.trace import Trace

        result = LoopDetector().detect(Trace())
        assert result.stream_count == 0
        assert result.loop_count == 0

    def test_prefix_length_16_groups_wider(self):
        """With /16 validation, two /24s in one /16 merge into one loop."""
        builder = SyntheticTraceBuilder(rng=random.Random(2))
        a = IPv4Prefix.parse("192.0.2.0/24")
        b = IPv4Prefix.parse("192.0.3.0/24")
        builder.add_loop(1.0, a, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(1.2, b, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        trace = builder.build()
        per24 = LoopDetector().detect(trace)
        assert per24.loop_count == 2
        per16 = LoopDetector(DetectorConfig(prefix_length=16)).detect(trace)
        assert per16.loop_count == 1


class TestOracleEquivalence:
    """The product pipeline against the reference pipeline of
    ``tests/oracles.py`` on captures of mixed lengths."""

    @staticmethod
    def _mixed_capture_trace():
        from zlib import crc32

        from repro.core.replica import mask_mutable_fields
        from repro.net.trace import Trace, TraceRecord

        trace = _trace(seed=5, loops=3, background=400)
        records = []
        for record in trace.records:
            # All replicas of one packet share a mask, so they share a
            # capture length and can still chain.
            snap = (40, 28, 20, 12, 40)[
                crc32(mask_mutable_fields(record.data)) % 5]
            records.append(TraceRecord(timestamp=record.timestamp,
                                       data=record.data[:snap],
                                       wire_length=record.wire_length))
        return Trace(records=records)

    @staticmethod
    def _fingerprint(result):
        def stream(s):
            return (s.key, s.first_data,
                    tuple((r.index, r.timestamp, r.ttl) for r in s.replicas))

        stats = result.scan_stats
        return (
            [stream(s) for s in result.candidate_streams],
            [stream(s) for s in result.streams],
            [(str(l.prefix), l.start, l.end,
              tuple(stream(s) for s in l.streams)) for l in result.loops],
            (stats.records_scanned, stats.records_skipped_short,
             stats.candidate_streams),
            (result.validation.rejected_too_small,
             result.validation.rejected_prefix_conflict),
        )

    def test_detect_matches_reference(self):
        from tests.oracles import reference_detect

        trace = self._mixed_capture_trace()
        lengths = {len(record.data) for record in trace.records}
        assert lengths == {12, 20, 28, 40}
        config = DetectorConfig(eviction_interval=7)
        expected = reference_detect(trace, config)
        assert expected.loop_count >= 1
        assert expected.scan_stats.records_skipped_short > 0
        assert expected.scan_stats.singletons_evicted > 0
        result = LoopDetector(config).detect(trace)
        assert result.scan_stats == expected.scan_stats
        assert result.trace is trace
        assert self._fingerprint(result) == self._fingerprint(expected)


class TestStageCoverage:
    def test_stages_cover_detect_wall_time(self):
        """The ``detect.*`` stages account for the pipeline's wall time:
        nothing sizeable, such as the prefix index build, runs outside
        them."""
        import time

        from repro.net.columnar import ColumnarTrace
        from repro.obs.perf import PipelineProfile
        from tests.conftest import storm_trace

        ctrace = ColumnarTrace.from_trace(storm_trace(seed=3))
        best = 0.0
        for _ in range(3):
            profile = PipelineProfile()
            started = time.perf_counter()
            LoopDetector(profile=profile).detect_columnar(ctrace)
            wall = time.perf_counter() - started
            stages = profile.snapshot()["stages"]
            assert {stage["name"] for stage in stages} == {
                "detect.replicas", "detect.index", "detect.validate",
                "detect.merge"}
            best = max(best, sum(stage["seconds"] for stage in stages) / wall)
        assert best >= 0.9
