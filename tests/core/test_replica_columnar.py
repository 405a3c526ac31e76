"""Equivalence tests: the step-1 kernel over columnar chunks vs the oracle.

The kernel must be *behaviourally indistinguishable* from the
reference oracle ``reference_replicas`` (``tests/oracles.py``) fed
the same records — same streams, same replica indices, same keys, same
first_data bytes — on synthetic loop traces, pcap round trips, and
through the full three-step pipeline.
"""

import random

import pytest

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.replica import (
    ReplicaError,
    ReplicaScanStats,
    detect_replicas_vectorized,
)
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.net.pcap import read_pcap, read_pcap_columnar, write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import (ReferenceStreamingDetector, reference_detect,
                           reference_replicas)


@pytest.fixture(scope="module")
def loop_trace():
    builder = SyntheticTraceBuilder(rng=random.Random(7))
    builder.add_background(400, 0.0, 60.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=3,
                     replicas_per_packet=6, spacing=0.01, entry_ttl=40)
    builder.add_loop(20.0, IPv4Prefix.parse("203.0.113.0/24"), n_packets=2,
                     replicas_per_packet=4, spacing=0.02, entry_ttl=50)
    return builder.build()


def _assert_streams_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.key == b.key
        assert a.first_data == b.first_data
        assert a.src == b.src
        assert a.dst == b.dst
        assert a.protocol == b.protocol
        assert a.replicas == b.replicas


class TestColumnarKernelEquivalence:
    def test_matches_reference_on_synthetic_trace(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        _assert_streams_equal(
            detect_replicas_vectorized(ctrace.chunks),
            reference_replicas(loop_trace),
        )

    def test_matches_across_chunk_boundaries(self, loop_trace):
        reference = reference_replicas(loop_trace)
        for chunk_records in (1, 7, 100, 65_536):
            ctrace = ColumnarTrace.from_trace(loop_trace,
                                              chunk_records=chunk_records)
            _assert_streams_equal(
                detect_replicas_vectorized(ctrace.chunks), reference
            )

    def test_matches_through_pcap_mmap_reader(self, loop_trace, tmp_path):
        path = tmp_path / "loop.pcap"
        write_pcap(loop_trace, path)
        ctrace = read_pcap_columnar(path)
        trace = read_pcap(path)
        _assert_streams_equal(
            detect_replicas_vectorized(ctrace.chunks),
            reference_replicas(trace),
        )

    def test_matches_on_loop_free_trace(self):
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(200, 0.0, 30.0)
        trace = builder.build()
        ctrace = ColumnarTrace.from_trace(trace)
        streams = detect_replicas_vectorized(ctrace.chunks)
        assert list(streams) == reference_replicas(trace) == []

    def test_accepts_columnar_trace_directly(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        _assert_streams_equal(
            detect_replicas_vectorized(ctrace),
            detect_replicas_vectorized(ctrace.chunks),
        )

    def test_parameters_forwarded(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        for kwargs in ({"min_ttl_delta": 3}, {"max_replica_gap": 0.005}):
            _assert_streams_equal(
                detect_replicas_vectorized(ctrace.chunks, **kwargs),
                reference_replicas(loop_trace, **kwargs),
            )

    def test_negative_eviction_interval_rejected(self, loop_trace):
        chunks = ColumnarTrace.from_trace(loop_trace).chunks
        with pytest.raises(ReplicaError):
            detect_replicas_vectorized(chunks, eviction_interval=-997)

    def test_scan_stats_match(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        ref_stats = ReplicaScanStats()
        col_stats = ReplicaScanStats()
        reference_replicas(loop_trace, stats=ref_stats)
        detect_replicas_vectorized(ctrace.chunks, stats=col_stats)
        assert col_stats.records_scanned == ref_stats.records_scanned
        assert col_stats.records_skipped_short == \
            ref_stats.records_skipped_short
        assert col_stats.candidate_streams == ref_stats.candidate_streams

    def test_eviction_cadence_matches_reference(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace, chunk_records=37)
        for interval in (10, 113, 0):
            ref_stats = ReplicaScanStats()
            col_stats = ReplicaScanStats()
            _assert_streams_equal(
                detect_replicas_vectorized(ctrace.chunks,
                                         eviction_interval=interval,
                                         stats=col_stats),
                reference_replicas(loop_trace, eviction_interval=interval,
                                stats=ref_stats),
            )
            assert col_stats.singletons_evicted == \
                ref_stats.singletons_evicted

    def test_mixed_regular_and_irregular_chunks(self, loop_trace):
        # Strip the stride declaration from every other chunk so the
        # same stream keys chain across strided and per-record masking.
        import dataclasses

        reference = reference_replicas(loop_trace)
        for chunk_records in (5, 37):
            ctrace = ColumnarTrace.from_trace(loop_trace,
                                              chunk_records=chunk_records)
            mixed = [
                dataclasses.replace(chunk, stride=None) if i % 2 else chunk
                for i, chunk in enumerate(ctrace.chunks)
            ]
            _assert_streams_equal(detect_replicas_vectorized(mixed), reference)


class TestFullPipelineEquivalence:
    def test_detect_columnar_matches_detect(self, loop_trace):
        detector = LoopDetector()
        reference = reference_detect(loop_trace)
        columnar = detector.detect_columnar(
            ColumnarTrace.from_trace(loop_trace)
        )
        _assert_streams_equal(columnar.streams, reference.streams)
        assert len(columnar.loops) == len(reference.loops)
        for a, b in zip(columnar.loops, reference.loops):
            assert a.prefix == b.prefix
            assert a.start == b.start
            assert a.end == b.end
            assert a.replica_count == b.replica_count

    def test_detect_columnar_with_custom_config(self, loop_trace):
        config = DetectorConfig(min_stream_size=3, prefix_length=16)
        detector = LoopDetector(config)
        reference = reference_detect(loop_trace, config)
        columnar = detector.detect_columnar(
            ColumnarTrace.from_trace(loop_trace)
        )
        _assert_streams_equal(columnar.streams, reference.streams)


class TestStreamingColumnarEquivalence:
    def test_chunks_match_record_feed(self, loop_trace):
        per_record = ReferenceStreamingDetector()
        reference = []
        for record in loop_trace:
            reference.extend(per_record.process(record.timestamp,
                                                record.data))
        reference.extend(per_record.flush())
        columnar = StreamingLoopDetector().process_trace(
            ColumnarTrace.from_trace(loop_trace, chunk_records=53)
        )
        assert len(columnar) == len(reference)
        for a, b in zip(columnar, reference):
            assert a.prefix == b.prefix
            assert a.start == b.start
            assert a.end == b.end
            assert a.replica_count == b.replica_count

