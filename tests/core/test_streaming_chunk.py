"""Tests for the streaming detector's chunk-level batched tier.

``process_chunk`` must be byte-identical to a record-by-record
``process`` feed — same loops, stats, eviction cadence, and state
snapshots — whether a chunk takes the vectorized fast tier or degrades
to the per-record fallback.
"""

import random
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.traffic.synthetic import SyntheticTraceBuilder

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
OTHER = IPv4Prefix.parse("198.51.100.0/24")

def _loop_trace(seed=0, loops=2, background=500, span=400.0):
    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    builder.add_background(background, 0.0, span, prefixes=[OTHER])
    for i in range(loops):
        builder.add_loop(20.0 + i * 150.0, PREFIX, n_packets=3,
                         replicas_per_packet=6, spacing=0.01,
                         packet_gap=0.012, entry_ttl=40)
    return builder.build()


def _loop_key(loop):
    return (loop.prefix, round(loop.start, 6), round(loop.end, 6),
            loop.stream_count, loop.replica_count)


def _feed_per_record(trace, config=None):
    detector = StreamingLoopDetector(config)
    loops = []
    for record in trace:
        loops.extend(detector.process(record.timestamp, record.data))
    return detector, loops


def _feed_chunked(trace, chunk_records, config=None):
    detector = StreamingLoopDetector(config)
    loops = []
    for chunk in ColumnarTrace.from_trace(trace, chunk_records).chunks:
        loops.extend(detector.process_chunk(chunk))
    return detector, loops


def _assert_identical(trace, chunk_records, config=None):
    ref, ref_loops = _feed_per_record(trace, config)
    fast, fast_loops = _feed_chunked(trace, chunk_records, config)
    # Pre-flush state must match too, not just the final loop set.
    assert fast.state_snapshot() == ref.state_snapshot()
    fast_loops.extend(fast.flush())
    ref_loops.extend(ref.flush())
    assert list(map(_loop_key, fast_loops)) \
        == list(map(_loop_key, ref_loops))
    assert asdict(fast.stats) == asdict(ref.stats)
    assert fast.state_snapshot() == ref.state_snapshot()
    return fast_loops


class TestEquivalence:
    @pytest.mark.parametrize("chunk_records", [64, 256, 4096])
    def test_chunked_feed_matches_per_record(self, chunk_records):
        loops = _assert_identical(_loop_trace(), chunk_records)
        assert len(loops) == 2

    def test_mid_chunk_evictions(self):
        # Sparse background across a long span: singleton deadlines
        # expire mid-chunk, exercising the arithmetic eviction against
        # the sidecar's ascending deadline column.
        trace = _loop_trace(seed=5, loops=1, background=2000,
                            span=4000.0)
        _assert_identical(trace, 256)

    def test_cross_chunk_streams_promote(self):
        # Replica spacing ~ chunk boundary: a loop's streams straddle
        # chunks, so sidecar singletons from chunk k must be promoted
        # when chunk k+1 presents the matching key.
        trace = _loop_trace(seed=9, loops=2)
        loops = _assert_identical(trace, 48)
        assert len(loops) == 2

    def test_offline_detector_agrees(self):
        trace = _loop_trace(seed=3)
        detector, loops = _feed_chunked(trace, 128)
        loops.extend(detector.flush())
        offline = LoopDetector().detect(trace)
        assert sorted(map(_loop_key, loops)) \
            == sorted(map(_loop_key, offline.loops))

    def test_custom_config_flows_through(self):
        config = DetectorConfig(merge_gap=200.0)
        loops = _assert_identical(_loop_trace(), 256, config)
        assert len(loops) == 1  # 150 s apart: merged under the big gap


class TestTierSelection:
    def test_batched_tier_parks_singletons(self):
        trace = _loop_trace(seed=1, loops=0, background=200, span=60.0)
        detector = StreamingLoopDetector()
        detector.process_chunk(ColumnarTrace.from_trace(trace).chunks[0])
        assert detector._bulk_batches  # sidecar engaged, not _singletons

    def test_tiny_chunks_take_the_fallback(self):
        trace = _loop_trace(seed=1, loops=0, background=31, span=10.0)
        detector = StreamingLoopDetector()
        chunk = ColumnarTrace.from_trace(trace).chunks[0]
        assert len(chunk) < 32
        detector.process_chunk(chunk)
        assert not detector._bulk_batches

    def test_irregular_chunks_take_the_fallback(self):
        trace = _loop_trace(seed=1, loops=0, background=64, span=20.0)
        chunk = ColumnarTrace.from_trace(trace).chunks[0]
        irregular = ColumnarChunk(
            data=chunk.data, timestamps=chunk.timestamps,
            offsets=chunk.offsets, lengths=chunk.lengths,
            base_index=chunk.base_index, stride=None,
        )
        detector = StreamingLoopDetector()
        detector.process_chunk(irregular)
        assert not detector._bulk_batches
        ref, _ = _feed_per_record(trace)
        assert detector.state_snapshot() == ref.state_snapshot()

    def test_sidecar_cap_materializes(self):
        # >64 live batches would make the per-chunk hash probes
        # super-linear; the safety valve folds the sidecar back.
        trace = _loop_trace(seed=2, loops=0, background=70 * 40,
                            span=50.0)
        detector = StreamingLoopDetector()
        for chunk in ColumnarTrace.from_trace(trace, 40).chunks:
            detector.process_chunk(chunk)
            assert len(detector._bulk_batches) <= 65
        ref, _ = _feed_per_record(trace)
        assert detector.state_snapshot() == ref.state_snapshot()


class TestInterleaving:
    def test_chunk_then_per_record(self):
        trace = _loop_trace(seed=4)
        split = len(trace.records) // 2
        detector = StreamingLoopDetector()
        loops = []
        columnar = ColumnarTrace.from_trace(trace, split)
        loops.extend(detector.process_chunk(columnar.chunks[0]))
        # A per-record feed after a batched chunk folds the sidecar
        # back into exact state before probing it.
        for record in trace.records[split:]:
            loops.extend(detector.process(record.timestamp, record.data))
        loops.extend(detector.flush())
        assert not detector._bulk_batches
        ref, ref_loops = _feed_per_record(trace)
        ref_loops.extend(ref.flush())
        assert list(map(_loop_key, loops)) \
            == list(map(_loop_key, ref_loops))
        assert detector.state_snapshot() == ref.state_snapshot()

    def test_time_regression_rejected_identically(self):
        trace = _loop_trace(seed=6, loops=0, background=64, span=20.0)
        chunk = ColumnarTrace.from_trace(trace).chunks[0]
        detector = StreamingLoopDetector()
        detector.process_chunk(chunk)
        with pytest.raises(ValueError, match="time-ordered"):
            detector.process(0.0, b"x" * 40)
        stale = SimpleNamespace(
            timestamp=0.0, data=trace.records[0].data,
            wire_length=trace.records[0].wire_length,
        )
        stale_chunk = ColumnarChunk.from_records([stale] * 40)
        with pytest.raises(ValueError, match="time-ordered"):
            detector.process_chunk(stale_chunk)
