"""Tests for the streaming detector's one feed.

Every chunk, whatever its shape or size, goes through one call of the
step-1 engine; loops, stats, eviction cadence and state snapshots must
equal the per-record reference (:class:`~tests.oracles.
ReferenceStreamingDetector`) after every chunk.
"""

import random
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import replica, streaming
from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.core import vectorize
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.net.trace import Trace, TraceRecord
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.core.test_replica_grouped import _source_byte_hash
from tests.oracles import ReferenceStreamingDetector

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
    detector = ReferenceStreamingDetector(config)
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


def _engine_calls(monkeypatch):
    """Count calls of the step-1 engine from the streaming detector."""
    calls = []
    engine = replica._replay_survivors

    def spy(*args, **kwargs):
        calls.append(args[1])
        return engine(*args, **kwargs)

    monkeypatch.setattr(streaming, "_replay_survivors", spy)
    return calls


def _storm_trace(seed=0):
    """Dozens of concurrent loops on a few /24s, with background
    traffic on the same prefixes: streams straddle every slice size."""
    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    prefixes = [IPv4Prefix((192 << 24) | (i << 8), 24) for i in range(6)]
    builder.add_background(600, 0.0, 40.0, prefixes=prefixes + [OTHER])
    for i in range(24):
        builder.add_loop(1.0 + i * 1.5, prefixes[i % 6], n_packets=4,
                         replicas_per_packet=8, spacing=0.05,
                         packet_gap=0.03, entry_ttl=60)
    return builder.build()


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

    @pytest.mark.parametrize("buckets", [1, 5])
    def test_forced_hash_collisions(self, monkeypatch, buckets):
        # A low-entropy hash puts many keys in one group, carried
        # singletons and open streams included: chained per exact key.
        from repro.core import vectorize

        real_hash = vectorize.hash_rows
        monkeypatch.setattr(
            vectorize, "hash_rows",
            lambda *slab: real_hash(*slab) % np.uint64(buckets),
        )
        _assert_identical(_storm_trace(seed=3), 97)

    @pytest.mark.parametrize("chunk_records", [1, 2, 31, 32, 33, 100])
    def test_storm_streams_straddle_slices(self, chunk_records):
        loops = _assert_identical(_storm_trace(), chunk_records)
        assert len(loops) >= 6


def _record(flow: int, ttl: int, net: int) -> bytes:
    """A 40-byte IPv4-shaped record: source byte ``flow``, destination
    in ``192.0.net.0/24``."""
    data = bytearray(40)
    data[0] = 0x45
    data[8] = ttl
    data[9] = 6
    data[10] = (ttl * 7) & 0xFF  # the checksum moves with the TTL
    data[12:16] = (10, 0, 0, flow)
    data[16:20] = (192, 0, net, flow)
    return bytes(data)


class TestTruncatedSeeds:
    def test_carried_keys_seed_their_truncated_group(self, monkeypatch):
        # Slice 1 opens flow 3's stream and leaves flow 2 a singleton.
        # Slice 2 starts with flow 1, so its one group's first row has
        # neither carried key's full hash: both must still seed it.
        monkeypatch.setattr(vectorize, "hash_rows", _source_byte_hash)
        calls = _engine_calls(monkeypatch)
        slices = [
            [(3, 60), (3, 58), (2, 60)],
            [(1, 60), (2, 58), (3, 56), (1, 58), (2, 56), (3, 54),
             (1, 56), (2, 54)],
        ]
        trace = Trace(link_name="seeds", snaplen=40)
        t = 0.0
        for planted in slices:
            rows = [_record(flow, ttl, 2) for flow, ttl in planted]
            rows += [_record(100 + i, 60, 3) for i in range(40 - len(rows))]
            for data in rows:
                trace.append(TraceRecord(t, data, 40))
                t += 0.01
        loops = _assert_identical(trace, 40)
        assert calls == [40, 40]
        assert [(loop.stream_count, loop.replica_count)
                for loop in loops if str(loop.prefix) == "192.0.2.0/24"] \
            == [(3, 11)]


def _padded_trace(seed=1):
    """A loop trace whose records are cut to varying captured lengths
    (20 to 40 bytes) per packet, so no chunk is stride-regular, with
    records under 20 bytes mixed in."""
    rng = random.Random(seed)
    records = []
    for record in _storm_trace(seed=seed).records:
        data = record.data[:20 + (record.data[15] % 21)]
        records.append(TraceRecord(record.timestamp, data, 40))
        if rng.random() < 0.05:
            records.append(TraceRecord(record.timestamp, data[:rng.randint(
                0, 19)], 40))
    return Trace(records=records)


class TestTierSelection:
    """There is one tier: every fed slice runs the step-1 engine exactly
    once, whatever its shape, and no record is chained one by one."""

    def _feed(self, monkeypatch, trace, chunk_records):
        calls = _engine_calls(monkeypatch)
        chunks = ColumnarTrace.from_trace(trace, chunk_records).chunks
        detector = StreamingLoopDetector()
        loops = []
        for chunk in chunks:
            loops.extend(detector.process_chunk(chunk))
        assert calls == [int((np.asarray(chunk.lengths) >= 20).sum())
                         for chunk in chunks]
        ref, _ = _feed_per_record(trace)
        assert detector.state_snapshot() == ref.state_snapshot()
        assert asdict(detector.stats) == asdict(ref.stats)
        return detector, loops

    def test_one_record_chunks(self, monkeypatch):
        self._feed(monkeypatch, _loop_trace(seed=1, loops=1, background=40,
                                            span=30.0), 1)

    def test_chunks_under_32_records(self, monkeypatch):
        trace = _loop_trace(seed=1, loops=1, background=300, span=30.0)
        self._feed(monkeypatch, trace, 31)

    def test_simulated_irregular_trace(self, monkeypatch, shared_run):
        trace = shared_run.trace
        (chunk,) = ColumnarTrace.from_trace(trace).chunks
        assert chunk.stride is None
        detector, loops = self._feed(monkeypatch, trace, len(trace))
        offline = LoopDetector().detect(trace)
        assert sorted(map(_loop_key, loops + detector.flush())) \
            == sorted(map(_loop_key, offline.loops))
        assert offline.loops

    def test_short_records_mixed_in(self, monkeypatch):
        trace = _padded_trace()
        detector, _ = self._feed(monkeypatch, trace, 97)
        assert detector.stats.skipped_short > 0
        # Short records take no record index.
        assert detector._index == len(trace) - detector.stats.skipped_short

    def test_one_record_process_calls(self, monkeypatch):
        calls = _engine_calls(monkeypatch)
        trace = _loop_trace(seed=2, loops=1, background=30, span=30.0)
        detector = StreamingLoopDetector()
        for record in trace:
            detector.process(record.timestamp, record.data)
        detector.process(trace.records[-1].timestamp, b"\x45\x00")
        assert calls == [1] * len(trace) + [0]
        ref, _ = _feed_per_record(trace)
        ref.process(trace.records[-1].timestamp, b"\x45\x00")
        assert detector.state_snapshot() == ref.state_snapshot()

    def test_batched_tier_parks_singletons(self, monkeypatch):
        # Singletons live in the carry between slices.
        fast, _ = self._feed(monkeypatch, _storm_trace(seed=1), 1024)
        carry = fast._carry
        singletons = fast.state_snapshot()["singletons"]
        assert 0 < singletons <= carry.end - carry.first

    @pytest.mark.parametrize("chunk_records", [1, 7, 97])
    def test_irregular_short_record_feed_matches(self, chunk_records):
        _assert_identical(_padded_trace(seed=3), chunk_records)

    def test_many_short_slices_match_per_record(self):
        # Slices far shorter than the chaining gap: the carry spans
        # dozens of them, and every snapshot along the way matches.
        trace = _loop_trace(seed=2, loops=1, background=70 * 40,
                            span=50.0)
        detector = StreamingLoopDetector()
        ref = ReferenceStreamingDetector()
        for chunk in ColumnarTrace.from_trace(trace, 40).chunks:
            detector.process_chunk(chunk)
            ref.process_chunk(chunk)
            assert detector.state_snapshot() == ref.state_snapshot()


class TestInterleaving:
    def test_chunk_then_per_record(self):
        trace = _loop_trace(seed=4)
        split = len(trace.records) // 2
        detector = StreamingLoopDetector()
        loops = []
        columnar = ColumnarTrace.from_trace(trace, split)
        loops.extend(detector.process_chunk(columnar.chunks[0]))
        for record in trace.records[split:]:
            loops.extend(detector.process(record.timestamp, record.data))
        loops.extend(detector.flush())
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
        assert detector.stats.records == len(chunk)


class TestTimeOrder:
    """A chunk whose timestamps regress is fed up to the first
    regressing record, then rejected: the detector is then exactly as
    the per-record reference leaves it there."""

    @pytest.mark.parametrize("at", [0, 1, 500, 1300])
    def test_prefix_fed_then_rejected(self, at):
        records = list(_storm_trace(seed=2).records)
        records[at] = TraceRecord(records[at].timestamp - 1.0,
                                  records[at].data, 40)
        chunk = ColumnarChunk.from_records(records)
        fast, ref = StreamingLoopDetector(), ReferenceStreamingDetector()
        seen = {fast: [], ref: []}
        for detector in (fast, ref):
            detector.on_loop = seen[detector].append
            if at == 0:
                detector.process(records[0].timestamp + 2.0, records[0].data)
            with pytest.raises(ValueError, match="time-ordered"):
                detector.process_chunk(chunk)
        assert fast.state_snapshot() == ref.state_snapshot()
        assert asdict(fast.stats) == asdict(ref.stats)
        assert fast.now == ref.now
        assert fast.stats.records == max(at, 1)
        # The fed prefix's loops go out through the callback.
        fast.flush()
        ref.flush()
        assert list(map(_loop_key, seen[fast])) \
            == list(map(_loop_key, seen[ref]))
