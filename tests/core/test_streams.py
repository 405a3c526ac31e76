"""Tests for step 2: replica-stream validation."""

import random
import struct
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest

from repro.core.detector import LoopDetector
from repro.net.addr import IPv4Prefix
from repro.core.replica import detect_replicas
from repro.core.streams import PrefixIndex, validate_streams
from repro.net.columnar import ColumnarChunk
from repro.net.pcap import DEFAULT_CHUNK_RECORDS, read_pcap_columnar, write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
OTHER = IPv4Prefix.parse("198.51.100.0/24")


def _build(rng_seed=0):
    return SyntheticTraceBuilder(rng=random.Random(rng_seed))


class TestSizeRule:
    def test_two_element_streams_rejected(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=2,
                         entry_ttl=40)
        trace = builder.build()
        candidates = detect_replicas(trace)
        assert len(candidates) == 1
        result = validate_streams(candidates, trace)
        assert list(result.valid) == []
        assert result.rejected_too_small == 1

    def test_three_element_streams_kept(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=3,
                         entry_ttl=40)
        trace = builder.build()
        result = validate_streams(detect_replicas(trace), trace)
        assert len(result.valid) == 1
        assert result.rejected == 0

    def test_min_stream_size_configurable(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=4,
                         entry_ttl=40)
        trace = builder.build()
        candidates = detect_replicas(trace)
        result = validate_streams(candidates, trace, min_stream_size=5)
        assert result.rejected_too_small == 1


class TestPrefixConsistencyRule:
    def test_non_looped_packet_in_window_rejects_stream(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        # A normal (single) packet to the same /24 inside the loop window.
        builder.add_background(1, 1.02, 1.03, prefixes=[PREFIX])
        trace = builder.build()
        candidates = detect_replicas(trace)
        result = validate_streams(candidates, trace)
        assert list(result.valid) == []
        assert result.rejected_prefix_conflict == 1

    def test_non_looped_packet_outside_window_is_fine(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(5, 10.0, 11.0, prefixes=[PREFIX])
        trace = builder.build()
        result = validate_streams(detect_replicas(trace), trace)
        assert len(result.valid) == 1

    def test_other_prefix_traffic_never_conflicts(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(50, 0.9, 1.2, prefixes=[OTHER])
        trace = builder.build()
        result = validate_streams(detect_replicas(trace), trace)
        assert len(result.valid) == 1

    def test_concurrent_streams_same_prefix_support_each_other(self):
        """All packets to the prefix loop, in overlapping streams: all
        valid — each stream's members cover the others' windows."""
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=4, replicas_per_packet=5,
                         spacing=0.01, packet_gap=0.015, entry_ttl=40)
        trace = builder.build()
        result = validate_streams(detect_replicas(trace), trace)
        assert len(result.valid) == 4

    def test_two_element_streams_still_count_as_members(self):
        """A 2-replica stream fails the size rule but its packets are
        still 'looping', so they must not invalidate neighbors."""
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(1.015, PREFIX, n_packets=1, replicas_per_packet=2,
                         spacing=0.01, entry_ttl=30)
        trace = builder.build()
        candidates = detect_replicas(trace)
        assert len(candidates) == 2
        result = validate_streams(candidates, trace)
        assert len(result.valid) == 1
        assert result.rejected_too_small == 1
        assert result.rejected_prefix_conflict == 0
        assert sorted(result.members.tolist()) == sorted(
            r.index for s in candidates for r in s.replicas)

    def test_check_can_be_disabled(self):
        builder = _build()
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(1, 1.02, 1.03, prefixes=[PREFIX])
        trace = builder.build()
        result = validate_streams(detect_replicas(trace), trace,
                                  check_prefix_consistency=False)
        assert len(result.valid) == 1

    def test_empty_candidates(self):
        builder = _build()
        builder.add_background(10, 0.0, 1.0)
        trace = builder.build()
        result = validate_streams([], trace)
        assert list(result.valid) == []
        assert result.rejected == 0
        assert list(result.members) == []


class TestPrefixIndex:
    def test_window_query(self):
        builder = _build()
        builder.add_background(20, 0.0, 10.0, prefixes=[PREFIX])
        trace = builder.build()
        index = PrefixIndex(trace, 24)
        all_records = index.records_in_window(PREFIX, 0.0, 10.0)
        assert len(all_records) == 20
        early = index.records_in_window(PREFIX, 0.0, 5.0)
        assert 0 < len(early) < 20

    def test_window_is_inclusive(self):
        builder = _build()
        builder.add_background(1, 1.0, 1.0001, prefixes=[PREFIX])
        trace = builder.build()
        t = trace[0].timestamp
        index = PrefixIndex(trace, 24)
        assert index.records_in_window(PREFIX, t, t) == [0]

    def test_has_non_member(self):
        builder = _build()
        builder.add_background(3, 0.0, 1.0, prefixes=[PREFIX])
        trace = builder.build()
        index = PrefixIndex(trace, 24)
        assert _non_members(index, PREFIX, 0.0, 1.0, members=[]) == 3
        assert _non_members(index, PREFIX, 0.0, 1.0, members=[0, 2]) == 1
        assert _non_members(index, PREFIX, 0.0, 1.0,
                            members=[0, 1, 2]) == 0

    def test_wrong_length_query_rejected(self):
        builder = _build()
        builder.add_background(1, 0.0, 1.0)
        index = PrefixIndex(builder.build(), 24)
        with pytest.raises(ValueError):
            index.records_in_window(IPv4Prefix.parse("10.0.0.0/16"),
                                    0.0, 1.0)


def _non_members(index, prefix, start, end, members) -> int:
    """``index.non_member_counts`` for one window."""
    return int(index.non_member_counts(
        np.array([prefix.network >> 8]), np.array([start]),
        np.array([end]), np.array(members, dtype=np.int64),
    )[0])


def _net24(record) -> int:
    return int.from_bytes(record.data[16:20], "big") >> 8 << 8


class TestRegressingCapture:
    """A capture whose last record travels back in time: offline
    detection accepts it, so the index must still answer exactly."""

    @pytest.fixture
    def regressing(self, tmp_path):
        builder = _build(7)
        builder.add_background(200, 0.0, 60.0, prefixes=[OTHER])
        builder.add_loop(10.0, PREFIX, n_packets=3, replicas_per_packet=6,
                         spacing=0.02, entry_ttl=40)
        trace = builder.build()
        trace.records.append(replace(trace.records[-1], timestamp=0.5))
        path = tmp_path / "regressing.pcap"
        write_pcap(trace, path)
        return trace, path

    @pytest.mark.parametrize("chunk_records", [1, 41, DEFAULT_CHUNK_RECORDS])
    def test_windows_equal_brute_force(self, regressing, chunk_records):
        trace, path = regressing
        index = PrefixIndex(prefix_length=24)
        for chunk in read_pcap_columnar(path, chunk_records).chunks:
            index.add_chunk(chunk)
        late = len(trace) - 1
        for prefix in (PREFIX, OTHER):
            for start, end in [(0.0, 1.0), (0.4, 0.6), (0.5, 0.5),
                               (0.0, 60.0), (9.0, 11.0), (59.0, 61.0)]:
                expected = [
                    i for i, record in enumerate(trace.records)
                    if start <= record.timestamp <= end
                    and _net24(record) == prefix.network
                ]
                found = index.records_in_window(prefix, start, end)
                assert sorted(found) == expected
                assert _non_members(index, prefix, start, end, []) \
                    == len(expected)
        late_prefix = IPv4Prefix(_net24(trace.records[late]), 24)
        assert late in index.records_in_window(late_prefix, 0.5, 0.5)

    def test_offline_detect_accepts_it(self, regressing):
        _, path = regressing
        result = LoopDetector().detect_columnar(read_pcap_columnar(path))
        assert [str(loop.prefix) for loop in result.loops] == [str(PREFIX)]


def _synthetic_chunks(n, prefixes=2000, seed=5):
    """``n`` 40-byte records over ``prefixes`` random /24s, cut into
    reader-sized stride-regular chunks over one slab."""
    rng = random.Random(seed)
    nets = [rng.randrange(1 << 24) for _ in range(prefixes)]
    slab = bytearray(40 * n)
    for i in range(n):
        struct.pack_into(">I", slab, 40 * i + 16,
                         rng.choice(nets) << 8 | rng.randrange(256))
    slab = bytes(slab)
    timestamps = array("d", (i * 1e-4 for i in range(n)))
    chunks = []
    for start in range(0, n, DEFAULT_CHUNK_RECORDS):
        stop = min(n, start + DEFAULT_CHUNK_RECORDS)
        chunks.append(ColumnarChunk(
            data=slab,
            timestamps=timestamps[start:stop],
            offsets=array("Q", range(40 * start, 40 * stop, 40)),
            lengths=array("I", [40]) * (stop - start),
            base_index=start,
            stride=40,
        ))
    return chunks


class TestMemoryBound:
    def test_bytes_per_record(self):
        n = 120_000
        chunks = _synthetic_chunks(n)
        tracemalloc.start()
        try:
            index = PrefixIndex(prefix_length=24)
            for chunk in chunks:
                index.add_chunk(chunk)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / n <= 40
        assert peak / n <= 48
