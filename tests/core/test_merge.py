"""Tests for step 3: merging replica streams into routing loops."""

import random

import pytest

from repro.net.addr import IPv4Address, IPv4Prefix
from repro.core.merge import MergeError, merge_streams
from repro.core.replica import (
    Replica,
    ReplicaStream,
    detect_replicas,
    mask_mutable_fields,
)
from repro.core.streams import validate_streams
from repro.traffic.synthetic import SyntheticTraceBuilder

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
OTHER = IPv4Prefix.parse("198.51.100.0/24")


def _detect(builder):
    trace = builder.build()
    candidates = detect_replicas(trace)
    valid = validate_streams(candidates, trace).valid
    return trace, valid


class TestOverlapMerging:
    def test_overlapping_streams_merge(self):
        builder = SyntheticTraceBuilder(rng=random.Random(0))
        builder.add_loop(1.0, PREFIX, n_packets=5, replicas_per_packet=5,
                         spacing=0.01, packet_gap=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        assert len(valid) == 5
        loops = merge_streams(valid, trace)
        assert len(loops) == 1
        assert loops[0].stream_count == 5
        assert loops[0].replica_count == 25

    def test_different_prefixes_never_merge(self):
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_loop(1.0, PREFIX, n_packets=2, replicas_per_packet=4,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(1.0, OTHER, n_packets=2, replicas_per_packet=4,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace)
        assert len(loops) == 2
        assert {loop.prefix for loop in loops} == {PREFIX, OTHER}


def _stream(dst: str, times: list[float], first_index: int) -> ReplicaStream:
    """A stream to ``dst`` with one replica at each of ``times``."""
    data = bytes(16) + IPv4Address.parse(dst).value.to_bytes(4, "big")
    data += bytes(20)
    return ReplicaStream(
        key=mask_mutable_fields(data),
        replicas=[Replica(first_index + k, t, 60 - 2 * k)
                  for k, t in enumerate(times)],
        src=IPv4Address.from_bytes(data[12:16]),
        dst=IPv4Address.from_bytes(data[16:20]),
        protocol=data[9],
        first_data=data,
    )


class TestGapMerging:
    def test_gap_of_exactly_merge_gap_stays_separate(self):
        streams = [_stream("10.0.1.1", [1.0, 2.0], 0),
                   _stream("10.0.1.1", [4.0, 5.0], 10)]
        for merge_gap, count in ((2.0, 2), (2.5, 1)):
            loops = merge_streams(streams, None, merge_gap=merge_gap,
                                  check_gap_consistency=False)
            assert len(loops) == count

    def test_other_prefix_never_bridges_a_gap(self):
        """A long stream to a lower prefix must not count as the end of
        the loop being built for the next prefix."""
        streams = [_stream("10.0.0.1", [0.0, 10.0], 0),
                   _stream("10.0.1.1", [0.0, 1.0], 20),
                   _stream("10.0.1.1", [5.0, 6.0], 40)]
        loops = merge_streams(streams, None, merge_gap=2.0,
                              check_gap_consistency=False)
        assert [(str(loop.prefix), loop.stream_count) for loop in loops] \
            == [("10.0.0.0/24", 1), ("10.0.1.0/24", 1), ("10.0.1.0/24", 1)]

    def test_nearby_streams_merge_across_quiet_gap(self):
        builder = SyntheticTraceBuilder(rng=random.Random(2))
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(20.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace, merge_gap=60.0)
        assert len(loops) == 1
        assert loops[0].duration == pytest.approx(19.04, abs=0.01)

    def test_streams_beyond_gap_stay_separate(self):
        builder = SyntheticTraceBuilder(rng=random.Random(3))
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(120.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace, merge_gap=60.0)
        assert len(loops) == 2

    def test_noisy_gap_blocks_merge(self):
        """A non-looped packet to the prefix inside the gap means the loop
        ended in between: the streams are two distinct loops."""
        builder = SyntheticTraceBuilder(rng=random.Random(4))
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(1, 10.0, 10.5, prefixes=[PREFIX])
        builder.add_loop(20.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        assert len(valid) == 2  # windows themselves are clean
        loops = merge_streams(valid, trace, merge_gap=60.0)
        assert len(loops) == 2

    def test_gap_check_can_be_disabled(self):
        builder = SyntheticTraceBuilder(rng=random.Random(5))
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(1, 10.0, 10.5, prefixes=[PREFIX])
        builder.add_loop(20.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace, merge_gap=60.0,
                              check_gap_consistency=False)
        assert len(loops) == 1

    def test_zero_merge_gap_only_merges_overlaps(self):
        builder = SyntheticTraceBuilder(rng=random.Random(6))
        builder.add_loop(1.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(2.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace, merge_gap=0.0)
        assert len(loops) == 2

    def test_negative_merge_gap_rejected(self):
        with pytest.raises(MergeError):
            merge_streams([], None, merge_gap=-1.0)


class TestLoopProperties:
    def test_loop_bounds(self):
        builder = SyntheticTraceBuilder(rng=random.Random(7))
        builder.add_loop(3.0, PREFIX, n_packets=2, replicas_per_packet=4,
                         spacing=0.02, packet_gap=0.01, entry_ttl=40,
                         jitter=0.0)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace)
        loop = loops[0]
        assert loop.start == pytest.approx(3.0)
        assert loop.end == pytest.approx(3.07)
        assert loop.duration == pytest.approx(0.07)

    def test_loop_ttl_delta_is_modal(self):
        builder = SyntheticTraceBuilder(rng=random.Random(8))
        builder.add_loop(1.0, PREFIX, n_packets=3, replicas_per_packet=4,
                         ttl_delta=2, spacing=0.01, packet_gap=0.01,
                         entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace)
        assert loops[0].ttl_delta == 2

    def test_loops_sorted_by_start(self):
        builder = SyntheticTraceBuilder(rng=random.Random(9))
        builder.add_loop(10.0, PREFIX, n_packets=1, replicas_per_packet=4,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(1.0, OTHER, n_packets=1, replicas_per_packet=4,
                         spacing=0.01, entry_ttl=40)
        trace, valid = _detect(builder)
        loops = merge_streams(valid, trace)
        assert [l.start for l in loops] == sorted(l.start for l in loops)

    def test_empty_input(self):
        builder = SyntheticTraceBuilder(rng=random.Random(10))
        builder.add_background(5, 0.0, 1.0)
        trace = builder.build()
        assert merge_streams([], trace) == []
