"""Tests for step 1: replica detection."""

import json
import pickle
import random
from statistics import mode

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace, TraceRecord
from repro.core.detector import LoopDetector
from repro.core.serialize import loops_from_dict, result_to_dict
from repro.core.replica import (
    Replica,
    ReplicaError,
    ReplicaScanStats,
    ReplicaStream,
    StreamRows,
    StreamTable,
    detect_replicas,
    mask_mutable_fields,
)
from repro.core.merge import RoutingLoop
from repro.net.addr import IPv4Address
from repro.traffic.synthetic import SyntheticTraceBuilder

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
OTHER = IPv4Prefix.parse("198.51.100.0/24")


def _trace_with_loop(**loop_kwargs):
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    defaults = dict(ttl_delta=2, n_packets=1, replicas_per_packet=5,
                    entry_ttl=40)
    defaults.update(loop_kwargs)
    builder.add_background(30, 0.0, 5.0, prefixes=[OTHER])
    loop = builder.add_loop(2.0, PREFIX, **defaults)
    return builder.build(), loop


class TestMask:
    def test_masks_exactly_ttl_and_checksum(self, sample_tcp_packet):
        wire = sample_tcp_packet.pack()[:40]
        masked = mask_mutable_fields(wire)
        assert len(masked) == len(wire)
        assert masked[8] == 0
        assert masked[10:12] == b"\x00\x00"
        restored = [i for i in range(len(wire)) if masked[i] != wire[i]]
        assert set(restored) <= {8, 10, 11}

    def test_replicas_share_mask(self, sample_tcp_packet):
        a = sample_tcp_packet.pack()[:40]
        b = sample_tcp_packet.forwarded(4).pack()[:40]
        assert mask_mutable_fields(a) == mask_mutable_fields(b)


class TestDetection:
    def test_finds_planted_stream(self):
        trace, loop = _trace_with_loop()
        streams = detect_replicas(trace)
        assert len(streams) == 1
        stream = streams[0]
        assert stream.size == 5
        assert stream.ttl_delta == 2
        assert PREFIX.contains(stream.dst)

    def test_replica_timestamps_match_ground_truth(self):
        trace, loop = _trace_with_loop()
        stream = detect_replicas(trace)[0]
        expected = [t for t, _ in loop.streams[0]]
        assert [r.timestamp for r in stream.replicas] == pytest.approx(
            expected
        )

    def test_background_yields_no_streams(self):
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(500, 0.0, 10.0)
        assert list(detect_replicas(builder.build())) == []

    def test_multiple_packets_multiple_streams(self):
        trace, _ = _trace_with_loop(n_packets=4)
        streams = detect_replicas(trace)
        assert len(streams) == 4

    def test_link_layer_duplicates_not_chained(self):
        """Identical TTLs (delta 0) never form a stream."""
        builder = SyntheticTraceBuilder(rng=random.Random(2))
        builder.add_duplicate_pair(1.0)
        assert list(detect_replicas(builder.build())) == []

    def test_min_ttl_delta_respected(self):
        trace, _ = _trace_with_loop(ttl_delta=2)
        assert list(detect_replicas(trace, min_ttl_delta=3)) == []

    def test_larger_delta_accepted(self):
        trace, _ = _trace_with_loop(ttl_delta=5, entry_ttl=50)
        streams = detect_replicas(trace)
        assert len(streams) == 1
        assert streams[0].ttl_delta == 5

    def test_max_replica_gap_splits_streams(self):
        trace, _ = _trace_with_loop(spacing=10.0, replicas_per_packet=3,
                                    entry_ttl=40)
        # 10-second spacing exceeds the default 5-second chaining gap.
        streams = detect_replicas(trace, max_replica_gap=5.0)
        assert list(streams) == []
        streams = detect_replicas(trace, max_replica_gap=30.0)
        assert len(streams) == 1

    def test_increasing_ttl_not_chained(self, sample_tcp_packet):
        trace = Trace()
        low = sample_tcp_packet.forwarded(10)
        trace.capture(1.0, low)
        trace.capture(1.1, sample_tcp_packet)  # higher TTL after
        assert list(detect_replicas(trace)) == []

    def test_short_records_skipped(self):
        trace = Trace()
        trace.append(TraceRecord(timestamp=0.0, data=b"\x45\x00", wire_length=2))
        stats = ReplicaScanStats()
        assert list(detect_replicas(trace, stats=stats)) == []
        assert stats.records_skipped_short == 1

    def test_streams_sorted_by_start(self):
        builder = SyntheticTraceBuilder(rng=random.Random(3))
        builder.add_loop(5.0, PREFIX, n_packets=1, replicas_per_packet=3,
                         entry_ttl=30)
        builder.add_loop(1.0, OTHER, n_packets=1, replicas_per_packet=3,
                         entry_ttl=30)
        streams = detect_replicas(builder.build())
        assert [s.start for s in streams] == sorted(s.start for s in streams)

    def test_parameter_validation(self):
        trace = Trace()
        with pytest.raises(ReplicaError):
            detect_replicas(trace, min_ttl_delta=0)
        with pytest.raises(ReplicaError):
            detect_replicas(trace, max_replica_gap=0.0)

    def test_eviction_keeps_results_identical(self):
        builder = SyntheticTraceBuilder(rng=random.Random(4))
        builder.add_background(2000, 0.0, 100.0, prefixes=[OTHER])
        builder.add_loop(50.0, PREFIX, n_packets=2, replicas_per_packet=6,
                         entry_ttl=40)
        trace = builder.build()
        with_eviction = detect_replicas(trace, eviction_interval=500)
        without = detect_replicas(trace, eviction_interval=0)
        key = lambda ss: [(s.start, s.size) for s in ss]
        assert key(with_eviction) == key(without)
        assert len(with_eviction) == 2


class TestStreamProperties:
    def test_duration_and_spacing(self):
        trace, _ = _trace_with_loop(spacing=0.01, replicas_per_packet=5,
                                    jitter=0.0)
        stream = detect_replicas(trace)[0]
        assert stream.duration == pytest.approx(0.04, abs=1e-9)
        assert stream.mean_spacing == pytest.approx(0.01, abs=1e-9)

    def test_ttl_deltas_list(self):
        trace, _ = _trace_with_loop(ttl_delta=2, replicas_per_packet=4)
        stream = detect_replicas(trace)[0]
        assert stream.ttl_deltas() == [2, 2, 2]

    def test_dst_prefix(self):
        trace, _ = _trace_with_loop()
        stream = detect_replicas(trace)[0]
        assert stream.dst_prefix(24) == PREFIX

    def test_member_indices_are_trace_positions(self):
        trace, _ = _trace_with_loop()
        stream = detect_replicas(trace)[0]
        for index in stream.member_indices():
            record = trace[index]
            dst = int.from_bytes(record.data[16:20], "big")
            assert PREFIX.contains(
                type(stream.dst)(dst)
            )

    def test_singleton_properties_raise(self):
        from repro.core.replica import Replica, ReplicaStream
        from repro.net.addr import IPv4Address

        stream = ReplicaStream(
            key=b"", replicas=[Replica(0, 0.0, 10)],
            src=IPv4Address.parse("1.1.1.1"),
            dst=IPv4Address.parse("2.2.2.2"),
            protocol=6, first_data=b"",
        )
        with pytest.raises(ReplicaError):
            _ = stream.ttl_delta
        with pytest.raises(ReplicaError):
            _ = stream.mean_spacing

    def test_dst_prefix_follows_the_length(self):
        trace, _ = _trace_with_loop()
        stream = detect_replicas(trace)[0]
        assert stream.dst_prefix(16) == stream.dst.prefix(16)
        assert stream.dst_prefix(24) == PREFIX


def _stream(ttls, first_index=0):
    return ReplicaStream(
        key=bytes(20), first_data=bytes(20),
        replicas=[Replica(first_index + i, 0.1 * i, ttl)
                  for i, ttl in enumerate(ttls)],
        src=IPv4Address.parse("1.1.1.1"), dst=IPv4Address.parse("2.2.2.2"),
        protocol=6,
    )


#: TTL sequences whose decrements tie often: few distinct small steps,
#: increases included.
_TTLS = st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                 max_size=12).map(lambda steps: np.cumsum(
                     [200] + [-(v % 4) for v in steps[1:]]).tolist())


class TestModalDeltaColumn:
    """``StreamTable.ttl_delta`` is one array pass over every stream; it
    must pick what ``statistics.mode`` picks, first-seen on ties."""

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=255),
                             min_size=1, max_size=10), max_size=8),
           st.lists(_TTLS, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_statistics_mode(self, random_ttls, tied_ttls):
        streams = [_stream(ttls, 100 * k)
                   for k, ttls in enumerate(random_ttls + tied_ttls)]
        table = StreamTable.from_streams(streams)
        for k, stream in enumerate(streams):
            if len(stream.replicas) < 2:
                assert table.ttl_delta[k] == 0
                continue
            assert table.ttl_delta[k] == mode(stream.ttl_deltas())
        # Streams a table makes from its rows read the column.
        handed = StreamTable(table.bounds, table.index, table.timestamp,
                             table.ttl, table.first_data, table.dst)
        for k, stream in enumerate(streams):
            if len(stream.replicas) >= 2:
                assert handed.stream(k).ttl_delta == stream.ttl_delta

    def test_ties_go_to_the_first_seen(self):
        table = StreamTable.from_streams([
            _stream([9, 6, 4, 1, -1]),  # 3, 2, 3, 2: 3 first
            _stream([9, 7, 4, 2, -1]),  # 2, 3, 2, 3: 2 first
            _stream([9, 8]),
        ])
        assert table.ttl_delta.tolist() == [3, 2, 1]

    def test_loop_of_rows_reads_the_column(self):
        streams = [_stream([9, 7, 5]), _stream([9, 6, 3], 10),
                   _stream([8, 5, 2], 20), _stream([9], 30)]
        table = StreamTable.from_streams(streams)
        rows = StreamRows(table, np.array([0, 1, 2]))
        loop = RoutingLoop(prefix=PREFIX, streams=rows)
        listed = RoutingLoop(prefix=PREFIX, streams=streams[:3])
        assert loop == listed and listed == loop
        assert (loop.ttl_delta, loop.start, loop.end, loop.stream_count,
                loop.replica_count) == (3, 0.0, 0.2, 3, 9)
        assert loop.ttl_delta == listed.ttl_delta
        with pytest.raises(ReplicaError):
            _ = RoutingLoop(prefix=PREFIX,
                            streams=StreamRows(table, np.array([3]))
                            ).ttl_delta


class TestReplicaType:
    """``Replica`` is a three-field immutable value."""

    def test_keyword_and_positional_construction(self):
        by_keyword = Replica(index=3, timestamp=1.5, ttl=40)
        assert (by_keyword.index, by_keyword.timestamp, by_keyword.ttl) \
            == (3, 1.5, 40)
        assert Replica(3, 1.5, 40) == by_keyword

    def test_equality_and_hashing(self):
        replica = Replica(index=3, timestamp=1.5, ttl=40)
        assert replica == Replica(index=3, timestamp=1.5, ttl=40)
        assert replica != Replica(index=4, timestamp=1.5, ttl=40)
        assert replica != Replica(index=3, timestamp=1.5, ttl=38)
        assert hash(replica) == hash(Replica(3, 1.5, 40))
        assert len({replica, Replica(3, 1.5, 40), Replica(4, 1.5, 40)}) == 2

    def test_tuple_semantics(self):
        replica = Replica(index=3, timestamp=1.5, ttl=40)
        assert replica == (3, 1.5, 40)
        index, timestamp, ttl = replica
        assert (index, timestamp, ttl) == (3, 1.5, 40)
        assert replica < Replica(index=4, timestamp=0.5, ttl=1)

    def test_immutable(self):
        replica = Replica(index=3, timestamp=1.5, ttl=40)
        with pytest.raises(AttributeError):
            replica.ttl = 38

    def test_pickle_round_trip(self):
        replica = Replica(index=3, timestamp=1.5, ttl=40)
        loaded = pickle.loads(pickle.dumps(replica))
        assert loaded == replica and type(loaded) is Replica

    def test_kernel_replicas_are_replicas(self):
        trace, _ = _trace_with_loop()
        for replica in detect_replicas(trace)[0].replicas:
            assert type(replica) is Replica
            assert isinstance(replica.index, int)
            assert isinstance(replica.timestamp, float)
            assert isinstance(replica.ttl, int)

    def test_serialize_round_trip(self):
        trace, _ = _trace_with_loop()
        result = LoopDetector().detect(trace)
        assert result.loops
        loaded = loops_from_dict(json.loads(json.dumps(result_to_dict(result))))
        for loop, again in zip(result.loops, loaded):
            for stream, rebuilt in zip(loop.streams, again.streams):
                assert all(type(r) is Replica for r in rebuilt.replicas)
                assert rebuilt.replicas == stream.replicas
