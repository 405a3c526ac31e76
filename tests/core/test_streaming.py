"""Tests for the streaming (online) detector."""

import random
import sys
import threading
from bisect import bisect_left

import pytest

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.streaming import _SMALL, StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import ReferenceStreamingDetector

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
OTHER = IPv4Prefix.parse("198.51.100.0/24")


def _loop_trace(seed=0, loops=2, background=500):
    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    builder.add_background(background, 0.0, 400.0, prefixes=[OTHER])
    for i in range(loops):
        builder.add_loop(20.0 + i * 150.0, PREFIX, n_packets=3,
                         replicas_per_packet=6, spacing=0.01,
                         packet_gap=0.012, entry_ttl=40)
    return builder.build()


def _compare(trace, config=None):
    offline = LoopDetector(config).detect(trace)
    streaming = StreamingLoopDetector(config)
    online_loops = streaming.process_trace(trace)
    return offline, online_loops, streaming


def _loop_key(loop):
    return (loop.prefix, round(loop.start, 6), round(loop.end, 6),
            loop.stream_count, loop.replica_count)


class TestEquivalenceWithOffline:
    def test_synthetic_trace(self):
        trace = _loop_trace()
        offline, online, _ = _compare(trace)
        assert sorted(map(_loop_key, online)) == sorted(
            map(_loop_key, offline.loops)
        )

    def test_clean_trace_detects_nothing(self):
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(1000, 0.0, 100.0)
        trace = builder.build()
        offline, online, streaming = _compare(trace)
        assert online == []
        assert offline.loop_count == 0
        assert streaming.stats.loops_emitted == 0

    def test_duplicates_rejected(self):
        builder = SyntheticTraceBuilder(rng=random.Random(2))
        builder.add_background(200, 0.0, 60.0, prefixes=[OTHER])
        for i in range(10):
            builder.add_duplicate_pair(5.0 + i * 3.0)
        trace = builder.build()
        _, online, _ = _compare(trace)
        assert online == []

    def test_prefix_conflict_rejected(self):
        builder = SyntheticTraceBuilder(rng=random.Random(3))
        builder.add_loop(10.0, PREFIX, n_packets=1, replicas_per_packet=5,
                         spacing=0.01, entry_ttl=40)
        builder.add_background(1, 10.02, 10.03, prefixes=[PREFIX])
        trace = builder.build()
        offline, online, streaming = _compare(trace)
        assert offline.loop_count == 0
        assert online == []
        assert streaming.stats.streams_rejected_conflict == 1

    def test_merge_gap_respected(self):
        trace = _loop_trace(loops=2)  # episodes 150 s apart
        config = DetectorConfig(merge_gap=200.0)
        offline, online, _ = _compare(trace, config)
        assert offline.loop_count == 1
        assert len(online) == 1

    def test_simulated_trace(self, shared_run):
        offline, online, _ = _compare(shared_run.trace)
        assert sorted(map(_loop_key, online)) == sorted(
            map(_loop_key, offline.loops)
        )

    def test_singleton_in_merge_window_defers_close(self):
        """Hypothesis-found regression: the second episode's first
        replica is still an unchained singleton when the open loop's
        merge deadline fires.  Closing then splits what offline merges —
        the loop must stay open until the singleton resolves."""
        builder = SyntheticTraceBuilder(rng=random.Random(0))
        for when in (10.0, 10.0 + 2 * 12.375):
            builder.add_loop(when, IPv4Prefix.parse("192.0.0.0/24"),
                             ttl_delta=2, n_packets=2,
                             replicas_per_packet=9, spacing=0.28125,
                             packet_gap=0.5625, entry_ttl=18)
        trace = builder.build()
        config = DetectorConfig(merge_gap=22.0)
        offline, online, _ = _compare(trace, config)
        # The episodes sit just inside the merge gap: one loop, both ways.
        assert offline.loop_count == 1
        assert sorted(map(_loop_key, online)) == sorted(
            map(_loop_key, offline.loops)
        )


    def test_long_stream_keeps_its_history(self):
        """A stream open longer than the retention horizon pins the
        history it will be validated against: the non-member at 101 s
        must still be there when the 100-256 s stream completes, long
        after 20k background records have passed."""
        builder = SyntheticTraceBuilder(rng=random.Random(7))
        builder.add_background(45_000, 0.0, 400.0, prefixes=[OTHER])
        builder.add_loop(100.0, PREFIX, n_packets=1, replicas_per_packet=40,
                         spacing=4.0, entry_ttl=90, jitter=0.0)
        builder.add_background(1, 101.0, 101.001, prefixes=[PREFIX])
        trace = builder.build()
        offline = LoopDetector().detect(trace)
        assert offline.loops == []
        assert offline.validation.rejected_prefix_conflict == 1
        per_record = ReferenceStreamingDetector()
        loops = per_record.process_trace(trace)
        chunked = StreamingLoopDetector()
        for streaming, found in ((per_record, loops),
                                 (chunked, chunked.process_trace(trace))):
            assert found == []
            assert streaming.stats.streams_rejected_conflict == 1


class TestStreamingBehaviour:
    def test_loops_emitted_incrementally(self):
        trace = _loop_trace(loops=2)
        streaming = StreamingLoopDetector()
        emitted_during = []
        for record in trace:
            emitted_during.extend(
                streaming.process(record.timestamp, record.data)
            )
        # The first episode (t≈20) closes during the feed: the second
        # episode starts 150 s later, past the 60 s merge gap.
        assert len(emitted_during) >= 1
        tail = streaming.flush()
        assert len(emitted_during) + len(tail) == 2

    def test_callback_invoked(self):
        trace = _loop_trace(loops=1)
        seen = []
        streaming = StreamingLoopDetector(on_loop=seen.append)
        streaming.process_trace(trace)
        assert len(seen) == 1
        assert seen[0].prefix == PREFIX

    def test_out_of_order_records_rejected(self):
        streaming = StreamingLoopDetector()
        streaming.process(5.0, b"\x00" * 20)
        with pytest.raises(ValueError):
            streaming.process(4.0, b"\x00" * 20)

    def test_short_records_counted(self):
        streaming = StreamingLoopDetector()
        streaming.process(1.0, b"\x45\x00")
        assert streaming.stats.skipped_short == 1

    def test_flush_is_idempotent(self):
        trace = _loop_trace(loops=1)
        streaming = StreamingLoopDetector()
        streaming.process_trace(trace)
        assert streaming.flush() == []

    def test_memory_bounded_state(self):
        """Step-2 history is dropped slice by slice once it falls behind
        the retention horizon, and stream members go with their slice.
        Fed in chunks of 1,000 records, a slice holds at most ``_SMALL +
        999``."""
        builder = SyntheticTraceBuilder(rng=random.Random(4))
        builder.add_background(60_000, 0.0, 6000.0, prefixes=[OTHER])
        for start in (20.0, 300.0):
            builder.add_loop(start, PREFIX, n_packets=3,
                             replicas_per_packet=6, spacing=0.01,
                             packet_gap=0.012, entry_ttl=40)
        # Two-replica streams on the busy prefix: rejected as too small,
        # but their records still become step-2 members.
        for i in range(20):
            builder.add_loop(100.0 + i * 250.0, OTHER, n_packets=1,
                             replicas_per_packet=2, spacing=0.01,
                             packet_gap=0.012, entry_ttl=40)
        trace = builder.build()
        streaming = StreamingLoopDetector()
        config = streaming.config
        horizon = config.merge_gap + config.max_replica_gap
        times = [record.timestamp for record in trace]
        members_seen = set()
        excess = 0
        for chunk in ColumnarTrace.from_trace(trace, 1000).chunks:
            streaming.process_chunk(chunk)
            retained = 0
            for piece in streaming._slices:
                members_seen |= piece.members
                retained += len(piece.keys)
            in_horizon = streaming.stats.records - bisect_left(
                times, streaming.now - horizon)
            excess = max(excess, retained - in_horizon)
        assert streaming.stats.loops_emitted == 2
        assert streaming.stats.streams_rejected_small == 20
        # Beyond the horizon, at most the slice straddling it: a slice
        # takes chunks while it holds under ``_SMALL`` records, so at
        # most ``_SMALL + 999`` (4,446 beyond the horizon on this feed).
        assert excess <= _SMALL + 1000
        # Every surviving member is a record of its own slice, and the
        # members of long-gone streams went with their slices.
        retained = set()
        for piece in streaming._slices:
            assert all(piece.base <= index < piece.base + len(piece.keys)
                       for index in piece.members)
            retained |= piece.members
        assert len(retained) <= 2 < len(members_seen)


class TestConcurrentSnapshot:
    def test_snapshot_while_feeding(self):
        """``/state`` is served from HTTP threads while the executor
        feeds the detector: ``state_snapshot`` must never raise on
        containers the feed is resizing."""
        builder = SyntheticTraceBuilder(rng=random.Random(8))
        builder.add_background(3000, 0.0, 30.0, prefixes=[OTHER])
        for i in range(60):
            builder.add_loop(1.0 + i * 0.4, IPv4Prefix((192 << 24) | i << 8,
                                                       24),
                             n_packets=4, replicas_per_packet=8,
                             spacing=0.05, packet_gap=0.2, entry_ttl=40)
        columnar = ColumnarTrace.from_trace(builder.build(), 512)
        errors = []
        done = threading.Event()

        def feed():
            try:
                for _ in range(3):
                    streaming = detectors[-1] = StreamingLoopDetector()
                    for chunk in columnar.chunks:
                        streaming.process_chunk(chunk)
                    streaming.flush()
                    # Small chunks grow the newest slice and run.
                    streaming = detectors[-1] = StreamingLoopDetector()
                    for chunk in ColumnarTrace.from_trace(
                            columnar.to_trace(), 61).chunks:
                        streaming.process_chunk(chunk)
            finally:
                done.set()

        detectors = [StreamingLoopDetector()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            feeder = threading.Thread(target=feed)
            feeder.start()
            snapshots = 0
            while not done.is_set():
                try:
                    detectors[-1].state_snapshot()
                except RuntimeError as error:  # pragma: no cover
                    errors.append(error)
                snapshots += 1
            feeder.join()
        finally:
            sys.setswitchinterval(interval)
        assert snapshots > 10
        assert errors == []
