"""The streaming detector's step-2 history against the tuple-list oracle.

The detector keeps its history as a deque of columnar slices: a batched
chunk becomes one slice sorted by (prefix, timestamp), and the
per-record feed fills an open tail in capture order that is sealed into
the same layout.  Window queries bisect each slice that overlaps the
window, and pruning drops whole slices behind the retention floor.
:class:`~tests.oracles.ReferenceStreamingHistory` is the plain
per-prefix list of ``(timestamp, index)`` tuples; the columnar history
must answer every window the floor still covers identically, including
timestamp ties at the floor, inclusive window edges, and mid-chunk
queries that must not see the current record or anything after it.

The tail is shrunk to a few records here so that sealing, multi-slice
queries and pruning also run on the per-record path (and so without
numpy, where every feed takes it).
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import streaming, vectorize
from repro.core.detector import DetectorConfig
from repro.core.streaming import StreamingLoopDetector, _OpenLoop
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.net.trace import TraceRecord
from tests.oracles import ReferenceStreamingHistory

PREFIX = 7
OTHER = 9
ABSENT = 11

#: Exact binary fractions, so ``now - (merge_gap + max_replica_gap)``
#: lands exactly on a grid timestamp and ties at the floor happen.
CONFIG = DetectorConfig(merge_gap=1.5, max_replica_gap=0.5)
HORIZON = CONFIG.merge_gap + CONFIG.max_replica_gap

needs_numpy = pytest.mark.skipif(
    not vectorize.HAVE_NUMPY, reason="batched tier requires numpy"
)


def _record(timestamp, prefix_net, serial):
    """A bare 20-byte IPv4 header to ``prefix_net``/24; the serial in the
    identification field keeps every masked key distinct, so nothing
    chains and the history is all the feed builds."""
    data = bytearray(20)
    data[0] = 0x45
    data[4:8] = serial.to_bytes(4, "big")
    data[8] = 64
    data[16:20] = ((prefix_net << 8) | 1).to_bytes(4, "big")
    return TraceRecord(timestamp=timestamp, data=bytes(data),
                       wire_length=20)


def _feed(records, cuts, config=None, tail=3):
    """Feed ``records`` in chunks of the ``cuts`` sizes (the last chunk
    takes the rest): chunks of 32 or more take the batched tier when
    numpy is present, the others the per-record path."""
    detector = StreamingLoopDetector(config)
    reference = ReferenceStreamingHistory()
    for index, record in enumerate(records):
        reference.add_record(index, record.timestamp,
                             int.from_bytes(record.data[16:19], "big"))
    with mock.patch.object(streaming, "_TAIL_RECORDS", tail):
        pos = 0
        for size in [*cuts, len(records)]:
            segment = records[pos:pos + size]
            if segment:
                detector.process_chunk(
                    ColumnarChunk.from_records(segment, base_index=pos))
            pos += len(segment)
    return detector, reference


def _add_members(detector, reference, members):
    for index in members:
        detector._add_member(index)
        reference.add_member(index)


def _retained(detector):
    """Record indices held by the detector's slices."""
    found = set()
    for piece in detector._slices:
        if piece.indices is None:
            found.update(range(piece.base, piece.base + len(piece.keys)))
        else:
            found.update(piece.indices)
    return found


grid_time = st.integers(0, 24).map(lambda step: step * 0.25)


@st.composite
def feeds(draw):
    """Time-ordered records on a grid (ties are common) to two prefixes,
    chunk cuts on both sides of the batched tier's 32-record gate, and
    members drawn from the record indices."""
    times = sorted(draw(st.lists(grid_time, min_size=1, max_size=120)))
    records = [_record(t, draw(st.sampled_from([PREFIX, OTHER])), i)
               for i, t in enumerate(times)]
    cuts = draw(st.lists(st.sampled_from([1, 2, 5, 31, 32, 40, 70]),
                         max_size=6))
    members = [i for i in range(len(records)) if draw(st.booleans())]
    return records, cuts, members


class TestWindowHasNonMember:
    @given(feed=feeds(), start=grid_time, end=grid_time)
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, feed, start, end):
        records, cuts, members = feed
        detector, reference = _feed(records, cuts)
        _add_members(detector, reference, members)
        for prefix_net in (PREFIX, OTHER, ABSENT):
            assert detector._window_has_non_member(prefix_net, start, end) \
                == reference.window_has_non_member(prefix_net, start, end)

    def test_window_edges_are_inclusive(self):
        records = [_record(t, PREFIX, i)
                   for i, t in enumerate([1.0, 2.0, 2.0, 3.0])]
        for cuts in ([], [1, 1, 1], [2]):
            detector, _ = _feed(records, cuts)
            for index in (0, 1, 3):
                detector._add_member(index)
            assert detector._window_has_non_member(PREFIX, 2.0, 2.0)
            assert detector._window_has_non_member(PREFIX, 0.0, 2.0)
            assert not detector._window_has_non_member(PREFIX, 2.5, 3.0)
            assert not detector._window_has_non_member(PREFIX, 0.0, 1.5)

    def test_unknown_prefix(self):
        assert not StreamingLoopDetector()._window_has_non_member(
            PREFIX, 0.0, 10.0)

    @needs_numpy
    @given(feed=feeds(), start=grid_time, end=grid_time,
           cut=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_mid_chunk_queries_see_only_earlier_records(self, feed, start,
                                                        end, cut):
        """Mid-chunk, the in-flight slice shows only the records before
        the current one.  All 40 records of the last chunk share one
        timestamp, so however small ``max_replica_gap`` is, a time bound
        could not tell them apart: the record-index bound must."""
        records, cuts, members = feed
        stamp, n = records[-1].timestamp, len(records)
        detector, reference = _feed(records, cuts,
                                    DetectorConfig(max_replica_gap=2 ** -10))
        last = [_record(stamp, (PREFIX, OTHER)[i % 2], n + i)
                for i in range(40)]
        for i in range(40):
            reference.add_record(n + i, stamp, (PREFIX, OTHER)[i % 2])
        detector.process_chunk(ColumnarChunk.from_records(last, n))
        assert detector._slices[-1].base == n
        _add_members(detector, reference, [*members, *range(n, n + 40, 3)])
        visible = n + cut
        detector._visible = visible
        for prefix_net in (PREFIX, OTHER):
            assert detector._window_has_non_member(prefix_net, start, end) \
                == reference.window_has_non_member(prefix_net, start, end,
                                                   before=visible)


class TestPruneHistory:
    @given(feed=feeds(), step=st.integers(0, 16))
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, feed, step):
        """Pruning drops exactly the slices that end before the floor;
        everything at or after it, members included, stays and answers
        as the oracle pruned at the same floor."""
        records, cuts, members = feed
        detector, reference = _feed(records, cuts, CONFIG)
        _add_members(detector, reference, members)
        now = detector.now + step * 0.25
        floor = now - HORIZON
        before = list(detector._slices)
        detector._prune_history(now)
        assert [id(p) for p in detector._slices] \
            == [id(p) for p in before if p.last >= floor]
        reference.prune(floor)
        assert reference.indices() <= _retained(detector)
        kept_members = set()
        for piece in detector._slices:
            kept_members |= piece.members
        assert reference.members <= kept_members
        for prefix_net in (PREFIX, OTHER):
            for start in (floor, floor + 0.25, floor + 1.0):
                for end in (start, start + 0.5, now):
                    assert detector._window_has_non_member(
                        prefix_net, start, end
                    ) == reference.window_has_non_member(
                        prefix_net, start, end)

    def test_tie_at_horizon_is_kept(self):
        records = [_record(t, PREFIX, i)
                   for i, t in enumerate([1.0, 2.0, 2.0, 3.0])]
        detector, _ = _feed(records, [], CONFIG, tail=2)
        assert [p.last for p in detector._slices] == [2.0, 3.0]
        detector._prune_history(2.0 + HORIZON)
        assert [p.last for p in detector._slices] == [2.0, 3.0]
        detector._prune_history(2.25 + HORIZON)
        assert [p.last for p in detector._slices] == [3.0]

    def test_open_loop_pins_the_floor(self):
        records = [_record(t, PREFIX, i)
                   for i, t in enumerate([1.0, 2.0, 3.0, 4.0])]
        detector, _ = _feed(records, [], CONFIG, tail=1)
        detector._open_loops[OTHER] = _OpenLoop(OTHER, [], end=2.0)
        detector._prune_history(10.0)
        assert [p.last for p in detector._slices] == [2.0, 3.0, 4.0]
        del detector._open_loops[OTHER]
        detector._prune_history(10.0)
        assert not detector._slices

    def test_detector_feed_matches_oracle(self):
        """Through a real feed with loops: at every chunk end, windows
        inside the retention horizon and ``tracked_prefixes`` agree with
        the never-pruned oracle fed the same records and members."""
        from repro.net.addr import IPv4Prefix
        from repro.traffic.synthetic import SyntheticTraceBuilder

        builder = SyntheticTraceBuilder(rng=random.Random(11))
        prefix = IPv4Prefix.parse("192.0.2.0/24")
        other = IPv4Prefix.parse("198.51.100.0/24")
        builder.add_background(400, 0.0, 200.0, prefixes=[prefix, other])
        for start in (20.0, 90.0, 150.0):
            builder.add_loop(start, prefix, n_packets=3,
                             replicas_per_packet=5, spacing=0.01,
                             packet_gap=0.012, entry_ttl=40)
        trace = builder.build()
        detector = StreamingLoopDetector()
        horizon = (detector.config.merge_gap
                   + detector.config.max_replica_gap)
        reference = ReferenceStreamingHistory()
        add_member = detector._add_member

        def spy(index):
            reference.add_member(index)
            add_member(index)

        detector._add_member = spy
        rng = random.Random(5)
        loops = 0
        with mock.patch.object(streaming, "_TAIL_RECORDS", 16):
            for chunk in ColumnarTrace.from_trace(trace, 37).chunks:
                for i, record in enumerate(chunk.to_records()):
                    reference.add_record(
                        chunk.base_index + i, record.timestamp,
                        int.from_bytes(record.data[16:19], "big"))
                loops += len(detector.process_chunk(chunk))
                now = detector.now
                assert detector.state_snapshot()["tracked_prefixes"] \
                    == reference.prefixes_since(now - horizon)
                for _ in range(20):
                    start = rng.uniform(now - horizon, now)
                    end = rng.uniform(start, now)
                    for prefix_net in (prefix.network >> 8,
                                       other.network >> 8):
                        assert detector._window_has_non_member(
                            prefix_net, start, end
                        ) == reference.window_has_non_member(
                            prefix_net, start, end)
        assert loops + len(detector.flush()) == 3
        assert len(detector._slices) < len(trace.records) // 16
