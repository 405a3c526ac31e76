"""Property-based tests for the columnar step-2/3 prefix index.

:class:`~repro.core.streams.PrefixIndex` must answer every window query
exactly as the tuple-list oracle
:class:`~tests.oracles.ReferencePrefixIndex` does on time-ordered input:
the same record indices in the same order, and as many records outside
a member set (:meth:`~repro.core.streams.PrefixIndex.non_member_counts`)
as the oracle's window holds.  On input whose timestamps regress, where
the oracle's bisect is undefined, its answers must equal a brute-force
scan.

Inputs cover chunk sizes 1, 41 and whole-trace, stride-regular slabs
with gaps between records (the pcap layout), records shorter than 20
bytes, empty chunks, equal timestamps on window edges and across chunk
boundaries, and prefix lengths 8, 16, 24 and 32.
"""

from array import array

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streams import PrefixIndex
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk
from repro.net.trace import Trace, TraceRecord
from tests.oracles import ReferencePrefixIndex

#: Destinations that share some prefixes at /8, /16 and /24 but not
#: others, so every prefix length groups them differently.
ADDRESSES = (
    0x0A000001,  # 10.0.0.1
    0x0A0000C8,  # 10.0.0.200
    0x0A000105,  # 10.0.1.5
    0x0A010005,  # 10.1.0.5
    0x0B000005,  # 11.0.0.5
    0xC0000201,  # 192.0.2.1
)
#: Not a destination in any generated trace.
ABSENT = 0xCB007101  # 203.0.113.1

#: Timestamp increments: zeros make ties, inside and across chunks.
STEPS = (0.0, 0.0, 0.5, 1.0, 0.125)


@st.composite
def records(draw, min_size=0):
    """``(timestamp, dst, captured_length)`` triples, time-ordered."""
    n = draw(st.integers(min_value=min_size, max_value=120))
    now = draw(st.sampled_from((0.0, 100.0)))
    out = []
    for _ in range(n):
        now += draw(st.sampled_from(STEPS))
        dst = draw(st.sampled_from(ADDRESSES))
        length = draw(st.sampled_from((40, 40, 40, 20, 19, 8)))
        out.append((now, dst, length))
    return out


def _body(dst: int, length: int) -> bytes:
    body = bytearray(b"\x45" + bytes(range(1, max(length, 20))))
    body[16:20] = dst.to_bytes(4, "big")
    return bytes(body[:length])


def make_chunk(rows, base_index=0, gap=0) -> ColumnarChunk:
    """A chunk over ``rows`` with ``gap`` filler bytes before each
    record, declaring a stride when every record has the same length."""
    slab = bytearray()
    offsets = array("Q")
    lengths = array("I")
    for _, dst, length in rows:
        slab.extend(b"\xee" * gap)
        offsets.append(len(slab))
        lengths.append(length)
        slab.extend(_body(dst, length))
    stride = None
    if lengths and min(lengths) == max(lengths):
        stride = lengths[0] + gap
    return ColumnarChunk(
        data=bytes(slab),
        timestamps=array("d", (t for t, _, _ in rows)),
        offsets=offsets,
        lengths=lengths,
        base_index=base_index,
        stride=stride,
    )


@st.composite
def chunked(draw, rows):
    """``rows`` cut into chunks of 1, 41 or all records, with empty
    chunks mixed in."""
    size = draw(st.sampled_from((1, 41, max(len(rows), 1))))
    gap = draw(st.sampled_from((0, 16)))
    chunks = []
    for start in range(0, len(rows), size):
        if draw(st.booleans()):
            chunks.append(make_chunk([], base_index=start))
        chunks.append(make_chunk(rows[start:start + size],
                                 base_index=start, gap=gap))
    if draw(st.booleans()):
        chunks.append(make_chunk([], base_index=len(rows)))
    return chunks


def query_prefixes(prefix_length: int) -> list[IPv4Prefix]:
    shift = 32 - prefix_length
    nets = sorted({dst >> shift << shift for dst in (*ADDRESSES, ABSENT)})
    return [IPv4Prefix(net, prefix_length) for net in nets]


def windows(rows) -> list[tuple[float, float]]:
    """Windows whose edges sit exactly on record timestamps, between
    them, outside the trace, and inverted."""
    stamps = sorted({t for t, _, _ in rows}) or [0.0]
    edges = sorted({*stamps, stamps[0] - 1.0, stamps[-1] + 1.0,
                    *(t + 0.25 for t in stamps[::3])})
    picked = edges[::max(1, len(edges) // 6)] + [edges[-1]]
    out = [(a, b) for a in picked for b in picked]
    out.append((stamps[-1], stamps[0]))
    return out


def non_members(index, prefix, start, end, members) -> int:
    """The index's non-member count for one window, asked as an array
    query of one."""
    counts = index.non_member_counts(
        np.array([prefix.network >> (32 - prefix.length)]),
        np.array([start]), np.array([end]),
        np.array(sorted(members), dtype=np.int64),
    )
    return int(counts[0])


def build(index, chunks):
    for chunk in chunks:
        index.add_chunk(chunk)
    return index


prefix_lengths = st.sampled_from((8, 16, 24, 32))


class TestMatchesTupleListOracle:
    @given(st.data(), records(), prefix_lengths)
    @settings(max_examples=150, deadline=None)
    def test_window_answers_match(self, data, rows, prefix_length):
        chunks = data.draw(chunked(rows))
        index = build(PrefixIndex(prefix_length=prefix_length), chunks)
        oracle = build(ReferencePrefixIndex(prefix_length=prefix_length),
                       chunks)
        members = set(data.draw(st.lists(
            st.integers(min_value=0, max_value=max(len(rows) - 1, 0)),
            max_size=len(rows))))
        for prefix in query_prefixes(prefix_length):
            for start, end in windows(rows):
                expected = oracle.records_in_window(prefix, start, end)
                assert index.records_in_window(prefix, start, end) \
                    == expected
                assert (non_members(index, prefix, start, end, members)
                        == sum(i not in members for i in expected))
                assert (bool(non_members(index, prefix, start, end,
                                         members))
                        == oracle.has_non_member(prefix, start, end,
                                                 members))
                assert non_members(index, prefix, start, end, set()) \
                    == len(expected)

    @given(records(), prefix_lengths)
    @settings(max_examples=50, deadline=None)
    def test_trace_constructor_matches_oracle(self, rows, prefix_length):
        trace = Trace(records=[
            TraceRecord(timestamp=t, data=_body(dst, length),
                        wire_length=max(length, 20))
            for t, dst, length in rows
        ])
        index = PrefixIndex(trace, prefix_length)
        oracle = ReferencePrefixIndex(trace, prefix_length)
        for prefix in query_prefixes(prefix_length):
            for start, end in windows(rows):
                assert (index.records_in_window(prefix, start, end)
                        == oracle.records_in_window(prefix, start, end))


def brute_force(rows, prefix, start, end) -> list[int]:
    shift = 32 - prefix.length
    return sorted(
        i for i in range(len(rows))
        if rows[i][2] >= 20
        and rows[i][1] >> shift == prefix.network >> shift
        and start <= rows[i][0] <= end
    )


class TestRegressingTimestamps:
    @given(st.data(), records(min_size=2), prefix_lengths)
    @settings(max_examples=150, deadline=None)
    def test_windows_equal_brute_force(self, data, rows, prefix_length):
        stamps = data.draw(st.permutations([t for t, _, _ in rows]))
        rows = [(t, dst, length)
                for t, (_, dst, length) in zip(stamps, rows)]
        chunks = data.draw(chunked(rows))
        index = build(PrefixIndex(prefix_length=prefix_length), chunks)
        members = set(range(0, len(rows), 2))
        for prefix in query_prefixes(prefix_length):
            for start, end in windows(rows):
                expected = brute_force(rows, prefix, start, end)
                found = index.records_in_window(prefix, start, end)
                assert sorted(found) == expected
                assert len(found) == len(expected)
                assert (non_members(index, prefix, start, end, members)
                        == sum(i not in members for i in expected))
