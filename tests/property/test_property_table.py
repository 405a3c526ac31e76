"""Property-based tests for steps 2 and 3 over the stream table.

:func:`~repro.core.streams.validate_streams` and
:func:`~repro.core.merge.merge_streams` run as array programs over a
:class:`~repro.core.replica.StreamTable` and a
:class:`~repro.core.streams.PrefixIndex`.  They must agree with the
object oracles :func:`~tests.oracles.reference_validate` and
:func:`~tests.oracles.reference_merge`, asked through a brute-force
window scan: the same valid streams in the same order, both rejection
counts, and the same loops with the same member streams.

Inputs cover replicas and non-members on a window's exact start or end
and at one timestamp, records shorter than 20 bytes, chunks whose
timestamps regress, chunks fed out of time order, prefix lengths 8, 24
and 32, either consistency check off, and merge gaps of zero or equal
to the distance between two records.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import LoopDetector
from repro.core.merge import merge_streams
from repro.core.replica import (
    Replica,
    ReplicaStream,
    StreamTable,
    mask_mutable_fields,
    stream_sort_key,
)
from repro.core.streams import PrefixIndex, validate_streams
from repro.net.addr import IPv4Address
from tests.conftest import storm_trace
from tests.oracles import (
    member_set,
    reference_merge,
    reference_replicas,
    reference_validate,
)
from tests.property.test_property_prefix_index import (
    ADDRESSES,
    _body,
    make_chunk,
)

#: Timestamp increments: zeros put records on one timestamp, and so on
#: each other's window edges.
STEPS = (0.0, 0.0, 0.25, 1.0, 3.0)


class BruteForceIndex:
    """Window queries by scanning every record: exact on any order."""

    def __init__(self, rows, prefix_length: int) -> None:
        self.rows = rows
        self.shift = 32 - prefix_length

    def has_non_member(self, prefix, start, end, members) -> bool:
        net = prefix.network >> self.shift
        return any(
            length >= 20 and dst >> self.shift == net
            and start <= t <= end and i not in members
            for i, (t, dst, length) in enumerate(self.rows)
        )


@st.composite
def captures(draw):
    """``(rows, candidates)``: ``(timestamp, dst, length)`` records and
    the candidate streams over some of them, in stream order."""
    n = draw(st.integers(min_value=2, max_value=60))
    now = draw(st.sampled_from((0.0, 100.0)))
    rows = []
    labels = []
    for _ in range(n):
        now += draw(st.sampled_from(STEPS))
        length = draw(st.sampled_from((40, 40, 40, 20, 19, 8)))
        rows.append((now, draw(st.sampled_from(ADDRESSES)), length))
        labels.append(draw(st.sampled_from((None, None, 0, 1, 2, 3))))
    if draw(st.booleans()):
        # Regress: the same records, timestamps permuted.
        stamps = draw(st.permutations([t for t, _, _ in rows]))
        rows = [(t, dst, length)
                for t, (_, dst, length) in zip(stamps, rows)]
    groups: dict = {}
    for i, ((_, dst, length), label) in enumerate(zip(rows, labels)):
        if label is not None and length >= 20:
            groups.setdefault((label, dst), []).append(i)
    candidates = []
    for members in groups.values():
        if len(members) < 2:
            continue
        data = _body(rows[members[0]][1], 40)
        candidates.append(ReplicaStream(
            key=mask_mutable_fields(data),
            replicas=[Replica(i, rows[i][0], 200 - 2 * k)
                      for k, i in enumerate(members)],
            src=IPv4Address.from_bytes(data[12:16]),
            dst=IPv4Address.from_bytes(data[16:20]),
            protocol=data[9],
            first_data=data,
        ))
    candidates.sort(key=stream_sort_key)
    return rows, candidates


@st.composite
def chunked(draw, rows):
    """``rows`` cut into chunks of 1, 7 or all records, fed in capture
    order or shuffled."""
    size = draw(st.sampled_from((1, 7, len(rows))))
    chunks = [make_chunk(rows[start:start + size], base_index=start)
              for start in range(0, len(rows), size)]
    if draw(st.booleans()):
        chunks = draw(st.permutations(chunks))
    return chunks


def _ids(streams) -> list[int]:
    return [id(stream) for stream in streams]


@given(st.data(), captures(), st.sampled_from((8, 24, 32)),
       st.booleans(), st.booleans(), st.sampled_from((2, 3)))
@settings(max_examples=300, deadline=None)
def test_table_path_matches_object_oracle(data, capture, prefix_length,
                                          check_prefix, check_gap,
                                          min_stream_size):
    rows, candidates = capture
    # Zero, or a distance between two records, so some gap equals it.
    merge_gap = data.draw(st.sampled_from(
        (0.0, *sorted({abs(a[0] - b[0]) for a in rows for b in rows}))))
    index = PrefixIndex(prefix_length=prefix_length)
    for chunk in data.draw(chunked(rows)):
        index.add_chunk(chunk)
    validation = validate_streams(
        StreamTable.from_streams(candidates), None,
        min_stream_size=min_stream_size, prefix_length=prefix_length,
        check_prefix_consistency=check_prefix, prefix_index=index,
    )
    loops = merge_streams(
        validation.valid, None, merge_gap=merge_gap,
        prefix_length=prefix_length, check_gap_consistency=check_gap,
        prefix_index=index, members=validation.members,
    )

    brute = BruteForceIndex(rows, prefix_length)
    valid, too_small, conflicts = reference_validate(
        candidates, brute, min_stream_size=min_stream_size,
        prefix_length=prefix_length,
        check_prefix_consistency=check_prefix,
    )
    expected = reference_merge(
        valid, brute, merge_gap=merge_gap, prefix_length=prefix_length,
        check_gap_consistency=check_gap, members=member_set(candidates),
    )
    assert _ids(validation.valid) == _ids(valid)
    assert validation.rejected_too_small == too_small
    assert validation.rejected_prefix_conflict == conflicts
    assert sorted(validation.members.tolist()) == sorted(
        member_set(candidates))
    assert ([(loop.prefix, _ids(loop.streams)) for loop in loops]
            == [(loop.prefix, _ids(loop.streams)) for loop in expected])


def test_lazy_fields_match_the_oracle_on_a_storm():
    """Streams the vectorized kernel's table hands out build
    ``replicas``, ``src`` and ``dst`` on first access, equal to the
    oracle's fields."""
    trace = storm_trace(seed=9)
    result = LoopDetector().detect(trace)
    expected = reference_replicas(trace)
    table = result.candidate_streams
    assert isinstance(table, StreamTable)
    assert len(table) == len(expected) > 1000
    for stream, oracle in zip(table, expected):
        assert stream._replicas is None and stream._dst is None
        assert (stream.size, stream.start, stream.end, stream.first_ttl,
                stream.last_ttl, stream.ttl_deltas(), stream.spacings()) == (
            oracle.size, oracle.start, oracle.end, oracle.first_ttl,
            oracle.last_ttl, oracle.ttl_deltas(), oracle.spacings())
        assert stream._replicas is None
        assert stream.replicas == oracle.replicas
        assert stream.src == oracle.src
        assert stream.dst == oracle.dst
        assert stream == oracle
