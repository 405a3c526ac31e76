"""Step 2 — replica-stream validation.

Two checks (Sec. IV-A.2):

1. **Size** — streams of only two elements are discarded: the link layer
   can inject duplicate packets (token-ring drain failures, misconfigured
   SONET protection), and two observations are not enough evidence of a
   loop.
2. **Prefix consistency** — a routing loop captures *all* traffic to the
   affected destination prefix.  If any packet to the stream's /24 crosses
   the link during the stream's lifetime without itself being part of a
   replica stream, the candidate cannot be a routing loop and is dropped.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, le

from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace
from repro.core.replica import ReplicaStream

#: Captured bytes a record needs for its IPv4 destination (bytes 16..20).
_MIN_INDEXED = 20


@dataclass(slots=True)
class ValidationResult:
    """Outcome of the validation pass."""

    valid: list[ReplicaStream] = field(default_factory=list)
    rejected_too_small: int = 0
    rejected_prefix_conflict: int = 0
    #: :func:`member_set` of the candidates: the records the
    #: prefix-consistency check counts as looping, as merging does.
    members: set[int] = field(default_factory=set, repr=False)

    @property
    def rejected(self) -> int:
        return self.rejected_too_small + self.rejected_prefix_conflict


class PrefixIndex:
    """Columnar timestamp index of trace records, keyed by destination /N.

    Answers the step-2 and step-3 question "did a packet to prefix P
    cross the link in [t0, t1]?": validation asks it over a stream's
    lifetime, merging over the gap between two streams.

    The index is built one :class:`~repro.net.columnar.ColumnarChunk` at
    a time (:meth:`add_chunk`; ``PrefixIndex(trace)`` feeds the chunks
    of :meth:`ColumnarTrace.from_trace`).  Per chunk it keeps

    * ``times``, an ``array('d')`` of the chunk's timestamps ordered by
      (prefix, timestamp), ties in capture order;
    * ``indices``, an ``array('q')`` of the matching global record
      indices (``base_index + i``);
    * ``bounds``, ``{prefix: (lo, hi)}``: the slice of both columns
      that holds the prefix;
    * the chunk's time range, from its minimum and maximum timestamp.

    A query visits only the chunks whose time range overlaps the window
    and bisects ``times`` within ``bounds[prefix]``: O(log n + answer)
    per chunk visited.  Bisect over ``array`` columns is much cheaper
    per query than one numpy ``searchsorted`` call.  With numpy
    (through :mod:`repro.core.vectorize`) each chunk is ordered by one
    stable argsort on the prefix column; without it, by a stable
    counting sort.  Both build the same columns.  A chunk whose timestamps regress is
    sorted by (prefix, timestamp) instead, so window answers stay exact
    on any capture.  Records shorter than 20 bytes carry no destination
    address and are not indexed.
    """

    def __init__(self, trace: Trace | None = None,
                 prefix_length: int = 24) -> None:
        self.prefix_length = prefix_length
        self._shift = 32 - prefix_length
        # One (first, last, bounds, times, indices) tuple per chunk.
        self._chunks: list[tuple[float, float, dict, array, array]] = []
        # Running maximum of the chunks' last timestamps: the chunks
        # before bisect_left(_reach, t) all end before t.
        self._reach: list[float] = []
        # Whether every chunk starts at or after all earlier ones end;
        # then a query can stop at the first chunk past its window.
        self._ordered = True
        if trace is not None:
            from repro.net.columnar import ColumnarTrace

            for chunk in ColumnarTrace.from_trace(trace).chunks:
                self.add_chunk(chunk)

    def add_chunk(self, chunk) -> None:
        """Index a :class:`~repro.net.columnar.ColumnarChunk`.

        Chunks may arrive in any time order; queries stay exact.
        """
        from repro.core import vectorize

        if not len(chunk):
            return
        if vectorize.HAVE_NUMPY:
            columns = self._columns_numpy(chunk, vectorize)
        else:
            columns = self._columns_python(chunk)
        if columns is None:
            return
        first, last, keys, starts, times, indices = columns
        bounds = dict(zip(keys, zip(starts, [*starts[1:], len(times)])))
        self._chunks.append((first, last, bounds, times, indices))
        reach = self._reach
        if reach:
            self._ordered = self._ordered and first >= reach[-1]
            last = max(last, reach[-1])
        reach.append(last)

    def _columns_numpy(self, chunk, vectorize):
        np = vectorize.np
        n = len(chunk)
        stamps = np.asarray(chunk.timestamps, dtype=np.float64)
        lengths = np.asarray(chunk.lengths)
        keep = None
        if lengths.min() < _MIN_INDEXED:
            keep = np.flatnonzero(lengths >= _MIN_INDEXED)
            if not len(keep):
                return None
        if chunk.stride is not None and keep is None:
            region = np.frombuffer(
                chunk.data, dtype=np.uint8, offset=chunk.offsets[0],
                count=(n - 1) * chunk.stride + _MIN_INDEXED,
            )
            rows = np.lib.stride_tricks.as_strided(
                region, shape=(n, _MIN_INDEXED), strides=(chunk.stride, 1)
            )
            prefixes = vectorize.dst_prefixes(rows, self._shift)
        else:
            # Gather the 4 destination bytes of every kept record.
            dst_at = np.asarray(chunk.offsets, dtype=np.int64) + 16
            if keep is not None:
                dst_at = dst_at[keep]
                stamps = stamps[keep]
            slab = np.frombuffer(chunk.data, dtype=np.uint8)
            dst = slab[dst_at[:, None] + np.arange(4)].view(">u4").ravel()
            prefixes = (dst >> np.uint32(self._shift)).astype(np.int64)
        if (stamps[1:] >= stamps[:-1]).all():
            order = np.argsort(prefixes, kind="stable")
        else:
            order = np.lexsort((stamps, prefixes))
        prefixes = prefixes[order]
        starts = np.flatnonzero(prefixes[1:] != prefixes[:-1]) + 1
        starts = np.concatenate(([0], starts))
        keys = prefixes[starts].tolist()
        times = array("d")
        times.frombytes(stamps[order].data.cast("B"))
        # Chunk row of each sorted entry, for the index column.
        rows_at = order if keep is None else keep[order]
        ids = rows_at + chunk.base_index
        indices = array("q")
        indices.frombytes(ids.astype(np.int64, copy=False).data.cast("B"))
        return (float(stamps.min()), float(stamps.max()), keys,
                starts.tolist(), times, indices)

    def _columns_python(self, chunk):
        # A stable counting sort by prefix over array columns: apart
        # from the time sort of a chunk whose timestamps regress, the
        # build holds no Python object per record.
        view = memoryview(chunk.data)
        from_bytes = int.from_bytes
        shift = self._shift
        offsets = chunk.offsets
        lengths = chunk.lengths
        rows = range(len(chunk))
        stamps = chunk.timestamps
        if min(lengths) < _MIN_INDEXED:
            rows = array("q", (i for i in rows
                               if lengths[i] >= _MIN_INDEXED))
            if not rows:
                return None
            stamps = array("d", map(stamps.__getitem__, rows))
        prefixes = array("q", (
            from_bytes(view[offsets[i] + 16:offsets[i] + 20], "big") >> shift
            for i in rows
        ))
        visit = range(len(rows))
        if not all(map(le, stamps, islice(stamps, 1, None))):
            # Stable sorts: by time here, by prefix below.
            visit = sorted(visit, key=stamps.__getitem__)
        counts = Counter(prefixes)
        keys = sorted(counts)
        cursor = {}
        starts = []
        position = 0
        for prefix in keys:
            cursor[prefix] = position
            starts.append(position)
            position += counts[prefix]
        order = array("q", bytes(8 * len(rows)))
        for j in visit:
            prefix = prefixes[j]
            position = cursor[prefix]
            order[position] = j
            cursor[prefix] = position + 1
        times = array("d", map(stamps.__getitem__, order))
        row_of = rows.__getitem__
        base = chunk.base_index
        indices = array("q", (base + row_of(j) for j in order))
        return min(stamps), max(stamps), keys, starts, times, indices

    def _windows(self, prefix: IPv4Prefix, start: float, end: float):
        """``(indices, lo, hi)``: per chunk, the slice of ``indices``
        holding the records to ``prefix`` with start <= t <= end."""
        if prefix.length != self.prefix_length:
            raise ValueError(
                f"index is /{self.prefix_length}, got /{prefix.length}"
            )
        key = prefix.network >> self._shift
        chunks = self._chunks
        ordered = self._ordered
        for k in range(bisect_left(self._reach, start), len(chunks)):
            first, last, bounds, times, indices = chunks[k]
            if first > end:
                if ordered:
                    return
                continue
            span = bounds.get(key)
            if span is None or last < start:
                continue
            lo, hi = span
            yield (indices, bisect_left(times, start, lo, hi),
                   bisect_right(times, end, lo, hi))

    def records_in_window(
        self, prefix: IPv4Prefix, start: float, end: float
    ) -> list[int]:
        """Indices of records to ``prefix`` with start <= t <= end, in
        capture order when the chunks are time-ordered."""
        found: list[int] = []
        for indices, lo, hi in self._windows(prefix, start, end):
            found.extend(indices[lo:hi])
        return found

    def has_non_member(
        self,
        prefix: IPv4Prefix,
        start: float,
        end: float,
        members: set[int],
    ) -> bool:
        """True if the window contains a record outside ``members``."""
        return any(
            not members.issuperset(indices[lo:hi])
            for indices, lo, hi in self._windows(prefix, start, end)
        )


_index_of = attrgetter("index")


def member_set(streams: list[ReplicaStream]) -> set[int]:
    """The record index of every replica of every stream in ``streams``."""
    members: set[int] = set()
    for stream in streams:
        members.update(map(_index_of, stream.replicas))
    return members


def validate_streams(
    candidates: list[ReplicaStream],
    trace: Trace,
    min_stream_size: int = 3,
    prefix_length: int = 24,
    check_prefix_consistency: bool = True,
    prefix_index: PrefixIndex | None = None,
) -> ValidationResult:
    """Apply the paper's two validation rules to candidate streams.

    The membership set used for the prefix-consistency check contains every
    replica of every *candidate* stream (including 2-element ones): the
    paper's rule is about packets that show no looping behaviour at all,
    not about streams that merely failed the size cut.  The result
    keeps that set as ``members``.
    """
    result = ValidationResult()
    if not candidates:
        return result
    if check_prefix_consistency and prefix_index is None:
        prefix_index = PrefixIndex(trace, prefix_length)
    members = result.members = member_set(candidates)

    for stream in candidates:
        if stream.size < min_stream_size:
            result.rejected_too_small += 1
            continue
        if check_prefix_consistency:
            assert prefix_index is not None
            prefix = stream.dst_prefix(prefix_length)
            if prefix_index.has_non_member(
                prefix, stream.start, stream.end, members
            ):
                result.rejected_prefix_conflict += 1
                continue
        result.valid.append(stream)
    return result
