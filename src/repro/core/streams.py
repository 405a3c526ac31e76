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

Both run as one array program over the candidates'
:class:`~repro.core.replica.StreamTable`: the second check is a count of
non-member records per window, answered by :class:`PrefixIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace
from repro.core import vectorize
from repro.core.replica import StreamRows, table_rows

#: Captured bytes a record needs for its IPv4 destination (bytes 16..20).
_MIN_INDEXED = 20


@dataclass(slots=True)
class ValidationResult:
    """Outcome of the validation pass.

    ``valid`` is a read-only sequence of the surviving streams over the
    candidates' table (a :class:`~repro.core.replica.StreamRows`).
    """

    valid: object
    rejected_too_small: int = 0
    rejected_prefix_conflict: int = 0
    #: The record index of every replica of every candidate, one int64
    #: per replica: the records the prefix-consistency check counts as
    #: looping, as merging does.
    members: object = field(default=(), repr=False)

    @property
    def rejected(self) -> int:
        return self.rejected_too_small + self.rejected_prefix_conflict


class PrefixIndex:
    """Columnar timestamp index of trace records, keyed by destination /N.

    Answers the step-2 and step-3 question "how many packets to prefix P
    that are not replicas crossed the link in [t0, t1]?" for a whole
    array of windows at once (:meth:`non_member_counts`): validation asks
    it over each stream's lifetime, merging over the gaps between
    streams.

    The index is built one :class:`~repro.net.columnar.ColumnarChunk` at
    a time (:meth:`add_chunk`; ``PrefixIndex(trace)`` feeds the chunks
    of :meth:`ColumnarTrace.from_trace`).  Per chunk it keeps numpy
    columns of its records ordered by (prefix, timestamp), ties in
    capture order:

    * ``keys``, the chunk's distinct prefixes, ascending;
    * ``times``, its timestamps, ascending (stably sorted, so a record's
      rank ``r`` is its capture position when the chunk is time-ordered);
    * ``ordinals``, one int64 per record: ``g * (len(times) + 1) + r`` for
      a record of rank ``r`` in the ``g``-th prefix, ascending because
      the records are in (prefix, timestamp) order;
    * ``indices``, the matching global record indices;
    * the chunk's time range, from its minimum and maximum timestamp.

    A window ``[start, end]`` on prefix ``keys[g]`` covers exactly the
    records at positions ``lo <= i < hi`` with ``lo`` and ``hi`` the
    ``searchsorted`` positions of ``g * (len(times) + 1)`` plus
    ``searchsorted(times, start, "left")`` and plus
    ``searchsorted(times, end, "right")``: the ranks of ``start`` and
    ``end`` among the chunk's timestamps make the float comparison
    exact.  Each chunk is ordered by one sort of packed (prefix,
    position) words (:func:`~repro.core.vectorize.stable_order`); a
    chunk whose timestamps regress is sorted by time first,
    so answers stay exact on any capture.  Records
    shorter than 20 bytes carry no destination address and are not
    indexed.
    """

    def __init__(self, trace: Trace | None = None,
                 prefix_length: int = 24) -> None:
        self.prefix_length = prefix_length
        self._shift = 32 - prefix_length
        # One (first, last, keys, times, ordinals, indices) per chunk.
        self._chunks: list[tuple] = []
        #: Records indexed so far.
        self.indexed = 0
        # One past the highest record index indexed.
        self._limit = 0
        if trace is not None:
            from repro.net.columnar import ColumnarTrace

            for chunk in ColumnarTrace.from_trace(trace).chunks:
                self.add_chunk(chunk)

    def add_chunk(self, chunk) -> None:
        """Index a :class:`~repro.net.columnar.ColumnarChunk`.

        Chunks may arrive in any time order; queries stay exact.
        """
        n = len(chunk)
        if not n:
            return
        stamps = np.asarray(chunk.timestamps, dtype=np.float64)
        lengths = np.asarray(chunk.lengths)
        keep = None
        if lengths.min() < _MIN_INDEXED:
            keep = np.flatnonzero(lengths >= _MIN_INDEXED)
            if not len(keep):
                return
        prefixes = vectorize.chunk_prefixes(chunk, self._shift, keep)
        if keep is not None:
            stamps = stamps[keep]
        if (stamps[1:] >= stamps[:-1]).all():
            # A record's capture position is its timestamp's rank.
            times = stamps
            order = vectorize.stable_order(prefixes)
            rank = order
        else:
            by_time = np.argsort(stamps, kind="stable")
            times = stamps[by_time]
            order = by_time[vectorize.stable_order(prefixes[by_time])]
            rank = np.empty_like(by_time)
            rank[by_time] = np.arange(len(by_time))
            rank = rank[order]
        prefixes = prefixes[order]
        new_key = np.concatenate(([True], prefixes[1:] != prefixes[:-1]))
        group = np.cumsum(new_key) - 1
        ordinals = group * (len(times) + 1) + rank
        # Chunk row of each sorted entry, for the index column.
        rows_at = order if keep is None else keep[order]
        indices = rows_at + chunk.base_index
        self._chunks.append((float(stamps.min()), float(stamps.max()),
                             prefixes[new_key], times, ordinals, indices))
        self.indexed += len(indices)
        self._limit = max(self._limit, int(indices.max()) + 1)

    def _windows(self, prefixes, starts, ends):
        """Per chunk: ``(ordinals, indices, stride, selected, group, lo,
        hi)``, where window ``selected[j]`` covers ``indices[lo[j]:hi[j]]``
        within the ``group[j]``-th prefix, whose ordinals start at
        ``group[j] * stride``.  Windows on a prefix the chunk lacks, or
        outside its time range, are left out."""
        for first, last, keys, times, ordinals, indices in self._chunks:
            selected = np.flatnonzero((starts <= last) & (ends >= first))
            wanted = prefixes[selected]
            group = np.searchsorted(keys, wanted)
            found = keys[np.minimum(group, len(keys) - 1)] == wanted
            selected, group = selected[found], group[found]
            if not len(selected):
                continue
            stride = len(times) + 1
            lo = np.searchsorted(ordinals, group * stride + np.searchsorted(
                times, starts[selected], side="left"))
            hi = np.searchsorted(ordinals, group * stride + np.searchsorted(
                times, ends[selected], side="right"))
            # An inverted window (end < start) is empty.
            yield (ordinals, indices, stride, selected, group, lo,
                   np.maximum(lo, hi))

    def records_in_window(
        self, prefix: IPv4Prefix, start: float, end: float
    ) -> list[int]:
        """Indices of records to ``prefix`` with start <= t <= end, in
        capture order when the chunks are time-ordered."""
        if prefix.length != self.prefix_length:
            raise ValueError(
                f"index is /{self.prefix_length}, got /{prefix.length}"
            )
        found: list[int] = []
        for _, indices, _, _, _, lo, hi in self._windows(
                np.array([prefix.network >> self._shift]),
                np.array([start]), np.array([end])):
            found.extend(indices[int(lo[0]):int(hi[0])].tolist())
        return found

    def non_member_counts(self, prefixes, starts, ends, members):
        """Per window ``j``: how many records to ``prefixes[j]`` (a /N
        network shifted right by ``32 - N``) with
        ``starts[j] <= t <= ends[j]`` have an index outside the int
        array ``members``."""
        limit = max(self._limit, int(members.max()) + 1 if len(members)
                    else 0)
        member = np.zeros(limit, dtype=bool)
        member[members] = True
        counts = np.zeros(len(prefixes), dtype=np.int64)
        for (ordinals, indices, stride, selected, group, lo,
             hi) in self._windows(prefixes, starts, ends):
            groups, slot = np.unique(group, return_inverse=True)
            first = np.searchsorted(ordinals, groups * stride)
            sizes = np.searchsorted(ordinals, (groups + 1) * stride) - first
            if 2 * sizes.sum() < len(indices):
                # Few prefixes asked about (a sparse trace): sum over
                # their records only, one prefix after the other.
                at = vectorize.ranges(first, sizes)
                shift = (np.cumsum(sizes) - sizes - first)[slot]
            else:
                at, shift = slice(None), 0
            outside = np.concatenate(([0], np.cumsum(~member[indices[at]])))
            counts[selected] += outside[hi + shift] - outside[lo + shift]
        return counts


def prefix_index_for(prefix_index: PrefixIndex | None, trace: Trace | None,
                     prefix_length: int) -> PrefixIndex:
    """``prefix_index``, or a fresh one over ``trace``; either way at
    ``prefix_length``."""
    if prefix_index is None:
        return PrefixIndex(trace, prefix_length)
    if prefix_index.prefix_length != prefix_length:
        raise ValueError(f"index is /{prefix_index.prefix_length}, "
                         f"got /{prefix_length}")
    return prefix_index


def validate_streams(
    candidates,
    trace: Trace | None,
    min_stream_size: int = 3,
    prefix_length: int = 24,
    check_prefix_consistency: bool = True,
    prefix_index: PrefixIndex | None = None,
) -> ValidationResult:
    """Apply the paper's two validation rules to candidate streams.

    ``candidates`` is step 1's :class:`~repro.core.replica.StreamTable`
    (or any sequence of streams, tabled on the way in).  The membership
    used for the prefix-consistency check contains every replica of
    every *candidate* stream (including 2-element ones): the paper's
    rule is about packets that show no looping behaviour at all, not
    about streams that merely failed the size cut.  The result keeps it
    as ``members``.

    A stream conflicts when its window ``[start, end]`` on its /N holds
    a record outside ``members``: one :meth:`PrefixIndex.non_member_counts`
    call for all candidates that pass the size rule.
    """
    table, rows = table_rows(candidates)
    members = table.record_indices(rows)
    kept = rows[table.size[rows] >= min_stream_size]
    conflict = np.zeros(len(kept), dtype=bool)
    if check_prefix_consistency and len(kept):
        prefix_index = prefix_index_for(prefix_index, trace, prefix_length)
        conflict = prefix_index.non_member_counts(
            table.prefixes(prefix_length)[kept], table.start[kept],
            table.end[kept], members,
        ) > 0
    return ValidationResult(
        valid=StreamRows(table, kept[~conflict]),
        rejected_too_small=len(rows) - len(kept),
        rejected_prefix_conflict=int(conflict.sum()),
        members=members,
    )
