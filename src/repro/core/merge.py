"""Step 3 — merging replica streams into routing loops.

One routing loop replicates many packets, so validated streams are merged
per destination /24 (Sec. IV-A.3):

* streams that **overlap in time** merge unconditionally — they are almost
  certainly the same loop;
* streams separated by less than ``merge_gap`` (one minute by default;
  the paper found 2- and 5-minute gaps change little, which the ablation
  bench reproduces) also merge, *provided* no non-looped packet to the
  prefix crossed the link inside the bridged gap — the same consistency
  rule as validation, applied to the gap.

Each merged set is one detected **routing loop**, bounded by its first and
last replica (Table II counts these; Fig. 9 plots their durations).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from statistics import mode

import numpy as np

from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace
from repro.core.replica import (
    ReplicaStream,
    StreamRows,
    _table_ttl_deltas,
    table_rows,
)
from repro.core.streams import PrefixIndex, prefix_index_for


class MergeError(ValueError):
    """Raised for invalid merge parameters."""


@dataclass(slots=True)
class RoutingLoop:
    """A detected routing loop: merged replica streams to one prefix.

    ``streams`` is a list, or, as :func:`merge_streams` hands them out,
    a :class:`~repro.core.replica.StreamRows` whose columns the scalar
    properties read without making a stream."""

    prefix: IPv4Prefix
    streams: Sequence[ReplicaStream]

    @property
    def start(self) -> float:
        if isinstance(self.streams, StreamRows):
            return self.streams.column("start").min().item()
        return min(stream.start for stream in self.streams)

    @property
    def end(self) -> float:
        if isinstance(self.streams, StreamRows):
            return self.streams.column("end").max().item()
        return max(stream.end for stream in self.streams)

    @property
    def duration(self) -> float:
        """Loop lifetime bound: first to last replica (Fig. 9's x-axis)."""
        return self.end - self.start

    @property
    def stream_count(self) -> int:
        return len(self.streams)

    @property
    def replica_count(self) -> int:
        if isinstance(self.streams, StreamRows):
            return int(self.streams.size.sum())
        return sum(stream.size for stream in self.streams)

    @property
    def ttl_delta(self) -> int:
        """The loop's hop count: modal TTL delta across member streams."""
        if isinstance(self.streams, StreamRows):
            return mode(_table_ttl_deltas(self.streams.table,
                                          self.streams.rows))
        return mode(stream.ttl_delta for stream in self.streams)


def merge_streams(
    streams,
    trace: Trace | None,
    merge_gap: float = 60.0,
    prefix_length: int = 24,
    check_gap_consistency: bool = True,
    prefix_index: PrefixIndex | None = None,
    members=None,
) -> list[RoutingLoop]:
    """Merge validated streams into routing loops.

    ``streams`` is validation's ``valid`` sequence (or any sequence of
    streams).  The gap-quietness rule uses the same membership
    definition as validation: a record counts as "looping" when it
    belongs to *any* candidate replica stream, including 2-element ones
    that failed the size rule — those packets did loop, they just are
    not independent evidence.  Pass the validation result's ``members``
    (the records of the pre-validation candidates) to get that
    behaviour; it defaults to the records of ``streams``.

    One array program: the streams are sorted by (prefix, start, first
    record index).  Within a prefix, the running maximum of the earlier
    streams' ends is where the loop being built ends, whatever merged
    before: a loop that closed ended before every later stream started.
    A stream joins that loop when it starts by then, or when the gap is
    under ``merge_gap`` and :meth:`PrefixIndex.non_member_counts` finds
    no non-member in it.

    Returns loops sorted by start time, ties in the order their prefix
    first appears in ``streams``.  Each loop's ``streams`` are rows of
    the streams' table (a :class:`~repro.core.replica.StreamRows`): no
    stream is made until they are read.
    """
    if merge_gap < 0:
        raise MergeError(f"merge_gap must be non-negative: {merge_gap}")
    if not len(streams):
        return []
    table, rows = table_rows(streams)
    if members is None:
        members = table.record_indices(rows)

    prefix = table.prefixes(prefix_length)[rows]
    start = table.start[rows]
    order = np.lexsort((table.first_index[rows], start, prefix))
    rows, prefix, start = rows[order], prefix[order], start[order]
    end = table.end[rows]
    n = len(rows)
    new_prefix = np.ones(n, dtype=bool)
    new_prefix[1:] = prefix[1:] != prefix[:-1]
    group = np.cumsum(new_prefix) - 1
    # The running maximum of end within each prefix, exact: over each
    # end's rank, offset per prefix so that prefixes never mix.  A
    # prefix's first row gets another prefix's value; it never joins.
    ends, rank = np.unique(end, return_inverse=True)
    offset = group * len(ends)
    reach = np.maximum.accumulate(offset + rank)
    before = start.copy()
    before[1:] = ends[np.maximum(reach[:-1] - offset[1:], 0)]

    overlap = start <= before
    join = ~new_prefix & (overlap | (start - before < merge_gap))
    if check_gap_consistency:
        asked = np.flatnonzero(join & ~overlap)
        if len(asked):
            index = prefix_index_for(prefix_index, trace, prefix_length)
            noisy = index.non_member_counts(
                prefix[asked], before[asked], start[asked], members) > 0
            join[asked[noisy]] = False

    firsts = np.flatnonzero(~join)
    # Ties in start between prefixes keep the prefix's first appearance.
    seen = np.minimum.reduceat(order, np.flatnonzero(new_prefix))
    by_start = np.lexsort((seen[group[firsts]], start[firsts]))
    cuts = [*firsts.tolist(), n]
    shift = 32 - prefix_length
    loops: list[RoutingLoop] = []
    for k in by_start.tolist():
        a, b = cuts[k], cuts[k + 1]
        loops.append(RoutingLoop(
            prefix=IPv4Prefix(int(prefix[a]) << shift, prefix_length),
            streams=StreamRows(table, rows[a:b]),
        ))
    return loops
