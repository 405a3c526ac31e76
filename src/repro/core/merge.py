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

from dataclasses import dataclass, field

from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace
from repro.core.replica import ReplicaStream, stream_sort_key
from repro.core.streams import PrefixIndex, member_set


class MergeError(ValueError):
    """Raised for invalid merge parameters."""


@dataclass(slots=True)
class RoutingLoop:
    """A detected routing loop: merged replica streams to one prefix."""

    prefix: IPv4Prefix
    streams: list[ReplicaStream]

    @property
    def start(self) -> float:
        return min(stream.start for stream in self.streams)

    @property
    def end(self) -> float:
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
        return sum(stream.size for stream in self.streams)

    @property
    def ttl_delta(self) -> int:
        """The loop's hop count: modal TTL delta across member streams."""
        from statistics import mode

        return mode(stream.ttl_delta for stream in self.streams)


def merge_streams(
    streams: list[ReplicaStream],
    trace: Trace,
    merge_gap: float = 60.0,
    prefix_length: int = 24,
    check_gap_consistency: bool = True,
    prefix_index: PrefixIndex | None = None,
    members: set[int] | None = None,
) -> list[RoutingLoop]:
    """Merge validated streams into routing loops.

    The gap-quietness rule uses the same membership definition as
    validation: a record counts as "looping" when it belongs to *any*
    candidate replica stream, including 2-element ones that failed the
    size rule — those packets did loop, they just are not independent
    evidence.  Pass the validation result's ``members`` (the records of
    the pre-validation candidates) to get that behaviour; it defaults
    to the records of ``streams``.

    Returns loops sorted by start time.
    """
    if merge_gap < 0:
        raise MergeError(f"merge_gap must be non-negative: {merge_gap}")
    if not streams:
        return []
    if check_gap_consistency and prefix_index is None:
        prefix_index = PrefixIndex(trace, prefix_length)

    if members is None:
        members = member_set(streams)

    by_prefix: dict[IPv4Prefix, list[ReplicaStream]] = {}
    for stream in streams:
        by_prefix.setdefault(stream.dst_prefix(prefix_length), []).append(stream)

    loops: list[RoutingLoop] = []
    for prefix, group in by_prefix.items():
        group.sort(key=stream_sort_key)
        current: list[ReplicaStream] = [group[0]]
        current_end = group[0].end
        for stream in group[1:]:
            if stream.start <= current_end:
                # Overlap in time: same loop.
                current.append(stream)
                current_end = max(current_end, stream.end)
                continue
            gap = stream.start - current_end
            if gap < merge_gap and _gap_is_quiet(
                prefix, current_end, stream.start, members,
                prefix_index, check_gap_consistency,
            ):
                current.append(stream)
                current_end = max(current_end, stream.end)
                continue
            loops.append(RoutingLoop(prefix=prefix, streams=current))
            current = [stream]
            current_end = stream.end
        loops.append(RoutingLoop(prefix=prefix, streams=current))

    loops.sort(key=lambda loop: loop.start)
    return loops


def _gap_is_quiet(
    prefix: IPv4Prefix,
    gap_start: float,
    gap_end: float,
    members: set[int],
    prefix_index: PrefixIndex | None,
    check: bool,
) -> bool:
    """True when no non-looped packet to ``prefix`` crossed in the gap."""
    if not check:
        return True
    assert prefix_index is not None
    return not prefix_index.has_non_member(prefix, gap_start, gap_end, members)
