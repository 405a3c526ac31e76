"""Online (streaming) loop detection.

The paper ran its algorithm offline over recorded traces.  An operator
monitoring a live link wants the same result incrementally: feed records
as they are captured, get each routing loop reported shortly after it
ends, with memory bounded by the loop window rather than the trace.

:class:`StreamingLoopDetector` implements the paper's three steps as an
event-driven pipeline:

* replicas chain exactly as offline (masked-byte key, TTL delta >= 2,
  bounded chaining gap), record by record or, for a batched slice,
  through the offline chaining engine; singletons are evicted and
  quiescent streams completed at their deadlines;
* a completed stream validates against a sliding step-2 history of
  recent records (the same all-packets-loop rule): a deque of per-slice
  columns sorted by /24, dropped whole once no query can reach them;
* validated streams merge into open loops, which are emitted once no
  further stream can join them (the merge gap has passed with the
  prefix quiet).

Given the same configuration, its output matches the offline
:class:`~repro.core.detector.LoopDetector` on the same records — a
property the test suite checks on both synthetic and simulated traces.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable

import numpy as np

from repro.net.addr import IPv4Address
from repro.net.columnar import ColumnarTrace
from repro.obs.perf import NULL_PROFILE
from repro.core import vectorize
from repro.core.detector import DetectorConfig
from repro.core.merge import RoutingLoop
from repro.core.replica import (
    _TTL_OFFSET,
    Replica,
    ReplicaStream,
    _new_replica,
    _regular_length,
    _replay_survivors,
    _sort_survivors,
    mask_mutable_fields,
)

_MIN_CAPTURE = 20

#: The per-record feed seals its open history tail at this many records.
_TAIL_RECORDS = 1024

LoopCallback = Callable[[RoutingLoop], None]

#: ``(StreamingStats field, counter name, help)`` published per scrape.
_COUNTERS = (
    ("records", "streaming_records_total", "Records fed to the detector"),
    ("skipped_short", "streaming_records_skipped_short_total",
     "Records below the minimum capture length"),
    ("streams_completed", "streaming_streams_completed_total",
     "Candidate replica streams that went quiescent"),
    ("streams_rejected_small", "streaming_streams_rejected_small_total",
     "Streams rejected for too few replicas"),
    ("streams_rejected_conflict", "streaming_streams_rejected_conflict_total",
     "Streams rejected by prefix-consistency validation"),
    ("loops_emitted", "streaming_loops_emitted_total",
     "Routing loops emitted"),
)


@dataclass(slots=True)
class _OpenStream:
    key: bytes
    first_data: bytes
    replicas: list[Replica]

    @property
    def last(self) -> Replica:
        return self.replicas[-1]


@dataclass(slots=True)
class _OpenLoop:
    prefix_net: int
    streams: list[ReplicaStream]
    end: float


@dataclass(slots=True)
class _Slice:
    """Step-2 history of records ``base, base + 1, ...``, fed from time
    ``first`` to ``last``.  Sealed, its columns are ordered by (prefix,
    timestamp), ties in capture order; the per-record feed's open tail
    is in capture order with ``indices`` ``None`` (entry ``j`` is record
    ``base + j``).  ``members`` are its records that joined a stream.
    Columns are copies, never views of a chunk's slab."""

    base: int
    first: float
    last: float
    keys: array
    times: array
    indices: array | None
    members: set


@dataclass(slots=True)
class _Carry:
    """The batched tier's singleton store, one column per field: each
    entry's masked-key hash, record index, timestamp, TTL and /N
    prefix, and its record's bytes ``data[offset:offset + length]``.
    At most one entry per masked key, in no particular order."""

    hash: np.ndarray
    index: np.ndarray
    ts: np.ndarray
    ttl: np.ndarray
    prefix: np.ndarray
    length: np.ndarray
    offset: np.ndarray
    data: np.ndarray

    @classmethod
    def empty(cls) -> "_Carry":
        return cls(np.empty(0, dtype=np.uint64),
                   *(np.empty(0, dtype=dtype) for dtype in (
                       np.int64, np.float64, np.int16, np.int64, np.int64,
                       np.int64, np.uint8)))

    def __len__(self) -> int:
        return len(self.hash)

    def record(self, i: int) -> bytes:
        offset = int(self.offset[i])
        return self.data[offset:offset + int(self.length[i])].tobytes()

    def then(self, keep, hashes, index, ts, ttl, prefix, rows) -> "_Carry":
        """The entries where the mask ``keep`` is set, followed by new
        entries whose records are the rows of the uint8 matrix ``rows``.
        Built a column at a time, so the transient is a column, not a
        second store."""
        n = len(self)
        if n and bool((self.length == self.length[0]).all()):
            # Records are packed in entry order, so equal lengths make
            # the store a matrix: no per-byte index to build.
            kept = self.data.reshape(n, -1)[keep].reshape(-1)
        else:
            kept = self.data[vectorize.ranges(self.offset[keep],
                                              self.length[keep])]
        length = np.concatenate((self.length[keep],
                                 np.full(len(rows), rows.shape[1])))
        return _Carry(
            np.concatenate((self.hash[keep], hashes)),
            np.concatenate((self.index[keep], index)),
            np.concatenate((self.ts[keep], ts)),
            np.concatenate((self.ttl[keep], ttl)),
            np.concatenate((self.prefix[keep], prefix)),
            length, np.cumsum(length) - length,
            np.concatenate((kept, rows.reshape(-1))),
        )




class _LiveSingletons:
    """The singletons of a batched slice in flight, for the merge-window
    check: the carry's, taken out at slice position ``carry_removed``
    (``n``: not taken out), and the slice's own, stored where ``stored``
    is set and taken out at ``removed``.  Indexed by prefix on the first
    check; most slices have none."""

    __slots__ = ("parts", "gap", "_columns")

    def __init__(self, carry, carry_removed, prefixes, ts, stored,
                 removed, index0, gap) -> None:
        self.parts = (carry, carry_removed, prefixes, ts, stored, removed,
                      index0)
        self.gap = gap
        self._columns = None

    def _index(self) -> tuple:
        carry, carry_removed, prefixes, ts, stored, removed, index0 = \
            self.parts
        at = np.flatnonzero(stored)
        prefix = np.concatenate((carry.prefix, prefixes[at]))
        order = vectorize.stable_order(prefix)
        columns = (
            np.concatenate((carry.ts, ts[at])),
            # Record index each entry is stored at (-1: carried in) and
            # the one that takes it out (past the slice: none).
            np.concatenate((np.full(len(carry), -1, dtype=np.int64),
                            at + index0)),
            np.concatenate((carry_removed, removed[at])) + index0,
        )
        return (prefix[order],) + tuple(column[order] for column in columns)

    def may_merge(self, prefix_net: int, visible: int, now: float,
                  horizon: float) -> bool:
        """Whether one on ``prefix_net`` older than ``horizon`` is live
        when record ``visible`` arrives at time ``now``."""
        if self._columns is None:
            self._columns = self._index()
        prefix, ts, stored, removed = self._columns
        lo, hi = np.searchsorted(prefix,
                                 (prefix_net, prefix_net + 1)).tolist()
        if lo == hi:
            return False
        ts = ts[lo:hi]
        return bool(((stored[lo:hi] < visible) & (removed[lo:hi] >= visible)
                     & (ts + self.gap > now) & (ts < horizon)).any())


def _seeds(s, rows, carry, singles, single_keys, streams, stream_keys):
    """The engine's ``seeds`` for a slice: the carried singletons
    ``singles`` (carry entries) and open ``streams`` whose key a survivor
    group has, as extra rows starting that group's state.  Each is found
    by its truncated hash in the slice's sort (``single_keys``,
    ``stream_keys``), then by its masked key.  Returns ``(seeds,
    owners)``, ``owners`` naming the carry entry or the stream behind
    each extra row.  ``rows`` are the slice's records."""
    n_surv = len(s.position)
    times: list[float] = []
    ttls: list[int] = []
    states: dict[int, dict] = {}
    owners: list = []

    def state_of(truncated, key):
        g = int(np.searchsorted(s.group_key, truncated))
        if g == len(s.group_key) or s.group_key[g] != truncated:
            return None
        keys = s.collision_keys.get(g)
        if keys is None:
            if mask_mutable_fields(rows[s.position[s.group_start[g]]]) != key:
                return None
            key = None
        elif key not in keys:
            return None
        group = states.setdefault(g, {})
        entry = group.get(key)
        if entry is None:
            entry = group[key] = [None, []]
        return entry

    for stream, truncated in zip(streams, stream_keys):
        entry = state_of(truncated, stream.key)
        if entry is not None:
            entry[1].append([n_surv + len(owners)])
            owners.append(stream)
            times.append(stream.last.timestamp)
            ttls.append(stream.last.ttl)
    for c, truncated in zip(singles.tolist(), single_keys):
        entry = state_of(truncated, mask_mutable_fields(carry.record(c)))
        if entry is not None:
            entry[0] = n_surv + len(owners)
            owners.append(c)
            times.append(float(carry.ts[c]))
            ttls.append(int(carry.ttl[c]))
    return (times, ttls, states), owners


@dataclass(slots=True)
class StreamingStats:
    """Counters kept by the streaming detector."""

    records: int = 0
    skipped_short: int = 0
    streams_completed: int = 0
    streams_rejected_small: int = 0
    streams_rejected_conflict: int = 0
    loops_emitted: int = 0


class StreamingLoopDetector:
    """Incremental three-step loop detection over a live record feed.

    ``profile`` (default: the shared null profile) times
    :meth:`process_trace` as the ``streaming.process_trace`` stage, and
    emitted loops go to ``profile.tracer`` as trace-time ``loop`` spans.
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        on_loop: LoopCallback | None = None,
        profile=NULL_PROFILE,
    ) -> None:
        self.config = config or DetectorConfig()
        self.on_loop = on_loop
        self.profile = profile
        self.stats = StreamingStats()

        self._index = 0
        self._now = float("-inf")
        shift = 32 - self.config.prefix_length
        self._shift = shift

        # Step 1 state.
        self._singletons: dict[bytes, tuple[int, float, int, bytes]] = {}
        self._singleton_prefixes: dict[int, set[bytes]] = {}
        self._open_streams: dict[bytes, list[_OpenStream]] = {}
        self._stream_deadlines: list[tuple[float, int, _OpenStream]] = []
        self._singleton_deadlines: list[tuple[float, bytes, int]] = []
        self._deadline_seq = 0

        # Step 2 state: history slices in capture order, the open tail
        # (the newest slice, or None), the record index the in-flight
        # batched slice is visible below, and the next pruning time.
        self._slices: deque[_Slice] = deque()
        self._tail: _Slice | None = None
        self._visible = float("inf")
        self._prune_at = float("-inf")
        self._horizon = self.config.merge_gap + self.config.max_replica_gap
        self._open_stream_count: dict[int, int] = {}

        # Step 3 state.
        self._open_loops: dict[int, _OpenLoop] = {}
        self._loop_deadlines: list[tuple[float, int, int]] = []

        # The batched tier's singletons (``None`` while the per-record
        # state above holds them; one store is live at a time), and the
        # in-flight slice's for the merge-window check.
        self._carry: _Carry | None = None
        self._live: _LiveSingletons | None = None

        self._emitted: list[RoutingLoop] = []

    # -- public API -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Timestamp of the last record fed (-inf before the first); an
        earlier record is rejected as time travel."""
        return self._now

    def process(self, timestamp: float, data: bytes) -> list[RoutingLoop]:
        """Feed one captured record; returns loops that just closed."""
        if timestamp < self._now:
            raise ValueError(
                f"records must be time-ordered: {timestamp} < {self._now}"
            )
        if self._carry is not None:
            self._fold_carry()
        self._now = timestamp
        self._emitted = []
        self.stats.records += 1

        self._expire(timestamp)
        if timestamp > self._prune_at:
            self._prune_history(timestamp)

        if len(data) < _MIN_CAPTURE:
            self.stats.skipped_short += 1
            return self._emitted

        index = self._index
        self._index += 1
        tail = self._tail
        if tail is None:
            tail = self._tail = _Slice(index, timestamp, timestamp,
                                       array("q"), array("d"), None, set())
            self._slices.append(tail)
        tail.keys.append(int.from_bytes(data[16:20], "big") >> self._shift)
        tail.times.append(timestamp)
        tail.last = timestamp
        if len(tail.keys) == _TAIL_RECORDS:
            self._seal_tail()

        self._chain(index, timestamp, data)
        return self._emitted

    def process_trace(self, trace) -> list[RoutingLoop]:
        """Feed a whole :class:`~repro.net.trace.Trace` or
        :class:`~repro.net.columnar.ColumnarTrace` chunk by chunk;
        returns all loops (including those closed by the final flush).
        A materialized trace is converted with
        :meth:`~repro.net.columnar.ColumnarTrace.from_trace` first."""
        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.from_trace(trace)
        loops: list[RoutingLoop] = []
        before = self.stats.records
        with self.profile.stage("streaming.process_trace") as stage:
            for chunk in trace.chunks:
                loops.extend(self.process_chunk(chunk))
            loops.extend(self.flush())
            stage.add(records=self.stats.records - before)
            stage.note(loops=len(loops))
        return loops

    def process_chunk(self, chunk) -> list[RoutingLoop]:
        """Feed one :class:`~repro.net.columnar.ColumnarChunk`.

        Stride-regular chunks of 32 records or more take the batched
        tier (:meth:`_process_chunk_batched`), which chains the whole
        slice in one call of the step-1 engine; the result is
        byte-identical to a record-by-record :meth:`process` feed — same
        loops, stats and state — which the equivalence and property
        suites assert.  Other chunks are fed record by record, as
        zero-copy ``memoryview`` slices of the chunk's data slab; the
        chaining state materializes ``bytes`` only when a stream
        actually forms.
        """
        if len(chunk) and chunk.stride is not None:
            loops = self._process_chunk_batched(chunk)
            if loops is not None:
                return loops
        loops = []
        for timestamp, view in chunk.iter_views():
            loops.extend(self.process(timestamp, view))
        return loops

    def _process_chunk_batched(self, chunk) -> list[RoutingLoop] | None:
        """The batched tier; ``None`` means "feed record by record".

        The slice's masked keys are hashed in bulk, straight off its
        slab.  Its *survivors* are the records whose hash may repeat in
        the slice or be that of a carried singleton or an open stream
        (one sort, :func:`~repro.core.vectorize.shared`; equal keys
        always hash equal, so no record that could chain is missed).
        One call of the step-1 engine
        (:func:`~repro.core.replica._replay_survivors`, live eviction
        rule) chains them per key, starting from the carried state of
        their keys.  Every other record is a singleton
        and goes to the carry as a column entry.

        What is left per record is the events, in record order:

        * stream completions, at the first record with ``ts >= last +
          max_replica_gap``, in the deadline heap's order (deadline,
          then the index of the stream's last replica); each is
          validated against the history visible before that record;
        * loop deadlines.  A loop stays open while its prefix has an
          open stream, or while a live singleton sits inside its merge
          window (:class:`_LiveSingletons`).

        Streams open at their second replica's record, walked in order
        between the events.  Their members are marked up front: a query
        at a record only reaches records at least ``max_replica_gap``
        older, and a singleton that old can no longer chain there.
        """
        n = len(chunk)
        if n < 32:
            # The bulk passes cost more than they save on tiny slices.
            return None
        length = _regular_length(chunk)
        if length is None:
            return None
        ts_np = np.frombuffer(chunk.timestamps, dtype=np.float64, count=n)
        if ts_np[0] < self._now:
            return None  # the per-record feed raises at the offending record
        if bool((np.diff(ts_np) < 0).any()):
            return None
        if self._carry is None:
            self._fold_singletons()
        carry = self._carry
        config = self.config
        gap = config.max_replica_gap

        first, stride = chunk.offsets[0], chunk.stride
        rows = vectorize.records(chunk.data, first, n, stride, length)
        hashes = vectorize.hash_rows(chunk.data, first, n, stride, length)
        prefixes = vectorize.dst_prefixes(chunk.data, first, n, stride,
                                          self._shift)
        index0 = self._index
        self._index = index0 + n

        opened = [stream for streams in self._open_streams.values()
                  for stream in streams if len(stream.key) == length]
        opened_hashes = vectorize.hash_rows(np.frombuffer(
            b"".join([stream.key for stream in opened]), dtype=np.uint8,
        ), 0, len(opened), length, length)
        m, k = len(carry), len(opened)
        order, keys = vectorize.shared(
            np.concatenate((carry.hash, opened_hashes, hashes)))
        mine = order >= m + k
        s = _sort_survivors([chunk], order[mine] - (m + k), keys[mine],
                            ts_np)
        s = s._replace(index=s.position + index0)
        # The carried entries and open streams in a group, each with the
        # truncated hash that group is found by.
        theirs = ~mine
        seeded = np.zeros(m + k, dtype=bool)
        seeded[order[theirs]] = True
        truncated = np.zeros(m + k, dtype=np.uint64)
        truncated[order[theirs]] = keys[theirs]
        singles = np.flatnonzero(seeded[:m] & (carry.length == length))
        hit = np.flatnonzero(seeded[m:])
        seeds, owners = _seeds(
            s, rows, carry, singles, truncated[singles],
            [opened[j] for j in hit.tolist()], truncated[m + hit],
        )
        streams, inserted, removal, _ = _replay_survivors(
            s, n, config.min_ttl_delta, gap, live=True, seeds=seeds,
        )
        formed, members = self._take_streams(s, rows, prefixes, carry,
                                             streams, owners)

        n_surv = len(s.position)
        stored = np.ones(n, dtype=bool)
        stored[s.position] = inserted[:n_surv]
        removed = np.full(n, n, dtype=np.int64)
        removed[s.position] = removal[:n_surv]
        carry_removed = np.full(m, n, dtype=np.int64)
        for row, owner in enumerate(owners, n_surv):
            if type(owner) is int:
                carry_removed[owner] = removal[row]
        self._live = _LiveSingletons(carry, carry_removed, prefixes, ts_np,
                                     stored, removed, index0, gap)

        # The slice's history, hidden from window queries until each
        # record's turn comes.
        if self._tail is not None:
            self._seal_tail()
        ts_list = ts_np.tolist()
        order = vectorize.stable_order(prefixes)
        self._slices.append(_Slice(
            index0, ts_list[0], ts_list[-1],
            array("q", prefixes[order].tobytes()),
            array("d", ts_np[order].tobytes()),
            array("q", (order + index0).tobytes()), set(),
        ))
        self._add_members(members)

        emitted: list[RoutingLoop] = []
        self._emitted = emitted
        stream_deadlines = self._stream_deadlines
        loop_deadlines = self._loop_deadlines
        inf = float("inf")
        pos = fi = 0
        while True:
            bound = stream_deadlines[0][0] if stream_deadlines else inf
            if loop_deadlines and loop_deadlines[0][0] < bound:
                bound = loop_deadlines[0][0]
            r = bisect_left(ts_list, bound, pos)
            if r >= n:
                break
            while fi < len(formed) and formed[fi][0] < r:
                self._open_stream(*formed[fi][1:])
                fi += 1
            now = self._now = ts_list[r]
            self._visible = index0 + r
            self._expire(now)
            pos = r + 1
        for _, stream, prefix_net in formed[fi:]:
            self._open_stream(stream, prefix_net)
        self._live = None
        self._visible = inf
        now = self._now = ts_list[-1]
        self.stats.records += n

        # The carry after the slice: its entries and the slice's
        # singletons that no record took out and that are still live.
        fresh = stored & (removed == n) & (ts_np + gap > now)
        self._carry = carry.then(
            (carry_removed == n) & (carry.ts + gap > now),
            hashes[fresh], np.flatnonzero(fresh) + index0, ts_np[fresh],
            rows[fresh, _TTL_OFFSET], prefixes[fresh], rows[fresh],
        )
        if now > self._prune_at:
            self._prune_history(now)
        return emitted

    def _take_streams(self, s, records, prefixes, carry, streams,
                      owners) -> list[tuple]:
        """Apply the engine's streams: extend the open streams it
        extended and push their deadlines and those of the new ones.
        Returns ``(formed, members)``: the new streams as ``(slice
        position of the second replica, stream, prefix)``, in that
        order, and the record index of every member."""
        firsts, ends, replayed = streams
        n_surv = len(s.position)
        heads: list = [None] * len(firsts)
        parts = []
        for members in replayed:
            head = members[0]
            if head < n_surv:
                heads.append(None)
                parts.append(members)
            elif len(members) > 1:
                heads.append(owners[head - n_surv])
                parts.append(members[1:])
        sizes = (ends - firsts).tolist() + [len(part) for part in parts]
        rows = np.concatenate((
            vectorize.ranges(firsts, ends - firsts),
            np.fromiter(chain.from_iterable(parts), dtype=np.int64),
        ))
        indices = s.index[rows].tolist()
        positions = s.position[rows].tolist()
        replicas = list(map(_new_replica, zip(
            indices, s.timestamp[rows].tolist(), s.ttl[rows].tolist())))
        members = indices
        formed = []
        at = 0
        for head, size in zip(heads, sizes):
            tail = replicas[at:at + size]
            if isinstance(head, _OpenStream):
                head.replicas.extend(tail)
                self._push_stream_deadline(head)
                at += size
                continue
            if head is None:
                p = positions[at]
                data = records[p].tobytes()
                key = mask_mutable_fields(data)
                since = positions[at + 1]
                prefix_net = int(prefixes[p])
            else:  # a carried singleton starts the stream
                data = carry.record(head)
                key = mask_mutable_fields(data)
                first_replica = _new_replica((int(carry.index[head]),
                                              float(carry.ts[head]),
                                              int(carry.ttl[head])))
                tail.insert(0, first_replica)
                members.append(first_replica.index)
                since = positions[at]
                prefix_net = int(carry.prefix[head])
            stream = _OpenStream(key=key, first_data=data, replicas=tail)
            self._push_stream_deadline(stream)
            formed.append((since, stream, prefix_net))
            at += size
        formed.sort(key=itemgetter(0))
        return formed, members

    # -- the two singleton stores ------------------------------------------------

    def _fold_singletons(self) -> None:
        """Move the per-record feed's singletons into the carry, which
        the batched tier reads instead."""
        entries = list(self._singletons.values())
        self._singletons.clear()
        self._singleton_prefixes.clear()
        self._singleton_deadlines.clear()
        by_length: dict[int, list] = {}
        for entry in entries:
            by_length.setdefault(len(entry[3]), []).append(entry)
        carry = _Carry.empty()
        for length, group in by_length.items():
            index, ts, ttl, data = zip(*group)
            rows = np.frombuffer(b"".join(map(bytes, data)),
                                 dtype=np.uint8).reshape(len(group), length)
            slab = (rows, 0, len(group), length)
            carry = carry.then(
                np.ones(len(carry), dtype=bool),
                vectorize.hash_rows(*slab, length),
                np.array(index, dtype=np.int64), np.array(ts),
                np.array(ttl, dtype=np.int16),
                vectorize.dst_prefixes(*slab, self._shift), rows,
            )
        self._carry = carry

    def _fold_carry(self) -> None:
        """Move the carry into the per-record feed's singleton state
        (dict, prefix sets and deadline heap) before it probes them."""
        carry, self._carry = self._carry, None
        gap = self.config.max_replica_gap
        for i, (index, timestamp, ttl, prefix_net) in enumerate(zip(
                carry.index.tolist(), carry.ts.tolist(),
                carry.ttl.tolist(), carry.prefix.tolist())):
            data = carry.record(i)
            key = mask_mutable_fields(data)
            self._singletons[key] = (index, timestamp, ttl, data)
            self._singleton_prefixes.setdefault(prefix_net, set()).add(key)
            heapq.heappush(self._singleton_deadlines,
                           (timestamp + gap, key, index))

    def flush(self) -> list[RoutingLoop]:
        """End of input: complete every open stream and close every loop."""
        self._emitted = []
        # Every carried singleton is past its deadline at +inf, like the
        # per-record singletons the sweep below evicts.
        self._carry = None
        self._expire(float("inf"))
        return self._emitted

    def state_snapshot(self) -> dict:
        """JSON-ready view of the detector's live state for the
        monitoring ``/state`` endpoint: in-flight candidate streams,
        open (unemitted) loops, and the running stats.

        This reads sizes and summaries only — it never mutates detector
        state — and copies what the feeding thread resizes in one C-level
        call before walking it, so serving it from another thread can
        neither change what the detector emits nor raise.
        ``tracked_prefixes`` counts the /24s with a record since ``now -
        (merge_gap + max_replica_gap)``.
        """
        carry = self._carry  # read once: the feeding thread replaces it
        open_streams = [
            {
                "replicas": len(stream.replicas),
                "first_ttl": stream.replicas[0].ttl,
                "last_ttl": stream.last.ttl,
                "start": stream.replicas[0].timestamp,
                "last_seen": stream.last.timestamp,
            }
            for streams in tuple(self._open_streams.values())
            for stream in tuple(streams)
        ]
        open_loops = [
            {
                "prefix_net": loop.prefix_net,
                "streams": len(loop.streams),
                "start": min(s.start for s in tuple(loop.streams)),
                "end": loop.end,
            }
            for loop in tuple(self._open_loops.values())
        ]
        return {
            "now": None if self._now == float("-inf") else self._now,
            "singletons": len(self._singletons if carry is None else carry),
            "open_streams": open_streams,
            "open_loops": open_loops,
            "tracked_prefixes": self._tracked_prefixes(),
            "stats": asdict(self.stats),
        }

    def register_metrics(self, registry) -> None:
        """Publish :class:`StreamingStats` via a weakly-held collector;
        the per-record path keeps its plain-int counters."""
        registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry) -> None:
        for field, name, help_text in _COUNTERS:
            registry.counter(name, help_text).set(getattr(self.stats, field))

    # -- step 1: chaining -------------------------------------------------------

    def _chain(self, index: int, timestamp: float, data: bytes) -> None:
        config = self.config
        key = mask_mutable_fields(data)
        ttl = data[8]

        streams = self._open_streams.get(key)
        if streams is not None:
            for stream in reversed(streams):
                last = stream.last
                if (last.ttl - ttl >= config.min_ttl_delta
                        and timestamp - last.timestamp
                        <= config.max_replica_gap):
                    stream.replicas.append(
                        Replica(index=index, timestamp=timestamp, ttl=ttl)
                    )
                    self._add_members((index,))
                    self._push_stream_deadline(stream)
                    return

        previous = self._singletons.get(key)
        if previous is not None:
            prev_index, prev_time, prev_ttl, prev_data = previous
            if (prev_ttl - ttl >= config.min_ttl_delta
                    and timestamp - prev_time <= config.max_replica_gap):
                if type(prev_data) is not bytes:
                    # Columnar feeds store zero-copy views; materialize
                    # only now that a stream actually formed.
                    prev_data = bytes(prev_data)
                stream = _OpenStream(
                    key=key,
                    first_data=prev_data,
                    replicas=[
                        Replica(index=prev_index, timestamp=prev_time,
                                ttl=prev_ttl),
                        Replica(index=index, timestamp=timestamp, ttl=ttl),
                    ],
                )
                del self._singletons[key]
                prefix_net = self._prefix_net(prev_data)
                self._drop_singleton_key(prefix_net, key)
                self._open_stream(stream, prefix_net)
                self._add_members((prev_index, index))
                self._push_stream_deadline(stream)
                return

        self._singletons[key] = (index, timestamp, ttl, data)
        self._singleton_prefixes.setdefault(
            self._prefix_net(data), set()
        ).add(key)
        heapq.heappush(
            self._singleton_deadlines,
            (timestamp + config.max_replica_gap, key, index),
        )

    def _prefix_net(self, data: bytes) -> int:
        return int.from_bytes(data[16:20], "big") >> self._shift

    def _open_stream(self, stream: _OpenStream, prefix_net: int) -> None:
        self._open_streams.setdefault(stream.key, []).append(stream)
        self._open_stream_count[prefix_net] = (
            self._open_stream_count.get(prefix_net, 0) + 1
        )

    def _add_members(self, indices) -> None:
        """Mark records ``indices`` as stream members in their history
        slices.  Records join streams within the chaining gap, so their
        slice is nearly always the newest or the one before."""
        if not indices:
            return
        for piece in reversed(self._slices):
            base = piece.base
            if min(indices) >= base:
                piece.members.update(indices)
                return
            piece.members.update([i for i in indices if i >= base])
            indices = [i for i in indices if i < base]

    def _push_stream_deadline(self, stream: _OpenStream) -> None:
        # Ties break by the last replica's record index: the order in
        # which the per-record feed pushes them.
        last = stream.last
        heapq.heappush(
            self._stream_deadlines,
            (last.timestamp + self.config.max_replica_gap, last.index,
             stream),
        )

    # -- deadline processing ------------------------------------------------------

    def _evict_singletons(self, now: float) -> None:
        singletons = self._singletons
        deadlines = self._singleton_deadlines
        while deadlines and deadlines[0][0] <= now:
            _, key, index = heapq.heappop(deadlines)
            current = singletons.get(key)
            if current is not None and current[0] == index:
                del singletons[key]
                self._drop_singleton_key(self._prefix_net(current[3]), key)

    def _expire(self, now: float) -> None:
        self._evict_singletons(now)

        # Complete quiescent streams.
        while self._stream_deadlines and self._stream_deadlines[0][0] <= now:
            deadline, _, stream = heapq.heappop(self._stream_deadlines)
            true_deadline = (stream.last.timestamp
                             + self.config.max_replica_gap)
            if true_deadline > now:
                continue  # stream was extended; a fresher deadline exists
            if deadline < true_deadline:
                continue  # superseded entry
            streams = self._open_streams.get(stream.key)
            if streams is None or stream not in streams:
                continue
            streams.remove(stream)
            if not streams:
                del self._open_streams[stream.key]
            self._complete_stream(stream)

        # Close loops whose merge window has passed.
        while self._loop_deadlines and self._loop_deadlines[0][0] <= now:
            _, _, prefix_net = heapq.heappop(self._loop_deadlines)
            loop = self._open_loops.get(prefix_net)
            if loop is None:
                continue
            deadline = loop.end + self.config.merge_gap
            if deadline > now:
                continue  # extended since this entry was pushed
            if (self._open_stream_count.get(prefix_net, 0) > 0
                    or self._singleton_may_merge(prefix_net, loop, now)):
                # A candidate stream for this prefix is still chaining
                # (or a singleton inside the merge window could still
                # start one); re-check once it resolves.
                self._push_loop_deadline(prefix_net, now)
                continue
            del self._open_loops[prefix_net]
            self._emit(loop)

    def _drop_singleton_key(self, prefix_net: int, key: bytes) -> None:
        keys = self._singleton_prefixes.get(prefix_net)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._singleton_prefixes[prefix_net]

    def _singleton_may_merge(self, prefix_net: int, loop: _OpenLoop,
                             now: float) -> bool:
        """True while a live singleton on this prefix sits inside the
        loop's merge window: if it chains, the resulting stream starts at
        the singleton's timestamp and would merge into the loop, so the
        loop cannot close yet.  (Singletons past the window can only seed
        streams that start a new loop — those never block emission.)

        Mid-slice, the batched tier's singletons answer instead.
        """
        horizon = loop.end + self.config.merge_gap
        if self._live is not None:
            return self._live.may_merge(prefix_net, self._visible, now,
                                        horizon)
        return any(self._singletons[key][1] < horizon
                   for key in self._singleton_prefixes.get(prefix_net, ()))

    def _push_loop_deadline(self, prefix_net: int, now: float) -> None:
        loop = self._open_loops.get(prefix_net)
        if loop is None:
            return
        deadline = max(loop.end + self.config.merge_gap,
                       now + self.config.max_replica_gap)
        if deadline == float("inf"):
            deadline = now  # flush: fire immediately on the next sweep
        self._deadline_seq += 1
        heapq.heappush(self._loop_deadlines,
                       (deadline, self._deadline_seq, prefix_net))

    # -- steps 2 and 3 ---------------------------------------------------------------

    def _complete_stream(self, open_stream: _OpenStream) -> None:
        self.stats.streams_completed += 1
        data = open_stream.first_data
        prefix_net = self._prefix_net(data)
        self._open_stream_count[prefix_net] = max(
            0, self._open_stream_count.get(prefix_net, 0) - 1
        )
        config = self.config
        if len(open_stream.replicas) < config.min_stream_size:
            self.stats.streams_rejected_small += 1
            return
        stream = ReplicaStream(
            key=open_stream.key,
            replicas=open_stream.replicas,
            src=IPv4Address.from_bytes(data[12:16]),
            dst=IPv4Address.from_bytes(data[16:20]),
            protocol=data[9],
            first_data=data,
        )
        if config.check_prefix_consistency and self._window_has_non_member(
            prefix_net, stream.start, stream.end
        ):
            self.stats.streams_rejected_conflict += 1
            return
        self._merge_stream(prefix_net, stream)

    def _window_has_non_member(self, prefix_net: int, start: float,
                               end: float) -> bool:
        """True if a record to ``prefix_net`` with start <= t <= end, fed
        before the current one, is no stream's member."""
        visible = self._visible
        for piece in reversed(self._slices):
            if piece.last < start:
                break  # every older slice ends earlier still
            keys, times, indices = piece.keys, piece.times, piece.indices
            if indices is None:  # the open tail, in capture order
                lo = bisect_left(times, start)
                if any(keys[j] == prefix_net
                       and piece.base + j not in piece.members
                       for j in range(lo, bisect_right(times, end, lo))):
                    return True
                continue
            lo = bisect_left(keys, prefix_net)
            hi = bisect_right(keys, prefix_net, lo)
            lo = bisect_left(times, start, lo, hi)
            hi = bisect_right(times, end, lo, hi)
            if piece.base + len(keys) > visible:
                # Mid-chunk: within a prefix, indices rise with time.
                hi = bisect_left(indices, visible, lo, hi)
            if not piece.members.issuperset(indices[lo:hi]):
                return True
        return False

    def _merge_stream(self, prefix_net: int, stream: ReplicaStream) -> None:
        loop = self._open_loops.get(prefix_net)
        if loop is not None:
            gap_start, gap_end = loop.end, stream.start
            mergeable = (
                gap_end <= gap_start
                or (gap_end - gap_start < self.config.merge_gap
                    and not (self.config.check_gap_consistency
                             and self._window_has_non_member(
                                 prefix_net, gap_start, gap_end)))
            )
            if mergeable:
                loop.streams.append(stream)
                loop.end = max(loop.end, stream.end)
                self._push_loop_deadline(prefix_net, stream.end)
                return
            del self._open_loops[prefix_net]
            self._emit(loop)
        self._open_loops[prefix_net] = _OpenLoop(
            prefix_net=prefix_net, streams=[stream], end=stream.end
        )
        self._push_loop_deadline(prefix_net, stream.end)

    def _emit(self, loop: _OpenLoop) -> None:
        streams = sorted(loop.streams, key=lambda stream: stream.start)
        routing_loop = RoutingLoop(
            prefix=streams[0].dst_prefix(self.config.prefix_length),
            streams=streams,
        )
        self.stats.loops_emitted += 1
        # Loop intervals are in record-timestamp time, same domain as the
        # control-plane events of a simulated trace.
        self.profile.tracer.span("loop", routing_loop.start,
                                 routing_loop.end,
                                 prefix=str(routing_loop.prefix),
                                 streams=routing_loop.stream_count)
        self._emitted.append(routing_loop)
        if self.on_loop is not None:
            self.on_loop(routing_loop)

    # -- step-2 history ------------------------------------------------------------

    def _seal_tail(self) -> None:
        """Sort the per-record feed's open tail by (prefix, time): a
        stable sort of capture order, the layout of a batched slice."""
        tail, self._tail = self._tail, None
        keys, times, base = tail.keys, tail.times, tail.base
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._slices[-1] = _Slice(
            base, tail.first, tail.last,
            array("q", map(keys.__getitem__, order)),
            array("d", map(times.__getitem__, order)),
            array("q", [base + j for j in order]), tail.members,
        )

    def _prune_history(self, now: float) -> None:
        """Drop whole slices that end before the retention floor.

        Query windows start at an open stream's start, an open loop's
        end, or a future stream's first replica (a live singleton, at
        most ``max_replica_gap`` old), so the floor is ``min(now -
        (merge_gap + max_replica_gap), those)``.  While an open stream or
        loop pins the oldest slice, the next attempt waits a chaining gap.
        """
        slices = self._slices
        floor = now - self._horizon
        if slices and slices[0].last < floor:
            floor = min([
                floor,
                *(stream.replicas[0].timestamp
                  for streams in self._open_streams.values()
                  for stream in streams),
                *(loop.end for loop in self._open_loops.values()),
            ])
            while slices and slices[0].last < floor:
                if slices.popleft() is self._tail:
                    self._tail = None
        oldest = slices[0].last if slices else now
        self._prune_at = max(oldest + self._horizon,
                             now + self.config.max_replica_gap)

    def _tracked_prefixes(self) -> int:
        horizon = self._now - self._horizon
        seen: set[int] = set()
        for piece in tuple(self._slices):
            if piece.first >= horizon:
                seen.update(piece.keys)
            elif piece.last >= horizon:
                seen.update(key for key, timestamp
                            in zip(piece.keys, piece.times)
                            if timestamp >= horizon)
        return len(seen)
