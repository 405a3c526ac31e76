"""Online (streaming) loop detection.

The paper ran its algorithm offline over recorded traces.  An operator
monitoring a live link wants the same result incrementally: feed records
as they are captured, get each routing loop reported shortly after it
ends, with memory bounded by the loop window rather than the trace.

:class:`StreamingLoopDetector` implements the paper's three steps as an
event-driven pipeline:

* replicas chain exactly as offline (masked-byte key, TTL delta >= 2,
  bounded chaining gap): every fed chunk, whatever its shape, goes
  through the offline chaining engine once; singletons are evicted and
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
from typing import Callable, NamedTuple

import numpy as np

from repro.net.addr import IPv4Address
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.obs.perf import NULL_PROFILE
from repro.core import vectorize
from repro.core.detector import DetectorConfig
from repro.core.merge import RoutingLoop
from repro.core.replica import (
    _MIN_CAPTURE,
    _TTL_OFFSET,
    Replica,
    ReplicaStream,
    _chunk_records,
    _column,
    _hash_chunks,
    _new_replica,
    _replay_survivors,
    _sort_survivors,
    mask_mutable_fields,
)

#: A history slice with fewer records than this takes the next chunk's
#: too, so that small chunks (one-record ``process`` calls included) do
#: not pile up one slice each.
_SMALL = 4096

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
    #: The masked key's :func:`~repro.core.vectorize.hash_rows` hash.
    hash: int

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
    ``first`` to ``last``, its columns ordered by (prefix, timestamp),
    ties in capture order.  ``members`` are its records that joined a
    stream.  Columns are copies, never views of a chunk's slab."""

    base: int
    first: float
    last: float
    keys: array
    times: array
    indices: array
    members: set


class _Entries(NamedTuple):
    """Singleton columns: each entry's masked-key hash, record index,
    timestamp and /N prefix, and its record, row ``i`` of ``rows`` cut
    to ``length[i]`` bytes."""

    hash: np.ndarray
    index: np.ndarray
    ts: np.ndarray
    prefix: np.ndarray
    rows: np.ndarray
    length: np.ndarray

    def record(self, i: int) -> bytes:
        return self.rows[i, :self.length[i]].tobytes()

    def take(self, at) -> "_Entries":
        return _Entries(*(column[at] for column in self))


def _entries(size: int, width: int) -> _Entries:
    """Room for ``size`` entries of records up to ``width`` bytes."""
    return _Entries(np.empty(size, dtype=np.uint64),
                    np.empty(size, dtype=np.int64), np.empty(size),
                    np.empty(size, dtype=np.int64),
                    np.empty((size, width), dtype=np.uint8),
                    np.empty(size, dtype=np.int64))


def _put(into: _Entries, at, entries: _Entries) -> None:
    """Write ``entries`` to rows ``at`` of ``into``."""
    for column, values in zip(into, entries):
        if column.ndim == 2:
            column[at, :values.shape[1]] = values
        else:
            column[at] = values


class _Carry:
    """The carried singletons, in time order: rows ``first`` to ``end -
    1`` of ``entries``, added in batches and cut from the front a batch
    at a time.  An entry a record took out gets timestamp ``-inf``,
    which reads as expired.  Every row is in a chained hash table:
    ``head[b]`` is the newest whose hash has top bits ``b`` and
    ``link[r]`` the next older one.  Rows are rewritten, with room to
    double, only when they fill up or hold eight times what is live, so
    a slice costs what it adds and looks up.  ``view`` is ``(ts, first,
    end)``, replaced whole once a batch is in, for readers on other
    threads: every row it covers is written (a slice in flight may
    already have marked some taken out)."""

    def __init__(self) -> None:
        self.entries = _entries(0, _MIN_CAPTURE)
        self.link = self.head = np.empty(0, dtype=np.int64)
        self.first = self.end = 0
        self.batches: deque[tuple[int, float]] = deque()
        self.view = (self.entries.ts, 0, 0)

    def _buckets(self, hashes):
        return hashes >> np.uint64(65 - len(self.head).bit_length())

    def find(self, hashes, since: float, gap: float):
        """The rows, ascending, that may chain in a slice whose records'
        hashes are ``hashes``, starting at ``since``: the live entries
        with one of those hashes."""
        found = [np.empty(0, dtype=np.int64)]
        walked = self.head[self._buckets(hashes)] if len(self.head) else \
            found[0]
        while True:
            walk = walked >= self.first
            if not walk.any():
                break
            hashes, walked = hashes[walk], walked[walk]
            found.append(walked[self.entries.hash[walked] == hashes])
            walked = self.link[walked]
        rows = np.concatenate(found)
        if len(rows):
            rows = np.unique(rows)
            rows = rows[self.entries.ts[rows] + gap > since]
        return rows

    def add(self, entries: _Entries, now: float, gap: float) -> None:
        """Append and index ``entries``, newer than all others, after
        cutting the batches that have expired at ``now``."""
        while self.batches and self.batches[0][1] + gap <= now:
            self.first = self.batches.popleft()[0]
        k = len(entries.hash)
        first, n = self.first, self.end - self.first
        width = max(entries.rows.shape[1], self.entries.rows.shape[1])
        start = self.end
        if (self.end + k > len(self.link) or len(self.link) > 8 * (n + k)
                or width > self.entries.rows.shape[1]):
            old = self.entries.take(slice(first, self.end))
            self.entries = _entries(2 * (n + k), width)
            _put(self.entries, slice(0, n), old)
            self.link = np.empty(2 * (n + k), dtype=np.int64)
            self.head = np.full(1 << (2 * len(self.link) - 1).bit_length(),
                                -1, dtype=np.int64)
            self.batches = deque((end - first, ts)
                                 for end, ts in self.batches)
            self.first, self.end, start = 0, n, 0
        _put(self.entries, slice(self.end, self.end + k), entries)
        self.end += k
        self.batches.append((self.end, float(entries.ts[-1])))
        self._index(start)
        self.view = (self.entries.ts, self.first, self.end)

    def _index(self, start: int) -> None:
        """Link rows ``start`` to ``end - 1`` into the table, each in
        front of the older rows of its bucket."""
        buckets = self._buckets(self.entries.hash[start:self.end])
        order = vectorize.stable_order(buckets)
        buckets, rows = buckets[order], order + start
        new = np.ones(len(rows), dtype=bool)
        new[1:] = buckets[1:] != buckets[:-1]
        self.link[rows] = np.where(new, self.head[buckets], np.roll(rows, 1))
        newest = np.append(new[1:], True)
        self.head[buckets[newest]] = rows[newest]


class _LiveSingletons:
    """The singletons of a slice in flight, for the merge-window check:
    the ``carry``'s (its rows ``found`` are taken out at slice position
    ``carry_removed``, the others not at all), and the slice's own,
    stored where ``stored`` is set and taken out at ``removed``.
    Indexed by prefix on the first check; most slices have none."""

    __slots__ = ("parts", "gap", "_columns")

    def __init__(self, carry, found, carry_removed, prefixes, ts, stored,
                 removed, index0, gap) -> None:
        self.parts = (carry, found, carry_removed, prefixes, ts, stored,
                      removed, index0)
        self.gap = gap
        self._columns = None

    def _index(self) -> tuple:
        carry, found, carry_removed, prefixes, ts, stored, removed, index0 = \
            self.parts
        n = len(stored)
        at = np.flatnonzero(stored)
        live = slice(carry.first, carry.end)
        cut = np.full(carry.end - carry.first, n, dtype=np.int64)
        cut[found - carry.first] = carry_removed
        prefix = np.concatenate((carry.entries.prefix[live], prefixes[at]))
        order = vectorize.stable_order(prefix)
        columns = (
            np.concatenate((carry.entries.ts[live], ts[at])),
            # Record index each entry is stored at (-1: carried in) and
            # the one that takes it out (past the slice: none).
            np.concatenate((np.full(len(cut), -1, dtype=np.int64),
                            at + index0)),
            np.concatenate((cut, removed[at])) + index0,
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


def _seeds(s, chunk, carry, single_keys, streams, stream_keys):
    """The engine's ``seeds`` for a slice: the carried singletons
    (``carry`` entries) and open ``streams`` whose key a survivor group
    has, as extra rows starting that group's state.  Each is found by
    its truncated hash in the slice's sort (``single_keys``,
    ``stream_keys``), then by its masked key.  Returns ``(seeds,
    owners)``, ``owners`` naming the carry entry or the stream behind
    each extra row.  ``chunk`` holds the slice's records."""
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
            first = chunk.record_view(s.position[s.group_start[g]])
            if mask_mutable_fields(first) != key:
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
    for c, truncated in enumerate(single_keys):
        entry = state_of(truncated, mask_mutable_fields(carry.record(c)))
        if entry is not None:
            entry[0] = n_surv + len(owners)
            owners.append(c)
            times.append(float(carry.ts[c]))
            ttls.append(int(carry.rows[c, _TTL_OFFSET]))
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
        self._shift = 32 - self.config.prefix_length

        # Step 1 state: the carried singletons and the open streams by
        # masked key.
        self._carry = _Carry()
        self._open_streams: dict[bytes, list[_OpenStream]] = {}
        self._stream_deadlines: list[tuple[float, int, _OpenStream]] = []
        self._deadline_seq = 0

        # Step 2 state: history slices in capture order, the record
        # index the in-flight slice is visible below, and the next
        # pruning time.
        self._slices: deque[_Slice] = deque()
        self._visible = float("inf")
        self._prune_at = float("-inf")
        self._horizon = self.config.merge_gap + self.config.max_replica_gap
        self._open_stream_count: dict[int, int] = {}

        # Step 3 state.
        self._open_loops: dict[int, _OpenLoop] = {}
        self._loop_deadlines: list[tuple[float, int, int]] = []

        # The in-flight slice's singletons, for the merge-window check.
        self._live: _LiveSingletons | None = None

        self._emitted: list[RoutingLoop] = []

    # -- public API -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Timestamp of the last record fed (-inf before the first); an
        earlier record is rejected as time travel."""
        return self._now

    def process(self, timestamp: float, data: bytes) -> list[RoutingLoop]:
        """Feed one captured record (a one-record :meth:`process_chunk`);
        returns loops that just closed."""
        return self.process_chunk(ColumnarChunk.from_pairs(
            ((timestamp, data),)))

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
        """Feed one :class:`~repro.net.columnar.ColumnarChunk` of any
        shape and size; returns loops that just closed.

        Records must come in time order.  At the first record earlier
        than its predecessor (or than :attr:`now`), the records before
        it are fed and ``ValueError`` is raised: the detector is then
        exactly as a record-by-record feed leaves it there.
        """
        n = len(chunk)
        ordered = chunk.ordered(self._now)
        if ordered < n:
            if ordered:
                self._feed(chunk.slice(0, ordered))
            raise ValueError("records must be time-ordered: "
                             f"{chunk.timestamps[ordered]} < {self._now}")
        return self._feed(chunk) if n else []

    def _feed(self, chunk) -> list[RoutingLoop]:
        """Feed a time-ordered chunk through one call of the step-1
        engine.

        A record under 20 bytes is counted and skipped: it takes no
        record index and no history entry.  The others' masked keys are
        hashed in bulk, straight off the slab.  Their *survivors* are the
        records whose hash may repeat in the slice or be that of a
        carried singleton or an open stream (one sort,
        :func:`~repro.core.vectorize.shared`, over the slice's hashes and
        the carried entries :meth:`_Carry.find` gives; equal keys always
        hash equal, so no record that could chain is missed).  One
        call of the step-1 engine
        (:func:`~repro.core.replica._replay_survivors`, live eviction
        rule) chains them per key, starting from the carried state of
        their keys.  Every other record is a singleton and joins the
        carry.

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
        ts_all = np.frombuffer(chunk.timestamps, dtype=np.float64, count=n)
        config = self.config
        gap = config.max_replica_gap
        hashes, ok, skipped = _hash_chunks([chunk])
        ts_np = ts_all
        if skipped:
            kept = np.flatnonzero(ok)
            ts_np = ts_all[kept]
            chunk = ColumnarChunk(chunk.data, ts_np,
                                  _column(chunk.offsets)[kept],
                                  _column(chunk.lengths)[kept])
            hashes = hashes[kept]
        k = len(ts_np)
        prefixes = vectorize.chunk_prefixes(chunk, self._shift)
        index0 = self._index
        self._index = index0 + k

        found = self._carry.find(hashes, ts_all[0], gap)
        opened = [stream for streams in self._open_streams.values()
                  for stream in streams]
        m, o = len(found), len(opened)
        order, keys = vectorize.shared(np.concatenate((
            self._carry.entries.hash[found],
            np.fromiter((stream.hash for stream in opened),
                        dtype=np.uint64, count=o),
            hashes,
        )))
        mine = order >= m + o
        s = _sort_survivors([chunk], order[mine] - (m + o), keys[mine], ts_np)
        s = s._replace(index=s.position + index0)
        # The carried entries and open streams in a group, each with the
        # truncated hash that group is found by.
        theirs = ~mine
        seeded = np.zeros(m + o, dtype=bool)
        seeded[order[theirs]] = True
        truncated = np.zeros(m + o, dtype=np.uint64)
        truncated[order[theirs]] = keys[theirs]
        singles = np.flatnonzero(seeded[:m])
        carry = self._carry.entries.take(found[singles])
        hit = np.flatnonzero(seeded[m:])
        seeds, owners = _seeds(
            s, chunk, carry, truncated[singles],
            [opened[j] for j in hit.tolist()], truncated[m + hit],
        )
        streams, inserted, removal, _ = _replay_survivors(
            s, k, config.min_ttl_delta, gap, live=True, seeds=seeds,
        )
        formed, members = self._take_streams(s, chunk, prefixes, hashes,
                                             carry, streams, owners)

        n_surv = len(s.position)
        stored = np.ones(k, dtype=bool)
        stored[s.position] = inserted[:n_surv]
        removed = np.full(k, k, dtype=np.int64)
        removed[s.position] = removal[:n_surv]
        carry_removed = np.full(m, k, dtype=np.int64)
        for row, owner in enumerate(owners, n_surv):
            if type(owner) is int:
                carry_removed[singles[owner]] = removal[row]
        self._live = _LiveSingletons(self._carry, found, carry_removed,
                                     prefixes, ts_np, stored, removed,
                                     index0, gap)

        # The slice's history, hidden from window queries until each
        # record's turn comes.
        if k:
            self._add_history(index0, ts_np, prefixes)
        self._add_members(members)

        emitted: list[RoutingLoop] = []
        self._emitted = emitted
        stream_deadlines = self._stream_deadlines
        loop_deadlines = self._loop_deadlines
        ts_list = ts_all.tolist()
        inf = float("inf")
        pos = fi = 0
        while True:
            bound = stream_deadlines[0][0] if stream_deadlines else inf
            if loop_deadlines and loop_deadlines[0][0] < bound:
                bound = loop_deadlines[0][0]
            r = bisect_left(ts_list, bound, pos)
            if r >= n:
                break
            # The slice's records before record ``r``.
            seen = int(np.searchsorted(kept, r)) if skipped else r
            while fi < len(formed) and formed[fi][0] < seen:
                self._open_stream(*formed[fi][1:])
                fi += 1
            now = self._now = ts_list[r]
            self._visible = index0 + seen
            self._expire(now)
            pos = r + 1
        for _, stream, prefix_net in formed[fi:]:
            self._open_stream(stream, prefix_net)
        self._live = None
        self._visible = inf
        now = self._now = ts_list[-1]
        self.stats.records += n
        self.stats.skipped_short += skipped

        # Carried entries a record took out are dead; the slice's
        # singletons that no record took out and that are still live
        # join the carry.
        self._carry.entries.ts[found[carry_removed < k]] = -inf
        fresh = np.flatnonzero(stored & (removed == k) & (ts_np + gap > now))
        if len(fresh):
            self._carry.add(_Entries(hashes[fresh], fresh + index0,
                                     ts_np[fresh], prefixes[fresh],
                                     *_chunk_records(chunk, fresh)),
                            now, gap)
        if now > self._prune_at:
            self._prune_history(now)
        return emitted

    def _take_streams(self, s, chunk, prefixes, hashes, carry, streams,
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
                data = chunk.record_bytes(p)
                since = positions[at + 1]
                prefix_net = int(prefixes[p])
                key_hash = int(hashes[p])
            else:  # a carried singleton starts the stream
                data = carry.record(head)
                first_replica = _new_replica((
                    int(carry.index[head]), float(carry.ts[head]),
                    int(carry.rows[head, _TTL_OFFSET])))
                tail.insert(0, first_replica)
                members.append(first_replica.index)
                since = positions[at]
                prefix_net = int(carry.prefix[head])
                key_hash = int(carry.hash[head])
            stream = _OpenStream(mask_mutable_fields(data), data, tail,
                                 key_hash)
            self._push_stream_deadline(stream)
            formed.append((since, stream, prefix_net))
            at += size
        formed.sort(key=itemgetter(0))
        return formed, members

    def flush(self) -> list[RoutingLoop]:
        """End of input: complete every open stream and close every loop."""
        self._emitted = []
        # Every carried singleton is past its deadline at +inf.
        self._carry = _Carry()
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
        ``singletons`` counts the carried singletons still live at
        ``now``, read from the carry's :attr:`_Carry.view` (so never
        from rows a slice is still writing); ``tracked_prefixes`` the
        /24s with a record since ``now - (merge_gap + max_replica_gap)``.
        """
        now = self._now
        ts, first, end = self._carry.view
        gap = self.config.max_replica_gap
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
            "now": None if now == float("-inf") else now,
            "singletons": int(np.count_nonzero(ts[first:end] + gap > now)),
            "open_streams": open_streams,
            "open_loops": open_loops,
            "tracked_prefixes": self._tracked_prefixes(),
            "stats": asdict(self.stats),
        }

    def register_metrics(self, registry) -> None:
        """Publish :class:`StreamingStats` via a weakly-held collector;
        the feed keeps its plain-int counters."""
        registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry) -> None:
        for field, name, help_text in _COUNTERS:
            registry.counter(name, help_text).set(getattr(self.stats, field))

    # -- step 1: open streams -------------------------------------------------

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
        # which a record-by-record feed pushes them.
        last = stream.last
        heapq.heappush(
            self._stream_deadlines,
            (last.timestamp + self.config.max_replica_gap, last.index,
             stream),
        )

    # -- deadline processing ------------------------------------------------------

    def _expire(self, now: float) -> None:
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

    def _singleton_may_merge(self, prefix_net: int, loop: _OpenLoop,
                             now: float) -> bool:
        """True while a live singleton on this prefix sits inside the
        loop's merge window: if it chains, the resulting stream starts at
        the singleton's timestamp and would merge into the loop, so the
        loop cannot close yet.  (Singletons past the window can only seed
        streams that start a new loop — those never block emission.)

        Deadlines fire mid-slice, where the slice's singletons answer,
        or at the final flush, when none is left.
        """
        return self._live is not None and self._live.may_merge(
            prefix_net, self._visible, now,
            loop.end + self.config.merge_gap)

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

    def _add_history(self, index0: int, ts, prefixes) -> None:
        """Add records ``index0, index0 + 1, ...`` at times ``ts`` to
        ``prefixes``: a new slice, or, while the newest slice is small,
        into that one."""
        columns = (prefixes, ts, np.arange(index0, index0 + len(ts)))
        first, members = float(ts[0]), set()
        slices = self._slices
        if slices and len(slices[-1].keys) < _SMALL:
            # A stable sort keeps the newest slice's records first within
            # a prefix, as their times and indices require.
            last = slices.pop()
            first, members, index0 = last.first, last.members, last.base
            columns = [np.concatenate((np.frombuffer(old, dtype=new.dtype),
                                       new))
                       for old, new in zip((last.keys, last.times,
                                            last.indices), columns)]
        order = vectorize.stable_order(columns[0])
        keys, times, indices = (array(code, column[order].tobytes())
                                for code, column in zip("qdq", columns))
        slices.append(_Slice(index0, first, float(ts[-1]), keys, times,
                             indices, members))

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
                slices.popleft()
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
