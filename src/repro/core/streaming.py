"""Online (streaming) loop detection.

The paper ran its algorithm offline over recorded traces.  An operator
monitoring a live link wants the same result incrementally: feed records
as they are captured, get each routing loop reported shortly after it
ends, with memory bounded by the loop window rather than the trace.

:class:`StreamingLoopDetector` implements the paper's three steps as an
event-driven pipeline:

* replicas chain exactly as offline (masked-byte key, TTL delta >= 2,
  bounded chaining gap), with deadline heaps evicting stale singletons
  and completing quiescent streams;
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
from typing import Callable

from repro.net.addr import IPv4Address
from repro.net.columnar import ColumnarTrace
from repro.obs.perf import NULL_PROFILE
from repro.core import vectorize
from repro.core.detector import DetectorConfig
from repro.core.merge import RoutingLoop
from repro.core.replica import (
    _LENGTH_DTYPES,
    Replica,
    ReplicaStream,
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
class _BulkBatch:
    """Columnar sidecar of singletons inserted by the batched tier.

    A bulk record's singleton never interacts with anything unless a
    later record carries the same masked key — and equal keys always
    hash equal — so the batched tier parks whole chunks of singletons
    here as parallel arrays instead of paying the per-record dict, set,
    and heap maintenance.  Entries are *promoted* into the real
    ``_singletons`` state the moment a later chunk's hash matches (or a
    per-record feed resumes); eviction is a vectorized comparison
    against the ascending ``dl`` column instead of a heap pop.

    Per-record columns cover the WHOLE source chunk (indexed by chunk
    position); ``pf`` is ``-1`` at replayed and promoted (tombstoned)
    positions, so only live bulk entries match a prefix.
    ``hsorted``/``hpos`` cover just the bulk entries: their row hashes
    in sorted order and the chunk position behind each sorted slot.
    """

    keys: bytes        # packed masked rows, ``length`` bytes per record
    ts: object         # float64 record timestamps, ascending
    dl: object         # float64 eviction deadlines (ts + gap), ascending
    ttls: object       # uint8 original TTL column
    pf: object         # int64 dst prefixes; -1 = replayed or tombstoned
    hsorted: object    # uint64 bulk-entry row hashes, sorted
    hpos: object       # chunk position of each ``hsorted`` slot
    dl_last: float     # final deadline (batch is all-dead past this)
    data: object       # the chunk's data slab (kept alive for promotion)
    first: int         # slab offset of chunk record 0
    stride: int
    length: int
    index0: int        # global index of chunk record 0


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

        # Batched-tier sidecar: bulk singletons parked in columnar
        # batches, probed by sorted row hash for cross-chunk matching.
        self._bulk_batches: list[_BulkBatch] = []
        # In-flight chunk columns for mid-chunk merge-window scans: (ts,
        # deadlines, prefixes, bulk mask, index0), valid below _visible.
        self._chunk_scan: tuple | None = None

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
        if self._bulk_batches:
            # A per-record feed probes ``_singletons`` directly; fold the
            # batched tier's sidecar back into the exact state first.
            self._materialize_bulk()
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

        Stride-regular chunks take the batched fast tier
        (:meth:`_process_chunk_batched`): one vectorized pre-pass masks
        the whole slab, hashes every record, and picks out the few
        records that could interact with detector state; everything else
        is bulk-inserted.  The result is byte-identical to a
        record-by-record :meth:`process` feed — same loops, stats,
        eviction cadence, and state — which the equivalence and property
        suites assert.  Irregular chunks (or a numpy-less interpreter)
        fall back to the per-record path: records are fed as zero-copy
        ``memoryview`` slices of the chunk's data slab, and the chaining
        state materializes ``bytes`` only when a stream actually forms.
        """
        if len(chunk) and vectorize.HAVE_NUMPY and chunk.stride is not None:
            loops = self._process_chunk_batched(chunk)
            if loops is not None:
                return loops
        loops = []
        for timestamp, view in chunk.iter_views():
            loops.extend(self.process(timestamp, view))
        return loops

    def _process_chunk_batched(self, chunk) -> list[RoutingLoop] | None:
        """The chunk-level fast tier; ``None`` means "take the fallback".

        The per-record machine does four things per record: validate
        time order, expire due deadlines, append to the /24 history, and
        chain against key-level state.  For a stride-regular chunk the
        first three vectorize, and chaining only matters for records
        that can actually touch state:

        * records whose masked hash repeats within the chunk (the PR 7
          pass-1 filter; equal keys always hash equal, so every
          potential in-chunk pair survives),
        * records whose /24 prefix has an open stream or an open
          (unemitted) loop — key equality implies prefix equality (the
          dst bytes survive masking), so any record that could chain
          against pre-chunk stream state is caught by its prefix.
          Prefixes with only *history* need no replay: plain-history
          records can neither chain nor block a loop — or
        * records whose masked hash matches a pending singleton's (the
          sidecar's sorted hashes, or those of the real ``_singletons``).

        Those "survivors" replay through the exact per-record code.  The
        rest — in steady traffic, nearly everything — are counted in bulk
        stretches bounded by the next due stream/loop deadline or
        survivor, and their singletons parked as one columnar
        :class:`_BulkBatch`.  The chunk's history is one sealed
        :class:`_Slice`, built up front and revealed to window queries
        record by record (``_visible``).  Sidecar entries are *promoted*
        into the exact state the moment a later chunk's hash matches
        (equal keys always hash equal, so no interaction can be missed),
        evicted arithmetically against the ascending deadline column, and
        consulted by ``_singleton_may_merge``/``state_snapshot`` with
        ``now``-aware scans — so loops, stats, eviction cadence, and
        snapshots stay byte-identical to the reference.
        """
        np = vectorize.np
        n = len(chunk)
        if n < 32:
            # The vectorized pre-pass costs more than it saves on tiny
            # chunks; the per-record fallback folds the sidecar back
            # into exact state and stays correct.
            return None
        lengths = chunk.lengths
        length = lengths[0]
        stride = chunk.stride
        if length < _MIN_CAPTURE or stride < length:
            return None
        lengths_np = np.frombuffer(
            lengths, dtype=_LENGTH_DTYPES[lengths.itemsize]
        )
        if not bool((lengths_np == length).all()):
            return None
        ts_np = np.frombuffer(chunk.timestamps, dtype=np.float64, count=n)
        if ts_np[0] < self._now:
            return None  # fallback raises at the offending record
        if n > 1 and bool((np.diff(ts_np) < 0).any()):
            return None

        config = self.config
        gap = config.max_replica_gap

        rows, masked, ttls = vectorize.masked_rows(
            chunk.data, chunk.offsets[0], n, stride, length
        )
        hashes = vectorize.hash_rows(masked)
        prefixes = vectorize.dst_prefixes(masked, self._shift)
        dl_np = ts_np + gap

        _, inverse, counts = np.unique(
            hashes, return_inverse=True, return_counts=True
        )
        replay_np = counts[inverse] > 1
        # Prefix-level gating is reserved for open streams and open
        # loops; pending singletons gate by hash below — in steady
        # traffic nearly every prefix holds *some* singleton, so gating
        # them by prefix would replay everything.
        active = {prefix_net
                  for prefix_net, count in self._open_stream_count.items()
                  if count > 0}
        active.update(self._open_loops)
        if active:
            replay_np |= np.isin(
                prefixes, np.fromiter(active, dtype=np.int64, count=len(active))
            )

        if len(self._bulk_batches) >= 64:
            # Safety valve for feeds whose chunks are much shorter than
            # the chaining gap (hundreds of live batches would make the
            # per-chunk hash probes super-linear): fold the sidecar back
            # into exact state and start fresh.  Promotion preserves
            # byte-identical behavior; only the speedup degrades.
            self._materialize_bulk()
        if self._bulk_batches:
            # Records matching a sidecar singleton's hash replay through
            # the exact machine, and every matching sidecar entry is
            # promoted into the real state first so the probes see it.
            # A hash collision just promotes and replays spuriously —
            # both harmless.  Dead (evicted) entries stay parked.
            now = self._now
            minimum = np.minimum
            for batch in self._bulk_batches:
                if batch.dl_last <= now:
                    continue  # all evicted; retired by the end-of-chunk GC
                hsorted = batch.hsorted
                slots = np.searchsorted(hsorted, hashes)
                hits = hsorted[minimum(slots, len(hsorted) - 1)] == hashes
                if bool(hits.any()):
                    replay_np |= hits
                    for slot in np.unique(slots[hits]).tolist():
                        pos = int(batch.hpos[slot])
                        if batch.pf[pos] >= 0 and batch.dl[pos] > now:
                            self._promote(batch, pos)

        # Likewise records hashing like a REAL-state singleton (replay-
        # inserted or just promoted).  Probing at chunk start
        # over-approximates: a singleton evicted or consumed mid-chunk,
        # or a hash collision, just costs a harmless extra replay.
        keys = [key for key in self._singletons if len(key) == length]
        if keys:
            probe = np.sort(vectorize.hash_rows(np.frombuffer(
                b"".join(keys), dtype=np.uint8).reshape(len(keys), length)))
            slots = np.minimum(np.searchsorted(probe, hashes), len(keys) - 1)
            replay_np |= probe[slots] == hashes

        # Per-record python values, materialized once at C speed.
        ts_list = ts_np.tolist()
        ttl_list = ttls.tolist()
        masked_bytes = masked.tobytes()
        bulk_mask = ~replay_np
        view = memoryview(chunk.data)
        first = chunk.offsets[0]
        index0 = self._index
        self._index = index0 + n

        # The chunk's history slice, hidden from window queries until
        # each record's turn comes.
        if self._tail is not None:
            self._seal_tail()
        order = np.argsort(prefixes, kind="stable")
        self._slices.append(_Slice(
            index0, ts_list[0], ts_list[-1],
            array("q", prefixes[order].tobytes()),
            array("d", ts_np[order].tobytes()),
            array("q", (order + index0).tobytes()), set(),
        ))
        self._visible = index0

        replay_positions = replay_np.nonzero()[0].tolist()
        replay_positions.append(n)
        rpi = 0

        emitted: list[RoutingLoop] = []
        self._emitted = emitted
        stats = self.stats
        stream_deadlines = self._stream_deadlines
        loop_deadlines = self._loop_deadlines
        # Bulk singletons inserted so far this chunk (indices below
        # _visible) are visible to mid-chunk merge-window scans through
        # these columns before the batch object exists.
        self._chunk_scan = (ts_np, dl_np, prefixes, bulk_mask, index0)

        pos = 0
        while pos < n:
            # A bulk stretch runs until the next stream/loop deadline or
            # replay survivor.  Singleton evictions never break
            # stretches: real-heap entries are drained lazily at the next
            # event (and at chunk end), and sidecar entries are evicted
            # arithmetically — indistinguishable from the reference,
            # because a pending-eviction key can only be probed or
            # re-inserted by a replayed record, and
            # ``_singleton_may_merge`` only runs inside loop-close events
            # after the drain.
            stop = n
            bound = None
            if stream_deadlines:
                bound = stream_deadlines[0][0]
            if loop_deadlines and (bound is None
                                   or loop_deadlines[0][0] < bound):
                bound = loop_deadlines[0][0]
            if bound is not None:
                stop = bisect_left(ts_list, bound, pos)
            if replay_positions[rpi] < stop:
                stop = replay_positions[rpi]

            if stop > pos:
                # Bulk records: only counters update here; the singleton
                # bookkeeping is deferred to the sidecar batch built at
                # chunk end.  Nothing in a stretch can pair, complete,
                # or expire before ``stop``.
                stats.records += stop - pos
                self._deadline_seq += stop - pos
                self._now = ts_list[stop - 1]
                pos = stop
                continue

            # Event record: replicate process() exactly — expire with
            # the history visible up to (not including) this record,
            # then chain (or count a deferred bulk insert when the
            # record only stopped here for a deadline).
            timestamp = ts_list[pos]
            self._now = timestamp
            stats.records += 1
            self._visible = index0 + pos
            self._expire(timestamp)
            if pos == replay_positions[rpi]:
                rpi += 1
                off = first + pos * stride
                key_off = pos * length
                self._chain(index0 + pos, timestamp,
                            view[off:off + length],
                            key=masked_bytes[key_off:key_off + length],
                            ttl=ttl_list[pos])
            else:
                self._deadline_seq += 1
            pos += 1

        # Park this chunk's bulk singletons as one columnar batch.  The
        # per-record columns stay full-chunk (replay positions read -1
        # in ``pf``, so they are dead by construction); only the hash
        # probe columns are compacted to the bulk entries.
        if bool(bulk_mask.any()):
            bulk_hashes = hashes[bulk_mask]
            order = np.argsort(bulk_hashes)
            batch = _BulkBatch(
                keys=masked_bytes,
                ts=ts_np,
                dl=dl_np,
                ttls=ttls,
                pf=np.where(bulk_mask, prefixes, np.int64(-1)),
                hsorted=bulk_hashes[order],
                hpos=bulk_mask.nonzero()[0][order],
                dl_last=float(dl_np[-1]),
                data=chunk.data,
                first=first,
                stride=stride,
                length=length,
                index0=index0,
            )
            self._bulk_batches.append(batch)
        self._chunk_scan = None
        self._visible = float("inf")

        # Catch-up drain: the reference ran the singleton sweep at every
        # record, so by the last record everything due has been evicted.
        now = self._now
        self._evict_singletons(now)

        # Retire batches whose every entry is past its deadline, and
        # history no query can reach any more.
        batches = self._bulk_batches
        while batches and batches[0].dl_last <= now:
            batches.pop(0)
        if now > self._prune_at:
            self._prune_history(now)
        return emitted

    # -- batched-tier sidecar ---------------------------------------------------

    def _promote(self, batch: _BulkBatch, pos: int) -> None:
        """Move one live sidecar singleton into the exact per-record
        state (dict, prefix set, deadline heap), tombstoning the sidecar
        entry.  The heap push is valid at any time: heap operations
        never assume global ordering of pushed values."""
        length = batch.length
        key_off = pos * length
        key = batch.keys[key_off:key_off + length]
        index = batch.index0 + pos
        off = batch.first + pos * batch.stride
        data = memoryview(batch.data)[off:off + length]
        self._singletons[key] = (
            index, float(batch.ts[pos]), int(batch.ttls[pos]), data
        )
        self._singleton_prefixes.setdefault(
            int(batch.pf[pos]), set()
        ).add(key)
        heapq.heappush(
            self._singleton_deadlines, (float(batch.dl[pos]), key, index)
        )
        batch.pf[pos] = -1

    def _materialize_bulk(self) -> None:
        """Promote every live sidecar singleton into the exact state —
        a per-record feed (or snapshot restore) is about to probe
        ``_singletons`` directly."""
        np = vectorize.np
        now = self._now
        for batch in self._bulk_batches:
            start = int(np.searchsorted(batch.dl, now, side="right"))
            live = np.flatnonzero(batch.pf[start:] >= 0)
            for pos in (live + start).tolist():
                self._promote(batch, pos)
        self._bulk_batches.clear()

    def _bulk_live_count(self) -> int:
        """Sidecar singletons still pending eviction at ``_now``."""
        np = vectorize.np
        now = self._now
        count = 0
        for batch in self._bulk_batches:
            start = int(np.searchsorted(batch.dl, now, side="right"))
            if start < len(batch.pf):
                count += int((batch.pf[start:] >= 0).sum())
        return count

    def _bulk_singleton_may_merge(self, prefix_net: int, horizon: float,
                                  now: float) -> bool:
        """Sidecar arm of :meth:`_singleton_may_merge`: scan parked
        batches (and the in-flight chunk's columns) for a live singleton
        on this prefix inside the merge window.  Tombstoned entries have
        ``pf == -1`` and can never match a real prefix."""
        np = vectorize.np
        for batch in self._bulk_batches:
            start = int(np.searchsorted(batch.dl, now, side="right"))
            if start == len(batch.pf):
                continue
            if bool(((batch.pf[start:] == prefix_net)
                     & (batch.ts[start:] < horizon)).any()):
                return True
        scan = self._chunk_scan
        if scan is not None:
            ts_np, dl_np, prefixes, bulk_mask, index0 = scan
            upto = self._visible - index0
            if upto and bool((bulk_mask[:upto]
                              & (prefixes[:upto] == prefix_net)
                              & (dl_np[:upto] > now)
                              & (ts_np[:upto] < horizon)).any()):
                return True
        return False

    def flush(self) -> list[RoutingLoop]:
        """End of input: complete every open stream and close every loop."""
        self._emitted = []
        self._expire(float("inf"))
        if self._bulk_batches:
            # Every sidecar singleton is past its deadline at +inf —
            # the arithmetic twin of the eviction sweep above.
            self._bulk_batches.clear()
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
            "singletons": len(self._singletons) + self._bulk_live_count(),
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

    def _chain(self, index: int, timestamp: float, data: bytes,
               key: bytes | None = None, ttl: int | None = None) -> None:
        config = self.config
        if key is None:
            # The batched tier passes the key and TTL it already
            # extracted from the masked slab; the per-record path
            # computes them here.
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
                    self._add_member(index)
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
                self._open_streams.setdefault(key, []).append(stream)
                del self._singletons[key]
                prefix_net = self._prefix_net(prev_data)
                self._drop_singleton_key(prefix_net, key)
                self._open_stream_count[prefix_net] = (
                    self._open_stream_count.get(prefix_net, 0) + 1
                )
                self._add_member(prev_index)
                self._add_member(index)
                self._push_stream_deadline(stream)
                return

        self._singletons[key] = (index, timestamp, ttl, data)
        self._singleton_prefixes.setdefault(
            self._prefix_net(data), set()
        ).add(key)
        self._deadline_seq += 1
        heapq.heappush(
            self._singleton_deadlines,
            (timestamp + config.max_replica_gap, key, index),
        )

    def _prefix_net(self, data: bytes) -> int:
        return int.from_bytes(data[16:20], "big") >> self._shift

    def _add_member(self, index: int) -> None:
        # Records join streams within the chaining gap, so the member's
        # slice is nearly always the newest or the one before.
        for piece in reversed(self._slices):
            if piece.base <= index:
                piece.members.add(index)
                return

    def _push_stream_deadline(self, stream: _OpenStream) -> None:
        self._deadline_seq += 1
        heapq.heappush(
            self._stream_deadlines,
            (stream.last.timestamp + self.config.max_replica_gap,
             self._deadline_seq, stream),
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

        Checks the exact per-record state first, then the batched tier's
        sidecar, whose entries are live while their deadline is still
        ahead of ``now``.
        """
        horizon = loop.end + self.config.merge_gap
        if any(self._singletons[key][1] < horizon
               for key in self._singleton_prefixes.get(prefix_net, ())):
            return True
        if self._bulk_batches or self._chunk_scan is not None:
            return self._bulk_singleton_may_merge(prefix_net, horizon, now)
        return False

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
