"""Reference implementations the product pipeline is tested against.

:func:`detect_replicas_indexed` is the paper's step 1 written as plainly
as possible: one pass over ``(index, timestamp, data)`` triples, one
masked ``bytes`` key per record, dictionary chaining.  The product
kernels (:func:`~repro.core.replica.detect_replicas_columnar` and
:func:`~repro.core.replica.detect_replicas_vectorized`) must return
byte-identical streams and scan stats on every input; the equivalence
and hypothesis suites compare them against this oracle.

:class:`ReferencePrefixIndex` is the step-2/3 window index as one
``(timestamp, index)`` tuple per record in per-prefix lists; the
product's columnar :class:`~repro.core.streams.PrefixIndex` must answer
every window query identically on time-ordered input.
:class:`ReferenceStreamingHistory` is the same layout for the streaming
detector's step-2 history, member indices and pruning included; the
detector's deque of columnar slices must answer every window query
inside its retention floor identically.

:func:`reference_detect` runs the oracle step 1 and the oracle index
under the product's steps 2 and 3 over a materialized trace, for
whole-pipeline comparisons (library, CLI).

:class:`ReferenceForwardingEngine` is the simulator's forwarding engine
as it was before the resolved-route cache and the allocation-free hot
path: per-hop longest-prefix match with per-probe mask computation
(:func:`lookup_reference`), ``topology.link_between`` resolution, one
closure per scheduled event and a full checksum recompute per tapped
crossing.  The cached :class:`~repro.routing.forwarding.ForwardingEngine`
must produce byte-identical monitor traces, packet audits and
telemetry; the equivalence tests and the simulator throughput benchmark
compare the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from struct import Struct
from typing import Iterable, Iterator

from repro.core.detector import DetectionResult, DetectorConfig
from repro.core.merge import merge_streams
from repro.core.replica import (
    _MIN_CAPTURE,
    _TTL_OFFSET,
    Replica,
    ReplicaError,
    ReplicaScanStats,
    ReplicaStream,
    _finalize,
    _OpenStream,
    mask_mutable_fields,
    stream_sort_key,
)
from repro.core.streams import validate_streams
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.routing.fib import Fib, FibEntry
from repro.routing.forwarding import (
    ForwardingEngine,
    PacketFate,
    _DirectionState,
    _Transit,
)
from repro.routing.topology import Link

_DST_STRUCT = Struct(">I")


def detect_replicas_indexed(
    records: Iterable[tuple[int, float, bytes]],
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
) -> list[ReplicaStream]:
    """Replica detection over ``(index, timestamp, data)`` triples.

    The indices are carried through to the resulting streams untouched, so
    a caller may feed a *subset* of a trace's records (with their original
    global indices) and get streams whose ``member_indices`` line up with
    the full trace.

    Eviction runs on the local scan position, not the carried index; it
    only discards state that could never chain again (older than the
    chaining gap), so its cadence never changes the result.
    """
    if min_ttl_delta < 1:
        raise ReplicaError(f"min_ttl_delta must be >= 1: {min_ttl_delta}")
    if max_replica_gap <= 0:
        raise ReplicaError(f"max_replica_gap must be positive: {max_replica_gap}")

    stats = stats if stats is not None else ReplicaScanStats()
    # key -> most recent singleton observation (index, timestamp, ttl, data)
    singletons: dict[bytes, tuple[int, float, int, bytes]] = {}
    # key -> open multi-replica streams for that key (usually one)
    open_streams: dict[bytes, list[_OpenStream]] = {}
    finished: list[ReplicaStream] = []

    def close_stream(stream: _OpenStream) -> None:
        finished.append(_finalize(stream))

    for position, (index, timestamp, data) in enumerate(records):
        stats.records_scanned += 1
        if len(data) < _MIN_CAPTURE:
            stats.records_skipped_short += 1
            continue
        key = mask_mutable_fields(data)
        ttl = data[_TTL_OFFSET]

        streams = open_streams.get(key)
        if streams is not None:
            attached = False
            for stream in reversed(streams):
                last = stream.last
                if (last.ttl - ttl >= min_ttl_delta
                        and timestamp - last.timestamp <= max_replica_gap):
                    stream.replicas.append(
                        Replica(index=index, timestamp=timestamp, ttl=ttl)
                    )
                    attached = True
                    break
            if attached:
                continue

        previous = singletons.get(key)
        if previous is not None:
            prev_index, prev_time, prev_ttl, prev_data = previous
            if (prev_ttl - ttl >= min_ttl_delta
                    and timestamp - prev_time <= max_replica_gap):
                stream = _OpenStream(
                    key=key,
                    first_data=prev_data,
                    replicas=[
                        Replica(index=prev_index, timestamp=prev_time,
                                ttl=prev_ttl),
                        Replica(index=index, timestamp=timestamp, ttl=ttl),
                    ],
                )
                open_streams.setdefault(key, []).append(stream)
                del singletons[key]
                continue
        singletons[key] = (index, timestamp, ttl, data)

        if eviction_interval and position and position % eviction_interval == 0:
            horizon = timestamp - max_replica_gap
            stale = [k for k, (_, t, _, _) in singletons.items() if t < horizon]
            for k in stale:
                del singletons[k]
            stats.singletons_evicted += len(stale)
            for k in list(open_streams):
                remaining = []
                for stream in open_streams[k]:
                    if stream.last.timestamp < horizon:
                        close_stream(stream)
                    else:
                        remaining.append(stream)
                if remaining:
                    open_streams[k] = remaining
                else:
                    del open_streams[k]

    for streams in open_streams.values():
        for stream in streams:
            close_stream(stream)

    finished.sort(key=stream_sort_key)
    stats.candidate_streams = len(finished)
    return finished


def chunk_triples(chunks) -> Iterator[tuple[int, float, bytes]]:
    """The oracle's ``(index, timestamp, data)`` input from columnar
    chunks, one materialized ``bytes`` per record."""
    for chunk in chunks:
        view = memoryview(chunk.data)
        base = chunk.base_index
        for i, length in enumerate(chunk.lengths):
            offset = chunk.offsets[i]
            yield (base + i, chunk.timestamps[i],
                   bytes(view[offset:offset + length]))


def reference_replicas(trace: Trace, **kwargs) -> list[ReplicaStream]:
    """The oracle step 1 over every record of a materialized trace."""
    return detect_replicas_indexed(
        ((index, record.timestamp, record.data)
         for index, record in enumerate(trace.records)),
        **kwargs,
    )


class ReferencePrefixIndex:
    """Timestamp index of all trace records, bucketed by destination /24.

    Supports the validation query "did any packet to prefix P cross the
    link in [t0, t1] that is not a replica-stream member?" in
    O(log n + answer) time.  Shared by validation (step 2) and merging
    (step 3), which runs the same query over gap intervals.
    """

    def __init__(self, trace: Trace | None = None,
                 prefix_length: int = 24) -> None:
        self.prefix_length = prefix_length
        self._shift = 32 - prefix_length
        # Records arrive time-ordered, so each bucket stays sorted.
        self._by_prefix: dict[int, list[tuple[float, int]]] = {}
        if trace is not None:
            for index, record in enumerate(trace.records):
                self.add_record(index, record.timestamp, record.data)

    def add_record(self, index: int, timestamp: float, data: bytes) -> None:
        """Index one record incrementally (timestamps must be fed in
        non-decreasing order).  Lets the chunked readers build the index
        without ever materializing a full :class:`Trace`."""
        if len(data) < 20:
            return
        dst = int.from_bytes(data[16:20], "big")
        self._by_prefix.setdefault(dst >> self._shift, []).append(
            (timestamp, index)
        )

    def add_chunk(self, chunk) -> None:
        """Index a :class:`~repro.net.columnar.ColumnarChunk` in one pass.

        Destination addresses are decoded straight off the data slab with
        ``unpack_from`` — no per-record slice or ``bytes`` copy.  Feeding
        order across chunks must remain time-ordered, as with
        :meth:`add_record`.
        """
        buf = chunk.data
        timestamps = chunk.timestamps
        offsets = chunk.offsets
        base_index = chunk.base_index
        unpack_dst = _DST_STRUCT.unpack_from
        shift = self._shift
        by_prefix = self._by_prefix
        for i, length in enumerate(chunk.lengths):
            if length < 20:
                continue
            (dst,) = unpack_dst(buf, offsets[i] + 16)
            index = base_index + i
            bucket = by_prefix.get(dst >> shift)
            if bucket is None:
                bucket = by_prefix.setdefault(dst >> shift, [])
            bucket.append((timestamps[i], index))

    def _bucket(self, prefix: IPv4Prefix) -> list[tuple[float, int]]:
        if prefix.length != self.prefix_length:
            raise ValueError(
                f"index is /{self.prefix_length}, got /{prefix.length}"
            )
        return self._by_prefix.get(prefix.network >> (32 - prefix.length), [])

    def records_in_window(
        self, prefix: IPv4Prefix, start: float, end: float
    ) -> list[int]:
        """Indices of records to ``prefix`` with start <= t <= end."""
        bucket = self._bucket(prefix)
        lo = bisect_left(bucket, (start, -1))
        hi = bisect_right(bucket, (end, 1 << 62))
        return [index for _, index in bucket[lo:hi]]

    def has_non_member(
        self,
        prefix: IPv4Prefix,
        start: float,
        end: float,
        members: set[int],
    ) -> bool:
        """True if the window contains a record outside ``members``."""
        return any(
            index not in members
            for index in self.records_in_window(prefix, start, end)
        )


class ReferenceStreamingHistory:
    """The streaming detector's step-2 history as per-/N lists of
    ``(timestamp, index)`` tuples plus the set of stream-member indices.

    Records are appended in time order with rising indices, so each list
    stays sorted and window queries bisect it.  :meth:`prune` drops the
    entries older than a floor, and the members among them.
    """

    def __init__(self) -> None:
        self._by_prefix: dict[int, list[tuple[float, int]]] = {}
        self.members: set[int] = set()

    def add_record(self, index: int, timestamp: float,
                   prefix_net: int) -> None:
        self._by_prefix.setdefault(prefix_net, []).append((timestamp, index))

    def add_member(self, index: int) -> None:
        self.members.add(index)

    def window_has_non_member(self, prefix_net: int, start: float,
                              end: float, before: float = float("inf")
                              ) -> bool:
        """True if a record to ``prefix_net`` with start <= t <= end and
        index below ``before`` is not a member."""
        bucket = self._by_prefix.get(prefix_net, [])
        lo = bisect_left(bucket, (start, -1))
        hi = bisect_right(bucket, (end, 1 << 62))
        return any(index < before and index not in self.members
                   for _, index in bucket[lo:hi])

    def prune(self, floor: float) -> None:
        """Drop every entry with a timestamp below ``floor``."""
        for prefix_net in list(self._by_prefix):
            bucket = self._by_prefix[prefix_net]
            cut = bisect_left(bucket, (floor, -1))
            self.members.difference_update(index for _, index in bucket[:cut])
            if cut == len(bucket):
                del self._by_prefix[prefix_net]
            else:
                del bucket[:cut]

    def indices(self) -> set[int]:
        """Every retained record index."""
        return {index for bucket in self._by_prefix.values()
                for _, index in bucket}

    def prefixes_since(self, horizon: float) -> int:
        """Distinct prefixes with a record at or after ``horizon``."""
        return sum(bucket[-1][0] >= horizon
                   for bucket in self._by_prefix.values())


def reference_detect(trace: Trace,
                     config: DetectorConfig | None = None) -> DetectionResult:
    """Oracle step 1, then :func:`validate_streams` and
    :func:`merge_streams` over the oracle index — what
    :meth:`LoopDetector.detect` must return on ``trace``."""
    config = config or DetectorConfig()
    scan_stats = ReplicaScanStats()
    candidates = reference_replicas(
        trace,
        min_ttl_delta=config.min_ttl_delta,
        max_replica_gap=config.max_replica_gap,
        eviction_interval=config.eviction_interval,
        stats=scan_stats,
    )
    prefix_index = None
    if config.check_prefix_consistency or config.check_gap_consistency:
        prefix_index = ReferencePrefixIndex(trace, config.prefix_length)
    validation = validate_streams(
        candidates,
        trace,
        min_stream_size=config.min_stream_size,
        prefix_length=config.prefix_length,
        check_prefix_consistency=config.check_prefix_consistency,
        prefix_index=prefix_index,
    )
    loops = merge_streams(
        validation.valid,
        trace,
        merge_gap=config.merge_gap,
        prefix_length=config.prefix_length,
        check_gap_consistency=config.check_gap_consistency,
        prefix_index=prefix_index,
        candidates=candidates,
    )
    return DetectionResult(
        trace=trace,
        config=config,
        candidate_streams=candidates,
        validation=validation,
        loops=loops,
        scan_stats=scan_stats,
    )


def lookup_reference(fib: Fib, address: IPv4Address) -> FibEntry | None:
    """Longest-prefix match with per-probe mask computation: the
    pre-optimization :meth:`~repro.routing.fib.Fib.lookup`, returning
    the same entry for any address."""
    value = address.value
    for length in fib._lengths_desc:
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        entry = fib._tables[length].get(value & mask)
        if entry is not None:
            return entry
    return None


class ReferenceForwardingEngine(ForwardingEngine):
    """The forwarding engine without the route cache (see the module
    docstring); its cache counters stay at zero."""

    def _arrive_reference(self, transit: _Transit, router: str) -> None:
        count = transit.visited.get(router, 0) + 1
        transit.visited[router] = count
        if count > 1 and transit.audit is not None:
            transit.audit.looped = True

        entry = lookup_reference(self.bgp.fib(router), transit.packet.ip.dst)
        if entry is None:
            self._finish(transit, router, PacketFate.NO_ROUTE)
            return
        egress = entry.next_hop
        if egress == router:
            self._finish(transit, router, PacketFate.DELIVERED)
            return
        next_router = self.igp.next_hop(router, egress, transit.flow_hash)
        if next_router is None:
            self._finish(transit, router, PacketFate.NO_ROUTE)
            return
        if transit.ttl <= 1:
            self._expire(transit, router)
            return
        link = self.topology.link_between(router, next_router)
        if not link.up:
            # Failure not yet detected by the control plane: black hole.
            self._finish(transit, router, PacketFate.LINK_DOWN)
            return
        self._transmit_reference(transit, router, next_router, link)

    def _transmit_reference(self, transit: _Transit, router: str,
                            next_router: str, link: Link) -> None:
        now = self.scheduler.now
        direction = self._directions.setdefault(
            (router, next_router), _DirectionState()
        )
        queue_delay = max(0.0, direction.next_free - now)
        minute = int(now // 60)
        queue_delays = self._queue_delay_by_minute
        queue_delays[minute] = queue_delays.get(minute, 0.0) + queue_delay
        transmissions = self._transmissions_by_minute
        transmissions[minute] = transmissions.get(minute, 0) + 1
        if queue_delay > link.max_queue_delay:
            self._finish(transit, router, PacketFate.QUEUE_DROP)
            return
        wire_bytes = transit.packet.ip.total_length
        departure = now + queue_delay + link.transmission_delay(wire_bytes)
        direction.next_free = departure

        transit.ttl -= 1
        if transit.audit is not None:
            transit.audit.hops += 1
            if self.record_crossings:
                transit.audit.crossings.append(
                    (departure, link.name, f"{router}->{next_router}",
                     transit.ttl)
                )

        taps = self._taps.get((router, next_router))
        if taps:
            on_wire = self._materialize_reference(transit)
            for tap in taps:
                self.scheduler.schedule_at(
                    departure,
                    lambda cb=tap.callback, t=departure, p=on_wire: cb(t, p),
                )

        arrival = departure + link.propagation_delay
        self.scheduler.schedule_at(
            arrival, lambda tr=transit, r=next_router: self._arrive(tr, r)
        )

    def _materialize_reference(self, transit: _Transit) -> Packet:
        """The packet as it appears on the wire right now, rebuilt from
        scratch: TTL decremented and checksum cleared so serialization
        recomputes it in full."""
        packet = transit.packet
        hops = packet.ip.ttl - transit.ttl
        new_ip = replace(packet.ip, ttl=packet.ip.ttl - hops, checksum=None)
        return Packet(ip=new_ip, l4=packet.l4, payload=packet.payload)

    # Everything scheduled through ``self._arrive`` (injection included)
    # takes the reference path.
    _arrive = _arrive_reference
