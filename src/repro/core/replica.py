"""Step 1 — replica detection.

Two captured packets are replicas of one looping packet when (Sec. IV-A.1):

* their bytes are identical except for the TTL and IP header checksum
  fields (offsets 8 and 10–11 of the IP header);
* the later packet's TTL is lower by at least ``min_ttl_delta`` (2 — a
  loop needs at least two routers);
* their payloads are identical — with a 40-byte snaplen this is implied by
  byte equality of the captured suffix, which includes the TCP/UDP
  checksum exactly as the paper argues.

A chain of such pairs is a *replica stream*: one packet's repeated
crossings of the monitored link.  Detection is a single streaming pass;
singletons older than the chaining gap are evicted periodically so memory
is bounded by the loop window, not the trace length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mode

from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.net.trace import Trace

#: Wire offsets of the fields a loop legitimately changes.
_TTL_OFFSET = 8
_CHECKSUM_OFFSET = 10

#: Minimum captured bytes for a record to be considered (a full IP header).
_MIN_CAPTURE = 20


class ReplicaError(ValueError):
    """Raised for invalid detection parameters."""


@dataclass(slots=True, frozen=True)
class Replica:
    """One observation of a looping packet on the monitored link."""

    index: int
    timestamp: float
    ttl: int


@dataclass(slots=True)
class ReplicaStream:
    """All observations of one unique packet caught in a loop."""

    key: bytes
    replicas: list[Replica]
    src: IPv4Address
    dst: IPv4Address
    protocol: int
    first_data: bytes

    @property
    def size(self) -> int:
        """Number of replicas (Fig. 3's x-axis)."""
        return len(self.replicas)

    @property
    def start(self) -> float:
        return self.replicas[0].timestamp

    @property
    def end(self) -> float:
        return self.replicas[-1].timestamp

    @property
    def duration(self) -> float:
        """Time between first and last replica (Fig. 8's x-axis)."""
        return self.end - self.start

    @property
    def first_ttl(self) -> int:
        return self.replicas[0].ttl

    @property
    def last_ttl(self) -> int:
        return self.replicas[-1].ttl

    def ttl_deltas(self) -> list[int]:
        """Per-step TTL decrements along the stream."""
        return [
            earlier.ttl - later.ttl
            for earlier, later in zip(self.replicas, self.replicas[1:])
        ]

    @property
    def ttl_delta(self) -> int:
        """The stream's characteristic TTL delta — the number of routers
        in the loop (Fig. 2's x-axis).  The modal per-step decrement, so a
        loop that changes size mid-stream reports its dominant size."""
        deltas = self.ttl_deltas()
        if not deltas:
            raise ReplicaError("singleton stream has no TTL delta")
        return mode(deltas)

    def spacings(self) -> list[float]:
        """Per-step inter-replica times."""
        return [
            later.timestamp - earlier.timestamp
            for earlier, later in zip(self.replicas, self.replicas[1:])
        ]

    @property
    def mean_spacing(self) -> float:
        """Average inter-replica spacing — one loop round-trip (Fig. 4)."""
        spacings = self.spacings()
        if not spacings:
            raise ReplicaError("singleton stream has no spacing")
        return sum(spacings) / len(spacings)

    def dst_prefix(self, length: int = 24) -> IPv4Prefix:
        """The destination prefix used for validation and merging."""
        return self.dst.prefix(length)

    def member_indices(self) -> set[int]:
        return {replica.index for replica in self.replicas}


@dataclass(slots=True)
class _OpenStream:
    """Builder state for a stream still accepting replicas."""

    key: bytes
    first_data: bytes
    replicas: list[Replica]

    @property
    def last(self) -> Replica:
        return self.replicas[-1]


def mask_mutable_fields(data: bytes) -> bytes:
    """Zero the TTL and IP-checksum bytes; everything else must match.

    One mutable copy patched in place (two allocations) instead of the
    four-slice concatenation (six) this used to be; accepts any buffer
    (``bytes``, ``bytearray``, ``memoryview``), so the columnar paths can
    pass record views without materializing them first.
    """
    masked = bytearray(data)
    masked[_TTL_OFFSET] = 0
    masked[_CHECKSUM_OFFSET] = 0
    masked[_CHECKSUM_OFFSET + 1] = 0
    return bytes(masked)


@dataclass(slots=True)
class ReplicaScanStats:
    """Bookkeeping from one detection pass."""

    records_scanned: int = 0
    records_skipped_short: int = 0
    singletons_evicted: int = 0
    candidate_streams: int = 0


def detect_replicas(
    trace: Trace,
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
) -> list[ReplicaStream]:
    """Scan ``trace`` and return all candidate replica streams (size >= 2).

    ``min_ttl_delta`` is the paper's "TTL values differ by at least two";
    ``max_replica_gap`` bounds the time between consecutive replicas of
    one stream so that identical packets hours apart never chain (loop
    round-trips are milliseconds).  The trace is converted with
    :meth:`~repro.net.columnar.ColumnarTrace.from_trace` and scanned by
    the same kernel every other entry point runs.
    """
    return detect_replicas_with_kernel(
        ColumnarTrace.from_trace(trace),
        min_ttl_delta=min_ttl_delta,
        max_replica_gap=max_replica_gap,
        eviction_interval=eviction_interval,
        stats=stats,
    )


def _evict_stale(singletons, open_streams, horizon, finished) -> int:
    """The eviction pass, shared by both kernel tiers.

    Drops singletons last seen before ``horizon`` and closes open
    streams whose newest replica predates it.  Returns the number of
    singletons evicted (the pass's ``singletons_evicted`` delta).
    """
    stale = [k for k, entry in singletons.items() if entry[1] < horizon]
    for k in stale:
        del singletons[k]
    for k in list(open_streams):
        remaining = []
        for stream in open_streams[k]:
            if stream.replicas[-1].timestamp < horizon:
                finished.append(_finalize(stream))
            else:
                remaining.append(stream)
        if remaining:
            open_streams[k] = remaining
        else:
            del open_streams[k]
    return len(stale)


def _scan_regular_segment(
    records,
    masked: bytes,
    length: int,
    buf_id: int,
    buffers: list,
    singletons: dict,
    open_streams: dict,
    min_ttl_delta: int,
    max_replica_gap: float,
) -> None:
    """Tight inner loop over one eviction-free run of a regular chunk.

    ``records`` yields ``(local_offset, timestamp, index, ttl)``;
    ``masked`` is the chunk region with every record's TTL and checksum
    already zeroed, so the masked key is one ``bytes`` slice.  No
    position tracking, no length checks, no eviction tests — the caller
    guarantees uniform record length >= IP header size and no eviction
    boundary inside the segment.

    Singletons store ``buf_id`` (an index into ``buffers``) rather than
    the buffer itself: a tuple of scalars is untracked by the cyclic GC
    after its first collection, while one holding a memoryview keeps
    ~every record's tuple on the GC's walk list — measurably doubling
    kernel time on large traces.
    """
    singletons_get = singletons.get
    open_streams_get = open_streams.get
    setdefault = open_streams.setdefault
    replica = Replica
    for local, timestamp, index, ttl in records:
        key = masked[local:local + length]

        if open_streams:
            streams = open_streams_get(key)
            if streams is not None:
                attached = False
                for stream in reversed(streams):
                    last = stream.replicas[-1]
                    if (last.ttl - ttl >= min_ttl_delta
                            and timestamp - last.timestamp
                            <= max_replica_gap):
                        stream.replicas.append(
                            replica(index, timestamp, ttl)
                        )
                        attached = True
                        break
                if attached:
                    continue

        previous = singletons_get(key)
        if previous is not None:
            if (previous[2] - ttl >= min_ttl_delta
                    and timestamp - previous[1] <= max_replica_gap):
                prev_index, prev_time, prev_ttl, prev_buf, prev_off = \
                    previous
                prev_raw = buffers[prev_buf]
                setdefault(key, []).append(_OpenStream(
                    key=key,
                    first_data=bytes(
                        prev_raw[prev_off:prev_off + length]
                    ),
                    replicas=[
                        replica(prev_index, prev_time, prev_ttl),
                        replica(index, timestamp, ttl),
                    ],
                ))
                del singletons[key]
                continue
        singletons[key] = (index, timestamp, ttl, buf_id, local)


def _scan_boundary_record(
    local: int,
    timestamp: float,
    index: int,
    ttl: int,
    masked: bytes,
    length: int,
    buf_id: int,
    buffers: list,
    singletons: dict,
    open_streams: dict,
    finished: list,
    min_ttl_delta: int,
    max_replica_gap: float,
) -> int:
    """One record sitting exactly on an eviction boundary.

    Same record logic as the tight segment loop, plus the eviction
    pass — which fires only when the record falls through to the
    singleton store, as in the per-record loop of
    :func:`detect_replicas_columnar`.
    Returns the number of singletons evicted.
    """
    key = masked[local:local + length]
    streams = open_streams.get(key)
    if streams is not None:
        for stream in reversed(streams):
            last = stream.replicas[-1]
            if (last.ttl - ttl >= min_ttl_delta
                    and timestamp - last.timestamp <= max_replica_gap):
                stream.replicas.append(Replica(index, timestamp, ttl))
                return 0
    previous = singletons.get(key)
    if previous is not None:
        prev_index, prev_time, prev_ttl, prev_buf, prev_off = previous
        if (prev_ttl - ttl >= min_ttl_delta
                and timestamp - prev_time <= max_replica_gap):
            prev_raw = buffers[prev_buf]
            open_streams.setdefault(key, []).append(_OpenStream(
                key=key,
                first_data=bytes(prev_raw[prev_off:prev_off + length]),
                replicas=[
                    Replica(prev_index, prev_time, prev_ttl),
                    Replica(index, timestamp, ttl),
                ],
            ))
            del singletons[key]
            return 0
    singletons[key] = (index, timestamp, ttl, buf_id, local)
    return _evict_stale(singletons, open_streams,
                        timestamp - max_replica_gap, finished)


def detect_replicas_columnar(
    chunks,
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
) -> list[ReplicaStream]:
    """The batched step-1 kernel over columnar chunks.

    Behaviourally identical to a plain per-record scan of the same
    records (the equivalence suites compare it against the reference
    oracle in ``tests/oracles.py``), but batched: for a chunk whose
    producer declared a uniform record ``stride``, the whole region is
    copied once into a ``bytearray``, every record's TTL column is
    pulled out with one strided slice, and all TTL/checksum bytes are
    zeroed with three C-speed strided slice assignments — so the
    per-record cost collapses to one ``bytes`` slice for the masked key
    plus the dictionary probes.  Eviction
    boundaries are computed up front and the runs between them scan in
    a loop with no position arithmetic at all.

    Chunks without a declared stride (or with mixed record lengths, or
    records too short for an IP header) fall back to a per-record loop
    with a reusable masking scratch — same results, just slower.

    ``chunks`` is an iterable of :class:`~repro.net.columnar.
    ColumnarChunk` (or a :class:`~repro.net.columnar.ColumnarTrace`).
    Eviction runs every ``eviction_interval`` scanned records and only
    discards state that could never chain again (older than the
    chaining gap), so its cadence never changes the result.
    """
    if min_ttl_delta < 1:
        raise ReplicaError(f"min_ttl_delta must be >= 1: {min_ttl_delta}")
    if max_replica_gap <= 0:
        raise ReplicaError(f"max_replica_gap must be positive: {max_replica_gap}")
    if hasattr(chunks, "chunks"):
        chunks = chunks.chunks

    stats = stats if stats is not None else ReplicaScanStats()
    # key -> most recent singleton observation, shaped
    # (index, timestamp, ttl, buf_id, offset) — buf_id indexes
    # ``buffers`` and the pair defers materializing first_data until a
    # stream actually forms.  Scalars only: see _scan_regular_segment on
    # why the tuple must stay GC-untrackable.
    singletons: dict[bytes, tuple] = {}
    open_streams: dict[bytes, list[_OpenStream]] = {}
    finished: list[ReplicaStream] = []
    buffers: list = []

    scratch = bytearray(40)
    position = -1
    skipped_short = 0
    evicted = 0

    for chunk in chunks:
        timestamps = chunk.timestamps
        n = len(timestamps)
        if not n:
            continue
        buf = chunk.data
        offsets = chunk.offsets
        lengths = chunk.lengths
        stride = chunk.stride
        index_src = range(chunk.base_index, chunk.base_index + n)
        length = lengths[0]
        chunk_start = position + 1

        if (stride is not None and length >= _MIN_CAPTURE
                and stride >= length
                and min(lengths) == max(lengths)):
            # Regular chunk: bulk-mask the whole region at C speed.
            first = offsets[0]
            region_end = first + (n - 1) * stride + length
            raw = buf[first:region_end]
            buf_id = len(buffers)
            buffers.append(raw)
            masked = bytearray(raw)
            last_local = (n - 1) * stride
            ttls = bytes(masked[8:last_local + 9:stride])
            zeros = bytes(n)
            masked[8:last_local + 9:stride] = zeros
            masked[10:last_local + 11:stride] = zeros
            masked[11:last_local + 12:stride] = zeros
            masked = bytes(masked)
            # Record j starts at local offset j * stride — iterate a
            # range instead of shifting the offsets column per record.
            locals_range = range(0, n * stride, stride)

            if eviction_interval:
                first_multiple = (-(-chunk_start // eviction_interval)
                                  * eviction_interval) or eviction_interval
                boundaries = range(first_multiple - chunk_start, n,
                                   eviction_interval)
            else:
                boundaries = ()
            seg_start = 0
            for boundary in boundaries:
                if boundary > seg_start:
                    _scan_regular_segment(
                        zip(locals_range[seg_start:boundary],
                            timestamps[seg_start:boundary],
                            index_src[seg_start:boundary],
                            ttls[seg_start:boundary]),
                        masked, length, buf_id, buffers, singletons,
                        open_streams, min_ttl_delta, max_replica_gap,
                    )
                evicted += _scan_boundary_record(
                    locals_range[boundary], timestamps[boundary],
                    index_src[boundary], ttls[boundary],
                    masked, length, buf_id, buffers, singletons,
                    open_streams, finished, min_ttl_delta,
                    max_replica_gap,
                )
                seg_start = boundary + 1
            if seg_start == 0:
                _scan_regular_segment(
                    zip(locals_range, timestamps, index_src, ttls),
                    masked, length, buf_id, buffers, singletons,
                    open_streams, min_ttl_delta, max_replica_gap,
                )
            elif seg_start < n:
                _scan_regular_segment(
                    zip(locals_range[seg_start:], timestamps[seg_start:],
                        index_src[seg_start:], ttls[seg_start:]),
                    masked, length, buf_id, buffers, singletons,
                    open_streams, min_ttl_delta, max_replica_gap,
                )
            position = chunk_start + n - 1
            continue

        # Irregular chunk (no declared stride, mixed lengths, or
        # sub-IP-header records): per-record masking into a scratch.
        # Singletons store buf_id, never the memoryview itself — both so
        # the tuple stays GC-untrackable and so a singleton stored here
        # can be promoted by the regular path (and vice versa).
        view = memoryview(buf)
        buf_id = len(buffers)
        buffers.append(view)
        singletons_get = singletons.get
        open_streams_get = open_streams.get
        replica = Replica
        for i in range(n):
            position += 1
            length = lengths[i]
            if length < _MIN_CAPTURE:
                skipped_short += 1
                continue
            offset = offsets[i]
            end = offset + length
            if len(scratch) != length:
                scratch = bytearray(length)
            scratch[:] = view[offset:end]
            scratch[8] = 0
            scratch[10] = 0
            scratch[11] = 0
            key = bytes(scratch)
            ttl = view[offset + 8]
            timestamp = timestamps[i]
            index = index_src[i]

            streams = open_streams_get(key)
            if streams is not None:
                attached = False
                for stream in reversed(streams):
                    last = stream.replicas[-1]
                    if (last.ttl - ttl >= min_ttl_delta
                            and timestamp - last.timestamp
                            <= max_replica_gap):
                        stream.replicas.append(
                            replica(index, timestamp, ttl)
                        )
                        attached = True
                        break
                if attached:
                    continue

            previous = singletons_get(key)
            if previous is not None:
                prev_index, prev_time, prev_ttl, prev_buf, prev_off = \
                    previous
                if (prev_ttl - ttl >= min_ttl_delta
                        and timestamp - prev_time <= max_replica_gap):
                    prev_raw = buffers[prev_buf]
                    open_streams.setdefault(key, []).append(_OpenStream(
                        key=key,
                        first_data=bytes(
                            prev_raw[prev_off:prev_off + length]
                        ),
                        replicas=[
                            replica(prev_index, prev_time, prev_ttl),
                            replica(index, timestamp, ttl),
                        ],
                    ))
                    del singletons[key]
                    continue
            singletons[key] = (index, timestamp, ttl, buf_id, offset)

            if (eviction_interval and position
                    and position % eviction_interval == 0):
                evicted += _evict_stale(
                    singletons, open_streams,
                    timestamp - max_replica_gap, finished,
                )

    for streams in open_streams.values():
        for stream in streams:
            finished.append(_finalize(stream))

    stats.records_scanned += position + 1
    stats.records_skipped_short += skipped_short
    stats.singletons_evicted += evicted
    finished.sort(key=stream_sort_key)
    stats.candidate_streams = len(finished)
    return finished


#: The step-1 implementations.  ``auto`` — what every product entry
#: point runs — resolves to ``vectorized`` when numpy imports and to
#: its pure-python fallback ``columnar`` otherwise.
KERNEL_TIERS = ("auto", "columnar", "vectorized")

#: numpy dtype per column itemsize, for viewing ``array``/``memoryview``
#: length columns without copying.
_LENGTH_DTYPES = {1: "u1", 2: "u2", 4: "u4", 8: "u8"}


def resolve_kernel(kernel: str) -> str:
    """Map a kernel tier name to the concrete tier that will run."""
    if kernel not in KERNEL_TIERS:
        raise ReplicaError(
            f"unknown kernel {kernel!r} (choose from "
            f"{', '.join(KERNEL_TIERS)})"
        )
    if kernel == "auto":
        from repro.core import vectorize

        return "vectorized" if vectorize.HAVE_NUMPY else "columnar"
    return kernel


def detect_replicas_with_kernel(
    chunks,
    kernel: str = "auto",
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
    profile=None,
) -> list[ReplicaStream]:
    """Run step 1 over columnar chunks.

    Both tiers produce byte-identical streams and stats; ``kernel``
    selects only the implementation and defaults to ``auto``.

    ``profile`` (a :class:`~repro.obs.perf.PipelineProfile`) records one
    ``step1.kernel.<tier>`` span per call, labeled with the *resolved*
    tier so an ``auto`` run shows which implementation actually ran.
    """
    resolved = resolve_kernel(kernel)
    if profile is None:
        from repro.obs.perf import NULL_PROFILE

        profile = NULL_PROFILE
    before = stats.records_scanned if stats is not None else 0
    implementation = (detect_replicas_columnar if resolved == "columnar"
                      else detect_replicas_vectorized)
    with profile.stage(f"step1.kernel.{resolved}") as span:
        streams = implementation(
            chunks,
            min_ttl_delta=min_ttl_delta,
            max_replica_gap=max_replica_gap,
            eviction_interval=eviction_interval,
            stats=stats,
        )
        if stats is not None:
            span.add(records=stats.records_scanned - before)
    return streams


def detect_replicas_vectorized(
    chunks,
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
) -> list[ReplicaStream]:
    """The numpy-vectorized step-1 kernel.

    Byte-identical to :func:`detect_replicas_columnar` (and to the
    reference oracle) on the same records (streams *and* stats), but
    the per-record Python work collapses to two passes:

    **Pass 1 (vectorized).**  Each regular chunk's slab is viewed as an
    ``(n, length)`` uint8 matrix via the declared stride, copied
    contiguous once, and masked with three whole-column assignments;
    the TTL column falls out of the same matrix as one slice.  Every
    masked record is hashed with one vectorized pass
    (:func:`~repro.core.vectorize.hash_rows`), and an argsort-based
    group-by over the hashes (``np.unique``) finds the records whose
    masked key appears more than once.  Only those *survivors* — a tiny
    fraction of any real trace — can ever attach, pair, or occupy a
    singleton slot that matters.  Irregular chunks are masked per
    record but hashed in the same bulk passes (grouped by record
    length), so survivors are found across chunk kinds.

    A hash collision can only create a *false* survivor (pass 2 uses
    exact byte keys), never lose a real one: equal keys always hash
    equal.  False survivors behave exactly as they would in a
    per-record scan — they just cost a dictionary probe each.

    **Pass 2 (exact).**  The per-record chaining logic replays over the
    survivors alone, interleaved — in global scan order — with the
    eviction boundaries a per-record scan would have hit: a non-survivor
    landing on a ``position % eviction_interval == 0`` boundary always
    takes the singleton-insert path (its key is globally unique), so
    its boundary always fires; a survivor's boundary fires only when
    its replayed disposition is singleton-insert, exactly like the
    per-record loop's ``continue`` structure.  Evictions of the
    (unmaterial) non-survivor singletons are counted vectorially afterwards from the
    fired ``(position, horizon)`` events, so ``singletons_evicted``
    matches a per-record scan exactly.

    Falls back wholesale to :func:`detect_replicas_columnar` when numpy
    is absent or no chunk has a regular layout (the pure-python kernel
    is faster than per-record numpy hashing there) — same output either
    way.
    """
    if min_ttl_delta < 1:
        raise ReplicaError(f"min_ttl_delta must be >= 1: {min_ttl_delta}")
    if max_replica_gap <= 0:
        raise ReplicaError(f"max_replica_gap must be positive: {max_replica_gap}")
    from repro.core import vectorize

    np = vectorize.np
    if hasattr(chunks, "chunks"):
        chunks = chunks.chunks
    chunks = list(chunks)

    regular_flags = []
    if np is not None:
        for chunk in chunks:
            lengths = chunk.lengths
            n = len(lengths)
            flag = False
            if n:
                length = lengths[0]
                stride = chunk.stride
                if (stride is not None and length >= _MIN_CAPTURE
                        and stride >= length):
                    lengths_np = np.frombuffer(
                        lengths, dtype=_LENGTH_DTYPES[lengths.itemsize]
                    )
                    flag = bool((lengths_np == length).all())
            regular_flags.append(flag)
    if np is None or not any(regular_flags):
        return detect_replicas_columnar(
            chunks,
            min_ttl_delta=min_ttl_delta,
            max_replica_gap=max_replica_gap,
            eviction_interval=eviction_interval,
            stats=stats,
        )

    stats = stats if stats is not None else ReplicaScanStats()
    hash_parts = []
    ts_parts = []
    ok_parts = []
    #: Per non-empty chunk: ("r", chunk, masked_matrix, ttl_column) or
    #: ("i", chunk, keys_list, None).
    infos: list[tuple] = []
    chunk_starts: list[int] = []
    #: record length -> ([global position], [key bytes]) for bulk
    #: hashing of irregular records after the chunk loop.
    pending: dict[int, tuple[list, list]] = {}
    total = 0
    skipped_short = 0

    for chunk, flag in zip(chunks, regular_flags):
        timestamps = chunk.timestamps
        n = len(timestamps)
        if not n:
            continue
        chunk_starts.append(total)
        ts_parts.append(np.frombuffer(timestamps, dtype=np.float64, count=n))
        offsets = chunk.offsets
        lengths = chunk.lengths
        if flag:
            length = lengths[0]
            stride = chunk.stride
            first = offsets[0]
            span = (n - 1) * stride + length
            region = np.frombuffer(chunk.data, dtype=np.uint8,
                                   offset=first, count=span)
            rows = np.lib.stride_tricks.as_strided(
                region, shape=(n, length), strides=(stride, 1)
            )
            # .copy() (not ascontiguousarray) — the region buffer is
            # read-only and an already-contiguous view would be
            # returned as-is.
            masked = rows.copy()
            ttls = masked[:, _TTL_OFFSET].copy()
            masked[:, _TTL_OFFSET] = 0
            masked[:, _CHECKSUM_OFFSET] = 0
            masked[:, _CHECKSUM_OFFSET + 1] = 0
            hash_parts.append(vectorize.hash_rows(masked))
            ok_parts.append(np.ones(n, dtype=bool))
            infos.append(("r", chunk, masked, ttls))
        else:
            view = memoryview(chunk.data)
            keys: list = [None] * n
            ok = np.zeros(n, dtype=bool)
            scratch = bytearray(40)
            for i in range(n):
                length = lengths[i]
                if length < _MIN_CAPTURE:
                    skipped_short += 1
                    continue
                offset = offsets[i]
                if len(scratch) != length:
                    scratch = bytearray(length)
                scratch[:] = view[offset:offset + length]
                scratch[_TTL_OFFSET] = 0
                scratch[_CHECKSUM_OFFSET] = 0
                scratch[_CHECKSUM_OFFSET + 1] = 0
                key = bytes(scratch)
                keys[i] = key
                ok[i] = True
                bucket = pending.get(length)
                if bucket is None:
                    bucket = pending[length] = ([], [])
                bucket[0].append(total + i)
                bucket[1].append(key)
            hash_parts.append(np.zeros(n, dtype=np.uint64))
            ok_parts.append(ok)
            infos.append(("i", chunk, keys, None))
        total += n

    stats.records_scanned += total
    stats.records_skipped_short += skipped_short

    hashes = np.concatenate(hash_parts)
    ok_all = np.concatenate(ok_parts)
    ts_all = np.concatenate(ts_parts)
    for length, (positions, keys) in pending.items():
        key_rows = np.frombuffer(
            b"".join(keys), dtype=np.uint8
        ).reshape(len(keys), length)
        hashes[np.asarray(positions, dtype=np.intp)] = \
            vectorize.hash_rows(key_rows)

    _, inverse, counts = np.unique(
        hashes, return_inverse=True, return_counts=True
    )
    keep = (counts[inverse] > 1) & ok_all
    survivors = np.flatnonzero(keep)

    if eviction_interval:
        boundaries = np.arange(eviction_interval, total,
                               eviction_interval, dtype=np.intp)
        # A non-survivor on a boundary always singleton-inserts (its
        # key is unique), so its eviction fires iff it is long enough
        # to be scanned at all; survivor boundaries replay in pass 2.
        static_events = boundaries[ok_all[boundaries] & ~keep[boundaries]]
    else:
        static_events = np.empty(0, dtype=np.intp)

    starts = np.asarray(chunk_starts, dtype=np.intp)
    surv_chunk = np.searchsorted(starts, survivors, side="right") - 1
    surv_local = survivors - starts[surv_chunk]

    singletons: dict[bytes, tuple] = {}
    open_streams: dict[bytes, list[_OpenStream]] = {}
    finished: list[ReplicaStream] = []
    #: Eviction events that fired, as (position, horizon), in scan
    #: order — replayed over the non-survivors afterwards.
    fired: list[tuple[int, float]] = []
    evicted = 0

    def record_bytes(ci: int, li: int) -> bytes:
        chunk = infos[ci][1]
        offset = chunk.offsets[li]
        return bytes(
            memoryview(chunk.data)[offset:offset + chunk.lengths[li]]
        )

    static_list = static_events.tolist()
    n_static = len(static_list)
    si = 0
    for g, ci, li in zip(survivors.tolist(), surv_chunk.tolist(),
                         surv_local.tolist()):
        while si < n_static and static_list[si] < g:
            p = static_list[si]
            horizon = float(ts_all[p]) - max_replica_gap
            evicted += _evict_stale(singletons, open_streams, horizon,
                                    finished)
            fired.append((p, horizon))
            si += 1
        kind, chunk = infos[ci][0], infos[ci][1]
        if kind == "r":
            key = infos[ci][2][li].tobytes()
            ttl = int(infos[ci][3][li])
        else:
            key = infos[ci][2][li]
            ttl = chunk.data[chunk.offsets[li] + _TTL_OFFSET]
        timestamp = chunk.timestamps[li]
        index = chunk.base_index + li

        streams = open_streams.get(key)
        if streams is not None:
            attached = False
            for stream in reversed(streams):
                last = stream.replicas[-1]
                if (last.ttl - ttl >= min_ttl_delta
                        and timestamp - last.timestamp <= max_replica_gap):
                    stream.replicas.append(Replica(index, timestamp, ttl))
                    attached = True
                    break
            if attached:
                continue

        previous = singletons.get(key)
        if previous is not None:
            prev_index, prev_time, prev_ttl, prev_ci, prev_li = previous
            if (prev_ttl - ttl >= min_ttl_delta
                    and timestamp - prev_time <= max_replica_gap):
                open_streams.setdefault(key, []).append(_OpenStream(
                    key=key,
                    first_data=record_bytes(prev_ci, prev_li),
                    replicas=[
                        Replica(prev_index, prev_time, prev_ttl),
                        Replica(index, timestamp, ttl),
                    ],
                ))
                del singletons[key]
                continue
        singletons[key] = (index, timestamp, ttl, ci, li)

        if eviction_interval and g and g % eviction_interval == 0:
            horizon = timestamp - max_replica_gap
            evicted += _evict_stale(singletons, open_streams, horizon,
                                    finished)
            fired.append((g, horizon))

    while si < n_static:
        p = static_list[si]
        horizon = float(ts_all[p]) - max_replica_gap
        evicted += _evict_stale(singletons, open_streams, horizon, finished)
        fired.append((p, horizon))
        si += 1

    if fired:
        # Each non-survivor singleton (never materialized) is evicted by
        # the first fired event after its insertion whose horizon passes
        # its timestamp — count them without ever building the dict.
        ns_pos = np.flatnonzero(ok_all & ~keep)
        if len(ns_pos):
            ns_ts = ts_all[ns_pos]
            ns_evicted = np.zeros(len(ns_pos), dtype=bool)
            for p, horizon in fired:
                newly = ~ns_evicted & (ns_pos < p) & (ns_ts < horizon)
                count = int(newly.sum())
                if count:
                    evicted += count
                    ns_evicted |= newly

    for streams in open_streams.values():
        for stream in streams:
            finished.append(_finalize(stream))

    stats.singletons_evicted += evicted
    finished.sort(key=stream_sort_key)
    stats.candidate_streams = len(finished)
    return finished


def stream_sort_key(stream: ReplicaStream) -> tuple[float, int]:
    """Total order on streams: start time, ties broken by the first
    replica's record index (unique across streams).  Both step-1 kernels
    and the merge sort with it, so every path produces byte-identical
    candidate lists."""
    return (stream.start, stream.replicas[0].index)


def _finalize(stream: _OpenStream) -> ReplicaStream:
    data = stream.first_data
    return ReplicaStream(
        key=stream.key,
        replicas=stream.replicas,
        src=IPv4Address.from_bytes(data[12:16]),
        dst=IPv4Address.from_bytes(data[16:20]),
        protocol=data[9],
        first_data=data,
    )
