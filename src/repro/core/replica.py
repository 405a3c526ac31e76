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
crossings of the monitored link.  Detection is defined as a single pass
over the records that evicts singletons older than the chaining gap
every ``eviction_interval`` records (the oracle in ``tests/oracles.py``).
Its one implementation here is a chaining engine over the records whose
masked key repeats (:func:`_replay_survivors`), with that eviction
exact inside it; the streaming detector runs the same engine once on
each chunk it is fed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from statistics import mode
from typing import NamedTuple

import numpy as np

from repro.core import vectorize
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


class Replica(NamedTuple):
    """One observation of a looping packet on the monitored link.

    A named tuple of three scalars: a loop storm builds hundreds of
    thousands of them, and a tuple is several times cheaper to make
    than a frozen dataclass (:data:`_new_replica`).  Like any tuple it
    equals the plain ``(index, timestamp, ttl)`` tuple, orders by its
    fields and unpacks.
    """

    index: int
    timestamp: float
    ttl: int


#: ``Replica`` from an ``(index, timestamp, ttl)`` tuple without a
#: Python-level ``__new__`` call.
_new_replica = partial(tuple.__new__, Replica)


class ReplicaStream:
    """All observations of one unique packet caught in a loop.

    Its fields are ``key`` (the masked first record), ``replicas``,
    ``src``, ``dst``, ``protocol`` and ``first_data``.  A stream that
    :class:`StreamTable` hands out reads its table row instead: its
    ``key``, ``replicas``, ``src`` and ``dst`` are built on first
    access, and until then the scalar properties read the table's
    columns.  Streams compare equal by their fields either way.
    """

    __slots__ = ("protocol", "first_data", "_key", "_replicas", "_src",
                 "_dst", "_table", "_row")
    __hash__ = None  # equal by value, and its replica list is mutable

    def __init__(self, key: bytes, replicas: list[Replica],
                 src: IPv4Address, dst: IPv4Address, protocol: int,
                 first_data: bytes) -> None:
        self._key = key
        self._replicas = replicas
        self._src = src
        self._dst = dst
        self.protocol = protocol
        self.first_data = first_data
        self._table = None

    @classmethod
    def _from_table(cls, table: "StreamTable", row: int) -> "ReplicaStream":
        data = table.first_data[row]
        stream = cls(None, None, None, None, data[9], data)
        stream._table = table
        stream._row = row
        return stream

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._key = mask_mutable_fields(self.first_data)
        return self._key

    @property
    def replicas(self) -> list[Replica]:
        if self._replicas is None:
            self._replicas = self._table.replicas_of(self._row)
        return self._replicas

    @property
    def src(self) -> IPv4Address:
        if self._src is None:
            self._src = IPv4Address.from_bytes(self.first_data[12:16])
        return self._src

    @property
    def dst(self) -> IPv4Address:
        if self._dst is None:
            self._dst = IPv4Address.from_bytes(self.first_data[16:20])
        return self._dst

    def _fields(self) -> tuple:
        return (self.key, self.replicas, self.src, self.dst, self.protocol,
                self.first_data)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = ("key", "replicas", "src", "dst", "protocol", "first_data")
        return "ReplicaStream(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, self._fields())
        ) + ")"

    @property
    def size(self) -> int:
        """Number of replicas (Fig. 3's x-axis)."""
        if self._replicas is None:
            return self._table.size[self._row].item()
        return len(self._replicas)

    @property
    def start(self) -> float:
        if self._replicas is None:
            return self._table.start[self._row].item()
        return self._replicas[0].timestamp

    @property
    def end(self) -> float:
        if self._replicas is None:
            return self._table.end[self._row].item()
        return self._replicas[-1].timestamp

    @property
    def duration(self) -> float:
        """Time between first and last replica (Fig. 8's x-axis)."""
        return self.end - self.start

    @property
    def first_ttl(self) -> int:
        if self._replicas is None:
            return self._table.first_ttl[self._row].item()
        return self._replicas[0].ttl

    @property
    def last_ttl(self) -> int:
        if self._replicas is None:
            return self._table.last_ttl[self._row].item()
        return self._replicas[-1].ttl

    def ttl_deltas(self) -> list[int]:
        """Per-step TTL decrements along the stream."""
        if self._replicas is None:
            ttls = self._table.row_slice("ttl", self._row)
            return (ttls[:-1] - ttls[1:]).tolist()
        return [
            earlier.ttl - later.ttl
            for earlier, later in zip(self.replicas, self.replicas[1:])
        ]

    @property
    def ttl_delta(self) -> int:
        """The stream's characteristic TTL delta — the number of routers
        in the loop (Fig. 2's x-axis).  The modal per-step decrement, so a
        loop that changes size mid-stream reports its dominant size;
        ties go to the decrement seen first."""
        if self._table is not None:
            return _table_ttl_deltas(self._table, [self._row])[0]
        deltas = self.ttl_deltas()
        if not deltas:
            raise ReplicaError("singleton stream has no TTL delta")
        return mode(deltas)

    def spacings(self) -> list[float]:
        """Per-step inter-replica times."""
        if self._replicas is None:
            times = self._table.row_slice("timestamp", self._row)
            return (times[1:] - times[:-1]).tolist()
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


class StreamTable(Sequence):
    """Candidate replica streams as numpy columns: what step 1 hands to
    steps 2 and 3.

    One row per stream, in :func:`stream_sort_key` order.  Per stream
    ``k``: ``start``, ``end``, ``size``, ``first_ttl``, ``last_ttl``,
    ``first_index`` (its first record's index), ``dst`` (its destination
    address as an int; :meth:`prefixes` gives the /N) and
    ``first_data[k]`` (its first record's bytes; ``first_data`` is any
    sequence that makes them).  Its replicas are rows
    ``bounds[k]`` to ``bounds[k + 1] - 1`` of the replica columns
    ``index`` (record index), ``timestamp`` and ``ttl``.  The column
    :attr:`ttl_delta` is made on first access.

    As a read-only sequence (``len()``, iteration, indexing; a slice is
    a list) the table yields :class:`ReplicaStream` objects, each made
    once, on first access.
    """

    def __init__(self, bounds, index, timestamp, ttl, first_data,
                 dst, streams: list | None = None) -> None:
        self.bounds = bounds
        self.index = index
        self.timestamp = timestamp
        self.ttl = ttl
        self.first_data = first_data
        self.dst = dst
        firsts, lasts = bounds[:-1], bounds[1:] - 1
        self.start = timestamp[firsts]
        self.end = timestamp[lasts]
        self.size = bounds[1:] - firsts
        self.first_ttl = ttl[firsts]
        self.last_ttl = ttl[lasts]
        self.first_index = index[firsts]
        self._streams = streams or [None] * len(first_data)
        self._ttl_delta = None

    @classmethod
    def from_streams(cls, streams) -> "StreamTable":
        """The table of ``streams`` (in the order given), handing out
        the very same objects."""
        streams = list(streams)
        rows = [replica for stream in streams for replica in stream.replicas]
        index, timestamp, ttl = zip(*rows) if rows else ((), (), ())
        sizes = [len(stream.replicas) for stream in streams]
        return cls(
            np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            np.array(index, dtype=np.int64),
            np.array(timestamp, dtype=np.float64),
            np.array(ttl, dtype=np.int16),
            [stream.first_data for stream in streams],
            np.array([stream.dst.value for stream in streams],
                     dtype=np.int64),
            streams,
        )

    def __len__(self) -> int:
        return len(self._streams)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(self.stream, range(len(self))[k]))
        return self.stream(range(len(self))[k])

    def __iter__(self):
        return map(self.stream, range(len(self)))

    def __repr__(self) -> str:
        return f"<StreamTable: {len(self)} streams>"

    def stream(self, row: int) -> ReplicaStream:
        """The stream in row ``row`` (a non-negative int), made on first
        access."""
        stream = self._streams[row]
        if stream is None:
            stream = self._streams[row] = ReplicaStream._from_table(self, row)
        return stream

    @property
    def ttl_delta(self):
        """Each stream's :attr:`ReplicaStream.ttl_delta` (0 for a stream
        of one replica, which has none), from one sort of every step's
        TTL decrement by stream and value."""
        if self._ttl_delta is None:
            self._ttl_delta = _modal_decrements(self.bounds, self.ttl)
        return self._ttl_delta

    def prefixes(self, length: int):
        """Each stream's destination /``length`` prefix as an int."""
        return self.dst >> (32 - length)

    def record_indices(self, rows):
        """The record index of every replica of the streams ``rows``."""
        return self.index[vectorize.ranges(self.bounds[rows],
                                           self.size[rows])]

    def row_slice(self, column: str, row: int):
        """Stream ``row``'s replicas in the replica column ``column``."""
        return getattr(self, column)[self.bounds[row]:self.bounds[row + 1]]

    def replicas_of(self, row: int) -> list[Replica]:
        return list(map(_new_replica, zip(
            self.row_slice("index", row).tolist(),
            self.row_slice("timestamp", row).tolist(),
            self.row_slice("ttl", row).tolist(),
        )))


class StreamRows(Sequence):
    """A read-only sequence of some rows of a :class:`StreamTable`, in
    the order of ``rows``.  Streams are made only when read; it equals
    any list or :class:`StreamRows` of equal streams."""

    __hash__ = None

    def __init__(self, table: StreamTable, rows) -> None:
        self.table = table
        self.rows = rows

    def column(self, name: str):
        """The table's per-stream column ``name``, one value per row."""
        return getattr(self.table, name)[self.rows]

    @property
    def size(self):
        """The streams' sizes, one per row."""
        return self.column("size")

    def __eq__(self, other):
        if not isinstance(other, (list, StreamRows)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(self.table.stream, self.rows[k].tolist()))
        return self.table[int(self.rows[k])]

    def __iter__(self):
        return map(self.table.stream, self.rows.tolist())

    def __repr__(self) -> str:
        return f"<StreamRows: {len(self)} of {len(self.table)} streams>"


def _modal_decrements(bounds, ttl):
    """Per stream ``k`` (replicas ``bounds[k]`` to ``bounds[k + 1] -
    1`` of the ``ttl`` column): the most common TTL decrement between
    consecutive replicas, ties to the one seen first, as
    ``statistics.mode`` resolves them; 0 for a stream of one replica.

    One stable sort of the steps by (stream, decrement) makes runs of
    equal decrements, each run's first step its first occurrence; per
    stream, the run with the most steps wins, then the earliest.
    """
    steps = np.maximum(np.diff(bounds) - 1, 0)
    modes = np.zeros(len(steps), dtype=np.int64)
    at = vectorize.ranges(bounds[:-1], steps)
    n = len(at)
    if not n:
        return modes
    delta = ttl[at].astype(np.int64) - ttl[at + 1]
    stream = np.repeat(np.arange(len(steps), dtype=np.int64), steps)
    low = int(delta.min())
    key = stream * (int(delta.max()) - low + 1) + (delta - low)
    order = np.argsort(key, kind="stable")
    key = key[order]
    runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    first = order[runs]
    # Most steps first, then the earliest step: one score per run.
    score = np.diff(np.append(runs, n)) * (n + 1) + (n - first)
    stream = stream[first]
    cuts = np.flatnonzero(np.concatenate(([True],
                                          stream[1:] != stream[:-1])))
    best = np.maximum.reduceat(score, cuts)
    modes[stream[cuts]] = delta[n - best % (n + 1)]
    return modes


def _table_ttl_deltas(table: StreamTable, rows) -> list[int]:
    """The :attr:`ReplicaStream.ttl_delta` of the streams ``rows`` of
    ``table``, read off its column."""
    if (table.size[rows] < 2).any():
        raise ReplicaError("singleton stream has no TTL delta")
    return table.ttl_delta[rows].tolist()


def table_rows(streams) -> tuple[StreamTable, object]:
    """``(table, rows)`` for a :class:`StreamRows`, a whole
    :class:`StreamTable`, or any other sequence of streams (tabled with
    :meth:`StreamTable.from_streams`)."""
    if isinstance(streams, StreamRows):
        return streams.table, streams.rows
    if not isinstance(streams, StreamTable):
        streams = StreamTable.from_streams(streams)
    return streams, np.arange(len(streams))


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
) -> StreamTable:
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


def _check_parameters(min_ttl_delta, max_replica_gap,
                      eviction_interval) -> None:
    if min_ttl_delta < 1:
        raise ReplicaError(f"min_ttl_delta must be >= 1: {min_ttl_delta}")
    if max_replica_gap <= 0:
        raise ReplicaError(f"max_replica_gap must be positive: {max_replica_gap}")
    if eviction_interval < 0:
        raise ReplicaError(
            f"eviction_interval must be >= 0 (0: never): {eviction_interval}"
        )


#: The step-1 implementations.  ``auto`` — what every product entry
#: point runs — resolves to ``vectorized``, the one kernel.
KERNEL_TIERS = ("auto", "vectorized")

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
        return "vectorized"
    return kernel


def _regular_length(chunk) -> int | None:
    """The record length of a chunk that can be viewed as one strided
    matrix (a declared stride, every record that long, and at least a
    full IP header), else ``None``."""
    lengths = chunk.lengths
    stride = chunk.stride
    if stride is None or not len(lengths):
        return None
    length = lengths[0]
    if length < _MIN_CAPTURE or stride < length:
        return None
    lengths_np = np.frombuffer(lengths,
                               dtype=_LENGTH_DTYPES[lengths.itemsize])
    return length if bool((lengths_np == length).all()) else None


def detect_replicas_vectorized(
    chunks,
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
) -> StreamTable:
    """The step-1 kernel every entry point runs.

    Returns the candidates as a :class:`StreamTable`, built straight
    from the survivor columns with no object per replica.  Its streams
    and stats are byte-identical to the reference oracle's
    (``tests/oracles.py``) on the same records, in any timestamp order,
    and the per-record Python work collapses to two passes:

    **Pass 1 (vectorized).**  Every record's masked key is hashed
    straight off its chunk's slab
    (:func:`~repro.core.vectorize.hash_rows`): one strided pass per
    regular chunk, one gather per record length for the others.  One
    sort of the truncated hashes (:func:`~repro.core.vectorize.shared`)
    finds the *survivors*, the records whose masked key may appear more
    than once, already grouped by truncated hash and in scan order
    within a group.  Only they can ever chain.  A hash collision,
    truncated or not, can only add a false survivor or mix keys in a
    group, never lose a real one: equal keys always hash equal.

    **Pass 2 (grouped exact replay).**  Each group's masked keys are
    checked word by word (:func:`_sort_survivors`), and the survivors
    are chained per group rather than in scan order
    (:func:`_replay_survivors`): an exact group whose consecutive pairs
    all chain is one stream, one where none chains makes none, and only
    mixed groups and groups that mix keys run the per-record chaining,
    per masked key (:func:`_replay_group`).  A false survivor alone in
    its group makes no stream.  The scan's eviction is settled inside
    the replay (:func:`_replay_evicting`).
    """
    _check_parameters(min_ttl_delta, max_replica_gap, eviction_interval)
    if hasattr(chunks, "chunks"):
        chunks = chunks.chunks
    chunks = [chunk for chunk in chunks if len(chunk.timestamps)]
    stats = stats if stats is not None else ReplicaScanStats()
    if not chunks:
        stats.candidate_streams = 0
        return StreamTable.from_streams(())
    ts_all = np.concatenate([
        np.frombuffer(chunk.timestamps, dtype=np.float64,
                      count=len(chunk.timestamps))
        for chunk in chunks
    ])

    hashes, ok_all, skipped_short = _hash_chunks(chunks)
    order, keys = vectorize.shared(hashes)
    del hashes
    if skipped_short:
        scanned = ok_all[order]
        order, keys = order[scanned], keys[scanned]
    keep = np.zeros(len(ts_all), dtype=bool)
    keep[order] = True
    survivors = _sort_survivors(chunks, order, keys, ts_all)
    del order, keys
    streams, evicted = _replay_evicting(
        survivors, ok_all, keep, ts_all, min_ttl_delta, max_replica_gap,
        eviction_interval,
    )
    finished = _build_table(chunks, survivors, streams)

    stats.records_scanned += len(ts_all)
    stats.records_skipped_short += skipped_short
    stats.singletons_evicted += evicted
    stats.candidate_streams = len(finished)
    return finished


def _column(values):
    """A chunk's ``offsets`` or ``lengths`` column as a zero-copy numpy
    array."""
    return np.frombuffer(values, dtype=_LENGTH_DTYPES[values.itemsize])


def _by_length(lengths, rows):
    """The int array ``rows`` split by record length ``lengths[row]``:
    ``(rows, length)`` per distinct length, ``rows`` in the order
    given."""
    if not len(rows):
        return
    lens = lengths[rows]
    if lens.min() == lens.max():
        yield rows, int(lens[0])
        return
    order = vectorize.stable_order(lens)
    rows, lens = rows[order], lens[order]
    cuts = (np.flatnonzero(lens[1:] != lens[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [len(rows)]):
        yield rows[a:b], int(lens[a])


def _hash_chunks(chunks):
    """Pass 1: hash every record's masked key off its chunk's slab.

    Returns ``(hashes, ok, skipped_short)``: one hash per record (0 for
    a record too short to scan), whether each record is long enough to
    scan, and how many are not.  A regular chunk is hashed in one
    strided pass; the records of any other chunk are gathered, one
    matrix per record length, and that matrix is hashed.
    """
    hash_parts = []
    ok_parts = []
    for chunk in chunks:
        n = len(chunk.timestamps)
        length = _regular_length(chunk)
        if length is not None:
            hash_parts.append(vectorize.hash_rows(
                chunk.data, chunk.offsets[0], n, chunk.stride, length))
            ok_parts.append(np.ones(n, dtype=bool))
            continue
        lengths = _column(chunk.lengths)
        ok = lengths >= _MIN_CAPTURE
        hashes = np.zeros(n, dtype=np.uint64)
        offsets = _column(chunk.offsets)
        for rows, length in _by_length(lengths, np.flatnonzero(ok)):
            keys = vectorize.gather(chunk.data, offsets[rows], length)
            hashes[rows] = vectorize.hash_rows(keys, 0, len(rows), length,
                                               length)
        hash_parts.append(hashes)
        ok_parts.append(ok)
    ok = np.concatenate(ok_parts)
    return (np.concatenate(hash_parts), ok,
            len(ok) - int(np.count_nonzero(ok)))


#: Survivor rows compared at a time in the key check: bounds that
#: check's transient whatever the number of survivors.
_BLOCK = 1 << 15


class _Survivors(NamedTuple):
    """The survivors grouped by truncated hash and in scan order within
    a group, one column each: rows ``group_start[g]`` to
    ``group_end[g] - 1`` share the truncated hash ``group_key[g]``."""

    position: object  # scan position
    timestamp: object
    ttl: object
    index: object  # record index (base_index + row in chunk)
    group_start: object
    group_end: object
    group_key: object
    #: Per group: whether all its masked keys are equal.
    exact: object
    #: Per group that is not exact: its rows' masked keys.
    collision_keys: dict


def _sort_survivors(chunks, order, keys, ts_all):
    """Gather the survivor columns and check each group's keys.

    ``order`` and ``keys`` are :func:`~repro.core.vectorize.shared`'s
    grouping of the survivors: their scan positions, group by group and
    ascending within a group, and each one's truncated hash.  A group is
    exact when all its masked keys are equal; records of different
    lengths, or of different keys whose truncated hashes agree, make it
    a collision group, chained per masked key by the replay.

    Only survivor records are read from the slabs, in ascending scan
    position per chunk: their TTLs and lengths, and their masked keys a
    word at a time (:func:`~repro.core.vectorize.key_word`), each row's
    compared with its predecessor's in group order.
    """
    n_surv = len(order)
    is_start = np.ones(n_surv, dtype=bool)
    is_start[1:] = keys[1:] != keys[:-1]
    group_start = np.flatnonzero(is_start)
    group_end = (np.append(group_start[1:], n_surv) if n_surv
                 else group_start)

    # Scan-order columns, read chunk by chunk; ``rank`` takes them to
    # group order.
    kept = np.zeros(len(ts_all), dtype=bool)
    kept[order] = True
    survivors = np.flatnonzero(kept)
    del kept
    slot = np.empty(len(ts_all), dtype=np.int32)
    slot[survivors] = np.arange(n_surv, dtype=np.int32)
    rank = slot[order].astype(np.intp)
    del slot
    starts = np.cumsum([0] + [len(chunk.timestamps) for chunk in chunks])
    cuts = np.searchsorted(survivors, starts).tolist()
    surv_off = np.empty(n_surv, dtype=np.int64)
    surv_len = np.empty(n_surv, dtype=np.int64)
    surv_ttl = np.empty(n_surv, dtype=np.int16)
    surv_index = np.empty(n_surv, dtype=np.int64)
    slabs = []  # (chunk, slab, rows of the slab, survivor slots, length)
    for ci, chunk in enumerate(chunks):
        lo, hi = cuts[ci], cuts[ci + 1]
        if lo == hi:
            continue
        rows = survivors[lo:hi] - starts[ci]
        surv_off[lo:hi] = _column(chunk.offsets)[rows]
        surv_len[lo:hi] = _column(chunk.lengths)[rows]
        surv_ttl[lo:hi] = np.frombuffer(chunk.data, dtype=np.uint8)[
            surv_off[lo:hi] + _TTL_OFFSET]
        surv_index[lo:hi] = rows + chunk.base_index
        length = _regular_length(chunk)
        if length is not None:
            slabs.append((chunk, (chunk.offsets[0], len(chunk.timestamps),
                                  chunk.stride), rows, slice(lo, hi), length))
            continue
        # Records at any offsets are the rows of the stride-1 slab.
        for slots, length in _by_length(surv_len, np.arange(lo, hi)):
            slabs.append((chunk, (0, len(chunk.data) - length + 1, 1),
                          surv_off[slots], slots, length))

    # Each row is compared with its predecessor in its group.
    differ = np.zeros(n_surv, dtype=bool)

    def check(column):
        """Mark the rows whose value in the scan-order ``column``
        differs from their predecessor's in group order."""
        for a in range(1, n_surv, _BLOCK):
            values = np.take(column, rank[a - 1:a + _BLOCK])
            differ[a:a + _BLOCK] |= values[1:] != values[:-1]

    check(surv_len)
    word = np.empty(n_surv, dtype=np.uint64)
    for w in range(-(-int(surv_len.max(initial=0)) // 8)):
        for chunk, slab, rows, slots, length in slabs:
            word[slots] = vectorize.key_word(chunk.data, *slab, length, w,
                                             rows)
        check(word)
    del word
    differ[group_start] = False
    exact = (~np.logical_or.reduceat(differ, group_start) if n_surv
             else np.empty(0, dtype=bool))

    def masked_key(slot):
        at = rank[slot]
        offset = surv_off[at]
        chunk = chunks[np.searchsorted(starts, survivors[at],
                                       side="right") - 1]
        return mask_mutable_fields(memoryview(chunk.data)[
            offset:offset + surv_len[at]])

    collision_keys = {
        g: list(map(masked_key, range(group_start[g], group_end[g])))
        for g in np.flatnonzero(~exact).tolist()
    }
    return _Survivors(
        position=order, timestamp=ts_all[order], ttl=np.take(surv_ttl, rank),
        index=np.take(surv_index, rank), group_start=group_start,
        group_end=group_end, group_key=keys[group_start], exact=exact,
        collision_keys=collision_keys,
    )


def _replay_survivors(survivors, total, min_ttl_delta, max_replica_gap, *,
                      fired=None, live=False, seeds=None):
    """The step-1 chaining engine: chain each group of survivors.

    Eviction takes one of three rules.  By default nothing is evicted.
    With ``fired``, the ``(positions, horizons)`` of the eviction
    boundaries that fire, an entry is gone for a record once a boundary
    between them has a horizon above the entry's timestamp (offline).
    With ``live``, an entry is gone once a record reaches its deadline,
    ``timestamp + max_replica_gap`` (the streaming detector's rule).

    ``seeds`` carries chaining state in from earlier input:
    ``(times, ttls, states)``.  ``times`` and ``ttls`` are the columns of
    extra rows numbered from ``len(survivors.position)``, at scan
    position -1.  ``states`` maps a group to its starting state, ``{key:
    [singleton row or None, [member rows of each open stream]]}``, keyed
    ``None`` in an exact group and by masked key in a collision group.
    Seeded groups are replayed record by record.

    Returns ``(streams, inserted, removal, links)``.  ``streams`` is
    ``(firsts, ends, replayed)``: the first and end rows of the groups
    that are one stream each, and the member rows of each stream out of
    the per-record replay (a seeded open stream's start with its extra
    row, extended or not).  ``inserted`` marks the rows stored as
    singletons, and ``removal`` is the scan position of the record that
    takes each out of the store (``total``: none does).  ``links`` is
    the ``(earlier rows, later rows)`` pair of every chain made.
    """
    s = survivors
    n_surv = len(s.position)
    starts, ends = s.group_start, s.group_end
    sizes = ends - starts
    position, timestamp, ttl = s.position, s.timestamp, s.ttl
    is_start = np.zeros(n_surv, dtype=bool)
    is_start[starts] = True
    chains = ((~is_start[1:])
              & (ttl[:-1] - ttl[1:] >= min_ttl_delta)
              & (timestamp[1:] - timestamp[:-1] <= max_replica_gap))
    if live:
        chains &= timestamp[:-1] + max_replica_gap > timestamp[1:]
    elif fired is not None:
        chains &= ~_evicted_before(*fired, position[:-1], timestamp[:-1],
                                   position[1:])
    chained = np.concatenate(([0], np.cumsum(chains)))
    group_links = chained[ends - 1] - chained[starts]
    simple = s.exact.copy()
    extra_times, extra_ttls, states = seeds if seeds else ((), (), {})
    simple[list(states)] = False
    chain_all = simple & (sizes >= 2) & (group_links == sizes - 1)
    chain_none = simple & (group_links == 0)
    row_all = np.repeat(chain_all, sizes)
    linked = np.flatnonzero(chains & row_all[1:])

    # In a chain-all group only the first record is a singleton insert,
    # in a chain-none group every record is; either way the next record
    # of the group removes it.
    size = n_surv + len(extra_times)
    inserted = np.zeros(size, dtype=bool)
    inserted[:n_surv] = (is_start & row_all) | np.repeat(chain_none, sizes)
    removal = np.full(size, total, dtype=np.int64)
    if n_surv:
        removal[:n_surv - 1] = np.where(is_start[1:], total, position[1:])
    replayed: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    mixed = np.flatnonzero(~(chain_all | chain_none)).tolist()
    if mixed:
        columns = (position.tolist() + [-1] * len(extra_times),
                   timestamp.tolist() + list(extra_times),
                   ttl.tolist() + list(extra_ttls))
        dead = None
        if live:
            times = columns[1]

            def dead(e, k):
                return times[e] + max_replica_gap <= times[k]
        elif fired is not None:
            dead = _passed_by(fired, columns)
        for g in mixed:
            a, b = int(starts[g]), int(ends[g])
            removal[a:b] = total
            _replay_group(a, b, s.collision_keys.get(g), columns,
                          min_ttl_delta, max_replica_gap, inserted,
                          removal, pairs, replayed, states.get(g, {}),
                          dead)
    q, r = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    links = (np.concatenate((linked, q)), np.concatenate((linked + 1, r)))
    streams = (starts[chain_all], ends[chain_all], replayed)
    return streams, inserted, removal, links


def _replay_group(a, b, keys, columns, min_ttl_delta, max_replica_gap,
                  inserted, removal, pairs, streams, state, dead) -> None:
    """The per-record chaining over sorted survivor rows ``a..b-1``.

    Rows are one key's records in scan order, or, when ``keys`` (their
    masked bytes) is given, a hash collision's records, chained per
    key.  ``state`` is the starting state per key (see
    :func:`_replay_survivors`), and ``dead(e, k)``, when given, tells
    whether entry ``e`` is evicted before row ``k``.  Marks ``inserted``
    and ``removal`` for each singleton, appends ``(row chained to,
    row)`` to ``pairs`` and each stream's member rows to ``streams``.
    """
    positions, times, ttls = columns
    for k in range(a, b):
        key = None if keys is None else keys[k - a]
        entry = state.get(key)
        if entry is None:
            entry = state[key] = [None, []]
        single, opened = entry
        ttl = ttls[k]
        timestamp = times[k]
        for members in reversed(opened):
            last = members[-1]
            if (ttls[last] - ttl >= min_ttl_delta
                    and timestamp - times[last] <= max_replica_gap
                    and (dead is None or not dead(last, k))):
                members.append(k)
                pairs.append((last, k))
                break
        else:
            if single is not None:
                removal[single] = positions[k]
                if (ttls[single] - ttl >= min_ttl_delta
                        and timestamp - times[single] <= max_replica_gap
                        and (dead is None or not dead(single, k))):
                    opened.append([single, k])
                    pairs.append((single, k))
                    entry[0] = None
                    continue
            entry[0] = k
            inserted[k] = True
    for _, opened in state.values():
        streams.extend(opened)


def _replay_evicting(survivors, ok_all, keep, ts_all, min_ttl_delta,
                     max_replica_gap, eviction_interval):
    """Pass 2 with the scan's eviction: ``(streams, singletons_evicted)``.

    Boundary ``p``, every ``eviction_interval``-th scan position, fires
    when record ``p`` is stored as a singleton (a non-survivor always
    is) and evicts every entry older than its horizon ``ts[p] -
    max_replica_gap``.  The replay first ignores eviction.  Eviction
    only drops state, so it changes an outcome only where it drops an
    entry a later record chains to; with time-ordered records that
    cannot happen.  Where a fired boundary passes the earlier entry of
    a chain the replay made (a timestamp regression of more than the
    gap across it, or a float corner of its horizon), the chain is cut:
    the replay runs again with the fired boundaries evicting, until the
    set that fires settles.  Whether boundary ``p`` fires depends only
    on the boundaries before it, so a round that has the first ``k``
    right gets the ``k + 1``-th right, and the rounds end.
    """
    s = survivors
    total = len(ts_all)
    streams, inserted, removal, links = _replay_survivors(
        s, total, min_ttl_delta, max_replica_gap)
    if not eviction_interval or total <= eviction_interval:
        return streams, 0
    boundaries = np.arange(eviction_interval, total, eviction_interval,
                           dtype=np.intp)
    always = boundaries[ok_all[boundaries] & ~keep[boundaries]]

    def fire(inserted):
        at = s.position[inserted[:len(s.position)]]
        at = at[(at % eviction_interval == 0) & (at > 0)]
        fired = np.sort(np.concatenate((always, at)))
        return fired, ts_all[fired] - max_replica_gap

    fired = fire(inserted)
    earlier, later = links
    if _evicted_before(*fired, s.position[earlier], s.timestamp[earlier],
                       s.position[later]).any():
        while True:
            streams, inserted, removal, _ = _replay_survivors(
                s, total, min_ttl_delta, max_replica_gap, fired=fired)
            settled = fire(inserted)
            if np.array_equal(settled[0], fired[0]):
                break
            fired = settled
    return streams, _count_evictions(s, inserted, removal, ok_all, keep,
                                     ts_all, *fired)


def _count_evictions(survivors, inserted, removal, ok_all, keep, ts_all,
                     fired, horizons) -> int:
    """``singletons_evicted`` of the scan, given its fired boundaries."""
    if not len(fired):
        return 0
    s = survivors
    # A non-survivor is never removed: it is evicted iff the highest
    # horizon among the boundaries after it passes it.  That bound only
    # falls with position, so the records split into runs sharing one.
    after = np.maximum.accumulate(horizons[::-1])[::-1]
    runs = np.flatnonzero(after[1:] != after[:-1]) + 1
    evicted = 0
    for j0, j1 in zip([0] + runs.tolist(), runs.tolist() + [len(fired)]):
        lo = int(fired[j0 - 1]) if j0 else 0
        hi = int(fired[j1 - 1])
        stale = ts_all[lo:hi] < after[j0]
        evicted += (int(np.count_nonzero(stale & ok_all[lo:hi]))
                    - int(np.count_nonzero(stale & keep[lo:hi])))
    return evicted + int(np.count_nonzero(_evicted_before(
        fired, horizons, s.position[inserted], s.timestamp[inserted],
        removal[inserted],
    )))


def _evicted_before(fired, horizons, at, times, until):
    """Per entry stored at scan position ``at`` with timestamp
    ``times``: whether a boundary fired after ``at`` and before
    ``until`` with a horizon above ``times``.

    The first boundary whose running-maximum horizon passes an entry is
    the first that evicts it, unless an earlier boundary's horizon
    already passed it (its timestamp regressed below that horizon);
    those few take a direct maximum over their boundaries.
    """
    lo = np.searchsorted(fired, at, side="right")
    hi = np.searchsorted(fired, until, side="left")
    first = np.searchsorted(np.maximum.accumulate(horizons), times,
                            side="right")
    evicted = (lo <= first) & (first < hi)
    late = np.flatnonzero((first < lo) & (lo < hi))
    for k in late.tolist():
        evicted[k] = horizons[lo[k]:hi[k]].max() > times[k]
    return evicted


def _passed_by(fired, columns):
    """The per-record replay's form of :func:`_evicted_before`: whether
    entry ``e`` is evicted before row ``k``."""
    at, horizons = fired[0].tolist(), fired[1].tolist()
    positions, times, _ = columns

    def dead(e, k):
        lo = bisect_right(at, positions[e])
        hi = bisect_left(at, positions[k], lo)
        return lo < hi and max(horizons[lo:hi]) > times[e]
    return dead


def _build_table(chunks, survivors, streams):
    """The :class:`StreamTable` of the replay's ``streams``, sorted by
    (start time, first record index) like :func:`stream_sort_key`."""
    s = survivors
    firsts, ends, replayed = streams
    sizes = np.concatenate((ends - firsts, np.array(
        [len(members) for members in replayed], dtype=np.int64)))
    # Survivor rows of each stream, stream after stream, replay order.
    rows = np.concatenate((
        vectorize.ranges(firsts, ends - firsts),
        np.fromiter((row for members in replayed for row in members),
                    dtype=np.int64),
    ))
    at = np.cumsum(sizes) - sizes
    firsts = rows[at]
    by_start = np.lexsort((s.index[firsts], s.timestamp[firsts]))
    sizes = sizes[by_start]
    rows = rows[vectorize.ranges(at[by_start], sizes)]
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))

    positions = s.position[rows[bounds[:-1]]]
    starts = np.cumsum([0] + [len(chunk.timestamps) for chunk in chunks])
    at_chunk = np.searchsorted(starts, positions, side="right") - 1
    first_data = _first_records(chunks, at_chunk, positions - starts[at_chunk])
    dst = np.ascontiguousarray(first_data.rows[:, 16:20]).view(">u4")
    return StreamTable(bounds, s.index[rows], s.timestamp[rows],
                       s.ttl[rows], first_data, dst.ravel().astype(np.int64))


class _PackedRecords:
    """Records packed as the rows of a uint8 matrix, row ``k`` cut to
    ``lengths[k]`` bytes.  Item ``k`` is its ``bytes``, sliced when
    asked for: a table's streams' ``first_data``."""

    __slots__ = ("rows", "lengths")

    def __init__(self, rows, lengths) -> None:
        self.rows = rows
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, k: int) -> bytes:
        return self.rows[k, :self.lengths[k]].tobytes()


def _first_records(chunks, at_chunk, rows) -> _PackedRecords:
    """Record ``rows[k]`` of chunk ``at_chunk[k]`` for each ``k``,
    gathered with one fancy index per chunk and record length."""
    order = vectorize.stable_order(at_chunk)
    cuts = np.searchsorted(at_chunk[order],
                           np.arange(len(chunks) + 1)).tolist()
    parts = [(order[a:b], *_chunk_records(chunk, rows[order[a:b]]))
             for chunk, a, b in zip(chunks, cuts, cuts[1:]) if a < b]
    lengths = np.zeros(len(rows), dtype=np.int64)
    packed = np.zeros((len(rows), max([_MIN_CAPTURE] + [
        matrix.shape[1] for _, matrix, _ in parts])), dtype=np.uint8)
    for picked, matrix, part in parts:
        packed[picked, :matrix.shape[1]] = matrix
        lengths[picked] = part
    return _PackedRecords(packed, lengths.tolist())


def _chunk_records(chunk, rows) -> tuple:
    """Records ``rows`` of ``chunk``, as the zero-padded rows of one
    uint8 matrix, and their lengths: one gather per record length."""
    offsets = _column(chunk.offsets)[rows]
    lengths = _column(chunk.lengths)[rows].astype(np.int64)
    width = int(lengths.max(initial=0))
    if lengths.min(initial=width) == width:
        return vectorize.gather(chunk.data, offsets, width), lengths
    matrix = np.zeros((len(rows), width), dtype=np.uint8)
    for at, length in _by_length(lengths, np.arange(len(rows))):
        matrix[at, :length] = vectorize.gather(chunk.data, offsets[at],
                                               length)
    return matrix, lengths


#: Step 1 as every entry point runs it (the ``auto`` tier).
detect_replicas_with_kernel = detect_replicas_vectorized


def stream_sort_key(stream: ReplicaStream) -> tuple[float, int]:
    """Total order on streams: start time, ties broken by the first
    replica's record index (unique across streams).  The kernel, the
    oracle and the merge sort with it, so every path produces
    byte-identical candidate lists."""
    return (stream.start, stream.replicas[0].index)
