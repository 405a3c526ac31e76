"""Deterministic key → shard assignment for exact parallel detection.

Step 1 of the paper's algorithm chains replicas by the *masked-packet
key* (:func:`repro.core.replica.mask_mutable_fields`): the captured bytes
with TTL and IP checksum zeroed.  Every piece of chaining state —
singletons, open streams — is looked up by that key, and keys never
interact.  Records can therefore be hashed to N shards by key and chained
per shard without losing (or double-counting) a single candidate stream,
as long as each shard sees its records in global time order.

The hash is CRC-32 of the masked bytes, so the placement is
deterministic across processes and runs (unlike ``hash(bytes)``, which is
salted per interpreter).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from zlib import crc32

from repro.net.columnar import ColumnarChunk

#: Wire offsets of the fields a loop legitimately changes (see
#: :mod:`repro.core.replica`): TTL at byte 8, header checksum at 10–11.
_TTL_OFFSET = 8
_CHECKSUM_OFFSET = 10

#: Minimum captured bytes for a record to participate in detection.
MIN_CAPTURE = 20


class ShardError(ValueError):
    """Raised for invalid sharding parameters."""


@dataclass(slots=True)
class ColumnarShardPartition:
    """Per-shard *columnar slabs* of one trace.

    Accumulates, per shard, one contiguous ``bytearray`` slab of record
    bodies plus ``array`` columns (global indices, timestamps, captured
    lengths) — the payload for a shard of a million 40-byte records is
    four buffers instead of a million per-record objects.

    Shard assignment hashes the zeroed mask (CRC-32 of the scratch key
    the columnar kernel computes anyway), so all replicas of one packet
    land on one shard; the global candidate sort makes the final output
    independent of which shard chained which key.

    Global record indices never cross the process boundary: workers
    chain by *local* shard position and the parent remaps the (rare)
    stream members back through the per-shard index column it kept.
    Offsets are likewise rebuilt worker-side from the cumulative
    lengths, so the wire payload per record is its captured bytes plus
    one float64 timestamp and one 2- or 4-byte length.
    """

    num_shards: int
    records_total: int = 0
    records_short: int = 0
    _slabs: list[bytearray] = field(default_factory=list)
    _indices: list[array] = field(default_factory=list)
    _timestamps: list[array] = field(default_factory=list)
    _lengths: list[array] = field(default_factory=list)
    _payload_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ShardError(f"num_shards must be >= 1: {self.num_shards}")
        if not self._slabs:
            self._slabs = [bytearray() for _ in range(self.num_shards)]
            self._indices = [array("Q") for _ in range(self.num_shards)]
            self._timestamps = [array("d") for _ in range(self.num_shards)]
            self._lengths = [array("I") for _ in range(self.num_shards)]

    def add_chunk(self, chunk: ColumnarChunk) -> None:
        """Route one columnar chunk's records to their shards (call in
        trace order).  Record bodies are copied straight from the chunk's
        data slab into the shard slabs — no intermediate ``bytes``.

        Regular chunks (declared stride, uniform record length) take a
        chunk-level vectorized pass when numpy is available: the whole
        chunk is masked with three column assignments and hashed with
        :func:`~repro.core.vectorize.crc32_rows` — bit-identical to the
        per-record ``crc32(scratch)`` loop, so placement never depends
        on which path ran."""
        if self._add_chunk_vectorized(chunk):
            return
        view = memoryview(chunk.data)
        offsets = chunk.offsets
        timestamps = chunk.timestamps
        indices = chunk.indices
        base_index = chunk.base_index
        num_shards = self.num_shards
        slabs = self._slabs
        shard_indices = self._indices
        shard_timestamps = self._timestamps
        shard_lengths = self._lengths
        scratch = bytearray(40)
        total = 0
        short = 0
        for i, length in enumerate(chunk.lengths):
            total += 1
            if length < MIN_CAPTURE:
                short += 1
                continue
            offset = offsets[i]
            end = offset + length
            if num_shards > 1:
                if len(scratch) != length:
                    scratch = bytearray(length)
                scratch[:] = view[offset:end]
                scratch[_TTL_OFFSET] = 0
                scratch[_CHECKSUM_OFFSET] = 0
                scratch[_CHECKSUM_OFFSET + 1] = 0
                shard = crc32(scratch) % num_shards
            else:
                shard = 0
            slabs[shard] += view[offset:end]
            shard_indices[shard].append(
                indices[i] if indices is not None else base_index + i
            )
            shard_timestamps[shard].append(timestamps[i])
            shard_lengths[shard].append(length)
        self.records_total += total
        self.records_short += short

    def _add_chunk_vectorized(self, chunk: ColumnarChunk) -> bool:
        """Chunk-level shard assignment for regular chunks.  Returns
        False when the chunk needs the per-record path (irregular
        layout, sub-IP-header records, or no numpy)."""
        from repro.core import vectorize

        np = vectorize.np
        if np is None:
            return False
        lengths = chunk.lengths
        n = len(lengths)
        if not n:
            return True
        length = lengths[0]
        stride = chunk.stride
        if stride is None or length < MIN_CAPTURE or stride < length:
            return False
        lengths_np = np.frombuffer(
            lengths, dtype={2: "u2", 4: "u4", 8: "u8"}[lengths.itemsize]
        )
        if not bool((lengths_np == length).all()):
            return False

        offsets = chunk.offsets
        first = offsets[0]
        span = (n - 1) * stride + length
        region = np.frombuffer(chunk.data, dtype=np.uint8,
                               offset=first, count=span)
        rows = np.lib.stride_tricks.as_strided(
            region, shape=(n, length), strides=(stride, 1)
        )
        num_shards = self.num_shards
        if num_shards > 1:
            masked = rows.copy()
            masked[:, _TTL_OFFSET] = 0
            masked[:, _CHECKSUM_OFFSET] = 0
            masked[:, _CHECKSUM_OFFSET + 1] = 0
            shards = vectorize.crc32_rows(masked) % np.uint32(num_shards)
        ts_np = np.frombuffer(chunk.timestamps, dtype=np.float64, count=n)
        indices = chunk.indices
        if indices is not None:
            idx_np = np.frombuffer(indices, dtype=np.uint64, count=n)
        else:
            idx_np = np.arange(chunk.base_index, chunk.base_index + n,
                               dtype=np.uint64)
        for shard in range(num_shards):
            if num_shards > 1:
                selected = np.flatnonzero(shards == shard)
                if not len(selected):
                    continue
                count = len(selected)
                body = rows[selected]
                self._indices[shard].frombytes(idx_np[selected].tobytes())
                self._timestamps[shard].frombytes(
                    ts_np[selected].tobytes()
                )
            else:
                count = n
                body = rows
                self._indices[shard].frombytes(idx_np.tobytes())
                self._timestamps[shard].frombytes(ts_np.tobytes())
            self._slabs[shard] += body.tobytes()
            self._lengths[shard].frombytes(
                np.full(count, length, dtype=np.uint32).tobytes()
            )
        self.records_total += n
        return True

    def payloads(
        self, config
    ) -> list[tuple[int, bytes, array, array, object]]:
        """In-process shard inputs: one ``(shard_id, slab, timestamps,
        lengths, config)`` per non-empty shard — four buffers, no
        per-record objects, the same shape a shared-memory descriptor
        resolves to.  The slab is frozen to ``bytes``; lengths are
        narrowed to ``'H'`` when every record fits in 16 bits (always,
        for snaplen-capped traces).  Use :func:`rebuild_shard_chunk` to
        chain a shard and :meth:`shard_global_indices` to map the
        resulting local stream-member positions back to trace-global
        record numbers."""
        payloads = []
        total = 0
        for shard_id in range(self.num_shards):
            lengths = self._lengths[shard_id]
            if not len(lengths):
                continue
            if max(lengths) < 65536:
                lengths = array("H", lengths)
            slab = bytes(self._slabs[shard_id])
            timestamps = self._timestamps[shard_id]
            total += (len(slab) + 8 * len(timestamps)
                      + lengths.itemsize * len(lengths))
            payloads.append((shard_id, slab, timestamps, lengths, config))
        self._payload_bytes = total
        return payloads

    def shm_layout(self, config) -> tuple[int, list[tuple]]:
        """Plan one shared-memory segment holding every non-empty
        shard's slab and columns back to back.

        Returns ``(total_bytes, descriptors)``; each descriptor is
        ``(shard_id, slab_off, slab_len, ts_off, count, len_off,
        len_typecode, config)`` — everything a worker needs besides the
        segment name.  The descriptors *are* the pickled fan-out
        payload: a few scalars per shard instead of megabytes of slab
        bytes.  Column regions are 8-byte aligned so workers can
        ``cast``/``frombuffer`` them in place."""
        descriptors = []
        cursor = 0
        for shard_id in range(self.num_shards):
            lengths = self._lengths[shard_id]
            count = len(lengths)
            if not count:
                continue
            typecode = "H" if max(lengths) < 65536 else "I"
            itemsize = 2 if typecode == "H" else 4
            slab_off = cursor
            slab_len = len(self._slabs[shard_id])
            cursor = (cursor + slab_len + 7) & ~7
            ts_off = cursor
            cursor += 8 * count
            len_off = cursor
            cursor = (cursor + itemsize * count + 7) & ~7
            descriptors.append((shard_id, slab_off, slab_len, ts_off,
                                count, len_off, typecode, config))
        return cursor, descriptors

    def write_shm(self, buf, descriptors) -> None:
        """Write every planned shard region into ``buf`` — the parent's
        single write of the shared segment.  Also fixes
        :attr:`fanout_bytes` to the exact byte volume handed to
        workers, mirroring :meth:`payloads`."""
        total = 0
        for (shard_id, slab_off, slab_len, ts_off, count, len_off,
                typecode, _config) in descriptors:
            buf[slab_off:slab_off + slab_len] = self._slabs[shard_id]
            buf[ts_off:ts_off + 8 * count] = \
                memoryview(self._timestamps[shard_id]).cast("B")
            lengths = self._lengths[shard_id]
            if typecode != lengths.typecode:
                lengths = array(typecode, lengths)
            itemsize = lengths.itemsize
            buf[len_off:len_off + itemsize * count] = \
                memoryview(lengths).cast("B")
            total += slab_len + 8 * count + itemsize * count
        self._payload_bytes = total

    def shard_global_indices(self, shard_id: int) -> array:
        """The trace-global record index of each of ``shard_id``'s
        records, by local position."""
        return self._indices[shard_id]

    @property
    def fanout_bytes(self) -> int:
        """Fan-out payload size: slab bytes plus the per-record column
        scalars handed to the shard runs.  Exact once :meth:`payloads`
        or :meth:`write_shm` has run; the nominal 12-bytes-per-record
        estimate before."""
        if self._payload_bytes is not None:
            return self._payload_bytes
        total = 0
        for shard_id in range(self.num_shards):
            total += (len(self._slabs[shard_id])
                      + 12 * len(self._lengths[shard_id]))
        return total

    @property
    def shard_sizes(self) -> list[int]:
        return [len(lengths) for lengths in self._lengths]

    @property
    def skew(self) -> float:
        """Largest shard over the mean shard size (1.0 = perfectly even).

        High skew means one hot key dominates and caps the parallel
        speedup; it is reported in the engine's instrumentation.  An
        empty partition reports 0.0 — "no skew observed" — rather than
        pretending to be perfectly balanced.
        """
        sizes = self.shard_sizes
        total = sum(sizes)
        if not total:
            return 0.0
        return max(sizes) / (total / len(sizes))


def rebuild_shard_chunk(slab, timestamps: array, lengths: array) -> ColumnarChunk:
    """Reassemble a worker-side :class:`ColumnarChunk` from a
    :meth:`ColumnarShardPartition.payloads` payload.

    Offsets are the cumulative lengths (records were appended to the
    slab back to back), rebuilt here with C-speed ``accumulate`` rather
    than shipped.  ``base_index`` stays 0: detection over the chunk
    yields *local* positions, remapped by the parent."""
    offsets = array("Q", accumulate(lengths, initial=0))
    offsets.pop()
    # Back-to-back layout: uniform lengths imply a uniform stride, which
    # lets the worker-side kernel take its bulk-masking fast path.
    stride = None
    if lengths and min(lengths) == max(lengths):
        stride = lengths[0]
    return ColumnarChunk(
        data=slab,
        timestamps=timestamps,
        offsets=offsets,
        lengths=lengths,
        stride=stride,
    )
