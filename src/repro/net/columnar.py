"""Zero-copy columnar trace representation.

A :class:`~repro.net.trace.Trace` holds one Python object per captured
packet — fine for a few hundred thousand records, ruinous for the
hundreds of millions of 40-byte records an OC-12 trace produces, where
allocator and attribute-access overhead dominate the single linear scan
the detector actually needs.

The columnar layout stores a chunk of records as *one contiguous data
slab* plus parallel ``array``-typed columns:

====================  ==========  =============================================
column                typecode    meaning
====================  ==========  =============================================
``timestamps``        ``d``       capture time (seconds, float64)
``offsets``           ``Q``       byte offset of each record body in ``data``
``lengths``           ``I``       captured bytes per record (<= snaplen)
``wire_lengths``      ``I``       on-wire IP length per record
====================  ==========  =============================================

``data`` is any buffer — for mmap-backed traces it is a ``memoryview``
over the mapped pcap file, so record bodies are never copied out of the
page cache until something actually materializes them (a replica-stream
``first_data``, a :meth:`ColumnarChunk.to_trace` call).  For shard slabs
shipped across process boundaries it is a compact ``bytes`` object that
pickles as one buffer instead of one object per record.

``base_index`` anchors the chunk's records in the *global* record
numbering of the trace (record ``i`` of the chunk is global record
``base_index + i``); a non-``None`` ``indices`` column overrides that
with explicit per-record global indices, which is what lets a sharded
slab carry records plucked from all over the trace while stream
membership still lines up with the full trace.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator

from repro.net.trace import SNAPLEN_40, Trace, TraceRecord


class ColumnarError(ValueError):
    """Raised for malformed columnar chunks."""


@dataclass(slots=True)
class ColumnarChunk:
    """A batch of captured records in columnar form.

    All columns must have equal length; ``offsets[i] + lengths[i]`` must
    stay inside ``data``.  ``wire_lengths`` may be ``None`` for chunks
    that only feed the detection kernel (shard slabs), which never looks
    at on-wire lengths.
    """

    data: bytes | bytearray | memoryview
    timestamps: array
    offsets: array
    lengths: array
    wire_lengths: array | None = None
    base_index: int = 0
    indices: array | None = None
    #: Producer's guarantee of a regular layout: when not ``None``,
    #: ``offsets[i] == offsets[0] + i * stride`` for every record.  The
    #: batched kernel uses it to mask TTL/checksum bytes for a whole
    #: chunk with three C-speed strided slice assignments instead of a
    #: per-record Python loop.  Never set it on a chunk whose offsets
    #: you have not laid out yourself — ``None`` always stays correct.
    stride: int | None = None

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        if len(self.offsets) != n or len(self.lengths) != n:
            raise ColumnarError(
                f"column lengths differ: {n} timestamps, "
                f"{len(self.offsets)} offsets, {len(self.lengths)} lengths"
            )
        if self.wire_lengths is not None and len(self.wire_lengths) != n:
            raise ColumnarError(
                f"column lengths differ: {n} timestamps, "
                f"{len(self.wire_lengths)} wire_lengths"
            )
        if self.indices is not None and len(self.indices) != n:
            raise ColumnarError(
                f"column lengths differ: {n} timestamps, "
                f"{len(self.indices)} indices"
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def global_index(self, i: int) -> int:
        """The trace-global record number of chunk record ``i``."""
        if self.indices is not None:
            return self.indices[i]
        return self.base_index + i

    def slice(self, start: int, stop: int) -> "ColumnarChunk":
        """A sub-chunk covering records ``start:stop``.

        Columns are sliced; the data slab is shared (no copy), so the
        slice stays zero-copy and keeps the parent's ``stride``
        guarantee — offsets are absolute into the shared slab, so
        ``offsets[i] == offsets[0] + i * stride`` still holds.  Used by
        window-boundary feeders that split a chunk at sampling points.
        """
        if start < 0 or stop > len(self) or start > stop:
            raise ColumnarError(
                f"slice [{start}:{stop}] outside chunk of {len(self)}"
            )
        return ColumnarChunk(
            data=self.data,
            timestamps=self.timestamps[start:stop],
            offsets=self.offsets[start:stop],
            lengths=self.lengths[start:stop],
            wire_lengths=(None if self.wire_lengths is None
                          else self.wire_lengths[start:stop]),
            base_index=self.base_index + start,
            indices=(None if self.indices is None
                     else self.indices[start:stop]),
            stride=self.stride,
        )

    def record_view(self, i: int) -> memoryview:
        """Zero-copy view of record ``i``'s captured bytes."""
        offset = self.offsets[i]
        return memoryview(self.data)[offset:offset + self.lengths[i]]

    def record_bytes(self, i: int) -> bytes:
        """Record ``i``'s captured bytes, materialized."""
        offset = self.offsets[i]
        return bytes(memoryview(self.data)[offset:offset + self.lengths[i]])

    def iter_views(self) -> Iterator[tuple[float, memoryview]]:
        """Yield ``(timestamp, view)`` pairs without materializing bytes."""
        view = memoryview(self.data)
        offsets = self.offsets
        timestamps = self.timestamps
        for i, length in enumerate(self.lengths):
            offset = offsets[i]
            yield timestamps[i], view[offset:offset + length]

    def iter_triples(self) -> Iterator[tuple[int, float, bytes]]:
        """Yield ``(index, timestamp, data)`` triples.

        The input shape of the reference oracle the kernel equivalence
        tests compare against — it materializes one ``bytes`` object per
        record, exactly what the columnar kernel avoids.
        """
        view = memoryview(self.data)
        offsets = self.offsets
        timestamps = self.timestamps
        indices = self.indices
        base = self.base_index
        for i, length in enumerate(self.lengths):
            offset = offsets[i]
            index = indices[i] if indices is not None else base + i
            yield index, timestamps[i], bytes(view[offset:offset + length])

    def to_records(self) -> Iterator[TraceRecord]:
        """Materialize the chunk as :class:`TraceRecord` objects."""
        if self.wire_lengths is None:
            raise ColumnarError("chunk carries no wire lengths")
        view = memoryview(self.data)
        offsets = self.offsets
        wire_lengths = self.wire_lengths
        for i, length in enumerate(self.lengths):
            offset = offsets[i]
            yield TraceRecord(
                timestamp=self.timestamps[i],
                data=bytes(view[offset:offset + length]),
                wire_length=wire_lengths[i],
            )

    @classmethod
    def from_records(
        cls, records, base_index: int = 0
    ) -> "ColumnarChunk":
        """Build a compact chunk from an iterable of
        :class:`TraceRecord` (copies each body into a fresh slab)."""
        slab = bytearray()
        timestamps = array("d")
        offsets = array("Q")
        lengths = array("I")
        wire_lengths = array("I")
        for record in records:
            timestamps.append(record.timestamp)
            offsets.append(len(slab))
            lengths.append(len(record.data))
            wire_lengths.append(record.wire_length)
            slab.extend(record.data)
        # Bodies are packed back to back, so a uniform captured length
        # means a uniform offset stride — declare it for the kernel.
        stride = None
        if lengths and min(lengths) == max(lengths):
            stride = lengths[0]
        return cls(
            data=bytes(slab),
            timestamps=timestamps,
            offsets=offsets,
            lengths=lengths,
            wire_lengths=wire_lengths,
            base_index=base_index,
            stride=stride,
        )


@dataclass(slots=True)
class ColumnarTrace:
    """A whole trace as a sequence of :class:`ColumnarChunk`.

    Quacks like :class:`~repro.net.trace.Trace` for the summary surface
    the CLI and report renderers touch — ``link_name``, ``len()``,
    ``duration``, ``average_bandwidth_bps`` — without ever holding one
    object per record.  ``buffers`` keeps backing objects (the mmap of a
    mapped pcap file) alive for as long as the trace is referenced.
    """

    chunks: list[ColumnarChunk] = field(default_factory=list)
    link_name: str = ""
    snaplen: int = SNAPLEN_40
    buffers: list = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    @property
    def record_count(self) -> int:
        return len(self)

    @property
    def empty(self) -> bool:
        return all(len(chunk) == 0 for chunk in self.chunks)

    @property
    def start_time(self) -> float:
        for chunk in self.chunks:
            if len(chunk):
                return chunk.timestamps[0]
        raise ColumnarError("empty trace has no start time")

    @property
    def end_time(self) -> float:
        for chunk in reversed(self.chunks):
            if len(chunk):
                return chunk.timestamps[-1]
        raise ColumnarError("empty trace has no end time")

    @property
    def duration(self) -> float:
        if len(self) < 2:
            return 0.0
        return self.end_time - self.start_time

    @property
    def total_bytes(self) -> int:
        total = 0
        for chunk in self.chunks:
            if chunk.wire_lengths is None:
                raise ColumnarError("chunk carries no wire lengths")
            total += sum(chunk.wire_lengths)
        return total

    def average_bandwidth_bps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.total_bytes * 8 / self.duration

    def iter_views(self) -> Iterator[tuple[float, memoryview]]:
        """Yield ``(timestamp, view)`` pairs across all chunks."""
        for chunk in self.chunks:
            yield from chunk.iter_views()

    def iter_timestamps(self) -> Iterator[float]:
        for chunk in self.chunks:
            yield from chunk.timestamps

    def iter_triples(self) -> Iterator[tuple[int, float, bytes]]:
        """Reference-detector triples across all chunks (materializing)."""
        for chunk in self.chunks:
            yield from chunk.iter_triples()

    def to_trace(self) -> Trace:
        """Materialize a full :class:`Trace` (one object per record)."""
        trace = Trace(link_name=self.link_name, snaplen=self.snaplen)
        for chunk in self.chunks:
            for record in chunk.to_records():
                trace.records.append(record)
        return trace

    @classmethod
    def from_trace(cls, trace: Trace,
                   chunk_records: int = 65_536) -> "ColumnarTrace":
        """Convert a materialized trace to columnar chunks."""
        if chunk_records < 1:
            raise ColumnarError(
                f"chunk_records must be >= 1: {chunk_records}"
            )
        chunks = []
        records = trace.records
        for start in range(0, len(records), chunk_records):
            chunks.append(ColumnarChunk.from_records(
                records[start:start + chunk_records], base_index=start
            ))
        return cls(chunks=chunks, link_name=trace.link_name,
                   snaplen=trace.snaplen)
