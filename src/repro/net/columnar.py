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
``first_data``, a :meth:`ColumnarChunk.to_trace` call).  Chunks built
from materialized records (:meth:`ColumnarChunk.from_records`) pack the
bodies into one compact ``bytes`` slab.

``base_index`` anchors the chunk's records in the *global* record
numbering of the trace: record ``i`` of the chunk is global record
``base_index + i``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

import numpy as np

from repro.net.trace import SNAPLEN_40, Trace, TraceRecord


class ColumnarError(ValueError):
    """Raised for malformed columnar chunks."""


@dataclass(slots=True)
class ColumnarChunk:
    """A batch of captured records in columnar form.

    All columns must have equal length; ``offsets[i] + lengths[i]`` must
    stay inside ``data``.  ``wire_lengths`` may be ``None`` for chunks
    that only feed the detection kernel, which never looks at on-wire
    lengths.
    """

    data: bytes | bytearray | memoryview
    timestamps: array
    offsets: array
    lengths: array
    wire_lengths: array | None = None
    base_index: int = 0
    #: Producer's guarantee of a regular layout: when not ``None``,
    #: ``offsets[i] == offsets[0] + i * stride`` for every record.  The
    #: step-1 kernel, offline and live, uses it to view the whole chunk
    #: as one strided record matrix instead of gathering the records
    #: per length.  Never set it on a chunk whose offsets you have not
    #: laid out yourself — ``None`` always stays correct.
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

    def __len__(self) -> int:
        return len(self.timestamps)

    def slice(self, start: int, stop: int) -> "ColumnarChunk":
        """A sub-chunk covering records ``start:stop``.

        Columns are sliced; the data slab is shared (no copy), so the
        slice stays zero-copy and keeps the parent's ``stride``
        guarantee — offsets are absolute into the shared slab, so
        ``offsets[i] == offsets[0] + i * stride`` still holds.  Used by
        the live feed to cut a chunk into bounded detector slices.
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
            stride=self.stride,
        )

    def ordered(self, after: float = float("-inf")) -> int:
        """How many leading records are in time order, after a record at
        time ``after``: the position of the first record earlier than
        its predecessor (or than ``after``)."""
        n = len(self)
        ts = np.frombuffer(self.timestamps, dtype=np.float64, count=n)
        if not n or ts[0] < after:
            return 0
        drops = np.flatnonzero(ts[1:] < ts[:-1])
        return int(drops[0]) + 1 if len(drops) else n

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
    def from_pairs(cls, pairs, base_index: int = 0) -> "ColumnarChunk":
        """Pack ``(timestamp, data)`` pairs into one compact chunk with
        no wire lengths (copies each body into a fresh slab)."""
        pairs = list(pairs)
        lengths = array("I", [len(data) for _, data in pairs])
        return cls(
            data=b"".join([data for _, data in pairs]),
            timestamps=array("d", [timestamp for timestamp, _ in pairs]),
            offsets=array("Q", accumulate(lengths, initial=0))[:-1],
            lengths=lengths,
            base_index=base_index,
            stride=(lengths[0] if lengths and min(lengths) == max(lengths)
                    else None),
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
