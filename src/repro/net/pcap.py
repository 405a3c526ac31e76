"""libpcap file format reader/writer.

Traces round-trip through the classic pcap format (magic ``0xa1b2c3d4``,
microsecond timestamps, ``LINKTYPE_RAW`` so each record body is a bare IPv4
packet).  This makes the detector usable on real captures converted with
``tcpdump -w``/``tshark`` as well as on simulator output.

Three reading modes:

* :func:`read_pcap` materializes the whole file as a :class:`Trace`;
* :func:`iter_pcap` / :func:`iter_pcap_chunks` stream materialized
  records with bounded memory (part of the public API; the detector
  itself reads columnar);
* :func:`read_pcap_columnar` / :func:`iter_pcap_columnar` map the file
  with ``mmap`` and decode record headers in place — runs of equal
  captured length through one strided numpy view each, anything else
  with ``struct.unpack_from`` over a ``memoryview`` — no ``read()``
  call, no heap ``bytes`` copy, and no per-record Python object; record
  bodies stay in the page cache and are referenced by offset from
  :class:`~repro.net.columnar.ColumnarChunk` columns.  This is the
  detector's ingest fast path (see ``docs/PERFORMANCE.md``).

A capture cut off mid-record (``tcpdump -c``, disk-full, a crashed
collector) is common in practice; the partial tail record is dropped with
a :class:`PcapWarning` instead of failing the whole trace.
"""

from __future__ import annotations

import mmap
import struct
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.core import vectorize
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.net.trace import SNAPLEN_40, Trace, TraceRecord
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry

_logger = get_logger("pcap")

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_RAW = 101

#: Default record count per chunk for :func:`iter_pcap_chunks` — with a
#: 40-byte snaplen this is a few MiB of buffered data, far below trace size.
DEFAULT_CHUNK_RECORDS = 65_536

#: A record below this many captured bytes cannot hold an IPv4 header and
#: can never participate in detection.
_MIN_IP_HEADER = 20

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_BE = struct.Struct(">IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_RECORD_HEADER_BE = struct.Struct(">IIII")


class PcapError(ValueError):
    """Raised for malformed pcap files."""


class PcapWarning(UserWarning):
    """Issued for recoverable defects (a truncated final record)."""


def write_pcap(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in classic little-endian pcap format."""
    with open(path, "wb") as stream:
        _write_stream(trace, stream)


def _write_stream(trace: Trace, stream: BinaryIO) -> None:
    stream.write(
        _GLOBAL_HEADER.pack(
            PCAP_MAGIC, 2, 4, 0, 0, max(trace.snaplen, SNAPLEN_40), LINKTYPE_RAW
        )
    )
    for record in trace.records:
        seconds = int(record.timestamp)
        micros = int(round((record.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:
            seconds += 1
            micros -= 1_000_000
        stream.write(
            _RECORD_HEADER.pack(seconds, micros, len(record.data),
                                record.wire_length)
        )
        stream.write(record.data)


@dataclass(slots=True, frozen=True)
class _PcapHeader:
    """Parsed global header: everything the record loop needs."""

    record_struct: struct.Struct
    divisor: int
    mac_header: int
    snaplen: int


def _read_global_header(stream: BinaryIO) -> _PcapHeader:
    raw_header = stream.read(_GLOBAL_HEADER.size)
    return _parse_global_header(raw_header)


def _parse_global_header(raw_header: bytes) -> _PcapHeader:
    if len(raw_header) < _GLOBAL_HEADER.size:
        raise PcapError("truncated pcap global header")
    magic_le = struct.unpack("<I", raw_header[:4])[0]
    if magic_le in (PCAP_MAGIC, PCAP_MAGIC_NS):
        header_struct, record_struct = _GLOBAL_HEADER, _RECORD_HEADER
        nanos = magic_le == PCAP_MAGIC_NS
    else:
        magic_be = struct.unpack(">I", raw_header[:4])[0]
        if magic_be not in (PCAP_MAGIC, PCAP_MAGIC_NS):
            raise PcapError(f"bad pcap magic: {raw_header[:4].hex()}")
        header_struct, record_struct = _GLOBAL_HEADER_BE, _RECORD_HEADER_BE
        nanos = magic_be == PCAP_MAGIC_NS
    (_, major, minor, _, _, snaplen, linktype) = header_struct.unpack(raw_header)
    if (major, minor) != (2, 4):
        raise PcapError(f"unsupported pcap version {major}.{minor}")
    if linktype not in (LINKTYPE_RAW, 1):
        raise PcapError(f"unsupported linktype {linktype}")
    return _PcapHeader(
        record_struct=record_struct,
        divisor=1_000_000_000 if nanos else 1_000_000,
        mac_header=14 if linktype == 1 else 0,
        snaplen=snaplen or SNAPLEN_40,
    )


def _truncated(detail: str, source: str) -> None:
    """A capture ended mid-record: warn (for callers that filter on
    :class:`PcapWarning`), log with the *filename* (so batch runs over
    many pcaps record which file was damaged), and count it."""
    message = (f"pcap capture ends mid-record ({detail}); "
               "dropping the partial final record")
    warnings.warn(message, PcapWarning, stacklevel=4)
    _logger.warning("%s: %s", source or "<stream>", message)
    get_registry().counter(
        "pcap_truncated_records_total",
        "Partial final records dropped from damaged captures",
    ).inc()


def _iter_records(stream: BinaryIO, header: _PcapHeader,
                  source: str = "") -> Iterator[TraceRecord]:
    record_struct = header.record_struct
    mac_header = header.mac_header
    divisor = header.divisor
    while True:
        raw_record = stream.read(record_struct.size)
        if not raw_record:
            break
        if len(raw_record) < record_struct.size:
            _truncated("truncated record header", source)
            break
        seconds, fraction, captured_len, wire_len = record_struct.unpack(raw_record)
        data = stream.read(captured_len)
        if len(data) < captured_len:
            _truncated(f"{len(data)}/{captured_len} body bytes", source)
            break
        timestamp = seconds + fraction / divisor
        yield TraceRecord(
            timestamp=timestamp,
            data=data[mac_header:],
            wire_length=max(wire_len - mac_header, len(data) - mac_header),
        )


def read_pcap(path: str | Path, link_name: str = "",
              progress=None) -> Trace:
    """Read a pcap file into a :class:`Trace`.

    Handles both byte orders and nanosecond-magic files.  Records are
    assumed to be raw IPv4 (``LINKTYPE_RAW``); Ethernet (``LINKTYPE 1``)
    frames have their 14-byte MAC header stripped.

    ``progress`` is called as ``progress(1)`` per record loaded — pass a
    rate-limited :class:`~repro.obs.progress.Heartbeat` for large files.
    """
    with open(path, "rb") as stream:
        return _read_stream(stream, link_name, source=str(path),
                            progress=progress)


def _read_stream(stream: BinaryIO, link_name: str, source: str = "",
                 progress=None) -> Trace:
    header = _read_global_header(stream)
    trace = Trace(link_name=link_name, snaplen=header.snaplen)
    if progress is None:
        for record in _iter_records(stream, header, source):
            trace.append(record)
    else:
        for record in _iter_records(stream, header, source):
            trace.append(record)
            progress(1)
    return trace


def iter_pcap(path: str | Path) -> Iterator[TraceRecord]:
    """Stream a pcap file record by record with bounded memory.

    Yields the records :func:`read_pcap` would load, in order, without
    ever holding more than one record at a time — except records shorter
    than a full IP header, which are skipped here (and counted in the
    ``pcap_short_records_skipped_total`` metric) instead of being
    materialized as :class:`TraceRecord` objects only for the detector to
    discard them later.
    """
    short_counter = get_registry().counter(
        "pcap_short_records_skipped_total",
        "Records below a full IP header skipped at the reader",
    )
    with open(path, "rb") as stream:
        header = _read_global_header(stream)
        for record in _iter_records(stream, header, str(path)):
            if len(record.data) < _MIN_IP_HEADER:
                short_counter.inc()
                continue
            yield record


def iter_pcap_chunks(
    path: str | Path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    link_name: str = "",
) -> Iterator[Trace]:
    """Stream a pcap file as :class:`Trace` chunks of ``chunk_records``.

    Each chunk carries the file's snaplen and ``link_name``, so chunk
    consumers (the sharded engine, incremental indexers) see the same
    metadata :func:`read_pcap` would attach, while peak memory stays
    bounded by the chunk size rather than the trace length.
    """
    if chunk_records < 1:
        raise PcapError(f"chunk_records must be >= 1: {chunk_records}")
    with open(path, "rb") as stream:
        header = _read_global_header(stream)
        chunk = Trace(link_name=link_name, snaplen=header.snaplen)
        for record in _iter_records(stream, header, str(path)):
            chunk.append(record)
            if len(chunk.records) >= chunk_records:
                yield chunk
                chunk = Trace(link_name=link_name, snaplen=header.snaplen)
        if chunk.records:
            yield chunk


# -- zero-copy columnar reading ----------------------------------------------


def _mmap_pcap(path: str | Path) -> mmap.mmap:
    with open(path, "rb") as stream:
        stream.seek(0, 2)
        if stream.tell() < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        # The mapping keeps the file open; the descriptor can close now.
        return mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)


def _run_decoder(buf: memoryview, header: _PcapHeader):
    """The vectorized header decoder for ``buf``, or ``None`` without
    numpy.

    The returned ``decode_run(position, limit, columns)`` decodes the
    run of complete records starting at ``position`` that share its
    captured length — at most ``limit`` of them — through one strided
    structured-dtype view of the mapping, appends them to ``columns``
    (timestamps, offsets, lengths, wire lengths) exactly as the
    per-record loop would, and returns the run's record count and the
    position after it.  Equal captured lengths put the headers at a
    fixed stride, so the view is exact up to the first record whose
    length differs; that record, and a truncated tail, are left to the
    per-record loop.  The view spans at most ``limit`` records, so one
    call costs O(``limit``).
    """
    if not vectorize.HAVE_NUMPY:
        return None
    np = vectorize.np
    record_struct = header.record_struct
    field = record_struct.format[0] + "u4"
    dtype = np.dtype([("seconds", field), ("fraction", field),
                      ("captured", field), ("wire", field)])
    unpack_from = record_struct.unpack_from
    header_size = record_struct.size
    mac_header = header.mac_header
    divisor = header.divisor
    file_size = len(buf)

    def decode_run(position: int, limit: int,
                   columns) -> tuple[int, int]:
        if position + header_size > file_size:
            return 0, position
        captured_len = unpack_from(buf, position)[2]
        stride = header_size + captured_len
        count = min(limit, (file_size - position) // stride)
        if not count:
            return 0, position
        records = np.ndarray((count,), dtype, buf, position, (stride,))
        irregular = np.flatnonzero(records["captured"] != captured_len)
        if irregular.size:
            count = int(irregular[0])
            records = records[:count]
        body = np.arange(count, dtype=np.int64) * stride
        body += position + header_size
        wire = records["wire"]
        if mac_header:
            length = (captured_len - mac_header
                      if captured_len > mac_header else 0)
            if length:
                body += mac_header
            wire = np.maximum(wire.astype(np.int64) - mac_header,
                              max(captured_len - mac_header, 0))
        else:
            length = captured_len
            wire = np.maximum(wire, captured_len)
        stamps = records["seconds"] + records["fraction"] / divisor
        for column, values in zip(
            columns, (stamps, body, np.full(count, length), wire)
        ):
            values = values.astype(column.typecode, copy=False)
            column.frombytes(values.data.cast("B"))
        return count, position + count * stride

    return decode_run


def iter_pcap_columnar(
    path: str | Path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[ColumnarChunk]:
    """Stream a pcap file as zero-copy :class:`ColumnarChunk` batches.

    The file is mapped with ``mmap`` and record headers are decoded in
    place — record bodies are never copied; each chunk's ``data`` is a
    ``memoryview`` of the mapping and its ``offsets``/``lengths`` columns
    point into it.  Chunks stay valid for as long as any of their views
    is referenced (the mapping closes only once every view is garbage
    collected).

    With numpy, each chunk's leading run of equal captured length (a
    fixed snaplen makes that the whole chunk) decodes through one
    strided structured-dtype view; the rest of the chunk after the
    first irregular record, a truncated tail, and numpy-less
    interpreters take the per-record ``struct.unpack_from`` loop.  Both
    produce identical chunks — boundaries, columns, ``stride`` and
    warnings.

    Records are numbered exactly as :func:`read_pcap` loads them
    (``base_index`` anchors each chunk), including records too short to
    hold an IP header — the detection kernel skips those inline, so
    stream membership indices line up with the materializing reader.
    """
    if chunk_records < 1:
        raise PcapError(f"chunk_records must be >= 1: {chunk_records}")
    source = str(path)
    mapped = _mmap_pcap(path)
    buf = memoryview(mapped)
    header = _parse_global_header(bytes(buf[:_GLOBAL_HEADER.size]))
    record_struct = header.record_struct
    unpack_from = record_struct.unpack_from
    header_size = record_struct.size
    mac_header = header.mac_header
    divisor = header.divisor
    file_size = len(buf)
    decode_run = _run_decoder(buf, header)

    position = _GLOBAL_HEADER.size
    base_index = 0
    count = 0
    # Whether the current chunk's leading run is still to be decoded.
    vector_pending = decode_run is not None
    columns = (array("d"), array("Q"), array("I"), array("I"))
    timestamps, offsets, lengths, wire_lengths = columns
    # Bound-method hoists: the loop below runs once per record on the
    # step-1 hot path, so every attribute lookup it sheds is measurable.
    ts_append = timestamps.append
    off_append = offsets.append
    len_append = lengths.append
    wire_append = wire_lengths.append

    def flush() -> ColumnarChunk:
        # A uniform positive captured length means uniformly strided
        # offsets (each record advances the cursor by header + captured
        # bytes), so the chunk can declare its stride and the detection
        # kernel can bulk-mask it.  min/max over the array run at C
        # speed; nothing is paid per record.
        stride = None
        if lengths and lengths[0] and min(lengths) == max(lengths):
            stride = header_size + mac_header + lengths[0]
        return ColumnarChunk(
            data=buf,
            timestamps=timestamps,
            offsets=offsets,
            lengths=lengths,
            wire_lengths=wire_lengths,
            base_index=base_index,
            stride=stride,
        )

    while position < file_size:
        if vector_pending:
            # One view decodes the chunk's leading equal-length run; the
            # rest of the chunk, if any, goes one by one.
            vector_pending = False
            taken, position = decode_run(position, chunk_records - count,
                                         columns)
            count += taken
        else:
            if position + header_size > file_size:
                _truncated("truncated record header", source)
                break
            seconds, fraction, captured_len, wire_len = unpack_from(
                buf, position
            )
            position += header_size
            end = position + captured_len
            if end > file_size:
                available = file_size - position
                _truncated(f"{available}/{captured_len} body bytes", source)
                break
            if mac_header:
                length = (captured_len - mac_header
                          if captured_len > mac_header else 0)
                off_append(position + mac_header if length else position)
                len_append(length)
                wire_append(max(wire_len - mac_header,
                                captured_len - mac_header, 0))
            else:
                off_append(position)
                len_append(captured_len)
                wire_append(wire_len if wire_len >= captured_len
                            else captured_len)
            ts_append(seconds + fraction / divisor)
            position = end
            count += 1
        if count >= chunk_records:
            yield flush()
            base_index += count
            count = 0
            vector_pending = decode_run is not None
            columns = (array("d"), array("Q"), array("I"), array("I"))
            timestamps, offsets, lengths, wire_lengths = columns
            ts_append = timestamps.append
            off_append = offsets.append
            len_append = lengths.append
            wire_append = wire_lengths.append
    if count:
        yield flush()


def read_pcap_columnar(
    path: str | Path,
    link_name: str = "",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    progress=None,
) -> ColumnarTrace:
    """Map a pcap file as a zero-copy :class:`ColumnarTrace`.

    Loads the same records as :func:`read_pcap` — same timestamps, bytes,
    and wire lengths, proven record-for-record in the test suite — while
    allocating a handful of columns per 65k records instead of one
    :class:`TraceRecord` per packet.

    ``progress`` is called as ``progress(n)`` once per chunk with the
    chunk's record count — pass a rate-limited
    :class:`~repro.obs.progress.Heartbeat` for large files.
    """
    if progress is None:
        chunks = list(iter_pcap_columnar(path, chunk_records=chunk_records))
    else:
        chunks = []
        for chunk in iter_pcap_columnar(path, chunk_records=chunk_records):
            chunks.append(chunk)
            progress(len(chunk))
    # Re-parse the global header for the snaplen (the chunks only carry
    # record columns) and pin the mapping via the trace.
    with open(path, "rb") as stream:
        snaplen = _read_global_header(stream).snaplen
    buffers = [chunks[0].data] if chunks else []
    return ColumnarTrace(
        chunks=chunks,
        link_name=link_name,
        snaplen=snaplen,
        buffers=buffers,
    )
