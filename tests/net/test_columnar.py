"""Tests for the zero-copy columnar trace layer and the mmap reader.

The contract under test: the columnar pipeline loads *exactly* the
records the materializing reader loads — same timestamps, same bytes,
same wire lengths, same global numbering — for every byte order,
timestamp resolution, linktype, and damage mode the classic reader
handles.
"""

import struct
import warnings
from array import array

import pytest

from repro.net.columnar import ColumnarChunk, ColumnarError, ColumnarTrace
from repro.net.pcap import (
    PcapError,
    PcapWarning,
    iter_pcap_columnar,
    read_pcap,
    read_pcap_columnar,
    write_pcap,
)
from repro.net.trace import Trace, TraceRecord
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture
def small_trace(sample_tcp_packet, sample_udp_packet) -> Trace:
    trace = Trace(link_name="test", snaplen=64)
    trace.capture(1000.000001, sample_tcp_packet)
    trace.capture(1000.5, sample_udp_packet)
    trace.capture(1001.25, sample_tcp_packet)
    return trace


def _chunk(bodies, timestamps=None, base_index=0):
    """A compact chunk from raw record bodies."""
    slab = bytearray()
    offsets = array("Q")
    lengths = array("I")
    wire = array("I")
    for body in bodies:
        offsets.append(len(slab))
        lengths.append(len(body))
        wire.append(len(body))
        slab.extend(body)
    ts = array("d", timestamps or [float(i) for i in range(len(bodies))])
    return ColumnarChunk(
        data=bytes(slab), timestamps=ts, offsets=offsets,
        lengths=lengths, wire_lengths=wire, base_index=base_index,
    )


class TestColumnarChunk:
    def test_record_access(self):
        chunk = _chunk([b"aaaa", b"bb", b"cccccc"])
        assert len(chunk) == 3
        assert chunk.record_bytes(1) == b"bb"
        assert bytes(chunk.record_view(2)) == b"cccccc"

    def test_base_index_offsets_numbering(self):
        chunk = _chunk([b"aa", b"bb", b"cc"], base_index=100)
        assert chunk.slice(1, 3).base_index == 101
        assert chunk.slice(1, 3).record_bytes(0) == b"bb"

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ColumnarError):
            ColumnarChunk(
                data=b"abc",
                timestamps=array("d", [0.0, 1.0]),
                offsets=array("Q", [0]),
                lengths=array("I", [3]),
            )

    def test_from_records_round_trip(self):
        records = [
            TraceRecord(timestamp=1.5, data=b"x" * 40, wire_length=1500),
            TraceRecord(timestamp=2.5, data=b"y" * 28, wire_length=28),
        ]
        chunk = ColumnarChunk.from_records(records)
        assert list(chunk.to_records()) == records

    def test_to_records_requires_wire_lengths(self):
        chunk = _chunk([b"aa"])
        chunk.wire_lengths = None
        with pytest.raises(ColumnarError):
            list(chunk.to_records())


class TestColumnarTrace:
    def test_summary_surface_matches_trace(self, sample_tcp_packet):
        trace = Trace(link_name="oc12", snaplen=64)
        for i in range(5):
            trace.capture(10.0 + i, sample_tcp_packet)
        ctrace = ColumnarTrace.from_trace(trace, chunk_records=2)
        assert len(ctrace.chunks) == 3
        assert len(ctrace) == len(trace)
        assert ctrace.start_time == trace.start_time
        assert ctrace.end_time == trace.end_time
        assert ctrace.duration == trace.duration
        assert ctrace.total_bytes == trace.total_bytes
        assert ctrace.average_bandwidth_bps() == pytest.approx(
            trace.average_bandwidth_bps()
        )

    def test_round_trip_to_trace(self, sample_tcp_packet, sample_udp_packet):
        trace = Trace(link_name="t", snaplen=64)
        trace.capture(1.0, sample_tcp_packet)
        trace.capture(2.0, sample_udp_packet)
        ctrace = ColumnarTrace.from_trace(trace)
        restored = ctrace.to_trace()
        assert restored.link_name == trace.link_name
        assert restored.snaplen == trace.snaplen
        assert restored.records == trace.records

    def test_empty_trace(self):
        ctrace = ColumnarTrace()
        assert ctrace.empty
        assert len(ctrace) == 0
        assert ctrace.duration == 0.0
        with pytest.raises(ColumnarError):
            ctrace.start_time


def _assert_same_records(ctrace, trace):
    """Record-for-record equality of the two representations."""
    materialized = ctrace.to_trace()
    assert len(materialized.records) == len(trace.records)
    for got, expected in zip(materialized.records, trace.records):
        assert got == expected


class TestColumnarReaderParity:
    """read_pcap_columnar loads exactly what read_pcap loads."""

    def test_little_endian_micro(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        _assert_same_records(read_pcap_columnar(path), read_pcap(path))

    def test_snaplen_and_link_name(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        ctrace = read_pcap_columnar(path, link_name="edge")
        assert ctrace.snaplen == 64
        assert ctrace.link_name == "edge"
        # Same default as read_pcap: empty unless the caller names it.
        assert read_pcap_columnar(path).link_name == ""

    def test_chunk_boundaries_preserve_numbering(self, small_trace,
                                                 tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        chunks = list(iter_pcap_columnar(path, chunk_records=1))
        assert [c.base_index for c in chunks] == [0, 1, 2]
        flat = [r for c in chunks for r in c.to_records()]
        assert flat == read_pcap(path).records

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(b"")
        with pytest.raises(PcapError):
            read_pcap_columnar(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapError):
            list(iter_pcap_columnar(path))

    def test_records_only_no_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(PcapError):
            read_pcap_columnar(path)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "hdr.pcap"
        write_pcap(Trace(), path)
        ctrace = read_pcap_columnar(path)
        assert ctrace.empty
        assert ctrace.snaplen == read_pcap(path).snaplen


def _write_exotic(path, magic, endian, records, snaplen=65535,
                  linktype=101):
    """Hand-build a pcap file in any byte order / resolution."""
    header = struct.pack(f"{endian}IHHiIII", magic, 2, 4, 0, 0, snaplen,
                         linktype)
    blob = bytearray(header)
    for seconds, fraction, captured, wire, body in records:
        blob += struct.pack(f"{endian}IIII", seconds, fraction, captured,
                            wire)
        blob += body
    path.write_bytes(bytes(blob))


class TestPcapEdgeCasesBothReaders:
    """Every edge case through read_pcap AND read_pcap_columnar."""

    MAGIC = 0xA1B2C3D4
    MAGIC_NS = 0xA1B23C4D

    def _both(self, path):
        trace = read_pcap(path)
        ctrace = read_pcap_columnar(path)
        _assert_same_records(ctrace, trace)
        return trace, ctrace

    def test_big_endian_magic(self, tmp_path):
        path = tmp_path / "be.pcap"
        body = bytes(range(40))
        _write_exotic(path, self.MAGIC, ">",
                      [(100, 250_000, 40, 1500, body)])
        trace, ctrace = self._both(path)
        assert trace[0].timestamp == pytest.approx(100.25)
        assert trace[0].data == body
        assert trace[0].wire_length == 1500

    def test_nanosecond_magic(self, tmp_path):
        path = tmp_path / "ns.pcap"
        body = bytes(40)
        _write_exotic(path, self.MAGIC_NS, "<",
                      [(7, 500_000_000, 40, 40, body)])
        trace, ctrace = self._both(path)
        assert trace[0].timestamp == pytest.approx(7.5)
        # Bit-identical float arithmetic, not merely approximate.
        assert ctrace.chunks[0].timestamps[0] == trace[0].timestamp

    def test_big_endian_nanosecond(self, tmp_path):
        path = tmp_path / "bens.pcap"
        _write_exotic(path, self.MAGIC_NS, ">",
                      [(1, 1, 24, 24, bytes(24))])
        trace, _ = self._both(path)
        assert trace[0].timestamp == pytest.approx(1.000000001)

    def test_ethernet_mac_header_stripped(self, tmp_path):
        path = tmp_path / "eth.pcap"
        mac = bytes(14)
        ip = bytes(range(2, 42))
        _write_exotic(path, self.MAGIC, "<",
                      [(5, 0, 54, 68, mac + ip)], linktype=1)
        trace, ctrace = self._both(path)
        assert trace[0].data == ip
        assert trace[0].wire_length == 54  # 68 - 14 MAC bytes

    def test_snaplen_shorter_than_wire_length(self, tmp_path):
        path = tmp_path / "cap.pcap"
        body = bytes(40)
        _write_exotic(path, self.MAGIC, "<",
                      [(1, 0, 40, 1500, body)], snaplen=40)
        trace, ctrace = self._both(path)
        assert trace[0].data == body
        assert trace[0].wire_length == 1500
        assert trace.snaplen == ctrace.snaplen == 40

    def test_zero_length_record_body(self, tmp_path):
        path = tmp_path / "zero.pcap"
        _write_exotic(path, self.MAGIC, "<",
                      [(1, 0, 0, 0, b""),
                       (2, 0, 40, 40, bytes(40))])
        trace, ctrace = self._both(path)
        assert trace[0].data == b""
        assert len(trace) == 2
        # Zero-length records still occupy a global index.
        assert len(ctrace.chunks[0]) == 2

    def test_truncated_record_header_warns_on_mmap_path(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "cuthdr.pcap"
        write_pcap(small_trace, path)
        data = path.read_bytes()
        # Keep the global header, both full records, and 7 bytes of the
        # third record's 16-byte header.
        offset = 24
        for record in small_trace.records[:2]:
            offset += 16 + len(record.data)
        path.write_bytes(data[:offset + 7])
        with pytest.warns(PcapWarning):
            trace = read_pcap(path)
        with pytest.warns(PcapWarning):
            ctrace = read_pcap_columnar(path)
        _assert_same_records(ctrace, trace)
        assert len(trace) == 2

    def test_truncated_record_body_warns_on_mmap_path(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "cutbody.pcap"
        write_pcap(small_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.warns(PcapWarning):
            trace = read_pcap(path)
        with pytest.warns(PcapWarning):
            ctrace = read_pcap_columnar(path)
        _assert_same_records(ctrace, trace)
        assert len(trace) == len(small_trace) - 1

    def test_truncation_counted_in_metrics(self, small_trace, tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(small_trace, path)
        path.write_bytes(path.read_bytes()[:-5])
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PcapWarning)
                read_pcap_columnar(path)
            counter = registry.counter("pcap_truncated_records_total")
            assert counter.value == 1
        finally:
            set_registry(previous)


class TestIterPcapShortRecords:
    def test_read_pcap_still_materializes_short_records(self, tmp_path):
        path = tmp_path / "short.pcap"
        _write_exotic(path, 0xA1B2C3D4, "<", [
            (1, 0, 8, 8, bytes(8)),
            (2, 0, 40, 40, bytes(40)),
        ])
        # Both readers keep them so record indices line up; the step-1
        # kernel skips and counts them (records_skipped_short).
        assert len(read_pcap(path)) == 2
        assert len(read_pcap_columnar(path)) == 2
