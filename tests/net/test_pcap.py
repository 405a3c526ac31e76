"""Tests for pcap file I/O."""

import struct
import warnings

import pytest

from repro.net import pcap
from repro.net.pcap import (
    PcapError,
    PcapWarning,
    iter_pcap_columnar,
    read_pcap,
    write_pcap,
)
from repro.net.trace import Trace


@pytest.fixture
def small_trace(sample_tcp_packet, sample_udp_packet) -> Trace:
    trace = Trace(link_name="test", snaplen=64)
    trace.capture(1000.000001, sample_tcp_packet)
    trace.capture(1000.5, sample_udp_packet)
    trace.capture(1001.25, sample_tcp_packet)
    return trace


class TestPcapRoundTrip:
    def test_round_trip_preserves_records(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        loaded = read_pcap(path, link_name="test")
        assert len(loaded) == len(small_trace)
        for original, loaded_record in zip(small_trace, loaded):
            assert loaded_record.data == original.data
            assert loaded_record.wire_length == original.wire_length
            assert loaded_record.timestamp == pytest.approx(
                original.timestamp, abs=1e-6
            )

    def test_round_trip_empty_trace(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(Trace(), path)
        assert len(read_pcap(path)) == 0

    def test_snaplen_preserved(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        assert read_pcap(path).snaplen == 64

    def test_microsecond_rollover(self, sample_tcp_packet, tmp_path):
        trace = Trace()
        trace.capture(9.9999999, sample_tcp_packet)  # rounds to 10.000000
        path = tmp_path / "roll.pcap"
        write_pcap(trace, path)
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(10.0, abs=1e-6)


class TestPcapErrors:
    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_truncated_final_record_body_is_dropped_with_warning(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "cut.pcap"
        write_pcap(small_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.warns(PcapWarning):
            trace = read_pcap(path)
        assert len(trace) == len(small_trace) - 1
        for original, loaded in zip(small_trace, trace):
            assert loaded.data == original.data

    def test_truncated_final_record_header_is_dropped_with_warning(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "cut.pcap"
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
        assert len(trace) == 2

    def test_rejects_unknown_linktype(self, tmp_path):
        path = tmp_path / "link.pcap"
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 228)
        path.write_bytes(header)
        with pytest.raises(PcapError):
            read_pcap(path)


class TestPcapInterop:
    def test_reads_big_endian_files(self, sample_udp_packet, tmp_path):
        data = sample_udp_packet.pack()
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack(">IIII", 100, 250000, len(data), len(data))
        path = tmp_path / "be.pcap"
        path.write_bytes(header + record + data)
        trace = read_pcap(path)
        assert len(trace) == 1
        assert trace[0].timestamp == pytest.approx(100.25)
        assert trace[0].data == data

    def test_reads_nanosecond_magic(self, sample_udp_packet, tmp_path):
        data = sample_udp_packet.pack()
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("<IIII", 100, 500_000_000, len(data), len(data))
        path = tmp_path / "ns.pcap"
        path.write_bytes(header + record + data)
        trace = read_pcap(path)
        assert trace[0].timestamp == pytest.approx(100.5)

    def test_strips_ethernet_header(self, sample_udp_packet, tmp_path):
        ip_bytes = sample_udp_packet.pack()
        frame = b"\x00" * 12 + b"\x08\x00" + ip_bytes
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 7, 0, len(frame), len(frame))
        path = tmp_path / "eth.pcap"
        path.write_bytes(header + record + frame)
        trace = read_pcap(path)
        assert trace[0].data == ip_bytes


def _columnar_records(path, **kwargs):
    return [record for chunk in iter_pcap_columnar(path, **kwargs)
            for record in chunk.to_records()]


class TestIterPcap:
    """Record streams from :func:`iter_pcap_columnar`."""

    def test_iter_matches_read(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        loaded = read_pcap(path)
        assert _columnar_records(path) == loaded.records

    def test_iter_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(Trace(), path)
        assert _columnar_records(path) == []

    def test_iter_warns_on_truncated_tail(self, small_trace, tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(small_trace, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.warns(PcapWarning):
            streamed = _columnar_records(path)
        assert len(streamed) == len(small_trace) - 1

    def test_iter_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapError):
            list(iter_pcap_columnar(path))


class TestIterPcapChunks:
    """:func:`iter_pcap_columnar` chunk sizing."""

    @pytest.mark.parametrize("chunk_records", [1, 2, 3, 100])
    def test_chunks_round_trip(self, small_trace, tmp_path, chunk_records):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        loaded = read_pcap(path, link_name="test")
        chunks = list(iter_pcap_columnar(path, chunk_records=chunk_records))
        assert all(len(c) <= chunk_records for c in chunks)
        assert all(len(c) == chunk_records for c in chunks[:-1])
        rebuilt = [record for chunk in chunks for record in chunk.to_records()]
        assert rebuilt == loaded.records

    def test_chunks_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(Trace(), path)
        assert list(iter_pcap_columnar(path, chunk_records=1)) == []

    def test_rejects_bad_chunk_size(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        with pytest.raises(PcapError):
            list(iter_pcap_columnar(path, chunk_records=0))


# -- vectorized vs per-record columnar decode ---------------------------------

MAGIC = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D


def write_raw_pcap(path, records, endian="<", magic=MAGIC, linktype=101,
                   tail=b""):
    """Hand-build a pcap from ``(seconds, fraction, captured, wire)``
    headers; each body is ``captured`` bytes of a per-record pattern, and
    ``tail`` is appended raw (a truncated final record)."""
    blob = bytearray(struct.pack(f"{endian}IHHiIII", magic, 2, 4, 0, 0,
                                 65535, linktype))
    for i, (seconds, fraction, captured, wire) in enumerate(records):
        blob += struct.pack(f"{endian}IIII", seconds, fraction, captured,
                            wire)
        blob += bytes((i + k) & 0xFF for k in range(captured))
    blob += tail
    path.write_bytes(bytes(blob))


def _per_record_decoder(buf, header):
    """A stand-in for :func:`repro.net.pcap._run_decoder` whose runs take
    no records, so every record goes through the per-record loop."""
    return lambda position, limit, columns: (0, position)


def decode_columnar(path, chunk_records, vectorized):
    """Every chunk of :func:`iter_pcap_columnar` as plain values, plus the
    warning messages, with the vectorized decoder on or forced off."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.MonkeyPatch.context() as patch:
            if not vectorized:
                patch.setattr(pcap, "_run_decoder", _per_record_decoder)
            chunks = [
                (chunk.base_index, chunk.stride, list(chunk.timestamps),
                 list(chunk.offsets), list(chunk.lengths),
                 list(chunk.wire_lengths))
                for chunk in iter_pcap_columnar(
                    path, chunk_records=chunk_records)
            ]
    return chunks, [str(w.message) for w in caught
                    if issubclass(w.category, PcapWarning)]


def assert_decoders_agree(path, chunk_records):
    vectorized = decode_columnar(path, chunk_records, vectorized=True)
    assert vectorized == decode_columnar(path, chunk_records,
                                         vectorized=False)
    return vectorized


def _uniform(count, captured=40, wire=None, start=1000):
    return [(start + i // 3, (i * 12_345) % 1_000_000, captured,
             captured + (i % 7) if wire is None else wire)
            for i in range(count)]


class TestVectorizedColumnarDecode:
    @pytest.mark.parametrize("chunk_records", [1, 7, 64, 100, 65_536])
    def test_uniform_records(self, tmp_path, chunk_records):
        path = tmp_path / "u.pcap"
        write_raw_pcap(path, _uniform(100))
        chunks, caught = assert_decoders_agree(path, chunk_records)
        assert sum(len(chunk[2]) for chunk in chunks) == 100
        assert [chunk[0] for chunk in chunks] == list(
            range(0, 100, chunk_records))
        assert all(chunk[1] == 56 for chunk in chunks)
        assert caught == []

    @pytest.mark.parametrize("records,chunk_records,runs", [
        # Uniform: one run per chunk.
        (_uniform(300), 128, [128, 128, 44]),
        # One odd record: the rest of its chunk goes one by one.
        (_uniform(37) + [(1, 0, 28, 28)] + _uniform(42), 100, [37]),
        # Lengths vary record to record: still one call per chunk.
        ([(1, i, 40 + (i % 2) * 20, 80) for i in range(150)], 64,
         [1, 1, 1]),
        # An odd record every 40: one call per chunk, each ending at the
        # chunk's first odd record, so decode cost stays linear.
        ([(1, i, 28 if i % 40 == 39 else 40, 80) for i in range(1000)],
         256, [39, 23, 7, 31]),
    ])
    def test_vectorized_runs(self, tmp_path, monkeypatch, records,
                             chunk_records, runs):
        taken = []
        real = pcap._run_decoder

        def spy(buf, header):
            decode_run = real(buf, header)

            def counted(position, limit, columns):
                result = decode_run(position, limit, columns)
                taken.append(result[0])
                return result
            return counted

        monkeypatch.setattr(pcap, "_run_decoder", spy)
        path = tmp_path / "runs.pcap"
        write_raw_pcap(path, records)
        chunks = list(iter_pcap_columnar(path, chunk_records=chunk_records))
        assert taken == runs
        assert len(taken) == len(chunks)
        assert_decoders_agree(path, chunk_records)

    @pytest.mark.parametrize("endian,magic", [
        (">", MAGIC), ("<", MAGIC_NS), (">", MAGIC_NS),
    ])
    def test_byte_order_and_resolution(self, tmp_path, endian, magic):
        path = tmp_path / "m.pcap"
        records = [(7 + i, i * 999_999 % (10 ** 9), 40, 52)
                   for i in range(90)]
        write_raw_pcap(path, records, endian=endian, magic=magic)
        chunks, _ = assert_decoders_agree(path, 64)
        assert chunks[0][2][0] == 7.0

    @pytest.mark.parametrize("captured", [0, 10, 14, 15, 54])
    def test_ethernet_linktype(self, tmp_path, captured):
        path = tmp_path / "eth.pcap"
        records = [(1, i, captured, wire)
                   for i, wire in enumerate([0, 5, 14, 20, 60] * 12)]
        write_raw_pcap(path, records, linktype=1)
        assert_decoders_agree(path, 64)

    def test_irregular_caplen_mid_chunk(self, tmp_path):
        path = tmp_path / "odd.pcap"
        records = _uniform(80)
        records[37] = (1012, 5, 28, 28)
        records[61] = (1020, 5, 0, 40)
        write_raw_pcap(path, records)
        chunks, _ = assert_decoders_agree(path, 100)
        assert chunks[0][1] is None  # mixed lengths: no stride

    def test_alternating_caplens(self, tmp_path):
        path = tmp_path / "alt.pcap"
        records = [(1, i, 40 + (i % 2) * 20, 80) for i in range(150)]
        write_raw_pcap(path, records)
        assert_decoders_agree(path, 64)

    def test_zero_caplen(self, tmp_path):
        path = tmp_path / "zero.pcap"
        write_raw_pcap(path, _uniform(50, captured=0, wire=40))
        chunks, _ = assert_decoders_agree(path, 32)
        assert chunks[0][1] is None
        assert chunks[0][4] == [0] * 32

    @pytest.mark.parametrize("tail_bytes", [7, 16 + 12])
    def test_truncated_tail(self, tmp_path, tail_bytes):
        path = tmp_path / "cut.pcap"
        records = _uniform(75)
        write_raw_pcap(path, records)
        full = path.read_bytes()
        # Append a partial 76th record: a cut header, or a full header
        # with 12 of its 40 body bytes.
        extra = struct.pack("<IIII", 2000, 1, 40, 40) + bytes(40)
        path.write_bytes(full + extra[:tail_bytes])
        chunks, caught = assert_decoders_agree(path, 64)
        assert sum(len(chunk[2]) for chunk in chunks) == 75
        assert len(caught) == 1

    def test_truncated_run_body(self, tmp_path):
        path = tmp_path / "cut.pcap"
        write_raw_pcap(path, _uniform(40))
        path.write_bytes(path.read_bytes()[:-5])
        chunks, caught = assert_decoders_agree(path, 64)
        assert len(chunks[0][2]) == 39
        assert caught == ["pcap capture ends mid-record (35/40 body "
                          "bytes); dropping the partial final record"]

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_raw_pcap(path, [])
        assert assert_decoders_agree(path, 64) == ([], [])

    def test_wire_shorter_than_caplen(self, tmp_path):
        path = tmp_path / "w.pcap"
        write_raw_pcap(path, _uniform(60, captured=40, wire=12))
        chunks, _ = assert_decoders_agree(path, 64)
        assert chunks[0][5] == [40] * 60
