"""Property-based tests for pcap round-trips and pipeline composition."""

import random
import struct
import tracemalloc
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.anonymize import PrefixPreservingAnonymizer
from repro.net.pcap import (
    PcapError,
    PcapWarning,
    read_pcap,
    read_pcap_columnar,
    write_pcap,
)
from repro.net.trace import Trace, TraceRecord
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.net.test_pcap import (
    MAGIC,
    MAGIC_NS,
    assert_decoders_agree,
    write_raw_pcap,
)

records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6),
        st.binary(min_size=0, max_size=80),
    ),
    min_size=0,
    max_size=40,
)


class TestPcapRoundTripProperty:
    @given(items=records)
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_records_round_trip(self, items, tmp_path_factory):
        path = tmp_path_factory.mktemp("pcap") / "t.pcap"
        trace = Trace(snaplen=100)
        for timestamp, data in sorted(items, key=lambda item: item[0]):
            trace.append(TraceRecord(timestamp=timestamp, data=data,
                                     wire_length=len(data)))
        write_pcap(trace, path)
        loaded = read_pcap(path)
        assert len(loaded) == len(trace)
        for original, reloaded in zip(trace, loaded):
            assert reloaded.data == original.data
            assert reloaded.wire_length == original.wire_length
            assert abs(reloaded.timestamp - original.timestamp) < 1e-5


@st.composite
def raw_pcaps(draw):
    """Record headers dominated by one captured length, with irregular
    lengths, zero lengths, and a truncated tail mixed in."""
    common = draw(st.sampled_from([0, 14, 20, 40, 64]))
    captured = st.one_of(st.just(common), st.just(common),
                         st.just(common), st.integers(0, 70))
    headers = draw(st.lists(
        st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
                  captured, st.integers(0, 2 ** 32 - 1)),
        max_size=120,
    ))
    tail = draw(st.sampled_from([b"", b"\x01" * 7, b"\x01" * 20]))
    return {
        "headers": headers,
        "endian": draw(st.sampled_from("<>")),
        "magic": draw(st.sampled_from([MAGIC, MAGIC_NS])),
        "linktype": draw(st.sampled_from([101, 1])),
        "tail": tail,
        "chunk_records": draw(st.integers(1, 80)),
    }


class TestColumnarDecodeProperty:
    @given(pcap=raw_pcaps())
    @settings(max_examples=150, deadline=None)
    def test_vectorized_matches_per_record(self, pcap, tmp_path_factory):
        """Chunk boundaries, base indices, strides, every column, and
        truncation warnings match the per-record decoder."""
        path = tmp_path_factory.mktemp("raw") / "r.pcap"
        write_raw_pcap(path, pcap["headers"], endian=pcap["endian"],
                       magic=pcap["magic"], linktype=pcap["linktype"],
                       tail=pcap["tail"])
        assert_decoders_agree(path, pcap["chunk_records"])


@st.composite
def hostile_pcaps(draw):
    """A valid global header followed by arbitrary bytes: record
    headers whose captured length runs up to 2**32 - 1, bodies of any
    size, and junk between them."""
    endian = draw(st.sampled_from("<>"))
    blob = bytearray(struct.pack(f"{endian}IHHiIII",
                                 draw(st.sampled_from([MAGIC, MAGIC_NS])),
                                 2, 4, 0, 0, 65535, 101))
    for _ in range(draw(st.integers(0, 12))):
        captured = draw(st.one_of(st.integers(0, 80),
                                  st.integers(0, 2 ** 32 - 1),
                                  st.just(2 ** 32 - 1)))
        blob += struct.pack(f"{endian}IIII",
                            draw(st.integers(0, 2 ** 32 - 1)),
                            draw(st.integers(0, 2 ** 32 - 1)), captured,
                            draw(st.integers(0, 2 ** 32 - 1)))
        blob += draw(st.binary(max_size=96))
    return bytes(blob)


#: Reading and detecting a hostile file of at most a few KB must stay
#: far below what an honoured 4 GB captured length would take.
_HOSTILE_PEAK_BYTES = 8 << 20


def _read_and_detect(data, chunk_records, tmp_path_factory):
    """Reading the file ``data`` and detecting on it either raises
    :class:`PcapError` or returns, the two decoders agree, and memory
    stays bounded."""
    path = tmp_path_factory.mktemp("hostile") / "h.pcap"
    path.write_bytes(data)
    try:
        expected = assert_decoders_agree(path, chunk_records)
    except PcapError as error:
        expected = error
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PcapWarning)
            result = LoopDetector().detect_columnar(
                read_pcap_columnar(path))
    except PcapError as error:
        assert isinstance(expected, PcapError)
        assert str(error) == str(expected)
    else:
        assert not isinstance(expected, PcapError)
        assert result.scan_stats.records_scanned == sum(
            len(chunk[2]) for chunk in expected[0])
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < _HOSTILE_PEAK_BYTES


def _mostly(valid, anything):
    """Valid values three draws in four, so that many files decode."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda pick: st.sampled_from(valid) if pick else anything)


@st.composite
def garbage_global_headers(draw):
    """An arbitrary 24-byte global header — magic, version, time zone,
    snaplen and link type, valid or not — followed by valid records."""
    endian = draw(st.sampled_from("<>"))
    word = st.integers(0, 2 ** 32 - 1)
    half = st.integers(0, 2 ** 16 - 1)
    major, minor = draw(_mostly([(2, 4)], st.tuples(half, half)))
    blob = bytearray(struct.pack(
        f"{endian}IHHiIII",
        draw(_mostly([MAGIC, MAGIC_NS, 0xD4C3B2A1, 0x4D3CB2A1], word)),
        major, minor,
        draw(st.integers(-2 ** 31, 2 ** 31 - 1)),
        draw(word),
        draw(_mostly([0, 40, 65535], word)),
        draw(_mostly([1, 101], word)),
    ))
    for i in range(draw(st.integers(0, 12))):
        body = draw(st.binary(max_size=80))
        blob += struct.pack(f"{endian}IIII", 1000 + i, 0, len(body),
                            len(body))
        blob += body
    return bytes(blob)


class TestHostilePcapProperty:
    @given(data=hostile_pcaps(), chunk_records=st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_read_and_detect_raise_or_return(self, data, chunk_records,
                                             tmp_path_factory):
        _read_and_detect(data, chunk_records, tmp_path_factory)

    @given(data=garbage_global_headers(), chunk_records=st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_garbage_global_header_raises_or_decodes(
            self, data, chunk_records, tmp_path_factory):
        _read_and_detect(data, chunk_records, tmp_path_factory)


scenario = st.fixed_dictionaries({
    "seed": st.integers(0, 3000),
    "replicas": st.integers(3, 8),
    "background": st.integers(10, 120),
})


class TestPipelineComposition:
    @given(params=scenario)
    @settings(max_examples=15, deadline=None)
    def test_anonymize_then_stream_equals_offline_plain(self, params,
                                                        tmp_path_factory):
        """The full production pipeline — capture, anonymize, write pcap,
        read back, stream-detect — finds the same loop structure as
        offline detection on the raw trace."""
        builder = SyntheticTraceBuilder(rng=random.Random(params["seed"]))
        builder.add_background(params["background"], 0.0, 60.0,
                               prefixes=[IPv4Prefix.parse(
                                   "198.51.100.0/24")])
        builder.add_loop(10.0, IPv4Prefix.parse("192.0.2.0/24"),
                         n_packets=2,
                         replicas_per_packet=params["replicas"],
                         spacing=0.01, packet_gap=0.015, entry_ttl=40)
        trace = builder.build()

        baseline = LoopDetector().detect(trace)

        anonymizer = PrefixPreservingAnonymizer(
            b"pipeline-composition-test-key-32"
        )
        masked = anonymizer.anonymize_trace(trace)
        path = tmp_path_factory.mktemp("pipe") / "masked.pcap"
        write_pcap(masked, path)
        reloaded = read_pcap(path)
        online = StreamingLoopDetector().process_trace(reloaded)

        assert len(online) == baseline.loop_count
        # pcap stores microsecond timestamps: compare windows with a
        # tolerance rather than rounding (rounding can straddle digits).
        online_sorted = sorted(online, key=lambda loop: loop.start)
        expected_sorted = sorted(baseline.loops,
                                 key=lambda loop: loop.start)
        for got, want in zip(online_sorted, expected_sorted):
            assert abs(got.start - want.start) < 5e-5
            assert abs(got.end - want.end) < 5e-5
            assert got.stream_count == want.stream_count
            assert got.replica_count == want.replica_count
