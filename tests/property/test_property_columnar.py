"""Property-based tests for the columnar fast path.

Two contracts, checked over Hypothesis-generated inputs:

* ``mask_mutable_fields`` (single patched bytearray) is byte-for-byte
  the four-slice concatenation it replaced, for every buffer type;
* the batched columnar kernel returns byte-identical streams to the
  reference oracle ``detect_replicas_indexed`` (``tests/oracles.py``)
  for every record set and chunking.
"""

import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replica import detect_replicas_columnar, mask_mutable_fields
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import detect_replicas_indexed, reference_replicas

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
BACKGROUND_PREFIX = IPv4Prefix.parse("198.51.100.0/24")


def _mask_reference(data: bytes) -> bytes:
    """The old four-slice implementation, kept inline as the oracle."""
    return data[:8] + b"\x00" + data[9:10] + b"\x00\x00" + data[12:]


packet_bytes = st.binary(min_size=12, max_size=64)


class TestMaskEquivalence:
    @given(packet_bytes)
    @settings(max_examples=200)
    def test_matches_four_slice_reference(self, data):
        assert mask_mutable_fields(data) == _mask_reference(data)

    @given(packet_bytes)
    @settings(max_examples=50)
    def test_accepts_any_buffer_type(self, data):
        expected = _mask_reference(data)
        assert mask_mutable_fields(bytearray(data)) == expected
        assert mask_mutable_fields(memoryview(data)) == expected
        # Non-zero-offset views too — the columnar kernel passes slices
        # of a shared slab, never whole buffers.
        padded = memoryview(b"\xff" * 7 + data)[7:]
        assert mask_mutable_fields(padded) == expected

    @given(packet_bytes)
    @settings(max_examples=50)
    def test_only_ttl_and_checksum_zeroed(self, data):
        masked = mask_mutable_fields(data)
        assert len(masked) == len(data)
        assert masked[8] == 0 and masked[10] == 0 and masked[11] == 0
        for i, byte in enumerate(masked):
            if i not in (8, 10, 11):
                assert byte == data[i]


loop_params = st.fixed_dictionaries(
    {
        "ttl_delta": st.integers(min_value=2, max_value=6),
        "replicas_per_packet": st.integers(min_value=3, max_value=12),
        "n_packets": st.integers(min_value=1, max_value=5),
        "spacing": st.floats(min_value=0.001, max_value=0.1),
        "seed": st.integers(min_value=0, max_value=10_000),
        "background": st.integers(min_value=0, max_value=300),
        "chunk_records": st.integers(min_value=1, max_value=500),
    }
)


def _build(params):
    builder = SyntheticTraceBuilder(rng=random.Random(params["seed"]))
    if params["background"]:
        builder.add_background(params["background"], 0.0, 60.0,
                               prefixes=[BACKGROUND_PREFIX])
    entry_ttl = params["ttl_delta"] * (params["replicas_per_packet"] - 1) + 2
    builder.add_loop(
        10.0,
        PREFIX,
        ttl_delta=params["ttl_delta"],
        n_packets=params["n_packets"],
        replicas_per_packet=params["replicas_per_packet"],
        spacing=params["spacing"],
        packet_gap=params["spacing"] * 1.5,
        entry_ttl=entry_ttl,
    )
    return builder.build()


def _stream_fp(stream):
    return (
        stream.key,
        stream.first_data,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


class TestColumnarKernelProperty:
    @given(loop_params)
    @settings(max_examples=15, deadline=None)
    def test_kernel_matches_reference_for_all_geometries(self, params):
        trace = _build(params)
        ctrace = ColumnarTrace.from_trace(
            trace, chunk_records=params["chunk_records"]
        )
        columnar = detect_replicas_columnar(ctrace.chunks)
        reference = reference_replicas(trace)
        assert ([_stream_fp(s) for s in columnar]
                == [_stream_fp(s) for s in reference])

    @given(st.lists(st.binary(min_size=20, max_size=40), min_size=0,
                    max_size=30),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_kernel_matches_reference_on_arbitrary_bytes(
        self, bodies, chunk_records
    ):
        # Raw generated bodies — including exact duplicates, which is
        # how Hypothesis finds chaining edge cases the builder never
        # produces.
        triples = [(i, float(i) * 0.01, body)
                   for i, body in enumerate(bodies)]
        reference = detect_replicas_indexed(iter(triples))

        chunks = []
        for start in range(0, len(bodies), chunk_records):
            batch = bodies[start:start + chunk_records]
            slab = bytearray()
            offsets = array("Q")
            lengths = array("I")
            for body in batch:
                offsets.append(len(slab))
                lengths.append(len(body))
                slab.extend(body)
            chunks.append(ColumnarChunk(
                data=bytes(slab),
                timestamps=array(
                    "d", [t for _, t, _ in triples[start:start + len(batch)]]
                ),
                offsets=offsets,
                lengths=lengths,
                base_index=start,
            ))
        columnar = detect_replicas_columnar(chunks)
        assert ([_stream_fp(s) for s in columnar]
                == [_stream_fp(s) for s in reference])
