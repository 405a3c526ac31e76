"""The vectorized step-1 kernel tier and its numpy building blocks.

Three contracts:

* the vectorize primitives keep their contracts (equal rows hash
  equal; the hash weight table is prefix-stable as it grows);
* ``detect_replicas_vectorized`` returns byte-identical streams AND
  scan stats to the reference oracle (``tests/oracles.py``) and the
  pure-python columnar kernel on every layout — regular, padded
  strides, irregular, mixed, heavy eviction;
* tier dispatch: ``resolve_kernel`` / ``detect_replicas_with_kernel``
  route correctly and ``auto`` degrades to ``columnar`` without numpy.
"""

import random
from array import array

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core import vectorize
from repro.core.replica import (
    ReplicaError,
    ReplicaScanStats,
    detect_replicas_columnar,
    detect_replicas_vectorized,
    detect_replicas_with_kernel,
    resolve_kernel,
)
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import (
    chunk_triples,
    detect_replicas_indexed,
    reference_replicas,
)

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
BACKGROUND = IPv4Prefix.parse("198.51.100.0/24")


def _stream_fp(stream):
    return (
        stream.key,
        stream.first_data,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


def _fps(streams):
    return [_stream_fp(s) for s in streams]


def _loop_trace(seed=0, background=400):
    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    builder.add_background(background, 0.0, 30.0, prefixes=[BACKGROUND])
    builder.add_loop(5.0, PREFIX, n_packets=3, replicas_per_packet=6,
                     spacing=0.01, entry_ttl=40)
    builder.add_loop(12.0, PREFIX, n_packets=2, replicas_per_packet=4,
                     spacing=0.02, entry_ttl=30)
    return builder.build()


def _chunks_from_bodies(bodies, chunk_records=7, spacing=0.01):
    """Irregular chunks: packed back to back, no declared stride."""
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
            timestamps=array("d", [(start + i) * spacing
                                   for i in range(len(batch))]),
            offsets=offsets,
            lengths=lengths,
            base_index=start,
        ))
    return chunks


def _oracle(chunks, **kwargs):
    return detect_replicas_indexed(chunk_triples(chunks), **kwargs)


def _all_tiers(chunks, **kwargs):
    """Run the oracle and both kernel tiers with fresh stats; return
    [(fps, stats)]."""
    out = []
    for impl in (_oracle, detect_replicas_columnar,
                 detect_replicas_vectorized):
        stats = ReplicaScanStats()
        streams = impl(chunks, stats=stats, **kwargs)
        out.append((_fps(streams), (stats.records_scanned,
                                    stats.records_skipped_short,
                                    stats.singletons_evicted,
                                    stats.candidate_streams)))
    return out


def _assert_tiers_identical(chunks, **kwargs):
    reference, columnar, vectorized = _all_tiers(chunks, **kwargs)
    assert columnar == reference
    assert vectorized == reference


class TestVectorizePrimitives:
    def test_hash_weights_prefix_stable(self):
        short = vectorize.hash_weights(5).copy()
        long = vectorize.hash_weights(vectorize._WEIGHT_BLOCK * 2 + 3)
        assert (long[:5] == short).all()
        assert (long % 2 == 1).all()  # odd weights: full-period mixing

    def test_hash_rows_equal_rows_equal_hash(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 256, (8, 37), dtype=np.uint8)
        doubled = np.vstack([rows, rows])
        hashes = vectorize.hash_rows(doubled)
        assert (hashes[:8] == hashes[8:]).all()


class TestVectorizedKernelEquivalence:
    def test_regular_chunks(self):
        trace = _loop_trace()
        ctrace = ColumnarTrace.from_trace(trace, chunk_records=100)
        _assert_tiers_identical(ctrace.chunks)
        # and the oracle over the materialized trace agrees
        vec = detect_replicas_vectorized(ctrace.chunks)
        assert _fps(vec) == _fps(reference_replicas(trace))

    def test_padded_stride(self):
        # stride > record length: rows are strided slices, not packed.
        trace = _loop_trace(seed=3)
        base = ColumnarTrace.from_trace(trace, chunk_records=64).chunks
        padded = []
        for chunk in base:
            length = chunk.lengths[0]
            stride = length + 9
            slab = bytearray()
            offsets = array("Q")
            for i in range(len(chunk.lengths)):
                offsets.append(len(slab))
                slab += chunk.record_bytes(i)
                slab += b"\xaa" * (stride - length)
            padded.append(ColumnarChunk(
                data=bytes(slab),
                timestamps=chunk.timestamps,
                offsets=offsets,
                lengths=chunk.lengths,
                base_index=chunk.base_index,
                stride=stride,
            ))
        _assert_tiers_identical(padded)

    def test_irregular_and_short_bodies(self):
        rng = random.Random(5)
        bodies = []
        for i in range(200):
            if rng.random() < 0.2:
                bodies.append(rng.randbytes(rng.randrange(0, 20)))
            elif bodies and rng.random() < 0.4:
                dup = bytearray(rng.choice(bodies))
                if len(dup) > 8:
                    dup[8] = rng.randrange(256)
                bodies.append(bytes(dup))
            else:
                bodies.append(rng.randbytes(rng.choice([20, 28, 40])))
        _assert_tiers_identical(_chunks_from_bodies(bodies))

    def test_mixed_regular_and_irregular_chunks(self):
        trace = _loop_trace(seed=7, background=150)
        regular = ColumnarTrace.from_trace(trace, chunk_records=50).chunks
        rng = random.Random(11)
        irregular = _chunks_from_bodies(
            [rng.randbytes(rng.choice([20, 40])) for _ in range(60)],
        )
        # interleave, rebasing irregular indices after the regular ones
        total = sum(len(c.lengths) for c in regular)
        rebased = [
            ColumnarChunk(
                data=c.data, timestamps=c.timestamps, offsets=c.offsets,
                lengths=c.lengths, base_index=total + c.base_index,
            )
            for c in irregular
        ]
        _assert_tiers_identical(regular + rebased)

    @pytest.mark.parametrize("eviction_interval", [1, 7, 64, 997])
    def test_heavy_eviction(self, eviction_interval):
        trace = _loop_trace(seed=13, background=800)
        ctrace = ColumnarTrace.from_trace(trace, chunk_records=128)
        _assert_tiers_identical(
            ctrace.chunks,
            max_replica_gap=0.05,
            eviction_interval=eviction_interval,
        )

    def test_empty_input(self):
        assert detect_replicas_vectorized([]) == []

    def test_parameter_validation(self):
        with pytest.raises(ReplicaError):
            detect_replicas_vectorized([], min_ttl_delta=0)
        with pytest.raises(ReplicaError):
            detect_replicas_vectorized([], max_replica_gap=-1.0)


class TestTierDispatch:
    def test_resolve_auto_prefers_vectorized(self):
        assert resolve_kernel("auto") == "vectorized"
        for tier in ("columnar", "vectorized"):
            assert resolve_kernel(tier) == tier

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ReplicaError):
            resolve_kernel("simd")

    def test_auto_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorize, "np", None)
        monkeypatch.setattr(vectorize, "HAVE_NUMPY", False)
        assert resolve_kernel("auto") == "columnar"

    def test_vectorized_falls_back_without_numpy(self, monkeypatch):
        trace = _loop_trace(seed=17, background=100)
        ctrace = ColumnarTrace.from_trace(trace, chunk_records=64)
        expected = _fps(detect_replicas_columnar(ctrace.chunks))
        monkeypatch.setattr(vectorize, "np", None)
        monkeypatch.setattr(vectorize, "HAVE_NUMPY", False)
        assert _fps(detect_replicas_vectorized(ctrace.chunks)) == expected

    def test_with_kernel_accepts_trace_and_chunk_list(self):
        trace = _loop_trace(seed=19, background=100)
        ctrace = ColumnarTrace.from_trace(trace, chunk_records=64)
        by_trace = detect_replicas_vectorized(ctrace)
        by_list = detect_replicas_columnar(ctrace.chunks)
        assert _fps(by_trace) == _fps(by_list)
        assert _fps(detect_replicas_with_kernel(ctrace)) == _fps(by_trace)
