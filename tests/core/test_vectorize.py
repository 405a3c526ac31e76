"""The slab primitives of :mod:`repro.core.vectorize` against the plain
numpy calls they stand in for, and the step-1 kernel with hashes that
collide once truncated."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorize
from repro.core.replica import ReplicaScanStats, detect_replicas_vectorized
from tests.core.test_streaming_chunk import _assert_identical, _storm_trace
from tests.oracles import chunk_triples, detect_replicas_indexed
from tests.property.test_property_kernels import (
    _chunk,
    _run_tier,
    _stream_fp,
    layout,
)


def _slab(seed, first, n, stride, length):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, first + (n - 1) * stride + length,
                        dtype=np.uint8).tobytes()


def _masked_copy(data, first, n, stride, length):
    """The slab's records as a contiguous matrix, TTL and checksum
    zeroed."""
    region = np.frombuffer(data, dtype=np.uint8, offset=first)
    rows = np.lib.stride_tricks.as_strided(
        region, shape=(n, length), strides=(stride, 1)).copy()
    rows[:, [8, 10, 11]] = 0
    return rows


def _padded_dot(masked):
    """The matrix form of the hash: rows zero-padded to whole words,
    dotted with the weights."""
    n, length = masked.shape
    padded = np.zeros((n, (length + 7) & ~7), dtype=np.uint8)
    padded[:, :length] = masked
    words = padded.view("<u8")
    return (words * vectorize.hash_weights(words.shape[1])).sum(
        axis=1, dtype=np.uint64)


class TestHashRows:
    @pytest.mark.parametrize("length,stride", [
        (20, 20), (20, 45), (28, 28), (28, 45), (40, 40), (40, 56),
        (41, 41), (41, 45), (16, 16), (64, 71),
    ])
    @pytest.mark.parametrize("first", [0, 3])
    def test_slab_hash_is_masked_matrix_hash(self, length, stride, first):
        n = 50
        data = _slab(length * stride + first, first, n, stride, length)
        masked = _masked_copy(data, first, n, stride, length)
        expected = _padded_dot(masked)
        assert (vectorize.hash_rows(data, first, n, stride, length)
                == expected).all()
        # Hashing already-masked keys changes nothing.
        assert (vectorize.hash_rows(masked, 0, n, length, length)
                == expected).all()

    def test_only_mutable_fields_are_ignored(self):
        data = bytearray(_slab(1, 0, 4, 40, 40))
        data[40:80] = data[0:40]
        data[80:120] = data[0:40]
        data[120:160] = data[0:40]
        data[40 + 8] ^= 0xFF  # TTL
        data[80 + 10] ^= 0x0F  # checksum
        data[80 + 11] ^= 0xF0
        data[120 + 9] ^= 0x01  # protocol
        hashes = vectorize.hash_rows(bytes(data), 0, 4, 40, 40)
        assert hashes[0] == hashes[1] == hashes[2] != hashes[3]

    def test_no_records(self):
        assert len(vectorize.hash_rows(b"", 0, 0, 40, 40)) == 0


def _exact_repeats(hashes):
    _, inverse, counts = np.unique(hashes, return_inverse=True,
                                   return_counts=True)
    return counts[inverse] > 1


def _marked(hashes):
    """Which entries :func:`vectorize.shared` puts in a group, after
    checking its grouping: by high bits, ascending position within."""
    order, keys = vectorize.shared(hashes)
    marked = np.zeros(len(hashes), dtype=bool)
    marked[order] = True
    assert marked.sum() == len(order)
    if len(order):
        low = np.uint64((1 << max(len(hashes) - 1, 1).bit_length()) - 1)
        assert (keys == hashes[order] & ~low).all()
        assert (keys[1:] >= keys[:-1]).all()
        same = keys[1:] == keys[:-1]
        assert (order[1:][same] > order[:-1][same]).all()
        # Every group has two entries or more.
        sizes = np.diff(np.flatnonzero(np.concatenate(
            ([True], ~same, [True]))))
        assert sizes.min() >= 2
    return marked


class TestShared:
    def test_superset_of_exact_repeats(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 2 ** 63, 500, dtype=np.uint64)
        # Repeats, and values that differ from another only in the
        # low bits a position takes.
        hashes = np.concatenate((base, base[:40], base[40:80] ^ np.uint64(5)))
        rng.shuffle(hashes)
        marked = _marked(hashes)
        exact = _exact_repeats(hashes)
        assert (marked >= exact).all()
        assert (marked & ~exact).sum() == 80  # the low-bit neighbours

    def test_exact_when_high_bits_differ(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 2 ** 64, 2000, dtype=np.uint64,
                            endpoint=False)
        hashes = np.concatenate((base, base[::7], base[::13]))
        rng.shuffle(hashes)
        assert (_marked(hashes) == _exact_repeats(hashes)).all()

    @pytest.mark.parametrize("hashes", [[], [7], [7, 7], [0, 2 ** 64 - 1]])
    def test_small_inputs(self, hashes):
        hashes = np.array(hashes, dtype=np.uint64)
        assert (_marked(hashes) == _exact_repeats(hashes)).all()


class TestStableOrder:
    @pytest.mark.parametrize("keys", [
        [],
        [5],
        [3, 1, 3, 1, 2, 3, 1],
        [0] * 9,
        [2 ** 32 - 1, 0, 2 ** 32 - 1, 7, 2 ** 32 - 1, 0],
        list(range(20, 0, -1)),
    ])
    def test_matches_stable_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert (vectorize.stable_order(keys)
                == np.argsort(keys, kind="stable")).all()

    def test_many_ties(self):
        keys = np.random.default_rng(5).integers(0, 50, 100_000)
        assert (vectorize.stable_order(keys)
                == np.argsort(keys, kind="stable")).all()


class TestGatherAndColumns:
    def test_gather_rows(self):
        data = bytes(range(200))
        offsets = np.array([0, 17, 150, 17], dtype=np.int64)
        rows = vectorize.gather(data, offsets, 41)
        assert [row.tobytes() for row in rows] == [
            data[o:o + 41] for o in offsets.tolist()]
        assert vectorize.gather(data, offsets[:0], 41).shape == (0, 41)

    @pytest.mark.parametrize("shift", [0, 8, 16])
    def test_dst_prefixes(self, shift):
        data = _slab(6, 5, 30, 45, 41)
        expected = [int.from_bytes(data[5 + i * 45 + 16:5 + i * 45 + 20],
                                   "big") >> shift for i in range(30)]
        assert vectorize.dst_prefixes(data, 5, 30, 45,
                                      shift).tolist() == expected


def _low_bits_hash(bits):
    """``hash_rows`` cut to its low ``bits``: keys collide outright or
    differ only below the bits :func:`vectorize.shared` keeps."""
    real = vectorize.hash_rows
    mask = np.uint64((1 << bits) - 1)
    return lambda *slab: real(*slab) & mask


class TestTruncatedCollisions:
    @given(layout, st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_oracle(self, params, bits):
        chunks = []
        base = 0
        for bodies, pad in params["chunks"]:
            chunks.append(_chunk(bodies, base, base * 0.003, pad))
            base += len(bodies)
        kernel_params = {name: params[name] for name in (
            "min_ttl_delta", "max_replica_gap", "eviction_interval")}
        ref_stats = ReplicaScanStats()
        reference = (
            [_stream_fp(s) for s in detect_replicas_indexed(
                chunk_triples(chunks), stats=ref_stats, **kernel_params)],
            (ref_stats.records_scanned, ref_stats.records_skipped_short,
             ref_stats.singletons_evicted, ref_stats.candidate_streams),
        )
        with mock.patch.object(vectorize, "hash_rows",
                               _low_bits_hash(bits)):
            assert _run_tier(detect_replicas_vectorized, chunks,
                             kernel_params) == reference

    @pytest.mark.parametrize("bits", [2, 9])
    def test_live_slices_match_per_record(self, monkeypatch, bits):
        monkeypatch.setattr(vectorize, "hash_rows", _low_bits_hash(bits))
        _assert_identical(_storm_trace(seed=3), 97)
