"""Tests for deterministic key → shard assignment."""

import random

import pytest

from repro.core import vectorize
from repro.net.columnar import ColumnarChunk
from repro.net.trace import TraceRecord
from repro.parallel.shard import MIN_CAPTURE, ColumnarShardPartition


def _packet(ttl: int, checksum: int, payload: bytes = b"") -> bytes:
    header = bytearray(20)
    header[0] = 0x45
    header[8] = ttl
    header[10:12] = checksum.to_bytes(2, "big")
    header[12:16] = bytes([10, 0, 0, 1])
    header[16:20] = bytes([192, 0, 2, 7])
    return bytes(header) + payload


def _partition(bodies, num_shards, chunk_records=64):
    """Partition ``bodies`` (record i at time i) chunk by chunk."""
    partition = ColumnarShardPartition(num_shards=num_shards)
    for start in range(0, len(bodies), chunk_records):
        batch = bodies[start:start + chunk_records]
        partition.add_chunk(ColumnarChunk.from_records(
            [TraceRecord(timestamp=float(start + i), data=body,
                         wire_length=len(body))
             for i, body in enumerate(batch)],
            base_index=start,
        ))
    return partition


class TestAssignShard:
    def test_replicas_land_in_same_shard(self):
        for num_shards in (1, 2, 3, 4, 7):
            a = _packet(ttl=60, checksum=0x1234, payload=b"xyz")
            b = _packet(ttl=42, checksum=0x9999, payload=b"xyz")
            partition = _partition([a, b], num_shards)
            assert sorted(partition.shard_sizes)[-1] == 2

    def test_within_range_and_deterministic(self):
        rng = random.Random(1)
        bodies = [_packet(rng.randrange(1, 255), rng.randrange(65536),
                          bytes(rng.randrange(256) for _ in range(4)))
                  for _ in range(100)]
        first = _partition(bodies, 4)
        again = _partition(bodies, 4, chunk_records=9)
        assert len(first.shard_sizes) == 4
        assert sum(first.shard_sizes) == 100
        for shard in range(4):
            assert (first.shard_global_indices(shard)
                    == again.shard_global_indices(shard))


class TestShardPartition:
    def test_short_records_never_reach_shards(self):
        partition = _partition([b"short", _packet(60, 0)], 2)
        assert partition.records_total == 2
        assert partition.records_short == 1
        assert sum(partition.shard_sizes) == 1

    def test_partition_covers_all_long_records(self):
        rng = random.Random(2)
        bodies = [_packet(rng.randrange(1, 255), 0,
                          bytes([rng.randrange(256)]))
                  for _ in range(200)]
        partition = _partition(bodies, 4)
        recovered = sorted(
            index for shard in range(4)
            for index in partition.shard_global_indices(shard)
        )
        assert recovered == list(range(200))

    def test_shards_preserve_record_order(self):
        rng = random.Random(3)
        bodies = [_packet(64, 0, bytes([rng.randrange(4)]))
                  for _ in range(100)]
        partition = _partition(bodies, 3, chunk_records=7)
        for shard in range(3):
            indices = list(partition.shard_global_indices(shard))
            assert indices == sorted(indices)

    def test_skew_detects_hot_shard(self):
        partition = _partition([_packet(64, 0, b"hot")] * 10, 2)
        assert partition.skew == pytest.approx(2.0)

    def test_min_capture_matches_detector_threshold(self):
        assert MIN_CAPTURE == 20


def _record_set(seed=0, count=300, lengths=(40,)):
    rng = random.Random(seed)
    records = []
    for i in range(count):
        if records and rng.random() < 0.3:
            body = bytearray(rng.choice(records)[2])
            body[8] = rng.randrange(256)
            body = bytes(body)
        else:
            body = rng.randbytes(rng.choice(lengths))
        records.append((i, i * 0.01, body))
    return records


class TestColumnarShardPartition:
    def test_skew_of_empty_partition_is_zero(self):
        assert ColumnarShardPartition(num_shards=4).skew == 0.0

    def _fill(self, num_shards, records, chunk_records=64):
        partition = ColumnarShardPartition(num_shards=num_shards)
        for start in range(0, len(records), chunk_records):
            batch = records[start:start + chunk_records]
            chunk = ColumnarChunk.from_records(
                [TraceRecord(timestamp=t, data=d, wire_length=len(d))
                 for _, t, d in batch],
                base_index=start,
            )
            partition.add_chunk(chunk)
        return partition

    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_vectorized_placement_matches_scalar(
        self, num_shards, monkeypatch
    ):
        pytest.importorskip("numpy", exc_type=ImportError)
        records = _record_set()
        fast = self._fill(num_shards, records)
        monkeypatch.setattr(vectorize, "np", None)
        slow = self._fill(num_shards, records)
        assert fast.shard_sizes == slow.shard_sizes
        for shard in range(num_shards):
            assert bytes(fast._slabs[shard]) == bytes(slow._slabs[shard])
            assert fast._indices[shard] == slow._indices[shard]
            assert fast._timestamps[shard] == slow._timestamps[shard]
            assert list(fast._lengths[shard]) == list(slow._lengths[shard])

    def test_mixed_lengths_take_scalar_path_with_same_result(
        self, monkeypatch
    ):
        # Irregular chunks (no uniform stride) must fall back to the
        # per-record loop — and land every record identically.
        records = _record_set(seed=3, lengths=(20, 28, 40))
        fast = self._fill(4, records)
        monkeypatch.setattr(vectorize, "np", None)
        slow = self._fill(4, records)
        assert fast.shard_sizes == slow.shard_sizes
        for shard in range(4):
            assert bytes(fast._slabs[shard]) == bytes(slow._slabs[shard])

    def test_placement_matches_assign_contract(self):
        # Chunk-level CRC placement groups replicas exactly like the
        # per-record zlib.crc32 of the masked bytes.
        from zlib import crc32

        records = _record_set(seed=5)
        partition = self._fill(4, records)
        by_shard = {s: set(partition._indices[s]) for s in range(4)}
        for index, _, data in records:
            masked = bytearray(data)
            masked[8] = 0
            masked[10] = 0
            masked[11] = 0
            expected = crc32(bytes(masked)) % 4
            assert index in by_shard[expected]
