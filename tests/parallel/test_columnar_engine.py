"""Tests for the columnar slab fan-out in the parallel engine.

Exactness first — columnar sharding must produce byte-identical streams
and loops to the reference pipeline for every shard count and worker
count — then the perf contract: the slab payloads must pickle smaller
than per-record ``(index, timestamp, bytes)`` tuple lists.
"""

import pickle
import random

import pytest

from repro.core.detector import DetectorConfig
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.net.pcap import write_pcap
from repro.parallel.engine import ParallelLoopDetector
from repro.parallel.shard import (
    ColumnarShardPartition,
    ShardError,
    rebuild_shard_chunk,
)
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import reference_detect


@pytest.fixture(scope="module")
def loop_trace():
    builder = SyntheticTraceBuilder(rng=random.Random(11))
    builder.add_background(500, 0.0, 60.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=3,
                     replicas_per_packet=6, spacing=0.01, entry_ttl=40)
    builder.add_loop(25.0, IPv4Prefix.parse("203.0.113.0/24"), n_packets=2,
                     replicas_per_packet=4, spacing=0.02, entry_ttl=50)
    return builder.build()


@pytest.fixture(scope="module")
def loop_ctrace(loop_trace):
    return ColumnarTrace.from_trace(loop_trace, chunk_records=97)


def _stream_fp(stream):
    return (
        stream.key,
        stream.first_data,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


def _loop_fp(loop):
    return (str(loop.prefix),
            tuple(sorted(_stream_fp(s) for s in loop.streams)))


class TestColumnarShardPartition:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ShardError):
            ColumnarShardPartition(num_shards=0)

    def test_equal_masks_land_on_one_shard(self, loop_ctrace):
        partition = ColumnarShardPartition(num_shards=4)
        for chunk in loop_ctrace.chunks:
            partition.add_chunk(chunk)
        # Every replica of one packet must land on one shard: map each
        # record's mask to the shard holding it and check uniqueness.
        mask_to_shard = {}
        for shard_id in range(4):
            chunk = rebuild_shard_chunk(
                bytes(partition._slabs[shard_id]),
                partition._timestamps[shard_id],
                partition._lengths[shard_id],
            )
            for i in range(len(chunk)):
                data = chunk.record_bytes(i)
                masked = (data[:8] + b"\x00" + data[9:10] + b"\x00\x00"
                          + data[12:])
                assert mask_to_shard.setdefault(masked, shard_id) == shard_id

    def test_short_records_counted_not_shipped(self, loop_trace):
        from repro.net.trace import Trace, TraceRecord

        trace = Trace()
        trace.records.append(
            TraceRecord(timestamp=0.5, data=b"\x45" * 8, wire_length=8)
        )
        for record in loop_trace.records[:10]:
            trace.records.append(record)
        partition = ColumnarShardPartition(num_shards=2)
        for chunk in ColumnarTrace.from_trace(trace).chunks:
            partition.add_chunk(chunk)
        assert partition.records_total == 11
        assert partition.records_short == 1
        assert sum(partition.shard_sizes) == 10

    def test_payloads_round_trip_through_rebuild(self, loop_ctrace):
        partition = ColumnarShardPartition(num_shards=4)
        for chunk in loop_ctrace.chunks:
            partition.add_chunk(chunk)
        config = DetectorConfig()
        rebuilt_total = 0
        for shard_id, slab, timestamps, lengths, _ in \
                partition.payloads(config):
            chunk = rebuild_shard_chunk(slab, timestamps, lengths)
            assert len(chunk) == len(timestamps) == len(lengths)
            indices = partition.shard_global_indices(shard_id)
            assert len(indices) == len(chunk)
            # Offsets rebuilt from cumulative lengths cover the slab.
            last = len(chunk) - 1
            assert chunk.offsets[last] + chunk.lengths[last] == len(slab)
            rebuilt_total += len(chunk)
        assert rebuilt_total == sum(partition.shard_sizes)

    def test_payloads_narrow_lengths_to_uint16(self, loop_ctrace):
        partition = ColumnarShardPartition(num_shards=1)
        for chunk in loop_ctrace.chunks:
            partition.add_chunk(chunk)
        [(_, _, _, lengths, _)] = partition.payloads(DetectorConfig())
        assert lengths.typecode == "H"

    def test_fanout_bytes_exact_after_payloads(self, loop_ctrace):
        partition = ColumnarShardPartition(num_shards=2)
        for chunk in loop_ctrace.chunks:
            partition.add_chunk(chunk)
        nominal = partition.fanout_bytes
        payloads = partition.payloads(DetectorConfig())
        exact = partition.fanout_bytes
        assert exact == sum(
            len(slab) + 8 * len(ts) + lengths.itemsize * len(lengths)
            for _, slab, ts, lengths, _ in payloads
        )
        assert exact <= nominal  # 'H' narrowing only shrinks it

    def test_single_shard_skips_mask_hashing(self, loop_ctrace):
        # num_shards=1 routes everything to shard 0 without computing
        # masks; the payload must still carry every record.
        partition = ColumnarShardPartition(num_shards=1)
        for chunk in loop_ctrace.chunks:
            partition.add_chunk(chunk)
        assert partition.shard_sizes == [
            partition.records_total - partition.records_short
        ]


class TestColumnarEngineExactness:
    def test_detect_columnar_matches_offline(self, loop_trace, loop_ctrace):
        offline = reference_detect(loop_trace)
        for shards in (1, 2, 4):
            parallel = ParallelLoopDetector(shards=shards).detect_columnar(
                loop_ctrace
            )
            assert ([_stream_fp(s) for s in parallel.candidate_streams]
                    == [_stream_fp(s) for s in offline.candidate_streams])
            assert ([_stream_fp(s) for s in parallel.streams]
                    == [_stream_fp(s) for s in offline.streams])
            assert ([_loop_fp(l) for l in parallel.loops]
                    == [_loop_fp(l) for l in offline.loops])

    def test_detect_columnar_matches_tuple_engine(self, loop_trace,
                                                  loop_ctrace):
        # detect() takes a materialized trace (one object per record)
        # and converts it with ColumnarTrace.from_trace.
        for shards in (1, 3):
            tuple_result = ParallelLoopDetector(shards=shards).detect(
                loop_trace
            )
            columnar_result = ParallelLoopDetector(
                shards=shards
            ).detect_columnar(loop_ctrace)
            assert ([_stream_fp(s) for s in columnar_result.streams]
                    == [_stream_fp(s) for s in tuple_result.streams])

    def test_detect_columnar_multiprocess(self, loop_trace, loop_ctrace):
        offline = reference_detect(loop_trace)
        parallel = ParallelLoopDetector(jobs=2, shards=4).detect_columnar(
            loop_ctrace
        )
        assert ([_stream_fp(s) for s in parallel.streams]
                == [_stream_fp(s) for s in offline.streams])
        assert ([_loop_fp(l) for l in parallel.loops]
                == [_loop_fp(l) for l in offline.loops])

    def test_detect_file_columnar_matches_reference_path(self, loop_trace,
                                                         tmp_path):
        path = tmp_path / "loop.pcap"
        write_pcap(loop_trace, path)
        columnar = ParallelLoopDetector(shards=2).detect_file(path)
        assert isinstance(columnar.trace, ColumnarTrace)
        # Compare against the oracle on the *round-tripped* trace — pcap
        # quantizes timestamps to microseconds.
        from repro.net.pcap import read_pcap

        reference = reference_detect(read_pcap(path))
        assert ([_stream_fp(s) for s in columnar.streams]
                == [_stream_fp(s) for s in reference.streams])
        assert ([_loop_fp(l) for l in columnar.loops]
                == [_loop_fp(l) for l in reference.loops])
        assert columnar.parallel.fanout_bytes > 0

    def test_custom_config_forwarded_to_workers(self, loop_trace,
                                                loop_ctrace):
        config = DetectorConfig(min_ttl_delta=3, min_stream_size=3)
        offline = reference_detect(loop_trace, config)
        parallel = ParallelLoopDetector(
            config, shards=3
        ).detect_columnar(loop_ctrace)
        assert ([_stream_fp(s) for s in parallel.streams]
                == [_stream_fp(s) for s in offline.streams])


class TestFanoutPayloadSize:
    def test_columnar_payloads_pickle_smaller_than_tuples(self, loop_trace,
                                                          loop_ctrace):
        """The perf contract: measured pickle.dumps of the slab payloads
        vs the same shards as per-record tuple lists."""
        config = DetectorConfig()
        shards = 4

        columnar_partition = ColumnarShardPartition(num_shards=shards)
        for chunk in loop_ctrace.chunks:
            columnar_partition.add_chunk(chunk)
        records = loop_trace.records
        tuple_bytes = 0
        for shard_id in range(shards):
            shard = [(i, records[i].timestamp, records[i].data)
                     for i in columnar_partition.shard_global_indices(
                         shard_id)]
            if shard:
                tuple_bytes += len(pickle.dumps(
                    (shard_id, shard, config),
                    protocol=pickle.HIGHEST_PROTOCOL))
        columnar_bytes = sum(
            len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            for payload in columnar_partition.payloads(config)
        )

        assert columnar_bytes < tuple_bytes
        # fanout_bytes tracks the measured payload closely (it excludes
        # only constant per-shard pickle framing).
        assert columnar_partition.fanout_bytes <= columnar_bytes
        assert columnar_bytes - columnar_partition.fanout_bytes < 4096

    def test_stats_report_columnar_fanout(self, loop_ctrace):
        result = ParallelLoopDetector(shards=2).detect_columnar(loop_ctrace)
        assert result.parallel.fanout_bytes > 0
        rendered = result.parallel.render()
        assert "fan-out payload" in rendered
