"""Property suite: the streaming detector's one feed is byte-identical.

Hypothesis drives loop geometry, background volume, the captured
lengths and the chunking of the feed.  For every generated trace, the
same ordered records go through

* the per-record reference (:class:`~tests.oracles.
  ReferenceStreamingDetector`, one record at a time),
* the product (``process_chunk`` over columnar chunks, one step-1
  engine call each), and
* the offline :class:`~repro.core.detector.LoopDetector`,

and all three must agree: same loop set, and for the two streaming
feeds identical stats and ``state_snapshot`` documents after every
chunk and after the flush.
"""

import random
import zlib
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.replica import mask_mutable_fields
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.net.trace import Trace, TraceRecord
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import ReferenceStreamingDetector

BACKGROUND_PREFIX = IPv4Prefix.parse("198.51.100.0/24")

params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 5000),
        "n_loops": st.integers(0, 3),
        "ttl_delta": st.integers(2, 5),
        "replicas": st.integers(2, 8),
        "spacing": st.floats(0.002, 0.5),
        "gap_between_loops": st.floats(1.0, 200.0),
        "background": st.integers(0, 300),
        "span": st.sampled_from([50.0, 500.0, 5000.0]),
        "merge_gap": st.floats(5.0, 120.0),
        # Chunk sizes from one record to the whole trace carry streams
        # and singletons across chunks when smaller than a loop's
        # footprint.
        "chunk_records": st.sampled_from([1, 16, 31, 32, 33, 64, 500,
                                          65_536]),
        # Captured lengths: all equal (stride-regular chunks), padded
        # per packet (irregular chunks), or padded with records under
        # 20 bytes mixed in.
        "lengths": st.sampled_from(["regular", "padded", "short"]),
    }
)


def _pad(trace, lengths):
    """Pad each packet's records (all its replicas alike) with 0 to 12
    bytes; with ``"short"``, also cut every 13th record to under 20
    bytes."""
    if lengths == "regular":
        return trace
    records = []
    for i, record in enumerate(trace):
        data = record.data
        data += bytes(zlib.crc32(mask_mutable_fields(data)) % 13)
        if lengths == "short" and i % 13 == 5:
            data = data[:i % 20]
        records.append(TraceRecord(record.timestamp, data,
                                   max(len(data), record.wire_length)))
    return Trace(records=records)


def _build(p):
    builder = SyntheticTraceBuilder(rng=random.Random(p["seed"]))
    if p["background"]:
        builder.add_background(p["background"], 0.0, p["span"],
                               prefixes=[BACKGROUND_PREFIX])
    entry = p["ttl_delta"] * (p["replicas"] - 1) + 2
    when = 10.0
    for i in range(p["n_loops"]):
        builder.add_loop(
            when,
            IPv4Prefix((192 << 24) | ((i % 2) << 8), 24),
            ttl_delta=p["ttl_delta"],
            n_packets=2,
            replicas_per_packet=p["replicas"],
            spacing=p["spacing"],
            packet_gap=p["spacing"] * 2,
            entry_ttl=entry,
        )
        when += p["gap_between_loops"]
    return builder.build()


def _key(loop):
    return (loop.prefix, round(loop.start, 6), round(loop.end, 6),
            loop.stream_count, loop.replica_count)


def _check_example(p):
    trace = _pad(_build(p), p["lengths"])
    config = DetectorConfig(merge_gap=p["merge_gap"])

    # Both feeds advance chunk by chunk, and their snapshots must agree
    # after every chunk, not only at the end.
    ref = ReferenceStreamingDetector(config)
    fast = StreamingLoopDetector(config)
    ref_loops, fast_loops = [], []
    for chunk in ColumnarTrace.from_trace(trace, p["chunk_records"]).chunks:
        fast_loops.extend(fast.process_chunk(chunk))
        ref_loops.extend(ref.process_chunk(chunk))
        assert fast.state_snapshot() == ref.state_snapshot()
        assert list(map(_key, fast_loops)) == list(map(_key, ref_loops))

    assert asdict(fast.stats) == asdict(ref.stats)

    ref_loops.extend(ref.flush())
    fast_loops.extend(fast.flush())
    assert list(map(_key, fast_loops)) == list(map(_key, ref_loops))
    assert asdict(fast.stats) == asdict(ref.stats)
    assert fast.state_snapshot() == ref.state_snapshot()

    offline = LoopDetector(config).detect(trace)
    assert sorted(map(_key, fast_loops)) \
        == sorted(map(_key, offline.loops))


class TestChunkTierEquivalence:
    @given(params)
    @settings(max_examples=40, deadline=None)
    def test_three_feeds_byte_identical(self, p):
        _check_example(p)
