"""Memory bounds of the streaming detector's state (``tracemalloc``).

The detector claims memory bounded by the loop window, not the feed:
step-2 history covers the retention horizon (``merge_gap +
max_replica_gap``) plus at most a slice or two, singletons live one
chaining gap, and stream state lives as long as its stream.  Each feed
below is built before tracing starts; what the detector still holds
afterwards is divided by the records inside the horizon.  The same
bounds hold on the batched tier and on the per-record path that
irregular chunks take.
"""

import gc
import random
import tracemalloc
from bisect import bisect_left

from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.net.trace import Trace
from repro.traffic.synthetic import SyntheticTraceBuilder

#: The live feed's slice size (``obs.live._FEED_SLICE``).
SLICE = 8192


def _busy_prefixes(count):
    return [IPv4Prefix((10 << 24) | (i << 8), 24) for i in range(count)]


def _slices(records):
    return ColumnarTrace.from_trace(Trace(records=records), SLICE).chunks


def _retained(chunks):
    """Feed ``chunks`` and return ``(detector, retained bytes, records
    inside the horizon at the last record)``."""
    gc.collect()
    tracemalloc.start()
    try:
        detector = StreamingLoopDetector()
        for chunk in chunks:
            detector.process_chunk(chunk)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    config = detector.config
    times = [t for chunk in chunks for t in chunk.timestamps]
    in_horizon = len(times) - bisect_left(
        times, detector.now - (config.merge_gap + config.max_replica_gap))
    return detector, retained, in_horizon


class TestStreamingMemory:
    def test_singleton_flood(self):
        """Every record unique: the horizon's history and one chaining
        gap of singletons, nothing that grows with the feed."""
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(60_000, 0.0, 240.0,
                               prefixes=_busy_prefixes(500))
        detector, retained, in_horizon = _retained(
            _slices(builder.build().records))
        assert detector.stats.records == 60_000
        assert in_horizon < 20_000
        assert retained / in_horizon <= 128

    def test_idle_gap(self):
        """After ten quiet minutes the history is one slice at most, and
        what is left is the few records since."""
        builder = SyntheticTraceBuilder(rng=random.Random(2))
        builder.add_background(30_000, 0.0, 60.0,
                               prefixes=_busy_prefixes(200))
        builder.add_background(200, 660.0, 661.0,
                               prefixes=_busy_prefixes(200))
        records = builder.build().records
        busy = _slices(records[:30_000])
        _, before, _ = _retained(busy)
        detector, retained, in_horizon = _retained(
            busy + _slices(records[30_000:]))
        assert in_horizon == 200
        assert len(detector._slices) <= 1
        # The rest is the singleton tables' high-water capacity.
        assert retained <= before / 4

    def test_many_open_streams(self):
        """600 loops in flight at once: stream state is per replica and
        history stays within the horizon."""
        builder = SyntheticTraceBuilder(rng=random.Random(3))
        builder.add_background(20_000, 0.0, 200.0,
                               prefixes=_busy_prefixes(300))
        for i in range(600):
            builder.add_loop(150.0 + i * 0.005,
                             IPv4Prefix((172 << 24) | (i << 8), 24),
                             n_packets=1, replicas_per_packet=30,
                             spacing=1.6, entry_ttl=100, jitter=0.0)
        # Stop while every loop's single stream is still open.
        detector, retained, in_horizon = _retained(_slices(
            [r for r in builder.build().records if r.timestamp < 190.0]))
        assert detector.stats.streams_completed == 0
        assert sum(map(len, detector._open_streams.values())) == 600
        assert retained / in_horizon <= 384
