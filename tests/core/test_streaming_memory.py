"""Memory bounds of the streaming detector's state (``tracemalloc``).

The detector claims memory bounded by the loop window, not the feed:
step-2 history covers the retention horizon (``merge_gap +
max_replica_gap``) plus at most a slice or two, singletons live one
chaining gap, and stream state lives as long as its stream.  Each feed
below is built before tracing starts; what the detector still holds
afterwards is divided by the records inside the horizon.  Every chunk
takes the one step-1 engine call, regular or not.

What one call allocates on its way must follow the slice it is fed,
not the singletons carried from earlier slices: a small slice after a
busy stretch costs about what it costs after a quiet one.
"""

import gc
import random
import statistics
import tracemalloc
from array import array
from bisect import bisect_left

import numpy as np

from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk, ColumnarTrace
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


def _flood(n, rate, length=40):
    """``n`` distinct ``length``-byte IPv4 records at ``rate`` per
    second, to 256 /24s: nothing chains, so every record is carried as
    a singleton for one chaining gap."""
    rows = np.zeros((n, length), dtype=np.uint8)
    rows[:, 0] = 0x45
    rows[:, 4:8] = np.arange(n, dtype=">u4").view(np.uint8).reshape(n, 4)
    rows[:, 8] = 64
    rows[:, 9] = 17
    rows[:, 16] = 10
    rows[:, 18] = np.arange(n) % 256
    rows[:, 19] = 1
    return ColumnarChunk(rows.tobytes(), array("d", np.arange(n) / rate),
                         array("Q", range(0, n * length, length)),
                         array("I", [length]) * n, stride=length)


class TestSliceTransient:
    def _peaks(self, rate, slice_records=880, calls=10):
        """Per-call peak of ``calls`` slices of ``slice_records`` fed
        after six seconds of a ``rate``-per-second flood, and the
        carried singletons before the first."""
        warm = int(6 * rate)
        flood = _flood(warm + calls * slice_records, rate)
        detector = StreamingLoopDetector()
        for start in range(0, warm, SLICE):
            detector.process_chunk(flood.slice(start, min(start + SLICE,
                                                          warm)))
        carried = detector.state_snapshot()["singletons"]
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            for start in range(warm, len(flood), slice_records):
                piece = flood.slice(start, start + slice_records)
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                detector.process_chunk(piece)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        return carried, statistics.median(peaks)

    def test_small_slice_peak_follows_the_slice(self):
        quiet_carry, quiet = self._peaks(2_000)
        busy_carry, busy = self._peaks(14_600)
        assert 9_000 < quiet_carry < 11_000
        assert 70_000 < busy_carry < 76_000
        assert busy <= 3 * quiet
