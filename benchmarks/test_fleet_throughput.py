"""Saturation — the batched streaming tier.

``test_batched_streaming_speedup`` times the per-record reference
detector (``tests/oracles.py``) vs. the product fed chunk by chunk (one
step-1 engine call per chunk) over the same trace, asserts exactness,
and asserts the >= 2x single-link floor.
It emits the ``repro-bench/1`` document ``BENCH_streaming_batched``
for the bench-provenance trajectory.
"""

import random
import time

import pytest

from provenance import emit_bench, metric
from repro.core.report import format_table
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import ReferenceStreamingDetector

ROUNDS = 3


def _build_trace(n_records, seed=0):
    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    prefixes = [
        IPv4Prefix((198 << 24) | (51 << 16) | (i << 8), 24)
        for i in range(40)
    ]
    builder.add_background(n_records, 0.0, 600.0, prefixes=prefixes)
    for i in range(20):
        builder.add_loop(
            10.0 + i * 25.0,
            IPv4Prefix((192 << 24) | (i << 8), 24),
            n_packets=4,
            replicas_per_packet=8,
            spacing=0.01,
            packet_gap=0.012,
            entry_ttl=40,
        )
    return builder.build()


@pytest.fixture(scope="module")
def big_trace():
    return _build_trace(100_000)


def _best_of(rounds, run):
    best, result = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def _loop_key(loop):
    return (loop.prefix, round(loop.start, 6), round(loop.end, 6),
            loop.stream_count, loop.replica_count)


def test_batched_streaming_speedup(big_trace, emit):
    columnar = ColumnarTrace.from_trace(big_trace)
    records = [(r.timestamp, r.data) for r in big_trace.records]

    def per_record():
        detector = ReferenceStreamingDetector()
        loops = []
        process = detector.process
        for timestamp, data in records:
            loops.extend(process(timestamp, data))
        loops.extend(detector.flush())
        return detector, loops

    def batched():
        detector = StreamingLoopDetector()
        loops = []
        for chunk in columnar.chunks:
            loops.extend(detector.process_chunk(chunk))
        loops.extend(detector.flush())
        return detector, loops

    ref_seconds, (ref, ref_loops) = _best_of(ROUNDS, per_record)
    fast_seconds, (fast, fast_loops) = _best_of(ROUNDS, batched)

    # Exactness first: a fast wrong answer is worthless.
    assert list(map(_loop_key, fast_loops)) \
        == list(map(_loop_key, ref_loops))
    assert len(fast_loops) == 20
    assert fast.stats.records == ref.stats.records == len(big_trace)

    ref_rate = len(big_trace) / ref_seconds
    fast_rate = len(big_trace) / fast_seconds
    speedup = ref_seconds / fast_seconds
    emit("streaming_batched", format_table(
        ["Feed", "Seconds", "Records/s", "Speedup"],
        [
            ["per-record process()", f"{ref_seconds:.3f}",
             f"{ref_rate:,.0f}", "1.00"],
            ["batched process_chunk()", f"{fast_seconds:.3f}",
             f"{fast_rate:,.0f}", f"{speedup:.2f}"],
        ],
        title=f"Streaming batched tier — {len(big_trace)} records",
    ))
    emit_bench("streaming_batched", {
        "per_record_records_per_s": metric(ref_rate, "records/s"),
        "batched_records_per_s": metric(fast_rate, "records/s"),
        "batched_speedup": metric(speedup, "x"),
    })

    # The single-link acceptance floor.
    assert speedup >= 2.0, (
        f"batched tier below the 2x floor: {speedup:.2f}x"
    )
