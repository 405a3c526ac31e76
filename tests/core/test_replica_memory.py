"""Peak memory of the step-1 kernel (``tracemalloc``).

Pass 1 hashes every record straight off its chunk's slab and finds the
repeated hashes with one sort, so no pass over all records copies them:
what it holds per record is a few fixed-size columns (timestamp, hash,
flags), whatever the record length.  The survivors' columns are read a
word at a time and checked a block at a time, so a storm, nearly all
survivors, holds a few more columns per record but no survivor matrix.
Each input is built, and the kernel run once to warm up, before tracing
starts.
"""

import gc
import json
import random
import subprocess
import sys
import textwrap
import tracemalloc

from repro.core.replica import detect_replicas_vectorized
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.sim import table1_scenario
from repro.traffic.synthetic import SyntheticTraceBuilder


def _peak(ctrace):
    detect_replicas_vectorized(ctrace)
    gc.collect()
    tracemalloc.start()
    try:
        streams = detect_replicas_vectorized(ctrace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return streams, peak


def test_regular_trace_bytes_per_record():
    """About 100k 40-byte records in stride-regular chunks, under 1%
    replicas: a masked copy of the slab alone would be 40 bytes per
    record (it peaked at ~123 with ``np.unique``'s inverse beside it;
    ~35 now)."""
    builder = SyntheticTraceBuilder(rng=random.Random(4))
    builder.add_background(
        100_000, 0.0, 120.0,
        prefixes=[IPv4Prefix((10 << 24) | (i << 8), 24)
                  for i in range(2000)])
    builder.add_loop(30.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=20,
                     replicas_per_packet=6, spacing=0.01, packet_gap=0.05,
                     entry_ttl=40)
    trace = builder.build()
    ctrace = ColumnarTrace.from_trace(trace)
    assert all(chunk.stride == 40 for chunk in ctrace.chunks)
    streams, peak = _peak(ctrace)
    assert len(streams) == 20
    assert peak / len(trace.records) <= 64


def test_storm_trace_bytes_per_record():
    """About 100k 40-byte records in stride-regular chunks, 76% of them
    replicas: 300 concurrent loops over 40 /24s and 2,000 duplicate
    pairs.  Grouping survivors by a stable ``lexsort`` and checking
    their keys byte by byte peaked at ~114 bytes per record here; one
    packed sort and the word check peak at ~77.  The bound leaves ~15%
    over that."""
    builder = SyntheticTraceBuilder(rng=random.Random(6))
    prefixes = [IPv4Prefix((10 << 24) | (i << 8), 24) for i in range(40)]
    builder.add_background(24_000, 0.0, 60.0, prefixes=prefixes)
    for i in range(300):
        builder.add_loop(0.5 + i * 0.19, prefixes[i % 40], n_packets=20,
                         replicas_per_packet=12, spacing=0.01,
                         packet_gap=0.02, entry_ttl=60)
    for i in range(2000):
        builder.add_duplicate_pair(0.02 + i * 0.029, prefixes[i % 40])
    trace = builder.build()
    assert len(trace.records) == 100_000
    ctrace = ColumnarTrace.from_trace(trace)
    assert all(chunk.stride == 40 for chunk in ctrace.chunks)
    streams, peak = _peak(ctrace)
    assert len(streams) == 6000
    assert peak / len(trace.records) <= 90


def test_simulated_trace_peak():
    """A simulated ``backbone1`` trace: irregular chunks with three
    record lengths, and nearly every record a survivor.  The per-record
    scan this kernel replaced peaked at 1.85 MB here (~0.88 MB now)."""
    trace = table1_scenario("backbone1", seed=5, duration=30.0).run().trace
    assert len(trace.records) == 8054
    ctrace = ColumnarTrace.from_trace(trace)
    assert all(chunk.stride is None for chunk in ctrace.chunks)
    _, peak = _peak(ctrace)
    assert peak <= 1.85e6


def test_first_call_imports_no_random():
    """The first hash of a process builds its weights with numpy
    integer arithmetic: no ``numpy.random`` import (12-18 ms), and the
    first call's peak stays within the same bound as a warm one."""
    script = textwrap.dedent("""
        import json, sys, tracemalloc
        from repro.core.replica import detect_replicas_vectorized
        from repro.net.columnar import ColumnarTrace
        from repro.sim import table1_scenario

        trace = table1_scenario("backbone1", seed=5, duration=30.0).run().trace
        ctrace = ColumnarTrace.from_trace(trace)
        loaded = "numpy.random" in sys.modules
        tracemalloc.start()
        detect_replicas_vectorized(ctrace)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(json.dumps({"loaded": loaded, "peak": peak,
                          "random": "numpy.random" in sys.modules}))
    """)
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert not result["loaded"] and not result["random"]
    assert result["peak"] <= 1.85e6
