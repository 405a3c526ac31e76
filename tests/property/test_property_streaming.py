"""Property-based equivalence: streaming detector == offline detector.

Hypothesis drives the loop geometry and background volume; for every
generated trace the streaming detector must emit exactly the offline
detector's loop set.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import ReferenceStreamingDetector

BACKGROUND_PREFIX = IPv4Prefix.parse("198.51.100.0/24")

params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 5000),
        "n_loops": st.integers(0, 4),
        "ttl_delta": st.integers(2, 5),
        "replicas": st.integers(2, 10),
        "spacing": st.floats(0.002, 0.5),
        "gap_between_loops": st.floats(1.0, 200.0),
        "background": st.integers(0, 400),
        "merge_gap": st.floats(5.0, 120.0),
    }
)


def _build(p):
    builder = SyntheticTraceBuilder(rng=random.Random(p["seed"]))
    if p["background"]:
        builder.add_background(p["background"], 0.0, 500.0,
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


@given(params)
@settings(max_examples=40, deadline=None)
def test_streaming_equals_offline(p):
    trace = _build(p)
    config = DetectorConfig(merge_gap=p["merge_gap"])
    offline = LoopDetector(config).detect(trace)
    online = StreamingLoopDetector(config).process_trace(trace)
    assert sorted(map(_key, online)) == sorted(map(_key, offline.loops))


@given(params)
@settings(max_examples=20, deadline=None)
def test_streaming_in_two_halves_equals_whole(p):
    """The per-record reference feed (collecting emissions along the way
    plus a final flush) equals process_trace."""
    trace = _build(p)
    whole = StreamingLoopDetector().process_trace(trace)
    piecewise_detector = ReferenceStreamingDetector()
    piecewise = []
    for record in trace:
        piecewise.extend(
            piecewise_detector.process(record.timestamp, record.data)
        )
    piecewise.extend(piecewise_detector.flush())
    assert sorted(map(_key, piecewise)) == sorted(map(_key, whole))
