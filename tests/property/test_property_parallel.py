"""Property-based tests: the sharded engine is exact for all geometries.

For every loop geometry Hypothesis generates, the offline
``LoopDetector`` and ``ParallelLoopDetector`` with 1, 2, and 4 workers
must return byte-identical streams and loops to the reference pipeline
in ``tests/oracles.py``, which in turn must agree with the online
``StreamingLoopDetector`` — the three engines are one algorithm.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.parallel.engine import ParallelLoopDetector
from repro.sim import table1_scenario
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import reference_detect

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
BACKGROUND_PREFIX = IPv4Prefix.parse("198.51.100.0/24")

loop_params = st.fixed_dictionaries(
    {
        "ttl_delta": st.integers(min_value=2, max_value=6),
        "replicas_per_packet": st.integers(min_value=3, max_value=12),
        "n_packets": st.integers(min_value=1, max_value=5),
        "spacing": st.floats(min_value=0.001, max_value=0.1),
        "seed": st.integers(min_value=0, max_value=10_000),
        "background": st.integers(min_value=0, max_value=300),
    }
)


def _build(params):
    builder = SyntheticTraceBuilder(rng=random.Random(params["seed"]))
    if params["background"]:
        builder.add_background(params["background"], 0.0, 60.0,
                               prefixes=[BACKGROUND_PREFIX])
    entry_ttl = params["ttl_delta"] * (params["replicas_per_packet"] - 1) + 2
    builder.add_loop(
        10.0,
        PREFIX,
        ttl_delta=params["ttl_delta"],
        n_packets=params["n_packets"],
        replicas_per_packet=params["replicas_per_packet"],
        spacing=params["spacing"],
        packet_gap=params["spacing"] * 1.5,
        entry_ttl=entry_ttl,
    )
    return builder.build()


def _stream_fp(stream):
    return (
        stream.key,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


def _loop_fp(loop):
    return (str(loop.prefix),
            tuple(sorted(_stream_fp(s) for s in loop.streams)))


def _assert_engines_agree(trace):
    offline = reference_detect(trace)
    streaming_loops = StreamingLoopDetector(offline.config).process_trace(trace)
    assert (sorted(_loop_fp(l) for l in streaming_loops)
            == sorted(_loop_fp(l) for l in offline.loops))
    engines = [("offline", LoopDetector())] + [
        (jobs, ParallelLoopDetector(jobs=jobs)) for jobs in (1, 2, 4)
    ]
    for jobs, engine in engines:
        parallel = engine.detect(trace)
        assert ([_stream_fp(s) for s in parallel.candidate_streams]
                == [_stream_fp(s) for s in offline.candidate_streams]), jobs
        assert ([_stream_fp(s) for s in parallel.streams]
                == [_stream_fp(s) for s in offline.streams]), jobs
        assert ([_loop_fp(l) for l in parallel.loops]
                == [_loop_fp(l) for l in offline.loops]), jobs
        assert (parallel.looped_packet_count
                == offline.looped_packet_count), jobs


class TestParallelExactness:
    @given(loop_params)
    @settings(max_examples=15, deadline=None)
    def test_all_engines_agree_on_synthetic_traces(self, params):
        _assert_engines_agree(_build(params))

    @given(loop_params, st.integers(min_value=2, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_shard_count_never_changes_results(self, params, shards):
        trace = _build(params)
        offline = LoopDetector().detect(trace)
        parallel = ParallelLoopDetector(jobs=1, shards=shards).detect(trace)
        assert ([_stream_fp(s) for s in parallel.streams]
                == [_stream_fp(s) for s in offline.streams])
        assert ([_loop_fp(l) for l in parallel.loops]
                == [_loop_fp(l) for l in offline.loops])


class TestParallelOnSimulatedTraces:
    def test_all_engines_agree_on_backbone_scenario(self):
        trace = table1_scenario("backbone1", duration=40.0).run().trace
        _assert_engines_agree(trace)
