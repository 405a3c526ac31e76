"""Instrumentation must not change detection output.

The offline and streaming detectors are run with a profile carrying a
recording tracer and with the null profile; their loop lists must be
identical — observability is strictly read-only.
"""

from __future__ import annotations

import random

import pytest

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.obs.perf import PipelineProfile
from repro.obs.tracing import Tracer, spans
from repro.traffic.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(rng=random.Random(7))
    builder.add_background(400, 0.0, 60.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(10.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=3,
                     replicas_per_packet=6, spacing=0.02, entry_ttl=40)
    builder.add_loop(35.0, IPv4Prefix.parse("203.0.113.0/24"), n_packets=2,
                     replicas_per_packet=5, spacing=0.05, entry_ttl=50)
    return builder.build()


def profile_for(tracer):
    """A profile whose stages and loops go to ``tracer``."""
    return PipelineProfile(tracer=tracer)


def loop_rows(loops):
    return [(str(l.prefix), l.start, l.end, l.replica_count) for l in loops]


class TestOfflineDetector:
    def test_tracer_does_not_change_output(self, trace):
        plain = LoopDetector().detect(trace)
        tracer = Tracer()
        traced = LoopDetector(profile=profile_for(tracer)).detect(trace)
        assert loop_rows(traced.loops) == loop_rows(plain.loops)

    def test_phase_spans_cover_pipeline(self, trace):
        tracer = Tracer()
        result = LoopDetector(profile=profile_for(tracer)).detect(trace)
        names = {r["name"] for r in tracer.records if r["type"] == "span"}
        assert {"detect.replicas", "detect.validate",
                "detect.merge"} <= names
        assert len(spans(tracer.records, "loop")) == result.loop_count

    def test_loop_spans_carry_trace_time(self, trace):
        tracer = Tracer()
        result = LoopDetector(profile=profile_for(tracer)).detect(trace)
        for span, loop in zip(spans(tracer.records, "loop"), result.loops):
            assert span["t0"] == loop.start
            assert span["t1"] == loop.end
            assert span["attrs"]["prefix"] == str(loop.prefix)

    def test_phase_spans_are_wall_clock_tagged(self, trace):
        tracer = Tracer()
        LoopDetector(profile=profile_for(tracer)).detect(trace)
        for record in spans(tracer.records, "detect.replicas"):
            assert record["attrs"]["clock"] == "wall"


class TestStreamingDetector:
    def test_tracer_does_not_change_output(self, trace):
        config = DetectorConfig()
        plain = StreamingLoopDetector(config).process_trace(trace)
        tracer = Tracer()
        traced = StreamingLoopDetector(
            config, profile=profile_for(tracer)
        ).process_trace(trace)
        assert loop_rows(traced) == loop_rows(plain)

    def test_emits_process_and_loop_spans(self, trace):
        tracer = Tracer()
        loops = StreamingLoopDetector(
            DetectorConfig(), profile=profile_for(tracer)
        ).process_trace(trace)
        assert len(spans(tracer.records, "streaming.process_trace")) == 1
        assert len(spans(tracer.records, "loop")) == len(loops)


class TestLiveMonitoring:
    def test_monitored_streaming_identical_output(self, trace):
        from repro.cli import _stream_with_monitor
        from repro.obs.live import LiveMonitor

        config = DetectorConfig()
        plain = StreamingLoopDetector(config).process_trace(trace)
        monitor = LiveMonitor()
        monitored = _stream_with_monitor(
            StreamingLoopDetector(config), trace, monitor
        )
        assert loop_rows(monitored) == loop_rows(plain)
        assert monitor.recorder.records == len(trace)
        assert monitor.finished

    def test_sampled_windows_match_trace_shape(self, trace):
        from repro.cli import _stream_with_monitor
        from repro.obs.live import LiveMonitor

        monitor = LiveMonitor()
        _stream_with_monitor(
            StreamingLoopDetector(DetectorConfig()), trace, monitor
        )
        assert sum(monitor.recorder.minute_records.counts.values()) == (
            len(trace)
        )
        assert monitor.recorder.peak_looped_share() > 0.0
