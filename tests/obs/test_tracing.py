"""Tests for the span/event tracer."""

import io
import json

from repro.obs.tracing import (
    NULL_TRACER,
    Tracer,
    events,
    read_trace,
    spans,
)


class FakeClock:
    """Deterministic monotonic clock for tracer tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def make_tracer():
    clock = FakeClock()
    return Tracer(clock=clock), clock


class TestEvents:
    def test_event_uses_clock(self):
        tracer, clock = make_tracer()
        clock.advance(1.5)
        tracer.event("link_down", link="a-b")
        (record,) = tracer.records
        assert record == {"type": "event", "name": "link_down", "t": 1.5,
                          "attrs": {"link": "a-b"}}

    def test_explicit_time_wins(self):
        tracer, _ = make_tracer()
        tracer.event("tick", time=99.0)
        assert tracer.records[0]["t"] == 99.0


class TestSpans:
    def test_begin_end_records_interval(self):
        tracer, clock = make_tracer()
        span = tracer.begin("spf_run", router="r1")
        clock.advance(0.25)
        tracer.end(span, routes=10)
        (record,) = tracer.records
        assert record["name"] == "spf_run"
        assert record["t0"] == 0.0
        assert record["t1"] == 0.25
        assert record["parent"] == 0
        assert record["attrs"] == {"router": "r1", "routes": 10}

    def test_nested_span_records_parent(self):
        tracer, clock = make_tracer()
        outer = tracer.begin("detect")
        inner = tracer.begin("detect.validate")
        tracer.end(inner)
        tracer.end(outer)
        inner_rec, outer_rec = tracer.records
        assert inner_rec["parent"] == outer
        assert outer_rec["parent"] == 0

    def test_explicit_parent_override(self):
        tracer, _ = make_tracer()
        tracer.begin("enclosing")
        detached = tracer.begin("fib_update", parent=0)
        tracer.end(detached)
        assert tracer.records[0]["parent"] == 0

    def test_out_of_order_end(self):
        # Per-router convergence spans interleave freely.
        tracer, clock = make_tracer()
        first = tracer.begin("fib_update", parent=0, router="r1")
        second = tracer.begin("fib_update", parent=0, router="r2")
        clock.advance(1.0)
        tracer.end(first)
        clock.advance(1.0)
        tracer.end(second)
        by_router = {r["attrs"]["router"]: r for r in tracer.records}
        assert by_router["r1"]["t1"] == 1.0
        assert by_router["r2"]["t1"] == 2.0

    def test_end_is_idempotent(self):
        tracer, _ = make_tracer()
        span = tracer.begin("x")
        tracer.end(span)
        tracer.end(span)
        tracer.end(12345)
        assert len(tracer.records) == 1

    def test_completed_span_helper(self):
        tracer, _ = make_tracer()
        tracer.span("loop", 5.0, 8.5, prefix="10.0.0.0/24")
        (record,) = tracer.records
        assert (record["t0"], record["t1"]) == (5.0, 8.5)
        assert record["attrs"]["prefix"] == "10.0.0.0/24"

    def test_close_tags_unclosed_spans(self):
        tracer, _ = make_tracer()
        tracer.begin("left_open")
        tracer.close()
        (record,) = tracer.records
        assert record["attrs"]["unclosed"] is True


class TestSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            tracer = Tracer(sink=sink, clock=FakeClock())
            tracer.event("link_down", link="a-b")
            span = tracer.begin("spf_run")
            tracer.end(span)
            tracer.close()
        reloaded = read_trace(path)
        assert reloaded == tracer.records

    def test_spans_written_at_end_in_completion_order(self):
        sink = io.StringIO()
        clock = FakeClock()
        tracer = Tracer(sink=sink, clock=clock)
        first = tracer.begin("slow")
        clock.advance(1.0)
        second = tracer.begin("fast")
        tracer.end(second)
        clock.advance(1.0)
        tracer.end(first)
        names = [json.loads(line)["name"]
                 for line in sink.getvalue().splitlines()]
        assert names == ["fast", "slow"]

    def test_keep_false_still_writes_sink(self):
        sink = io.StringIO()
        tracer = Tracer(sink=sink, clock=FakeClock(), keep=False)
        tracer.event("tick")
        assert tracer.records == []
        assert json.loads(sink.getvalue())["name"] == "tick"


class CountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


class TestFlushBudget:
    def test_flushes_every_batch(self):
        sink = CountingSink()
        tracer = Tracer(sink=sink, clock=FakeClock(), flush_every=4)
        for _ in range(9):
            tracer.event("tick")
        assert sink.flushes == 2  # after records 4 and 8

    def test_zero_disables_periodic_flush(self):
        sink = CountingSink()
        tracer = Tracer(sink=sink, clock=FakeClock(), flush_every=0)
        for _ in range(100):
            tracer.event("tick")
        assert sink.flushes == 0
        tracer.close()
        assert sink.flushes == 1

    def test_killed_process_leaves_flushed_spans_behind(self, tmp_path):
        """Crash durability: a run SIGKILLed mid-stream must leave the
        already-batched spans readable in the JSONL file — no close(),
        no atexit, no flush() call of its own."""
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "trace.jsonl"
        script = textwrap.dedent(f"""
            import os, signal
            from repro.obs.tracing import Tracer
            sink = open({str(path)!r}, "w", encoding="utf-8")
            tracer = Tracer(sink=sink)
            for i in range(100):
                span = tracer.begin("batch", index=i)
                tracer.end(span)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        process = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo", timeout=60,
        )
        assert process.returncode == -9  # died by SIGKILL, no cleanup
        survived = read_trace(path)
        # 100 spans at flush_every=32: at least three full batches (96
        # records) reached the disk; only the tail batch may be lost.
        assert len(survived) >= 96
        assert all(record["name"] == "batch" for record in survived)


class TestQueries:
    def test_spans_sorted_by_start(self):
        tracer, clock = make_tracer()
        clock.advance(5.0)
        late = tracer.begin("phase")
        tracer.end(late)
        tracer.span("phase", 1.0, 2.0)
        tracer.event("noise")
        result = spans(tracer.records, "phase")
        assert [r["t0"] for r in result] == [1.0, 5.0]

    def test_events_filtered_and_sorted(self):
        tracer, _ = make_tracer()
        tracer.event("b", time=2.0)
        tracer.event("a", time=1.0)
        tracer.event("b", time=0.5)
        assert [r["t"] for r in events(tracer.records, "b")] == [0.5, 2.0]
        assert len(events(tracer.records)) == 3


class TestNullTracer:
    def test_all_operations_are_noops(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event("x", y=1)
        span = NULL_TRACER.begin("x")
        assert span == 0
        NULL_TRACER.end(span)
        assert NULL_TRACER.span("x", 0.0, 1.0) == 0
        NULL_TRACER.flush()
        NULL_TRACER.close()
        assert NULL_TRACER.records == ()
