"""Tests for the performance flight recorder: stage timing, the
sampling profiler, and benchmark provenance / regression gating."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import (
    NULL_PROFILE,
    BenchSchemaError,
    PipelineProfile,
    SamplingProfiler,
    bench_document,
    compare_benchmarks,
    load_bench,
    validate_bench,
    write_bench,
)
from repro.obs.tracing import NULL_TRACER, Tracer, spans


def make_profile(**kwargs) -> PipelineProfile:
    # A fake clock makes timing assertions exact: each clock() read
    # advances 0.5 s.
    ticks = iter(i * 0.5 for i in range(1000))
    return PipelineProfile(clock=lambda: next(ticks), **kwargs)


class TestPipelineProfile:
    def test_stage_accumulates_totals(self):
        profile = make_profile()
        with profile.stage("ingest", records=100, bytes=4000):
            pass
        with profile.stage("ingest", records=50) as span:
            span.add(bytes=2000)
        snapshot = profile.snapshot()
        (stage,) = snapshot["stages"]
        assert stage["name"] == "ingest"
        assert stage["count"] == 2
        assert stage["seconds"] == 1.0
        assert stage["records"] == 150
        assert stage["bytes"] == 6000
        assert stage["records_per_sec"] == 150.0
        assert stage["bytes_per_sec"] == 6000.0

    def test_nested_stages_record_parent(self):
        profile = make_profile()
        with profile.stage("detect.replicas"):
            with profile.stage("step1.kernel.vectorized"):
                pass
        stages = {s["name"]: s for s in profile.snapshot()["stages"]}
        assert stages["detect.replicas"]["parent"] is None
        assert (stages["step1.kernel.vectorized"]["parent"]
                == "detect.replicas")

    def test_nesting_is_per_thread(self):
        profile = PipelineProfile()
        started = threading.Event()
        release = threading.Event()

        def outer():
            with profile.stage("outer"):
                started.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=outer)
        thread.start()
        started.wait(timeout=5.0)
        # This thread has its own empty stack: no false parent.
        with profile.stage("other"):
            pass
        release.set()
        thread.join(timeout=5.0)
        stages = {s["name"]: s for s in profile.snapshot()["stages"]}
        assert stages["other"]["parent"] is None

    def test_registry_instruments(self):
        registry = MetricsRegistry(enabled=True)
        profile = make_profile(registry=registry)
        with profile.stage("feed", records=10, bytes=400):
            pass
        with profile.stage("feed", records=5):
            pass
        snapshot = registry.snapshot()
        hist = snapshot["histograms"]['perf_stage_seconds{stage="feed"}']
        assert hist["count"] == 2
        assert hist["sum"] == 1.0
        counters = snapshot["counters"]
        assert counters['perf_stage_records_total{stage="feed"}'] == 15
        assert counters['perf_stage_bytes_total{stage="feed"}'] == 400

    def test_queue_depth_gauge(self):
        registry = MetricsRegistry(enabled=True)
        profile = PipelineProfile(registry)
        profile.queue_depth("source.prefetch", 2)
        profile.queue_depth("source.prefetch", 1)
        assert profile.snapshot()["queues"] == {"source.prefetch": 1}
        gauges = registry.snapshot()["gauges"]
        assert gauges['perf_queue_depth{queue="source.prefetch"}'] == 1

    def test_attach_registry_after_the_fact(self):
        """A profile created before register_metrics must flow new
        spans into histograms once a registry is attached."""
        profile = make_profile()
        with profile.stage("a"):
            pass
        registry = MetricsRegistry(enabled=True)
        profile.registry = registry
        with profile.stage("a"):
            pass
        histograms = registry.snapshot()["histograms"]
        assert histograms['perf_stage_seconds{stage="a"}']["count"] == 1

    def test_null_profile_is_inert(self):
        with NULL_PROFILE.stage("x", records=5) as span:
            span.add(bytes=10)
        NULL_PROFILE.queue_depth("q", 3)
        assert NULL_PROFILE.snapshot() == {"stages": [], "queues": {}}
        assert not NULL_PROFILE.enabled

    def test_stage_seconds_view(self):
        profile = make_profile()
        with profile.stage("a"):
            pass
        assert profile.stage_seconds() == {"a": 0.5}


class TestStageSpans:
    """With an enabled tracer, each stage is also one trace span."""

    def test_stage_is_one_wall_clock_span_with_noted_attrs(self):
        tracer = Tracer()
        profile = make_profile(tracer=tracer)
        with profile.stage("detect.replicas") as stage:
            stage.add(records=40)
            stage.note(candidates=17, kernel="columnar")
        (record,) = tracer.records
        (stats,) = profile.snapshot()["stages"]
        assert record["name"] == stats["name"] == "detect.replicas"
        assert record["t1"] - record["t0"] == stats["seconds"] == 0.5
        assert record["attrs"] == {"clock": "wall", "records": 40,
                                   "candidates": 17, "kernel": "columnar"}

    def test_nested_stages_nest_their_spans(self):
        tracer = Tracer()
        profile = make_profile(tracer=tracer)
        with profile.stage("outer"):
            with profile.stage("inner"):
                pass
            with profile.stage("inner"):
                pass
        outer, first, second = spans(tracer.records)
        assert outer["name"] == "outer"
        assert outer["parent"] == 0
        assert first["parent"] == second["parent"] == outer["id"]
        assert first["id"] != second["id"]

    def test_stage_span_closes_when_the_stage_raises(self):
        tracer = Tracer()
        profile = make_profile(tracer=tracer)
        with pytest.raises(RuntimeError):
            with profile.stage("detect.merge"):
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record["name"] == "detect.merge"
        assert "unclosed" not in record["attrs"]

    def test_null_tracer_and_null_profile_are_inert(self):
        profile = make_profile()
        assert profile.tracer is NULL_TRACER
        with profile.stage("x") as stage:
            stage.note(a=1)
        with NULL_PROFILE.stage("y") as stage:
            stage.note(b=2)
        assert NULL_PROFILE.tracer is NULL_TRACER
        assert NULL_TRACER.records == ()
        assert [s["name"] for s in profile.snapshot()["stages"]] == ["x"]


class TestSamplingProfiler:
    def test_samples_a_busy_thread(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(500))

        thread = threading.Thread(target=spin, name="busy-worker")
        thread.start()
        try:
            profiler = SamplingProfiler(interval=0.001)
            with profiler:
                time.sleep(0.2)
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert profiler.sample_count > 10
        collapsed = profiler.collapsed()
        assert "thread:busy-worker" in collapsed
        for line in collapsed.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack
            assert count.isdigit()

    def test_run_for_returns_collapsed(self):
        collapsed = SamplingProfiler(interval=0.001).run_for(0.05)
        assert isinstance(collapsed, str)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)


def doc(name="bench", **metrics):
    return bench_document(name, {
        key: {"value": value, "unit": "records/s",
              "higher_is_better": True}
        for key, value in metrics.items()
    })


class TestBenchSchema:
    def test_document_roundtrip(self, tmp_path):
        document = bench_document(
            "step1", {"rate": {"value": 1e6, "unit": "records/s",
                               "higher_is_better": True}},
            stages={"ingest": 0.25},
        )
        path = write_bench(tmp_path / "BENCH_step1.json", document)
        loaded = load_bench(path)
        assert loaded["schema"] == "repro-bench/1"
        assert loaded["metrics"]["rate"]["value"] == 1e6
        assert loaded["stages"] == {"ingest": 0.25}
        env = loaded["env"]
        assert env["python"]
        assert "numpy" in env and "git_sha" in env and "cpu_count" in env

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="repro-bench/2"),
        lambda d: d.pop("metrics"),
        lambda d: d.update(metrics={}),
        lambda d: d.update(metrics={"x": {"value": "fast"}}),
        lambda d: d.update(metrics={"x": {"value": True}}),
        lambda d: d.update(name=""),
        lambda d: d.update(stages="nope"),
    ])
    def test_validate_rejects_malformed(self, mutate):
        document = doc(rate=100.0)
        mutate(document)
        with pytest.raises(BenchSchemaError):
            validate_bench(document)

    def test_load_rejects_missing_and_unparseable(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            load_bench(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchSchemaError):
            load_bench(bad)


class TestCompare:
    def test_flags_20_percent_regression(self):
        comparison = compare_benchmarks(doc(rate=1000.0), doc(rate=800.0),
                                        threshold=0.1)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.name == "rate"
        assert delta.change == pytest.approx(-0.2)

    def test_within_threshold_is_ok(self):
        comparison = compare_benchmarks(doc(rate=1000.0), doc(rate=950.0),
                                        threshold=0.1)
        assert comparison.ok

    def test_improvement_is_ok(self):
        comparison = compare_benchmarks(doc(rate=1000.0), doc(rate=2000.0))
        assert comparison.ok

    def test_lower_is_better_metrics_regress_upward(self):
        def overhead(value):
            return bench_document("bench", {
                "overhead": {"value": value, "unit": "fraction",
                             "higher_is_better": False},
            })
        assert not compare_benchmarks(overhead(0.02), overhead(0.05),
                                      threshold=0.1).ok
        assert compare_benchmarks(overhead(0.05), overhead(0.02)).ok

    def test_added_and_removed_never_regress(self):
        comparison = compare_benchmarks(doc(old=1.0), doc(new=1.0))
        assert comparison.ok
        statuses = {d.name: d.status for d in comparison.deltas}
        assert statuses == {"old": "removed", "new": "added"}

    def test_render_names_the_loser(self):
        comparison = compare_benchmarks(doc(rate=1000.0), doc(rate=500.0))
        rendered = comparison.render()
        assert "rate" in rendered
        assert "regression" in rendered


class TestCli:
    def write(self, tmp_path, name, value):
        return str(write_bench(tmp_path / name, doc(rate=value)))

    def test_compare_ok_exit_0(self, tmp_path, capsys):
        base = self.write(tmp_path, "a.json", 1000.0)
        curr = self.write(tmp_path, "b.json", 1010.0)
        assert main(["perf", "compare", base, curr]) == 0
        assert "rate" in capsys.readouterr().out

    def test_compare_regression_exit_1(self, tmp_path):
        base = self.write(tmp_path, "a.json", 1000.0)
        curr = self.write(tmp_path, "b.json", 800.0)
        assert main(["perf", "compare", base, curr]) == 1
        # A looser threshold accepts the same pair.
        assert main(["perf", "compare", base, curr,
                     "--threshold", "0.5"]) == 0

    def test_schema_mismatch_exit_2(self, tmp_path):
        base = self.write(tmp_path, "a.json", 1000.0)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1"}),
                       encoding="utf-8")
        assert main(["perf", "compare", base, str(bad)]) == 2

    def test_sample_profile_flag_writes_collapsed_stacks(self, tmp_path,
                                                         capsys):
        out = tmp_path / "profile.txt"
        code = main(["simulate", "backbone1", "--duration", "10",
                     "--sample-profile", str(out)])
        assert code == 0
        capsys.readouterr()
        text = out.read_text(encoding="utf-8")
        assert text  # the simulation runs long enough to be sampled
        assert "thread:MainThread" in text
