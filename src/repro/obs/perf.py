"""Performance flight recorder: stage timing, sampling profiler, and
benchmark provenance.

Three layers, one module:

* :class:`PipelineProfile` / :class:`StageTimer` — the one stage
  timer: nested wall-clock spans over the detection pipeline's stages
  (step 1, validate, merge, streaming trace feed, source wait, fleet
  feed and flush).  Per-stage totals accumulate in the profile (count,
  seconds, records, bytes → derived throughput); when a
  :class:`~repro.obs.metrics.MetricsRegistry` is attached, the same
  span feeds ``perf_stage_seconds`` histograms and
  ``perf_stage_records_total`` / ``perf_stage_bytes_total`` counters,
  and when an enabled :class:`~repro.obs.tracing.Tracer` is attached it
  is also written as a ``clock="wall"`` trace span — so stage names
  cannot differ between a trace file, ``/perf`` and Prometheus.
  Queue-depth/backpressure gauges ride along via :meth:`PipelineProfile.
  queue_depth`.  The module-level :data:`NULL_PROFILE` is the disabled
  path, mirroring :data:`~repro.obs.tracing.NULL_TRACER`.

* :class:`SamplingProfiler` — a daemon thread that snapshots every
  thread's stack via :func:`sys._current_frames` at ~100 Hz (default)
  and aggregates collapsed stacks (``thread:x;mod:fn;mod:fn count``),
  the input format of ``flamegraph.pl`` and speedscope.  Overhead is one
  frame walk per interval, independent of the workload's event rate.

* Benchmark provenance — :func:`bench_document` /
  :func:`compare_benchmarks` define the ``repro-bench/1`` JSON schema
  that ``benchmarks/provenance.py`` emits and the ``repro perf
  compare`` CLI subcommand diffs (exit 0 ok / 1 regression / 2 schema
  mismatch).

Stage names are dotted paths; nesting is tracked per thread, so an
executor thread's ``detect.feed`` span keeps its own parent even while
the event-loop thread times ``source.wait``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, IO

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER

#: Histogram buckets for stage durations: pipeline stages run from tens
#: of microseconds (a recorder feed) to tens of seconds (a full-file
#: detect), finer than the loop-duration DEFAULT_BUCKETS.
PERF_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class StageStats:
    """Accumulated totals for one named stage."""

    __slots__ = ("name", "parent", "count", "seconds", "records", "bytes")

    def __init__(self, name: str, parent: str | None) -> None:
        self.name = name
        self.parent = parent
        self.count = 0
        self.seconds = 0.0
        self.records = 0
        self.bytes = 0

    @property
    def records_per_sec(self) -> float:
        return self.records / self.seconds if self.seconds > 0 else 0.0

    @property
    def bytes_per_sec(self) -> float:
        return self.bytes / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "parent": self.parent,
            "count": self.count,
            "seconds": self.seconds,
            "records": self.records,
            "bytes": self.bytes,
            "records_per_sec": self.records_per_sec,
            "bytes_per_sec": self.bytes_per_sec,
        }


class StageTimer:
    """Context manager timing one stage execution; ``seconds`` is valid
    after ``__exit__``.

    With an enabled tracer on the profile, the stage is also one
    ``clock="wall"`` trace span over exactly the timed interval,
    carrying the stage's records/bytes and any :meth:`note` attrs.
    """

    __slots__ = ("_profile", "name", "records", "bytes", "seconds",
                 "_t0", "_parent", "_span", "_attrs")

    def __init__(self, profile: "PipelineProfile", name: str,
                 records: int = 0, bytes: int = 0) -> None:
        self._profile = profile
        self.name = name
        self.records = records
        self.bytes = bytes
        self.seconds = 0.0
        self._t0 = 0.0
        self._parent: str | None = None
        self._span = 0
        self._attrs: dict[str, Any] = {}

    def add(self, records: int = 0, bytes: int = 0) -> None:
        """Attach throughput denominators discovered mid-stage."""
        self.records += records
        self.bytes += bytes

    def note(self, **attrs: Any) -> None:
        """Attach attrs to the stage's trace span (dropped when the
        profile has no enabled tracer)."""
        self._attrs.update(attrs)

    def __enter__(self) -> "StageTimer":
        profile = self._profile
        self._parent = profile._push(self.name)
        self._t0 = profile.clock()
        if profile.tracer.enabled:
            self._span = profile.tracer.begin(self.name, time=self._t0,
                                              clock="wall")
        return self

    def __exit__(self, *exc_info: object) -> None:
        profile = self._profile
        t1 = profile.clock()
        self.seconds = t1 - self._t0
        if self._span:
            attrs = self._attrs
            if self.records:
                attrs["records"] = self.records
            if self.bytes:
                attrs["bytes"] = self.bytes
            profile.tracer.end(self._span, time=t1, **attrs)
        profile._pop(self)


class _NullStage:
    """Shared no-op stage timer handed out by :data:`NULL_PROFILE`."""

    __slots__ = ()
    name = ""
    records = 0
    bytes = 0
    seconds = 0.0

    def add(self, records: int = 0, bytes: int = 0) -> None:
        pass

    def note(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class NullProfile:
    """No-op profile; see :data:`NULL_PROFILE`."""

    __slots__ = ()
    enabled = False
    tracer = NULL_TRACER

    def stage(self, name: str, records: int = 0,
              bytes: int = 0) -> _NullStage:
        return _NULL_STAGE

    def queue_depth(self, queue: str, depth: float) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"stages": [], "queues": {}}


_NULL_STAGE = _NullStage()

#: The shared disabled profile.
NULL_PROFILE = NullProfile()


class PipelineProfile:
    """Per-stage timing accumulator for one pipeline instance.

    >>> profile = PipelineProfile(registry, tracer)
    >>> with profile.stage("ingest", bytes=len(buf)) as span:
    ...     trace = ingest(buf)
    ...     span.add(records=len(trace))
    >>> profile.snapshot()["stages"][0]["records_per_sec"]

    Thread-safe: stages may start and finish on different threads (the
    fleet's executor threads); the per-thread nesting stack
    keeps parents straight, and accumulation happens under a lock once
    per stage *span* — never per record.  The ``tracer`` is not
    thread-safe; attach one only to a profile fed from one thread.
    Detectors also send their ``loop`` spans to ``profile.tracer``.
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer=NULL_TRACER,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.registry = registry
        self.tracer = tracer
        self.clock = clock
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}
        self._queues: dict[str, float] = {}
        self._local = threading.local()
        self._instruments: dict[str, tuple] = {}

    # -- recording ------------------------------------------------------------

    def stage(self, name: str, records: int = 0,
              bytes: int = 0) -> StageTimer:
        """``with profile.stage("detect.replicas", records=n): ...``"""
        return StageTimer(self, name, records, bytes)

    def _push(self, name: str) -> str | None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        stack.append(name)
        return parent

    def _pop(self, timer: StageTimer) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] == timer.name:
            stack.pop()
        with self._lock:
            stats = self._stages.get(timer.name)
            if stats is None:
                stats = StageStats(timer.name, timer._parent)
                self._stages[timer.name] = stats
            stats.count += 1
            stats.seconds += timer.seconds
            stats.records += timer.records
            stats.bytes += timer.bytes
        registry = self.registry
        if registry is not None and registry.enabled:
            instruments = self._instruments.get(timer.name)
            if instruments is None:
                labels = {"stage": timer.name}
                instruments = (
                    registry.histogram(
                        "perf_stage_seconds",
                        "Wall-clock seconds per pipeline stage span",
                        buckets=PERF_BUCKETS, labels=labels),
                    registry.counter(
                        "perf_stage_records_total",
                        "Records processed per pipeline stage",
                        labels=labels),
                    registry.counter(
                        "perf_stage_bytes_total",
                        "Bytes processed per pipeline stage",
                        labels=labels),
                )
                self._instruments[timer.name] = instruments
            seconds_hist, records_total, bytes_total = instruments
            seconds_hist.observe(timer.seconds)
            if timer.records:
                records_total.inc(timer.records)
            if timer.bytes:
                bytes_total.inc(timer.bytes)

    def queue_depth(self, queue: str, depth: float) -> None:
        """Publish a queue-depth/backpressure gauge (e.g. pending source
        batches, executor backlog)."""
        with self._lock:
            self._queues[queue] = depth
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.gauge(
                "perf_queue_depth",
                "Pipeline queue depth (pending items)",
                labels={"queue": queue},
            ).set(depth)

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready per-stage totals, in first-seen order."""
        with self._lock:
            return {
                "stages": [s.to_dict() for s in self._stages.values()],
                "queues": dict(self._queues),
            }

    def stage_seconds(self) -> dict[str, float]:
        """``{stage name: total seconds}`` convenience view."""
        with self._lock:
            return {name: s.seconds for name, s in self._stages.items()}


# -- sampling profiler --------------------------------------------------------


class SamplingProfiler:
    """Thread-based sampling stack profiler with collapsed-stack output.

    >>> with SamplingProfiler() as profiler:
    ...     run_detection()
    >>> Path("profile.txt").write_text(profiler.collapsed())

    Samples *all* threads except its own; each stack is prefixed with a
    ``thread:<name>`` frame so per-thread flamegraphs separate cleanly.
    ``interval`` is the target sampling period (default 10 ms ≈ 100 Hz).
    """

    def __init__(self, interval: float = 0.01) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.samples: dict[str, int] = {}
        self.sample_count = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sample-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def run_for(self, seconds: float) -> str:
        """Sample for ``seconds`` then return the collapsed stacks
        (the fleet's ``POST /links/<id>/profile`` path)."""
        self.start()
        try:
            time.sleep(seconds)
        finally:
            self.stop()
        return self.collapsed()

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            self._take_sample(own_id)

    def _take_sample(self, own_id: int) -> None:
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        with self._lock:
            self.sample_count += 1
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                parts = []
                while frame is not None:
                    code = frame.f_code
                    parts.append(
                        f"{Path(code.co_filename).stem}:{code.co_name}"
                    )
                    frame = frame.f_back
                parts.append(f"thread:{names.get(thread_id, thread_id)}")
                key = ";".join(reversed(parts))
                self.samples[key] = self.samples.get(key, 0) + 1

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``stack count`` line per distinct
        stack, heaviest first (``flamegraph.pl``/speedscope input)."""
        with self._lock:
            items = sorted(self.samples.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        return "".join(f"{stack} {count}\n" for stack, count in items)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.collapsed(), encoding="utf-8")


# -- benchmark provenance -----------------------------------------------------

#: Schema identifier stamped into every benchmark JSON document.
BENCH_SCHEMA = "repro-bench/1"


class BenchSchemaError(ValueError):
    """Raised when a benchmark document does not match ``repro-bench/1``."""


def env_fingerprint() -> dict[str, Any]:
    """The environment a benchmark ran under: python, platform, CPU
    count, numpy version, git sha (``None`` if unknown)."""
    try:
        git_sha: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5.0, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "git_sha": git_sha,
    }


def bench_document(
    name: str,
    metrics: dict[str, dict[str, Any]],
    stages: dict[str, float] | None = None,
    env: dict[str, Any] | None = None,
    created: float | None = None,
) -> dict[str, Any]:
    """Build (and validate) a ``repro-bench/1`` document.

    ``metrics`` maps metric name → ``{"value": float, "unit": str,
    "higher_is_better": bool}``; ``stages`` is an optional ``{stage
    name: seconds}`` breakdown (a :meth:`PipelineProfile.stage_seconds`
    snapshot).
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "created": time.time() if created is None else created,
        "env": env_fingerprint() if env is None else env,
        "metrics": metrics,
        "stages": dict(stages) if stages else {},
    }
    validate_bench(doc)
    return doc


def validate_bench(doc: Any) -> dict[str, Any]:
    """Check ``doc`` against ``repro-bench/1``; raises
    :class:`BenchSchemaError` naming the first offending field."""
    if not isinstance(doc, dict):
        raise BenchSchemaError("benchmark document must be a JSON object")
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"unsupported schema {schema!r} (expected {BENCH_SCHEMA!r})"
        )
    for field in ("name", "env", "metrics"):
        if field not in doc:
            raise BenchSchemaError(f"missing field {field!r}")
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise BenchSchemaError("'name' must be a non-empty string")
    if not isinstance(doc["env"], dict):
        raise BenchSchemaError("'env' must be an object")
    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise BenchSchemaError("'metrics' must be a non-empty object")
    for metric_name, entry in metrics.items():
        if not isinstance(entry, dict):
            raise BenchSchemaError(f"metric {metric_name!r} must be an object")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BenchSchemaError(
                f"metric {metric_name!r} needs a numeric 'value'"
            )
        if not isinstance(entry.get("unit", ""), str):
            raise BenchSchemaError(f"metric {metric_name!r} 'unit' must be a string")
        if not isinstance(entry.get("higher_is_better", True), bool):
            raise BenchSchemaError(
                f"metric {metric_name!r} 'higher_is_better' must be a bool"
            )
    stages = doc.get("stages", {})
    if not isinstance(stages, dict):
        raise BenchSchemaError("'stages' must be an object")
    for stage, seconds in stages.items():
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise BenchSchemaError(f"stage {stage!r} must map to seconds")
    return doc


def write_bench(path: str | Path, doc: dict[str, Any]) -> Path:
    """Validate and write a benchmark document as pretty JSON."""
    validate_bench(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and validate a benchmark document.

    Raises :class:`BenchSchemaError` for unparseable JSON or any shape
    mismatch (so CLI callers have one exception to map to exit 2).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BenchSchemaError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from exc
    return validate_bench(doc)


class MetricDelta:
    """One metric's baseline → current movement."""

    __slots__ = ("name", "baseline", "current", "unit",
                 "higher_is_better", "change", "status")

    def __init__(self, name: str, baseline: float | None,
                 current: float | None, unit: str,
                 higher_is_better: bool, threshold: float) -> None:
        self.name = name
        self.baseline = baseline
        self.current = current
        self.unit = unit
        self.higher_is_better = higher_is_better
        if baseline is None:
            self.change = None
            self.status = "added"
        elif current is None:
            self.change = None
            self.status = "removed"
        else:
            self.change = ((current - baseline) / baseline
                           if baseline else 0.0)
            worse = -self.change if higher_is_better else self.change
            if worse > threshold:
                self.status = "regression"
            elif worse < -threshold:
                self.status = "improved"
            else:
                self.status = "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "change": self.change,
            "status": self.status,
        }


class BenchComparison:
    """The outcome of :func:`compare_benchmarks`."""

    def __init__(self, baseline_name: str, current_name: str,
                 threshold: float, deltas: list[MetricDelta]) -> None:
        self.baseline_name = baseline_name
        self.current_name = current_name
        self.threshold = threshold
        self.deltas = deltas

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """A fixed-width comparison table, one line per metric."""
        lines = [
            f"benchmark compare: {self.baseline_name} -> "
            f"{self.current_name} (threshold {self.threshold:.0%})",
            f"{'metric':<40} {'baseline':>14} {'current':>14} "
            f"{'change':>9}  status",
        ]
        for delta in self.deltas:
            base = "-" if delta.baseline is None else f"{delta.baseline:,.2f}"
            cur = "-" if delta.current is None else f"{delta.current:,.2f}"
            change = ("-" if delta.change is None
                      else f"{delta.change:+.1%}")
            name = delta.name if not delta.unit else (
                f"{delta.name} [{delta.unit}]"
            )
            lines.append(f"{name:<40} {base:>14} {cur:>14} "
                         f"{change:>9}  {delta.status}")
        return "\n".join(lines)


def compare_benchmarks(baseline: dict[str, Any], current: dict[str, Any],
                       threshold: float = 0.1) -> BenchComparison:
    """Diff two validated benchmark documents metric by metric.

    A metric regressed when it moved in its *bad* direction (per its
    ``higher_is_better`` flag in the baseline, default True) by more
    than ``threshold`` (fractional; 0.1 = 10%).  Metrics present in only
    one document are reported as ``added``/``removed``, never as
    regressions.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    validate_bench(baseline)
    validate_bench(current)
    deltas: list[MetricDelta] = []
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    for name in list(base_metrics) + [
        n for n in cur_metrics if n not in base_metrics
    ]:
        base = base_metrics.get(name)
        cur = cur_metrics.get(name)
        ref = base if base is not None else cur
        deltas.append(MetricDelta(
            name,
            None if base is None else float(base["value"]),
            None if cur is None else float(cur["value"]),
            str(ref.get("unit", "")),
            bool(ref.get("higher_is_better", True)),
            threshold,
        ))
    return BenchComparison(baseline.get("name", "baseline"),
                           current.get("name", "current"),
                           threshold, deltas)


def render_comparison(baseline_path: str | Path, current_path: str | Path,
                      threshold: float = 0.1,
                      out: IO[str] | None = None) -> int:
    """Load, compare, print; returns the ``repro perf compare`` exit
    code: 0 ok, 1 regression beyond threshold.  Schema problems raise
    :class:`BenchSchemaError` (the CLI maps that to exit 2)."""
    comparison = compare_benchmarks(load_bench(baseline_path),
                                    load_bench(current_path), threshold)
    print(comparison.render(), file=out or sys.stdout)
    return 0 if comparison.ok else 1
