"""In-memory span recorder for the traced benchmark run.

The traced run wraps public functions and methods of the program from
outside (see :func:`layer_patches`): each call becomes a span with a
name, start, end, thread and parent.  Nothing inside the program
changes; the wrappers are installed for one operation and removed
after it.

A span's *self time* is its duration minus the part of it covered by
its child spans.  Spans opened on a thread with no open span of its own
(executor threads in the fleet) take the innermost open *anchor* span
as parent, so a fleet link's work on a worker thread nests under the
supervisor span that caused it.  Children from several threads may
overlap; the union of their intervals is what gets subtracted.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Recorder:
    """Spans and counters for one traced operation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._local = threading.local()
        self._anchors: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, anchor: bool = False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._anchors[-1] if self._anchors else None
        with self._lock:
            span_id = len(self.spans)
            record = {"id": span_id, "name": name, "parent": parent,
                      "thread": threading.get_ident(),
                      "start": time.perf_counter(), "end": None}
            self.spans.append(record)
        stack.append(span_id)
        if anchor:
            self._anchors.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if anchor:
                self._anchors.remove(span_id)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            start, end = span["start"], span["end"]
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(span["id"], ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[span["name"]] += (end - start) - covered
        return dict(totals)

    def dump(self, origin: float) -> list[dict]:
        """Spans with times relative to ``origin``, for the spans file."""
        return [dict(span, start=span["start"] - origin,
                     end=span["end"] - origin) for span in self.spans]


class Stopwatch:
    """Times one operation's blocking steps (``with stopwatch: ...``);
    given a recorder, the block is also the operation's root span."""

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self.wall: float | None = None
        self._span = None

    def __enter__(self) -> "Stopwatch":
        if self.recorder is not None:
            self._span = self.recorder.span("bench.op", anchor=True)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc)


def _wrap_call(recorder: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(recorder, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_async(recorder: Recorder, name: str, fn):
    async def wrapper(*args, **kwargs):
        with recorder.span(name, anchor=True):
            return await fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_iter(recorder: Recorder, name: str, fn):
    """Time each ``next()`` of the iterator ``fn`` returns and count the
    records and bytes of the chunks it yields."""
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            with recorder.span(name):
                chunk = next(iterator, None)
            if chunk is None:
                return
            recorder.count("pcap.records", len(chunk))
            recorder.count("pcap.bytes", sum(chunk.lengths) + 16 * len(chunk))
            yield chunk

    wrapper.__wrapped__ = fn
    return wrapper


#: Process-chunk calls between two samples of the streaming state size.
STATE_SAMPLE_EVERY = 32


def _after_candidates(recorder, args, result) -> None:
    recorder.count("replica.candidates", len(result))


def _after_validate(recorder, args, result) -> None:
    recorder.count("streams.rejected", result.rejected)
    recorder.count("streams.validated", len(result.valid))


def _after_merge(recorder, args, result) -> None:
    recorder.count("merge.loops", len(result))


def _after_process_chunk(recorder, args, result) -> None:
    streaming, chunk = args[0], args[1]
    recorder.count("streaming.calls")
    recorder.count("streaming.records", len(chunk))
    if recorder.counts["streaming.calls"] % STATE_SAMPLE_EVERY == 1:
        _sample_state(recorder, streaming)


def _after_flush(recorder, args, result) -> None:
    _sample_state(recorder, args[0])


def _sample_state(recorder, streaming) -> None:
    # Its own span, so the sampling cost is charged to the benchmark
    # (``unaccounted_s``), not to the layer that happens to enclose it.
    with recorder.span("bench.sample"):
        state = streaming.state_snapshot()
    entries = (state["singletons"] + len(state["open_streams"])
               + len(state["open_loops"]) + state["tracked_prefixes"])
    recorder.gauge_max("streaming.state_entries", entries)


def _after_sample(recorder, args, result) -> None:
    recorder.count("live.sample_calls")


def layer_patches(recorder: Recorder) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every traced boundary.

    Functions a module imported by name are wrapped on that module's
    binding (``repro.core.detector.validate_streams``,
    ``repro.fleet.pipeline.feed_chunk``), since that is the name the
    caller looks up.
    """
    from repro.capture.monitor import LinkMonitor
    from repro.core import detector as detector_mod
    from repro.core.detector import LoopDetector
    from repro.core.streaming import StreamingLoopDetector
    from repro.core.streams import PrefixIndex
    from repro.fleet import pipeline as pipeline_mod
    from repro.fleet import sources as sources_mod
    from repro.fleet.supervisor import FleetSupervisor
    from repro.net import pcap as pcap_mod
    from repro.obs.live import LiveMonitor
    from repro.routing.events import EventScheduler
    from repro.sim.backbone import BackboneScenario

    r = recorder
    plan = [
        (pcap_mod, "read_pcap_columnar", _wrap_call(
            r, "net.pcap", pcap_mod.read_pcap_columnar)),
        (pcap_mod, "iter_pcap_columnar", _wrap_iter(
            r, "net.pcap", pcap_mod.iter_pcap_columnar)),
        (sources_mod, "iter_pcap_columnar", _wrap_iter(
            r, "fleet.sources.read", sources_mod.iter_pcap_columnar)),
        (LoopDetector, "detect_columnar", _wrap_call(
            r, "core.detector", LoopDetector.detect_columnar)),
        (LoopDetector, "detect", _wrap_call(
            r, "core.detector", LoopDetector.detect)),
        (detector_mod, "detect_replicas_with_kernel", _wrap_call(
            r, "core.replica", detector_mod.detect_replicas_with_kernel,
            _after_candidates)),
        (detector_mod, "detect_replicas", _wrap_call(
            r, "core.replica", detector_mod.detect_replicas,
            _after_candidates)),
        (PrefixIndex, "add_chunk", _wrap_call(
            r, "core.streams.index", PrefixIndex.add_chunk)),
        (PrefixIndex, "__init__", _wrap_call(
            r, "core.streams.index", PrefixIndex.__init__)),
        (detector_mod, "validate_streams", _wrap_call(
            r, "core.streams.validate", detector_mod.validate_streams,
            _after_validate)),
        (detector_mod, "merge_streams", _wrap_call(
            r, "core.merge", detector_mod.merge_streams, _after_merge)),
        (StreamingLoopDetector, "process_chunk", _wrap_call(
            r, "core.streaming", StreamingLoopDetector.process_chunk,
            _after_process_chunk)),
        (StreamingLoopDetector, "flush", _wrap_call(
            r, "core.streaming", StreamingLoopDetector.flush,
            _after_flush)),
        (pipeline_mod, "feed_chunk", _wrap_call(
            r, "obs.live", pipeline_mod.feed_chunk)),
        (LiveMonitor, "sample", _wrap_call(
            r, "obs.live", LiveMonitor.sample, _after_sample)),
        (FleetSupervisor, "run", _wrap_async(
            r, "fleet.pipeline", FleetSupervisor.run)),
        (BackboneScenario, "build", _wrap_call(
            r, "sim.backbone.build", BackboneScenario.build)),
        (BackboneScenario, "run", _wrap_call(
            r, "sim.backbone", BackboneScenario.run)),
        (EventScheduler, "run", _wrap_call(
            r, "routing.events", EventScheduler.run)),
        (LinkMonitor, "finalize", _wrap_call(
            r, "capture.monitor.finalize", LinkMonitor.finalize)),
    ]
    return plan


@contextmanager
def installed(recorder: Recorder):
    """Install the layer wrappers for the duration of the block."""
    plan = layer_patches(recorder)
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in plan]
    try:
        for owner, name, replacement in plan:
            setattr(owner, name, replacement)
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
