"""Live monitoring glue: recorder + alert engine + shared state.

:class:`LiveMonitor` is the single object the scrape server, the
dashboard renderer, and the detection loop share.  The detection loop
feeds it records and emitted loops; it maintains the windowed recorder,
samples registry counters and evaluates alert rules on **minute
boundaries of trace time**, and serves a consistent JSON state snapshot
to whoever asks (the ``/state`` endpoint, the dashboard, tests).

Thread model: the feed runs on the detection thread; ``/state`` and
``/metrics`` are served from HTTP handler threads.  All recorder and
alert mutation happens under one lock, and :meth:`state` takes the same
lock, so a scrape sees a window-consistent view.  The per-record
critical section is a few dict increments — boundary work (counter
sampling, rule evaluation) runs once per trace minute, never per
packet.

Out-of-order feeds are tolerated, not fatal: the streaming detector
already rejects time-travel on its own input, but simulator live taps
may deliver ties in scheduler order — the monitor counts regressions
(``out_of_order``) and still banks the observation into its (correct)
older bucket.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.net.columnar import ColumnarChunk
from repro.obs.alerts import Alert, AlertEngine
from repro.obs.recorder import WindowedRecorder
from repro.obs.tracing import NULL_TRACER

StateSource = Callable[[], Any]


class LiveMonitor:
    """Shared live-monitoring state for one detection run."""

    def __init__(
        self,
        registry=None,
        alert_engine: AlertEngine | None = None,
        recorder: WindowedRecorder | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.registry = registry
        self.recorder = recorder or WindowedRecorder()
        self.alerts = alert_engine or AlertEngine(tracer=tracer)
        if registry is not None:
            self.alerts.register_metrics(registry)
        self._lock = threading.Lock()
        self._state_sources: dict[str, StateSource] = {}
        self._last_minute: int | None = None
        self.out_of_order = 0
        self.finished = False
        self._count_fn: Callable[[], int] | None = None
        self._last_total = 0
        self._next_second = float("-inf")

    # -- wiring ----------------------------------------------------------------

    def add_state_source(self, name: str, source: StateSource) -> None:
        """Expose ``source()`` (a JSON-ready callable, e.g. the
        streaming detector's ``state_snapshot``) under ``name`` in
        :meth:`state`."""
        self._state_sources[name] = source

    # -- feed (detection thread) -----------------------------------------------
    #
    # Two feeding styles, pick one per run:
    #
    # * Direct: call :meth:`observe_record` per record.  Simple, exact,
    #   takes the lock per record — fine for simulator taps and
    #   post-hoc feeds.
    # * Sampled: :meth:`set_record_source` + a ``timestamp >=
    #   monitor.next_boundary`` check in the hot loop that calls
    #   :meth:`sample` only when a second boundary is crossed.  The
    #   per-record cost is one float compare; the record counts come
    #   from differencing the source counter on boundaries.  Because
    #   detector feeds are time-ordered, every delta belongs entirely
    #   to the just-completed second, so the windows are exact.  A
    #   chunked feed may sample ahead of the detector: ``sample(t,
    #   pending)`` counts the ``pending`` records before ``t`` that are
    #   not fed yet, and only a sample that :meth:`boundary_due` says
    #   crosses a minute needs the detector caught up first, because
    #   minute-boundary work is the only sampling step that reads
    #   detector state.

    def set_record_source(self, count_fn: Callable[[], int]) -> None:
        """Use ``count_fn()`` (e.g. ``lambda: detector.stats.records``)
        as the record counter for boundary sampling.  Do not mix with
        per-record :meth:`observe_record` calls in the same run."""
        with self._lock:
            self._count_fn = count_fn
            self._last_total = count_fn()

    @property
    def next_boundary(self) -> float:
        """The trace time at which the hot loop should next call
        :meth:`sample` (-inf before the first sample)."""
        return self._next_second

    def boundary_due(self) -> bool:
        """Whether the next :meth:`sample` may cross a minute and so
        run boundary work (registry counter sampling and alert
        evaluation), which reads detector state: a feed that samples
        ahead of the detector must bring it up to date first."""
        last = self._last_minute
        return (last is not None
                and (self._next_second - 1.0) // 60.0 > last)

    def sample(self, timestamp: float, pending: int = 0) -> float:
        """Bank records counted since the previous sample into the
        just-completed second and run any due boundary work.

        Call with the first record timestamp that is ``>=
        next_boundary`` — *before* processing that record — and store
        the returned next boundary.  Deltas are banked at
        ``next_boundary - 1``, the second every pending record belongs
        to on an ordered feed.  ``pending`` is the number of earlier
        records not yet fed to the counter's source; they are counted
        as if they had been, so the caller must feed them before the
        next sample (and before any sample :meth:`boundary_due` flags).
        """
        with self._lock:
            self._sample_locked(timestamp, pending)
            self._next_second = float(int(timestamp)) + 1.0
            return self._next_second

    def _sample_locked(self, now: float, pending: int = 0) -> None:
        if self._count_fn is None or self._next_second == float("-inf"):
            return
        total = self._count_fn() + pending
        delta = total - self._last_total
        self._last_total = total
        if delta <= 0:
            return
        banked_at = self._next_second - 1.0
        self.recorder.observe_records(banked_at, delta)
        minute = int(banked_at // 60.0)
        if self._last_minute is None:
            self._last_minute = minute
        elif minute > self._last_minute:
            self._last_minute = minute
            self._on_boundary(now)

    def observe_record(self, timestamp: float) -> None:
        """Count one captured record; runs boundary work when the
        record's minute advances past the previous one."""
        with self._lock:
            minute = int(timestamp // 60.0)
            if self._last_minute is None:
                self._last_minute = minute
            elif minute > self._last_minute:
                self._last_minute = minute
                self._on_boundary(timestamp)
            elif minute < self._last_minute:
                self.out_of_order += 1
            self.recorder.observe_record(timestamp)

    def observe_loop(self, loop) -> None:
        """Record an emitted :class:`~repro.core.merge.RoutingLoop`."""
        with self._lock:
            self.recorder.observe_loop(loop)

    def on_loop(self, loop) -> None:
        """Alias usable directly as a detector's ``on_loop`` callback."""
        self.observe_loop(loop)

    def finish(self) -> None:
        """End of feed: close the final minute so its windows alert."""
        with self._lock:
            if self.finished:
                return
            self.finished = True
            # Bank any records still pending in a sampled feed: they
            # all belong to the last open second (no record crossed
            # its boundary, or it would have been sampled).
            if self._next_second != float("-inf"):
                self._sample_locked(self._next_second)
            if self.recorder.now != float("-inf"):
                # Evaluate one minute past the last record so the final
                # (partial) window counts as closed.
                self._on_boundary(self.recorder.now + 60.0)

    def _on_boundary(self, now: float) -> list[Alert]:
        # Called with the lock held.
        if self.registry is not None:
            self.recorder.sample_counters(self.registry)
        return self.alerts.evaluate(self.recorder, now)

    # -- serving (HTTP handler threads) ----------------------------------------

    def state(self) -> dict[str, Any]:
        """A window-consistent JSON-ready snapshot of everything the
        monitor knows."""
        with self._lock:
            state: dict[str, Any] = {
                "recorder": self.recorder.snapshot(),
                "alerts": self.alerts.snapshot(),
                "out_of_order": self.out_of_order,
                "finished": self.finished,
            }
            for name, source in self._state_sources.items():
                state[name] = source()
        return state

    def samples(self) -> dict[str, tuple]:
        """Consistent copies of the recorder's bounded CDF samples
        (for the dashboard's Fig. 3/4/8/9 panels)."""
        with self._lock:
            recorder = self.recorder
            return {
                "stream_sizes": tuple(recorder.stream_sizes),
                "stream_durations": tuple(recorder.stream_durations),
                "replica_spacings": tuple(recorder.replica_spacings),
                "loop_durations": tuple(
                    row["duration"] for row in recorder.loops
                ),
            }

    def render_prometheus(self) -> str:
        """The registry's exposition text ('' without a registry)."""
        if self.registry is None:
            return ""
        return self.registry.render_prometheus()


# -- monitored streaming feeds -------------------------------------------------
#
# The CLI's `monitor` hot loop and the fleet daemon's per-link pipelines
# drive the exact same monitored feed; these helpers keep them
# byte-identical instead of two hand-copied loops.


def attach_detector(monitor: LiveMonitor, streaming) -> None:
    """Wire a :class:`~repro.core.streaming.StreamingLoopDetector` to
    the monitor: expose its state snapshot under ``detector``, chain its
    ``on_loop`` callback into the recorder, and use its record counter
    as the boundary-sampling source."""
    monitor.add_state_source("detector", streaming.state_snapshot)
    previous = streaming.on_loop
    if previous is None:
        streaming.on_loop = monitor.on_loop
    else:
        def chained(loop, _inner=previous):
            monitor.observe_loop(loop)
            _inner(loop)

        streaming.on_loop = chained
    monitor.set_record_source(lambda: streaming.stats.records)


def feed_pairs(streaming, monitor: LiveMonitor, pairs) -> list:
    """Feed ``(timestamp, data)`` pairs through the detector with
    window-boundary sampling; returns the loops that closed.

    The pairs are packed into one
    :class:`~repro.net.columnar.ColumnarChunk` and fed by
    :func:`feed_chunk`.  Safe to call repeatedly with successive batches
    of one ordered feed; call
    :meth:`~repro.core.streaming.StreamingLoopDetector.flush` and
    :meth:`LiveMonitor.finish` after the last batch.
    """
    return feed_chunk(streaming, monitor, ColumnarChunk.from_pairs(pairs))


#: Most records one ``process_chunk`` call receives from :func:`feed_chunk`.
#: A call's transient grows at 200-450 B/record (tracemalloc medians on
#: perfbench's seed-7 fleet links, sparse / storm: 2.2 / 3.6 MB at
#: 8,192 records, 13.7 / 14.6 MB at 65,536), and uncapped 65k-record
#: source chunks once raised a two-link fleet's peak RSS from 118 to
#: 157 MB.  8k records keeps the transient at a few MB while still
#: making ~8x fewer calls than slicing at every second.
_FEED_SLICE = 8192


def feed_chunk(streaming, monitor: LiveMonitor, chunk) -> list:
    """Feed one :class:`~repro.net.columnar.ColumnarChunk` with
    window-boundary sampling; returns the loops that closed.

    One :meth:`LiveMonitor.sample` per second crossing, with the first
    record timestamp at or past the boundary (a ``searchsorted`` per
    crossing).  Records not yet fed to the detector are passed to
    ``sample`` as ``pending``, and the detector is fed only before a
    sample that crosses a minute (the only sampling step that reads
    detector state) and at the end of the chunk.  Fed ranges are cut
    into zero-copy slices of at most :data:`_FEED_SLICE` records for
    :meth:`~repro.core.streaming.StreamingLoopDetector.process_chunk`.
    Loops, monitor state and every minute-boundary snapshot are those
    of a feed that samples and feeds record by record; mid-chunk, the
    recorder's windows may run ahead of the detector by the records of
    this chunk not fed yet.

    A record earlier than its predecessor (or than the detector's last
    record) ends the feed: the records before it are sampled and fed,
    then the detector rejects it with ``ValueError``.
    """
    n = len(chunk)
    if n == 0:
        return []
    ordered = chunk.ordered(streaming.now)
    ts = np.frombuffer(chunk.timestamps, dtype=np.float64, count=ordered)
    boundary = monitor.next_boundary
    loops: list = []
    done = pos = 0
    while pos < ordered:
        first = float(ts[pos])
        if first >= boundary:
            if pos > done and monitor.boundary_due():
                _feed_range(streaming, chunk, done, pos, loops)
                done = pos
            boundary = monitor.sample(first, pos - done)
        pos = max(int(np.searchsorted(ts, boundary, side="left")), pos + 1)
    _feed_range(streaming, chunk, done, ordered, loops)
    if ordered < n:
        streaming.process_chunk(chunk.slice(ordered, n))  # raises
    return loops


def _feed_range(streaming, chunk, start: int, stop: int,
                loops: list) -> None:
    """Feed records ``start:stop`` of ``chunk`` in equal slices of at
    most :data:`_FEED_SLICE` records."""
    size = stop - start
    parts = -(-size // _FEED_SLICE)
    for i in range(parts):
        loops.extend(streaming.process_chunk(chunk.slice(
            start + size * i // parts, start + size * (i + 1) // parts)))
