"""One link's monitored detection pipeline.

:class:`LinkPipeline` is the ``body`` a :class:`~repro.fleet.task.
SupervisedTask` runs: source batches → streaming detection → windowed
recorder/alerts, using the exact same monitored feed as ``repro-loops
monitor`` (:func:`~repro.obs.live.attach_detector` /
:func:`~repro.obs.live.feed_chunk`), so a fleet link's loop counts are
byte-identical to an independent ``detect`` run over the same records.
Columnar source batches engage the streaming detector's batched tier;
irregular batches degrade to the per-record feed with identical output.

Every (re)start builds the whole chain fresh — registry, recorder,
alert engine, detector.  That is what makes restarts sound: the
streaming detector rejects time travel on its input, so resuming a
half-fed detector after a crash would poison it; replaying from scratch
into fresh state reproduces an uncrashed run exactly.  The previous
run's objects stay readable (the HTTP API swaps to the new ones via a
single attribute write) but are never fed again.

Record batches are processed on the default executor so N link
pipelines make progress on N cores while the event loop only
schedules.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.streaming import StreamingLoopDetector
from repro.fleet.config import LinkConfig
from repro.fleet.sources import build_source, prefetch_batches
from repro.net.columnar import ColumnarChunk
from repro.obs.alerts import AlertEngine, HysteresisConfig, default_rules
from repro.obs.live import LiveMonitor, attach_detector, feed_chunk, feed_pairs
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import PipelineProfile


@dataclass
class RunArtifacts:
    """Everything one pipeline run builds; swapped atomically on
    (re)start so HTTP readers always see one coherent run."""

    registry: MetricsRegistry
    monitor: LiveMonitor
    streaming: StreamingLoopDetector
    profile: PipelineProfile
    started_at: float
    loops: list = field(default_factory=list)
    finished: bool = False


def _feed_batch(streaming, monitor, batch) -> tuple[list, int]:
    """Feed one source batch through the detector; returns ``(closed
    loops, byte count)``.

    Runs on the executor, never the event loop: both the detection work
    and the per-record byte accounting happen here, so the loop only
    schedules.  Columnar chunks take the batched tier via
    :func:`~repro.obs.live.feed_chunk` and read their byte count from
    the length column in one C-speed ``sum``; anything else (a plain
    iterable of pairs — kept for tests and custom sources) falls back to
    the per-record feed.
    """
    if isinstance(batch, ColumnarChunk):
        return (feed_chunk(streaming, monitor, batch),
                sum(batch.lengths))
    batch = list(batch)
    return (feed_pairs(streaming, monitor, batch),
            sum(len(data) for _, data in batch))


class _RateTracker:
    """Differences a monotonically growing counter against the wall
    clock, so ``/links`` rows can report instantaneous records/s.

    Two consecutive reads closer than ``min_interval`` return the
    previous rate instead of amplifying timer noise; a counter reset
    (fresh run after a restart) re-anchors instead of reporting a
    negative rate.
    """

    __slots__ = ("min_interval", "_at", "_total", "rate")

    def __init__(self, min_interval: float = 0.2) -> None:
        self.min_interval = min_interval
        self._at: float | None = None
        self._total = 0
        self.rate = 0.0

    def update(self, now: float, total: int) -> float:
        if self._at is None or total < self._total:
            self._at = now
            self._total = total
            self.rate = 0.0
            return self.rate
        elapsed = now - self._at
        if elapsed >= self.min_interval:
            self.rate = (total - self._total) / elapsed
            self._at = now
            self._total = total
        return self.rate


def _build_monitor(config: LinkConfig) -> tuple[
        MetricsRegistry, LiveMonitor]:
    registry = MetricsRegistry(enabled=True)
    alerts = config.alerts
    engine = AlertEngine(
        rules=default_rules(
            loss_share_threshold=alerts.loss_share_threshold,
            duration_tail_seconds=alerts.duration_tail_seconds,
        ) if alerts.enabled else [],
        hysteresis=HysteresisConfig(
            fire_after=alerts.fire_after,
            clear_after=alerts.clear_after,
        ),
    )
    monitor = LiveMonitor(registry=registry, alert_engine=engine)
    return registry, monitor


class LinkPipeline:
    """The restartable capture → detect → record chain for one link."""

    def __init__(self, config: LinkConfig, clock=time.time) -> None:
        self.config = config
        self._clock = clock
        self.current: RunArtifacts | None = None
        self._rate = _RateTracker()

    # -- the supervised body ---------------------------------------------------

    async def run(self) -> None:
        registry, monitor = _build_monitor(self.config)
        profile = PipelineProfile(registry)
        monitor.add_state_source("perf", profile.snapshot)
        streaming = StreamingLoopDetector(
            config=self.config.detector, profile=profile
        )
        streaming.register_metrics(registry)
        attach_detector(monitor, streaming)
        artifacts = RunArtifacts(
            registry=registry,
            monitor=monitor,
            streaming=streaming,
            profile=profile,
            started_at=self._clock(),
        )
        self.current = artifacts
        source = build_source(self.config.source)
        loop = asyncio.get_running_loop()
        batches = prefetch_batches(source, profile,
                                   depth=self.config.prefetch)
        feeding: asyncio.Future | None = None
        try:
            while True:
                # source.wait is the time this pipeline spent starved
                # for input; detect.feed is time actually detecting.
                # Their ratio is the link's headroom.
                with profile.stage("source.wait"):
                    try:
                        batch = await anext(batches)
                    except StopAsyncIteration:
                        break
                with profile.stage("detect.feed",
                                   records=len(batch)) as span:
                    # Shielded: cancelling this coroutine (restart or
                    # stop) cannot stop the executor thread mid-feed, so
                    # the feed must be awaited to completion either way
                    # — flushing a detector another thread is still
                    # feeding corrupts its state.
                    feeding = loop.run_in_executor(
                        None, _feed_batch, streaming, monitor, batch
                    )
                    closed, nbytes = await asyncio.shield(feeding)
                    feeding = None
                    span.add(bytes=nbytes)
                artifacts.loops.extend(closed)
        finally:
            # Close the books even on cancellation so the final partial
            # windows are visible; a crashed run is replaced wholesale
            # by the next run's fresh artifacts anyway.
            if feeding is not None and not feeding.done():
                while not feeding.done():
                    try:
                        await asyncio.wait({feeding})
                    except asyncio.CancelledError:
                        continue  # the feed is finite; keep reaping
            if feeding is not None and not feeding.cancelled() \
                    and feeding.exception() is None:
                artifacts.loops.extend(feeding.result()[0])
            await batches.aclose()
            with profile.stage("detect.flush"):
                artifacts.loops.extend(streaming.flush())
            monitor.finish()
            artifacts.finished = True

    # -- read side (HTTP handler threads) --------------------------------------

    @property
    def registry(self) -> MetricsRegistry | None:
        current = self.current
        return None if current is None else current.registry

    @property
    def monitor(self) -> LiveMonitor | None:
        current = self.current
        return None if current is None else current.monitor

    def perf(self) -> dict[str, Any]:
        """The current run's stage-timing snapshot (the ``/perf`` and
        ``/links/<id>/perf`` document body)."""
        current = self.current
        if current is None:
            return {"stages": [], "queues": {}}
        return current.profile.snapshot()

    def records_per_s(self) -> float:
        """Instantaneous feed rate, differenced from the detector's
        record counter between reads (0.0 before the run starts and
        once the feed has drained)."""
        current = self.current
        if current is None:
            return 0.0
        return self._rate.update(self._clock(),
                                 current.streaming.stats.records)

    def row(self) -> dict[str, Any]:
        """The ``/links`` summary row for this pipeline."""
        current = self.current
        row: dict[str, Any] = {
            "id": self.config.id,
            "source": self.config.source.describe(),
            "records": 0,
            "records_per_s": 0.0,
            "loops": 0,
            "alerts_active": 0,
            "run_started_at": None,
            "run_finished": False,
        }
        if current is None:
            return row
        stats = current.streaming.stats
        row.update(
            records=stats.records,
            records_per_s=round(self.records_per_s(), 1),
            loops=stats.loops_emitted,
            alerts_active=len(current.monitor.alerts.active_rules()),
            run_started_at=current.started_at,
            run_finished=current.finished,
        )
        return row

    def state(self) -> dict[str, Any]:
        """The full per-link ``/state`` document."""
        current = self.current
        if current is None:
            return {"id": self.config.id,
                    "source": self.config.source.describe(),
                    "run": None}
        state = current.monitor.state()
        state["id"] = self.config.id
        state["source"] = self.config.source.describe()
        state["run"] = {
            "started_at": current.started_at,
            "finished": current.finished,
            "loops": current.streaming.stats.loops_emitted,
        }
        return state
