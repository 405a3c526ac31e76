"""Async record sources for fleet pipelines.

Every source exposes one coroutine-friendly surface::

    async for chunk in source.batches():
        # chunk is a ColumnarChunk, time-ordered within and across
        # batches

Batches are :class:`~repro.net.columnar.ColumnarChunk` objects — one
contiguous slab plus parallel columns — so the per-record async
overhead is amortized over tens of thousands of records and the
streaming detector can consume the chunk without ever
materializing per-record pairs (``chunk.iter_views()`` recovers the
pair form when a consumer wants it).  All blocking work (pcap parsing,
simulator execution, directory listing) runs on the default executor;
the event loop only ever awaits.

Source errors (truncated pcap, bad scenario name) propagate out of
``batches()`` — crash handling is the supervisor's job, not the
source's.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, AsyncIterator, Callable, Iterator

from repro.fleet.config import SourceConfig
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.net.pcap import iter_pcap_columnar
from repro.obs.perf import NULL_PROFILE

Batch = ColumnarChunk

_SENTINEL = object()


async def prefetch_batches(source, profile=NULL_PROFILE,
                           depth: int = 2) -> AsyncIterator[Batch]:
    """Pull ``source.batches()`` ahead of the consumer through a bounded
    queue, so reading the next batch overlaps detecting the current one.

    The queue is the fleet's backpressure point: a slow detector fills
    it and stalls the reader; a slow source leaves it empty and stalls
    the detector.  ``profile`` (a :class:`~repro.obs.perf.
    PipelineProfile`) gets a ``source.prefetch`` queue-depth gauge
    updated on every hand-off, so ``/perf`` shows which side is behind.
    Source errors propagate to the consumer; the producer task is
    cancelled when the consumer stops early.
    """
    queue: asyncio.Queue = asyncio.Queue(maxsize=max(1, depth))

    async def _produce() -> None:
        try:
            async for batch in source.batches():
                await queue.put(("batch", batch))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            await queue.put(("error", exc))
            return
        await queue.put(("done", None))

    task = asyncio.create_task(_produce())
    try:
        while True:
            profile.queue_depth("source.prefetch", queue.qsize())
            kind, payload = await queue.get()
            if kind == "batch":
                yield payload
            elif kind == "error":
                raise payload
            else:
                return
    finally:
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, Exception):
            pass


async def _iter_off_thread(make_iterator: Callable[[], Iterator[Any]]
                           ) -> AsyncIterator[Any]:
    """Drive a blocking iterator from the executor, one item per hop."""
    loop = asyncio.get_running_loop()
    iterator = await loop.run_in_executor(None, make_iterator)
    while True:
        item = await loop.run_in_executor(None, next, iterator, _SENTINEL)
        if item is _SENTINEL:
            return
        yield item


class _Pacer:
    """Throttle a replay to ``pace`` trace seconds per wall second.

    ``pace == 0`` replays at full speed.  The pacer anchors trace time
    to the wall clock at the first record and sleeps whenever the
    replay runs ahead of schedule; it never tries to catch up a slow
    reader by dropping records.
    """

    def __init__(self, pace: float) -> None:
        self.pace = pace
        self._trace_start: float | None = None
        self._wall_start = 0.0

    async def pace_to(self, timestamp: float) -> None:
        if not self.pace:
            return
        loop = asyncio.get_running_loop()
        if self._trace_start is None:
            self._trace_start = timestamp
            self._wall_start = loop.time()
            return
        due = self._wall_start + (timestamp - self._trace_start) / self.pace
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)


async def _pcap_batches(path: Path, pacer: _Pacer) -> AsyncIterator[Batch]:
    async for chunk in _iter_off_thread(
        lambda: iter_pcap_columnar(path)
    ):
        if len(chunk):
            await pacer.pace_to(chunk.timestamps[-1])
        yield chunk


class PcapFileSource:
    """Replay one capture file, optionally paced."""

    def __init__(self, config: SourceConfig) -> None:
        self.config = config

    async def batches(self) -> AsyncIterator[Batch]:
        pacer = _Pacer(self.config.pace)
        async for batch in _pcap_batches(Path(self.config.path), pacer):
            yield batch


class DirectoryWatchSource:
    """Follow a directory of rotating captures.

    Files matching ``pattern`` are replayed in sorted-name order; new
    arrivals are picked up every ``poll_interval`` seconds.  Rotation
    schemes that number their files (``link-0001.pcap`` …) therefore
    replay in capture order.  The watch never ends on its own — the
    pipeline stops it by cancellation.

    A file is claimed the moment it is seen, so a file that turns out
    to be corrupt crashes the pipeline run *every* run (the restarted
    run re-lists the directory from scratch) until the crash budget is
    exhausted — a poisoned capture is an operator problem, not
    something to skip silently.
    """

    def __init__(self, config: SourceConfig) -> None:
        self.config = config

    async def batches(self) -> AsyncIterator[Batch]:
        config = self.config
        directory = Path(config.directory)
        pacer = _Pacer(config.pace)
        seen: set[str] = set()
        loop = asyncio.get_running_loop()
        while True:
            names = await loop.run_in_executor(
                None,
                lambda: sorted(
                    entry.name for entry in directory.glob(config.pattern)
                ),
            )
            fresh = [name for name in names if name not in seen]
            for name in fresh:
                seen.add(name)
                async for batch in _pcap_batches(directory / name, pacer):
                    yield batch
            await asyncio.sleep(config.poll_interval)


class SimulatorSource:
    """Run a Table I backbone scenario off-thread, then replay its
    captured trace as columnar batches."""

    def __init__(self, config: SourceConfig) -> None:
        self.config = config

    async def batches(self) -> AsyncIterator[Batch]:
        from repro.sim import table1_scenario

        config = self.config
        overrides: dict[str, Any] = {}
        if config.duration is not None:
            overrides["duration"] = float(config.duration)
        loop = asyncio.get_running_loop()

        def simulate() -> ColumnarTrace:
            scenario = table1_scenario(config.scenario, **overrides)
            return ColumnarTrace.from_trace(scenario.run().trace)

        columnar = await loop.run_in_executor(None, simulate)
        pacer = _Pacer(config.pace)
        for chunk in columnar.chunks:
            if len(chunk):
                await pacer.pace_to(chunk.timestamps[-1])
            yield chunk
            await asyncio.sleep(0)  # yield the loop between chunks


_SOURCES = {
    "pcap": PcapFileSource,
    "watch": DirectoryWatchSource,
    "sim": SimulatorSource,
}


def build_source(config: SourceConfig):
    """Instantiate the source class for a :class:`SourceConfig`."""
    return _SOURCES[config.kind](config)
