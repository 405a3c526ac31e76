"""The fleet supervisor: N link pipelines under one event loop.

:class:`FleetSupervisor` owns one :class:`~repro.fleet.pipeline.
LinkPipeline` per configured link, each wrapped in a
:class:`~repro.fleet.task.SupervisedTask` so a crashing link is
restarted with backoff instead of taking the daemon down — and a link
that keeps crashing is parked as ``failed`` without disturbing its
neighbours.

Thread model: the supervisor lives on the asyncio event-loop thread.
HTTP handler threads only *read* (``snapshot``, ``render_metrics`` —
safe because pipelines publish each run's state as one atomic
attribute write) or hand restart requests across via
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
from collections import Counter as TallyCounter
from typing import Any

from repro.fleet.config import FleetConfig
from repro.fleet.pipeline import LinkPipeline
from repro.fleet.task import SupervisedTask
from repro.obs.metrics import MetricsRegistry, merged_registry
from repro.obs.tracing import NULL_TRACER


class FleetSupervisor:
    """Run, watch, and report on every configured link pipeline."""

    def __init__(self, config: FleetConfig, tracer=NULL_TRACER) -> None:
        self.config = config
        self.pipelines: dict[str, LinkPipeline] = {
            link.id: LinkPipeline(link, tracer=tracer)
            for link in config.links
        }
        self.tasks: dict[str, SupervisedTask] = {
            link_id: SupervisedTask(
                link_id, pipeline.run, policy=config.restart
            )
            for link_id, pipeline in self.pipelines.items()
        }
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = False
        self._shutdown_event: asyncio.Event | None = None

    # -- lifecycle (event-loop thread) -----------------------------------------

    def start(self) -> None:
        """Start every link task on the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        if self._shutdown_requested:
            self._shutdown_event.set()
        for task in self.tasks.values():
            task.start()

    async def wait(self) -> None:
        """Block until every task reaches a terminal state (never, for
        ``watch`` sources — pair with :meth:`stop`)."""
        pending = [task._task for task in self.tasks.values()
                   if task._task is not None]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def stop(self) -> None:
        """Cancel every task and wait for all of them to land."""
        await asyncio.gather(
            *(task.stop() for task in self.tasks.values()),
            return_exceptions=True,
        )

    async def run(self, run_for: float | None = None) -> None:
        """Start the fleet and wait — for completion, ``run_for``
        seconds, or a :meth:`shutdown` request, whichever comes first.

        Natural completion leaves terminal states untouched (a FAILED
        link stays failed); a timeout or shutdown cancels what is still
        live."""
        self.start()
        waiter = asyncio.ensure_future(self.wait())
        stopper = asyncio.ensure_future(self._shutdown_event.wait())
        try:
            await asyncio.wait({waiter, stopper}, timeout=run_for,
                               return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            waiter.cancel()
            raise
        finally:
            stopper.cancel()
        if waiter.done():
            return
        await self.stop()
        await waiter

    # -- control (any thread) --------------------------------------------------

    def shutdown(self) -> None:
        """Ask a running :meth:`run` to stop the fleet and return.

        Callable before :meth:`start` (the request is remembered) and
        from signal handlers — it only sets a flag; the cancellation
        work happens inside :meth:`run` on the event loop."""
        self._shutdown_requested = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def request_restart(self, link_id: str) -> bool:
        """Thread-safe restart request; False for unknown links or a
        supervisor that has not started."""
        task = self.tasks.get(link_id)
        loop = self._loop
        if task is None or loop is None:
            return False
        task.request_restart(loop)
        return True

    # -- reporting (any thread) ------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The ``/links`` document: one row per link (lifecycle +
        pipeline counters) plus a fleet-level state tally."""
        rows = []
        for link_id, task in self.tasks.items():
            row = task.snapshot()
            row.update(self.pipelines[link_id].row())
            rows.append(row)
        tally = TallyCounter(task.state.value
                             for task in self.tasks.values())
        return {"links": rows, "states": dict(sorted(tally.items()))}

    def render_metrics(self) -> str:
        """Fleet-wide Prometheus exposition: every link's registry
        merged under a ``link`` label, plus supervisor counters."""
        named = {
            link_id: pipeline.registry
            for link_id, pipeline in self.pipelines.items()
            if pipeline.registry is not None
        }
        merged = merged_registry(named, label="link")
        self._publish_supervisor_metrics(merged)
        return merged.render_prometheus()

    def _publish_supervisor_metrics(self, registry: MetricsRegistry) -> None:
        registry.gauge(
            "fleet_links", "Number of links this fleet supervises."
        ).set(len(self.tasks))
        for link_id, task in self.tasks.items():
            labels = {"link": link_id}
            registry.counter(
                "fleet_task_crashes_total",
                "Pipeline crashes caught by the supervisor.", labels,
            ).set(task.crashes_total)
            registry.counter(
                "fleet_task_restarts_total",
                "Manual restart requests honoured.", labels,
            ).set(task.restarts_total)
            registry.gauge(
                "fleet_task_up",
                "1 while the pipeline task is running, else 0.", labels,
            ).set(1.0 if task.state.value == "running" else 0.0)


def build_supervisor(config: FleetConfig, tracer=None) -> FleetSupervisor:
    # Kept because perfbench's fleet workload builds its supervisor here.
    return FleetSupervisor(config, tracer=tracer or NULL_TRACER)
