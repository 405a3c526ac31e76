"""Fleet-scale monitoring daemon.

The paper monitored four backbone links with one-shot offline analysis;
a tier-1 POP has hundreds of links that must be watched continuously.
This package turns the single-link ``monitor`` pipeline into a
long-running multi-link service:

* :mod:`repro.fleet.config` — declarative fleet configuration
  (TOML/JSON): links, sources, alert thresholds, restart policy;
* :mod:`repro.fleet.task` — restartable supervised asyncio tasks with
  bounded exponential-backoff restarts and a visible lifecycle
  (``starting → running → degraded → failed/stopped``);
* :mod:`repro.fleet.sources` — async record sources: pcap replay,
  directory watch over rotating captures, live simulator feed;
* :mod:`repro.fleet.pipeline` — one link's capture → columnar ingest →
  streaming detection → windowed recorder chain, rebuilt fresh on every
  (re)start;
* :mod:`repro.fleet.supervisor` — owns N concurrent link pipelines on
  one event loop, detection on its thread executor;
* :mod:`repro.fleet.api` — the fleet-wide HTTP API (``/links``,
  per-link ``/state`` and ``/dashboard``, label-aggregated
  ``/metrics``, ``POST /links/<id>/restart``).

``repro-loops fleet <config>`` is the CLI entry point.
"""

from repro.fleet.api import FleetServer
from repro.fleet.config import FleetConfig, FleetConfigError, LinkConfig
from repro.fleet.pipeline import LinkPipeline
from repro.fleet.supervisor import FleetSupervisor, build_supervisor
from repro.fleet.task import RestartPolicy, SupervisedTask, TaskState

__all__ = [
    "FleetConfig",
    "FleetConfigError",
    "FleetServer",
    "FleetSupervisor",
    "LinkConfig",
    "LinkPipeline",
    "RestartPolicy",
    "SupervisedTask",
    "TaskState",
    "build_supervisor",
]
