"""Unified observability layer: metrics, tracing, lifecycle correlation.

The paper's contribution is *observing* transient routing loops from the
data plane; this package makes the reproduction itself observable.  It
has four pieces, designed to be wired through every subsystem (simulator
control plane, offline/streaming detectors, capture monitors,
CLI) with **zero cost when disabled**:

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and fixed-bucket histograms with Prometheus-style text
  exposition and JSON snapshot export.  A disabled registry hands out
  module-level null singletons, so instrumented code pays one no-op
  method call at most — and hot loops (the forwarding engine's
  ``_arrive``) keep their plain-int counters and publish through pull
  collectors at export time, paying nothing per packet.
* :mod:`repro.obs.tracing` — a span/event tracer emitting JSONL with
  monotonic timestamps (simulation time in the simulator, wall time in
  the detection pipeline, tagged per record).  The control plane emits
  the full convergence pipeline (link failure → adjacency loss → LSA
  flood → SPF → FIB install) and the detectors' stage timer
  (:class:`~repro.obs.perf.PipelineProfile`) writes stage spans and
  per-loop intervals into the same trace.
* :mod:`repro.obs.lifecycle` — joins control-plane events with detected
  loop intervals to answer the paper's central question per loop: which
  failure caused it, and how its duration decomposes into convergence
  phases.
* :mod:`repro.obs.progress` / :mod:`repro.obs.log` — heartbeat
  reporting for long runs and the shared ``repro`` logger.
"""

from repro.obs.alerts import Alert, AlertEngine, AlertRule, default_rules
from repro.obs.dashboard import render_ascii, render_html
from repro.obs.lifecycle import (
    LifecycleReport,
    LoopLifecycle,
    correlate_lifecycles,
)
from repro.obs.live import LiveMonitor
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    parse_prometheus,
    set_registry,
)
from repro.obs.progress import Heartbeat
from repro.obs.recorder import BoundedBucketSeries, WindowedRecorder
from repro.obs.server import MonitorServer
from repro.obs.tracing import NULL_TRACER, Tracer, read_trace

__all__ = [
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TRACER",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "BoundedBucketSeries",
    "Counter",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "LifecycleReport",
    "LiveMonitor",
    "LoopLifecycle",
    "MetricsRegistry",
    "MonitorServer",
    "Tracer",
    "WindowedRecorder",
    "configure_logging",
    "correlate_lifecycles",
    "default_rules",
    "get_logger",
    "get_registry",
    "parse_prometheus",
    "read_trace",
    "render_ascii",
    "render_html",
    "set_registry",
]
