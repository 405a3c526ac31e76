"""Command-line interface.

Subcommands::

    repro-loops detect <trace.pcap>        # run the detector on a pcap
    repro-loops batch [targets...]         # several traces concurrently
    repro-loops simulate <scenario>        # run a Table I scenario
    repro-loops report <scenario>          # scenario + full figure report
    repro-loops monitor <trace.pcap>       # stream + live scrape endpoint
    repro-loops fleet <fleet.toml>         # multi-link monitoring daemon
    repro-loops perf compare A.json B.json # diff two benchmark runs

``python -m repro`` is equivalent.

Observability flags shared by ``detect``, ``batch``, ``simulate``,
``report``, and ``monitor``: ``--metrics-out`` (Prometheus text, or
JSON for ``.json`` paths), ``--trace-out`` (JSONL span/event trace),
``--progress`` (heartbeat logging for long runs), ``--sample-profile``
(collapsed-stack sampling profiler output), ``--log-level``, and
the live-monitoring trio — ``--serve PORT`` (background ``/metrics``,
``/healthz``, ``/state`` and dashboard endpoint), ``--alerts``
(paper-grounded alert rules on window boundaries), and
``--dashboard-out FILE`` (self-contained HTML dashboard written on
exit).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.core.analysis import (
    loop_duration_cdf,
    looped_traffic_type_distribution,
    spacing_cdf,
    stream_duration_cdf,
    stream_size_cdf,
    traffic_type_distribution,
    ttl_delta_distribution,
)
from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.impact import escape_analysis
from repro.core.report import (
    render_cdf,
    render_destination_classes,
    render_distribution,
    render_summary,
    render_traffic_types,
)
from repro.net.columnar import ColumnarTrace
from repro.net.pcap import read_pcap, read_pcap_columnar, write_pcap
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.progress import Heartbeat, enable_progress_logging
from repro.obs.tracing import NULL_TRACER, Tracer

_logger = get_logger("cli")


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached via ``parents=``."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write final metrics to FILE on exit "
                            "(.json suffix: JSON snapshot, otherwise "
                            "Prometheus text format)")
    group.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write a JSONL span/event trace to FILE")
    group.add_argument("--sample-profile", default=None, metavar="FILE",
                       help="run a ~100 Hz sampling stack profiler for "
                            "the whole command and write collapsed "
                            "stacks (flamegraph.pl / speedscope input) "
                            "to FILE on exit")
    group.add_argument("--progress", action="store_true",
                       help="log heartbeat progress during long stages")
    group.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error"),
                       help="logging verbosity (default: warning)")
    live = parent.add_argument_group("live monitoring")
    live.add_argument("--serve", type=int, default=None, metavar="PORT",
                      help="serve /metrics, /healthz, /state and the "
                           "dashboard on 127.0.0.1:PORT while running "
                           "(0 = ephemeral port)")
    live.add_argument("--alerts", action="store_true",
                      help="evaluate the paper-grounded alert rules on "
                           "window boundaries and log fired alerts")
    live.add_argument("--dashboard-out", default=None, metavar="FILE",
                      help="write the self-contained HTML dashboard to "
                           "FILE on exit")
    return parent


class _Obs:
    """Per-invocation observability wiring from the shared CLI flags.

    Installs an enabled :class:`MetricsRegistry` as the process registry
    when metrics will be exported (``--metrics-out``, ``--json``, or any
    live-monitoring flag), opens the ``--trace-out`` sink, and undoes
    both in :meth:`finish` — so unit tests that call :func:`main`
    repeatedly never leak registry state.

    The live-monitoring flags (``--serve``, ``--alerts``,
    ``--dashboard-out``) additionally create a
    :class:`~repro.obs.live.LiveMonitor` (``self.monitor``) for the
    command to feed, and — under ``--serve`` — start the background
    scrape server before any work begins.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.metrics_out = getattr(args, "metrics_out", None)
        self.trace_out = getattr(args, "trace_out", None)
        self.progress = bool(getattr(args, "progress", False))
        self.serve = getattr(args, "serve", None)
        self.dashboard_out = getattr(args, "dashboard_out", None)
        monitoring = (self.serve is not None
                      or bool(getattr(args, "alerts", False))
                      or bool(self.dashboard_out)
                      or bool(getattr(args, "force_monitor", False)))
        self._previous_registry = None
        self.registry = MetricsRegistry(enabled=False)
        if self.metrics_out or getattr(args, "json", False) or monitoring:
            self.registry = MetricsRegistry(enabled=True)
            self._previous_registry = set_registry(self.registry)
        self._sink = None
        self.tracer = NULL_TRACER
        if self.trace_out:
            self._sink = open(self.trace_out, "w", encoding="utf-8")
            self.tracer = Tracer(sink=self._sink)
        self.sample_profile = getattr(args, "sample_profile", None)
        self._profiler = None
        if self.sample_profile:
            from repro.obs.perf import SamplingProfiler

            self._profiler = SamplingProfiler()
            self._profiler.start()
        if self.progress:
            enable_progress_logging()
        self.monitor = None
        self.server = None
        if monitoring:
            from repro.obs.dashboard import render_html
            from repro.obs.live import LiveMonitor

            self.monitor = LiveMonitor(registry=self.registry,
                                       tracer=self.tracer)
            if self.serve is not None:
                from repro.obs.server import MonitorServer

                monitor = self.monitor
                self.server = MonitorServer(
                    monitor, port=self.serve,
                    dashboard_renderer=lambda: render_html(monitor),
                ).start()

    def heartbeat(self, label: str) -> Heartbeat | None:
        """A rate-limited progress callable, or None without --progress."""
        if not self.progress:
            return None
        return Heartbeat(label)

    def metrics_snapshot(self) -> dict:
        self.registry.collect()
        return self.registry.snapshot()

    def feed_monitor(self, trace=None, loops=()) -> None:
        """Post-hoc monitor feed for commands whose detection path is
        not incremental (offline / simulate): replay record
        timestamps and emitted loops into the live monitor, then close
        its final window."""
        if self.monitor is None:
            return
        if trace is not None:
            if hasattr(trace, "iter_timestamps"):
                # Columnar traces expose timestamps straight off the
                # columns — no record objects needed.
                for timestamp in trace.iter_timestamps():
                    self.monitor.observe_record(timestamp)
            else:
                for record in trace:
                    self.monitor.observe_record(record.timestamp)
        for loop in loops:
            self.monitor.observe_loop(loop)
        self.monitor.finish()

    def write_dashboard(self) -> None:
        """Write --dashboard-out now.  Called as soon as the monitored
        stream finishes (so a killed --linger run still leaves the file
        behind) and again from :meth:`finish` as a safety net — the
        second write renders the same finished monitor."""
        if self.monitor is None or not self.dashboard_out:
            return
        from repro.obs.dashboard import render_html

        with open(self.dashboard_out, "w", encoding="utf-8") as stream:
            stream.write(render_html(self.monitor))
        _logger.info("dashboard written to %s", self.dashboard_out)

    def finish(self) -> None:
        if self._profiler is not None:
            self._profiler.stop()
            self._profiler.write(self.sample_profile)
            _logger.info("sampling profile (%d samples) written to %s",
                         self._profiler.sample_count, self.sample_profile)
            self._profiler = None
        if self.monitor is not None:
            self.monitor.finish()
            self.write_dashboard()
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.registry.collect()
        if self.metrics_out:
            if str(self.metrics_out).endswith(".json"):
                text = self.registry.to_json()
            else:
                text = self.registry.render_prometheus()
            with open(self.metrics_out, "w", encoding="utf-8") as stream:
                stream.write(text)
            _logger.info("metrics written to %s", self.metrics_out)
        if self.tracer is not NULL_TRACER:
            self.tracer.close()
        if self._sink is not None:
            self._sink.close()
            _logger.info("trace written to %s", self.trace_out)
        if self._previous_registry is not None:
            set_registry(self._previous_registry)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loops",
        description="Routing-loop detection in packet traces (IMC 2002 "
                    "reproduction)",
    )
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", parents=[obs],
                            help="detect loops in a pcap trace")
    detect.add_argument("trace", help="pcap file to analyze")
    detect.add_argument("--merge-gap", type=float, default=60.0,
                        help="stream merge gap in seconds (default 60)")
    detect.add_argument("--min-stream-size", type=int, default=3,
                        help="minimum replicas per stream (default 3)")
    detect.add_argument("--prefix-length", type=int, default=24,
                        help="validation prefix length (default 24)")
    detect.add_argument("--no-validate", action="store_true",
                        help="skip the prefix-consistency validation")
    detect.add_argument("--figures", action="store_true",
                        help="also print the per-figure statistics")
    detect.add_argument("--json", action="store_true",
                        help="emit the detection result as JSON")
    detect.add_argument("--streaming", action="store_true",
                        help="use the online (streaming) detector")

    batch = sub.add_parser(
        "batch", parents=[obs],
        help="run detection over several traces concurrently",
    )
    batch.add_argument("targets", nargs="*",
                       help="pcap files and/or Table I scenario names "
                            "(default: all four scenarios)")
    batch.add_argument("--jobs", type=int, default=1,
                       help="concurrent trace workers (default 1)")
    batch.add_argument("--duration", type=float, default=None,
                       help="override scenario duration in seconds")
    batch.add_argument("--merge-gap", type=float, default=60.0,
                       help="stream merge gap in seconds (default 60)")
    batch.add_argument("--min-stream-size", type=int, default=3,
                       help="minimum replicas per stream (default 3)")

    simulate = sub.add_parser(
        "simulate", parents=[obs],
        help="run a Table I backbone scenario",
    )
    simulate.add_argument("scenario", help="scenario name (backbone1..4)")
    simulate.add_argument("--duration", type=float, default=None,
                          help="override scenario duration in seconds")
    simulate.add_argument("--pcap", default=None,
                          help="write the monitor trace to this pcap file")
    simulate.add_argument("--json", action="store_true",
                          help="emit the detection result (plus ground "
                               "truth, route-cache and metrics sections) "
                               "as JSON")
    simulate.add_argument("--no-route-cache", action="store_true",
                          help="disable the forwarding engine's "
                               "resolved-route cache (slow reference "
                               "path; identical output)")

    report = sub.add_parser(
        "report", parents=[obs],
        help="scenario run + full per-figure report",
    )
    report.add_argument("scenario", help="scenario name (backbone1..4)")
    report.add_argument("--duration", type=float, default=None,
                        help="override scenario duration in seconds")
    report.add_argument("--no-route-cache", action="store_true",
                        help="disable the forwarding engine's "
                             "resolved-route cache")

    monitor = sub.add_parser(
        "monitor", parents=[obs],
        help="stream a pcap through the online detector with live "
             "monitoring (alerts, windows, scrape endpoint)",
    )
    monitor.add_argument("trace", help="pcap file to stream")
    monitor.add_argument("--merge-gap", type=float, default=60.0,
                         help="stream merge gap in seconds (default 60)")
    monitor.add_argument("--min-stream-size", type=int, default=3,
                         help="minimum replicas per stream (default 3)")
    monitor.add_argument("--prefix-length", type=int, default=24,
                         help="validation prefix length (default 24)")
    monitor.add_argument("--no-validate", action="store_true",
                         help="skip the prefix-consistency validation")
    monitor.add_argument("--linger", type=float, default=0.0,
                         metavar="SECONDS",
                         help="keep serving for SECONDS after the trace "
                              "ends (with --serve; default 0)")
    monitor.add_argument("--no-dashboard", action="store_true",
                         help="skip the ASCII dashboard on stdout")
    monitor.set_defaults(force_monitor=True)

    fleet = sub.add_parser(
        "fleet",
        help="run the fleet monitoring daemon: N supervised link "
             "pipelines plus the fleet-wide HTTP API",
    )
    fleet.add_argument("config",
                       help="fleet config file (.toml on Python >= "
                            "3.11, or the same structure as JSON)")
    fleet.add_argument("--serve", type=int, default=None, metavar="PORT",
                       help="override the configured API port "
                            "(0 = ephemeral)")
    fleet.add_argument("--run-for", type=float, default=None,
                       metavar="SECONDS",
                       help="stop the fleet after SECONDS (default: "
                            "run until every source finishes, or "
                            "forever for watch sources)")
    fleet.add_argument("--summary-json", default=None, metavar="FILE",
                       help="write the final /links document to FILE "
                            "on exit")
    fleet.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error"),
                       help="logging verbosity (default: warning)")

    perf = sub.add_parser(
        "perf",
        help="benchmark-provenance utilities (compare BENCH_*.json runs)",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    compare = perf_sub.add_parser(
        "compare",
        help="diff two benchmark documents; exit 1 on regression "
             "beyond --threshold, 2 on schema mismatch",
    )
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("current", help="current BENCH_*.json")
    compare.add_argument("--threshold", type=float, default=0.1,
                         help="fractional regression threshold "
                              "(default 0.1 = 10%%)")

    anonymize = sub.add_parser(
        "anonymize",
        help="prefix-preserving anonymization of a pcap trace",
    )
    anonymize.add_argument("trace", help="input pcap")
    anonymize.add_argument("output", help="output pcap")
    anonymize.add_argument("--key", required=True,
                           help="secret key (>= 16 characters)")
    return parser


def _detector_from_args(args: argparse.Namespace,
                        tracer=NULL_TRACER) -> LoopDetector:
    config = DetectorConfig(
        merge_gap=args.merge_gap,
        min_stream_size=args.min_stream_size,
        prefix_length=args.prefix_length,
        check_prefix_consistency=not args.no_validate,
        check_gap_consistency=not args.no_validate,
    )
    return LoopDetector(config, tracer=tracer)


def _read_trace_file(path: str, obs: _Obs, link_name: str = ""):
    heartbeat = obs.heartbeat(f"read {path}")
    trace = read_pcap_columnar(path, link_name=link_name,
                               progress=heartbeat)
    if heartbeat is not None:
        heartbeat.done()
    return trace


def _print_figures(result) -> None:
    streams = result.streams
    print()
    print(render_distribution(
        ttl_delta_distribution(streams), "Figure 2 — TTL delta distribution"
    ))
    print()
    print(render_cdf(stream_size_cdf(streams),
                     "Figure 3 — replicas per stream", unit="",
                     plot=True))
    print()
    print(render_cdf(spacing_cdf(streams),
                     "Figure 4 — inter-replica spacing", unit=" s",
                     plot=True, log_x=True))
    print()
    print(render_traffic_types(
        traffic_type_distribution(result.trace),
        "Figure 5 — traffic types, all traffic",
    ))
    print()
    print(render_traffic_types(
        looped_traffic_type_distribution(streams),
        "Figure 6 — traffic types, looped traffic",
    ))
    print()
    print(render_destination_classes(result))
    from repro.core.report import render_figure7_scatter

    print()
    print(render_figure7_scatter(result))
    print()
    print(render_cdf(stream_duration_cdf(streams),
                     "Figure 8 — replica stream duration", unit=" s",
                     plot=True, log_x=True))
    print()
    print(render_cdf(loop_duration_cdf(result.loops),
                     "Figure 9 — routing loop duration", unit=" s",
                     plot=True))
    escapes = escape_analysis(streams)
    print()
    print(f"escape analysis: {escapes.escaped}/{escapes.total_streams} "
          f"streams escaped ({escapes.escape_fraction:.1%})")


def _json_extras(obs: _Obs) -> dict:
    return {"metrics": obs.metrics_snapshot()}


def _publish_result_metrics(obs: _Obs, result) -> None:
    """Offline detection results have no live object to pull from, so
    the CLI publishes the summary counters directly."""
    registry = obs.registry
    registry.counter("detect_records_total",
                     "Trace records analyzed").set(len(result.trace))
    registry.counter("detect_candidate_streams_total",
                     "Candidate replica streams before validation"
                     ).set(len(result.candidate_streams))
    registry.counter("detect_validated_streams_total",
                     "Replica streams surviving validation"
                     ).set(result.stream_count)
    registry.counter("detect_loops_total",
                     "Routing loops detected").set(result.loop_count)
    registry.counter("detect_looped_packets_total",
                     "Distinct packets caught in loops"
                     ).set(result.looped_packet_count)
    registry.counter("detect_records_skipped_short_total",
                     "Records below the minimum capture length"
                     ).set(result.scan_stats.records_skipped_short)


def _stream_with_monitor(streaming, trace, monitor):
    """Drive the streaming detector with the live monitor attached,
    feeding it chunk by chunk as loops close and sampling its windows on
    second boundaries — identical output to :meth:`process_trace`,
    observable while it runs (the fleet daemon's per-link pipelines run
    the same helpers batch by batch).  A materialized trace is converted
    with :meth:`~repro.net.columnar.ColumnarTrace.from_trace` first."""
    from repro.obs.live import attach_detector, feed_chunk

    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_trace(trace)
    attach_detector(monitor, streaming)
    loops = []
    for chunk in trace.chunks:
        loops.extend(feed_chunk(streaming, monitor, chunk))
    loops.extend(streaming.flush())
    monitor.finish()
    return loops


def _cmd_detect(args: argparse.Namespace) -> int:
    obs = _Obs(args)
    try:
        detector = _detector_from_args(args, tracer=obs.tracer)
        if args.streaming:
            from repro.core.streaming import StreamingLoopDetector

            streaming = StreamingLoopDetector(detector.config,
                                              tracer=obs.tracer)
            streaming.register_metrics(obs.registry)
            trace = _read_trace_file(args.trace, obs)
            if obs.monitor is not None:
                loops = _stream_with_monitor(streaming, trace,
                                             obs.monitor)
            else:
                loops = streaming.process_trace(trace)
            print(f"records: {streaming.stats.records}")
            print(f"streams completed: {streaming.stats.streams_completed}")
            print(f"routing loops: {len(loops)}")
            for loop in loops:
                print(f"  {loop.prefix}  {loop.start:.3f}..{loop.end:.3f}s  "
                      f"delta={loop.ttl_delta} "
                      f"replicas={loop.replica_count}")
            return 0
        trace = _read_trace_file(args.trace, obs)
        result = detector.detect_columnar(trace)
        if args.figures or args.json:
            result.trace = trace.to_trace()
        _publish_result_metrics(obs, result)
        obs.feed_monitor(trace, result.loops)
        if args.json:
            from repro.core.serialize import result_to_json

            print(result_to_json(result, extras=_json_extras(obs)))
            return 0
        print(render_summary(result))
        if args.figures:
            _print_figures(result)
        return 0
    finally:
        obs.finish()


def _batch_progress():
    logger = get_logger("progress")
    done = [0]

    def tick(item) -> None:
        done[0] += 1
        if item.ok:
            logger.info("batch %d: %s — %d records, %d loops in %.2fs",
                        done[0], item.name, item.records, item.loops,
                        item.wall_seconds)
        else:
            logger.info("batch %d: %s — failed: %s",
                        done[0], item.name, item.error)

    return tick


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.parallel import run_batch

    obs = _Obs(args)
    try:
        config = DetectorConfig(
            merge_gap=args.merge_gap,
            min_stream_size=args.min_stream_size,
        )
        result = run_batch(
            targets=args.targets or None,
            jobs=args.jobs,
            config=config,
            duration=args.duration,
            progress=_batch_progress() if obs.progress else None,
        )
        print(result.render())
        return 1 if result.failed else 0
    finally:
        obs.finish()


def _sim_progress(name: str, duration: float):
    logger = get_logger("progress")

    def tick(now: float) -> None:
        if now <= duration:
            logger.info("simulate %s: t=%.1f/%.1fs", name, now, duration)
        else:
            logger.info("simulate %s: draining, t=%.1fs", name, now)

    return tick


def _run_scenario(name: str, duration: float | None,
                  route_cache: bool = True, tracer=None,
                  progress: bool = False, live_monitor=None):
    from repro.sim import table1_scenario

    overrides = {}
    if duration is not None:
        overrides["duration"] = duration
    if not route_cache:
        overrides["route_cache"] = False
    scenario = table1_scenario(name, **overrides)
    tick = None
    if progress:
        tick = _sim_progress(name, scenario.config.duration)
    return scenario.run(tracer=tracer, progress=tick,
                        live_monitor=live_monitor)


def _render_cache_stats(engine) -> str:
    stats = engine.route_cache_stats()
    if not stats["enabled"]:
        return "route cache: disabled (reference path)"
    return (f"route cache: {stats['hits']} hits / {stats['misses']} misses "
            f"/ {stats['invalidations']} invalidations "
            f"(hit rate {stats['hit_rate']:.1%})")


def _scenario_pipeline(args: argparse.Namespace, obs: _Obs):
    """Run a scenario and detect loops on its trace, fully instrumented.

    Returns ``(run, result, lifecycle)``; ``lifecycle`` is None unless a
    trace was recorded.  The control plane logs in *simulation* time (the
    backbone re-clocks the tracer); before detection the tracer is put
    back on the wall clock so pipeline phase spans stay meaningful.
    """
    run = _run_scenario(args.scenario, args.duration,
                        route_cache=not args.no_route_cache,
                        tracer=obs.tracer if obs.tracer.enabled else None,
                        progress=obs.progress,
                        live_monitor=obs.monitor)
    run.engine.register_metrics(obs.registry)
    run.monitor.register_metrics(obs.registry)
    tracer = obs.tracer
    if tracer.enabled:
        tracer.clock = time.perf_counter
    result = LoopDetector(tracer=tracer).detect(run.trace)
    _publish_result_metrics(obs, result)
    lifecycle = None
    if tracer.enabled:
        from repro.obs.lifecycle import correlate_lifecycles

        lifecycle = correlate_lifecycles(tracer.records, result.loops)
    if obs.monitor is not None:
        # Records streamed in during the run; loops come from the
        # post-run detection pass.
        if lifecycle is not None:
            obs.monitor.add_state_source("lifecycle", lifecycle.to_dict)
        obs.feed_monitor(None, result.loops)
    return run, result, lifecycle


def _cmd_simulate(args: argparse.Namespace) -> int:
    obs = _Obs(args)
    try:
        run, result, lifecycle = _scenario_pipeline(args, obs)
        if args.json:
            from repro.core.serialize import result_to_json

            extras = {
                "ground_truth": {
                    "looped_packets": run.ground_truth_looped,
                    "ttl_expiries": run.ground_truth_expired,
                },
                "route_cache": run.engine.route_cache_stats(),
                "metrics": obs.metrics_snapshot(),
            }
            if lifecycle is not None:
                extras["lifecycle"] = lifecycle.to_dict()
            print(result_to_json(result, extras=extras))
        else:
            print(render_summary(result))
            print(f"ground-truth looped packets (AS-wide): "
                  f"{run.ground_truth_looped}")
            print(f"ground-truth TTL expiries: {run.ground_truth_expired}")
            print(_render_cache_stats(run.engine))
            if lifecycle is not None:
                print()
                print(lifecycle.render())
        if args.pcap:
            write_pcap(run.trace, args.pcap)
            if args.json:
                _logger.info("trace written to %s", args.pcap)
            else:
                print(f"trace written to {args.pcap}")
        return 0
    finally:
        obs.finish()


def _cmd_report(args: argparse.Namespace) -> int:
    obs = _Obs(args)
    try:
        run, result, lifecycle = _scenario_pipeline(args, obs)
        print(render_summary(result))
        print(_render_cache_stats(run.engine))
        if lifecycle is not None:
            print()
            print(lifecycle.render())
        _print_figures(result)
        return 0
    finally:
        obs.finish()


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.streaming import StreamingLoopDetector

    obs = _Obs(args)
    try:
        config = DetectorConfig(
            merge_gap=args.merge_gap,
            min_stream_size=args.min_stream_size,
            prefix_length=args.prefix_length,
            check_prefix_consistency=not args.no_validate,
            check_gap_consistency=not args.no_validate,
        )
        streaming = StreamingLoopDetector(config, tracer=obs.tracer)
        streaming.register_metrics(obs.registry)
        if obs.server is not None:
            print(f"monitoring endpoints at {obs.server.url}",
                  flush=True)
        trace = read_pcap_columnar(args.trace)
        loops = _stream_with_monitor(streaming, trace, obs.monitor)
        obs.write_dashboard()
        if not args.no_dashboard:
            from repro.obs.dashboard import render_ascii

            print(render_ascii(obs.monitor), end="")
        else:
            print(f"records: {streaming.stats.records}")
            print(f"routing loops: {len(loops)}")
            print(f"alerts: {len(obs.monitor.alerts.history)}")
        if obs.server is not None and args.linger > 0:
            _logger.info("serving for another %.0fs", args.linger)
            time.sleep(args.linger)
        return 0
    finally:
        obs.finish()


def _cmd_fleet(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.fleet import FleetConfig, FleetServer, build_supervisor

    config = FleetConfig.load(args.config)
    supervisor = build_supervisor(config)
    port = config.port if args.serve is None else args.serve
    server = FleetServer(supervisor, host=config.host, port=port)
    server.start()
    print(f"fleet endpoints at {server.url}", flush=True)

    async def _run_until_signalled() -> None:
        # SIGTERM must stop the daemon as cleanly as Ctrl-C — CI and
        # process managers send it — and background processes in
        # non-interactive shells ignore SIGINT entirely.
        import signal

        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, supervisor.shutdown)
            except (NotImplementedError, RuntimeError):
                continue  # non-unix / nested loop: KeyboardInterrupt path
            installed.append(signum)
        try:
            await supervisor.run(run_for=args.run_for)
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    try:
        try:
            asyncio.run(_run_until_signalled())
        except KeyboardInterrupt:
            _logger.info("interrupted; stopping fleet")
        snapshot = supervisor.snapshot()
        if args.summary_json:
            with open(args.summary_json, "w", encoding="utf-8") as stream:
                json.dump(snapshot, stream, sort_keys=True, indent=2)
            _logger.info("fleet summary written to %s", args.summary_json)
        for row in snapshot["links"]:
            print(f"link {row['id']}: {row['state']} "
                  f"records={row['records']} loops={row['loops']} "
                  f"crashes={row['crashes_total']} "
                  f"restarts={row['restarts_total']}")
        return 0
    finally:
        server.stop()


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.obs.perf import BenchSchemaError, render_comparison

    # Schema problems are exit 2 so CI can distinguish "benchmark got
    # slower" (1, warn) from "documents don't line up" (2, hard fail).
    # Caught here rather than raised: main() maps ValueError to 1.
    try:
        return render_comparison(args.baseline, args.current,
                                 threshold=args.threshold)
    except BenchSchemaError as error:
        _logger.error("%s", error)
        return 2


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.net.anonymize import PrefixPreservingAnonymizer

    trace = read_pcap(args.trace)
    anonymizer = PrefixPreservingAnonymizer(args.key.encode())
    write_pcap(anonymizer.anonymize_trace(trace), args.output)
    print(f"{len(trace)} records anonymized -> {args.output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "warning"))
    handlers = {
        "detect": _cmd_detect,
        "batch": _cmd_batch,
        "simulate": _cmd_simulate,
        "report": _cmd_report,
        "monitor": _cmd_monitor,
        "fleet": _cmd_fleet,
        "perf": _cmd_perf,
        "anonymize": _cmd_anonymize,
    }
    handler = handlers[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, KeyError, ValueError, OSError) as error:
        _logger.error("%s", error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
