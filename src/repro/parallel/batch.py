"""Concurrent multi-trace runs.

The paper analyzed four traces (Table I); an operator analyzes one trace
per monitored link direction.  :func:`run_batch` fans whole traces out
over a process pool — each worker simulates (or loads) one trace and
runs the offline detector on it — and aggregates per-trace results into
one report.  Trace-level parallelism is the only kind: one trace runs in
one process, which beat every in-trace split that was measured
(``docs/PERFORMANCE.md``).

Targets are scenario names (``backbone1``..``backbone4``) or pcap file
paths; a path that exists on disk is loaded, anything else must name a
Table I scenario.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.report import format_table
from repro.net.pcap import read_pcap_columnar


class BatchError(ValueError):
    """Raised for invalid batch targets or parameters."""


@dataclass(slots=True)
class BatchItemResult:
    """Aggregated detection outcome for one trace in a batch."""

    name: str
    kind: str  # "scenario" | "pcap"
    records: int = 0
    trace_seconds: float = 0.0
    candidate_streams: int = 0
    validated_streams: int = 0
    loops: int = 0
    looped_packets: int = 0
    wall_seconds: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(slots=True)
class BatchResult:
    """Everything one batch run produced."""

    items: list[BatchItemResult] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0

    @property
    def total_loops(self) -> int:
        return sum(item.loops for item in self.items if item.ok)

    @property
    def total_looped_packets(self) -> int:
        return sum(item.looped_packets for item in self.items if item.ok)

    @property
    def total_records(self) -> int:
        return sum(item.records for item in self.items if item.ok)

    @property
    def failed(self) -> list[BatchItemResult]:
        return [item for item in self.items if not item.ok]

    def render(self) -> str:
        """Table II-style per-trace summary plus batch totals."""
        rows = []
        for item in self.items:
            if item.ok:
                rows.append([
                    item.name, item.records, f"{item.trace_seconds:.1f}",
                    item.candidate_streams, item.validated_streams,
                    item.loops, item.looped_packets,
                    f"{item.wall_seconds:.2f}",
                ])
            else:
                rows.append([item.name, "-", "-", "-", "-", "-", "-",
                             f"error: {item.error}"])
        table = format_table(
            ["Trace", "Records", "Length (s)", "Candidates", "Streams",
             "Loops", "Looped Pkts", "Wall (s)"],
            rows,
            title=f"Batch detection — {len(self.items)} trace(s), "
                  f"{self.jobs} worker(s)",
        )
        totals = (
            f"totals: {self.total_records} records, {self.total_loops} "
            f"loops, {self.total_looped_packets} looped packets in "
            f"{self.wall_seconds:.2f} s"
        )
        return f"{table}\n{totals}"


def _run_batch_target(
    spec: tuple[str, str, DetectorConfig, float | None],
) -> BatchItemResult:
    """Worker entry point: produce one trace and detect loops on it.

    Returns compact counters, not the full result — a worker's
    DetectionResult drags the whole trace through pickling, and the batch
    report only needs Table I/II numbers.  Pcap targets are read with the
    mmap columnar reader; scenario traces are born in memory.
    """
    kind, name, config, duration = spec
    item = BatchItemResult(name=name, kind=kind)
    started = time.perf_counter()
    try:
        if kind == "scenario":
            from repro.sim import table1_scenario

            overrides = {} if duration is None else {"duration": duration}
            trace = table1_scenario(name, **overrides).run().trace
            result = LoopDetector(config).detect(trace)
        else:
            trace = read_pcap_columnar(name, link_name=name)
            result = LoopDetector(config).detect_columnar(trace)
    except Exception as error:  # surface per-trace failures, don't abort
        item.error = f"{type(error).__name__}: {error}"
        item.wall_seconds = time.perf_counter() - started
        return item
    item.records = len(trace)
    item.trace_seconds = trace.duration
    item.candidate_streams = len(result.candidate_streams)
    item.validated_streams = result.stream_count
    item.loops = result.loop_count
    item.looped_packets = result.looped_packet_count
    item.wall_seconds = time.perf_counter() - started
    return item


def classify_target(target: str) -> tuple[str, str]:
    """Map a CLI target to ``(kind, name)``: existing file → pcap,
    otherwise a Table I scenario name."""
    from repro.sim import TABLE1_SCENARIOS

    if Path(target).exists():
        return ("pcap", target)
    if target in TABLE1_SCENARIOS:
        return ("scenario", target)
    raise BatchError(
        f"unknown batch target {target!r}: not a file and not one of "
        f"{sorted(TABLE1_SCENARIOS)}"
    )


def run_batch(
    targets: list[str] | None = None,
    jobs: int = 1,
    config: DetectorConfig | None = None,
    duration: float | None = None,
    progress=None,
) -> BatchResult:
    """Run detection over several traces concurrently.

    ``targets`` defaults to all four Table I scenarios.  ``duration``
    overrides scenario length (ignored for pcap targets).  ``progress``
    is called as ``progress(item)`` with each finished
    :class:`BatchItemResult`, in target order, as results stream in.
    """
    if jobs < 1:
        raise BatchError(f"jobs must be >= 1: {jobs}")
    if targets is None or not targets:
        from repro.sim import TABLE1_SCENARIOS

        targets = list(TABLE1_SCENARIOS)
    config = config or DetectorConfig()
    specs = [
        (*classify_target(target), config, duration)
        for target in targets
    ]
    started = time.perf_counter()
    items: list[BatchItemResult] = []
    if jobs == 1 or len(specs) == 1:
        for spec in specs:
            items.append(_run_batch_target(spec))
            if progress is not None:
                progress(items[-1])
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            for item in pool.map(_run_batch_target, specs):
                items.append(item)
                if progress is not None:
                    progress(item)
    return BatchResult(
        items=items,
        jobs=jobs,
        wall_seconds=time.perf_counter() - started,
    )
