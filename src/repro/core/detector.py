"""The loop detector facade: all three steps behind one call.

    >>> detector = LoopDetector()
    >>> result = detector.detect(trace)
    >>> len(result.loops), result.looped_packet_count

``DetectorConfig`` exposes every knob the paper discusses so ablations
(merge gap, validation on/off, prefix length) are one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.columnar import ColumnarTrace
from repro.net.trace import Trace
from repro.obs.perf import NULL_PROFILE
from repro.core.merge import RoutingLoop, merge_streams
# ``detect_replicas`` is not called here, but the tracing benchmark
# (``perfbench/spans.py``) wraps every step-1 entry point it finds bound
# on this module, so the name stays importable from it.
from repro.core.replica import (  # noqa: F401
    ReplicaScanStats,
    ReplicaStream,
    StreamTable,
    detect_replicas,
    detect_replicas_with_kernel,
)
from repro.core.streams import PrefixIndex, ValidationResult, validate_streams


class DetectorError(ValueError):
    """Raised for invalid detector configuration."""


@dataclass(slots=True, frozen=True)
class DetectorConfig:
    """Tunable parameters of the detection pipeline.

    Defaults are the paper's choices: TTL delta >= 2, streams of >= 3
    replicas, /24 validation granularity, 60-second merge gap.
    """

    min_ttl_delta: int = 2
    max_replica_gap: float = 5.0
    min_stream_size: int = 3
    prefix_length: int = 24
    check_prefix_consistency: bool = True
    merge_gap: float = 60.0
    check_gap_consistency: bool = True
    eviction_interval: int = 100_000

    def __post_init__(self) -> None:
        if self.min_ttl_delta < 1:
            raise DetectorError("min_ttl_delta must be >= 1")
        if self.min_stream_size < 2:
            raise DetectorError("min_stream_size must be >= 2")
        if not 8 <= self.prefix_length <= 32:
            raise DetectorError("prefix_length must be in [8, 32]")
        if self.max_replica_gap <= 0:
            raise DetectorError("max_replica_gap must be positive")
        if self.merge_gap < 0:
            raise DetectorError("merge_gap must be non-negative")
        if self.eviction_interval < 0:
            raise DetectorError("eviction_interval must be >= 0 (0: never)")


@dataclass(slots=True)
class DetectionResult:
    """Everything the pipeline produced for one trace.

    ``candidate_streams`` (step 1's :class:`StreamTable`) and
    ``validation.valid`` are read-only sequences of
    :class:`ReplicaStream` over the candidates' columns: they support
    ``len()``, iteration and indexing, and a stream is built on first
    access.
    """

    trace: Trace
    config: DetectorConfig
    candidate_streams: StreamTable
    validation: ValidationResult
    loops: list[RoutingLoop]
    scan_stats: ReplicaScanStats

    @property
    def streams(self):
        """The validated replica streams (Table II's first column)."""
        return self.validation.valid

    @property
    def stream_count(self) -> int:
        return len(self.validation.valid)

    @property
    def loop_count(self) -> int:
        """Detected routing loops (Table II's second column)."""
        return len(self.loops)

    @property
    def looped_packet_count(self) -> int:
        """Unique packets caught in loops (Table I's last column): one per
        validated replica stream, since each stream is one packet."""
        return len(self.validation.valid)

    @property
    def looped_record_count(self) -> int:
        """Trace records that are replicas of validated streams."""
        return int(self.validation.valid.size.sum())


class LoopDetector:
    """Runs detect → validate → merge over a trace.

    ``profile`` (default: the shared null profile) times each pipeline
    stage — ``detect.replicas``, ``detect.index``, ``detect.validate``,
    ``detect.merge`` —
    as one :class:`~repro.obs.perf.PipelineProfile` span, which also
    feeds the profile's registry and, when it has an enabled tracer, a
    ``clock="wall"`` trace span; detected loops go to ``profile.tracer``
    as trace-time ``loop`` spans.  None of it changes the result: the
    spans wrap the exact same calls.
    """

    def __init__(self, config: DetectorConfig | None = None,
                 profile=NULL_PROFILE) -> None:
        self.config = config or DetectorConfig()
        self.profile = profile

    def detect(self, trace: Trace) -> DetectionResult:
        """Run the full pipeline on a materialized ``trace``.

        The trace enters the columnar pipeline through
        :meth:`~repro.net.columnar.ColumnarTrace.from_trace`;
        ``result.trace`` is ``trace`` itself.
        """
        result = self.detect_columnar(ColumnarTrace.from_trace(trace))
        result.trace = trace
        return result

    def detect_columnar(self, ctrace) -> DetectionResult:
        """Run the full pipeline over a columnar trace.

        Step 1 runs the vectorized kernel, which hands steps 2 and 3 a
        :class:`StreamTable`; the prefix index is built straight off the
        data slabs.  ``result.trace`` is the
        :class:`~repro.net.columnar.ColumnarTrace` itself, which carries
        the summary surface (record count, duration, bandwidth) the
        reports need.
        """
        config = self.config
        profile = self.profile
        scan_stats = ReplicaScanStats()
        with profile.stage("detect.replicas") as stage:
            candidates = detect_replicas_with_kernel(
                ctrace,
                min_ttl_delta=config.min_ttl_delta,
                max_replica_gap=config.max_replica_gap,
                eviction_interval=config.eviction_interval,
                stats=scan_stats,
            )
            stage.add(records=scan_stats.records_scanned)
            stage.note(candidates=len(candidates))
        prefix_index = None
        if config.check_prefix_consistency or config.check_gap_consistency:
            with profile.stage("detect.index") as stage:
                prefix_index = PrefixIndex(prefix_length=config.prefix_length)
                for chunk in ctrace.chunks:
                    prefix_index.add_chunk(chunk)
                stage.add(records=prefix_index.indexed)
        empty = Trace()
        with profile.stage("detect.validate") as stage:
            validation = validate_streams(
                candidates,
                empty,
                min_stream_size=config.min_stream_size,
                prefix_length=config.prefix_length,
                check_prefix_consistency=config.check_prefix_consistency,
                prefix_index=prefix_index,
            )
            stage.note(valid=len(validation.valid))
        with profile.stage("detect.merge") as stage:
            loops = merge_streams(
                validation.valid,
                empty,
                merge_gap=config.merge_gap,
                prefix_length=config.prefix_length,
                check_gap_consistency=config.check_gap_consistency,
                prefix_index=prefix_index,
                members=validation.members,
            )
            stage.note(loops=len(loops))
        tracer = profile.tracer
        if tracer.enabled:
            for loop in loops:
                tracer.span("loop", loop.start, loop.end,
                            prefix=str(loop.prefix),
                            streams=loop.stream_count)
        return DetectionResult(
            trace=ctrace,
            config=config,
            candidate_streams=candidates,
            validation=validation,
            loops=loops,
            scan_stats=scan_stats,
        )
