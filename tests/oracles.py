"""Reference implementations the product pipeline is tested against.

:func:`detect_replicas_indexed` is the paper's step 1 written as plainly
as possible: one pass over ``(index, timestamp, data)`` triples, one
masked ``bytes`` key per record, dictionary chaining.  The product
kernels (:func:`~repro.core.replica.detect_replicas_columnar` and
:func:`~repro.core.replica.detect_replicas_vectorized`) must return
byte-identical streams and scan stats on every input; the equivalence
and hypothesis suites compare them against this oracle.

:func:`reference_detect` runs the oracle step 1 followed by the
product's steps 2 and 3 over a materialized trace, for whole-pipeline
comparisons (library, parallel engine, CLI).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.detector import DetectionResult, DetectorConfig
from repro.core.merge import merge_streams
from repro.core.replica import (
    _MIN_CAPTURE,
    _TTL_OFFSET,
    Replica,
    ReplicaError,
    ReplicaScanStats,
    ReplicaStream,
    _finalize,
    _OpenStream,
    mask_mutable_fields,
    stream_sort_key,
)
from repro.core.streams import PrefixIndex, validate_streams
from repro.net.trace import Trace


def detect_replicas_indexed(
    records: Iterable[tuple[int, float, bytes]],
    min_ttl_delta: int = 2,
    max_replica_gap: float = 5.0,
    eviction_interval: int = 100_000,
    stats: ReplicaScanStats | None = None,
) -> list[ReplicaStream]:
    """Replica detection over ``(index, timestamp, data)`` triples.

    The indices are carried through to the resulting streams untouched, so
    a caller may feed a *subset* of a trace's records (with their original
    global indices) and get streams whose ``member_indices`` line up with
    the full trace.  This is what makes exact sharding possible: all
    chaining state is keyed by the masked-packet key, so any partition
    that keeps each key's records together — in time order — produces the
    same streams as one pass over everything.

    Eviction runs on the local scan position, not the carried index; it
    only discards state that could never chain again (older than the
    chaining gap), so its cadence never changes the result.
    """
    if min_ttl_delta < 1:
        raise ReplicaError(f"min_ttl_delta must be >= 1: {min_ttl_delta}")
    if max_replica_gap <= 0:
        raise ReplicaError(f"max_replica_gap must be positive: {max_replica_gap}")

    stats = stats if stats is not None else ReplicaScanStats()
    # key -> most recent singleton observation (index, timestamp, ttl, data)
    singletons: dict[bytes, tuple[int, float, int, bytes]] = {}
    # key -> open multi-replica streams for that key (usually one)
    open_streams: dict[bytes, list[_OpenStream]] = {}
    finished: list[ReplicaStream] = []

    def close_stream(stream: _OpenStream) -> None:
        finished.append(_finalize(stream))

    for position, (index, timestamp, data) in enumerate(records):
        stats.records_scanned += 1
        if len(data) < _MIN_CAPTURE:
            stats.records_skipped_short += 1
            continue
        key = mask_mutable_fields(data)
        ttl = data[_TTL_OFFSET]

        streams = open_streams.get(key)
        if streams is not None:
            attached = False
            for stream in reversed(streams):
                last = stream.last
                if (last.ttl - ttl >= min_ttl_delta
                        and timestamp - last.timestamp <= max_replica_gap):
                    stream.replicas.append(
                        Replica(index=index, timestamp=timestamp, ttl=ttl)
                    )
                    attached = True
                    break
            if attached:
                continue

        previous = singletons.get(key)
        if previous is not None:
            prev_index, prev_time, prev_ttl, prev_data = previous
            if (prev_ttl - ttl >= min_ttl_delta
                    and timestamp - prev_time <= max_replica_gap):
                stream = _OpenStream(
                    key=key,
                    first_data=prev_data,
                    replicas=[
                        Replica(index=prev_index, timestamp=prev_time,
                                ttl=prev_ttl),
                        Replica(index=index, timestamp=timestamp, ttl=ttl),
                    ],
                )
                open_streams.setdefault(key, []).append(stream)
                del singletons[key]
                continue
        singletons[key] = (index, timestamp, ttl, data)

        if eviction_interval and position and position % eviction_interval == 0:
            horizon = timestamp - max_replica_gap
            stale = [k for k, (_, t, _, _) in singletons.items() if t < horizon]
            for k in stale:
                del singletons[k]
            stats.singletons_evicted += len(stale)
            for k in list(open_streams):
                remaining = []
                for stream in open_streams[k]:
                    if stream.last.timestamp < horizon:
                        close_stream(stream)
                    else:
                        remaining.append(stream)
                if remaining:
                    open_streams[k] = remaining
                else:
                    del open_streams[k]

    for streams in open_streams.values():
        for stream in streams:
            close_stream(stream)

    finished.sort(key=stream_sort_key)
    stats.candidate_streams = len(finished)
    return finished


def reference_replicas(trace: Trace, **kwargs) -> list[ReplicaStream]:
    """The oracle step 1 over every record of a materialized trace."""
    return detect_replicas_indexed(
        ((index, record.timestamp, record.data)
         for index, record in enumerate(trace.records)),
        **kwargs,
    )


def reference_detect(trace: Trace,
                     config: DetectorConfig | None = None) -> DetectionResult:
    """Oracle step 1, then :func:`validate_streams` and
    :func:`merge_streams` — what :meth:`LoopDetector.detect` must return
    on ``trace``."""
    config = config or DetectorConfig()
    scan_stats = ReplicaScanStats()
    candidates = reference_replicas(
        trace,
        min_ttl_delta=config.min_ttl_delta,
        max_replica_gap=config.max_replica_gap,
        eviction_interval=config.eviction_interval,
        stats=scan_stats,
    )
    prefix_index = None
    if config.check_prefix_consistency or config.check_gap_consistency:
        prefix_index = PrefixIndex(trace, config.prefix_length)
    validation = validate_streams(
        candidates,
        trace,
        min_stream_size=config.min_stream_size,
        prefix_length=config.prefix_length,
        check_prefix_consistency=config.check_prefix_consistency,
        prefix_index=prefix_index,
    )
    loops = merge_streams(
        validation.valid,
        trace,
        merge_gap=config.merge_gap,
        prefix_length=config.prefix_length,
        check_gap_consistency=config.check_gap_consistency,
        prefix_index=prefix_index,
        candidates=candidates,
    )
    return DetectionResult(
        trace=trace,
        config=config,
        candidate_streams=candidates,
        validation=validation,
        loops=loops,
        scan_stats=scan_stats,
    )
