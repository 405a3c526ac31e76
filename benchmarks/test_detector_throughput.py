"""Throughput — detection pipeline performance on large traces.

Not a paper artifact, but the property that made the paper's offline
analysis feasible on multi-hour OC-12 traces: detection is a linear
scan.  Benchmarks each pipeline stage on a 100k-record synthetic trace.
"""

import gc
import random
import time

import pytest

from provenance import emit_bench, metric
from repro.core.detector import LoopDetector
from repro.core.merge import merge_streams
from repro.core.replica import detect_replicas, detect_replicas_vectorized
from repro.core.report import format_table
from repro.core.streams import PrefixIndex, validate_streams
from repro.net.addr import IPv4Prefix
from repro.net.pcap import read_pcap, read_pcap_columnar, write_pcap
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import PipelineProfile
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.conftest import storm_trace
from tests.oracles import (
    ReferencePrefixIndex,
    member_set,
    reference_merge,
    reference_replicas,
    reference_validate,
)


@pytest.fixture(scope="module")
def big_trace():
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    prefixes = [
        IPv4Prefix((198 << 24) | (51 << 16) | (i << 8), 24)
        for i in range(40)
    ]
    builder.add_background(100_000, 0.0, 600.0, prefixes=prefixes)
    for i in range(20):
        builder.add_loop(
            10.0 + i * 25.0,
            IPv4Prefix((192 << 24) | (i << 8), 24),
            n_packets=4,
            replicas_per_packet=8,
            spacing=0.01,
            packet_gap=0.012,
            entry_ttl=40,
        )
    return builder.build()


def test_replica_detection_throughput(big_trace, benchmark):
    streams = benchmark.pedantic(
        lambda: detect_replicas(big_trace), rounds=3, iterations=1
    )
    assert len(streams) == 80


def test_validation_throughput(big_trace, benchmark):
    candidates = detect_replicas(big_trace)
    index = PrefixIndex(big_trace, 24)

    result = benchmark.pedantic(
        lambda: validate_streams(candidates, big_trace,
                                 prefix_index=index),
        rounds=3,
        iterations=1,
    )
    assert len(result.valid) == 80


def test_table_steps_throughput(emit):
    """Steps 2 and 3 as array programs over the stream table against
    the object oracles of ``tests/oracles.py`` on a loop storm: the
    same valid streams and loops first, then time (index builds not
    timed)."""
    trace = storm_trace(loops=300)
    table = detect_replicas(trace)
    streams = list(table)
    index = PrefixIndex(trace, 24)
    oracle_index = ReferencePrefixIndex(trace, 24)

    def table_path():
        validation = validate_streams(table, trace, prefix_index=index)
        return validation, merge_streams(
            validation.valid, trace, prefix_index=index,
            members=validation.members)

    def object_path():
        valid, too_small, conflicts = reference_validate(
            streams, oracle_index)
        return valid, reference_merge(valid, oracle_index,
                                      members=member_set(streams))

    (table_s, object_s), ((validation, loops), (valid, expected)) = \
        _best_many(5, [table_path, object_path])
    assert list(validation.valid) == valid
    assert ([(loop.prefix, loop.streams) for loop in loops]
            == [(loop.prefix, loop.streams) for loop in expected])
    assert len(valid) > 5000 and len(loops) >= 300

    emit("table_steps", format_table(
        ["Path", "Validate + merge s", "Streams/s"],
        [["stream table (product)", f"{table_s:.4f}",
          f"{len(streams) / table_s:,.0f}"],
         ["object loops (oracle)", f"{object_s:.4f}",
          f"{len(streams) / object_s:,.0f}"]],
        title=(f"Steps 2-3 — {len(streams)} candidates, {len(loops)} "
               f"loops, {len(trace)} records, best of 5"),
    ))
    # Typically ~8x on a 2-core host; the floor leaves room for noise.
    assert object_s / table_s >= 3.0


def _best_many(rounds, runners):
    """Best-of-N for several contenders with interleaved rounds.

    Alternating contenders within each round keeps the ratios honest
    when the machine's speed drifts between blocks (shared runners,
    thermal throttling) — every side samples the same conditions."""
    bests = [float("inf")] * len(runners)
    results = [None] * len(runners)
    for _ in range(rounds):
        for i, run in enumerate(runners):
            started = time.perf_counter()
            results[i] = run()
            bests[i] = min(bests[i], time.perf_counter() - started)
    return bests, results


def _stream_fp(stream):
    return (
        stream.key,
        stream.first_data,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


def test_columnar_step1_throughput(big_trace, tmp_path_factory, emit):
    """The vectorized step-1 kernel vs the reference path.

    Measures the three legs of step 1 on the same on-disk pcap: ingest
    (pcap to records in memory), the detection kernel over pre-ingested
    records, and the end-to-end step-1 path (pcap to candidate streams).
    The reference path is ``read_pcap`` plus the oracle kernel of
    ``tests/oracles.py`` over the materialized trace.  Exactness is
    asserted before any timing matters."""
    path = tmp_path_factory.mktemp("columnar_bench") / "big.pcap"
    write_pcap(big_trace, path)
    rounds = 5
    n = len(big_trace)

    (ingest_ref, ingest_col), (trace, ctrace) = _best_many(
        rounds, [lambda: read_pcap(path), lambda: read_pcap_columnar(path)]
    )

    (kernel_ref, kernel_vec), (reference, vectorized) = _best_many(rounds, [
        lambda: reference_replicas(trace),
        lambda: detect_replicas_vectorized(ctrace.chunks),
    ])

    # A fast wrong answer is worthless: byte-identical streams first.
    assert [_stream_fp(s) for s in vectorized] \
        == [_stream_fp(s) for s in reference]
    assert len(reference) == 80

    (step1_ref, step1_vec), _ = _best_many(rounds, [
        lambda: reference_replicas(read_pcap(path)),
        lambda: detect_replicas_vectorized(read_pcap_columnar(path).chunks),
    ])

    rows = []
    speedups = {}
    for label, ref_s, tier_s in (
        ("ingest (pcap -> records)", ingest_ref, ingest_col),
        ("step-1 kernel", kernel_ref, kernel_vec),
        ("step 1 (pcap -> streams)", step1_ref, step1_vec),
    ):
        speedups[label] = ref_s / tier_s
        rows.append([
            label, f"{ref_s:.3f}", f"{tier_s:.3f}",
            f"{n / tier_s:,.0f}", f"{speedups[label]:.2f}",
        ])
    table = format_table(
        ["Stage", "Reference s", "Columnar s", "Columnar rec/s", "Speedup"],
        rows,
        title=(f"Columnar step 1 — {n} records, 40-byte captures, "
               f"best of {rounds}"),
    )
    emit("columnar_step1", table)

    # Acceptance bars over the reference path.  The kernel floor of 3x
    # (measurements run 6-11x, so it holds on noisy runners)
    # subsumes the older 1.2x one.
    assert speedups["ingest (pcap -> records)"] >= 2.0
    assert speedups["step 1 (pcap -> streams)"] >= 2.0
    assert speedups["step-1 kernel"] >= 3.0

    # Benchmark provenance: the machine-readable trajectory CI diffs
    # against benchmarks/baselines/.  Stage seconds come from one
    # instrumented full-pipeline run over the pre-ingested chunks.
    profile = PipelineProfile()
    LoopDetector(profile=profile).detect_columnar(ctrace)
    emit_bench("columnar_step1", {
        "ingest_records_per_sec": metric(n / ingest_col, "records/s"),
        "kernel_vectorized_records_per_sec": metric(n / kernel_vec,
                                                    "records/s"),
        "step1_vectorized_records_per_sec": metric(n / step1_vec,
                                                   "records/s"),
        "ingest_speedup": metric(speedups["ingest (pcap -> records)"],
                                 "x"),
    }, stages=profile.stage_seconds())


def test_perf_instrumentation_overhead(big_trace, tmp_path_factory, emit):
    """The perf flight recorder stays within 5% of the plain pipeline.

    Times the full columnar pipeline (step-1 kernel + validate + merge)
    plain vs. with a :class:`PipelineProfile` wired to an enabled
    metrics registry — the exact configuration the fleet and ``--serve``
    runs use.  Stage spans cost one lock acquisition per *stage*, never
    per record, so the bound holds with margin.  Best pairwise ratio
    over interleaved run pairs (the ``obs_overhead`` methodology):
    scheduling noise only ever adds time, so the smallest back-to-back
    ratio is the honest overhead.
    """
    path = tmp_path_factory.mktemp("perf_overhead") / "big.pcap"
    write_pcap(big_trace, path)
    ctrace = read_pcap_columnar(path)
    n = len(ctrace)

    def _run_plain():
        return LoopDetector().detect_columnar(ctrace)

    def _run_profiled():
        registry = MetricsRegistry(enabled=True)
        profile = PipelineProfile(registry)
        return LoopDetector(profile=profile).detect_columnar(ctrace)

    baseline = _run_plain()
    pairs = 10
    plain_wall = profiled_wall = float("inf")
    ratios = []
    for _ in range(pairs):
        for runner, attr in ((_run_plain, "plain"), (_run_profiled, "prof")):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                result = runner()
                wall = time.perf_counter() - t0
            finally:
                gc.enable()
            assert result.stream_count == baseline.stream_count
            if attr == "plain":
                wall_p = wall
                plain_wall = min(plain_wall, wall)
            else:
                profiled_wall = min(profiled_wall, wall)
                ratios.append(wall / wall_p - 1.0)
    ratios.sort()
    best = ratios[0]
    median = ratios[len(ratios) // 2]

    lines = [
        "Perf flight-recorder overhead — columnar pipeline, "
        f"{n:,} records",
        "plain vs. PipelineProfile + enabled registry, best pairwise",
        f"ratio over {pairs} interleaved run pairs",
        "",
        f"{'mode':<28}{'wall':>9}{'records/s':>12}{'overhead':>10}",
        f"{'pipeline (plain)':<28}{plain_wall:>8.3f}s"
        f"{n / plain_wall:>12,.0f}{'—':>10}",
        f"{'pipeline + perf profile':<28}{profiled_wall:>8.3f}s"
        f"{n / profiled_wall:>12,.0f}{median:>9.1%}",
        "",
        f"pairwise overhead: median {median:.1%}, best {best:.1%}.",
        "stage spans take one lock per stage (6 stages per run), never",
        "per record; histogram observation is one bisect per span.",
    ]
    emit("perf_overhead", "\n".join(lines))

    emit_bench("perf_overhead", {
        "profiled_records_per_sec": metric(n / profiled_wall, "records/s"),
        "overhead_best_pairwise": metric(best, "fraction",
                                         higher_is_better=False),
    })

    # The tentpole's acceptance bar: <= 5% on the step-1 throughput
    # path with perf instrumentation enabled.
    assert best < 0.05, (
        f"perf instrumentation overhead {best:.1%} exceeds the 5% bound"
    )


def test_full_pipeline_throughput(big_trace, benchmark):
    result = benchmark.pedantic(
        lambda: LoopDetector().detect(big_trace), rounds=3, iterations=1
    )
    assert result.stream_count == 80
    assert result.loop_count == 20
    # Linear-scan economics: comfortably above 50k records/second even
    # in pure Python.
    assert benchmark.stats.stats.mean < len(big_trace) / 50_000
