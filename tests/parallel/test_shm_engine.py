"""Shared-memory slab fan-out: equivalence and segment lifecycle.

The engine's pool fan-out writes one shared segment and ships
descriptors; these tests pin down that

* the result is identical to the in-process run (streams, loops,
  aggregated stats) and to the reference pipeline;
* the segment never outlives the run — success, a SIGKILL'd worker,
  a raising worker, and a ``KeyboardInterrupt`` all leave ``/dev/shm``
  clean;
* the pickled control payload (descriptors) is orders of magnitude
  smaller than the slab bytes it replaces.
"""

import os
import pickle
import random
import signal

import pytest
from concurrent.futures.process import BrokenProcessPool

import repro.parallel.engine as engine_mod
from repro.core.detector import DetectorConfig
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.parallel.engine import ParallelLoopDetector
from repro.traffic.synthetic import SyntheticTraceBuilder
from tests.oracles import reference_detect


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def _kill_worker(payload):
    """Fault-injection worker: dies hard mid-fan-out (module level so it
    pickles by reference into pool workers)."""
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_worker(payload):
    raise RuntimeError("injected worker failure")


@pytest.fixture(scope="module")
def ctrace():
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    builder.add_background(3000, 0.0, 30.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=3,
                     replicas_per_packet=6, spacing=0.01, entry_ttl=40)
    return ColumnarTrace.from_trace(builder.build(), chunk_records=512)


def _fp(result):
    return (
        [tuple((r.index, r.timestamp, r.ttl) for r in s.replicas)
         for s in result.candidate_streams],
        [(str(l.prefix), l.start, l.end) for l in result.loops],
        result.scan_stats.records_scanned,
        result.scan_stats.singletons_evicted,
    )


class TestShmEquivalence:
    def test_matches_inprocess_and_reference(self, ctrace):
        config = DetectorConfig()
        shm_engine = ParallelLoopDetector(config, jobs=2, shards=4)
        inproc = ParallelLoopDetector(config, jobs=1, shards=4)
        res_shm = shm_engine.detect_columnar(ctrace)
        res_inp = inproc.detect_columnar(ctrace)
        assert _fp(res_shm) == _fp(res_inp)
        # Shards evict on their own scan positions; everything else
        # matches the serial oracle.
        assert _fp(res_shm)[:3] == _fp(reference_detect(ctrace.to_trace()))[:3]
        assert res_shm.parallel.shm_bytes == res_inp.parallel.fanout_bytes
        assert res_inp.parallel.shm_bytes == 0
        assert "via shared memory" in res_shm.parallel.render()
        snapshot = shm_engine.state_snapshot()
        assert snapshot["last_run"]["shm_bytes"] == res_shm.parallel.shm_bytes

    def test_descriptor_payload_is_tiny(self, ctrace):
        config = DetectorConfig()
        eng = ParallelLoopDetector(config, jobs=2, shards=4)
        partition = engine_mod.ColumnarShardPartition(num_shards=4)
        for chunk in ctrace.chunks:
            partition.add_chunk(chunk)
        _, descriptors = partition.shm_layout(config)
        pickled_bytes = sum(
            len(pickle.dumps(p)) for p in partition.payloads(config)
        )
        descriptor_bytes = sum(
            len(pickle.dumps(("psm_placeholder", *d))) for d in descriptors
        )
        assert descriptor_bytes * 10 <= pickled_bytes

    def test_inprocess_run_never_creates_segment(self, ctrace):
        eng = ParallelLoopDetector(DetectorConfig(), jobs=1, shards=4)
        eng.detect_columnar(ctrace)
        assert eng.last_shm_name is None


class TestSegmentLifecycle:
    def test_unlinked_after_success(self, ctrace):
        eng = ParallelLoopDetector(DetectorConfig(), jobs=2, shards=4)
        eng.detect_columnar(ctrace)
        assert eng.last_shm_name is not None
        assert not _segment_exists(eng.last_shm_name)

    def test_unlinked_after_worker_sigkill(self, ctrace, monkeypatch):
        monkeypatch.setattr(engine_mod, "_detect_shard_columnar_shm",
                            _kill_worker)
        eng = ParallelLoopDetector(DetectorConfig(), jobs=2, shards=4)
        with pytest.raises(BrokenProcessPool):
            eng.detect_columnar(ctrace)
        assert eng.last_shm_name is not None
        assert not _segment_exists(eng.last_shm_name)

    def test_unlinked_after_worker_exception(self, ctrace, monkeypatch):
        monkeypatch.setattr(engine_mod, "_detect_shard_columnar_shm",
                            _raise_worker)
        eng = ParallelLoopDetector(DetectorConfig(), jobs=2, shards=4)
        with pytest.raises(RuntimeError, match="injected"):
            eng.detect_columnar(ctrace)
        assert not _segment_exists(eng.last_shm_name)

    def test_unlinked_after_keyboard_interrupt(self, ctrace, monkeypatch):
        class InterruptingPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                raise KeyboardInterrupt

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                            InterruptingPool)
        eng = ParallelLoopDetector(DetectorConfig(), jobs=2, shards=4)
        with pytest.raises(KeyboardInterrupt):
            eng.detect_columnar(ctrace)
        assert not _segment_exists(eng.last_shm_name)
