"""The vectorized kernel's grouped exact replay, case by case.

``detect_replicas_vectorized`` chains the hash survivors per
masked key rather than in scan order, classifies each key's group as
chain-all, chain-none or mixed, and counts evictions with
``searchsorted``.  Each test here drives one of the cases that argument
has to get right and compares the streams, their ``first_data`` and all
four scan stats against the reference oracle (``tests/oracles.py``):

* forced hash collisions (``hash_rows`` patched to a low-entropy hash),
  so collision groups and mixed groups take the per-group replay;
* groups keyed by the truncated hash: keys of two record lengths and
  of two full hashes in one group, which the exact key check sends to
  the collision replay;
* a chain-break group (TTLs 60, 58, 58, 56, 70, 68);
* short records, and survivors sitting exactly on eviction boundaries;
* timestamps that regress, with entries below an earlier boundary's
  horizon, and the two ways a boundary can evict an entry a replay
  that ignores eviction would chain to (a regression across it, and a
  float corner of its horizon), which the replay settles itself.
"""

import math
import random
from array import array

import numpy as np
import pytest

from repro.core import replica, vectorize
from repro.core.replica import ReplicaScanStats, detect_replicas_vectorized
from repro.net.columnar import ColumnarChunk
from tests.oracles import chunk_triples, detect_replicas_indexed

def _body(flow: int, ttl: int, length: int = 40) -> bytes:
    """An IPv4-shaped record: TTL at byte 8, flow id in the addresses."""
    data = bytearray(length)
    data[0] = 0x45
    data[8] = ttl
    data[9] = 6
    data[12:16] = (10, 0, flow >> 8 & 0xFF, flow & 0xFF)
    data[16:20] = (192, 0, 2, flow & 0xFF)
    data[10] = (ttl * 7) & 0xFF  # the checksum moves with the TTL
    return bytes(data)


def _chunks(bodies, stamps, chunk_records=8):
    """Chunks of ``bodies``: regular (declared stride) where a chunk's
    bodies share one length, packed irregularly where they do not."""
    chunks = []
    for start in range(0, len(bodies), chunk_records):
        batch = bodies[start:start + chunk_records]
        slab = bytearray()
        offsets = array("Q")
        lengths = array("I")
        for body in batch:
            offsets.append(len(slab))
            lengths.append(len(body))
            slab.extend(body)
        uniform = len(set(lengths)) == 1
        chunks.append(ColumnarChunk(
            data=bytes(slab),
            timestamps=array("d", stamps[start:start + chunk_records]),
            offsets=offsets,
            lengths=lengths,
            base_index=start,
            stride=lengths[0] if uniform else None,
        ))
    return chunks


def _run(kernel, chunks, **params):
    stats = ReplicaScanStats()
    streams = kernel(chunks, stats=stats, **params)
    return (
        [(s.key, s.first_data,
          tuple((r.index, r.timestamp, r.ttl) for r in s.replicas))
         for s in streams],
        (stats.records_scanned, stats.records_skipped_short,
         stats.singletons_evicted, stats.candidate_streams),
    )


def _oracle(chunks, **params):
    return detect_replicas_indexed(chunk_triples(chunks), **params)


def _assert_exact(chunks, **params):
    """The kernel agrees with the oracle; returns the oracle's answer."""
    expected = _run(_oracle, chunks, **params)
    assert _run(detect_replicas_vectorized, chunks, **params) == expected
    return expected


def _storm(n_flows=12, replicas=6, background=60, spacing=0.01):
    """Interleaved loops plus duplicates and unique background."""
    bodies, stamps = [], []
    t = 0.0
    for step in range(replicas):
        for flow in range(n_flows):
            bodies.append(_body(flow, 64 - 2 * step))
            stamps.append(t)
            t += spacing
            if flow % 4 == 0:
                # a link-layer duplicate: same TTL, never chains
                bodies.append(_body(1000 + flow, 50))
                stamps.append(t)
                t += spacing
        for k in range(background // replicas):
            bodies.append(_body(2000 + step * 100 + k, 60))
            stamps.append(t)
            t += spacing
    return bodies, stamps


class TestGroupedReplay:
    def test_storm_layout(self):
        bodies, stamps = _storm()
        streams, stats = _assert_exact(_chunks(bodies, stamps))
        assert stats[3] == 12 and all(len(s[2]) == 6 for s in streams)

    @pytest.mark.parametrize("eviction_interval", [1, 2, 3, 5, 8, 13])
    def test_storm_with_heavy_eviction(self, eviction_interval):
        bodies, stamps = _storm()
        streams, stats = _assert_exact(
            _chunks(bodies, stamps), max_replica_gap=0.3,
            eviction_interval=eviction_interval,
        )
        assert streams and stats[2] > 0

    def test_chain_break_group(self):
        ttls = [60, 58, 58, 56, 70, 68]
        bodies = [_body(7, ttl) for ttl in ttls]
        stamps = [0.1 * i for i in range(len(ttls))]
        streams, stats = _assert_exact(_chunks(bodies, stamps))
        assert [[r[2] for r in s[2]] for s in streams] == \
            [[60, 58, 56], [70, 68]]
        assert stats == (6, 0, 0, 2)

    @pytest.mark.parametrize("eviction_interval", [1, 2, 3, 4, 6])
    def test_chain_break_group_with_eviction(self, eviction_interval):
        ttls = [60, 58, 58, 56, 70, 68, 68, 66, 64]
        bodies, stamps = [], []
        for i, ttl in enumerate(ttls):
            bodies += [_body(7, ttl), _body(300 + i, 40)]
            stamps += [0.03 * i, 0.03 * i + 0.01]
        _assert_exact(_chunks(bodies, stamps, chunk_records=5),
                      max_replica_gap=0.05,
                      eviction_interval=eviction_interval)

    @pytest.mark.parametrize("eviction_interval", [2, 3, 4, 5])
    def test_short_records_and_survivors_on_boundaries(
            self, eviction_interval):
        # Every eviction boundary holds a survivor or a short record:
        # flow 1's replicas (its first is a singleton insert, so that
        # boundary fires; the rest attach, so theirs do not), a
        # duplicate pair flow whose records are all inserts (they fire),
        # or a short record (never scanned, never fires).
        bodies, stamps = [], []
        ttl = 250
        for position in range(120):
            slot = position // eviction_interval
            if position and position % eviction_interval == 0:
                if slot % 3 == 0:
                    bodies.append(_body(1, ttl))
                    ttl -= 2
                elif slot % 3 == 1:
                    bodies.append(_body(2, 50))
                else:
                    bodies.append(bytes(range(slot % 20)))
            else:
                bodies.append(_body(500 + position, 40))
            stamps.append(0.01 * position)
        streams, stats = _assert_exact(
            _chunks(bodies, stamps, chunk_records=6),
            max_replica_gap=0.5, eviction_interval=eviction_interval,
        )
        assert stats[1] > 0 and stats[2] > 0
        assert len(streams) == 1

    @pytest.mark.parametrize("eviction_interval", [0, 3])
    def test_no_survivors(self, eviction_interval):
        bodies = [_body(i, 40) for i in range(30)]
        stamps = [0.01 * i for i in range(30)]
        streams, stats = _assert_exact(
            _chunks(bodies, stamps), max_replica_gap=0.05,
            eviction_interval=eviction_interval,
        )
        assert streams == [] and stats[0] == 30

    def test_singleton_replaced_before_its_boundary(self):
        # Equal TTLs never chain: each record replaces the last as the
        # key's singleton, and only the survivor of the group can be
        # evicted.
        bodies = [_body(9, 50)] * 5 + [_body(40 + i, 40) for i in range(5)]
        stamps = [0.01 * i for i in range(10)]
        _assert_exact(_chunks(bodies, stamps), max_replica_gap=0.015,
                      eviction_interval=2)


class TestForcedCollisions:
    @pytest.mark.parametrize("buckets", [1, 3])
    @pytest.mark.parametrize("eviction_interval", [0, 3, 7, 100_000])
    def test_low_entropy_hash(self, monkeypatch, buckets,
                              eviction_interval):

        real_hash = vectorize.hash_rows

        def weak_hash(*slab):
            return real_hash(*slab) % np.uint64(buckets)

        monkeypatch.setattr(vectorize, "hash_rows", weak_hash)
        bodies, stamps = _storm(n_flows=6, replicas=5, background=30)
        bodies += [_body(7, ttl) for ttl in (60, 58, 58, 56, 70, 68)]
        stamps += [stamps[-1] + 0.01 * (i + 1) for i in range(6)]
        _assert_exact(_chunks(bodies, stamps), max_replica_gap=0.08,
                      eviction_interval=eviction_interval)

    def test_collisions_across_lengths_and_irregular_chunks(
            self, monkeypatch):
        monkeypatch.setattr(
            vectorize, "hash_rows",
            lambda data, first, n, stride, length: np.zeros(
                n, dtype=np.uint64),
        )
        # Three regular chunks, then irregular ones mixing lengths.
        bodies, stamps = [], []
        for i in range(36):
            length = 40 if i < 12 else (20, 28, 40)[i % 3]
            bodies.append(_body(i % 4, 200 - 2 * (i // 3), length))
            stamps.append(0.01 * i)
        chunks = _chunks(bodies, stamps, chunk_records=4)
        assert chunks[0].stride == 40 and chunks[-1].stride is None
        streams, _ = _assert_exact(chunks, eviction_interval=4,
                                   max_replica_gap=0.1)
        assert streams


def _source_byte_hash(data, first, n, stride, length):
    """``hash_rows`` cut to below 8: the low bits of each record's source
    address byte (its flow).  Equal keys still hash equal, all high bits
    agree, and the low bits differ between flows."""
    if not n:
        return np.zeros(0, dtype=np.uint64)
    return (vectorize.column(data, first + 15, n, stride, np.uint8)
            .astype(np.uint64) & np.uint64(7))


class TestTruncatedGroups:
    """A group is keyed by the truncated hash, not by (length, hash):
    records of different lengths or full hashes can share one.  The
    group then fails the exact key check and is chained per masked
    key."""

    def test_lengths_and_full_hashes_share_a_group(self, monkeypatch):
        monkeypatch.setattr(vectorize, "hash_rows", _source_byte_hash)
        grouped = []
        sort_survivors = replica._sort_survivors

        def spy(*args):
            grouped.append(sort_survivors(*args))
            return grouped[-1]

        monkeypatch.setattr(replica, "_sort_survivors", spy)
        # Flows 1 and 2 at 40 bytes (two full hashes of one length),
        # and flow 1 at 28 bytes too (one full hash, two lengths): a
        # regular chunk first, then irregular ones.
        bodies, stamps = [], []
        for step in range(6):
            for flow, length in ((1, 40), (2, 40), (1, 28)):
                if step < 2 and length == 28:
                    continue
                bodies.append(_body(flow, 64 - 2 * step, length))
                stamps.append(0.01 * len(stamps))
        chunks = _chunks(bodies, stamps, chunk_records=4)
        assert chunks[0].stride == 40 and chunks[-1].stride is None
        streams, _ = _assert_exact(chunks, max_replica_gap=0.2,
                                   eviction_interval=5)
        assert len(streams) == 3
        s = grouped[-1]
        assert len(s.group_start) == 1 and not s.exact[0]
        assert len(set(s.collision_keys[0])) == 3

class TestEvictionCheck:
    """Eviction only matters where it drops an entry a later record
    chains to; the replay checks each chain it makes for that and, where
    a boundary cuts one, replays with eviction until the boundaries that
    fire settle."""

    def test_regressing_timestamps(self):
        # A swapped pair regresses by far less than the gap, so no
        # boundary can evict an entry the replay chains to.
        bodies, stamps = _storm()
        stamps[10], stamps[11] = stamps[11], stamps[10]
        _assert_exact(_chunks(bodies, stamps), max_replica_gap=0.05,
                      eviction_interval=3)

    @pytest.mark.parametrize("jitter", [0.02, 0.1, 0.2])
    @pytest.mark.parametrize("eviction_interval", [2, 5, 11])
    @pytest.mark.parametrize("seed", range(4))
    def test_jittered_timestamps(self, seed, eviction_interval, jitter):
        # Jitter against a 0.05 s gap: boundaries fire out of horizon
        # order; at 0.1 entries sit below earlier horizons, at 0.2
        # chains are cut and the replay settles the boundaries.
        rng = random.Random(seed)
        bodies, stamps = _storm()
        stamps = [t + rng.uniform(-jitter, jitter) for t in stamps]
        _assert_exact(_chunks(bodies, stamps), max_replica_gap=0.05,
                      eviction_interval=eviction_interval)

    def test_entries_below_an_earlier_horizon(self):
        # The boundary at 2 (t = 10) sets horizon 5.0 before flow 1's
        # and flow 2's records arrive, regressed below it.  Flow 1 still
        # chains across the boundary at 4 (horizon -2.0); flow 2's first
        # record is evicted at 8 (horizon 7.0) before its duplicate.
        rows = [(100, 40, 0.0), (101, 40, 1.0), (102, 40, 10.0),
                (1, 64, 2.0), (103, 40, 3.0), (1, 62, 2.5),
                (104, 40, 11.0), (2, 50, 1.0), (105, 40, 12.0),
                (2, 50, 1.1)]
        bodies = [_body(flow, ttl) for flow, ttl, _ in rows]
        stamps = [t for _, _, t in rows]
        streams, stats = _assert_exact(
            _chunks(bodies, stamps), eviction_interval=2,
            max_replica_gap=5.0,
        )
        assert [[r[0] for r in s[2]] for s in streams] == [[3, 5]]
        assert stats[2] == 4

    def test_regression_across_a_boundary_cuts_a_chain(
            self):
        # The boundary at 2 (t = 7) evicts flow 1's singleton (t = 1)
        # before its regressed replica (t = 1.5) could chain to it.
        bodies = [_body(100, 40), _body(1, 64), _body(101, 40),
                  _body(1, 62)]
        stamps = [0.0, 1.0, 7.0, 1.5]
        streams, stats = _assert_exact(
            _chunks(bodies, stamps), eviction_interval=2,
            max_replica_gap=5.0,
        )
        assert streams == [] and stats[2] == 2

    def test_monotone_storm_stays_vectorized(self):
        bodies, stamps = _storm()
        _assert_exact(_chunks(bodies, stamps), max_replica_gap=0.05,
                      eviction_interval=3)

    def test_float_corner_of_the_horizon(self):
        # gap 5.0, boundary record at t = 5.1: the horizon is 5.1 - 5.0,
        # and the entry one float below it is evicted there although
        # 5.1 - t rounds to exactly 5.0, which would chain.
        horizon = 5.1 - 5.0
        early = math.nextafter(horizon, 0.0)
        assert early < horizon and 5.1 - early <= 5.0
        bodies = [_body(100, 40), _body(1, 64), _body(101, 40),
                  _body(1, 62)]
        stamps = [0.0, early, 5.1, 5.1]
        streams, stats = _assert_exact(
            _chunks(bodies, stamps), eviction_interval=2,
            max_replica_gap=5.0,
        )
        assert streams == [] and stats[2] == 2
