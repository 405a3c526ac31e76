"""Seeded synthetic pcap traces with planted routing loops.

Everything here is written from the paper's definitions, never from the
detector's code: a *replica stream* is one packet seen on the link three
or more times, each time with the TTL lower by the loop's hop count; a
*routing loop* is every stream to one /24 within one loop window.  The
generator plants loops on /24s that carry no other traffic, so the
answer a correct detector must give is known exactly:

* one loop per planted prefix, bounded by its first and last replica,
  with its stream count, replica count and TTL delta;
* every planted stream validated;
* every *duplicate pair* (a packet seen exactly twice with a TTL drop of
  two or three, as link-layer duplication can produce) rejected as too
  small;
* every *decoy* stream (three or more replicas on a busy /24 with an
  unrelated packet to that /24 inside its lifetime) rejected by prefix
  consistency.

Background packets are unique (each carries its own TCP sequence
number), so they never chain into a stream.  Records are 40-byte IPv4 +
TCP headers in a little-endian, microsecond, ``LINKTYPE_RAW`` pcap.

Generation is vectorized with numpy and takes well under a second per
half-million records; :func:`cached_trace` keeps the result on disk,
keyed by name, seed and :data:`GEN_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Bump whenever the generator's output for a given spec and seed changes,
#: so stale cached traces are never reused.
GEN_VERSION = 1

#: Trace epoch: August 2002, when the paper's traces were collected.
EPOCH_S = 1_030_000_000

_RECORD = np.dtype([
    ("sec", "<u4"), ("usec", "<u4"), ("incl", "<u4"), ("orig", "<u4"),
    ("vihl", "u1"), ("tos", "u1"), ("tlen", ">u2"), ("ipid", ">u2"),
    ("frag", ">u2"), ("ttl", "u1"), ("proto", "u1"), ("csum", ">u2"),
    ("src", ">u4"), ("dst", ">u4"),
    ("sport", ">u2"), ("dport", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
    ("off", "u1"), ("flags", "u1"), ("win", ">u2"), ("tcsum", ">u2"),
    ("urg", ">u2"),
])
assert _RECORD.itemsize == 56

#: Fig. 2's shape: most loops span two routers, a tail spans more.
_DELTAS = np.array([2, 3, 4, 5, 6, 8])
_DELTA_P = np.array([0.58, 0.22, 0.09, 0.05, 0.04, 0.02])

_WIRE_LENGTHS = np.array([40, 52, 576, 1500])
_WIRE_P = np.array([0.4, 0.2, 0.15, 0.25])


@dataclass(frozen=True)
class TraceSpec:
    """Shape of one synthetic trace."""

    name: str
    records: int
    duration_s: float
    bg_prefixes: int
    loops: int
    streams_per_loop: tuple[int, int]
    replicas_per_stream: tuple[int, int]
    loop_window_s: tuple[float, float] = (2.0, 50.0)
    dup_pairs: int = 40
    decoys: int = 10


SPECS = {
    # Paper-like: a few dozen loops, well under 1% of records replicas.
    "sparse": TraceSpec(
        name="sparse", records=512_000, duration_s=600.0,
        bg_prefixes=2000, loops=36, streams_per_loop=(3, 12),
        replicas_per_stream=(3, 10),
    ),
    # Loop storm: hundreds of concurrent loops, ~80% of records replicas.
    "storm": TraceSpec(
        name="storm", records=256_000, duration_s=120.0,
        bg_prefixes=500, loops=300, streams_per_loop=(20, 65),
        replicas_per_stream=(3, 30), loop_window_s=(5.0, 50.0),
        dup_pairs=2000, decoys=100,
    ),
    # The fleet's links, alternating: sized so that a two-link run takes
    # seconds, at the streaming path's much lower records/s.
    "fleet_sparse": TraceSpec(
        name="fleet_sparse", records=320_000, duration_s=375.0,
        bg_prefixes=2000, loops=24, streams_per_loop=(3, 12),
        replicas_per_stream=(3, 10),
    ),
    "fleet_storm": TraceSpec(
        name="fleet_storm", records=40_000, duration_s=30.0,
        bg_prefixes=200, loops=60, streams_per_loop=(10, 40),
        replicas_per_stream=(3, 30), loop_window_s=(5.0, 20.0),
        dup_pairs=200, decoys=10,
    ),
}


@dataclass(frozen=True)
class PlantedLoop:
    """What the detector must report for one planted loop."""

    prefix: str
    start_us: int
    end_us: int
    streams: int
    replicas: int
    ttl_delta: int

    def key(self) -> tuple:
        return (self.prefix, self.start_us, self.end_us, self.streams,
                self.replicas, self.ttl_delta)


@dataclass(frozen=True)
class Truth:
    """The generator's answer key for one trace file."""

    spec: str
    seed: int
    records: int
    replica_records: int
    file_bytes: int
    digest: str
    loops: tuple[PlantedLoop, ...]
    validated_streams: int
    candidate_streams: int
    rejected_too_small: int
    rejected_prefix_conflict: int

    @property
    def replica_share(self) -> float:
        return self.replica_records / self.records

    def to_json(self) -> str:
        doc = asdict(self)
        doc["loops"] = [list(loop.key()) for loop in self.loops]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Truth":
        doc = json.loads(text)
        doc["loops"] = tuple(PlantedLoop(*row) for row in doc["loops"])
        return cls(**doc)

    def describe(self) -> dict:
        """Input summary reported alongside benchmark results."""
        return {"spec": self.spec, "seed": self.seed,
                "records": self.records,
                "replica_share": round(self.replica_share, 6),
                "loops": len(self.loops), "digest": self.digest}


def _prefix_str(net24: int) -> str:
    return (f"{net24 >> 16 & 255}.{net24 >> 8 & 255}.{net24 & 255}.0/24")


def _unique_prefixes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct routable /24s (first octet 1..223, not 10/127)."""
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        draw = rng.integers(1 << 16, 224 << 16, size=2 * count)
        first = draw >> 16
        draw = draw[(first != 10) & (first != 127)]
        merged = np.concatenate([chosen, draw])
        _, first_seen = np.unique(merged, return_index=True)
        chosen = merged[np.sort(first_seen)]
    return chosen[:count]


def _identities(rng, n: int, seq_base: int, dst: np.ndarray) -> dict:
    """Per-packet header fields that stay fixed across a packet's
    replicas; ``seq`` is unique per packet, so no two packets collide."""
    return {
        "src": rng.integers(1 << 24, 224 << 24, size=n, dtype=np.int64),
        "dst": dst.astype(np.int64),
        "sport": rng.integers(1024, 65536, size=n),
        "dport": rng.choice(np.array([80, 443, 25, 53, 119, 6667]), size=n),
        "seq": np.arange(seq_base, seq_base + n, dtype=np.int64),
        "ack": rng.integers(0, 1 << 32, size=n, dtype=np.int64),
        "ipid": rng.integers(0, 1 << 16, size=n),
        "tcsum": rng.integers(0, 1 << 16, size=n),
        "wire": rng.choice(_WIRE_LENGTHS, size=n, p=_WIRE_P),
    }


def _expand(ident: dict, counts: np.ndarray, ts: np.ndarray,
            ttl: np.ndarray) -> dict:
    """Repeat each packet's identity ``counts[i]`` times (its replicas)."""
    out = {key: np.repeat(value, counts) for key, value in ident.items()}
    out["ts"] = ts
    out["ttl"] = ttl
    return out


def _streams(rng, n: int, starts_us: np.ndarray, lengths: np.ndarray,
             deltas: np.ndarray, rtt_us: np.ndarray):
    """Replica timestamps and TTLs for ``n`` streams.

    Stream ``i`` has ``lengths[i]`` replicas, ``rtt_us[i]`` apart (plus
    up to 20% jitter), TTL falling by ``deltas[i]`` per crossing from an
    initial value high enough that the last replica still has TTL >= 1.
    Returns ``(ts, ttl, first_ts, last_ts)``.
    """
    total = int(lengths.sum())
    stream_of = np.repeat(np.arange(n), lengths)
    step = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    gaps = np.repeat(rtt_us, lengths) + (
        rng.random(total) * 0.2 * np.repeat(rtt_us, lengths)
    ).astype(np.int64)
    gaps[step == 0] = 0
    # Cumulative gap within each stream: global cumsum minus the stream's
    # offset at its first replica.
    cum = np.cumsum(gaps)
    cum -= np.repeat(cum[np.cumsum(lengths) - lengths], lengths)
    ts = np.repeat(starts_us, lengths) + cum
    headroom = rng.integers(0, 60, size=n)
    ttl0 = np.minimum(255, (lengths - 1) * deltas + 1 + headroom)
    ttl = np.repeat(ttl0, lengths) - step * np.repeat(deltas, lengths)
    ends = np.cumsum(lengths) - 1
    return ts, ttl, ts[ends - lengths + 1], ts[ends]


def generate(spec: TraceSpec, seed: int) -> tuple[bytes, Truth]:
    """Build the pcap bytes and answer key for ``spec`` and ``seed``."""
    rng = np.random.default_rng([seed, GEN_VERSION, sum(map(ord, spec.name))])
    duration_us = int(spec.duration_s * 1e6)
    prefixes = _unique_prefixes(rng, spec.bg_prefixes + spec.loops)
    bg_prefixes, loop_prefixes = (prefixes[:spec.bg_prefixes],
                                  prefixes[spec.bg_prefixes:])
    # Column groups of packet observations, concatenated at the end.
    parts: list[dict[str, np.ndarray]] = []
    seq = 1

    # Planted loops: each on its own quiet /24.
    lo, hi = spec.streams_per_loop
    n_streams = rng.integers(lo, hi + 1, size=spec.loops)
    loop_delta = rng.choice(_DELTAS, size=spec.loops, p=_DELTA_P)
    loop_rtt = rng.integers(500, 30_000, size=spec.loops)
    wlo, whi = spec.loop_window_s
    window = (rng.uniform(wlo, whi, size=spec.loops) * 1e6).astype(np.int64)
    loop_t0 = (rng.uniform(0.02, 0.98, size=spec.loops)
               * (duration_us - window)).astype(np.int64)
    total_streams = int(n_streams.sum())
    owner = np.repeat(np.arange(spec.loops), n_streams)
    rlo, rhi = spec.replicas_per_stream
    lengths = rng.integers(rlo, rhi + 1, size=total_streams)
    starts = loop_t0[owner] + (rng.random(total_streams)
                               * window[owner]).astype(np.int64)
    ts, ttl, first, last = _streams(rng, total_streams, starts, lengths,
                                    loop_delta[owner], loop_rtt[owner])
    hosts = rng.integers(1, 255, size=total_streams)
    ident = _identities(rng, total_streams, seq,
                        (loop_prefixes[owner] << 8) | hosts)
    seq += total_streams
    parts.append(_expand(ident, lengths, ts, ttl))
    loop_start = np.full(spec.loops, np.iinfo(np.int64).max)
    loop_end = np.zeros(spec.loops, dtype=np.int64)
    np.minimum.at(loop_start, owner, first)
    np.maximum.at(loop_end, owner, last)
    loop_replicas = np.bincount(owner, weights=lengths,
                                minlength=spec.loops).astype(int)
    replica_records = int(lengths.sum())

    # Duplicate pairs: two sightings, TTL two or three lower — rejected
    # by the size rule.
    n_pairs = spec.dup_pairs
    pair_start = rng.integers(0, duration_us - 1_000_000, size=n_pairs)
    pair_len = np.full(n_pairs, 2)
    ts, ttl, _, _ = _streams(rng, n_pairs, pair_start, pair_len,
                             rng.integers(2, 4, size=n_pairs),
                             rng.integers(1000, 200_000, size=n_pairs))
    dst = (rng.choice(bg_prefixes, size=n_pairs) << 8) | rng.integers(
        1, 255, size=n_pairs)
    parts.append(_expand(_identities(rng, n_pairs, seq, dst),
                          pair_len, ts, ttl))
    seq += n_pairs

    # Decoys: real-looking streams on busy /24s, with one unrelated packet
    # to the same /24 half a round trip after the first replica.
    n_decoys = spec.decoys
    decoy_start = rng.integers(0, duration_us - 1_000_000, size=n_decoys)
    decoy_len = rng.integers(3, 6, size=n_decoys)
    decoy_rtt = rng.integers(2000, 20_000, size=n_decoys)
    ts, ttl, first, _ = _streams(rng, n_decoys, decoy_start, decoy_len,
                                 np.full(n_decoys, 2), decoy_rtt)
    decoy_net = rng.choice(bg_prefixes, size=n_decoys)
    dst = (decoy_net << 8) | rng.integers(1, 255, size=n_decoys)
    parts.append(_expand(_identities(rng, n_decoys, seq, dst),
                          decoy_len, ts, ttl))
    seq += n_decoys
    conflict_dst = (decoy_net << 8) | rng.integers(1, 255, size=n_decoys)
    parts.append(_expand(
        _identities(rng, n_decoys, seq, conflict_dst),
        np.ones(n_decoys, dtype=np.int64), first + decoy_rtt // 2,
        rng.integers(20, 129, size=n_decoys)))
    seq += n_decoys

    # Background: unique packets over Zipf-popular busy /24s.
    used = sum(len(part["ts"]) for part in parts)
    n_bg = max(0, spec.records - used)
    rank = np.arange(1, spec.bg_prefixes + 1)
    weight = 1.0 / rank
    bg_net = rng.choice(bg_prefixes, size=n_bg, p=weight / weight.sum())
    dst = (bg_net << 8) | rng.integers(1, 255, size=n_bg)
    parts.append(_expand(_identities(rng, n_bg, seq, dst),
                          np.ones(n_bg, dtype=np.int64),
                          rng.integers(0, duration_us, size=n_bg),
                          rng.integers(20, 129, size=n_bg)))
    seq += n_bg

    cols = {key: np.concatenate([part[key] for part in parts])
            for key in parts[0]}
    order = np.argsort(cols["ts"], kind="stable")
    data = _encode({key: value[order] for key, value in cols.items()})
    digest = hashlib.sha256(data).hexdigest()[:16]
    loops = sorted(
        (PlantedLoop(_prefix_str(int(loop_prefixes[i])),
                     EPOCH_S * 1_000_000 + int(loop_start[i]),
                     EPOCH_S * 1_000_000 + int(loop_end[i]),
                     int(n_streams[i]), int(loop_replicas[i]),
                     int(loop_delta[i]))
         for i in range(spec.loops)),
        key=PlantedLoop.key,
    )
    truth = Truth(
        spec=spec.name, seed=seed, records=len(order),
        replica_records=replica_records, file_bytes=len(data),
        digest=digest, loops=tuple(loops),
        validated_streams=total_streams,
        candidate_streams=total_streams + n_pairs + n_decoys,
        rejected_too_small=n_pairs,
        rejected_prefix_conflict=n_decoys,
    )
    return data, truth


def _encode(cols: dict[str, np.ndarray]) -> bytes:
    """Pack sorted packet columns into pcap bytes."""
    n = len(cols["ts"])
    rec = np.zeros(n, dtype=_RECORD)
    when = EPOCH_S * 1_000_000 + cols["ts"]
    rec["sec"] = when // 1_000_000
    rec["usec"] = when % 1_000_000
    rec["incl"] = 40
    rec["orig"] = cols["wire"]
    rec["vihl"] = 0x45
    rec["tlen"] = cols["wire"]
    rec["ipid"] = cols["ipid"]
    rec["frag"] = 0x4000
    rec["ttl"] = cols["ttl"]
    rec["proto"] = 6
    rec["src"] = cols["src"]
    rec["dst"] = cols["dst"]
    rec["sport"] = cols["sport"]
    rec["dport"] = cols["dport"]
    rec["seq"] = cols["seq"] & 0xFFFFFFFF
    rec["ack"] = cols["ack"]
    rec["off"] = 0x50
    rec["flags"] = 0x10
    rec["win"] = 65535
    rec["tcsum"] = cols["tcsum"]
    # RFC 791 header checksum over the ten 16-bit header words.
    src, dst = cols["src"], cols["dst"]
    total = (0x4500 + cols["wire"] + cols["ipid"] + 0x4000
             + (cols["ttl"].astype(np.int64) << 8 | 6)
             + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    rec["csum"] = ~total & 0xFFFF
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 40, 101)
    return header + rec.tobytes()


def cached_trace(cache_dir: Path, spec: TraceSpec,
                 seed: int) -> tuple[Path, Truth]:
    """The pcap path and answer key for ``spec``/``seed``, generating
    and caching them on first use."""
    stem = cache_dir / f"{spec.name}-s{seed}-g{GEN_VERSION}"
    pcap, key = stem.with_suffix(".pcap"), stem.with_suffix(".json")
    if pcap.exists() and key.exists():
        truth = Truth.from_json(key.read_text())
        if pcap.stat().st_size == truth.file_bytes:
            return pcap, truth
    data, truth = generate(spec, seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    for path, payload in ((pcap, data), (key, truth.to_json().encode())):
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    return pcap, truth
