"""numpy building blocks for the vectorized step-1 kernel, the prefix
index and the batched streaming tier.

Records are read where they lie: a *slab* is any buffer holding ``n``
records of ``length`` bytes, record ``i`` at byte ``first + i *
stride`` (a contiguous ``(n, length)`` matrix is the slab whose stride
is its length).  Each primitive reads its columns straight off the slab
as strided views, so no pass over all records copies them.

The central primitive is :func:`hash_rows`, a per-record 64-bit hash of
the *masked* record (TTL and header checksum zeroed), used by the
duplicate filter of the step-1 kernel and of the batched streaming
tier.  Each record is read as little-endian ``uint64`` words, the last
one zero-padded, and dotted with a fixed table of random odd weights
(mod 2**64).  Equal masked records always hash equal — that is the
property the filter's correctness rests on; collisions merely cost a
little pass-2 work (see
:func:`~repro.core.replica.detect_replicas_vectorized`).
:func:`shared` finds the hashes that repeat with one sort.
"""

from __future__ import annotations

import numpy as np

#: Seed of the hash weight table.  The hash is process-internal (it
#: never crosses a process boundary and nothing observable depends on
#: its values), but a fixed seed keeps runs reproducible under perf
#: tooling.
_WEIGHT_SEED = 0x51F15EED

#: Weights are grown in fixed blocks, each derived from its own seeded
#: generator, so extending the table for a longer record NEVER changes
#: the weights already handed out — two hashes of the same bytes must
#: agree even when one was computed before the table grew.
_WEIGHT_BLOCK = 64

_weights = np.empty(0, dtype=np.uint64)

#: Word 1 of a record (bytes 8..15, little-endian) with the mutable
#: fields zeroed: the TTL (byte 8) and the header checksum (bytes 10
#: and 11).
_WORD1_MASK = np.uint64(0xFFFF_FFFF_0000_FF00)


def hash_weights(words: int):
    """The first ``words`` hash weights (odd uint64s), growing the
    shared table block by block as needed."""
    global _weights
    while len(_weights) < words:
        block_id = len(_weights) // _WEIGHT_BLOCK
        rng = np.random.default_rng(_WEIGHT_SEED + block_id)
        block = rng.integers(0, 1 << 63, _WEIGHT_BLOCK, dtype=np.uint64)
        _weights = np.concatenate([_weights, block * np.uint64(2)
                                   + np.uint64(1)])
    return _weights[:words]


def column(data, offset: int, n: int, stride: int, dtype):
    """A zero-copy view of ``n`` values of ``dtype``, value ``i`` at
    byte ``offset + i * stride`` of the buffer ``data``."""
    return np.ndarray((n,), dtype=dtype, buffer=data, offset=offset,
                      strides=(stride,))


def hash_rows(data, first: int, n: int, stride: int, length: int):
    """Per-record 64-bit hashes of the masked keys of a slab's ``n``
    records of ``length`` bytes (at least 16).

    Equal masked records hash equal, and an already-masked record
    hashes like the record it came from.  The record length takes part
    via the word count; records of different lengths are never compared
    by the callers anyway (different lengths mean different keys).
    """
    out = np.zeros(n, dtype=np.uint64)
    if not n:
        return out
    full, rest = divmod(length, 8)
    weights = hash_weights(full + (rest > 0))
    term = np.empty(n, dtype=np.uint64)
    for w in range(full):
        words = column(data, first + 8 * w, n, stride, "<u8")
        if w == 1:
            np.bitwise_and(words, _WORD1_MASK, out=term)
            term *= weights[w]
        else:
            np.multiply(words, weights[w], out=term)
        out += term
    if rest:
        # The word ending at the record's last byte holds the tail in
        # its top bytes; shifted down, it is the zero-padded last word.
        words = column(data, first + length - 8, n, stride, "<u8")
        np.right_shift(words, np.uint64(64 - 8 * rest), out=term)
        term *= weights[full]
        out += term
    return out


def _position_bits(n: int) -> int:
    """Bits that hold a position below ``n``."""
    return max(n - 1, 1).bit_length()


def shared(hashes):
    """Per entry of the uint64 array ``hashes``: whether another entry
    may hold the same value.

    One in-place sort of ``(hash & ~low) | position`` words, ``low`` the
    bits positions need: an entry is marked when a neighbour has the
    same high bits.  Every repeated value is marked; truncating the
    hashes can only mark more.
    """
    n = len(hashes)
    marked = np.zeros(n, dtype=bool)
    if n < 2:
        return marked
    low = np.uint64((1 << _position_bits(n)) - 1)
    words = hashes & ~low
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    same = (words[1:] ^ words[:-1]) <= low
    pair = np.zeros(n, dtype=bool)
    pair[1:] = same
    pair[:-1] |= same
    marked[(words[pair] & low).astype(np.intp)] = True
    return marked


def stable_order(keys):
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys
    below ``2 ** (64 - b)``, ``b`` the bit length of ``len(keys) - 1``:
    one sort of ``(key << b) | position`` words."""
    n = len(keys)
    bits = _position_bits(n)
    words = np.asarray(keys).astype(np.uint64) << np.uint64(bits)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    return (words & np.uint64((1 << bits) - 1)).astype(np.intp)


def records(data, first: int, n: int, stride: int, length: int):
    """A zero-copy ``(n, length)`` uint8 view of a slab's records."""
    region = np.frombuffer(data, dtype=np.uint8, offset=first,
                           count=(n - 1) * stride + length)
    return np.lib.stride_tricks.as_strided(
        region, shape=(n, length), strides=(stride, 1))


def gather(data, offsets, length: int):
    """The ``length`` bytes at each of ``offsets`` in the buffer
    ``data``, one row each of a new ``(len(offsets), length)`` uint8
    matrix: one fancy index into a window view of the buffer."""
    if not len(offsets):
        return np.empty((0, length), dtype=np.uint8)
    slab = np.frombuffer(data, dtype=np.uint8)
    windows = np.lib.stride_tricks.as_strided(
        slab, shape=(len(slab) - length + 1, length), strides=(1, 1))
    return windows[offsets]


def dst_prefixes(data, first: int, n: int, stride: int, shift: int):
    """Per-record destination /N prefix of a slab's records: the
    big-endian uint32 at bytes 16..20 shifted right by ``shift`` — one
    value per record, matching the scalar ``int.from_bytes(data[16:20],
    "big") >> shift``."""
    dst = column(data, first + 16, n, stride, ">u4")
    return (dst >> np.uint32(shift)).astype(np.int64)


def ranges(starts, sizes):
    """The concatenated ranges ``starts[k] .. starts[k] + sizes[k] - 1``
    as one int64 array, in order of ``k``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    shift = np.asarray(starts, dtype=np.int64) - (ends - sizes)
    return np.arange(int(ends[-1]) if len(ends) else 0,
                     dtype=np.int64) + np.repeat(shift, sizes)
