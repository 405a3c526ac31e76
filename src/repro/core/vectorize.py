"""numpy building blocks for the vectorized step-1 kernel, the prefix
index and the batched streaming tier.

The central primitive is :func:`hash_rows`, a per-row 64-bit hash of a
2-D ``uint8`` array, used by the vectorized kernel's duplicate filter.
Each row is padded to a multiple of 8 bytes, viewed as ``uint64``
words, and dotted with a fixed table of random odd weights (mod 2**64).
Equal rows always hash equal — that is the property the filter's
correctness rests on; collisions merely cost a little pass-2 work (see
:func:`~repro.core.replica.detect_replicas_vectorized`).
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


def hash_rows(rows):
    """Per-row 64-bit hashes of a C-contiguous ``(n, length)`` uint8
    array.  Equal rows hash equal; the row length participates via the
    word count, and rows of different lengths are never compared by the
    callers anyway (different lengths mean different keys)."""
    n, length = rows.shape
    padded_len = (length + 7) & ~7
    if padded_len != length:
        padded = np.zeros((n, padded_len), dtype=np.uint8)
        padded[:, :length] = rows
    else:
        padded = np.ascontiguousarray(rows)
    words = padded.view(np.uint64)
    weights = hash_weights(words.shape[1])
    # Element-wise multiply + sum keeps everything in wrapping uint64
    # arithmetic (matmul would not).
    return (words * weights).sum(axis=1, dtype=np.uint64)


#: IPv4 header offsets mirrored from :mod:`repro.core.replica` — the
#: mutable fields the masked key zeroes (TTL, header checksum).
_TTL_OFFSET = 8
_CHECKSUM_OFFSET = 10


def masked_rows(data, first: int, n: int, stride: int, length: int):
    """View a stride-regular slab as records and mask the mutable fields.

    Returns ``(rows, masked, ttls)``: ``rows`` is a zero-copy strided
    ``(n, length)`` uint8 view of the slab starting at byte ``first``;
    ``masked`` is a contiguous copy with the TTL and checksum bytes
    zeroed, so ``masked[i].tobytes()`` equals
    :func:`~repro.core.replica.mask_mutable_fields` of record ``i``; and
    ``ttls`` is the original TTL column.  This is the shared pass-1 slab
    preparation of the vectorized offline kernel and the batched
    streaming tier.
    """
    span = (n - 1) * stride + length
    region = np.frombuffer(data, dtype=np.uint8, offset=first, count=span)
    rows = np.lib.stride_tricks.as_strided(
        region, shape=(n, length), strides=(stride, 1)
    )
    # .copy() (not ascontiguousarray) — the region buffer is read-only
    # and an already-contiguous view would be returned as-is.
    masked = rows.copy()
    ttls = masked[:, _TTL_OFFSET].copy()
    masked[:, _TTL_OFFSET] = 0
    masked[:, _CHECKSUM_OFFSET] = 0
    masked[:, _CHECKSUM_OFFSET + 1] = 0
    return rows, masked, ttls


def dst_prefixes(masked, shift: int):
    """Per-row destination /N prefix of a ``(n, length)`` uint8 record
    matrix: the big-endian uint32 at bytes 16..20 shifted right by
    ``shift`` — one value per record, matching the scalar
    ``int.from_bytes(data[16:20], "big") >> shift``."""
    dst = np.ascontiguousarray(masked[:, 16:20]).view(">u4").ravel()
    return (dst.astype(np.uint32) >> np.uint32(shift)).astype(np.int64)


def ranges(starts, sizes):
    """The concatenated ranges ``starts[k] .. starts[k] + sizes[k] - 1``
    as one int64 array, in order of ``k``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    shift = np.asarray(starts, dtype=np.int64) - (ends - sizes)
    return np.arange(int(ends[-1]) if len(ends) else 0,
                     dtype=np.int64) + np.repeat(shift, sizes)
