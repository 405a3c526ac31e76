"""numpy building blocks for the vectorized step-1 kernel, the prefix
index and the batched streaming tier.

Records are read where they lie: a *slab* is any buffer holding ``n``
records of ``length`` bytes, record ``i`` at byte ``first + i *
stride`` (a contiguous ``(n, length)`` matrix is the slab whose stride
is its length, and records at arbitrary byte offsets are rows of the
slab whose stride is 1).  Each primitive reads its columns straight off
the slab as strided views, so no pass over all records copies them.

A record's *masked key* (TTL and header checksum zeroed) is read as
little-endian ``uint64`` words, the last one zero-padded
(:func:`key_word`).  :func:`hash_rows` dots those words with a fixed
table of odd weights (mod 2**64): a per-record 64-bit hash, used by the
duplicate filter of the step-1 kernel and of the batched streaming
tier.  Equal masked records always hash equal — that is the property
the filter's correctness rests on; collisions merely cost a little
pass-2 work (see
:func:`~repro.core.replica.detect_replicas_vectorized`).
:func:`shared` finds the hashes that may repeat, and groups them, with
one sort.
"""

from __future__ import annotations

import numpy as np

#: Seed of the hash weight table.  The hash is process-internal (it
#: never crosses a process boundary and nothing observable depends on
#: its values), but a fixed seed keeps runs reproducible under perf
#: tooling.
_WEIGHT_SEED = 0x51F15EED

#: The weight table grows a block at a time.  Weight ``i`` is a
#: function of ``i`` alone, so growing the table NEVER changes the
#: weights already handed out — two hashes of the same bytes must agree
#: even when one was computed before the table grew.
_WEIGHT_BLOCK = 64

_weights = np.empty(0, dtype=np.uint64)

#: Word 1 of a record (bytes 8..15, little-endian) with the mutable
#: fields zeroed: the TTL (byte 8) and the header checksum (bytes 10
#: and 11).
_WORD1_MASK = np.uint64(0xFFFF_FFFF_0000_FF00)


def _splitmix64(x):
    """The splitmix64 finalizer of the uint64 array ``x``."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58_476D_1CE4_E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D0_49BB_1331_11EB)
    return x ^ (x >> np.uint64(31))


def hash_weights(words: int):
    """The first ``words`` hash weights: odd uint64s, weight ``i`` the
    splitmix64 output number ``i + 1`` from :data:`_WEIGHT_SEED`."""
    global _weights
    if len(_weights) < words:
        size = -(-words // _WEIGHT_BLOCK) * _WEIGHT_BLOCK
        steps = np.arange(1, size + 1, dtype=np.uint64)
        _weights = _splitmix64(
            np.uint64(_WEIGHT_SEED) + steps * np.uint64(0x9E37_79B9_7F4A_7C15)
        ) | np.uint64(1)
    return _weights[:words]


def column(data, offset: int, n: int, stride: int, dtype):
    """A zero-copy view of ``n`` values of ``dtype``, value ``i`` at
    byte ``offset + i * stride`` of the buffer ``data``."""
    return np.ndarray((n,), dtype=dtype, buffer=data, offset=offset,
                      strides=(stride,))


def key_word(data, first: int, n: int, stride: int, length: int, w: int,
             rows=None, out=None):
    """Word ``w`` of the masked key of each of a slab's ``n`` records of
    ``length`` bytes (at least 16), as a little-endian uint64: word 1
    without the TTL and checksum, the last word zero-padded, 0 past the
    key.

    With ``rows``, of those records only, in that order (one gather);
    otherwise a word that needs no mask is a view of the slab, and one
    that does is written to ``out`` when given.
    """
    full, rest = divmod(length, 8)
    if 8 * w >= length:
        return np.zeros(n if rows is None else len(rows), dtype=np.uint64)
    # The word ending at the record's last byte holds the tail in its
    # top bytes; shifted down, it is the zero-padded last word.
    words = column(data, first + min(8 * w, length - 8), n, stride, "<u8")
    if rows is not None:
        words = out = words[rows]
    if w == 1:
        return np.bitwise_and(words, _WORD1_MASK, out=out)
    if w == full:
        return np.right_shift(words, np.uint64(64 - 8 * rest), out=out)
    return words


def hash_rows(data, first: int, n: int, stride: int, length: int):
    """Per-record 64-bit hashes of the masked keys of a slab's ``n``
    records of ``length`` bytes (at least 16).

    Equal masked records hash equal, and an already-masked record
    hashes like the record it came from.  The record length takes part
    via the word count only: records of different lengths may hash
    equal, and the callers' exact key check tells them apart.
    """
    out = np.zeros(n, dtype=np.uint64)
    if not n:
        return out
    words = -(-length // 8)
    weights = hash_weights(words)
    term = np.empty(n, dtype=np.uint64)
    for w in range(words):
        np.multiply(key_word(data, first, n, stride, length, w, out=term),
                    weights[w], out=term)
        out += term
    return out


def _position_bits(n: int) -> int:
    """Bits that hold a position below ``n``."""
    return max(n - 1, 1).bit_length()


def shared(hashes):
    """The entries of the uint64 array ``hashes`` whose value may
    repeat, grouped: ``(order, keys)``.

    One in-place sort of ``(hash & ~low) | position`` words, ``low`` the
    bits positions need.  ``order`` are the positions of the entries
    whose high bits (``hash & ~low``) another entry has, sorted by those
    bits and, within them, by position; ``keys`` are each one's high
    bits, so a group of entries sharing them is a run of equal ``keys``.
    Every repeated value is in one group; truncating the hashes can only
    put more entries, and more values, in a group.
    """
    n = len(hashes)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint64)
    low = np.uint64((1 << _position_bits(n)) - 1)
    words = hashes & ~low
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    same = (words[1:] ^ words[:-1]) <= low
    pair = np.zeros(n, dtype=bool)
    pair[1:] = same
    pair[:-1] |= same
    words = words[pair]
    order = (words & low).astype(np.intp)
    words &= ~low
    return order, words


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


def chunk_prefixes(chunk, shift: int, rows=None):
    """:func:`dst_prefixes` of the records of a
    :class:`~repro.net.columnar.ColumnarChunk` (of its records ``rows``
    only, when given), each at least 20 bytes long: off a strided view
    when the chunk declares a stride, else one 4-byte gather."""
    if chunk.stride is not None and rows is None:
        return dst_prefixes(chunk.data, chunk.offsets[0], len(chunk),
                            chunk.stride, shift)
    offsets = np.asarray(chunk.offsets, dtype=np.int64)
    if rows is not None:
        offsets = offsets[rows]
    dst = gather(chunk.data, offsets + 16, 4).view(">u4").ravel()
    return (dst >> np.uint32(shift)).astype(np.int64)


def ranges(starts, sizes):
    """The concatenated ranges ``starts[k] .. starts[k] + sizes[k] - 1``
    as one int64 array, in order of ``k``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    shift = np.asarray(starts, dtype=np.int64) - (ends - sizes)
    return np.arange(int(ends[-1]) if len(ends) else 0,
                     dtype=np.int64) + np.repeat(shift, sizes)
