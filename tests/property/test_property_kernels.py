"""Property suite: the step-1 kernel matches the reference oracle.

Hypothesis drives adversarial layouts at the kernel — irregular
strides, padded strides, zero-length bodies, exact duplicates,
eviction-interval boundaries, mixed regular/irregular chunks,
timestamps that tie or regress — and asserts that the vectorized
kernel returns the same streams AND the same scan stats as the oracle
in ``tests/oracles.py``.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replica import (
    ReplicaScanStats,
    detect_replicas_vectorized,
)
from repro.net.columnar import ColumnarChunk
from tests.oracles import chunk_triples, detect_replicas_indexed


def _stream_fp(stream):
    return (
        stream.key,
        stream.first_data,
        tuple((r.index, r.timestamp, r.ttl) for r in stream.replicas),
    )


def _run_tier(kernel_fn, chunks, params):
    stats = ReplicaScanStats()
    streams = kernel_fn(chunks, stats=stats, **params)
    return (
        [_stream_fp(s) for s in streams],
        (stats.records_scanned, stats.records_skipped_short,
         stats.singletons_evicted, stats.candidate_streams),
    )


def _chunk(bodies, base_index, start_time, pad, stamps=None):
    """One chunk; ``pad`` > 0 declares a padded stride when the bodies
    are uniform (the strided masking path), else the chunk is packed
    irregularly (masked record by record).  Records are 3 ms apart from
    ``start_time`` unless ``stamps`` gives their timestamps."""
    uniform = len(set(map(len, bodies))) == 1 and bodies
    stride = None
    slab = bytearray()
    offsets = array("Q")
    lengths = array("I")
    for body in bodies:
        offsets.append(len(slab))
        lengths.append(len(body))
        slab.extend(body)
        if uniform and pad:
            slab.extend(b"\xee" * pad)
    if uniform:
        stride = len(bodies[0]) + pad
    return ColumnarChunk(
        data=bytes(slab),
        timestamps=array("d", stamps if stamps is not None else [
            start_time + i * 0.003 for i in range(len(bodies))
        ]),
        offsets=offsets,
        lengths=lengths,
        base_index=base_index,
        stride=stride,
    )


# Bodies drawn from a tiny alphabet so exact duplicates (the chaining
# trigger) are common; lengths cross the MIN_CAPTURE=20 boundary and
# include zero.
body = st.one_of(
    st.binary(min_size=0, max_size=4),
    st.binary(min_size=18, max_size=22).map(
        lambda b: bytes(x % 4 for x in b)
    ),
    st.binary(min_size=40, max_size=40).map(
        lambda b: bytes(x % 3 for x in b)
    ),
)

chunk_shape = st.tuples(
    st.lists(body, min_size=0, max_size=25),
    st.integers(min_value=0, max_value=9),  # stride padding
)

layout = st.fixed_dictionaries({
    "chunks": st.lists(chunk_shape, min_size=0, max_size=6),
    "eviction_interval": st.sampled_from([0, 1, 3, 7, 100_000]),
    "max_replica_gap": st.sampled_from([0.001, 0.05, 5.0]),
    "min_ttl_delta": st.integers(min_value=1, max_value=4),
})


# Steps between consecutive timestamps: ties, the chaining gaps, float
# noise from the running sum, and regressions, some of more than the
# gap, which cut chains across eviction boundaries.
time_step = st.sampled_from([0.0, 0.001, 0.003, 0.05, 0.0499, 1.0,
                             -0.002, -0.05, -1.0])


class TestKernelTierEquivalence:
    @given(layout)
    @settings(max_examples=60, deadline=None)
    def test_three_tiers_byte_identical(self, params):
        self._check(params, None)

    @given(layout, st.lists(time_step, min_size=150, max_size=150),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_three_tiers_byte_identical_any_timestamps(self, params,
                                                        steps, regress):
        if not regress:
            steps = [abs(step) for step in steps]
        self._check(params, steps)

    def _check(self, params, steps):
        chunks = []
        base = 0
        now = 0.0
        for bodies, pad in params["chunks"]:
            stamps = None
            if steps is not None:
                stamps = []
                for i in range(len(bodies)):
                    now += steps[base + i]
                    stamps.append(now)
            chunks.append(_chunk(bodies, base, base * 0.003, pad, stamps))
            base += len(bodies)
        kernel_params = {
            "min_ttl_delta": params["min_ttl_delta"],
            "max_replica_gap": params["max_replica_gap"],
            "eviction_interval": params["eviction_interval"],
        }

        ref_stats = ReplicaScanStats()
        triples = chunk_triples(chunks)
        reference = (
            [_stream_fp(s) for s in detect_replicas_indexed(
                triples, stats=ref_stats, **kernel_params)],
            (ref_stats.records_scanned, ref_stats.records_skipped_short,
             ref_stats.singletons_evicted, ref_stats.candidate_streams),
        )
        vectorized = _run_tier(detect_replicas_vectorized, chunks,
                               kernel_params)
        assert vectorized == reference
