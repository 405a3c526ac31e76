"""Property suite: the chunked live feed is byte-identical to the
per-record feed.

:func:`~repro.obs.live.feed_chunk` feeds the streaming detector only
before a sample that crosses a minute (the only sampling step that reads
detector state) and at the end of each chunk, in slices of at most
``_FEED_SLICE`` records.  Hypothesis drives the same traces as
``test_property_streaming_chunk`` — loop geometry, background volume,
spans whose sparse backgrounds leave multi-minute idle gaps — together
with the source chunking and the slice cap, and every example must give
the per-record reference feed's loops, monitor state, Prometheus text
and minute-boundary log, fed chunk by chunk and as packed pairs
(:func:`~repro.obs.live.feed_pairs`).
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.net.columnar import ColumnarTrace
from repro.obs import live
from repro.obs.live import feed_chunk

from tests.obs.test_live import pair_feed, reference_feed, run_feed
from tests.property.test_property_streaming_chunk import _build, params


class TestLiveFeedEquivalence:
    @given(params, st.sampled_from([1, 32, 64, 500, 8192]))
    @settings(max_examples=30, deadline=None)
    def test_chunk_feed_matches_pair_feed(self, p, feed_slice):
        config = DetectorConfig(merge_gap=p["merge_gap"])
        chunks = ColumnarTrace.from_trace(
            _build(p), p["chunk_records"]).chunks
        expected = run_feed(chunks, [reference_feed], config)
        with mock.patch.object(live, "_FEED_SLICE", feed_slice):
            assert run_feed(chunks, [feed_chunk], config) == expected
            assert run_feed(chunks, [pair_feed, feed_chunk],
                            config) == expected
