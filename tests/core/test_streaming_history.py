"""The streaming detector's step-2 history against a linear-scan oracle.

Per-/24 histories are appended in time order, so the detector bisects
them for the prefix-consistency window and for pruning.  The oracles
below are the straightforward scans over the whole history; the
bisected versions must agree with them on every history, including
timestamp ties at the pruning horizon and at the window edges.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.core.streaming import StreamingLoopDetector

PREFIX = 7
OTHER = 9

#: Exact binary fractions, so ``now - (merge_gap + max_replica_gap)``
#: lands exactly on a grid timestamp and ties at the horizon happen.
CONFIG = DetectorConfig(merge_gap=1.5, max_replica_gap=0.5)


def oracle_window_has_non_member(history, members, start, end):
    for timestamp, index in history:
        if start <= timestamp <= end and index not in members:
            return True
    return False


def oracle_prune_history(histories, members_by_prefix, prefix_net, now,
                         config):
    if now == float("inf"):
        histories.pop(prefix_net, None)
        members_by_prefix.pop(prefix_net, None)
        return
    horizon = now - (config.merge_gap + config.max_replica_gap)
    history = histories.get(prefix_net)
    if not history:
        return
    kept = [(t, i) for t, i in history if t >= horizon]
    dropped = {i for t, i in history if t < horizon}
    if kept:
        histories[prefix_net] = kept
    else:
        del histories[prefix_net]
    members = members_by_prefix.get(prefix_net)
    if members:
        members -= dropped
        if not members:
            members_by_prefix.pop(prefix_net, None)


grid_time = st.integers(0, 24).map(lambda step: step * 0.25)


@st.composite
def histories(draw):
    """A time-ordered history with rising indices (ties in time are
    common), and members drawn from its indices."""
    times = sorted(draw(st.lists(grid_time, max_size=40)))
    index = draw(st.integers(0, 5))
    history = []
    for timestamp in times:
        history.append((timestamp, index))
        index += draw(st.integers(1, 3))
    members = {i for _, i in history if draw(st.booleans())}
    return history, members


def _detector(history, members):
    detector = StreamingLoopDetector(CONFIG)
    if history:
        detector._history[PREFIX] = list(history)
        detector._history[OTHER] = [(0.0, 1), (6.0, 2)]
    if members:
        detector._members[PREFIX] = set(members)
        detector._members[OTHER] = {2}
    return detector


class TestWindowHasNonMember:
    @given(state=histories(), start=grid_time, end=grid_time)
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, state, start, end):
        history, members = state
        detector = _detector(history, members)
        assert detector._window_has_non_member(PREFIX, start, end) == (
            oracle_window_has_non_member(history, members, start, end)
        )

    def test_window_edges_are_inclusive(self):
        detector = _detector([(1.0, 0), (2.0, 1), (2.0, 2), (3.0, 3)],
                             {0, 1, 3})
        assert detector._window_has_non_member(PREFIX, 2.0, 2.0)
        assert detector._window_has_non_member(PREFIX, 0.0, 2.0)
        assert not detector._window_has_non_member(PREFIX, 2.5, 3.0)
        assert not detector._window_has_non_member(PREFIX, 0.0, 1.5)

    def test_unknown_prefix(self):
        assert not StreamingLoopDetector()._window_has_non_member(
            PREFIX, 0.0, 10.0)


class TestPruneHistory:
    @given(state=histories(), horizon=grid_time,
           flush=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, state, horizon, flush):
        history, members = state
        now = (float("inf") if flush
               else horizon + CONFIG.merge_gap + CONFIG.max_replica_gap)
        detector = _detector(history, members)
        expected_history = {k: list(v) for k, v in detector._history.items()}
        expected_members = {k: set(v) for k, v in detector._members.items()}
        oracle_prune_history(expected_history, expected_members, PREFIX,
                             now, CONFIG)
        detector._prune_history(PREFIX, now)
        assert detector._history == expected_history
        assert detector._members == expected_members

    def test_tie_at_horizon_is_kept(self):
        detector = _detector([(1.0, 0), (2.0, 1), (2.0, 2), (3.0, 3)],
                             {0, 1, 2, 3})
        detector._prune_history(PREFIX, 2.0 + 2.0)
        assert detector._history[PREFIX] == [(2.0, 1), (2.0, 2), (3.0, 3)]
        assert detector._members[PREFIX] == {1, 2, 3}

    def test_detector_feed_matches_oracle(self):
        """Through a real feed: prune every prefix on a fresh copy of the
        detector's state with both versions and compare."""
        from repro.net.addr import IPv4Prefix
        from repro.traffic.synthetic import SyntheticTraceBuilder

        builder = SyntheticTraceBuilder(rng=random.Random(11))
        prefix = IPv4Prefix.parse("192.0.2.0/24")
        builder.add_background(400, 0.0, 200.0, prefixes=[prefix])
        for start in (20.0, 90.0, 150.0):
            builder.add_loop(start, prefix, n_packets=3,
                             replicas_per_packet=5, spacing=0.01,
                             packet_gap=0.012, entry_ttl=40)
        detector = StreamingLoopDetector()
        for record in builder.build():
            detector.process(record.timestamp, record.data)
            if detector.stats.records % 97:
                continue
            histories_copy = {k: list(v)
                              for k, v in detector._history.items()}
            members_copy = {k: set(v) for k, v in detector._members.items()}
            now = record.timestamp
            for prefix_net in list(histories_copy):
                oracle_prune_history(histories_copy, members_copy,
                                     prefix_net, now, detector.config)
            probe = StreamingLoopDetector(detector.config)
            probe._history = {k: list(v)
                              for k, v in detector._history.items()}
            probe._members = {k: set(v)
                              for k, v in detector._members.items()}
            for prefix_net in list(probe._history):
                probe._prune_history(prefix_net, now)
            assert probe._history == histories_copy
            assert probe._members == members_copy
