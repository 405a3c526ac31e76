"""Tests for the LiveMonitor glue: feeding styles, boundaries, state."""

from __future__ import annotations

import pytest

import math
from bisect import bisect_left

from repro.core.serialize import loop_to_dict
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.obs import live
from repro.obs.alerts import AlertEngine, default_rules, looped_loss_share_rule
from repro.obs.live import LiveMonitor, attach_detector, feed_chunk, feed_pairs
from repro.obs.metrics import MetricsRegistry
from repro.net.trace import TraceRecord

from tests.obs.test_recorder import make_loop
from tests.oracles import ReferenceStreamingDetector, reference_feed_pairs


def monitored_chain(config=None, detector=StreamingLoopDetector):
    """A streaming ``detector`` wired to a monitor with a registry and
    the default alert rules, plus a log of what every minute-boundary
    call saw: ``(now, records, detector snapshot, registry snapshot)``."""
    registry = MetricsRegistry(enabled=True)
    monitor = LiveMonitor(registry=registry,
                          alert_engine=AlertEngine(rules=default_rules()))
    streaming = detector(config)
    streaming.register_metrics(registry)
    attach_detector(monitor, streaming)
    log = []
    on_boundary = monitor._on_boundary

    def spy(now):
        log.append((now, streaming.stats.records,
                    streaming.state_snapshot(), registry.snapshot()))
        return on_boundary(now)

    monitor._on_boundary = spy
    return streaming, monitor, log


def pair_feed(streaming, monitor, chunk):
    """:func:`feed_pairs` over one chunk's ``(timestamp, data)``
    pairs."""
    return feed_pairs(streaming, monitor, chunk.iter_views())


def reference_feed(streaming, monitor, chunk):
    """The record-by-record reference feed over one chunk."""
    return reference_feed_pairs(streaming, monitor, chunk.iter_views())


def run_feed(chunks, feeds, config=None) -> dict:
    """Feed ``chunks[i]`` through ``feeds[i % len(feeds)]``, flush and
    finish; returns everything the monitor and detector expose.  The
    :func:`reference_feed` alone runs the per-record reference
    detector."""
    streaming, monitor, log = monitored_chain(
        config, ReferenceStreamingDetector if feeds == [reference_feed]
        else StreamingLoopDetector)
    loops = []
    for i, chunk in enumerate(chunks):
        loops.extend(feeds[i % len(feeds)](streaming, monitor, chunk))
    loops.extend(streaming.flush())
    monitor.finish()
    return {
        "loops": [loop_to_dict(loop) for loop in loops],
        "boundaries": log,
        "state": monitor.state(),
        "prometheus": monitor.render_prometheus(),
    }


class TestDirectFeed:
    def test_records_and_loops_reach_recorder(self):
        monitor = LiveMonitor()
        for t in (1.0, 2.0, 61.0):
            monitor.observe_record(t)
        monitor.observe_loop(make_loop(start=2.0, replicas=3))
        assert monitor.recorder.records == 3
        assert monitor.recorder.minute_records.get(1) == 1
        assert len(monitor.recorder.loops) == 1

    def test_minute_boundary_evaluates_alerts(self):
        engine = AlertEngine(rules=[looped_loss_share_rule(0.05)])
        monitor = LiveMonitor(alert_engine=engine)
        for _ in range(10):
            monitor.observe_record(5.0)
        monitor.observe_loop(make_loop(start=5.0, replicas=3))
        assert engine.fired_total == 0  # minute still open
        monitor.observe_record(65.0)  # crossing evaluates minute 0
        assert engine.fired_total == 1

    def test_out_of_order_counted_and_banked(self):
        monitor = LiveMonitor()
        monitor.observe_record(70.0)
        monitor.observe_record(5.0)  # regression into minute 0
        assert monitor.out_of_order == 1
        assert monitor.recorder.minute_records.get(0) == 1
        assert monitor.recorder.minute_records.get(1) == 1

    def test_finish_closes_final_minute(self):
        engine = AlertEngine(rules=[looped_loss_share_rule(0.05)])
        monitor = LiveMonitor(alert_engine=engine)
        for _ in range(10):
            monitor.observe_record(5.0)
        monitor.observe_loop(make_loop(start=5.0, replicas=3))
        monitor.finish()
        assert monitor.finished
        assert engine.fired_total == 1

    def test_finish_is_idempotent(self):
        engine = AlertEngine(rules=[looped_loss_share_rule(0.05)])
        monitor = LiveMonitor(alert_engine=engine)
        for _ in range(10):
            monitor.observe_record(5.0)
        monitor.observe_loop(make_loop(start=5.0, replicas=3))
        monitor.finish()
        monitor.finish()
        assert engine.fired_total == 1


class TestSampledFeed:
    def _feed(self, monitor: LiveMonitor, timestamps: list[float],
              counter: list[int]) -> None:
        """The hot-loop protocol: compare against next_boundary, sample
        before processing the crossing record."""
        boundary = monitor.next_boundary
        for timestamp in timestamps:
            if timestamp >= boundary:
                boundary = monitor.sample(timestamp)
            counter[0] += 1  # "process" the record

    def test_windows_match_direct_feed_exactly(self):
        timestamps = [0.1, 0.5, 1.2, 3.7, 3.9, 64.0, 64.2, 130.0]
        direct = LiveMonitor()
        for t in timestamps:
            direct.observe_record(t)
        direct.finish()

        counter = [0]
        sampled = LiveMonitor()
        sampled.set_record_source(lambda: counter[0])
        self._feed(sampled, timestamps, counter)
        sampled.finish()

        assert sampled.recorder.records == direct.recorder.records == 8
        for minute in (0, 1, 2):
            assert (sampled.recorder.minute_records.get(minute)
                    == direct.recorder.minute_records.get(minute))
        for second in (0, 1, 3, 64, 130):
            assert (sampled.recorder.second_records.get(second)
                    == direct.recorder.second_records.get(second))

    def test_idle_gap_attribution(self):
        # Records in second 2, silence, then second 9: the pending
        # delta banks into second 2, never smeared into the gap.
        counter = [0]
        monitor = LiveMonitor()
        monitor.set_record_source(lambda: counter[0])
        self._feed(monitor, [2.0, 2.5, 2.9, 9.1], counter)
        monitor.finish()
        assert monitor.recorder.second_records.get(2) == 3
        assert monitor.recorder.second_records.get(9) == 1
        for second in range(3, 9):
            assert monitor.recorder.second_records.get(second) == 0

    def test_boundary_work_fires_on_minute_advance(self):
        engine = AlertEngine(rules=[looped_loss_share_rule(0.05)])
        counter = [0]
        monitor = LiveMonitor(alert_engine=engine)
        monitor.set_record_source(lambda: counter[0])
        timestamps = [float(t) for t in range(0, 10)]
        self._feed(monitor, timestamps, counter)
        monitor.observe_loop(make_loop(start=5.0, replicas=3))
        self._feed(monitor, [62.0, 63.0], counter)
        monitor.finish()
        assert engine.fired_total == 1
        assert engine.history[0].key == "minute:0"

    def test_pending_records_bank_as_if_fed(self):
        timestamps = [1.0, 1.2, 1.4, 2.5, 61.0, 62.0]
        counter = [0]
        fed = LiveMonitor()
        fed.set_record_source(lambda: counter[0])
        self._feed(fed, timestamps, counter)
        fed.finish()

        lazy_counter = [0]
        lazy = LiveMonitor()
        lazy.set_record_source(lambda: lazy_counter[0])
        lazy.sample(1.0)
        lazy.sample(2.5, pending=3)
        assert not lazy.boundary_due()
        lazy.sample(61.0, pending=4)
        # Second 61 opens minute 1: the records must be fed first.
        assert lazy.boundary_due()
        lazy_counter[0] = 5
        lazy.sample(62.0)
        lazy_counter[0] = 6
        lazy.finish()

        assert lazy.recorder.snapshot() == fed.recorder.snapshot()

    def test_registry_counters_sampled_on_boundary(self):
        registry = MetricsRegistry(enabled=True)
        external = registry.counter("external_total", "external")
        counter = [0]
        monitor = LiveMonitor(registry=registry)
        monitor.set_record_source(lambda: counter[0])
        self._feed(monitor, [1.0], counter)
        external.inc(7)
        self._feed(monitor, [65.0, 125.0], counter)
        monitor.finish()
        deltas = monitor.recorder.counter_deltas["external_total"]
        assert sum(deltas.counts.values()) == 7


class TestState:
    def test_state_sources_merge_into_snapshot(self):
        monitor = LiveMonitor()
        monitor.add_state_source("detector", lambda: {"open": 3})
        monitor.observe_record(1.0)
        state = monitor.state()
        assert state["detector"] == {"open": 3}
        assert state["recorder"]["records"] == 1
        assert state["alerts"] == []
        assert state["finished"] is False
        assert state["out_of_order"] == 0

    def test_samples_snapshot(self):
        monitor = LiveMonitor()
        monitor.observe_loop(make_loop(replicas=4, spacing=0.5))
        samples = monitor.samples()
        assert samples["stream_sizes"] == (4,)
        assert samples["stream_durations"] == (pytest.approx(1.5),)
        assert len(samples["replica_spacings"]) == 3
        assert samples["loop_durations"] == (pytest.approx(1.5),)

    def test_registry_registers_alert_metrics(self):
        registry = MetricsRegistry(enabled=True)
        monitor = LiveMonitor(registry=registry)
        assert "alerts_fired_total" in registry.snapshot()["counters"]
        assert monitor.render_prometheus().startswith("# HELP")

    def test_render_prometheus_empty_without_registry(self):
        assert LiveMonitor().render_prometheus() == ""


def _gappy_trace():
    """Background with multi-minute idle gaps, and loops whose replicas
    straddle a minute boundary."""
    import random

    from repro.traffic.synthetic import SyntheticTraceBuilder

    background = [IPv4Prefix.parse("198.51.100.0/24")]
    builder = SyntheticTraceBuilder(rng=random.Random(5))
    builder.add_background(300, 0.0, 100.0, prefixes=background)
    builder.add_background(300, 400.0, 520.0, prefixes=background)
    builder.add_background(200, 1000.0, 1100.0, prefixes=background)
    for start, net in ((59.9, "192.0.2.0/24"), (419.95, "203.0.113.0/24"),
                       (1079.99, "192.0.2.0/24")):
        builder.add_loop(start, IPv4Prefix.parse(net), n_packets=4,
                         replicas_per_packet=6, spacing=0.03,
                         entry_ttl=40)
    return builder.build()


class TestChunkFeed:
    """feed_chunk feeds the detector only where a sample reads its
    state, yet every output — loops, monitor state, Prometheus text and
    what each minute-boundary call sees — equals the per-record
    feed_pairs."""

    def _trace(self):
        import random

        from repro.traffic.synthetic import SyntheticTraceBuilder

        builder = SyntheticTraceBuilder(rng=random.Random(11))
        builder.add_background(
            400, 0.0, 300.0,
            prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
        builder.add_loop(30.0, IPv4Prefix.parse("192.0.2.0/24"),
                         n_packets=3, replicas_per_packet=6,
                         spacing=0.01, entry_ttl=40)
        builder.add_loop(150.0, IPv4Prefix.parse("203.0.113.0/24"),
                         n_packets=2, replicas_per_packet=5,
                         spacing=0.05, entry_ttl=50)
        return builder.build()

    def test_matches_pair_feed_exactly(self):
        trace = self._trace()
        columnar = ColumnarTrace.from_trace(trace, chunk_records=128)

        ref_streaming, ref_monitor, _ = monitored_chain(
            detector=ReferenceStreamingDetector)
        ref_loops = []
        for chunk in columnar.chunks:
            ref_loops.extend(reference_feed(ref_streaming, ref_monitor,
                                            chunk))
        ref_loops.extend(ref_streaming.flush())
        ref_monitor.finish()

        streaming, monitor, _ = monitored_chain()
        loops = []
        for chunk in columnar.chunks:
            loops.extend(feed_chunk(streaming, monitor, chunk))
        loops.extend(streaming.flush())
        monitor.finish()

        assert len(loops) == len(ref_loops) == 2
        assert [l.prefix for l in loops] == [l.prefix for l in ref_loops]
        assert monitor.recorder.records == ref_monitor.recorder.records
        assert monitor.recorder.minute_records \
            == ref_monitor.recorder.minute_records
        assert monitor.state() == ref_monitor.state()
        assert streaming.state_snapshot() \
            == ref_streaming.state_snapshot()

    @pytest.mark.parametrize("feed_slice", [64, live._FEED_SLICE])
    @pytest.mark.parametrize("chunk_records", [1, 31, 32, 128, None])
    @pytest.mark.parametrize("gappy", [False, True],
                             ids=["steady", "gappy"])
    def test_boundary_log_matches_pair_feed(self, monkeypatch, gappy,
                                            chunk_records, feed_slice):
        monkeypatch.setattr(live, "_FEED_SLICE", feed_slice)
        trace = _gappy_trace() if gappy else self._trace()
        chunks = ColumnarTrace.from_trace(
            trace, chunk_records=chunk_records or len(trace)).chunks
        expected = run_feed(chunks, [reference_feed])
        assert len(expected["boundaries"]) >= 4
        assert len(expected["loops"]) >= 2
        assert run_feed(chunks, [feed_chunk]) == expected

    @pytest.mark.parametrize("chunk_records", [31, 128])
    def test_mixed_pair_and_chunk_batches(self, monkeypatch,
                                          chunk_records):
        monkeypatch.setattr(live, "_FEED_SLICE", 64)
        chunks = ColumnarTrace.from_trace(
            _gappy_trace(), chunk_records=chunk_records).chunks
        expected = run_feed(chunks, [reference_feed])
        assert run_feed(chunks, [pair_feed]) == expected
        assert run_feed(chunks, [feed_chunk, pair_feed]) == expected
        assert run_feed(chunks, [pair_feed, feed_chunk]) == expected

    def _check_regressing_chunk(self, regress):
        """Feed a first chunk, then a later one that regresses in time at
        its ``regress``-th record (0: it starts before the detector's
        last record), through the reference, chunk and pair feeds; each
        must reject it and leave the monitor and the detector exactly
        as the per-record feed leaves them at the raise."""
        records = list(self._trace())
        first = ColumnarChunk.from_records(
            r for r in records if r.timestamp < 100.0)
        later = [r for r in records
                 if r.timestamp >= (100.0 if regress else 50.0)]
        if regress:
            stale = later[regress]
            later[regress] = TraceRecord(later[regress - 1].timestamp - 1.0,
                                         stale.data, stale.wire_length)
        overlapping = ColumnarChunk.from_records(later)
        seen = []
        for feed in (reference_feed, feed_chunk, pair_feed):
            streaming, monitor, log = monitored_chain(
                detector=ReferenceStreamingDetector
                if feed is reference_feed else StreamingLoopDetector)
            feed(streaming, monitor, first)
            with pytest.raises(ValueError, match="time-ordered"):
                feed(streaming, monitor, overlapping)
            seen.append((monitor.state(), log, streaming.stats.records))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][2] == len(first) + regress

    def test_regressing_chunk_banks_what_pair_feed_banks(self):
        # The second chunk starts before the detector's last record and
        # runs on across several minutes, so the detector rejects it.
        self._check_regressing_chunk(0)

    def test_chunk_regressing_midway_banks_what_pair_feed_banks(self):
        # The second chunk runs on across several minutes and regresses
        # at its 150th record, so the records before it are fed first.
        self._check_regressing_chunk(150)

    def test_one_call_per_capped_slice_between_minutes(self, monkeypatch):
        import random

        from repro.traffic.synthetic import SyntheticTraceBuilder

        feed_slice = 1024
        monkeypatch.setattr(live, "_FEED_SLICE", feed_slice)
        builder = SyntheticTraceBuilder(rng=random.Random(3))
        builder.add_background(
            20_000, 0.0, 300.0,
            prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
        (chunk,) = ColumnarTrace.from_trace(
            builder.build(), chunk_records=20_000).chunks
        streaming, monitor, _ = monitored_chain()
        sizes = []
        process_chunk = streaming.process_chunk

        def counted(sub):
            sizes.append(len(sub))
            return process_chunk(sub)

        monkeypatch.setattr(streaming, "process_chunk", counted)
        feed_chunk(streaming, monitor, chunk)

        # The detector catches up before the sample that banks the first
        # second of each new minute, and once at the end of the chunk.
        ts = list(chunk.timestamps)
        cuts = [0]
        for minute in range(1, 5):
            second = int(ts[bisect_left(ts, 60.0 * minute)])
            cuts.append(bisect_left(ts, second + 1.0))
        cuts.append(len(ts))
        ranges = [b - a for a, b in zip(cuts, cuts[1:])]
        assert len(sizes) == sum(math.ceil(r / feed_slice) for r in ranges)
        assert len(sizes) < 30  # per-second slicing would make ~300
        assert max(sizes) <= feed_slice
        assert sum(sizes) == len(ts) == streaming.stats.records
