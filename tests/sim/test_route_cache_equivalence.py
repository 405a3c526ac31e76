"""The cached fast path is observationally identical to the reference engine.

The forwarding engine's epoch-versioned route cache is a pure
optimization: for any scenario — including convergence windows where
transient loops form — the cached engine and the uncached
``ReferenceForwardingEngine`` oracle must produce the same
``PacketAudit`` stream and byte-identical pcap output.  This is the property the whole PR rests on:
the paper's Table II counts come from the monitor trace, so a single
divergent byte could change what the detector sees.
"""

from __future__ import annotations

import pytest

from repro.core.detector import LoopDetector
from repro.net.pcap import write_pcap
from repro.routing.linkstate import LinkStateTimers
from repro.sim import backbone
from repro.sim.backbone import BackboneScenario, ScenarioConfig
from tests.oracles import ReferenceForwardingEngine


def _config() -> ScenarioConfig:
    # A churn-heavy run: slow FIB installs widen the inconsistency
    # windows, IGP flaps and BGP withdrawals land while traffic flows, so
    # plenty of packets traverse mid-convergence state and loop.
    return ScenarioConfig(
        name="cache-equivalence",
        seed=23,
        pops=6,
        extra_edges=2,
        duration=60.0,
        rate_pps=200.0,
        n_prefixes=40,
        n_flows=200,
        igp_flaps=4,
        flap_downtime=(3.0, 6.0),
        bgp_withdrawals=2,
        withdrawal_holdtime=15.0,
        igp_timers=LinkStateTimers(fib_update_delay=0.4,
                                   fib_update_jitter=1.2),
    )


def _audit_stream(run):
    return [
        (a.packet_id, a.fate, a.fate_time, a.fate_router, a.hops, a.looped)
        for a in run.engine.audits
    ]


@pytest.fixture(scope="module")
def runs():
    cached = BackboneScenario(_config()).run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backbone, "ForwardingEngine", ReferenceForwardingEngine)
        reference = BackboneScenario(_config()).run()
    return {True: cached, False: reference}


class TestObservationalEquivalence:
    def test_scenario_forms_loops(self, runs):
        # The property is only interesting if convergence windows were
        # actually exercised.
        assert runs[True].ground_truth_looped > 0
        assert runs[True].ground_truth_looped == runs[False].ground_truth_looped

    def test_cache_flavours_as_configured(self, runs):
        assert not isinstance(runs[True].engine, ReferenceForwardingEngine)
        assert isinstance(runs[False].engine, ReferenceForwardingEngine)
        assert runs[True].engine.route_cache_stats()["hits"] > 0
        assert runs[False].engine.route_cache_stats()["hits"] == 0
        # Churn means the cached run must also have invalidated entries.
        assert runs[True].engine.route_cache_stats()["invalidations"] > 0

    def test_identical_packet_audit_streams(self, runs):
        assert _audit_stream(runs[True]) == _audit_stream(runs[False])

    def test_identical_fate_counts(self, runs):
        assert dict(runs[True].engine.fate_counts) == \
            dict(runs[False].engine.fate_counts)

    def test_byte_identical_pcap(self, runs, tmp_path):
        paths = {}
        for cached, run in runs.items():
            paths[cached] = tmp_path / f"cache_{cached}.pcap"
            write_pcap(run.trace, paths[cached])
        assert paths[True].read_bytes() == paths[False].read_bytes()

    def test_detector_sees_the_same_loops(self, runs):
        # Table II is derived from the trace; identical bytes must yield
        # identical detection results end-to-end.
        results = {
            cached: LoopDetector().detect(run.trace)
            for cached, run in runs.items()
        }
        assert results[True].stream_count == results[False].stream_count
        assert results[True].loop_count == results[False].loop_count

    def test_identical_minute_telemetry(self, runs):
        assert dict(runs[True].engine.queue_delay_by_minute) == \
            dict(runs[False].engine.queue_delay_by_minute)
        assert dict(runs[True].engine.transmissions_by_minute) == \
            dict(runs[False].engine.transmissions_by_minute)
