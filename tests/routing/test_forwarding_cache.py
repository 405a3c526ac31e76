"""Tests for the forwarding engine's epoch-versioned route cache.

The cache trades per-hop control-plane resolution for a dict hit, so the
load-bearing property is *invalidation*: any FIB install/withdraw or SPF
recomputation must bump an epoch and force re-resolution before the next
packet is forwarded.  These tests drive mutations mid-flight and assert
the behaviour through the engine's hit/miss/invalidation counters and
through the routes packets actually take.
"""

import random

import pytest

from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.packet import IPv4Header, Packet, UdpHeader
from repro.routing.bgp import BgpProcess
from repro.routing.events import EventScheduler
from repro.routing.forwarding import ForwardingEngine, PacketFate
from repro.routing.linkstate import LinkStateProtocol
from repro.routing.topology import Topology, line_topology
from tests.oracles import ReferenceForwardingEngine

PREFIX = IPv4Prefix.parse("192.0.2.0/24")
SPECIFIC = IPv4Prefix.parse("192.0.2.0/28")


def _packet(dst="192.0.2.5", src="10.1.1.1", sport=1000, ident=1):
    ip = IPv4Header(src=IPv4Address.parse(src), dst=IPv4Address.parse(dst),
                    ttl=64, identification=ident)
    return Packet.build(ip, UdpHeader(src_port=sport, dst_port=53), b"data")


def _stack(topo, egresses, seed=1, engine_class=ForwardingEngine,
           **engine_kwargs):
    scheduler = EventScheduler()
    igp = LinkStateProtocol(topo, scheduler, rng=random.Random(seed))
    bgp = BgpProcess(topo, scheduler, igp, rng=random.Random(seed + 1))
    for prefix, egress in egresses:
        bgp.originate(prefix, egress)
    igp.start()
    bgp.start()
    scheduler.run(until=30.0)  # converge before measuring cache behaviour
    engine = engine_class(topo, scheduler, igp, bgp,
                          rng=random.Random(seed + 2), **engine_kwargs)
    return scheduler, igp, bgp, engine


class TestSteadyState:
    def test_repeat_flow_hits_after_first_miss(self):
        scheduler, _, _, engine = _stack(line_topology(4), [(PREFIX, "R3")])
        for i in range(5):
            engine.inject(_packet(ident=i), "R0")
            scheduler.run(until=scheduler.now + 5.0)
        # The first packet resolves once per router it touches (three
        # forwarding hops plus the delivery consult at R3); every later
        # packet of the flow hits the cache at all four.
        assert engine.cache_misses == 4
        assert engine.cache_hits == 4 * 4
        assert engine.cache_invalidations == 0
        assert engine.fate_counts[PacketFate.DELIVERED] == 5

    def test_distinct_destinations_are_distinct_entries(self):
        scheduler, _, _, engine = _stack(line_topology(3), [(PREFIX, "R2")])
        engine.inject(_packet(dst="192.0.2.5"), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        misses = engine.cache_misses
        engine.inject(_packet(dst="192.0.2.6"), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        assert engine.cache_misses == misses * 2  # re-resolved per hop

    def test_disabled_cache_counts_nothing(self):
        scheduler, _, _, engine = _stack(
            line_topology(3), [(PREFIX, "R2")],
            engine_class=ReferenceForwardingEngine)
        engine.inject(_packet(), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        stats = engine.route_cache_stats()
        assert stats["hits"] == stats["misses"] == 0
        assert engine.fate_counts[PacketFate.DELIVERED] == 1


class TestFibInvalidation:
    def test_install_mid_flight_forces_reresolution(self):
        scheduler, _, bgp, engine = _stack(line_topology(3), [(PREFIX, "R2")])
        engine.inject(_packet(), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        hits_before, misses_before = engine.cache_hits, engine.cache_misses

        # A more-specific route appears at R0: its FIB epoch bumps, so
        # the cached /24 resolution must not be reused.
        bgp.fib("R0").install(SPECIFIC, "R1", now=scheduler.now)
        engine.inject(_packet(ident=2), "R0")
        scheduler.run(until=scheduler.now + 5.0)

        assert engine.cache_invalidations >= 1
        # R0's hop re-resolves (miss); the caches at R1 and R2 were
        # untouched, so their consults hit.
        assert engine.cache_misses == misses_before + 1
        assert engine.cache_hits == hits_before + 2

    def test_withdraw_mid_flight_is_seen_immediately(self):
        scheduler, _, bgp, engine = _stack(line_topology(3), [(PREFIX, "R2")])
        engine.inject(_packet(), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        assert engine.fate_counts[PacketFate.DELIVERED] == 1

        # Withdraw at the ingress FIB: the cached route must die with it.
        assert bgp.fib("R0").withdraw(PREFIX)
        invalidations_before = engine.cache_invalidations
        engine.inject(_packet(ident=2), "R0")
        scheduler.run(until=scheduler.now + 5.0)

        assert engine.cache_invalidations > invalidations_before
        assert engine.fate_counts[PacketFate.NO_ROUTE] == 1

    def test_stale_entry_never_served_after_epoch_bump(self):
        scheduler, _, bgp, engine = _stack(line_topology(3), [(PREFIX, "R2")])
        engine.inject(_packet(), "R0")
        scheduler.run(until=scheduler.now + 5.0)

        # Repoint the ingress FIB at itself as egress; the next packet
        # must follow the *new* FIB state (local delivery at R0, zero
        # hops) rather than the cached route to R2.
        fib = bgp.fib("R0")
        fib.withdraw(PREFIX)
        fib.install(PREFIX, "R0", now=scheduler.now)
        audit = engine.inject(_packet(ident=2), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        assert audit.fate is PacketFate.DELIVERED
        assert audit.fate_router == "R0"
        assert audit.hops == 0


class TestSpfInvalidation:
    def test_link_failure_spf_bumps_epoch_and_reroutes(self):
        # Square topology: R0-R1-R3 and R0-R2-R3, unequal costs so the
        # initial route is deterministic and failure forces the detour.
        topo = Topology()
        for name in ("R0", "R1", "R2", "R3"):
            topo.add_router(name)
        topo.add_link("R0", "R1", cost=1)
        topo.add_link("R1", "R3", cost=1)
        topo.add_link("R0", "R2", cost=5)
        topo.add_link("R2", "R3", cost=5)
        scheduler, igp, _, engine = _stack(topo, [(PREFIX, "R3")])

        first = engine.inject(_packet(), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        assert first.fate is PacketFate.DELIVERED
        assert first.hops == 2  # via R1

        link = topo.link_between("R0", "R1")
        link.up = False
        igp.notify_link_down(link)
        scheduler.run(until=scheduler.now + 30.0)  # let SPF/FIBs settle
        invalidations_before = engine.cache_invalidations

        second = engine.inject(_packet(ident=2), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        assert second.fate is PacketFate.DELIVERED
        assert second.hops == 2  # via R2 now
        assert engine.cache_invalidations > invalidations_before

    def test_igp_epoch_is_per_router(self):
        scheduler, igp, _, engine = _stack(line_topology(3), [(PREFIX, "R2")])
        epochs_before = dict(igp.epochs)
        engine.inject(_packet(), "R0")
        scheduler.run(until=scheduler.now + 5.0)
        # Forwarding alone must not perturb control-plane epochs.
        assert dict(igp.epochs) == epochs_before


class TestEcmpFlowHashDimension:
    @pytest.fixture()
    def diamond(self):
        # Two equal-cost paths R0→{R1,R2}→R3: ECMP splits on flow_hash.
        topo = Topology()
        for name in ("R0", "R1", "R2", "R3"):
            topo.add_router(name)
        topo.add_link("R0", "R1", cost=1)
        topo.add_link("R1", "R3", cost=1)
        topo.add_link("R0", "R2", cost=1)
        topo.add_link("R2", "R3", cost=1)
        return _stack(topo, [(PREFIX, "R3")])

    def test_flows_cache_separately(self, diamond):
        scheduler, _, _, engine = diamond
        # Same destination, different source ports → different flow_hash
        # → distinct cache keys, so each flow resolves its own path once.
        for sport in (1000, 1001):
            engine.inject(_packet(sport=sport), "R0")
            scheduler.run(until=scheduler.now + 5.0)
        # flow_hash is part of the cache key, so the second flow misses
        # at every router even though the destination is identical.
        misses_after_first_round = engine.cache_misses
        assert misses_after_first_round == 6  # 3 consults x 2 flows

        hits_before = engine.cache_hits
        for sport in (1000, 1001):
            engine.inject(_packet(sport=sport, ident=9), "R0")
            scheduler.run(until=scheduler.now + 5.0)
        assert engine.cache_misses == misses_after_first_round  # unchanged
        assert engine.cache_hits == hits_before + 6  # both flows now hit

    def test_cached_path_matches_ecmp_choice(self, diamond):
        scheduler, igp, _, engine = diamond
        taken = []
        engine.add_tap("R0", "R1", lambda t, p: taken.append("R1"))
        engine.add_tap("R0", "R2", lambda t, p: taken.append("R2"))
        packet = _packet(sport=4242)
        for ident in range(3):
            engine.inject(_packet(sport=4242, ident=ident), "R0")
            scheduler.run(until=scheduler.now + 5.0)
        # One flow always hashes onto one path — and the cached route
        # agrees with the IGP's ECMP selection for that hash.
        assert len(set(taken)) == 1
        from repro.routing.forwarding import _flow_hash
        expected = igp.next_hop("R0", "R3", _flow_hash(packet))
        assert taken[0] == expected
