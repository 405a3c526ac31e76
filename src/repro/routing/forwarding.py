"""Packet-level forwarding engine.

Packets travel hop by hop through the event scheduler; at each hop the
router consults its *current* FIBs (BGP prefix table resolved through the
IGP next-hop table), decrements the TTL, and transmits across the link
with serialization + propagation delay and FIFO queueing.  Because lookups
happen at forwarding time against live protocol state, packets in flight
during convergence loop exactly as the paper describes — and the monitor
taps on a link see each crossing as a replica with a decremented TTL.

The per-hop lookup chain (longest-prefix match, hot-potato egress, ECMP
next-hop selection, link resolution) is cached per router in an
epoch-versioned resolved-route cache: each router's cache is valid only
while that router's IGP install epoch and BGP FIB epoch are unchanged, so
converged steady-state forwarding skips resolution entirely while packets
in flight during convergence always see live state and loop exactly as
before.  Cached routes carry the static per-direction link parameters, so
a cache hit forwards without touching the topology at all.

The pre-optimization engine lives on as a test oracle
(``ReferenceForwardingEngine`` in ``tests/oracles.py``); the equivalence
tests pin the fast path's output byte-identical to it, and the
benchmarks measure the gap (see ``docs/PERFORMANCE.md``).

The engine also maintains a ground-truth audit channel (per-packet hop
records and loop flags) that the detector never sees; tests use it to
score detector precision and recall.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.net.addr import IPv4Address
from repro.net.packet import Packet, icmp_time_exceeded
from repro.routing.bgp import BgpProcess
from repro.routing.events import EventScheduler
from repro.routing.linkstate import LinkStateProtocol
from repro.routing.topology import Link, Topology, TopologyError


class PacketFate(Enum):
    """Terminal outcome of a packet's transit through the AS."""

    DELIVERED = "delivered"
    TTL_EXPIRED = "ttl_expired"
    NO_ROUTE = "no_route"
    LINK_DOWN = "link_down"
    QUEUE_DROP = "queue_drop"
    IN_FLIGHT = "in_flight"


@dataclass(slots=True)
class PacketAudit:
    """Ground truth for one packet (never visible to the detector)."""

    packet_id: int
    injected_at: float
    ingress: str
    dst: IPv4Address
    fate: PacketFate = PacketFate.IN_FLIGHT
    fate_time: float = 0.0
    fate_router: str = ""
    hops: int = 0
    looped: bool = False
    crossings: list[tuple[float, str, str, int]] = field(default_factory=list)
    # crossings: (departure time, link name, "a->b" direction, on-wire TTL)

    @property
    def transit_time(self) -> float:
        return self.fate_time - self.injected_at


TapCallback = Callable[[float, Packet], None]


@dataclass(slots=True)
class LinkTap:
    """A passive monitor on one direction of one link."""

    link_name: str
    from_router: str
    to_router: str
    callback: TapCallback


@dataclass(slots=True)
class _Transit:
    """Mutable in-flight packet state."""

    packet: Packet
    ttl: int
    audit: PacketAudit | None
    visited: dict[str, int]
    injected_at: float = 0.0
    is_icmp_error: bool = False
    flow_hash: int = 0
    #: (dst value << 31) | flow_hash — the route-cache key, packed into
    #: one int at injection so per-hop probes allocate no tuple.
    cache_key: int = 0
    #: IP total_length, hoisted out of the per-hop attribute chain.
    wire_bytes: int = 0


@dataclass(slots=True)
class _DirectionState:
    """FIFO transmit state for one direction of one link."""

    next_free: float = 0.0


#: A resolved route, as stored in the per-router cache:
#: ``None``                      — no route (cached negative);
#: ``(egress, None, None)``      — deliver here (this router is egress);
#: ``(egress, next_router, link, direction_state, propagation_delay,
#:   capacity_bps, max_queue_delay, taps)`` — forward.  The trailing
#: fields are the link's static transmit parameters (only ``link.up`` is
#: mutable at run time, and it is re-checked per packet) plus the
#: direction's tap list (shared by reference, so taps added later are
#: seen), so a cache hit never touches the topology.
_Route = tuple

#: Cache-miss sentinel distinct from the cached ``None`` (= no route).
_UNRESOLVED = object()


@dataclass(slots=True)
class _RouteCache:
    """One router's resolved routes, valid for one epoch token.

    The token is the *sum* of the router's IGP install epoch and its FIB
    epoch: both are monotonically non-decreasing, so the sum changes
    exactly when either does, and validity is a single int comparison.
    """

    token: int = -1
    routes: dict[int, _Route | None] = field(default_factory=dict)


def _flow_hash(packet: Packet) -> int:
    """Deterministic per-flow hash for ECMP next-hop selection.

    Mixes the classic five-tuple the way router line cards do, so all
    packets of one flow take one path through equal-cost choices.
    """
    l4 = packet.l4
    src_port = getattr(l4, "src_port", 0) or 0
    dst_port = getattr(l4, "dst_port", 0) or 0
    key = (packet.ip.src.value * 0x9E3779B1
           ^ packet.ip.dst.value * 0x85EBCA77
           ^ (packet.ip.protocol << 16)
           ^ (src_port << 8) ^ dst_port)
    key ^= key >> 13
    return key & 0x7FFFFFFF


class ForwardingEngine:
    """Forwards packets through the simulated AS."""

    def __init__(
        self,
        topology: Topology,
        scheduler: EventScheduler,
        igp: LinkStateProtocol,
        bgp: BgpProcess,
        rng: random.Random | None = None,
        keep_audits: bool = True,
        record_crossings: bool = False,
        icmp_time_exceeded_probability: float = 0.5,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler
        self.igp = igp
        self.bgp = bgp
        self.rng = rng or random.Random(0)
        self.keep_audits = keep_audits
        self.record_crossings = record_crossings
        self.icmp_time_exceeded_probability = icmp_time_exceeded_probability

        self._taps: dict[tuple[str, str], list[LinkTap]] = {}
        self._delivery_listeners: list[Callable[[float, Packet, str], None]] = []
        self._drop_listeners: list[
            Callable[[float, Packet, str, PacketFate], None]
        ] = []
        self._next_packet_id = 0
        self._next_icmp_id = 1

        # Hot-path state, precomputed so per-hop forwarding allocates
        # nothing: direct FIB references (skipping the bgp.fib() call),
        # per-direction FIFO state, and — per (router, neighbor)
        # direction — the link plus its static transmit parameters
        # (links are never removed from a topology, only marked down,
        # and their delay/capacity never change).
        self._fibs = {name: bgp.fib(name) for name in topology.routers}
        self._igp_epochs = igp.epochs
        self._directions: dict[tuple[str, str], _DirectionState] = {}
        self._hop_state: dict[
            tuple[str, str],
            tuple[Link, _DirectionState, float, float, float, list[LinkTap]],
        ] = {}
        for link in topology.links:
            for tail, head in ((link.a, link.b), (link.b, link.a)):
                direction = _DirectionState()
                self._directions[(tail, head)] = direction
                # The tap list is created eagerly (empty) and carried by
                # reference inside cached routes, so add_tap composes
                # with already-cached entries and the hot loop never
                # builds a (router, neighbor) key just to probe _taps.
                taps = self._taps.setdefault((tail, head), [])
                self._hop_state[(tail, head)] = (
                    link, direction, link.propagation_delay,
                    link.capacity_bps, link.max_queue_delay, taps,
                )
        self._route_caches = {
            name: _RouteCache() for name in topology.routers
        }
        # One probe instead of two in the hot loop: router -> (cache, fib).
        self._cache_state = {
            name: (self._route_caches[name], self._fibs[name])
            for name in topology.routers
        }
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0

        self.audits: list[PacketAudit] = []
        self.fate_counts: dict[PacketFate, int] = {fate: 0 for fate in PacketFate}
        self.loss_by_minute: dict[int, Counter] = defaultdict(Counter)
        self.injected_by_minute: dict[int, int] = defaultdict(int)
        # Per-minute queueing telemetry: summed queue wait and number of
        # transmissions, for the Sec. VI queueing-delay analysis.  The
        # fast path accumulates into the _pending_* fields and flushes on
        # minute rollover (and on read), replacing two dict updates per
        # hop with two float/int adds.
        self._queue_delay_by_minute: dict[int, float] = defaultdict(float)
        self._transmissions_by_minute: dict[int, int] = defaultdict(int)
        self._minute = 0
        self._minute_end = 60.0
        # [summed queue delay, transmission count] awaiting flush.
        self._pending = [0.0, 0]
        self.looped_by_minute: dict[int, int] = defaultdict(int)
        self.looped_delivered_delays: list[tuple[float, int]] = []
        self._normal_delay_sum = 0.0
        self._normal_delay_count = 0

    # -- taps ---------------------------------------------------------------

    def add_delivery_listener(
        self, callback: Callable[[float, Packet, str], None]
    ) -> None:
        """Register ``callback(time, packet, router)`` fired on delivery.

        Active-measurement baselines use this to receive their probe
        responses (the simulated AS has no end hosts).
        """
        self._delivery_listeners.append(callback)

    def add_drop_listener(
        self, callback: Callable[[float, Packet, str, PacketFate], None]
    ) -> None:
        """Register ``callback(time, packet, router, fate)`` fired when a
        packet is lost (any fate except DELIVERED).

        The connection-aware workload generator uses this as its loss
        signal: flows whose packets die re-enter connection setup, which
        is what concentrates SYNs (and diagnostic pings) in loop windows.
        """
        self._drop_listeners.append(callback)

    def add_tap(self, from_router: str, to_router: str,
                callback: TapCallback) -> LinkTap:
        """Attach a passive monitor to the ``from → to`` link direction.

        Tap callbacks receive ``(timestamp, on-wire packet)`` but may run
        *before* simulated time reaches the timestamp (the fast path
        invokes them at transmit time with the computed departure);
        consumers that care about order must sort, as the monitors do.
        """
        link = self.topology.link_between(from_router, to_router)
        tap = LinkTap(link_name=link.name, from_router=from_router,
                      to_router=to_router, callback=callback)
        self._taps.setdefault((from_router, to_router), []).append(tap)
        return tap

    # -- injection ------------------------------------------------------------

    def inject(self, packet: Packet, ingress: str,
               is_icmp_error: bool = False) -> PacketAudit | None:
        """Hand a packet to ``ingress`` at the current simulation time."""
        if not self.topology.has_router(ingress):
            raise TopologyError(f"unknown router {ingress!r}")
        now = self.scheduler.now
        audit: PacketAudit | None = None
        if self.keep_audits:
            audit = PacketAudit(
                packet_id=self._next_packet_id,
                injected_at=now,
                ingress=ingress,
                dst=packet.ip.dst,
            )
            self.audits.append(audit)
        self._next_packet_id += 1
        self.injected_by_minute[int(now // 60)] += 1
        flow_hash = _flow_hash(packet)
        transit = _Transit(
            packet=packet,
            ttl=packet.ip.ttl,
            audit=audit,
            visited={},
            injected_at=now,
            is_icmp_error=is_icmp_error,
            flow_hash=flow_hash,
            cache_key=(packet.ip.dst.value << 31) | flow_hash,
            wire_bytes=packet.ip.total_length,
        )
        self._arrive(transit, ingress)
        return audit

    def inject_at(self, time: float, packet: Packet, ingress: str) -> None:
        """Schedule an injection at a future simulation time."""
        self.scheduler.call_at(time, self.inject, packet, ingress)

    # -- statistics ------------------------------------------------------------

    @property
    def packets_injected(self) -> int:
        return self._next_packet_id

    def loss_fraction(self, fate: PacketFate) -> float:
        """Fraction of injected packets that met ``fate``."""
        if self._next_packet_id == 0:
            return 0.0
        return self.fate_counts[fate] / self._next_packet_id

    def mean_normal_delay(self) -> float:
        """Mean transit time of delivered packets that never looped."""
        if self._normal_delay_count == 0:
            return 0.0
        return self._normal_delay_sum / self._normal_delay_count

    @property
    def queue_delay_by_minute(self) -> dict[int, float]:
        """Summed queue wait per minute (flushes the hot-path buffer)."""
        self._flush_minute_telemetry()
        return self._queue_delay_by_minute

    @property
    def transmissions_by_minute(self) -> dict[int, int]:
        """Link transmissions per minute (flushes the hot-path buffer)."""
        self._flush_minute_telemetry()
        return self._transmissions_by_minute

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of per-hop resolutions served from the route cache."""
        attempts = self.cache_hits + self.cache_misses
        if attempts == 0:
            return 0.0
        return self.cache_hits / attempts

    def route_cache_stats(self) -> dict[str, float]:
        """Hit/miss/invalidation counters for reports and tests."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidations": self.cache_invalidations,
            "hit_rate": self.cache_hit_rate,
        }

    def register_metrics(self, registry) -> None:
        """Publish engine counters through a pull collector.

        The hot path keeps its plain-int counters; the collector mirrors
        them into the registry only when an export runs, so registering
        costs nothing per packet.  The registry holds the collector by
        weak reference — it never extends the engine's lifetime.
        """
        registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry) -> None:
        registry.counter(
            "sim_packets_injected_total", "Packets handed to the AS"
        ).set(self._next_packet_id)
        for fate, count in self.fate_counts.items():
            registry.counter(
                f"sim_packets_{fate.value}_total",
                f"Packets whose final fate was {fate.value}",
            ).set(count)
        registry.counter(
            "sim_route_cache_hits_total", "Resolved-route cache hits"
        ).set(self.cache_hits)
        registry.counter(
            "sim_route_cache_misses_total", "Resolved-route cache misses"
        ).set(self.cache_misses)
        registry.counter(
            "sim_route_cache_invalidations_total",
            "Cached routes discarded after an epoch change",
        ).set(self.cache_invalidations)
        registry.gauge(
            "sim_route_cache_hit_rate",
            "Fraction of per-hop resolutions served from cache",
        ).set(self.cache_hit_rate)

    # -- per-hop machinery -----------------------------------------------------

    def _resolve(self, router: str, dst: IPv4Address,
                 flow_hash: int) -> _Route | None:
        """Full control-plane resolution for one (router, dst, flow)."""
        entry = self._fibs[router].lookup(dst)
        if entry is None:
            return None
        egress = entry.next_hop
        if egress == router:
            return (egress, None, None)
        next_router = self.igp.next_hop(router, egress, flow_hash)
        if next_router is None:
            return None
        return (egress, next_router) + self._hop_state[(router, next_router)]

    def _arrive(self, transit: _Transit, router: str) -> None:
        """Packet arrives at ``router``: resolve (through the cache),
        then deliver, drop, or transmit toward the next hop.

        Transmission is inlined rather than delegated: this method runs
        once per packet per hop and is the single hottest function in
        the simulator, so the fast path trades a little repetition for
        one less call frame and no re-derived locals.
        """
        visited = transit.visited
        count = visited.get(router, 0) + 1
        visited[router] = count
        audit = transit.audit
        if count > 1 and audit is not None:
            audit.looped = True

        cache, fib = self._cache_state[router]
        token = self._igp_epochs[router] + fib.epoch
        if cache.token != token:
            if cache.routes:
                cache.routes.clear()
                self.cache_invalidations += 1
            cache.token = token
        routes = cache.routes
        route = routes.get(transit.cache_key, _UNRESOLVED)
        if route is _UNRESOLVED:
            route = self._resolve(router, transit.packet.ip.dst,
                                  transit.flow_hash)
            routes[transit.cache_key] = route
            self.cache_misses += 1
        else:
            self.cache_hits += 1

        if route is None:
            self._finish(transit, router, PacketFate.NO_ROUTE)
            return
        next_router = route[1]
        if next_router is None:
            self._finish(transit, router, PacketFate.DELIVERED)
            return
        if transit.ttl <= 1:
            self._expire(transit, router)
            return
        link = route[2]
        if not link.up:
            # Failure not yet detected by the control plane: black hole.
            self._finish(transit, router, PacketFate.LINK_DOWN)
            return

        # -- transmit (inlined) ------------------------------------------
        scheduler = self.scheduler
        now = scheduler.now
        direction = route[3]
        queue_delay = direction.next_free - now
        if queue_delay < 0.0:
            queue_delay = 0.0
        if now >= self._minute_end:
            self._roll_minute(now)
        pending = self._pending
        pending[0] += queue_delay
        pending[1] += 1
        if queue_delay > route[6]:
            self._finish(transit, router, PacketFate.QUEUE_DROP)
            return
        # Same expression as Link.transmission_delay so the floats match
        # the reference engine bit-for-bit.
        departure = now + queue_delay + transit.wire_bytes * 8 / route[5]
        direction.next_free = departure

        transit.ttl -= 1
        if audit is not None:
            audit.hops += 1
            if self.record_crossings:
                audit.crossings.append(
                    (departure, link.name, f"{router}->{next_router}",
                     transit.ttl)
                )

        taps = route[7]
        if taps:
            on_wire = transit.packet.forwarded(
                transit.packet.ip.ttl - transit.ttl
            )
            # Immediate dispatch with the future departure timestamp:
            # taps are passive observers that sort by timestamp, so
            # skipping the per-crossing scheduler event is observably
            # equivalent (see add_tap) and saves a heap push/pop.
            for tap in taps:
                tap.callback(departure, on_wire)

        scheduler.call_at(departure + route[4], self._arrive, transit,
                          next_router)

    def _roll_minute(self, now: float) -> None:
        """Flush buffered telemetry and advance the cached minute."""
        self._flush_minute_telemetry()
        minute = int(now // 60)
        self._minute = minute
        self._minute_end = (minute + 1) * 60.0

    def _flush_minute_telemetry(self) -> None:
        pending = self._pending
        if pending[1]:
            minute = self._minute
            self._queue_delay_by_minute[minute] += pending[0]
            self._transmissions_by_minute[minute] += pending[1]
            pending[0] = 0.0
            pending[1] = 0

    # -- terminal fates --------------------------------------------------------

    def _expire(self, transit: _Transit, router: str) -> None:
        self._finish(transit, router, PacketFate.TTL_EXPIRED)
        if transit.is_icmp_error:
            return  # ICMP errors never beget ICMP errors (RFC 1122)
        if self.rng.random() >= self.icmp_time_exceeded_probability:
            return  # router ICMP rate limiting
        reply = icmp_time_exceeded(
            transit.packet,
            self.topology.loopback(router),
            identification=self._next_icmp_id & 0xFFFF,
        )
        self._next_icmp_id += 1
        self.inject(reply, router, is_icmp_error=True)

    def _finish(self, transit: _Transit, router: str, fate: PacketFate) -> None:
        now = self.scheduler.now
        self.fate_counts[fate] += 1
        minute = int(now // 60)
        self.loss_by_minute[minute][fate] += 1
        audit = transit.audit
        if audit is not None:
            audit.fate = fate
            audit.fate_time = now
            audit.fate_router = router
        looped = max(transit.visited.values(), default=0) > 1
        if looped:
            self.looped_by_minute[minute] += 1
        if fate is not PacketFate.DELIVERED:
            for drop_listener in self._drop_listeners:
                drop_listener(now, transit.packet, router, fate)
        else:
            for listener in self._delivery_listeners:
                listener(now, transit.packet, router)
            delay = now - transit.injected_at
            if looped:
                hops = transit.packet.ip.ttl - transit.ttl
                self.looped_delivered_delays.append((delay, hops))
            else:
                self._normal_delay_sum += delay
                self._normal_delay_count += 1
