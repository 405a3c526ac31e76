"""Forwarding-engine throughput — cached fast path vs. reference path.

The route cache exists so the simulator can push enough packets through a
backbone-scale topology to reproduce the paper's trace volumes in
reasonable wall time.  This benchmark measures exactly the claim the
cache makes: on a converged steady-state scenario the epoch-versioned
fast path forwards >= 3x the packets per second of the reference engine
(``ReferenceForwardingEngine`` in ``tests/oracles.py``, the seed
implementation preserved verbatim) while producing byte-identical
monitor output.

Two modes:

* ``test_cached_matches_reference_smoke`` — quick CI guard (runs in the
  default selection).  A small scenario, injected *during* convergence so
  epoch invalidations actually fire, asserting the cached and uncached
  engines emit byte-identical traces and identical packet fates.
* ``test_throughput_speedup`` — the full measurement, marked ``slow``.
  24-PoP ring, 40k packets over 600 flows into a 300-prefix RIB, best of
  three runs per engine; emits the before/after table to
  ``benchmarks/output/sim_throughput.txt``.

Run the full measurement with::

    PYTHONPATH=src python -m pytest benchmarks/test_sim_throughput.py -m slow -s

and the CI smoke with ``-m "not slow"``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.capture.monitor import LinkMonitor
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.packet import IPv4Header, Packet, UdpHeader
from repro.routing.bgp import BgpProcess
from repro.routing.events import EventScheduler
from repro.routing.forwarding import ForwardingEngine, PacketFate
from repro.routing.linkstate import LinkStateProtocol
from repro.routing.topology import ring_topology
from tests.oracles import ReferenceForwardingEngine


class _Injector:
    """Self-scheduling packet source.

    Scheduling each injection from the previous one keeps the event heap
    small (a pre-scheduled batch of 40k events would tax both engines
    with an O(log n) heap factor that has nothing to do with forwarding).
    """

    def __init__(self, engine, packets, ingress, start, interval):
        self.engine = engine
        self.packets = packets
        self.ingress = ingress
        self.interval = interval
        self.i = 0
        engine.scheduler.call_at(start, self)

    def __call__(self):
        self.engine.inject(self.packets[self.i], self.ingress)
        self.i += 1
        if self.i < len(self.packets):
            self.engine.scheduler.call(self.interval, self)


def _build(cached, *, n_pops, n_prefixes, n_flows, n_packets,
           converge_until, inject_start, duration, churn=False):
    """One scenario instance; identical seeds for both engine flavours."""
    rng = random.Random(7)
    topology = ring_topology(n_pops)
    routers = topology.routers
    scheduler = EventScheduler()
    igp = LinkStateProtocol(topology, scheduler, rng=random.Random(2))
    bgp = BgpProcess(topology, scheduler, igp, rng=random.Random(3))

    # All prefixes egress at the ring's far side: every packet crosses
    # n_pops/2 - 1 hops, so per-hop work dominates the measurement.
    egress = routers[n_pops // 2 - 1]
    prefixes = []
    for i in range(n_prefixes):
        length = 8 + (i % 17)  # deep RIB: 17 distinct lengths, /8../24
        base = ((i * 2654435761) & 0x7FFFFFFF) | 0x40000000
        p = IPv4Prefix(base & (((1 << length) - 1) << (32 - length)), length)
        prefixes.append(p)
        bgp.originate(p, egress)

    igp.start()
    bgp.start()
    if converge_until:
        scheduler.run(until=converge_until)

    engine_class = ForwardingEngine if cached else ReferenceForwardingEngine
    engine = engine_class(topology, scheduler, igp, bgp,
                          rng=random.Random(4), keep_audits=False)
    monitor = LinkMonitor(engine, routers[1], routers[2])

    flow_packets = []
    for _ in range(n_flows):
        idx = rng.randrange(n_prefixes)
        if rng.random() < 0.5:
            # Traffic concentrates on popular short prefixes (each block
            # of 17 consecutive prefixes starts with its /8).
            idx -= idx % 17
        p = prefixes[idx]
        host = rng.getrandbits(32 - p.length) if p.length < 32 else 0
        dst = IPv4Address((p.network | host) & 0xFFFFFFFF)
        src = IPv4Address(0x0A000000 | rng.getrandbits(16))
        ip = IPv4Header(src=src, dst=dst, ttl=64, protocol=17)
        flow_packets.append(Packet.build(
            ip, UdpHeader(src_port=rng.randrange(1024, 65535), dst_port=53),
            payload=b"x" * 32))
    # Flows reuse one Packet object each, as a real replayed trace would.
    packets = [flow_packets[i % n_flows] for i in range(n_packets)]
    _Injector(engine, packets, routers[0], inject_start,
              duration / n_packets)

    if churn:
        # Fail a mid-path link with traffic in flight, then restore it:
        # every affected router recomputes its FIB, so cached routes must
        # be invalidated by epoch comparison (twice) to stay correct.
        link = topology.link_between(routers[2], routers[3])

        def _down():
            link.up = False
            igp.notify_link_down(link)

        def _up():
            link.up = True
            igp.notify_link_up(link)

        scheduler.call_at(inject_start + duration / 3, _down)
        scheduler.call_at(inject_start + 2 * duration / 3, _up)
    return scheduler, engine, monitor


def _trace_bytes(monitor):
    return [(round(rec.timestamp, 12), rec.data)
            for rec in monitor.trace.records]


def test_cached_matches_reference_smoke():
    """CI guard: cached and uncached engines are indistinguishable.

    Injection starts while the IGP/BGP are still converging, and a
    mid-path link fails and recovers with traffic in flight, so the run
    crosses live FIB churn — cache entries must be invalidated by epoch
    comparison, not merely never populated.  Any byte of divergence in
    the monitor trace, or any packet meeting a different fate, fails.
    """
    config = dict(n_pops=8, n_prefixes=68, n_flows=80, n_packets=1500,
                  converge_until=0.0, inject_start=0.5, duration=60.0,
                  churn=True)
    outputs = {}
    for cached in (True, False):
        scheduler, engine, monitor = _build(cached, **config)
        scheduler.run_all()
        monitor.finalize()
        outputs[cached] = (
            _trace_bytes(monitor),
            dict(engine.fate_counts),
            dict(engine.transmissions_by_minute),
        )
        if cached:
            stats = engine.route_cache_stats()
            assert stats["invalidations"] > 0, (
                "smoke scenario never exercised epoch invalidation")
            assert stats["hits"] > stats["misses"]
    assert outputs[True][0] == outputs[False][0], "trace bytes diverged"
    assert outputs[True][1] == outputs[False][1], "packet fates diverged"
    assert outputs[True][2] == outputs[False][2], "telemetry diverged"
    assert outputs[True][1][PacketFate.DELIVERED] > 0


@pytest.mark.slow
def test_throughput_speedup(emit):
    """Full measurement: >= 3x packets/s on converged steady state."""
    config = dict(n_pops=24, n_prefixes=300, n_flows=600, n_packets=40_000,
                  converge_until=60.0, inject_start=60.0, duration=100.0)
    rows = {}
    for cached in (True, False):
        times = []
        for _ in range(3):
            scheduler, engine, monitor = _build(cached, **config)
            t0 = time.perf_counter()
            scheduler.run_all()
            times.append(time.perf_counter() - t0)
        monitor.finalize()
        rows[cached] = {
            "wall": min(times),
            "times": times,
            "pps": engine.packets_injected / min(times),
            "stats": engine.route_cache_stats(),
            "trace": _trace_bytes(monitor),
            "fates": dict(engine.fate_counts),
        }

    ref, fast = rows[False], rows[True]
    speedup = fast["pps"] / ref["pps"]
    identical = fast["trace"] == ref["trace"] and fast["fates"] == ref["fates"]
    stats = fast["stats"]

    lines = [
        "Forwarding engine throughput — epoch-versioned route cache",
        "24-PoP ring, converged steady state, 11-hop path",
        "40,000 packets / 600 flows / 300-prefix RIB (/8../24)",
        "best of 3 runs per engine",
        "",
        f"{'engine':<28}{'wall':>8}{'packets/s':>12}",
        f"{'reference engine (oracle)':<28}{ref['wall']:>7.2f}s"
        f"{ref['pps']:>12,.0f}",
        f"{'cached fast path':<28}{fast['wall']:>7.2f}s"
        f"{fast['pps']:>12,.0f}",
        "",
        f"speedup: {speedup:.2f}x packets/s",
        f"cache: {stats['hits']:,.0f} hits / {stats['misses']:,.0f} misses"
        f" / {stats['invalidations']:,.0f} invalidations"
        f" (hit rate {stats['hit_rate']:.1%})",
        f"monitor traces byte-identical: {'yes' if identical else 'NO'}",
    ]
    emit("sim_throughput", "\n".join(lines))

    assert identical, "cached and reference outputs diverged"
    assert stats["hit_rate"] > 0.97
    assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x target"
