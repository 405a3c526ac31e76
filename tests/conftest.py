"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.packet import IPv4Header, Packet, TcpFlags, TcpHeader, UdpHeader


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def sample_tcp_packet() -> Packet:
    ip = IPv4Header(
        src=IPv4Address.parse("10.1.2.3"),
        dst=IPv4Address.parse("192.0.2.77"),
        ttl=62,
        identification=4242,
    )
    tcp = TcpHeader(src_port=40000, dst_port=80, seq=1000, ack=2000,
                    flags=TcpFlags.ACK | TcpFlags.PSH)
    return Packet.build(ip, tcp, b"GET / HTTP/1.0\r\n")


@pytest.fixture
def sample_udp_packet() -> Packet:
    ip = IPv4Header(
        src=IPv4Address.parse("172.16.0.9"),
        dst=IPv4Address.parse("198.51.100.5"),
        ttl=120,
        identification=77,
    )
    udp = UdpHeader(src_port=5353, dst_port=53)
    return Packet.build(ip, udp, b"\x12\x34query")


@pytest.fixture
def dest_prefix() -> IPv4Prefix:
    return IPv4Prefix.parse("192.0.2.0/24")


def small_sim(seed: int = 7, pops: int = 6, rate: float = 400.0,
              duration: float = 60.0):
    """A compact simulated run for tests that need real loops.

    Returns the ScenarioRun.  Built on demand (not a fixture) so tests
    can vary parameters; see tests/integration for session-scoped reuse.
    """
    from repro.sim.backbone import BackboneScenario, ScenarioConfig

    config = ScenarioConfig(
        name=f"test-{seed}",
        seed=seed,
        pops=pops,
        extra_edges=2,
        duration=duration,
        rate_pps=rate,
        n_prefixes=60,
        n_flows=400,
        igp_flaps=4,
        flap_downtime=(3.0, 10.0),
        bgp_withdrawals=2,
        withdrawal_holdtime=20.0,
    )
    return BackboneScenario(config).run()


def storm_trace(seed: int = 0, loops: int = 60, packets: int = 20):
    """A loop storm: ``loops`` concurrent loops, each catching
    ``packets`` packets to its own /24, over background traffic,
    link-layer duplicate pairs, two-replica streams (too small), and
    one lone packet inside every tenth loop's window (a prefix
    conflict)."""
    from repro.traffic.synthetic import SyntheticTraceBuilder

    builder = SyntheticTraceBuilder(rng=random.Random(seed))
    rng = random.Random(seed + 1)
    builder.add_background(loops * 40, 0.0, 60.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    for k in range(loops):
        prefix = IPv4Prefix((10 << 24) | (k << 8), 24)
        start = rng.uniform(1.0, 50.0)
        builder.add_loop(start, prefix, ttl_delta=rng.choice((2, 2, 3, 4)),
                         n_packets=packets,
                         replicas_per_packet=rng.randint(3, 12),
                         spacing=0.01, packet_gap=0.05,
                         entry_ttl=rng.choice((60, 120, 250)))
        if k % 10 == 0:
            builder.add_background(1, start + 0.1, start + 0.2,
                                   prefixes=[prefix])
        if k % 15 == 0:
            builder.add_loop(start, IPv4Prefix((11 << 24) | (k << 8), 24),
                             n_packets=3, replicas_per_packet=2)
    for _ in range(loops * 3):
        builder.add_duplicate_pair(rng.uniform(0.0, 60.0))
    return builder.build()


@pytest.fixture(scope="session")
def shared_run():
    """One medium simulated run shared across the test session."""
    return small_sim(seed=11, duration=90.0)


@pytest.fixture(scope="session")
def shared_detection(shared_run):
    from repro.core.detector import LoopDetector

    return LoopDetector().detect(shared_run.trace)
