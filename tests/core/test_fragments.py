"""Detector behaviour with IP fragments.

Fragments of one datagram share the IP identification but differ in
fragment offset / MF flag (and lengths), so their masked headers differ:
the detector treats each fragment as its own packet.  A looping
fragment therefore produces its own replica stream — which is the
correct semantics: every copy on the link is a genuine extra crossing.
"""

import random
from dataclasses import replace

import pytest

from repro.core.detector import LoopDetector
from repro.core.replica import detect_replicas, mask_mutable_fields
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.net.packet import IPv4Header, Packet, UdpHeader
from repro.net.trace import Trace

PREFIX = IPv4Prefix.parse("192.0.2.0/24")


def _fragments(ident: int = 77, ttl: int = 40):
    """First and second fragment of one UDP datagram."""
    src = IPv4Address.parse("10.4.4.4")
    dst = IPv4Address.parse("192.0.2.9")
    first = Packet.build(
        IPv4Header(src=src, dst=dst, ttl=ttl, identification=ident,
                   flags=0x1),  # MF set
        UdpHeader(src_port=53, dst_port=53),
        b"A" * 24,
    )
    # Continuation fragment: no L4 header, offset 4 (x8 bytes).
    second_ip = IPv4Header(src=src, dst=dst, ttl=ttl,
                           identification=ident, flags=0x0,
                           fragment_offset=4, protocol=17)
    second = Packet.build(second_ip, None, b"B" * 24)
    return first, second


class TestFragmentSemantics:
    def test_fragments_have_distinct_keys(self):
        first, second = _fragments()
        key_a = mask_mutable_fields(first.pack()[:40])
        key_b = mask_mutable_fields(second.pack()[:40])
        assert key_a != key_b

    def test_non_looping_fragments_not_replicas(self):
        """Two fragments of one datagram crossing once each never chain
        (their offsets differ), even though they share the IP id."""
        first, second = _fragments()
        trace = Trace()
        trace.capture(1.0, first)
        trace.capture(1.001, second)
        assert list(detect_replicas(trace)) == []

    def test_looping_fragments_form_parallel_streams(self):
        """Both fragments caught in the same loop each produce a stream;
        validation accepts them (all packets to the prefix loop)."""
        first, second = _fragments()
        trace = Trace()
        t = 10.0
        for round_index in range(5):
            hops = round_index * 2
            trace.capture(t, first.forwarded(hops) if hops else first)
            trace.capture(t + 0.0001,
                          second.forwarded(hops) if hops else second)
            t += 0.01
        result = LoopDetector().detect(trace)
        assert result.stream_count == 2
        assert result.loop_count == 1
        assert {stream.size for stream in result.streams} == {5}

    def test_fragment_offset_participates_in_identity(self):
        """Same id, same everything, different offset: never replicas
        even with decreasing TTL."""
        first, _ = _fragments()
        moved = Packet(
            ip=replace(first.ip, fragment_offset=8, ttl=first.ip.ttl - 2,
                       checksum=None),
            l4=first.l4,
            payload=first.payload,
        )
        trace = Trace()
        trace.capture(1.0, first)
        trace.capture(1.01, moved)
        assert list(detect_replicas(trace)) == []
