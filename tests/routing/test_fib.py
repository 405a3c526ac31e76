"""Tests for the longest-prefix-match FIB."""

from repro.net.addr import IPv4Address, IPv4Prefix
from repro.routing.fib import Fib
from tests.oracles import lookup_reference


def _p(text: str) -> IPv4Prefix:
    return IPv4Prefix.parse(text)


def _a(text: str) -> IPv4Address:
    return IPv4Address.parse(text)


class TestInstallLookup:
    def test_exact_match(self):
        fib = Fib("r")
        fib.install(_p("192.0.2.0/24"), "next")
        entry = fib.lookup(_a("192.0.2.55"))
        assert entry is not None
        assert entry.next_hop == "next"

    def test_longest_prefix_wins(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "coarse")
        fib.install(_p("10.1.0.0/16"), "fine")
        fib.install(_p("10.1.2.0/24"), "finest")
        assert fib.lookup(_a("10.1.2.3")).next_hop == "finest"
        assert fib.lookup(_a("10.1.9.9")).next_hop == "fine"
        assert fib.lookup(_a("10.9.9.9")).next_hop == "coarse"

    def test_miss_returns_none(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "x")
        assert fib.lookup(_a("11.0.0.1")) is None

    def test_default_route(self):
        fib = Fib("r")
        fib.install(_p("0.0.0.0/0"), "default")
        assert fib.lookup(_a("203.0.113.9")).next_hop == "default"

    def test_replace_updates_next_hop(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "old", now=1.0)
        fib.install(_p("10.0.0.0/8"), "new", now=2.0)
        entry = fib.lookup(_a("10.0.0.1"))
        assert entry.next_hop == "new"
        assert entry.updated_at == 2.0
        assert len(fib) == 1

    def test_slash32(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.1/32"), "host")
        fib.install(_p("10.0.0.0/8"), "net")
        assert fib.lookup(_a("10.0.0.1")).next_hop == "host"
        assert fib.lookup(_a("10.0.0.2")).next_hop == "net"


class TestWithdraw:
    def test_withdraw_removes_route(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "x")
        assert fib.withdraw(_p("10.0.0.0/8"))
        assert fib.lookup(_a("10.0.0.1")) is None
        assert len(fib) == 0

    def test_withdraw_missing_returns_false(self):
        fib = Fib("r")
        assert not fib.withdraw(_p("10.0.0.0/8"))

    def test_withdraw_falls_back_to_shorter(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "coarse")
        fib.install(_p("10.1.0.0/16"), "fine")
        fib.withdraw(_p("10.1.0.0/16"))
        assert fib.lookup(_a("10.1.0.1")).next_hop == "coarse"


class TestIntrospection:
    def test_exact_ignores_other_lengths(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "x")
        assert fib.exact(_p("10.0.0.0/16")) is None
        assert fib.exact(_p("10.0.0.0/8")).next_hop == "x"

    def test_contains(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "x")
        assert _p("10.0.0.0/8") in fib
        assert _p("10.0.0.0/9") not in fib

    def test_entries_longest_first(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "a")
        fib.install(_p("10.1.2.0/24"), "b")
        fib.install(_p("10.1.0.0/16"), "c")
        lengths = [entry.prefix.length for entry in fib.entries()]
        assert lengths == [24, 16, 8]


class TestMaskTableAndProbeOrder:
    def test_mask_table_matches_formula(self):
        from repro.routing.fib import _MASKS

        assert len(_MASKS) == 33
        assert _MASKS[0] == 0
        assert _MASKS[32] == 0xFFFFFFFF
        for length in range(1, 33):
            assert _MASKS[length] == \
                (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF

    def test_lengths_stay_sorted_through_mutations(self):
        fib = Fib("r")
        for length in (24, 8, 32, 16, 0, 12):
            prefix = IPv4Prefix(0, length) if length == 0 else \
                IPv4Prefix((10 << 24) & (((1 << length) - 1)
                                         << (32 - length)), length)
            fib.install(prefix, "x")
            assert fib._lengths_desc == \
                sorted(fib._lengths_desc, reverse=True)
            assert len(fib._probes) == len(fib._lengths_desc)
        # Withdrawing the only route of a length drops its probe slot.
        fib.withdraw(IPv4Prefix((10 << 24) & 0xFFFF0000, 16))
        assert 16 not in fib._lengths_desc
        assert fib._lengths_desc == sorted(fib._lengths_desc, reverse=True)
        assert len(fib._probes) == len(fib._lengths_desc)

    def test_probe_masks_parallel_lengths(self):
        from repro.routing.fib import _MASKS

        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "a")
        fib.install(_p("10.1.0.0/16"), "b")
        fib.install(_p("0.0.0.0/0"), "c")
        assert [mask for mask, _ in fib._probes] == \
            [_MASKS[length] for length in fib._lengths_desc]


class TestLookupReference:
    def test_matches_fast_lookup_everywhere(self):
        import random

        rng = random.Random(5)
        fib = Fib("r")
        prefixes = []
        for _ in range(60):
            length = rng.randrange(0, 33)
            network = rng.getrandbits(32) & \
                ((((1 << length) - 1) << (32 - length)) & 0xFFFFFFFF)
            prefix = IPv4Prefix(network, length)
            prefixes.append(prefix)
            fib.install(prefix, f"nh{length}")
        for _ in range(500):
            addr = IPv4Address(rng.getrandbits(32))
            assert fib.lookup(addr) is lookup_reference(fib, addr)
        # Also probe addresses inside known prefixes (guaranteed hits).
        for prefix in prefixes:
            addr = IPv4Address(prefix.network)
            assert fib.lookup(addr) is lookup_reference(fib, addr)


class TestEpoch:
    def test_install_withdraw_replace_bump(self):
        fib = Fib("r")
        assert fib.epoch == 0
        fib.install(_p("10.0.0.0/8"), "a")
        assert fib.epoch == 1
        fib.install(_p("10.0.0.0/8"), "b")  # replace counts as a change
        assert fib.epoch == 2
        assert fib.withdraw(_p("10.0.0.0/8"))
        assert fib.epoch == 3

    def test_failed_withdraw_does_not_bump(self):
        fib = Fib("r")
        fib.install(_p("10.0.0.0/8"), "a")
        epoch = fib.epoch
        assert not fib.withdraw(_p("192.0.2.0/24"))
        assert fib.epoch == epoch
