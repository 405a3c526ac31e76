"""CLI-level kernel-tier parity: the tier numpy selects never changes
the answer.

Every product entry point runs the ``auto`` step-1 tier: ``vectorized``
when numpy imports, the pure-python ``columnar`` kernel otherwise.  The
CLI must print byte-identical output either way.
"""

import random

import pytest

from repro.cli import main
from repro.core import vectorize
from repro.net.addr import IPv4Prefix
from repro.net.pcap import write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def loop_pcap(tmp_path_factory):
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    builder.add_background(150, 0.0, 30.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=2,
                     replicas_per_packet=5, spacing=0.01, entry_ttl=40)
    path = tmp_path_factory.mktemp("cli_kernel") / "loop.pcap"
    write_pcap(builder.build(), path)
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def _both_tiers(capsys, monkeypatch, argv):
    """``argv``'s output as-is and with numpy hidden from the program."""
    native = _run(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(vectorize, "np", None)
        patch.setattr(vectorize, "HAVE_NUMPY", False)
        without_numpy = _run(capsys, argv)
    return native, without_numpy


class TestKernelParity:
    def test_json_identical_across_tiers(self, loop_pcap, capsys,
                                         monkeypatch):
        native, without_numpy = _both_tiers(
            capsys, monkeypatch, ["detect", str(loop_pcap), "--json"])
        assert native == without_numpy
        assert '"loops"' in native

    def test_summary_identical_across_tiers(self, loop_pcap, capsys,
                                            monkeypatch):
        native, without_numpy = _both_tiers(
            capsys, monkeypatch, ["detect", str(loop_pcap)])
        assert native == without_numpy
        assert "routing loops: 1" in native
