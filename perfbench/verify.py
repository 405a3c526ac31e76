"""Correctness checks for benchmark outputs.

Each check compares what the program reported against a truth that does
not come from the program: the generator's answer key (:mod:`synth`)
for the pcap workloads, and the simulator's per-packet audit plus
run-to-run determinism for the Table I workload.  A check returns a
list of problems; an empty list means the output is correct.

Loops are compared as ``(prefix, start_us, end_us, streams, replicas,
ttl_delta)`` rows, with times rounded to the pcap's microsecond.
"""

from __future__ import annotations

import ipaddress

from synth import Truth

#: Loop rows carry microsecond times; audit windows are exact floats.
_SLACK_S = 1e-6


def loop_row(loop) -> list:
    """A detected :class:`RoutingLoop` as a comparable row."""
    return [str(loop.prefix), round(loop.start * 1_000_000),
            round(loop.end * 1_000_000), loop.stream_count,
            loop.replica_count, loop.ttl_delta]


def _compare_loops(expected: Truth, loops: list[list]) -> list[str]:
    want = sorted(list(loop.key()) for loop in expected.loops)
    got = sorted(list(row) for row in loops)
    if want == got:
        return []
    problems = [f"{len(got)} loops reported, {len(want)} planted"]
    missing = [row for row in want if row not in got]
    extra = [row for row in got if row not in want]
    problems += [f"missing loop {row}" for row in missing[:3]]
    problems += [f"unexpected loop {row}" for row in extra[:3]]
    return problems


def check_offline(truth: Truth, observed: dict) -> list[str]:
    """Offline detection over a synthetic pcap: every planted loop, the
    validated-stream count, every duplicate pair and decoy rejected."""
    problems = []
    if observed["records"] != truth.records:
        problems.append(f"read {observed['records']} records, "
                        f"file holds {truth.records}")
    problems += _compare_loops(truth, observed["loops"])
    for key in ("validated_streams", "candidate_streams",
                "rejected_too_small", "rejected_prefix_conflict"):
        if observed[key] != getattr(truth, key):
            problems.append(f"{key}: {observed[key]} reported, "
                            f"{getattr(truth, key)} planted")
    return problems


def check_fleet_link(truth: Truth, link: dict) -> list[str]:
    """One fleet link replaying a synthetic pcap: it must finish
    cleanly, count every record of its file, and emit the planted loops.

    When the supervisor exposes no per-link loop list (a backend that
    runs links in other processes), the link's loop count is checked
    instead of the loops themselves.
    """
    problems = []
    if link["state"] != "stopped" or not link["finished"]:
        problems.append(f"link {link['id']} ended {link['state']}, "
                        f"finished={link['finished']}")
    if link["crashes"]:
        problems.append(f"link {link['id']} crashed {link['crashes']}x")
    if link["records"] != truth.records:
        problems.append(f"link {link['id']} counted {link['records']} "
                        f"records, file holds {truth.records}")
    if link["loops"] is None:
        if link["loop_count"] != len(truth.loops):
            problems.append(f"link {link['id']} emitted "
                            f"{link['loop_count']} loops, "
                            f"{len(truth.loops)} planted")
    else:
        problems += [f"link {link['id']}: {p}"
                     for p in _compare_loops(truth, link["loops"])]
    return problems


def check_simulation(observed: dict, reference_digest: str | None
                     ) -> list[str]:
    """A Table I scenario run plus detection: the trace digest must
    match every other run of the seed, and every detected loop must
    overlap, in /24 and in time, a packet the simulator audited as
    looping."""
    problems = []
    if reference_digest is not None \
            and observed["digest"] != reference_digest:
        problems.append(f"trace digest {observed['digest']} differs from "
                        f"{reference_digest} of an earlier run")
    if observed["scanned"] != observed["trace_records"]:
        problems.append(f"detected over {observed['scanned']} records, "
                        f"trace holds {observed['trace_records']}")
    windows: dict[ipaddress.IPv4Network, list] = {}
    for dst, start, end in observed["looped"]:
        net = ipaddress.IPv4Network((dst & 0xFFFFFF00, 24))
        windows.setdefault(net, []).append((start, end))
    for row in observed["loops"]:
        prefix, start, end = row[0], row[1] / 1e6, row[2] / 1e6
        net = ipaddress.IPv4Network(prefix)
        if not any(lo - _SLACK_S <= end and start <= hi + _SLACK_S
                   for lo, hi in windows.get(net, ())):
            problems.append(f"loop {row[:3]} overlaps no audited looped "
                            f"packet to {net}")
    return problems
