"""Per-router Forwarding Information Base.

A FIB maps destination prefixes to next-hop routers via longest-prefix
match.  FIB updates are what the routing protocols schedule — the window
between one router's update and its neighbor's is where transient loops
live, so the FIB keeps update timestamps for the audit trail.

Every mutation bumps a monotonic :attr:`Fib.epoch`; the forwarding
engine's resolved-route cache compares epochs to decide whether its
cached resolutions are still valid (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.net.addr import IPv4Address, IPv4Prefix

#: Netmask for each prefix length, /0 through /32 — computed once rather
#: than per lookup probe.
_MASKS: tuple[int, ...] = tuple(
    (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    for length in range(33)
)


class FibError(ValueError):
    """Raised for invalid FIB operations."""


@dataclass(slots=True, frozen=True)
class FibEntry:
    """One FIB route: prefix → next-hop router (by name)."""

    prefix: IPv4Prefix
    next_hop: str
    updated_at: float = 0.0


class Fib:
    """Longest-prefix-match forwarding table.

    Implemented as one hash table per prefix length, probed from /32 down;
    lookup is O(32) dict probes worst case, O(#distinct lengths) typical.
    The probe sequence (mask, table) is maintained incrementally on
    install/withdraw instead of re-sorted per mutation.
    """

    def __init__(self, router: str) -> None:
        self.router = router
        self._tables: dict[int, dict[int, FibEntry]] = {}
        self._lengths_desc: list[int] = []
        # Parallel to _lengths_desc: (mask, table) pairs in probe order,
        # so lookup needs no per-probe mask computation or table fetch.
        self._probes: list[tuple[int, dict[int, FibEntry]]] = []
        #: Monotonic change counter; bumped by every install/withdraw.
        self.epoch = 0
        #: Optional observer called as ``on_mutation(op, prefix,
        #: next_hop, epoch)`` after every install/withdraw.  The backbone
        #: scenario wires this to the tracer; mutations are control-plane
        #: rate, so one ``is not None`` check here never touches the
        #: per-packet path.
        self.on_mutation = None

    def install(self, prefix: IPv4Prefix, next_hop: str, now: float = 0.0) -> None:
        """Install or replace the route for ``prefix``."""
        length = prefix.length
        table = self._tables.get(length)
        if table is None:
            table = {}
            self._tables[length] = table
            # Insert keeping descending order; at most 33 lengths, so a
            # linear scan beats re-sorting and stays allocation-free.
            index = 0
            lengths = self._lengths_desc
            while index < len(lengths) and lengths[index] > length:
                index += 1
            lengths.insert(index, length)
            self._probes.insert(index, (_MASKS[length], table))
        table[prefix.network] = FibEntry(prefix=prefix, next_hop=next_hop,
                                         updated_at=now)
        self.epoch += 1
        if self.on_mutation is not None:
            self.on_mutation("install", prefix, next_hop, self.epoch)

    def withdraw(self, prefix: IPv4Prefix) -> bool:
        """Remove the route for ``prefix``; True if it existed."""
        length = prefix.length
        table = self._tables.get(length)
        if table is None:
            return False
        removed = table.pop(prefix.network, None) is not None
        if removed:
            self.epoch += 1
            if self.on_mutation is not None:
                self.on_mutation("withdraw", prefix, None, self.epoch)
            if not table:
                del self._tables[length]
                index = self._lengths_desc.index(length)
                del self._lengths_desc[index]
                del self._probes[index]
        return removed

    def lookup(self, address: IPv4Address) -> FibEntry | None:
        """Longest-prefix-match lookup; None when no route covers it."""
        value = address.value
        for mask, table in self._probes:
            entry = table.get(value & mask)
            if entry is not None:
                return entry
        return None

    def exact(self, prefix: IPv4Prefix) -> FibEntry | None:
        """The entry for exactly ``prefix``, ignoring longer/shorter routes."""
        table = self._tables.get(prefix.length)
        if table is None:
            return None
        return table.get(prefix.network)

    def entries(self) -> Iterator[FibEntry]:
        """All entries, longest prefixes first."""
        for length in self._lengths_desc:
            yield from self._tables[length].values()

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return self.exact(prefix) is not None
