"""Span/event tracer with JSONL output.

A :class:`Tracer` records two shapes:

* **events** — a point in time: ``{"type": "event", "name": ..., "t":
  ..., "attrs": {...}}``;
* **spans** — an interval with identity and nesting: ``{"type":
  "span", "id": ..., "parent": ..., "name": ..., "t0": ..., "t1": ...,
  "attrs": {...}}``.

Timestamps come from the tracer's ``clock`` — wall time
(:func:`time.perf_counter`) by default, or **simulation time** when the
backbone scenario wires ``clock = lambda: scheduler.now``.  Callers can
always pass an explicit ``time=``; records from a different clock domain
than the tracer's should carry a ``clock`` attr (pipeline stage spans,
written by :class:`~repro.obs.perf.PipelineProfile`, are tagged
``clock="wall"``, while loop intervals carry trace/simulation time).

Records are kept in memory (``tracer.records``) and, when a ``sink`` is
given, written eagerly as JSON lines and flushed every ``flush_every``
records (default 32) — a pipeline task dying mid-run loses at most one
batch of spans, not the whole buffer.  Spans are written when they
*end*; within one process the file is therefore ordered by completion,
and consumers that need start order sort on ``t0``.

Nesting is tracked with a stack of open spans: a span begun while
another is open records that span as its ``parent`` (explicit
``parent=`` overrides).  Spans may end out of stack order — per-router
convergence spans interleave freely.

The module-level :data:`NULL_TRACER` is the disabled path: every method
is a no-op, so instrumented code holds a tracer reference
unconditionally and pays one dynamic dispatch per *control-plane* event
(never per packet) when tracing is off.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, IO, Iterable


class NullTracer:
    """No-op tracer; see :data:`NULL_TRACER`."""

    __slots__ = ()
    enabled = False
    records: tuple = ()

    def event(self, name: str, time: float | None = None,
              **attrs: Any) -> None:
        pass

    def begin(self, name: str, time: float | None = None,
              parent: int | None = None, **attrs: Any) -> int:
        return 0

    def end(self, span_id: int, time: float | None = None,
            **attrs: Any) -> None:
        pass

    def span(self, name: str, t0: float, t1: float,
             parent: int | None = None, **attrs: Any) -> int:
        return 0

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer; see module docstring for the record schema."""

    enabled = True

    def __init__(
        self,
        sink: IO[str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        keep: bool = True,
        flush_every: int = 32,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self.keep = keep
        #: Flush the sink after this many buffered records (crash
        #: durability: a pipeline task dying mid-run loses at most one
        #: batch of spans, not everything since open).  ``0`` restores
        #: flush-on-close-only.
        self.flush_every = flush_every
        self.records: list[dict[str, Any]] = []
        self._next_id = 1
        self._open: dict[int, dict[str, Any]] = {}
        self._stack: list[int] = []
        self._unflushed = 0

    # -- emission -------------------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        if self.keep:
            self.records.append(record)
        if self.sink is not None:
            self.sink.write(json.dumps(record, sort_keys=True) + "\n")
            self._unflushed += 1
            if self.flush_every and self._unflushed >= self.flush_every:
                self.flush()

    def event(self, name: str, time: float | None = None,
              **attrs: Any) -> None:
        """Record a point event at ``time`` (default: the clock's now)."""
        self._emit({
            "type": "event",
            "name": name,
            "t": self.clock() if time is None else time,
            "attrs": attrs,
        })

    def begin(self, name: str, time: float | None = None,
              parent: int | None = None, **attrs: Any) -> int:
        """Open a span; returns its id for :meth:`end`."""
        span_id = self._next_id
        self._next_id += 1
        if parent is None:
            parent = self._stack[-1] if self._stack else 0
        self._open[span_id] = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "t0": self.clock() if time is None else time,
            "attrs": attrs,
        }
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int, time: float | None = None,
            **attrs: Any) -> None:
        """Close an open span (idempotent for unknown/closed ids)."""
        open_span = self._open.pop(span_id, None)
        if open_span is None:
            return
        if span_id in self._stack:
            self._stack.remove(span_id)
        open_span["attrs"].update(attrs)
        self._emit({
            "type": "span",
            "id": open_span["id"],
            "parent": open_span["parent"],
            "name": open_span["name"],
            "t0": open_span["t0"],
            "t1": self.clock() if time is None else time,
            "attrs": open_span["attrs"],
        })

    def span(self, name: str, t0: float, t1: float,
             parent: int | None = None, **attrs: Any) -> int:
        """Record an already-completed interval (e.g. a detected loop,
        a worker's timing measured elsewhere)."""
        span_id = self._next_id
        self._next_id += 1
        self._emit({
            "type": "span",
            "id": span_id,
            "parent": 0 if parent is None else parent,
            "name": name,
            "t0": t0,
            "t1": t1,
            "attrs": attrs,
        })
        return span_id

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()
        self._unflushed = 0

    def close(self) -> None:
        """End any spans left open (tagged ``unclosed``) and flush."""
        for span_id in sorted(self._open):
            self.end(span_id, unclosed=True)
        self.flush()


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace file back into a list of record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def spans(records: Iterable[dict[str, Any]],
          name: str | None = None) -> list[dict[str, Any]]:
    """The span records (optionally only those named ``name``),
    sorted by start time."""
    out = [r for r in records
           if r.get("type") == "span" and (name is None or r["name"] == name)]
    out.sort(key=lambda r: (r["t0"], r["t1"]))
    return out


def events(records: Iterable[dict[str, Any]],
           name: str | None = None) -> list[dict[str, Any]]:
    """The event records (optionally only those named ``name``),
    sorted by time."""
    out = [r for r in records
           if r.get("type") == "event" and (name is None or r["name"] == name)]
    out.sort(key=lambda r: r["t"])
    return out
