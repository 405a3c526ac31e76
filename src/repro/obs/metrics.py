"""Process-wide metrics registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`, and
fixed-bucket :class:`Histogram` — live in a :class:`MetricsRegistry`
that can render a Prometheus-style text exposition or a JSON snapshot.

The design constraint is the forwarding engine's ``_arrive`` hot loop:
observability must cost *nothing* per packet when disabled, and almost
nothing when enabled.  Two mechanisms provide that:

* A disabled registry hands out the module-level null singletons
  (:data:`NULL_COUNTER`, :data:`NULL_GAUGE`, :data:`NULL_HISTOGRAM`),
  whose methods are no-ops — instrumented code holds a direct reference
  and never probes a dict per event.
* Hot paths that already keep plain-int counters (route-cache hits,
  streaming stats) do not touch metric objects at all; they register a
  **pull collector** — a bound method called once per export — that
  publishes the current values.  Collectors are held by weak reference,
  so registering an engine with the process registry never extends the
  engine's lifetime.

The default process-wide registry is **disabled**; the CLI installs an
enabled registry (:func:`set_registry`) before constructing the pipeline
when ``--metrics-out`` or ``--json`` asks for metrics.
"""

from __future__ import annotations

import json
import math
import re
import time
import weakref
from bisect import bisect_left
from typing import Any, Callable, Iterable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for loop/phase durations in seconds
#: (the paper's Fig. 9 spans ~100 ms to minutes).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
    300.0, 600.0,
)


class MetricsError(ValueError):
    """Raised for invalid metric names or kind collisions."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


#: Canonical label storage: sorted ``(name, value)`` pairs.
Labels = tuple[tuple[str, str], ...]


def _check_labels(labels: "dict[str, str] | None") -> Labels:
    if not labels:
        return ()
    out = []
    for key in sorted(labels):
        if not _LABEL_NAME_RE.match(key):
            raise MetricsError(f"invalid label name {key!r}")
        out.append((key, str(labels[key])))
    return tuple(out)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format: backslash,
    double quote, and line feed."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def unescape_label_value(text: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: list[str] = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                # Unknown escape: the spec says pass it through verbatim.
                out.append(char)
                out.append(nxt)
            i += 2
            continue
        out.append(char)
        i += 1
    return "".join(out)


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def series_id(name: str, labels: Labels = ()) -> str:
    """The canonical exported series name: ``name{label="value",...}``
    with sorted label names and escaped values (bare name when
    unlabeled).  Snapshot keys and the text exposition use this form."""
    return name + _render_labels(labels)


class Counter:
    """A monotonically increasing count.

    :meth:`set` exists for pull collectors that mirror an externally
    maintained plain-int counter (it must never be used to go backwards).
    """

    __slots__ = ("name", "help", "labels", "_value")
    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def set(self, value: float) -> None:
        """Publish an externally maintained monotonic value."""
        self._value = value

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "_value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self._value: float = 0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    ``with histogram.time() as timer: ...`` observes the elapsed time
    into the histogram on exit; ``timer.seconds`` stays readable
    afterwards, so call sites that keep their own stats reuse the same
    measurement instead of a second ``perf_counter`` pair.  A bare
    ``Timer()`` (no histogram) is the registry-free form of that idiom.
    """

    __slots__ = ("_histogram", "_t0", "seconds")

    def __init__(self, histogram: "Histogram | None" = None) -> None:
        self._histogram = histogram
        self._t0 = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self._histogram is not None:
            self._histogram.observe(self.seconds)


class Histogram:
    """Fixed-bucket histogram of observations.

    Bucket bounds are upper bounds, exclusive of ``+Inf`` (which is
    implicit).  Counts are kept per bucket and cumulated only at export,
    so :meth:`observe` is one bisect plus one list increment.
    """

    __slots__ = ("name", "help", "labels", "bounds", "_counts", "_sum",
                 "_count")
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 labels: dict[str, str] | None = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError(f"histogram {name!r} needs >= 1 bucket")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out

    def time(self) -> Timer:
        """``with histogram.time(): ...`` — observe the elapsed seconds."""
        return Timer(self)


class _NullCounter:
    """No-op counter handed out by a disabled registry."""

    __slots__ = ()
    kind = "counter"
    name = ""
    help = ""
    labels: Labels = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = ""
    help = ""
    labels: Labels = ()
    value = 0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = ""
    help = ""
    labels: Labels = ()
    count = 0
    sum = 0.0
    bounds: tuple[float, ...] = ()

    def observe(self, value: float) -> None:
        pass

    def cumulative(self) -> list[tuple[float, int]]:
        return []

    def time(self) -> Timer:
        # Still measures (callers may read timer.seconds); the
        # observation itself is the no-op.
        return Timer(None)


#: Shared no-op instruments: one allocation per process, ever.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """A named collection of instruments plus pull collectors."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Any] = []  # weak or strong refs

    # -- instrument factories -------------------------------------------------

    def _get(self, name: str, kind: str, factory,
             labels: dict[str, str] | None = None):
        if not self.enabled:
            return {"counter": NULL_COUNTER, "gauge": NULL_GAUGE,
                    "histogram": NULL_HISTOGRAM}[kind]
        key = series_id(_check_name(name), _check_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise MetricsError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labels: dict[str, str] | None = None) -> Counter:
        return self._get(name, "counter",
                         lambda: Counter(name, help, labels), labels)

    def gauge(self, name: str, help: str = "",
              labels: dict[str, str] | None = None) -> Gauge:
        return self._get(name, "gauge",
                         lambda: Gauge(name, help, labels), labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  labels: dict[str, str] | None = None) -> Histogram:
        return self._get(name, "histogram",
                         lambda: Histogram(name, help, buckets, labels),
                         labels)

    def timer(self, name: str, help: str = "",
              buckets: Iterable[float] = DEFAULT_BUCKETS,
              labels: dict[str, str] | None = None) -> Timer:
        """``with registry.timer("phase_seconds"): ...`` — time a block
        into the named histogram (a no-op observation when disabled)."""
        return self.histogram(name, help, buckets, labels).time()

    # -- pull collectors ------------------------------------------------------

    def register_collector(self, fn: Collector) -> None:
        """Register ``fn(registry)`` to be called before every export.

        Bound methods are held via :class:`weakref.WeakMethod` so a
        registered object (a forwarding engine, a streaming detector)
        can still be garbage collected; plain functions are held
        strongly.  No-op on a disabled registry.
        """
        if not self.enabled:
            return
        try:
            ref: Any = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        except TypeError:
            ref = lambda fn=fn: fn  # strong ref, uniform call-to-deref
        self._collectors.append(ref)

    def collect(self) -> None:
        """Run every live collector; prune dead ones."""
        live = []
        for ref in self._collectors:
            fn = ref()
            if fn is None:
                continue
            fn(self)
            live.append(ref)
        self._collectors = live

    # -- export ---------------------------------------------------------------

    def _sorted_metrics(self):
        """Instruments sorted by family name then labelset, so labeled
        series of one family stay adjacent in the exposition."""
        return sorted(self._metrics.values(),
                      key=lambda m: (m.name, m.labels))

    def snapshot(self) -> dict[str, Any]:
        """All current values as a JSON-ready dict (runs collectors).

        Keys are :func:`series_id` strings — the bare metric name for
        unlabeled instruments, ``name{label="value",...}`` otherwise.
        """
        self.collect()
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, Any] = {}
        for metric in self._sorted_metrics():
            key = series_id(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": [
                        ["+Inf" if math.isinf(bound) else bound, count]
                        for bound, count in metric.cumulative()
                    ],
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Label values are escaped per the spec (``\\`` → ``\\\\``,
        ``"`` → ``\\"``, newline → ``\\n``); HELP/TYPE headers are
        emitted once per metric family.
        """
        self.collect()
        lines: list[str] = []
        seen_families: set[str] = set()
        for metric in self._sorted_metrics():
            name = metric.name
            if name not in seen_families:
                seen_families.add(name)
                if metric.help:
                    help_text = (metric.help.replace("\\", "\\\\")
                                            .replace("\n", "\\n"))
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in metric.cumulative():
                    le = "+Inf" if math.isinf(bound) else _num(bound)
                    bucket_labels = metric.labels + (("le", le),)
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_labels)} "
                        f"{count}"
                    )
                suffix = _render_labels(metric.labels)
                lines.append(f"{name}_sum{suffix} {_num(metric.sum)}")
                lines.append(f"{name}_count{suffix} {metric.count}")
            else:
                lines.append(
                    f"{name}{_render_labels(metric.labels)} "
                    f"{_num(metric.value)}"
                )
        return "\n".join(lines) + "\n"


def merged_registry(
    named: "dict[str, MetricsRegistry]",
    label: str = "link",
) -> MetricsRegistry:
    """Merge several registries into one, tagging every series with a
    constant ``label="<name>"`` pair.

    The fleet ``/metrics`` endpoint aggregates per-link registries this
    way: two links both exporting ``streaming_records_total`` become two
    series of one family (``streaming_records_total{link="a"}`` and
    ``{link="b"}``) instead of colliding.  Each source registry's pull
    collectors run once (via :meth:`MetricsRegistry.collect`), then its
    instruments are *copied* — the merged registry is a point-in-time
    snapshot, safe to render from another thread while the sources keep
    counting.

    Raises :class:`MetricsError` for an invalid label name or when a
    source instrument already carries ``label`` (the merge would
    silently overwrite it otherwise).
    """
    if not _LABEL_NAME_RE.match(label):
        raise MetricsError(f"invalid label name {label!r}")
    merged = MetricsRegistry(enabled=True)
    for value in sorted(named):
        registry = named[value]
        registry.collect()
        for metric in registry._sorted_metrics():
            if any(key == label for key, _ in metric.labels):
                raise MetricsError(
                    f"metric {metric.name!r} already carries label "
                    f"{label!r}; cannot merge registry {value!r}"
                )
            labels = dict(metric.labels)
            labels[label] = str(value)
            if isinstance(metric, Counter):
                merged.counter(metric.name, metric.help,
                               labels).set(metric.value)
            elif isinstance(metric, Gauge):
                merged.gauge(metric.name, metric.help,
                             labels).set(metric.value)
            else:
                copy = merged.histogram(metric.name, metric.help,
                                        metric.bounds, labels)
                copy._counts = list(metric._counts)
                copy._sum = metric.sum
                copy._count = metric.count
    return merged


def _num(value: float) -> str:
    """Render a number losslessly, preferring the integer form."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _parse_labels(text: str) -> dict[str, str]:
    """Parse the inside of a ``{...}`` label block, honouring escapes.

    A naive ``split('"')`` breaks the moment a value contains an escaped
    quote or a second label follows — this is a small scanner instead.
    """
    labels: dict[str, str] = {}
    i = 0
    length = len(text)
    while i < length:
        while i < length and text[i] in ", \t":
            i += 1
        if i >= length:
            break
        eq = text.find("=", i)
        if eq < 0:
            raise MetricsError(f"malformed label block {text!r}")
        name = text[i:eq].strip()
        if not _LABEL_NAME_RE.match(name):
            raise MetricsError(f"invalid label name {name!r}")
        i = eq + 1
        if i >= length or text[i] != '"':
            raise MetricsError(f"unquoted label value in {text!r}")
        i += 1
        raw: list[str] = []
        while i < length:
            char = text[i]
            if char == "\\" and i + 1 < length:
                raw.append(text[i:i + 2])
                i += 2
                continue
            if char == '"':
                break
            raw.append(char)
            i += 1
        if i >= length:
            raise MetricsError(f"unterminated label value in {text!r}")
        i += 1  # closing quote
        labels[name] = unescape_label_value("".join(raw))
    return labels


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?$", re.DOTALL
)


def _split_sample(name_part: str) -> tuple[str, dict[str, str]]:
    match = _SAMPLE_RE.match(name_part)
    if match is None:
        raise MetricsError(f"malformed sample name {name_part!r}")
    name, label_text = match.group(1), match.group(2)
    return name, _parse_labels(label_text) if label_text else {}


def parse_prometheus(text: str) -> dict[str, Any]:
    """Parse text produced by :meth:`MetricsRegistry.render_prometheus`
    back into the :meth:`MetricsRegistry.snapshot` shape (round-trip
    support for tests and downstream tooling).

    Handles escaped label values (``\\\\``, ``\\"``, ``\\n``) and
    multi-label metrics — histogram bucket lines may carry labels besides
    ``le``; each distinct labelset becomes its own histogram entry keyed
    by :func:`series_id`.
    """
    kinds: dict[str, str] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Any] = {}

    def hist_entry(base: str, labels: dict[str, str]) -> dict[str, Any]:
        key = series_id(base, _check_labels(labels))
        return histograms.setdefault(
            key, {"count": 0, "sum": 0.0, "buckets": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3]
            continue
        name_part, value_text = line.rsplit(None, 1)
        value = float(value_text)
        name, labels = _split_sample(name_part)
        if (name.endswith("_bucket") and "le" in labels
                and kinds.get(name[:-len("_bucket")]) == "histogram"):
            le_text = labels.pop("le")
            bound: Any = "+Inf" if le_text == "+Inf" else float(le_text)
            hist_entry(name[:-len("_bucket")], labels)["buckets"].append(
                [bound, int(value)]
            )
            continue
        if name.endswith("_sum") and kinds.get(name[:-4]) == "histogram":
            hist_entry(name[:-4], labels)["sum"] = value
            continue
        if name.endswith("_count") and kinds.get(name[:-6]) == "histogram":
            hist_entry(name[:-6], labels)["count"] = int(value)
            continue
        key = series_id(name, _check_labels(labels))
        if kinds.get(name) == "gauge":
            gauges[key] = value
        else:
            counters[key] = value
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


#: The process-wide registry; disabled until someone opts in.
_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The current process-wide registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
