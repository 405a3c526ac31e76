"""Declarative fleet configuration.

One file describes the whole fleet: which links to watch, where each
link's records come from, the alert thresholds, and how aggressively
crashed pipelines are restarted.  TOML is the native format (stdlib
:mod:`tomllib`, Python 3.11+); JSON is accepted everywhere as the
lowest common denominator — the two spell the identical structure:

.. code-block:: toml

    [fleet]
    host = "127.0.0.1"
    port = 9470
    backend = "thread"   # or "process": link pipelines in workers
    workers = 0          # process backend: worker count (0 = auto)

    [fleet.restart]
    max_restarts = 5
    backoff_base = 0.5
    backoff_cap = 30.0
    jitter = 0.1

    [fleet.alerts]
    enabled = true
    fire_after = 1
    clear_after = 1

    [[links]]
    id = "sj-to-ny"
    source = { kind = "pcap", path = "traces/sj-ny.pcap" }

    [[links]]
    id = "ny-to-sj"
    source = { kind = "watch", directory = "captures/ny-sj" }
    prefetch = 4   # deeper source read-ahead for this link

    [[links]]
    id = "lab"
    source = { kind = "sim", scenario = "backbone2", duration = 60 }

Unknown keys are rejected loudly — a typo'd threshold silently falling
back to a default is exactly the failure mode a monitoring config must
not have.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11: JSON configs only.
    tomllib = None  # type: ignore[assignment]

from repro.core.detector import DetectorConfig
from repro.fleet.task import RestartPolicy
from repro.obs.alerts import (
    DEFAULT_DURATION_TAIL_SECONDS,
    DEFAULT_LOSS_SHARE_THRESHOLD,
)

#: Link ids appear verbatim in URL paths (``/links/<id>/state``).
_ID_RE = re.compile(r"^[A-Za-z0-9._~-]+$")

SOURCE_KINDS = ("pcap", "watch", "sim")


class FleetConfigError(ValueError):
    """Raised for malformed or inconsistent fleet configuration."""


def _take(data: Mapping[str, Any], context: str,
          allowed: tuple[str, ...]) -> dict[str, Any]:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise FleetConfigError(
            f"unknown {context} keys: {', '.join(unknown)} "
            f"(allowed: {', '.join(allowed)})"
        )
    return dict(data)


@dataclass(frozen=True)
class SourceConfig:
    """Where a link's records come from.

    * ``pcap`` — replay one capture file (``path``), optionally paced
      (``pace`` = trace seconds per wall second; 0 = full speed);
    * ``watch`` — follow a directory of rotating captures
      (``directory``, ``pattern``, ``poll_interval``); runs until the
      pipeline is stopped;
    * ``sim`` — run a Table I backbone scenario off-thread and replay
      its captured trace (``scenario``, ``duration``).
    """

    kind: str
    path: str = ""
    directory: str = ""
    pattern: str = "*.pcap"
    poll_interval: float = 0.5
    scenario: str = ""
    duration: float | None = None
    pace: float = 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  context: str) -> "SourceConfig":
        data = _take(data, f"{context}.source",
                     ("kind", "path", "directory", "pattern",
                      "poll_interval", "scenario", "duration", "pace"))
        kind = data.get("kind")
        if kind not in SOURCE_KINDS:
            raise FleetConfigError(
                f"{context}: source kind must be one of "
                f"{', '.join(SOURCE_KINDS)}; got {kind!r}"
            )
        required = {"pcap": "path", "watch": "directory",
                    "sim": "scenario"}[kind]
        if not data.get(required):
            raise FleetConfigError(
                f"{context}: source kind {kind!r} requires {required!r}"
            )
        config = cls(**data)
        if config.pace < 0:
            raise FleetConfigError(f"{context}: pace must be >= 0")
        if config.poll_interval <= 0:
            raise FleetConfigError(
                f"{context}: poll_interval must be > 0"
            )
        return config

    def describe(self) -> dict[str, Any]:
        """JSON-ready description for the ``/links`` rows."""
        out: dict[str, Any] = {"kind": self.kind}
        if self.kind == "pcap":
            out["path"] = self.path
        elif self.kind == "watch":
            out["directory"] = self.directory
            out["pattern"] = self.pattern
        else:
            out["scenario"] = self.scenario
            if self.duration is not None:
                out["duration"] = self.duration
        if self.pace:
            out["pace"] = self.pace
        return out


@dataclass(frozen=True)
class AlertPolicy:
    """Per-link alerting: paper-grounded rules + hysteresis counters."""

    enabled: bool = True
    fire_after: int = 1
    clear_after: int = 1
    loss_share_threshold: float = DEFAULT_LOSS_SHARE_THRESHOLD
    duration_tail_seconds: float = DEFAULT_DURATION_TAIL_SECONDS

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], context: str,
                  base: "AlertPolicy | None" = None) -> "AlertPolicy":
        data = _take(data, f"{context}.alerts",
                     ("enabled", "fire_after", "clear_after",
                      "loss_share_threshold", "duration_tail_seconds"))
        if base is not None:
            merged = {f.name: getattr(base, f.name)
                      for f in fields(cls)}
            merged.update(data)
            data = merged
        policy = cls(**data)
        if policy.fire_after < 1 or policy.clear_after < 1:
            raise FleetConfigError(
                f"{context}: fire_after and clear_after must be >= 1"
            )
        return policy


def _detector_config(data: Mapping[str, Any],
                     context: str) -> DetectorConfig:
    data = _take(data, f"{context}.detector",
                 ("merge_gap", "min_stream_size", "prefix_length",
                  "validate"))
    validate = bool(data.pop("validate", True))
    try:
        return DetectorConfig(
            check_prefix_consistency=validate,
            check_gap_consistency=validate,
            **data,
        )
    except ValueError as error:
        raise FleetConfigError(f"{context}: {error}") from error


@dataclass(frozen=True)
class LinkConfig:
    """One monitored link: identity, source, detection, and alerting.

    ``prefetch`` is the link's source read-ahead depth — how many
    batches :func:`~repro.fleet.sources.prefetch_batches` may queue
    ahead of the detector before the reader stalls.  Deeper queues
    smooth bursty sources (directory watches, paced replays) at the
    cost of holding more chunks in memory.
    """

    id: str
    source: SourceConfig
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    alerts: AlertPolicy = field(default_factory=AlertPolicy)
    prefetch: int = 2

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  fleet_alerts: AlertPolicy) -> "LinkConfig":
        link_id = data.get("id")
        context = f"link {link_id!r}" if link_id else "link"
        data = _take(data, context,
                     ("id", "source", "detector", "alerts", "prefetch"))
        if not link_id or not isinstance(link_id, str):
            raise FleetConfigError("every link needs a string id")
        if not _ID_RE.match(link_id):
            raise FleetConfigError(
                f"link id {link_id!r} must match {_ID_RE.pattern} "
                f"(it appears in URL paths)"
            )
        if "source" not in data:
            raise FleetConfigError(f"{context}: missing source")
        prefetch = data.get("prefetch", 2)
        if not isinstance(prefetch, int) or isinstance(prefetch, bool) \
                or prefetch < 1:
            raise FleetConfigError(
                f"{context}: prefetch must be an integer >= 1"
            )
        return cls(
            id=link_id,
            source=SourceConfig.from_dict(data["source"], context),
            detector=_detector_config(data.get("detector", {}), context),
            alerts=AlertPolicy.from_dict(data.get("alerts", {}), context,
                                         base=fleet_alerts),
            prefetch=prefetch,
        )


def _restart_policy(data: Mapping[str, Any]) -> RestartPolicy:
    data = _take(data, "fleet.restart",
                 ("max_restarts", "backoff_base", "backoff_cap",
                  "jitter"))
    try:
        return RestartPolicy(**data)
    except ValueError as error:
        raise FleetConfigError(f"fleet.restart: {error}") from error


BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class FleetConfig:
    """The whole fleet: links plus service-level policy.

    ``backend`` picks where link pipelines run: ``thread`` (the
    default) keeps every pipeline on the daemon's event loop with
    detection on the thread executor; ``process`` fans the links out
    across ``workers`` supervised worker processes (see
    :mod:`repro.fleet.workers`), so N links detect on N cores instead
    of sharing one GIL.  ``workers = 0`` sizes the pool automatically
    (one per link, capped at the machine's CPU count).
    """

    links: tuple[LinkConfig, ...]
    host: str = "127.0.0.1"
    port: int = 9470
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    alerts: AlertPolicy = field(default_factory=AlertPolicy)
    backend: str = "thread"
    workers: int = 0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetConfig":
        data = _take(data, "top-level", ("fleet", "links"))
        fleet = _take(data.get("fleet", {}), "fleet",
                      ("host", "port", "restart", "alerts", "backend",
                       "workers"))
        alerts = AlertPolicy.from_dict(fleet.get("alerts", {}), "fleet")
        raw_links = data.get("links", [])
        if not raw_links:
            raise FleetConfigError("a fleet needs at least one link")
        links = tuple(LinkConfig.from_dict(raw, alerts)
                      for raw in raw_links)
        seen: set[str] = set()
        for link in links:
            if link.id in seen:
                raise FleetConfigError(f"duplicate link id {link.id!r}")
            seen.add(link.id)
        backend = fleet.get("backend", "thread")
        if backend not in BACKENDS:
            raise FleetConfigError(
                f"fleet.backend must be one of {', '.join(BACKENDS)}; "
                f"got {backend!r}"
            )
        workers = fleet.get("workers", 0)
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 0:
            raise FleetConfigError(
                "fleet.workers must be an integer >= 0 (0 = auto)"
            )
        return cls(
            links=links,
            host=str(fleet.get("host", "127.0.0.1")),
            port=int(fleet.get("port", 9470)),
            restart=_restart_policy(fleet.get("restart", {})),
            alerts=alerts,
            backend=backend,
            workers=workers,
        )

    @classmethod
    def load(cls, path: str | Path) -> "FleetConfig":
        """Load a TOML (``.toml``) or JSON fleet config file."""
        path = Path(path)
        raw = path.read_bytes()
        if path.suffix.lower() == ".toml":
            if tomllib is None:
                raise FleetConfigError(
                    "TOML configs need Python >= 3.11 (tomllib); "
                    "use the JSON spelling of the same structure"
                )
            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except tomllib.TOMLDecodeError as error:
                raise FleetConfigError(f"{path}: {error}") from error
        else:
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as error:
                raise FleetConfigError(f"{path}: {error}") from error
        return cls.from_dict(data)

    def link(self, link_id: str) -> LinkConfig:
        for link in self.links:
            if link.id == link_id:
                return link
        raise KeyError(link_id)
