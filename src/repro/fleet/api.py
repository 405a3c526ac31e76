"""The fleet-wide HTTP API.

One server for the whole fleet, grown from the single-link
:class:`~repro.obs.server.MonitorServer` scaffolding (same daemon
thread, same quiet-disconnect handler base):

========================================  =====================================
``GET /``                                 route index (JSON)
``GET /healthz``                          fleet liveness: link/state tally
``GET /links``                            every link: lifecycle + counters
``GET /links/<id>/state``                 one link's full monitor snapshot
``GET /links/<id>/dashboard``             one link's live HTML dashboard
``GET /links/<id>/metrics``               one link's bare registry
``GET /links/<id>/perf``                  one link's stage-timing profile
``GET /metrics``                          all registries merged, ``link`` label
``GET /perf``                             every link's stage-timing profile
``POST /links/<id>/restart``              restart that pipeline (202)
``POST /links/<id>/profile``              sample stacks for ``?seconds=N``
========================================  =====================================

Restart requests cross from the HTTP handler thread to the event-loop
thread via ``call_soon_threadsafe`` inside
:meth:`~repro.fleet.supervisor.FleetSupervisor.request_restart`; the
202 means "handed to the supervisor", not "already restarted" — poll
``/links`` for the transition.

The handler consumes only the supervisor's read surface
(``pipelines``/``tasks``/``snapshot``/``render_metrics``/
``request_restart``).

``POST /links/<id>/profile`` runs a
:class:`~repro.obs.perf.SamplingProfiler` *in the handler thread* for a
bounded duration (default 2 s, capped at 30 s) and returns collapsed
stacks — the process is shared, so the capture covers every pipeline
thread, which is exactly what a "why is the fleet slow" investigation
wants.
"""

from __future__ import annotations

import threading
from typing import Any
from urllib.parse import parse_qs

from repro.fleet.supervisor import FleetSupervisor
from repro.obs.dashboard import render_html
from repro.obs.log import get_logger
from repro.obs.perf import SamplingProfiler
from repro.obs.server import (
    PROMETHEUS_CONTENT_TYPE,
    JSONRequestHandler,
    bind_http_server,
)

#: Upper bound on one ``POST .../profile`` capture, seconds.
MAX_PROFILE_SECONDS = 30.0


class _FleetHandler(JSONRequestHandler):
    # Bound per server class in FleetServer.__init__.
    supervisor: FleetSupervisor

    # -- routing ---------------------------------------------------------------

    def _link_route(self, path: str) -> tuple[str, str] | None:
        """``/links/<id>/<action>`` → ``(link_id, action)``, else None."""
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "links":
            return parts[1], parts[2]
        return None

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/":
            self._send_json(200, _INDEX)
        elif path == "/healthz":
            self._send_json(200, self._health())
        elif path == "/links":
            self._send_json(200, self.supervisor.snapshot())
        elif path == "/metrics":
            self._send(200, PROMETHEUS_CONTENT_TYPE,
                       self.supervisor.render_metrics())
        elif path == "/perf":
            self._send_json(200, {
                "links": {link_id: pipeline.perf()
                          for link_id, pipeline
                          in sorted(self.supervisor.pipelines.items())},
            })
        elif (route := self._link_route(path)) is not None:
            self._get_link(*route)
        else:
            self._send_json(404, {"error": "not found", "path": path})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path, _, query = self.path.partition("?")
        route = self._link_route(path)
        if route is None or route[1] not in ("restart", "profile"):
            self._send_json(404, {"error": "not found", "path": path})
            return
        link_id, action = route
        if action == "profile":
            self._profile_link(link_id, query)
            return
        if self.supervisor.request_restart(link_id):
            self._send_json(202, {"status": "restart requested",
                                  "link": link_id})
        else:
            self._send_json(404, {"error": "unknown link",
                                  "link": link_id})

    def _profile_link(self, link_id: str, query: str) -> None:
        """Run a bounded sampling-profiler capture and return collapsed
        stacks.  Blocks this handler thread only (the server threads per
        request), so scrapes keep serving during the capture."""
        if link_id not in self.supervisor.pipelines:
            self._send_json(404, {"error": "unknown link",
                                  "link": link_id})
            return
        params = parse_qs(query)
        try:
            seconds = float(params.get("seconds", ["2.0"])[0])
        except ValueError:
            self._send_json(400, {"error": "seconds must be a number"})
            return
        if not 0 < seconds <= MAX_PROFILE_SECONDS:
            self._send_json(400, {
                "error": f"seconds must be in (0, {MAX_PROFILE_SECONDS:g}]",
            })
            return
        profiler = SamplingProfiler()
        collapsed = profiler.run_for(seconds)
        self._send_json(200, {
            "link": link_id,
            "seconds": seconds,
            "samples": profiler.sample_count,
            "collapsed": collapsed,
        })

    # -- link endpoints --------------------------------------------------------

    def _get_link(self, link_id: str, action: str) -> None:
        pipeline = self.supervisor.pipelines.get(link_id)
        if pipeline is None:
            self._send_json(404, {"error": "unknown link",
                                  "link": link_id})
            return
        if action == "state":
            state = pipeline.state()
            state["task"] = self.supervisor.tasks[link_id].snapshot()
            self._send_json(200, state)
        elif action == "dashboard":
            monitor = pipeline.monitor
            if monitor is None:
                self._send_json(503, {"error": "link has not started",
                                      "link": link_id})
                return
            self._send(200, "text/html; charset=utf-8",
                       render_html(monitor, title=f"link {link_id}",
                                   records_per_s=pipeline.records_per_s()))
        elif action == "metrics":
            registry = pipeline.registry
            body = "" if registry is None else registry.render_prometheus()
            self._send(200, PROMETHEUS_CONTENT_TYPE, body)
        elif action == "perf":
            self._send_json(200, {"link": link_id, **pipeline.perf()})
        else:
            self._send_json(404, {"error": "not found",
                                  "link": link_id, "action": action})

    def _health(self) -> dict[str, Any]:
        snapshot = self.supervisor.snapshot()
        return {"status": "ok",
                "links": len(snapshot["links"]),
                "states": snapshot["states"],
                "port": self.server.server_address[1]}


_INDEX = {
    "service": "repro fleet",
    "routes": [
        "GET /healthz",
        "GET /links",
        "GET /links/<id>/state",
        "GET /links/<id>/dashboard",
        "GET /links/<id>/metrics",
        "GET /links/<id>/perf",
        "GET /metrics",
        "GET /perf",
        "POST /links/<id>/restart",
        "POST /links/<id>/profile",
    ],
}


class FleetServer:
    """Background-thread HTTP server over a :class:`FleetSupervisor`.

    Same lifecycle contract as :class:`~repro.obs.server.MonitorServer`:
    binds on construction (``port=0`` resolves immediately), serves from
    a daemon thread, stops cleanly as a context manager.
    """

    def __init__(self, supervisor: FleetSupervisor,
                 host: str = "127.0.0.1", port: int = 9470) -> None:
        self.supervisor = supervisor
        handler = type("_BoundFleetHandler", (_FleetHandler,),
                       {"supervisor": supervisor})
        self._httpd = bind_http_server(host, port, handler)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FleetServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-fleet-http",
            daemon=True,
        )
        self._thread.start()
        get_logger("http").info("fleet endpoints at %s", self.url)
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
