"""Tests for the fleet HTTP API, including the acceptance parity run:
a 3-link fleet over real traces must reproduce, per link, exactly the
loops an independent single-trace run finds — while every endpoint
serves concurrently."""

from __future__ import annotations

import asyncio
import json
import random
import urllib.error
import urllib.request

import pytest

from repro.core.detector import DetectorConfig
from repro.core.streaming import StreamingLoopDetector
from repro.fleet.api import FleetServer
from repro.fleet.config import FleetConfig
from repro.fleet.supervisor import FleetSupervisor
from repro.net.addr import IPv4Prefix
from repro.net.pcap import read_pcap_columnar, write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder


def build_trace(seed: int):
    rng = random.Random(seed)
    builder = SyntheticTraceBuilder(rng=rng)
    builder.add_background(300, 0.0, 90.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(12.0, IPv4Prefix.parse("192.0.2.0/24"),
                     n_packets=2 + seed % 3, replicas_per_packet=6,
                     spacing=0.02, entry_ttl=40)
    builder.add_loop(40.0, IPv4Prefix.parse("203.0.113.0/24"),
                     n_packets=2, replicas_per_packet=4 + seed % 4,
                     spacing=0.05, entry_ttl=50)
    return builder.build()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-api")
    paths = {}
    for link_id, seed in (("east", 3), ("west", 5), ("lab", 9)):
        path = root / f"{link_id}.pcap"
        write_pcap(build_trace(seed), path)
        paths[link_id] = path
    return paths


@pytest.fixture(scope="module")
def fleet(traces):
    """A finished 3-link fleet with its API still serving."""
    config = FleetConfig.from_dict({
        "fleet": {"port": 0},
        "links": [
            {"id": link_id, "source": {"kind": "pcap", "path": str(path)}}
            for link_id, path in traces.items()
        ],
    })
    supervisor = FleetSupervisor(config)
    with FleetServer(supervisor, port=0) as server:
        asyncio.run(supervisor.run())
        yield supervisor, server


def fetch(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as resp:
        body = resp.read().decode()
        if resp.headers.get("Content-Type", "").startswith(
                "application/json"):
            return resp.status, json.loads(body)
        return resp.status, body


def loop_rows(loops):
    return [(str(l.prefix), l.start, l.end, l.ttl_delta, l.replica_count)
            for l in loops]


class TestEndpoints:
    def test_index_lists_routes(self, fleet):
        _, server = fleet
        status, doc = fetch(server, "/")
        assert status == 200
        assert "GET /links" in doc["routes"]
        assert "POST /links/<id>/restart" in doc["routes"]

    def test_links_document(self, fleet):
        _, server = fleet
        _, doc = fetch(server, "/links")
        assert doc["states"] == {"stopped": 3}
        by_id = {row["id"]: row for row in doc["links"]}
        assert set(by_id) == {"east", "west", "lab"}
        for row in by_id.values():
            assert row["loops"] > 0
            assert row["run_finished"]
            assert [h["state"] for h in row["history"]] == [
                "starting", "running", "stopped"
            ]

    def test_per_link_state(self, fleet):
        _, server = fleet
        _, state = fetch(server, "/links/east/state")
        assert state["id"] == "east"
        assert state["finished"]
        assert state["task"]["state"] == "stopped"
        assert state["run"]["loops"] == state["detector"]["stats"][
            "loops_emitted"]

    def test_per_link_dashboard_and_metrics(self, fleet):
        _, server = fleet
        status, html = fetch(server, "/links/west/dashboard")
        assert status == 200
        assert "<html" in html.lower()
        status, text = fetch(server, "/links/west/metrics")
        assert status == 200
        assert "streaming_records_total" in text
        assert 'link="' not in text  # bare registry, no merge label

    def test_aggregated_metrics_carry_link_label(self, fleet, traces):
        _, server = fleet
        _, text = fetch(server, "/metrics")
        for link_id in traces:
            assert f'streaming_records_total{{link="{link_id}"}}' in text
        assert "fleet_links 3" in text

    def test_unknown_paths_404(self, fleet):
        _, server = fleet
        for path in ("/links/nope/state", "/links/east/nope", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(server, path)
            assert err.value.code == 404

    def test_healthz(self, fleet):
        _, server = fleet
        _, doc = fetch(server, "/healthz")
        assert doc == {"status": "ok", "links": 3,
                       "states": {"stopped": 3},
                       "port": server.port}


class TestPerf:
    def test_fleet_perf_serves_all_links(self, fleet):
        """/perf carries a per-stage breakdown for every link of the
        3-link run: the stages the pipeline body times, with spans
        counted and records attributed."""
        _, server = fleet
        status, doc = fetch(server, "/perf")
        assert status == 200
        assert set(doc["links"]) == {"east", "west", "lab"}
        for link_id, perf in doc["links"].items():
            stages = {stage["name"]: stage for stage in perf["stages"]}
            assert {"source.wait", "detect.feed",
                    "detect.flush"} <= set(stages)
            feed = stages["detect.feed"]
            assert feed["count"] >= 1
            assert feed["records"] > 0
            assert feed["bytes"] > 0
            assert feed["seconds"] >= 0.0
            assert perf["queues"].get("source.prefetch") is not None

    def test_per_link_perf(self, fleet):
        _, server = fleet
        status, doc = fetch(server, "/links/east/perf")
        assert status == 200
        assert doc["link"] == "east"
        names = [stage["name"] for stage in doc["stages"]]
        assert "detect.feed" in names

    def test_index_lists_perf_routes(self, fleet):
        _, server = fleet
        _, doc = fetch(server, "/")
        assert "GET /perf" in doc["routes"]
        assert "GET /links/<id>/perf" in doc["routes"]
        assert "POST /links/<id>/profile" in doc["routes"]

    def test_post_profile_returns_collapsed_stacks(self, fleet):
        _, server = fleet
        request = urllib.request.Request(
            server.url + "/links/east/profile?seconds=0.2", method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            assert resp.status == 200
            doc = json.loads(resp.read())
        assert doc["link"] == "east"
        assert doc["seconds"] == 0.2
        assert doc["samples"] > 0
        # Collapsed-stack format: "frame;frame;... count" lines.
        for line in doc["collapsed"].splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_post_profile_validates_input(self, fleet):
        _, server = fleet
        for path, code in (("/links/nope/profile", 404),
                           ("/links/east/profile?seconds=nope", 400),
                           ("/links/east/profile?seconds=99", 400),
                           ("/links/east/profile?seconds=0", 400)):
            request = urllib.request.Request(server.url + path,
                                             method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == code


class TestParity:
    def test_per_link_loops_match_independent_runs(self, fleet, traces):
        supervisor, _ = fleet
        for link_id, path in traces.items():
            independent = StreamingLoopDetector(DetectorConfig())
            expected = independent.process_trace(
                read_pcap_columnar(path)
            )
            pipeline = supervisor.pipelines[link_id]
            assert loop_rows(pipeline.current.loops) == loop_rows(expected)
            assert (pipeline.current.streaming.stats.records
                    == independent.stats.records)


class TestRestart:
    def test_post_restart_reruns_deterministically(self, traces):
        config = FleetConfig.from_dict({
            "links": [{"id": "east",
                       "source": {"kind": "pcap",
                                  "path": str(traces["east"])}}],
        })
        supervisor = FleetSupervisor(config)
        results = {}
        with FleetServer(supervisor, port=0) as server:
            async def scenario():
                await supervisor.run()
                first = loop_rows(supervisor.pipelines["east"].current.loops)
                loop = asyncio.get_running_loop()

                def post():
                    request = urllib.request.Request(
                        server.url + "/links/east/restart", method="POST"
                    )
                    with urllib.request.urlopen(request, timeout=5) as resp:
                        return resp.status, json.loads(resp.read())

                status, doc = await loop.run_in_executor(None, post)
                assert status == 202
                assert doc["status"] == "restart requested"
                # The handler hopped the restart onto this loop via
                # call_soon_threadsafe; wait for it to land, then for
                # the re-run to complete.
                task = supervisor.tasks["east"]
                for _ in range(500):
                    await asyncio.sleep(0.01)
                    if task.restarts_total == 1:
                        break
                await supervisor.wait()
                results["first"] = first
                results["task"] = supervisor.tasks["east"]

            asyncio.run(scenario())
            second = loop_rows(supervisor.pipelines["east"].current.loops)
        assert results["task"].restarts_total == 1
        assert results["task"].state.value == "stopped"
        # A restarted run rebuilds everything and reproduces the first
        # run exactly.
        assert second == results["first"]

    def test_post_restart_unknown_link_404(self, fleet):
        _, server = fleet
        request = urllib.request.Request(
            server.url + "/links/nope/restart", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 404
