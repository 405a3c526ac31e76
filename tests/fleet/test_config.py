"""Tests for the declarative fleet configuration."""

from __future__ import annotations

import json
import sys

import pytest

from repro.fleet.config import (
    AlertPolicy,
    FleetConfig,
    FleetConfigError,
    SourceConfig,
)


def minimal(link_id="a", **source):
    source = source or {"kind": "pcap", "path": "x.pcap"}
    return {"links": [{"id": link_id, "source": source}]}


class TestSourceConfig:
    def test_pcap_requires_path(self):
        with pytest.raises(FleetConfigError, match="requires 'path'"):
            SourceConfig.from_dict({"kind": "pcap"}, "link 'a'")

    def test_watch_requires_directory(self):
        with pytest.raises(FleetConfigError, match="requires 'directory'"):
            SourceConfig.from_dict({"kind": "watch"}, "link 'a'")

    def test_sim_requires_scenario(self):
        with pytest.raises(FleetConfigError, match="requires 'scenario'"):
            SourceConfig.from_dict({"kind": "sim"}, "link 'a'")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FleetConfigError, match="kind must be one of"):
            SourceConfig.from_dict({"kind": "netflow"}, "link 'a'")

    def test_unknown_key_rejected(self):
        with pytest.raises(FleetConfigError, match="unknown .* keys: paht"):
            SourceConfig.from_dict({"kind": "pcap", "paht": "x"}, "link 'a'")

    def test_negative_pace_rejected(self):
        with pytest.raises(FleetConfigError, match="pace"):
            SourceConfig.from_dict(
                {"kind": "pcap", "path": "x", "pace": -1}, "link 'a'"
            )

    def test_describe_is_kind_specific(self):
        source = SourceConfig.from_dict(
            {"kind": "watch", "directory": "caps", "pattern": "*.cap"},
            "link 'a'",
        )
        assert source.describe() == {"kind": "watch", "directory": "caps",
                                     "pattern": "*.cap"}


class TestFleetConfig:
    def test_minimal_json_roundtrip(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(minimal()))
        config = FleetConfig.load(path)
        assert [link.id for link in config.links] == ["a"]
        assert config.links[0].source.kind == "pcap"

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib is 3.11+")
    def test_toml_load(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(
            '[fleet]\nport = 9000\n'
            '[fleet.restart]\nmax_restarts = 2\n'
            '[[links]]\nid = "left"\n'
            'source = { kind = "pcap", path = "l.pcap" }\n'
            '[[links]]\nid = "right"\n'
            'source = { kind = "sim", scenario = "backbone3" }\n'
        )
        config = FleetConfig.load(path)
        assert config.port == 9000
        assert config.restart.max_restarts == 2
        assert [link.id for link in config.links] == ["left", "right"]
        assert config.links[1].source.scenario == "backbone3"

    def test_no_links_rejected(self):
        with pytest.raises(FleetConfigError, match="at least one link"):
            FleetConfig.from_dict({"links": []})

    def test_duplicate_ids_rejected(self):
        data = {"links": minimal()["links"] + minimal()["links"]}
        with pytest.raises(FleetConfigError, match="duplicate link id"):
            FleetConfig.from_dict(data)

    def test_url_hostile_id_rejected(self):
        with pytest.raises(FleetConfigError, match="URL"):
            FleetConfig.from_dict(minimal(link_id="a/b"))

    def test_unknown_top_level_key_rejected(self):
        data = minimal()
        data["linkss"] = []
        with pytest.raises(FleetConfigError, match="linkss"):
            FleetConfig.from_dict(data)

    def test_link_alerts_inherit_fleet_defaults(self):
        data = minimal()
        data["fleet"] = {"alerts": {"fire_after": 4, "clear_after": 3}}
        data["links"].append({
            "id": "b",
            "source": {"kind": "pcap", "path": "y.pcap"},
            "alerts": {"fire_after": 1},
        })
        config = FleetConfig.from_dict(data)
        # Link "a" takes the fleet policy wholesale; link "b" overrides
        # fire_after but inherits clear_after.
        assert config.links[0].alerts == AlertPolicy(fire_after=4,
                                                     clear_after=3)
        assert config.links[1].alerts.fire_after == 1
        assert config.links[1].alerts.clear_after == 3

    def test_detector_overrides_flow_through(self):
        data = minimal()
        data["links"][0]["detector"] = {"merge_gap": 30.0,
                                        "validate": False}
        link = FleetConfig.from_dict(data).links[0]
        assert link.detector.merge_gap == 30.0
        assert not link.detector.check_prefix_consistency
        assert not link.detector.check_gap_consistency

    def test_detector_bad_kernel_rejected(self):
        # There is one step-1 kernel, so the retired ``kernel`` key
        # is refused like any unknown key.
        data = minimal()
        data["links"][0]["detector"] = {"kernel": "columnar"}
        with pytest.raises(FleetConfigError, match="kernel"):
            FleetConfig.from_dict(data)

    def test_bad_restart_policy_rejected(self):
        data = minimal()
        data["fleet"] = {"restart": {"backoff_base": -1.0}}
        with pytest.raises(FleetConfigError, match="backoff_base"):
            FleetConfig.from_dict(data)

    def test_malformed_json_wrapped(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{nope")
        with pytest.raises(FleetConfigError):
            FleetConfig.load(path)

    def test_link_lookup(self):
        config = FleetConfig.from_dict(minimal())
        assert config.link("a").id == "a"
        with pytest.raises(KeyError):
            config.link("zz")


class TestBackendAndPrefetch:
    def test_defaults(self):
        config = FleetConfig.from_dict(minimal())
        assert config.link("a").prefetch == 2

    @pytest.mark.parametrize("key, value",
                             [("backend", "process"), ("workers", 2)],
                             ids=["backend", "workers"])
    def test_removed_backend_keys_rejected(self, key, value):
        data = minimal()
        data["fleet"] = {key: value}
        with pytest.raises(FleetConfigError,
                           match=f"unknown fleet keys: {key}"):
            FleetConfig.from_dict(data)

    def test_prefetch_depth_accepted(self):
        data = minimal()
        data["links"][0]["prefetch"] = 8
        assert FleetConfig.from_dict(data).link("a").prefetch == 8

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "4"])
    def test_bad_prefetch_rejected(self, bad):
        data = minimal()
        data["links"][0]["prefetch"] = bad
        with pytest.raises(FleetConfigError, match="prefetch must be"):
            FleetConfig.from_dict(data)
