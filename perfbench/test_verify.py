"""Tests of the benchmark's own correctness checks and generator.

Run from the repository root::

    python3 -m pytest perfbench/test_verify.py

Each check must accept the program's real output and reject a corrupted
copy of it: a dropped loop, a loop shifted by one millisecond, or a
record miscount.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import synth  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

TINY = synth.TraceSpec(
    name="tiny", records=6000, duration_s=60.0, bg_prefixes=50, loops=5,
    streams_per_loop=(3, 6), replicas_per_stream=(3, 8), dup_pairs=5,
    decoys=3,
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    path, truth = synth.cached_trace(tmp_path_factory.mktemp("cache"),
                                     TINY, seed=3)
    return path, truth


def _offline_obs(path) -> dict:
    workload = workloads.Offline({"inputs": [{"path": str(path)}]})
    workload.setup()
    return workload.operation(60.0, spans.Stopwatch())


def _shift_first_loop(loops: list, micros: int) -> list:
    loops = copy.deepcopy(loops)
    loops[0][1] += micros
    return loops


class TestGenerator:
    def test_same_seed_same_bytes(self):
        first, truth = synth.generate(TINY, 5)
        again, _ = synth.generate(TINY, 5)
        assert first == again
        assert synth.generate(TINY, 6)[0] != first
        assert truth.records == (len(first) - 24) // 56

    def test_answer_key_shape(self, tiny):
        _, truth = tiny
        assert len(truth.loops) == TINY.loops
        assert truth.rejected_too_small == TINY.dup_pairs
        assert truth.rejected_prefix_conflict == TINY.decoys
        assert truth.candidate_streams == (truth.validated_streams
                                           + TINY.dup_pairs + TINY.decoys)

    def test_cache_round_trip(self, tiny, tmp_path):
        path, truth = tiny
        again_path, again = synth.cached_trace(path.parent, TINY, seed=3)
        assert again_path == path and again == truth


class TestOfflineCheck:
    def test_accepts_detector_output(self, tiny):
        path, truth = tiny
        assert verify.check_offline(truth, _offline_obs(path)) == []

    def test_rejects_dropped_loop(self, tiny):
        path, truth = tiny
        obs = _offline_obs(path)
        obs["loops"] = obs["loops"][1:]
        assert verify.check_offline(truth, obs)

    def test_rejects_one_ms_shift(self, tiny):
        path, truth = tiny
        obs = _offline_obs(path)
        obs["loops"] = _shift_first_loop(obs["loops"], 1000)
        assert verify.check_offline(truth, obs)

    def test_rejects_record_miscount(self, tiny):
        path, truth = tiny
        obs = _offline_obs(path)
        obs["records"] -= 1
        assert verify.check_offline(truth, obs)

    def test_rejects_accepted_duplicate_pair(self, tiny):
        path, truth = tiny
        obs = _offline_obs(path)
        obs["rejected_too_small"] -= 1
        obs["validated_streams"] += 1
        assert verify.check_offline(truth, obs)


@pytest.fixture(scope="module")
def fleet_obs(tiny):
    path, _ = tiny
    workload = workloads.Fleet({"inputs": [{"path": str(path)}]})
    workload.setup()
    return workload.operation(60.0, spans.Stopwatch())


class TestFleetCheck:
    def test_accepts_link_output(self, tiny, fleet_obs):
        _, truth = tiny
        (link,) = fleet_obs["links"]
        assert verify.check_fleet_link(truth, link) == []

    @pytest.mark.parametrize("corrupt", [
        lambda link: link.update(loops=link["loops"][1:]),
        lambda link: link.update(loops=_shift_first_loop(link["loops"],
                                                         1000)),
        lambda link: link.update(records=link["records"] + 1),
        lambda link: link.update(state="failed"),
        lambda link: link.update(finished=False),
        lambda link: link.update(crashes=1),
        lambda link: link.update(loops=None,
                                 loop_count=link["loop_count"] - 1),
    ], ids=["dropped-loop", "1ms-shift", "record-miscount", "failed",
            "unfinished", "crashed", "count-only-dropped-loop"])
    def test_rejects_corruption(self, tiny, fleet_obs, corrupt):
        _, truth = tiny
        link = copy.deepcopy(fleet_obs["links"][0])
        corrupt(link)
        assert verify.check_fleet_link(truth, link)


@pytest.fixture(scope="module")
def sim_obs(monkeypatch_module):
    """One scenario run from each of two operations of one seed."""
    monkeypatch_module.setattr(workloads, "SIM_SEEDS", 1)
    workload = workloads.TableOne({"seed": 2})
    workload.setup()
    return [workload.operation(60.0, spans.Stopwatch())["runs"][0]
            for _ in range(2)]


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as patch:
        yield patch


class TestSimulationCheck:
    def test_accepts_repeated_runs(self, sim_obs):
        first, second = sim_obs
        assert first["loops"], "scenario produced no loops to check"
        assert first["digest"] == second["digest"]
        assert verify.check_simulation(first, None) == []
        assert verify.check_simulation(second, first["digest"]) == []

    def test_rejects_digest_change(self, sim_obs):
        assert verify.check_simulation(sim_obs[0], "0" * 16)

    def test_rejects_record_miscount(self, sim_obs):
        obs = copy.deepcopy(sim_obs[0])
        obs["scanned"] -= 1
        assert verify.check_simulation(obs, None)

    def test_rejects_phantom_loop(self, sim_obs):
        obs = copy.deepcopy(sim_obs[0])
        phantom = list(obs["loops"][0])
        phantom[1] = phantom[2] = 10_000 * 1_000_000
        obs["loops"].append(phantom)
        assert verify.check_simulation(obs, None)

    def test_rejects_loop_on_wrong_prefix(self, sim_obs):
        obs = copy.deepcopy(sim_obs[0])
        obs["loops"][0][0] = "203.0.113.0/24"
        assert verify.check_simulation(obs, None)


class TestSelfTimes:
    def test_overlapping_children_subtract_once(self):
        recorder = spans.Recorder()
        recorder.spans = [
            {"id": 0, "name": "root", "parent": None, "start": 0.0,
             "end": 10.0},
            {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 5.0},
            {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 7.0},
            {"id": 3, "name": "a", "parent": 1, "start": 2.0, "end": 3.0},
        ]
        own = recorder.self_times()
        assert own["root"] == pytest.approx(4.0)
        assert own["a"] == pytest.approx(4.0)
        assert own["b"] == pytest.approx(4.0)

    def test_other_thread_spans_nest_under_anchor(self):
        import threading

        recorder = spans.Recorder()

        def child() -> None:
            with recorder.span("child"):
                pass

        with recorder.span("root", anchor=True):
            worker = threading.Thread(target=child)
            worker.start()
            worker.join(timeout=5)
        assert not worker.is_alive()
        assert recorder.spans[1]["parent"] == 0


class TestBenchmarkManifest:
    def test_metric_names_and_units_match_output(self):
        import json

        import run

        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        ops = [{"index": 0, "warmup": True, "traced": False}]
        printed = {
            0: run.end_to_end(ops, [(0.3, run.PROBE_REF_S)], 100.0, 1, 0),
            1: run.per_layer(ops, 1, 0),
        }
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in manifest[key]}
            assert {name: unit for name, (_, unit)
                    in printed[trace].items()} == declared
