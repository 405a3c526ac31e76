"""The system under test for each workload, as the benchmark worker
drives it.

Every workload builds its system with default settings (``setup``),
then repeats one *operation* — the unit that is timed, checked, and
counted as attempted or failed:

* ``offline_sparse`` / ``offline_storm`` — one pcap on disk to its loop
  list through the path ``repro-loops detect`` takes by default:
  :func:`~repro.net.pcap.read_pcap_columnar` then
  :meth:`~repro.core.detector.LoopDetector.detect_columnar`;
* ``fleet_live`` — the fleet daemon's supervisor (default backend) with
  one pcap link per core replaying at full speed, half of them a sparse
  trace and half a storm trace; the operation ends when every link has
  stopped and flushed;
* ``table1_sim`` — a shortened Table I scenario under four seeds, each
  simulated, then detected offline, as ``repro-loops simulate`` does.

An operation times exactly its blocking steps inside ``with clock``
(a :class:`spans.Stopwatch`) and returns the records and packets it
processed plus plain observations for :mod:`verify`; nothing here
judges correctness.
"""

from __future__ import annotations

import asyncio
import hashlib
import struct

from verify import loop_row

#: ``table1_sim``: the Table I scenario, its simulated seconds, and how
#: many seeds of it one operation runs.
SIM_SCENARIO = "backbone1"
SIM_DURATION_S = 30.0
SIM_SEEDS = 4


class Offline:
    """pcap on disk → loops, the default ``detect`` path."""

    def __init__(self, spec: dict) -> None:
        self.path = spec["inputs"][0]["path"]

    def setup(self) -> None:
        from repro.core.detector import LoopDetector
        from repro.net import pcap

        self.pcap = pcap
        self.detector = LoopDetector()

    def operation(self, timeout: float, clock) -> dict:
        with clock:
            trace = self.pcap.read_pcap_columnar(self.path)
            result = self.detector.detect_columnar(trace)
        validation = result.validation
        return {
            "packets": len(trace),
            "records": len(trace),
            "loops": [loop_row(loop) for loop in result.loops],
            "validated_streams": len(validation.valid),
            "candidate_streams": len(result.candidate_streams),
            "rejected_too_small": validation.rejected_too_small,
            "rejected_prefix_conflict": validation.rejected_prefix_conflict,
        }


class Fleet:
    """The fleet supervisor over N full-speed pcap links."""

    def __init__(self, spec: dict) -> None:
        self.links = [
            {"id": f"link{i}",
             "source": {"kind": "pcap", "path": item["path"]}}
            for i, item in enumerate(spec["inputs"])
        ]

    def setup(self) -> None:
        from repro.fleet import FleetConfig, build_supervisor

        self.config = FleetConfig.from_dict({"links": self.links})
        self.build = build_supervisor
        self.supervisor = build_supervisor(self.config)

    def operation(self, timeout: float, clock) -> dict:
        supervisor = self.supervisor
        with clock:
            asyncio.run(supervisor.run(run_for=timeout))
        # The next operation gets a fresh supervisor, built untimed.
        self.supervisor = self.build(self.config)
        links = [_link_result(supervisor, row)
                 for row in supervisor.snapshot()["links"]]
        records = sum(link["records"] for link in links)
        return {
            "packets": records,
            "records": records,
            "links": links,
            "source_wait_s": sum(link["stages"].get("source.wait", 0.0)
                                 for link in links),
            "feed_s": sum(link["stages"].get("detect.feed", 0.0)
                          for link in links),
        }


def _link_result(supervisor, row: dict) -> dict:
    pipeline = getattr(supervisor, "pipelines", {}).get(row["id"])
    current = getattr(pipeline, "current", None)
    stages = {}
    perf = getattr(pipeline, "perf", None)
    if perf is not None:
        stages = {stage["name"]: stage["seconds"]
                  for stage in perf()["stages"]}
    return {
        "id": row["id"],
        "state": row["state"],
        "finished": row["run_finished"],
        "crashes": row["crashes_total"],
        "records": row["records"],
        "loop_count": row["loops"],
        "loops": (None if current is None
                  else [loop_row(loop) for loop in current.loops]),
        "stages": stages,
    }


class TableOne:
    """Shortened Table I scenarios: simulate, then detect offline.

    The work per packet depends on the topology a scenario seed draws,
    so one operation runs several seeds of the scenario (derived from
    the benchmark seed) and the metric averages over topologies.
    """

    def __init__(self, spec: dict) -> None:
        self.seeds = [spec["seed"] * SIM_SEEDS + k for k in range(SIM_SEEDS)]

    def setup(self) -> None:
        from repro.core.detector import LoopDetector
        from repro.sim import table1_scenario

        self.scenarios = [
            table1_scenario(SIM_SCENARIO, seed=seed, duration=SIM_DURATION_S)
            for seed in self.seeds
        ]
        self.detector = LoopDetector()

    def operation(self, timeout: float, clock) -> dict:
        done = []
        with clock:
            for scenario in self.scenarios:
                run = scenario.run()
                done.append((run, self.detector.detect(run.trace)))
        runs = [_sim_result(seed, run, result)
                for seed, (run, result) in zip(self.seeds, done)]
        engines = [run.engine for run, _ in done]
        packets = sum(engine.packets_injected for engine in engines)
        hits = sum(engine.cache_hits for engine in engines)
        lookups = hits + sum(engine.cache_misses for engine in engines)
        return {
            "packets": packets,
            # The simulated network's input records are its packets; the
            # monitor's capture varies a hundredfold between seeds.
            "records": packets,
            "runs": runs,
            "events": sum(engine.scheduler.events_processed
                          for engine in engines),
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
        }


def _sim_result(seed: int, run, result) -> dict:
    return {
        "seed": seed,
        "scanned": result.scan_stats.records_scanned,
        "trace_records": len(run.trace),
        "digest": trace_digest(run.trace),
        "loops": [loop_row(loop) for loop in result.loops],
        "looped": [[audit.dst.value, audit.injected_at, audit.fate_time]
                   for audit in run.engine.audits if audit.looped],
    }


def trace_digest(trace) -> str:
    """Digest of every record's timestamp, wire length and bytes."""
    digest = hashlib.sha256()
    pack = struct.Struct("<dI").pack
    for record in trace.records:
        digest.update(pack(record.timestamp, record.wire_length))
        digest.update(record.data)
    return digest.hexdigest()[:16]


WORKLOADS = {
    "offline_sparse": Offline,
    "offline_storm": Offline,
    "fleet_live": Fleet,
    "table1_sim": TableOne,
}
