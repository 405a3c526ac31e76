"""Benchmark of the routing-loop detector: one workload per run.

    python3 perfbench/run.py --workload offline_sparse --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The run

1. generates the workload's inputs from ``--seed`` (cached under
   ``.perfbench_cache/``) before any timing starts;
2. times set-up — a fresh interpreter importing the program and building
   the system under test — in several probe processes;
3. starts one worker process that builds the system, runs one untimed
   warm-up operation, then repeats the operation closed-loop for
   ``--seconds``; with ``--trace 1`` every other operation runs with the
   layer wrappers of :mod:`spans` installed;
4. checks every operation's output with :mod:`verify`, and prints the
   metrics as the last line of standard output, one JSON object.

Times behind the end-to-end metrics are scaled to a reference host speed
by a probe taken next to each measurement (README, "Host speed").  A full
report (inputs, environment, per-operation results, layer breakdown,
unscaled metrics) goes to ``.perfbench_out/``, traced spans beside it,
and the program's own log lines to a log file there, never to standard
output.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import synth  # noqa: E402
import verify  # noqa: E402
from workloads import SIM_DURATION_S, SIM_SCENARIO, SIM_SEEDS  # noqa: E402

WORKLOAD_NAMES = ("offline_sparse", "offline_storm", "fleet_live",
                  "table1_sim")

#: Probe processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9
#: A single operation running longer than this counts as failed.
OP_TIMEOUT_S = 60.0
#: Extra time the worker gets beyond ``--seconds`` (set-up, warm-up)
#: before it is killed and its unfinished operation counted as failed.
WORKER_SLACK_S = 90.0
#: Cap on timed operations per run, whatever their speed.
MAX_OPS = 200
#: Host speed probe: a C-level sum the interpreter's hooks cannot slow,
#: timed best of three; and the probe time taken as reference speed.
PROBE_TERMS = 600_000
PROBE_REF_S = 0.0125


def fleet_links() -> int:
    """One link per core this process may run on (at least two)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 2
    return min(8, max(2, cores))


# -- inputs --------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> list[dict]:
    """Generate (or reuse) the workload's pcaps; returns one entry per
    input with its path and answer key."""
    if workload == "offline_sparse":
        specs = [synth.SPECS["sparse"]]
    elif workload == "offline_storm":
        specs = [synth.SPECS["storm"]]
    elif workload == "fleet_live":
        kinds = ("fleet_sparse", "fleet_storm")
        specs = [synth.SPECS[kinds[i % 2]] for i in range(fleet_links())]
    else:
        return []
    inputs = []
    for spec in specs:
        path, truth = synth.cached_trace(CACHE, spec, seed)
        inputs.append({"path": str(path), "truth": truth.to_json()})
    return inputs


# -- worker process ------------------------------------------------------------

class OpTimeout(Exception):
    """An operation overran :data:`OP_TIMEOUT_S`."""


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:.0f}s")


def env_fingerprint() -> dict:
    from repro.core.replica import resolve_kernel

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cores,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": resolve_kernel("auto"),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(recorder, wall: float, obs: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    own = recorder.self_times()
    counts = recorder.counts

    def s(name: str) -> float:
        return own.get(name, 0.0)

    pcap_busy = s("net.pcap") + s("fleet.sources.read")
    candidates = counts["replica.candidates"]
    calls = counts["streaming.calls"]
    unaccounted = s("bench.op") + s("bench.sample")
    return {
        "net.pcap.busy_s": pcap_busy,
        "net.pcap.records": counts["pcap.records"],
        "net.pcap.mb_per_busy_s": (counts["pcap.bytes"] / 1e6 / pcap_busy
                                   if pcap_busy else 0.0),
        "core.streams.index_busy_s": s("core.streams.index"),
        "core.streams.validate_busy_s": s("core.streams.validate"),
        "core.streams.rejected": counts["streams.rejected"],
        "core.replica.busy_s": s("core.replica"),
        "core.replica.candidates": candidates,
        "core.replica.useful_ratio": (counts["streams.validated"]
                                      / candidates if candidates else 0.0),
        "core.merge.busy_s": s("core.merge"),
        "core.merge.loops": counts["merge.loops"],
        "core.detector.self_s": s("core.detector"),
        "core.streaming.busy_s": s("core.streaming"),
        "core.streaming.calls": calls,
        "core.streaming.records_per_call": (counts["streaming.records"]
                                            / calls if calls else 0.0),
        "core.streaming.state_entries": recorder.gauges.get(
            "streaming.state_entries", 0),
        "obs.live.busy_s": s("obs.live"),
        "obs.live.sample_calls": counts["live.sample_calls"],
        "fleet.sources.read_busy_s": s("fleet.sources.read"),
        "fleet.pipeline.source_wait_s": obs.get("source_wait_s", 0.0),
        "fleet.pipeline.feed_s": obs.get("feed_s", 0.0),
        "fleet.pipeline.self_s": s("fleet.pipeline"),
        "sim.backbone.build_s": s("sim.backbone.build"),
        "sim.backbone.self_s": s("sim.backbone"),
        "routing.events.busy_s": s("routing.events"),
        "routing.events.events": obs.get("events", 0),
        "routing.forwarding.packets_injected": (
            obs["packets"] if "events" in obs else 0),
        "routing.forwarding.cache_hit_ratio": obs.get("cache_hit_ratio",
                                                      0.0),
        "capture.monitor.finalize_s": s("capture.monitor.finalize"),
        "unaccounted_s": unaccounted,
        "trace.wall_s": wall,
        "trace.coverage": 1.0 - unaccounted / wall if wall else 0.0,
    }


def speed_probe() -> float:
    """Seconds a fixed amount of CPU work takes right now, averaged over
    the cores this process may run on.

    Small shared hosts change speed in phases of seconds to minutes as
    neighbours come and go, core by core.  Times are scaled by this
    probe, taken next to every measurement, so that a phase change does
    not read as a change in the program (see README, "Host speed")."""
    try:
        cores = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control: probe wherever we run
        return _probe_here()
    times = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            times.append(_probe_here())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(times) / len(times)


def _probe_here() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sum(range(PROBE_TERMS))
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss``
    across ``exec``, so a worker would report its parent's peak (the
    input generator's) whenever that was higher."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(path: Path, doc) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


def worker_main(spec_path: str) -> int:
    """Build the system, run the closed loop, write results as we go."""
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    results_path = Path(spec["results"])
    workload = WORKLOADS[spec["workload"]](spec)
    workload.setup()
    results = {"env": env_fingerprint(), "ops": []}
    traced_spans = []
    signal.signal(signal.SIGALRM, _alarm)
    began = None
    index = 0
    while index <= MAX_OPS:
        traced = bool(spec["trace"]) and index > 0 and index % 2 == 0
        recorder = spans.Recorder() if traced else None
        op = {"index": index, "warmup": index == 0, "traced": traced}
        if index == 1:
            began = time.perf_counter()
        op["probe_s"] = speed_probe()
        try:
            # A backstop a little past the timeout: the fleet stops its
            # own links at OP_TIMEOUT_S through ``run(run_for=...)``.
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S + 15.0)
            clock = spans.Stopwatch(recorder)
            with (spans.installed(recorder) if traced else nullcontext()):
                obs = workload.operation(OP_TIMEOUT_S, clock)
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = clock.wall
            op.update(wall_s=wall, obs=obs)
            if wall >= OP_TIMEOUT_S:
                op["error"] = f"timed out after {wall:.1f}s"
            if traced:
                op["layers"] = layer_metrics(recorder, wall, obs)
                traced_spans.append({
                    "op": index,
                    "spans": recorder.dump(recorder.spans[0]["start"]),
                })
        except Exception as error:  # an operation failure, not ours
            signal.setitimer(signal.ITIMER_REAL, 0)
            op["error"] = "".join(traceback.format_exception_only(error))
            traceback.print_exc()
        results["ops"].append(op)
        # Collect the operation's cyclic garbage now, untimed, so that no
        # operation's peak memory includes the previous one's leftovers.
        gc.collect()
        results["peak_rss_mb"] = peak_rss_mb()
        _write_json(results_path, results)
        index += 1
        if index < 2 or (spec["trace"] and index < 3):
            continue
        elapsed = time.perf_counter() - began
        if elapsed + op.get("wall_s", 0.0) > spec["seconds"]:
            break
    results["final_probe_s"] = speed_probe()
    _write_json(results_path, results)
    if traced_spans:
        _write_json(Path(spec["spans"]), traced_spans)
    return 0


def probe_main(spec_path: str) -> int:
    """Set up the system under test once and say so: the parent times
    this process from spawn to the ``ready`` line."""
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORKLOADS[spec["workload"]](spec).setup()
    print("ready", flush=True)
    return 0


# -- parent --------------------------------------------------------------------

def time_setup(spec_path: Path, log) -> list[tuple[float, float]]:
    """``(seconds, host probe)`` for each set-up probe process."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe_s = speed_probe()
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             str(spec_path)],
            stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT,
        )
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.wait(timeout=60)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError("set-up probe failed; see the log")
        samples.append((elapsed, (probe_s + speed_probe()) / 2))
    return samples


def run_worker(spec_path: Path, seconds: float, log) -> bool:
    """Run the worker; False when it had to be killed."""
    worker = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(spec_path)],
        stdin=subprocess.DEVNULL, stdout=log, stderr=log, cwd=ROOT,
    )
    try:
        worker.wait(timeout=seconds + WORKER_SLACK_S)
        return True
    except subprocess.TimeoutExpired:
        return False
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()


def _check_sim_run(run: dict, references: dict[int, str]) -> list[str]:
    """Check one scenario run; the first correct run of a scenario seed
    fixes its digest for every later run, in this process and after."""
    seed = run["seed"]
    path = CACHE / (f"table1-{SIM_SCENARIO}-{SIM_DURATION_S:g}"
                    f"-s{seed}.digest")
    if seed not in references and path.exists():
        references[seed] = path.read_text().strip()
    found = verify.check_simulation(run, references.get(seed))
    if seed not in references and not found:
        references[seed] = run["digest"]
        CACHE.mkdir(parents=True, exist_ok=True)
        path.write_text(run["digest"] + "\n")
    return found


def judge(workload: str, inputs: list[dict], ops: list[dict]
          ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every operation; each fleet
    link and each scenario run counts as one attempted operation."""
    truths = [synth.Truth.from_json(item["truth"]) for item in inputs]
    units = {"fleet_live": len(truths), "table1_sim": SIM_SEEDS}.get(
        workload, 1)
    references: dict[int, str] = {}
    attempted = failed = 0
    problems: list[str] = []
    for op in ops:
        attempted += units
        if "error" in op:
            failed += units
            problems.append(f"op {op['index']}: {op['error'].strip()}")
            continue
        obs = op["obs"]
        if workload == "fleet_live":
            found = [verify.check_fleet_link(truth, link)
                     for truth, link in zip(truths, obs["links"])]
        elif workload == "table1_sim":
            found = [_check_sim_run(run, references) for run in obs["runs"]]
        else:
            found = [verify.check_offline(truths[0], obs)]
        failed += sum(1 for part in found if part)
        problems += [f"op {op['index']}: {problem}"
                     for part in found for problem in part]
    return attempted, failed, problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_scale(ops: list[dict], final_probe: float | None) -> None:
    """Give each operation ``scale``: reference ÷ actual host speed
    over the operation, from the probes just before and after it."""
    for op, after in zip(ops, ops[1:] + [{"probe_s": final_probe}]):
        if "probe_s" in op:
            after_s = after.get("probe_s") or op["probe_s"]
            op["scale"] = (op["probe_s"] + after_s) / 2 / PROBE_REF_S


def end_to_end(ops: list[dict], setup: list[tuple[float, float]],
               peak_mb: float, attempted: int, failed: int,
               adjust: bool = True) -> dict:
    """End-to-end metrics; rates and set-up time are scaled to the
    reference host speed unless ``adjust`` is false."""
    timed = [op for op in ops
             if not op["warmup"] and not op["traced"] and "error" not in op]

    def scale(item: dict) -> float:
        return item["scale"] if adjust else 1.0

    return {
        "records_per_s": (_median([op["obs"]["records"] / op["wall_s"]
                                   * scale(op) for op in timed]), "1/s"),
        "packets_per_s": (_median([op["obs"]["packets"] / op["wall_s"]
                                   * scale(op) for op in timed]), "1/s"),
        "setup_s": (_median([seconds / (probe / PROBE_REF_S if adjust
                                        else 1.0)
                             for seconds, probe in setup]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_frac": (1.0 - failed / attempted if attempted else 0.0,
                         "ratio"),
    }


#: Units of the per-layer metrics, by name suffix.
_LAYER_UNITS = (("_s", "s"), ("_ratio", "ratio"), ("_frac", "ratio"),
                ("coverage", "ratio"), ("mb_per_busy_s", "MB/s"),
                ("records_per_call", "count"))


def _layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS[::-1]:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(ops: list[dict], attempted: int, failed: int) -> dict:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    untraced = [op["wall_s"] / op["scale"] for op in ops
                if not op["warmup"] and not op["traced"] and "wall_s" in op]
    # Every layer metric is printed, as 0 when no traced operation ran.
    names = layer_metrics(spans.Recorder(), 0.0, {})
    out = {name: (_median([op["layers"][name] for op in traced]),
                  _layer_unit(name))
           for name in names}
    walls = [op["wall_s"] / op["scale"] for op in traced]
    overhead = (_median(walls) / _median(untraced) - 1.0
                if walls and untraced else 0.0)
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["host.probe_ms"] = (_median([op["probe_s"] * 1e3 for op in ops
                                     if "probe_s" in op]), "ms")
    out["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    return out


def bench_main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    spec_path = OUT / f"{stem}.spec.json"
    results_path = OUT / f"{stem}.ops.json"
    log_path = OUT / f"{stem}.log"
    inputs = make_inputs(args.workload, args.seed)
    spec = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
        "results": str(results_path), "spans": str(OUT / f"{stem}.spans.json"),
    }
    _write_json(spec_path, spec)
    results_path.unlink(missing_ok=True)
    with open(log_path, "w") as log:
        setup = time_setup(spec_path, log)
        finished = run_worker(spec_path, args.seconds, log)
    results = (json.loads(results_path.read_text())
               if results_path.exists() else {"ops": []})
    ops = results["ops"]
    host_scale(ops, results.get("final_probe_s"))
    if not finished:
        ops.append({"index": len(ops), "warmup": not ops, "traced": False,
                    "error": "worker killed after "
                             f"{args.seconds + WORKER_SLACK_S:.0f}s"})
    attempted, failed, problems = judge(args.workload, inputs, ops)
    unadjusted = {}
    if args.trace:
        metrics = per_layer(ops, attempted, failed)
    else:
        metrics, unadjusted = (
            end_to_end(ops, setup, results.get("peak_rss_mb", 0.0),
                       attempted, failed, adjust=adjust)
            for adjust in (True, False))
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": results.get("env"),
        "inputs": [synth.Truth.from_json(item["truth"]).describe()
                   for item in inputs],
        "setup_samples_s": setup,
        "ops": [{key: op[key] for key in ("index", "warmup", "traced",
                                          "wall_s", "probe_s", "scale",
                                          "error", "layers")
                 if key in op} for op in ops],
        "problems": problems,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "unadjusted": {name: value
                       for name, (value, _) in unadjusted.items()},
    }
    report_path = OUT / f"{stem}.report.json"
    report_path.write_text(json.dumps(report, indent=1))
    for item in report["inputs"]:
        print(f"input {item}")
    print(f"env {report['env']}")
    if unadjusted:
        print(f"unadjusted {report['unadjusted']}")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    print(f"report {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker_main(args.worker)
    if args.probe:
        return probe_main(args.probe)
    if args.workload is None:
        parser.error("--workload is required")
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
