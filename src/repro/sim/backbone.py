"""Backbone scenario builder.

A :class:`BackboneScenario` assembles the whole stack — POP-level
topology, link-state IGP, I-BGP prefix layer, Poisson workload, link
failures and BGP withdrawals, and a passive monitor on one inter-POP link
direction — then runs it and hands back the monitor's trace together with
the simulator's ground truth.

Loops are produced by two mechanisms, both emergent:

* **IGP flaps** of links near the monitored link (convergence windows of
  hundreds of milliseconds → short loops, Fig. 9's "90% under 10 s");
* **BGP withdrawals** of multihomed prefixes (propagation of seconds →
  the longer loops the paper sees on Backbones 1 and 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.capture.monitor import LinkMonitor
from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace
from repro.routing.bgp import BgpProcess, BgpTimers
from repro.routing.events import EventScheduler
from repro.routing.failures import FailureSchedule
from repro.routing.forwarding import ForwardingEngine, PacketFate
from repro.routing.journal import RoutingJournal
from repro.routing.linkstate import LinkStateProtocol, LinkStateTimers
from repro.routing.topology import (
    Topology,
    backbone_topology,
    triangle_backbone_topology,
)
from repro.traffic.flows import PrefixPopulation
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.mix import DEFAULT_MIX, TrafficMix
from repro.traffic.ttl import DEFAULT_TTL_MODEL, InitialTtlModel


class ScenarioError(ValueError):
    """Raised for inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one reproducible backbone run."""

    name: str
    seed: int = 0
    pops: int = 8
    extra_edges: int = 4
    duration: float = 300.0
    rate_pps: float = 400.0
    n_prefixes: int = 150
    n_flows: int = 1500
    igp_flaps: int = 5
    flap_downtime: tuple[float, float] = (5.0, 30.0)
    bgp_withdrawals: int = 3
    withdrawal_holdtime: float = 60.0
    capacity_bps: float = 622_080_000.0
    mix: TrafficMix = DEFAULT_MIX
    ttl_model: InitialTtlModel = DEFAULT_TTL_MODEL
    igp_timers: LinkStateTimers = field(default_factory=LinkStateTimers)
    bgp_timers: BgpTimers = field(default_factory=BgpTimers)
    icmp_time_exceeded_probability: float = 0.5
    keep_audits: bool = True
    warmup: float = 5.0
    #: "random" — ring + random chords; "triangle" — the engineered
    #: micro-loop motif topology (multi-hop loops on the monitored link).
    topology_style: str = "random"

    def __post_init__(self) -> None:
        if self.duration <= self.warmup:
            raise ScenarioError("duration must exceed warmup")
        if self.pops < 4:
            raise ScenarioError("need at least 4 POPs")
        if self.topology_style not in ("random", "triangle"):
            raise ScenarioError(
                f"unknown topology style {self.topology_style!r}"
            )
        if self.topology_style == "triangle" and self.pops < 6:
            raise ScenarioError("triangle topology needs at least 6 POPs")


@dataclass(slots=True)
class ScenarioRun:
    """Output of one scenario execution."""

    config: ScenarioConfig
    trace: Trace
    engine: ForwardingEngine
    topology: Topology
    igp: LinkStateProtocol
    bgp: BgpProcess
    generator: WorkloadGenerator
    monitor_direction: tuple[str, str]
    journal: RoutingJournal
    monitor: LinkMonitor

    @property
    def ground_truth_looped(self) -> int:
        """Packets that revisited a router anywhere in the AS (audit)."""
        return sum(1 for audit in self.engine.audits if audit.looped)

    @property
    def ground_truth_expired(self) -> int:
        return self.engine.fate_counts[PacketFate.TTL_EXPIRED]

    def looped_packet_ids_crossing_monitor(self) -> set[int]:
        """Audited looped packets that crossed the monitored direction at
        least twice — the packets the detector could possibly see.

        Requires the engine to have been built with
        ``record_crossings=True``.
        """
        from_router, to_router = self.monitor_direction
        wanted = f"{from_router}->{to_router}"
        ids: set[int] = set()
        for audit in self.engine.audits:
            if not audit.looped:
                continue
            crossings = sum(
                1 for _, _, direction, _ in audit.crossings
                if direction == wanted
            )
            if crossings >= 2:
                ids.add(audit.packet_id)
        return ids


class BackboneScenario:
    """Builds and runs one backbone scenario."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config

    # -- assembly ------------------------------------------------------------

    def build(self, record_crossings: bool = False,
              tracer=None) -> ScenarioRun:
        """Wire the full stack without running it.

        ``tracer`` (a :class:`repro.obs.tracing.Tracer`) is re-clocked to
        simulation time and attached to the control plane — IGP, BGP, the
        failure injector (which reads ``igp.tracer``), and every
        per-router prefix FIB.  It is wired *after* protocol start so the
        trace records convergence activity, not the thousands of initial
        route installs.
        """
        config = self.config
        seed = config.seed
        topo_rng = random.Random(seed)
        if config.topology_style == "triangle":
            topology = triangle_backbone_topology(
                pops=config.pops,
                rng=topo_rng,
                extra_edges=config.extra_edges,
                capacity_bps=config.capacity_bps,
            )
        else:
            topology = backbone_topology(
                pops=config.pops,
                rng=topo_rng,
                extra_edges=config.extra_edges,
                capacity_bps=config.capacity_bps,
            )
        scheduler = EventScheduler()
        journal = RoutingJournal()
        igp = LinkStateProtocol(
            topology, scheduler, timers=config.igp_timers,
            rng=random.Random(seed + 1),
            journal=journal,
        )
        bgp = BgpProcess(
            topology, scheduler, igp, timers=config.bgp_timers,
            rng=random.Random(seed + 2),
        )

        routers = topology.routers
        # Egresses spread around the POP ring (real backbones peer at
        # several POPs).  Hot-potato routing splits the AS into catchment
        # areas; single-homed prefixes at far egresses create *transit*
        # traffic across the monitored link, which is what lets loops
        # longer than two routers show up there.
        count = len(routers)
        if config.topology_style == "triangle":
            # Keep pop2 (the chord endpoint) a pure transit router and
            # put one egress on the far side so near-pop0 traffic
            # transits the failing pop0–pop(n-1) link.
            indices = (0, count // 2, 3 * count // 4)
        elif count >= 8:
            indices = (0, count // 4, count // 2, 3 * count // 4)
        else:
            indices = (0, count // 2)
        egresses = [routers[i] for i in dict.fromkeys(indices)]
        population = PrefixPopulation(
            egresses=egresses,
            n_prefixes=config.n_prefixes,
            rng=random.Random(seed + 3),
        )
        for prefix, egress in population.originations():
            bgp.originate(prefix, egress)
        # Multicast groups exit at the first egress so MCAST packets
        # actually cross backbone links (Figure 5 counts them on the link).
        bgp.originate(IPv4Prefix.parse("224.0.0.0/4"), egresses[0])

        igp.start()
        bgp.start()

        if tracer is not None:
            tracer.clock = lambda: scheduler.now
            igp.tracer = tracer
            bgp.tracer = tracer
            for name in routers:
                bgp.fib(name).on_mutation = (
                    lambda op, prefix, next_hop, epoch, router=name:
                        tracer.event("fib_mutation", router=router, op=op,
                                     prefix=str(prefix), next_hop=next_hop,
                                     epoch=epoch)
                )

        engine = ForwardingEngine(
            topology, scheduler, igp, bgp,
            rng=random.Random(seed + 4),
            keep_audits=config.keep_audits,
            record_crossings=record_crossings,
            icmp_time_exceeded_probability=(
                config.icmp_time_exceeded_probability
            ),
        )
        generator = WorkloadGenerator(
            engine, population,
            rate_pps=config.rate_pps,
            rng=random.Random(seed + 5),
            mix=config.mix,
            ttl_model=config.ttl_model,
            n_flows=config.n_flows,
        )
        monitor_direction = self._monitor_direction(topology)
        monitor = LinkMonitor(engine, *monitor_direction)

        run = ScenarioRun(
            config=config,
            trace=monitor.trace,
            engine=engine,
            topology=topology,
            igp=igp,
            bgp=bgp,
            generator=generator,
            monitor_direction=monitor_direction,
            journal=journal,
            monitor=monitor,
        )
        self._monitor = monitor
        self._schedule_events(run, random.Random(seed + 6))
        return run

    def run(self, record_crossings: bool = False, tracer=None,
            progress=None, live_monitor=None) -> ScenarioRun:
        """Build, execute to completion, and finalize the trace.

        ``progress`` is called as ``progress(sim_now)`` at 1/20th of the
        scenario duration (at least every simulated second) — a heartbeat
        for long runs.  The repeating event is cancelled after the drain,
        so the scheduler queue still empties.

        ``live_monitor`` (a :class:`~repro.obs.live.LiveMonitor`) is fed
        the tap's captured records as the simulation advances — drained
        once per simulated second from the capture buffer, never from
        the per-packet path — so a scrape endpoint running alongside the
        simulation shows windows filling in simulation time.
        """
        run = self.build(record_crossings=record_crossings, tracer=tracer)
        config = self.config
        scheduler = run.engine.scheduler
        heartbeat = None
        if progress is not None:
            interval = max(config.duration / 20.0, 1.0)
            heartbeat = scheduler.every(
                interval, lambda: progress(scheduler.now)
            )
        feeder = None
        if live_monitor is not None:
            cursor = [0]

            def feed() -> None:
                cursor[0] = self._feed_live(live_monitor, cursor[0])

            feeder = scheduler.every(1.0, feed)
        run.generator.run(0.0, config.duration)
        # Drain: events (BGP propagation, in-flight packets) can outlive
        # the workload window.
        scheduler.run(until=config.duration + 120.0)
        if heartbeat is not None:
            heartbeat.cancel()
        if feeder is not None:
            feeder.cancel()
            self._feed_live(live_monitor, cursor[0])
        self._monitor.finalize()
        return run

    def _feed_live(self, live_monitor, cursor: int) -> int:
        """Feed records captured since ``cursor`` into the live monitor;
        returns the new cursor."""
        cursor, records = self._monitor.drain_since(cursor)
        for record in records:
            live_monitor.observe_record(record.timestamp)
        return cursor

    # -- event scheduling ----------------------------------------------------------

    def _monitor_direction(self, topology: Topology) -> tuple[str, str]:
        """Monitor the link between the primary egress and its first hop
        toward the backup egress.

        For the engineered triangle topology the loop motif sits on
        pop1→pop0, so that direction is monitored directly.

        During an egress shift away from the primary, the not-yet-updated
        neighbor still forwards toward the primary while the primary
        already forwards toward the backup — a loop exactly on this link,
        observed in the (neighbor → primary) direction.  IGP detours
        around the primary's other adjacencies cross it too.
        """
        routers = topology.routers
        if self.config.topology_style == "triangle":
            return (routers[1], routers[0])
        primary, backup = routers[0], routers[len(routers) // 2]
        paths = topology.shortest_paths(primary)
        _, first_hop = paths[backup]
        if first_hop is None:
            first_hop = routers[1]
        return (first_hop, primary)

    def _schedule_events(self, run: ScenarioRun, rng: random.Random) -> None:
        config = self.config
        topology = run.topology
        from_router, to_router = run.monitor_direction

        if config.igp_flaps > 0:
            monitored = topology.link_between(from_router, to_router).name
            if config.topology_style == "triangle":
                # Flap the link whose failure exercises the engineered
                # motif (pop0–pop(n-1)), plus one far-side ring link for
                # event variety.
                routers = topology.routers
                eligible = [
                    topology.link_between(routers[0], routers[-1]).name,
                    topology.link_between(
                        routers[len(routers) // 2],
                        routers[len(routers) // 2 + 1],
                    ).name,
                ]
            else:
                # Fail links adjacent to the monitored link's endpoints
                # (but never the monitored link itself): the repair
                # detours then route around — and loop across — the
                # monitored link.
                eligible = sorted(
                    {
                        link.name
                        for endpoint in (from_router, to_router)
                        for link in topology.adjacent_links(endpoint)
                        if link.name != monitored
                    }
                )
            schedule = FailureSchedule.random_flaps(
                topology,
                rng,
                count=config.igp_flaps,
                start=config.warmup,
                end=config.duration * 0.95,
                downtime_range=config.flap_downtime,
                eligible_links=eligible,
            )
            schedule.apply(topology, run.engine.scheduler, run.igp)

        if config.bgp_withdrawals > 0:
            population = run.generator.population
            primary_router = to_router
            candidates = [
                prefix for prefix in run.bgp.prefixes
                if prefix in population.backup_egress
            ]
            # Prefer popular prefixes whose primary egress is the
            # monitored router: their withdrawal shifts traffic across
            # the monitored link.
            candidates.sort(
                key=lambda p: (
                    population.primary_egress.get(p) == primary_router,
                    population.popularity(p),
                ),
                reverse=True,
            )
            for i in range(min(config.bgp_withdrawals, len(candidates))):
                prefix = candidates[i]
                egress = run.generator.population.primary_egress[prefix]
                when = rng.uniform(config.warmup, config.duration * 0.9)
                run.engine.scheduler.schedule_at(
                    when,
                    lambda p=prefix, e=egress: run.bgp.withdraw(p, e),
                )
                readvertise = when + config.withdrawal_holdtime
                if readvertise < config.duration:
                    run.engine.scheduler.schedule_at(
                        readvertise,
                        lambda p=prefix, e=egress: run.bgp.advertise(p, e),
                    )
