"""repro — detection and analysis of routing loops in packet traces.

A full reproduction of Hengartner, Moon, Mortier & Diot, *Detection and
Analysis of Routing Loops in Packet Traces* (IMC 2002): the replica-stream
loop detector, the analysis and impact metrics, and a discrete-event
backbone simulator (link-state IGP + simplified BGP + packet forwarding)
that stands in for the Sprint traces the paper used.

Quick start::

    from repro import LoopDetector, read_pcap

    trace = read_pcap("link.pcap")
    result = LoopDetector().detect(trace)
    for loop in result.loops:
        print(loop.prefix, loop.duration, loop.replica_count)

or simulate a backbone and detect loops in its monitor trace::

    from repro.sim import BackboneScenario

    scenario = BackboneScenario.table1_row("backbone1")
    run = scenario.run()
    result = LoopDetector().detect(run.trace)
"""

from repro.core.detector import DetectionResult, DetectorConfig, LoopDetector
from repro.core.merge import RoutingLoop
from repro.core.replica import Replica, ReplicaStream
from repro.core.streaming import StreamingLoopDetector
from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.net.pcap import (
    iter_pcap_columnar,
    read_pcap,
    read_pcap_columnar,
    write_pcap,
)
from repro.net.trace import Trace, TraceRecord
from repro.parallel import run_batch

__version__ = "1.0.0"

__all__ = [
    "LoopDetector",
    "StreamingLoopDetector",
    "run_batch",
    "DetectorConfig",
    "DetectionResult",
    "RoutingLoop",
    "ReplicaStream",
    "Replica",
    "Trace",
    "TraceRecord",
    "ColumnarChunk",
    "ColumnarTrace",
    "read_pcap",
    "read_pcap_columnar",
    "write_pcap",
    "iter_pcap_columnar",
    "__version__",
]
