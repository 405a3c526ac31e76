"""Concurrent multi-trace detection.

The paper analyzed each of its four traces (Table I) in one offline
pass.  :mod:`repro.parallel.batch` keeps that unit of work and runs
several traces at once: :func:`run_batch` hands whole traces (pcap files
or simulated Table I scenarios) to a process pool and aggregates the
per-trace results into one report.
"""

from repro.parallel.batch import BatchItemResult, BatchResult, run_batch

__all__ = [
    "BatchItemResult",
    "BatchResult",
    "run_batch",
]
