"""Sharded, multi-process loop detection.

The paper's analysis ran offline over OC-12 traces of up to 2.8 billion
packets; a single Python process does not keep up with that.  This
subsystem splits step 1 (replica chaining) across worker processes and
keeps steps 2–3 (validation, merging) global, producing results identical
to the offline :class:`~repro.core.detector.LoopDetector`:

* :mod:`repro.parallel.shard` — deterministic masked-key → shard
  assignment into columnar slabs (exact, because all chaining state is
  keyed by the masked packet bytes);
* :mod:`repro.parallel.engine` — :class:`ParallelLoopDetector`, the
  shared-memory process-pool runner plus the cross-shard merge;
* :mod:`repro.parallel.batch` — concurrent multi-trace runs (all four
  Table I scenarios at once).
"""

from repro.parallel.batch import BatchItemResult, BatchResult, run_batch
from repro.parallel.engine import (
    ParallelDetectionResult,
    ParallelLoopDetector,
    ParallelStats,
    ShardRunStats,
)
from repro.parallel.shard import ColumnarShardPartition

__all__ = [
    "ParallelLoopDetector",
    "ParallelDetectionResult",
    "ParallelStats",
    "ShardRunStats",
    "ColumnarShardPartition",
    "BatchItemResult",
    "BatchResult",
    "run_batch",
]
