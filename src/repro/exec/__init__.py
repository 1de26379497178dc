"""Shared-memory multicore execution layer.

``repro.exec`` fans deterministic work out over a process pool while
keeping results **bit-identical** to a serial run:

* :func:`~repro.exec.shm.publish_graph` ships one immutable
  :class:`~repro.graph.compact.IndexedDiGraph` to every worker — through
  ``multiprocessing.shared_memory`` CSR segments when NumPy is present,
  or pickled once per worker otherwise;
* :class:`~repro.exec.pool.ParallelExecutor` owns one **long-lived**
  worker pool (created lazily, reused across maps and subsystems until
  ``close()``), pins the graph publication for the pool's lifetime,
  caches per-worker task state between maps, schedules contiguous,
  index-ordered chunks (auto-tuned from observed per-item cost), merges
  results in chunk order, and folds worker metrics back through the
  :mod:`repro.obs` snapshot-and-merge protocol — with per-chunk
  timeouts, deterministic retries on recycled workers, and graceful
  degradation to inline execution when the pool keeps failing;
* :class:`~repro.exec.resilience.FaultPlan` scripts worker failures
  (kill/hang/raise) for the fault-injection test suites, ambiently via
  the ``REPRO_EXEC_FAULTS`` environment variable;
* :class:`~repro.exec.checkpoint.CheckpointStore` persists the long
  loops' round state as ``repro.ckpt/v1`` JSON so interrupted runs
  resume bit-identical; :func:`~repro.exec.checkpoint.run_replicas` is
  the one resume/run/save loop every replica sweep goes through.

See ``docs/parallel.md`` for the determinism contract and the failure
semantics.
"""

from repro.exec.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    as_store,
    run_key,
)
from repro.exec.pool import (
    ParallelExecutor,
    resolve_workers,
    split_chunks,
    split_even,
)
from repro.exec.resilience import ChunkFault, FaultInjected, FaultPlan
from repro.exec.shm import GraphPublication, materialize_graph, publish_graph

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "ChunkFault",
    "FaultInjected",
    "FaultPlan",
    "GraphPublication",
    "ParallelExecutor",
    "as_store",
    "materialize_graph",
    "publish_graph",
    "resolve_workers",
    "run_key",
    "split_chunks",
    "split_even",
]
