"""The execution layer: executors, resilience, caches, instrumentation.

This package is how the harness runs "as fast as the hardware allows"
without giving up reproducibility — or results — when things break:

* :mod:`repro.runtime.executor` — serial / process-parallel mapping of
  picklable task specs (``workers`` argument, order-preserving,
  bit-identical to the serial path).  Its ``ParallelExecutor`` is the
  one supervised worker pool of the code base — experiment sweeps,
  replications, verify campaigns and sharded days all run on it — and
  the pool outlives one ``map`` until the executor is closed;
  ``heartbeat()`` lets a long task push its deadline out, and
  ``map(..., keys=)`` names tasks for the journal and the chaos draw;
* :mod:`repro.runtime.resilience` — the failure policy the executors
  apply: bounded retries with deterministic backoff, per-task timeouts,
  broken-pool salvage, ``fail``/``skip`` failure handling, and seeded
  chaos injection (``ResilienceConfig.chaos``);
* :mod:`repro.runtime.journal` — the append-only checkpoint journal
  behind ``repro run --resume``;
* :mod:`repro.runtime.cache` — the bounded, observable
  :class:`~repro.runtime.cache.ComputeCache` behind Algorithm 3's stroll
  matrices and the graphs' all-pairs shortest-path tables;
* :mod:`repro.runtime.instrument` — counters and phase timers whose
  report lands in ``ExperimentResult.params["runtime"]`` and prints via
  ``repro run --profile``.
"""

from repro.runtime.cache import ComputeCache, get_compute_cache, set_compute_cache
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
    heartbeat,
    map_tasks,
)
from repro.runtime.instrument import (
    count,
    counters,
    format_report,
    merge_snapshot,
    report,
    reset,
    snapshot,
    snapshot_delta,
)
from repro.runtime.journal import Journal, task_fingerprint
from repro.runtime.resilience import (
    ChaosConfig,
    ChaosError,
    ResilienceConfig,
    TaskFailure,
    backoff_delay,
    drain_failures,
    get_resilience,
    record_failure,
    use_resilience,
)

__all__ = [
    # cache
    "ComputeCache",
    "get_compute_cache",
    "set_compute_cache",
    # executor
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "heartbeat",
    "map_tasks",
    # resilience
    "ChaosConfig",
    "ChaosError",
    "ResilienceConfig",
    "TaskFailure",
    "backoff_delay",
    "drain_failures",
    "get_resilience",
    "record_failure",
    "use_resilience",
    # journal
    "Journal",
    "task_fingerprint",
    # instrumentation
    "count",
    "counters",
    "reset",
    "snapshot",
    "snapshot_delta",
    "merge_snapshot",
    "report",
    "format_report",
]
