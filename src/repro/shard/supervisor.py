"""The shard supervisor: one day's shard tasks on the shared worker pool.

One :class:`ShardSupervisor` lives for one sharded day.  It owns a
:mod:`repro.runtime.executor` executor (whose pool is forked on the
first hour and reused every later hour), the per-state distance matrix
exports, and the day's execution policy.  :meth:`run` maps one batch of
:class:`~repro.shard.worker.ShardTask` and returns ``{block_index:
result}`` — the caller folds those in ascending block order, so nothing
the pool does (scheduling, retries, kills, resume) can change a bit of
the day's books.

Retries, backoff, broken-pool salvage, heartbeat-extended timeouts,
chaos and the journal are the executor's (see
:mod:`repro.runtime.executor`), under the caller's
:class:`~repro.runtime.resilience.ResilienceConfig` with three
overrides: the day's own ``journal``, a ``shard:<day token>`` scope,
and ``on_failure="fail"`` (a missing block cannot be folded).  Tasks
are mapped with ``keys=`` set to their stable content keys, so both
the journal fingerprint and the chaos draw follow ``task.key``.

What stays here is shard-specific:

* **Memory ladder** — a multi-block task that hits ``MemoryError``
  (after the worker-side rung 1, column strips) comes back as a
  breach marker and is mapped again block by block (rung 2: one
  block's working set at a time; counted in ``degraded_tasks``); a
  single-block memory failure spends its retry budget like any other
  error and ends the day in a diagnosed :class:`~repro.errors.ShardError`
  (rung 3).
* **Diagnosis** — a task whose budget is spent surfaces as a
  :class:`~repro.errors.ShardError` naming the task, shard, hour,
  attempts and error.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import replace

import numpy as np

from repro.errors import ShardError, TaskError
from repro.runtime.executor import get_executor
from repro.runtime.instrument import count
from repro.runtime.journal import Journal
from repro.runtime.resilience import ResilienceConfig, get_resilience
from repro.runtime.shm import _export_array
from repro.shard.plan import ShardConfig
from repro.shard.worker import ShardTask, run_shard_task

__all__ = ["ShardSupervisor"]

#: distinguishes dist_key namespaces of supervisors sharing one process
#: (the verify campaign runs hundreds of cases in-process; worker/parent
#: dist caches are keyed by this so "healthy" never aliases across cases)
_SUPERVISOR_SEQ = itertools.count()


class _MemoryBreach:
    """A multi-block task's ``MemoryError``, returned for a per-block split."""


def _run_task(task: ShardTask):
    """Pool entry point: one task's block results, or a memory breach."""
    try:
        return run_shard_task(task)
    except MemoryError:
        if len(task.blocks) > 1:
            return _MemoryBreach()
        raise


class ShardSupervisor:
    """Supervised execution of shard tasks for one day (see module docstring)."""

    def __init__(
        self,
        config: ShardConfig,
        *,
        scope: str = "shard",
        journal: Journal | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        base = resilience if resilience is not None else get_resilience()
        self.resilience = replace(
            base, scope=scope, journal=journal, on_failure="fail"
        )
        workers = config.workers or min(config.num_shards, os.cpu_count() or 1)
        self.executor = get_executor(max(1, workers), self.resilience)
        self.scope = scope
        self._degraded = 0
        self._uid = next(_SUPERVISOR_SEQ)
        self._dist_exports: dict[str, tuple] = {}
        self._closed = False

    @property
    def report(self) -> dict:
        """The day's supervision counters (``simulate_day_sharded(report=)``)."""
        stats = self.executor.stats
        return {
            "workers": self.executor.workers,
            "dispatched": stats["dispatched"],
            "journal_hits": stats["journal_hits"],
            "retries": stats["task_retries"],
            "stalls": stats["task_timeouts"],
            "pool_restarts": stats["pool_restarts"],
            "degraded_tasks": self._degraded,
        }

    # -- resources -----------------------------------------------------------

    def dist_handle(self, key: str, dist: np.ndarray) -> dict:
        """Wire fields for one distance matrix, export memoized per key.

        In-process mode passes the array by reference; pool mode copies
        it into a shared segment once and ships the few-byte ref in every
        task.  ``dist_key`` is namespaced per supervisor so worker-side
        attach memos can never alias matrices across runs.
        """
        dist_key = f"{self.scope}#{self._uid}:{key}"
        if self.executor.workers == 1:
            return {"dist_ref": None, "dist_data": dist, "dist_key": dist_key}
        cached = self._dist_exports.get(dist_key)
        if cached is None:
            cached = _export_array(dist)
            self._dist_exports[dist_key] = cached
            count("shard_dist_exports")
        return {"dist_ref": cached[0], "dist_data": None, "dist_key": dist_key}

    def close(self) -> None:
        """Release the pool and every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.executor.close()
        for _, segment in self._dist_exports.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._dist_exports.clear()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run(self, tasks: list[ShardTask]) -> dict[int, object]:
        """Execute one batch of tasks; return ``{block_index: result}``."""
        if self._closed:
            raise ShardError("supervisor already closed")
        results: dict[int, object] = {}
        while tasks:
            try:
                outputs = self.executor.map(
                    _run_task, tasks, keys=[task.key for task in tasks]
                )
            except TaskError as exc:
                raise self._diagnose(tasks[exc.index], exc) from exc
            split: list[ShardTask] = []
            for task, output in zip(tasks, outputs):
                if isinstance(output, _MemoryBreach):
                    split.extend(self._split_blocks(task))
                else:
                    results.update(output)
            tasks = split
        return results

    def _split_blocks(self, task: ShardTask) -> list[ShardTask]:
        """Rung 2: re-dispatch a memory-breached multi-block task per block."""
        self._degraded += 1
        count("shard_block_splits")
        return [
            replace(
                task,
                key=f"{task.key}/b{block.index}",
                blocks=(block,),
                payloads=None
                if task.payloads is None
                else (task.payloads[position],),
            )
            for position, block in enumerate(task.blocks)
        ]

    def _diagnose(self, task: ShardTask, exc: TaskError) -> ShardError:
        """Rung 3 / spent budget: the diagnosed error that ends the day."""
        max_retries = self.resilience.max_retries
        return ShardError(
            f"shard task {task.key} failed {exc.attempts} times "
            f"(budget: 1 + {max_retries} retries): {exc.error}; raise "
            "--shard-mem-budget / the retry budget, or run unsharded",
            diagnosis={
                "task": task.key,
                "shard": task.shard,
                "hour": task.hour,
                "attempts": exc.attempts,
                "max_retries": max_retries,
                "error": exc.error,
            },
        )
