"""Crash-tolerant sharded execution of the simulated day.

The day loop's per-flow reductions — attraction vectors, ``Λ``, drop
accounting, replication serving — are linear in the flows, so they split
into per-block partial sums.  This package splits a day's flow
population into deterministic shards (:mod:`~repro.shard.plan`), runs
each shard's aggregation (:mod:`~repro.shard.worker`) on the one
supervised worker pool of :mod:`repro.runtime.executor` — retries,
heartbeat-extended timeouts, broken-pool salvage, chaos and the
resumable shard journal all come from there, under the caller's
:class:`~repro.runtime.resilience.ResilienceConfig` — and keeps only
the shard-specific parts: the distance-matrix shared-memory exports,
the memory-budget degradation ladder and the diagnosed
:class:`~repro.errors.ShardError` (:mod:`~repro.shard.supervisor`).  The
partials fold by the canonical ascending-block left fold
(:mod:`~repro.shard.aggregate`), and the folded
:class:`~repro.core.costs.AggregatedFlows` feeds the unchanged solvers
(:mod:`~repro.shard.engine`).

Determinism contract (enforced by the ``verify.shard`` campaign):
results are bit-identical across shard counts, worker crashes, kills,
timeouts, retries and journal resumes; single-block populations are
byte-identical to the unsharded :func:`~repro.sim.engine.simulate_day`.
"""

from repro.shard.aggregate import (
    BlockAggregate,
    FoldedHour,
    compute_block_aggregate,
    compute_block_serving,
    fold_aggregates,
    fold_serving,
)
from repro.shard.engine import initial_placement_sharded, simulate_day_sharded
from repro.shard.plan import Block, ShardConfig, ShardPlan
from repro.shard.worker import BlockPayload, ShardTask, run_shard_task

__all__ = [
    "Block",
    "BlockAggregate",
    "BlockPayload",
    "FoldedHour",
    "ShardConfig",
    "ShardPlan",
    "ShardTask",
    "compute_block_aggregate",
    "compute_block_serving",
    "fold_aggregates",
    "fold_serving",
    "initial_placement_sharded",
    "run_shard_task",
    "simulate_day_sharded",
]
