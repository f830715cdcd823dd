"""Worker-side execution of one shard task, plus its wire format.

A :class:`ShardTask` is the self-contained recipe for one shard's share
of one hour: which blocks to compute, how to obtain each block's flow
arrays (inline payloads for materialized flow sets, the chunk recipe for
streamed ones), which distance matrix to price against (a shared-memory
ref keyed by ``dist_key``, or inline for in-process runs), and the fault
context (surviving hosts, park host) for degraded days.

``key`` is the task's *stable* identity, built from content (hour, kind,
shard, a hash of the stable parts), never from volatile runtime names
like shm segments.  The supervisor maps tasks with ``keys=`` set to it,
so the journal fingerprint and the chaos fault draw both key off it:
resumed runs salvage exactly the shards they completed and chaos
re-injects exactly the faults it drew before.  :func:`run_shard_task`
calls :func:`~repro.runtime.executor.heartbeat` after every block, so
the pool's ``task_timeout`` tells a wedged worker from a merely slow
one at block granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ShardError
from repro.runtime.executor import heartbeat
from repro.runtime.shm import ShmArrayRef, _attach_array
from repro.shard.aggregate import compute_block_aggregate, compute_block_serving
from repro.shard.plan import Block
from repro.workload.diurnal import DiurnalModel
from repro.workload.stream import StreamingWorkload

__all__ = ["BlockPayload", "ShardTask", "run_shard_task"]


@dataclass(frozen=True)
class BlockPayload:
    """One block's flow arrays, shipped inline (materialized-flows mode)."""

    sources: np.ndarray
    destinations: np.ndarray
    rates: np.ndarray


@dataclass(frozen=True)
class ShardTask:
    """Self-contained recipe for one shard's share of one hour."""

    key: str
    kind: str  # "agg" | "serve"
    hour: int
    shard: int
    blocks: tuple[Block, ...]
    payloads: tuple[BlockPayload, ...] | None = None
    stream: StreamingWorkload | None = None
    diurnal: DiurnalModel | None = None
    copies: np.ndarray | None = None
    surviving_hosts: np.ndarray | None = None
    park_host: int | None = None
    dist_ref: ShmArrayRef | None = None
    dist_data: np.ndarray | None = None
    dist_key: str = "healthy"
    mem_budget: int | None = None


# process-local memo: dist_key -> (array, segment kept alive for the view)
_DIST_CACHE: dict[str, tuple[np.ndarray, shared_memory.SharedMemory | None]] = {}


def _resolve_dist(task: ShardTask) -> np.ndarray:
    """The distance matrix this task prices against, attach memoized.

    Fault days re-key per degraded state (``dist_key``), so a worker that
    served hour 3's storm keeps that state's matrix mapped and reuses it
    for hour 4 without re-attaching.
    """
    cached = _DIST_CACHE.get(task.dist_key)
    if cached is not None:
        return cached[0]
    if task.dist_data is not None:
        arr: np.ndarray = task.dist_data
        segment = None
    elif task.dist_ref is not None:
        arr, segment = _attach_array(task.dist_ref)
    else:
        raise ShardError(f"task {task.key} carries no distance matrix")
    _DIST_CACHE[task.dist_key] = (arr, segment)
    return arr


def _block_arrays(
    task: ShardTask, position: int, block: Block
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sources, destinations, rates)`` for one block, both wire modes.

    Streaming mode regenerates the chunk locally and applies the diurnal
    envelope elementwise — elementwise scaling commutes with block
    slicing bit-for-bit, so a streamed block equals the corresponding
    slice of a materialized ``ScaledRates.rates_at`` vector.
    """
    if task.payloads is not None:
        payload = task.payloads[position]
        return payload.sources, payload.destinations, payload.rates
    if task.stream is None:
        raise ShardError(f"task {task.key} carries neither payloads nor a stream")
    chunk = task.stream.chunk(block.index)
    if task.diurnal is not None:
        rates = chunk.base_rates * task.diurnal.flow_scales(task.hour, chunk.offsets)
    else:
        rates = chunk.base_rates
    return chunk.sources, chunk.destinations, rates


def run_shard_task(task: ShardTask) -> list[tuple[int, object]]:
    """Pool entry point: compute every block of one shard task.

    Returns ``[(block_index, result), ...]`` in ascending block order;
    failures raise (the executor retries them, and a ``MemoryError`` on
    a multi-block task sends it back to the supervisor's ladder).
    """
    dist = _resolve_dist(task)
    results: list[tuple[int, object]] = []
    for position, block in enumerate(task.blocks):
        sources, destinations, rates = _block_arrays(task, position, block)
        if task.kind == "serve":
            if task.copies is None:
                raise ShardError(f"serve task {task.key} carries no copies")
            value: object = compute_block_serving(
                dist,
                sources,
                destinations,
                rates,
                task.copies,
                block_index=block.index,
                surviving_hosts=task.surviving_hosts,
                park_host=task.park_host,
            )
        elif task.kind == "agg":
            value = compute_block_aggregate(
                dist,
                sources,
                destinations,
                rates,
                block_index=block.index,
                block_start=block.start,
                surviving_hosts=task.surviving_hosts,
                park_host=task.park_host,
                mem_budget=task.mem_budget,
            )
        else:
            raise ShardError(f"unknown shard task kind {task.kind!r}")
        results.append((block.index, value))
        heartbeat()
    return results
