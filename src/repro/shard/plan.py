"""Deterministic shard plans over the canonical flow order.

The shard layer's determinism contract has two halves, and this module
owns the first: *what* gets computed is a pure function of the flow
population and the block size, never of the shard count.

* **Blocks** are fixed-size contiguous ranges of the canonical flow
  order (``[0, B), [B, 2B), ...``).  Every per-flow reduction the day
  loop needs — attractions, ``Λ``, drop sums, min-over-copies serving —
  is computed per block and folded by a strict left fold in ascending
  block index (:mod:`repro.shard.aggregate`).  The block table depends
  only on ``(num_flows, block_size)``.
* **Shards** are groups of whole blocks, assigned by a stable hash of
  each block's flow endpoints (for streamed populations: of the chunk's
  seed recipe, which *defines* those endpoints).  Shard assignment is
  pure scheduling — which worker computes a block, never what the block
  computes or how partials fold — so any shard count, any re-dispatch
  after a crash, and any timeout kill produce bit-identical day books.

For a :class:`~repro.workload.stream.StreamingWorkload` the chunk size
*is* the block size; a mismatch is a configuration error
(:class:`~repro.errors.ShardError`), because re-chunking a streamed
population would change its per-chunk seed streams and therefore the
population itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ShardError
from repro.workload.flows import FlowSet
from repro.workload.stream import StreamingWorkload

__all__ = ["Block", "ShardConfig", "ShardPlan", "stable_block_hash"]


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded day loop (see :mod:`repro.shard`).

    ``num_shards`` controls parallel grain only — results are
    bit-identical across shard counts.  ``block_size`` is part of the
    *computation's* identity (it fixes the aggregation blocks); changing
    it changes the canonical fold for multi-block populations, exactly
    like changing a seed changes a workload.  ``workers`` caps the pool
    (``None`` = ``min(num_shards, cpu_count)``; an effective 1 runs
    shards in-process).  ``mem_budget`` (bytes) bounds each block's
    gather working set and arms the degradation ladder.  Retries,
    timeouts and chaos are the execution layer's
    :class:`~repro.runtime.resilience.ResilienceConfig`, not shard knobs.
    """

    num_shards: int = 1
    block_size: int = 4096
    workers: int | None = None
    mem_budget: int | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ShardError(f"num_shards must be positive, got {self.num_shards}")
        if self.block_size < 1:
            raise ShardError(f"block_size must be positive, got {self.block_size}")
        if self.workers is not None and self.workers < 1:
            raise ShardError(f"workers must be positive, got {self.workers}")
        if self.mem_budget is not None and self.mem_budget <= 0:
            raise ShardError(f"mem_budget must be positive, got {self.mem_budget}")


@dataclass(frozen=True)
class Block:
    """One contiguous range ``[start, stop)`` of the canonical flow order."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def stable_block_hash(payload: bytes) -> int:
    """64-bit stable content hash (sha256 prefix; never Python's ``hash``)."""
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True)
class ShardPlan:
    """The block table plus each block's shard assignment.

    ``assignment[b]`` names the shard that computes block ``b``.  The
    parent folds results in ascending *block* order regardless, so the
    assignment (and therefore ``num_shards``) cannot influence a single
    bit of the day's books — it only shapes the parallel schedule.
    """

    num_flows: int
    block_size: int
    num_shards: int
    blocks: tuple[Block, ...]
    assignment: tuple[int, ...]

    @classmethod
    def _blocks_for(cls, num_flows: int, block_size: int) -> tuple[Block, ...]:
        return tuple(
            Block(index=b, start=b * block_size,
                  stop=min((b + 1) * block_size, num_flows))
            for b in range(-(-num_flows // block_size))
        )

    @classmethod
    def for_flows(cls, flows: FlowSet, config: ShardConfig) -> "ShardPlan":
        """Plan over a materialized flow set: hash each block's endpoints."""
        blocks = cls._blocks_for(flows.num_flows, config.block_size)
        assignment = tuple(
            stable_block_hash(
                flows.sources[b.start : b.stop].tobytes()
                + b"|"
                + flows.destinations[b.start : b.stop].tobytes()
            )
            % config.num_shards
            for b in blocks
        )
        return cls(
            num_flows=flows.num_flows,
            block_size=config.block_size,
            num_shards=config.num_shards,
            blocks=blocks,
            assignment=assignment,
        )

    @classmethod
    def for_stream(cls, stream: StreamingWorkload, config: ShardConfig) -> "ShardPlan":
        """Plan over a streamed population: chunk == block, endpoints by recipe.

        The hash input is the chunk's seed recipe — the deterministic
        *definition* of its endpoints — so the parent never generates a
        single flow to build the plan.
        """
        if stream.chunk_size != config.block_size:
            raise ShardError(
                f"streaming chunk_size {stream.chunk_size} != shard "
                f"block_size {config.block_size}; the chunk grid is the "
                "block grid, set them equal",
                diagnosis={
                    "chunk_size": stream.chunk_size,
                    "block_size": config.block_size,
                },
            )
        blocks = cls._blocks_for(stream.num_flows, config.block_size)
        assignment = tuple(
            stable_block_hash(
                f"{stream.seed}:{stream.chunk_size}:{b.index}".encode()
            )
            % config.num_shards
            for b in blocks
        )
        return cls(
            num_flows=stream.num_flows,
            block_size=config.block_size,
            num_shards=config.num_shards,
            blocks=blocks,
            assignment=assignment,
        )

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def blocks_for_shard(self, shard: int) -> tuple[Block, ...]:
        return tuple(
            block
            for block, owner in zip(self.blocks, self.assignment)
            if owner == shard
        )

    def shards(self) -> list[tuple[int, tuple[Block, ...]]]:
        """``(shard_id, blocks)`` for every shard that owns at least one block."""
        out = []
        for shard in range(self.num_shards):
            blocks = self.blocks_for_shard(shard)
            if blocks:
                out.append((shard, blocks))
        return out

    def slice_rates(self, rates: np.ndarray, block: Block) -> np.ndarray:
        if rates.shape != (self.num_flows,):
            raise ShardError(
                f"rate vector shape {rates.shape} != planned flow count "
                f"{self.num_flows}"
            )
        return rates[block.start : block.stop]
