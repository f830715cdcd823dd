"""Shard plans: blocks partition the flow order, assignment is pure scheduling."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ShardError
from repro.shard import ShardConfig, ShardPlan
from repro.topology import fat_tree
from repro.workload import place_vm_pairs
from repro.workload.stream import RackTable, StreamingWorkload


@pytest.fixture(scope="module")
def flows():
    return place_vm_pairs(fat_tree(4), 23, seed=7)


@pytest.fixture(scope="module")
def stream():
    return StreamingWorkload(
        rack_table=RackTable.from_topology(fat_tree(4)),
        num_flows=23,
        chunk_size=5,
        seed=3,
    )


class TestShardConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"block_size": 0},
            {"workers": 0},
            {"mem_budget": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ShardError):
            ShardConfig(**kwargs)

    def test_execution_policy_is_not_a_shard_knob(self):
        # retries, timeouts and chaos live in ResilienceConfig only
        assert [f.name for f in dataclasses.fields(ShardConfig)] == [
            "num_shards", "block_size", "workers", "mem_budget"
        ]
        with pytest.raises(TypeError):
            ShardConfig(max_retries=3)

    def test_defaults_are_valid(self):
        config = ShardConfig()
        assert config.num_shards == 1
        assert config.block_size == 4096


class TestBlockTable:
    def test_blocks_partition_the_flow_order(self, flows):
        plan = ShardPlan.for_flows(flows, ShardConfig(num_shards=3, block_size=5))
        covered = [
            i for block in plan.blocks for i in range(block.start, block.stop)
        ]
        assert covered == list(range(flows.num_flows))
        assert [b.index for b in plan.blocks] == list(range(plan.num_blocks))

    def test_last_block_is_the_remainder(self, flows):
        plan = ShardPlan.for_flows(flows, ShardConfig(num_shards=2, block_size=5))
        assert plan.blocks[-1].size == flows.num_flows % 5

    def test_block_table_independent_of_shard_count(self, flows):
        plans = [
            ShardPlan.for_flows(flows, ShardConfig(num_shards=s, block_size=5))
            for s in (1, 2, 7)
        ]
        assert plans[0].blocks == plans[1].blocks == plans[2].blocks


class TestAssignment:
    def test_deterministic_across_rebuilds(self, flows):
        config = ShardConfig(num_shards=4, block_size=5)
        a = ShardPlan.for_flows(flows, config)
        b = ShardPlan.for_flows(flows, config)
        assert a == b

    def test_every_block_owned_exactly_once(self, flows):
        plan = ShardPlan.for_flows(flows, ShardConfig(num_shards=4, block_size=5))
        owned = sorted(
            block.index for _, blocks in plan.shards() for block in blocks
        )
        assert owned == list(range(plan.num_blocks))
        assert all(0 <= owner < 4 for owner in plan.assignment)

    def test_single_shard_owns_everything(self, flows):
        plan = ShardPlan.for_flows(flows, ShardConfig(num_shards=1, block_size=5))
        assert plan.assignment == (0,) * plan.num_blocks

    def test_assignment_tracks_content_not_position(self, flows):
        # same endpoints => same hash => same shard, whatever the rates are
        config = ShardConfig(num_shards=4, block_size=5)
        a = ShardPlan.for_flows(flows, config)
        b = ShardPlan.for_flows(
            flows.with_rates(np.arange(flows.num_flows, dtype=float)), config
        )
        assert a.assignment == b.assignment


class TestStreamPlans:
    def test_chunk_grid_is_the_block_grid(self, stream):
        plan = ShardPlan.for_stream(stream, ShardConfig(num_shards=3, block_size=5))
        assert plan.num_blocks == stream.num_chunks
        assert [(b.start, b.stop) for b in plan.blocks] == [
            stream.chunk_bounds(i) for i in range(stream.num_chunks)
        ]

    def test_chunk_size_mismatch_is_diagnosed(self, stream):
        with pytest.raises(ShardError) as err:
            ShardPlan.for_stream(stream, ShardConfig(num_shards=3, block_size=4))
        assert err.value.diagnosis["chunk_size"] == 5
        assert err.value.diagnosis["block_size"] == 4

    def test_assignment_depends_only_on_the_recipe(self, stream):
        config = ShardConfig(num_shards=4, block_size=5)
        assert (
            ShardPlan.for_stream(stream, config).assignment
            == ShardPlan.for_stream(stream, config).assignment
        )
