"""Chaos soak (`-m shard`): a hostile day must cost time, never bits."""

from __future__ import annotations

import time

import pytest

from repro.runtime.resilience import ChaosConfig

from .conftest import DayCase, canon

pytestmark = pytest.mark.shard

#: generous wall-clock leash: kills force pool rebuilds and stalls burn
#: a task timeout each, so the chaos run is legitimately slower —
#: but it must terminate, not thrash forever on a retry loop
SOAK_CEILING_SECONDS = 180.0


@pytest.fixture(scope="module")
def soak_case():
    # multi-block, multi-shard, multi-hour: enough tasks that the chaos
    # hash fires kills in several distinct hours
    return DayCase(num_flows=120, horizon=6)


class TestChaosSoak:
    def test_killed_workers_per_hour_change_no_bits(self, soak_case):
        clean, _ = soak_case.sharded(8, workers=2, block_size=16)
        chaos = ChaosConfig(
            seed=3, kill_rate=0.15, crash_rate=0.1, faulty_attempts=1
        )
        start = time.monotonic()
        day, report = soak_case.sharded(
            8, workers=2, block_size=16, chaos=chaos
        )
        elapsed = time.monotonic() - start
        assert canon(day) == canon(clean)
        assert report["pool_restarts"] > 0  # kills actually landed
        assert report["retries"] > 0
        assert elapsed < SOAK_CEILING_SECONDS

    def test_stalled_workers_change_no_bits(self, soak_case):
        clean, _ = soak_case.sharded(4, workers=2, block_size=16)
        chaos = ChaosConfig(
            seed=5, delay_rate=0.1, delay_seconds=5.0, faulty_attempts=1
        )
        start = time.monotonic()
        day, report = soak_case.sharded(
            4, workers=2, block_size=16, chaos=chaos, task_timeout=0.4
        )
        elapsed = time.monotonic() - start
        assert canon(day) == canon(clean)
        assert report["stalls"] > 0
        assert elapsed < SOAK_CEILING_SECONDS
