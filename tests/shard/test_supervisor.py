"""Supervision mechanics: journal salvage, degradation ladder, timeouts."""

from __future__ import annotations

import pytest

import repro.shard.supervisor as supervisor_module
from repro.errors import ShardError
from repro.runtime.journal import Journal
from repro.runtime.resilience import ChaosConfig, ResilienceConfig, use_resilience
from repro.shard import ShardConfig
from repro.sim.engine import set_sharding

from .conftest import DayCase, canon


@pytest.fixture()
def case():
    # small and fresh per test: journal/monkeypatch state must not leak
    return DayCase(num_flows=12, horizon=4)


class TestJournalResume:
    def test_rerun_salvages_every_shard(self, case, tmp_path):
        path = tmp_path / "shards.jsonl"
        with Journal(path) as journal:
            first, first_report = case.sharded(2, journal=journal)
        assert first_report["dispatched"] > 0
        assert first_report["journal_hits"] == 0
        with Journal(path) as journal:
            second, second_report = case.sharded(2, journal=journal)
        assert canon(second) == canon(first)
        assert second_report["dispatched"] == 0
        assert second_report["journal_hits"] == first_report["dispatched"]

    def test_truncated_journal_resumes_mid_hour(self, case, tmp_path):
        # a run killed mid-day leaves a journal prefix; the resume must
        # salvage the completed shards byte-identically and recompute the
        # rest — the result cannot depend on where the kill landed
        path = tmp_path / "shards.jsonl"
        with Journal(path) as journal:
            first, first_report = case.sharded(2, journal=journal)
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) >= 2
        path.write_text("".join(lines[: len(lines) // 2]))
        with Journal(path) as journal:
            second, second_report = case.sharded(2, journal=journal)
        assert canon(second) == canon(first)
        assert 0 < second_report["journal_hits"] < first_report["dispatched"]
        assert second_report["dispatched"] > 0

    def test_shard_count_does_not_invalidate_the_journal(self, case, tmp_path):
        # task keys name hour/kind/shard; a different shard count redraws
        # the schedule, so only same-schedule records may be adopted —
        # but the result must stay byte-identical regardless
        path = tmp_path / "shards.jsonl"
        with Journal(path) as journal:
            first, _ = case.sharded(1, journal=journal)
        with Journal(path) as journal:
            second, _ = case.sharded(3, journal=journal)
        assert canon(second) == canon(first)


class TestDegradationLadder:
    def test_memory_breach_splits_multi_block_tasks(self, case, monkeypatch):
        # rung 2: a worker reporting MemoryError on a multi-block task gets
        # re-dispatched block by block instead of retried wholesale
        want = canon(case.sharded(1, block_size=3)[0])
        real = supervisor_module.run_shard_task
        breached: set[str] = set()

        def breach_once(task):
            if len(task.blocks) > 1 and task.key not in breached:
                breached.add(task.key)
                raise MemoryError()
            return real(task)

        monkeypatch.setattr(supervisor_module, "run_shard_task", breach_once)
        day, report = case.sharded(1, block_size=3)
        assert canon(day) == want
        assert report["degraded_tasks"] > 0
        assert breached  # the breach actually fired

    def test_mem_budget_day_is_byte_identical_or_diagnosed(self, case):
        # rung 1 in-worker: a tiny budget forces the column-strip gather
        # when this BLAS assembles strips bitwise, and a diagnosed refusal
        # (never silently different books) when it does not
        from repro.shard.aggregate import column_strips_bitwise

        if not column_strips_bitwise():
            with pytest.raises(ShardError) as err:
                case.sharded(2, mem_budget=2048, max_retries=0)
            assert "mem" in str(err.value).lower()
            return
        want = canon(case.sharded(2)[0])
        day, _ = case.sharded(2, mem_budget=2048)
        assert canon(day) == want


class TestRetryBudget:
    def test_persistent_crash_is_a_diagnosed_shard_error(self, case):
        chaos = ChaosConfig(seed=1, crash_rate=1.0, faulty_attempts=99)
        with pytest.raises(ShardError) as err:
            case.sharded(2, chaos=chaos, max_retries=1)
        assert err.value.diagnosis  # terminal failures carry their history

    def test_bounded_crashes_recover(self, case):
        want = canon(case.sharded(2)[0])
        chaos = ChaosConfig(seed=1, crash_rate=1.0, faulty_attempts=2)
        day, report = case.sharded(2, chaos=chaos, max_retries=3)
        assert canon(day) == want
        assert report["retries"] > 0


class TestActivePolicy:
    def test_set_sharding_days_follow_the_active_policy(self, case):
        # a routed day takes its retry budget from the active
        # ResilienceConfig (what `repro run --max-retries` installs)
        want = canon(case.unsharded())
        crash = ChaosConfig(seed=1, crash_rate=1.0, faulty_attempts=1)
        previous = set_sharding(ShardConfig(num_shards=2))
        try:
            with use_resilience(ResilienceConfig(max_retries=0, chaos=crash)):
                with pytest.raises(ShardError) as err:
                    case.unsharded()
            with use_resilience(
                ResilienceConfig(max_retries=3, backoff_base=0.001, chaos=crash)
            ):
                got = canon(case.unsharded())
        finally:
            set_sharding(previous)
        diagnosis = err.value.diagnosis
        assert {"task", "shard", "hour", "attempts", "error"} <= diagnosis.keys()
        assert diagnosis["attempts"] == 1
        assert "ChaosError" in diagnosis["error"]
        assert got == want


class TestWatchdog:
    def test_stalled_worker_is_killed_and_redispatched(self):
        case = DayCase(num_flows=12, horizon=2)
        want = canon(case.sharded(2)[0])
        chaos = ChaosConfig(seed=1, delay_rate=1.0, delay_seconds=5.0,
                            faulty_attempts=1)
        day, report = case.sharded(
            2, workers=2, chaos=chaos, task_timeout=0.3
        )
        assert canon(day) == want
        assert report["stalls"] > 0
        assert report["pool_restarts"] > 0
