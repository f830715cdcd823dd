"""The fault-tolerant executor: retries, timeouts, salvage, resume, chaos.

The central claim under test is the determinism argument of
:mod:`repro.runtime.resilience`: retries, worker deaths, journal resumes
and injected chaos may change *when* work happens, but never *what* any
task computes — so every recovered run is bit-identical to a fault-free
serial one.
"""

import os
import time

import pytest

from repro.errors import ReproError, TaskError
from repro.runtime import instrument
from repro.runtime.executor import ParallelExecutor, SerialExecutor, heartbeat
from repro.runtime.journal import Journal, task_fingerprint
from repro.runtime.resilience import (
    ChaosConfig,
    ResilienceConfig,
    TaskFailure,
    backoff_delay,
    drain_failures,
    get_resilience,
    use_resilience,
)

NO_BACKOFF = dict(backoff_base=0.0)


def square(x):
    return x * x


class FailFirstAttempts:
    """Picklable task fn that fails deterministically on early attempts."""

    accepts_attempt = True

    def __init__(self, failures: int, exc: type = ValueError) -> None:
        self.failures = failures
        self.exc = exc

    def __call__(self, task, attempt=0):
        if attempt < self.failures:
            raise self.exc(f"transient failure of task {task}, attempt {attempt}")
        return task * 10


def die_once(task):
    """Hard-kill the worker the first time each task runs (marker file)."""
    value, marker = task
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return value * 2


def maybe_hang(task):
    value, hang_seconds = task
    if hang_seconds:
        time.sleep(hang_seconds)
    return value + 100


class TestResilienceConfig:
    def test_defaults_are_passthrough(self):
        config = ResilienceConfig()
        assert config.max_retries == 0
        assert config.task_timeout is None
        assert config.on_failure == "fail"
        assert config.journal is None and config.chaos is None

    def test_validation(self):
        with pytest.raises(ReproError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ReproError):
            ResilienceConfig(task_timeout=0)
        with pytest.raises(ReproError):
            ResilienceConfig(on_failure="explode")
        with pytest.raises(ReproError):
            ChaosConfig(crash_rate=0.8, kill_rate=0.5)

    def test_use_resilience_restores_previous(self):
        outer = get_resilience()
        config = ResilienceConfig(max_retries=3)
        with use_resilience(config):
            assert get_resilience() is config
        assert get_resilience() is outer

    def test_scoped_copy(self):
        scoped = ResilienceConfig(max_retries=2).scoped("fig@smoke")
        assert scoped.scope == "fig@smoke" and scoped.max_retries == 2


class TestBackoffDeterminism:
    def test_same_inputs_same_delay(self):
        config = ResilienceConfig(backoff_base=0.1, scope="s")
        assert backoff_delay(config, 3, 1) == backoff_delay(config, 3, 1)

    def test_jitter_desynchronizes_tasks(self):
        config = ResilienceConfig(backoff_base=0.1, scope="s")
        delays = {backoff_delay(config, index, 1) for index in range(8)}
        assert len(delays) == 8

    def test_exponential_growth_and_cap(self):
        config = ResilienceConfig(backoff_base=0.1, backoff_cap=0.4, scope="s")
        # jitter is in [0.5x, 1.0x), so ranges of consecutive attempts
        # stay ordered at these parameters
        assert backoff_delay(config, 0, 1) < backoff_delay(config, 0, 3)
        assert backoff_delay(config, 0, 10) <= 0.4

    def test_zero_base_disables_waiting(self):
        assert backoff_delay(ResilienceConfig(backoff_base=0.0), 0, 5) == 0.0


class TestSerialRetries:
    def test_retry_recovers(self):
        instrument.reset()
        config = ResilienceConfig(max_retries=2, **NO_BACKOFF)
        results = SerialExecutor(config).map(FailFirstAttempts(2), range(4))
        assert results == [0, 10, 20, 30]
        assert instrument.counters()["task_retries"] == 8

    def test_budget_exhausted_raises_task_error(self):
        config = ResilienceConfig(max_retries=1, **NO_BACKOFF)
        with pytest.raises(TaskError) as excinfo:
            SerialExecutor(config).map(FailFirstAttempts(5), range(3))
        error = excinfo.value
        assert error.index == 0 and error.attempts == 2
        assert "ValueError" in error.worker_traceback
        assert isinstance(error, ReproError)

    def test_skip_policy_leaves_structured_placeholder(self):
        instrument.reset()
        drain_failures()
        config = ResilienceConfig(max_retries=0, on_failure="skip", **NO_BACKOFF)
        fn = FailFirstAttempts(99)
        results = SerialExecutor(config).map(fn, range(3))
        assert all(isinstance(result, TaskFailure) for result in results)
        assert [failure.index for failure in results] == [0, 1, 2]
        assert "ValueError" in results[0].traceback
        assert instrument.counters()["tasks_skipped"] == 3
        recorded = drain_failures()
        assert [failure.index for failure in recorded] == [0, 1, 2]
        assert drain_failures() == []  # drained


class TestParallelRetries:
    def test_retry_recovers_bit_identical(self):
        config = ResilienceConfig(max_retries=3, **NO_BACKOFF)
        flaky = ParallelExecutor(2, config).map(FailFirstAttempts(2), range(6))
        clean = SerialExecutor().map(FailFirstAttempts(0), range(6))
        assert flaky == clean

    def test_worker_traceback_crosses_process_boundary(self):
        config = ResilienceConfig(max_retries=0, **NO_BACKOFF)
        with pytest.raises(TaskError) as excinfo:
            ParallelExecutor(2, config).map(FailFirstAttempts(9), range(4))
        assert "transient failure of task" in excinfo.value.worker_traceback
        assert "ValueError" in excinfo.value.worker_traceback

    def test_skip_policy_preserves_order(self):
        drain_failures()
        config = ResilienceConfig(max_retries=0, on_failure="skip", **NO_BACKOFF)

        results = ParallelExecutor(2, config).map(_fail_on_evens, range(6))
        for index, result in enumerate(results):
            if index % 2 == 0:
                assert isinstance(result, TaskFailure) and result.index == index
            else:
                assert result == index * 100
        drain_failures()


def _fail_on_evens(x):
    if x % 2 == 0:
        raise RuntimeError(f"even task {x}")
    return x * 100


class TestBrokenPoolSalvage:
    def test_completed_results_survive_worker_death(self, tmp_path):
        instrument.reset()
        config = ResilienceConfig(max_retries=2, **NO_BACKOFF)
        tasks = [(i, str(tmp_path / f"marker-{i}")) for i in range(6)]
        results = ParallelExecutor(2, config).map(die_once, tasks)
        assert results == [i * 2 for i in range(6)]
        counters = instrument.counters()
        assert counters["pool_restarts"] >= 1
        assert counters["task_retries"] >= 1

    def test_persistent_killer_exhausts_budget(self, tmp_path):
        # no marker is ever written readable -> every attempt dies; the
        # budget must bound the pool-restart loop and surface a TaskError
        config = ResilienceConfig(max_retries=1, **NO_BACKOFF)
        with pytest.raises(TaskError) as excinfo:
            ParallelExecutor(2, config).map(_always_die, [1])
        assert "BrokenProcessPool" in str(excinfo.value)

    def test_persistent_killer_skippable(self):
        drain_failures()
        config = ResilienceConfig(max_retries=1, on_failure="skip", **NO_BACKOFF)
        results = ParallelExecutor(2, config).map(_always_die, [1, 2])
        assert all(isinstance(result, TaskFailure) for result in results)
        drain_failures()


def _always_die(task):
    os._exit(29)


class TestTaskTimeout:
    def test_hung_task_killed_and_skipped(self):
        drain_failures()
        instrument.reset()
        config = ResilienceConfig(
            max_retries=0, task_timeout=1.0, on_failure="skip", **NO_BACKOFF
        )
        tasks = [(1, 0), (2, 30), (3, 0), (4, 0)]
        start = time.monotonic()
        results = ParallelExecutor(2, config).map(maybe_hang, tasks)
        elapsed = time.monotonic() - start
        assert elapsed < 20  # nowhere near the 30 s hang
        assert results[0] == 101 and results[2] == 103 and results[3] == 104
        assert isinstance(results[1], TaskFailure) and results[1].timeout
        assert instrument.counters()["task_timeouts"] >= 1
        drain_failures()

    def test_timeout_failure_raises_by_default(self):
        config = ResilienceConfig(max_retries=0, task_timeout=0.5, **NO_BACKOFF)
        with pytest.raises(TaskError):
            ParallelExecutor(2, config).map(maybe_hang, [(1, 30)])


class TestJournalResume:
    def test_resume_skips_finished_tasks_bit_identically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        config = ResilienceConfig(journal=Journal(path), scope="demo")
        first = SerialExecutor(config).map(square, range(5))
        config.journal.close()

        instrument.reset()
        resumed_config = ResilienceConfig(journal=Journal(path), scope="demo")
        resumed = ParallelExecutor(2, resumed_config).map(square, range(5))
        resumed_config.journal.close()
        assert resumed == first == [0, 1, 4, 9, 16]
        assert instrument.counters()["journal_hits"] == 5

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        config = ResilienceConfig(journal=Journal(path), scope="demo")
        SerialExecutor(config).map(square, range(3))
        config.journal.close()

        # truncate to one record: simulates a run killed after one task
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0])

        instrument.reset()
        resumed_config = ResilienceConfig(journal=Journal(path), scope="demo")
        resumed = SerialExecutor(resumed_config).map(square, range(5))
        resumed_config.journal.close()
        assert resumed == [0, 1, 4, 9, 16]
        assert instrument.counters()["journal_hits"] == 1
        assert len(Journal(path)) == 5  # the rest got journalled too

    def test_different_scope_never_resumes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        config = ResilienceConfig(journal=Journal(path), scope="fig@smoke")
        SerialExecutor(config).map(square, range(3))
        config.journal.close()

        instrument.reset()
        other = ResilienceConfig(journal=Journal(path), scope="fig@paper")
        SerialExecutor(other).map(square, range(3))
        other.journal.close()
        assert instrument.counters().get("journal_hits", 0) == 0

    def test_skipped_failures_are_not_journalled(self, tmp_path):
        drain_failures()
        path = tmp_path / "journal.jsonl"
        config = ResilienceConfig(
            journal=Journal(path), scope="demo", on_failure="skip", **NO_BACKOFF
        )
        SerialExecutor(config).map(_fail_on_evens, range(4))
        config.journal.close()
        assert len(Journal(path)) == 2  # only the odd (successful) tasks
        drain_failures()


class TestChaosExecutor:
    """Chaos from ``ResilienceConfig.chaos``, applied by either executor."""

    CHAOS = ChaosConfig(
        seed=11,
        crash_rate=0.15,
        delay_rate=0.08,
        timeout_rate=0.07,
        delay_seconds=0.001,
    )

    def test_results_bit_identical_to_fault_free_serial(self):
        clean = SerialExecutor(ResilienceConfig()).map(square, range(30))
        config = ResilienceConfig(max_retries=3, chaos=self.CHAOS, **NO_BACKOFF)
        for executor in (SerialExecutor(config), ParallelExecutor(2, config)):
            with executor:
                assert executor.map(square, range(30)) == clean

    def test_fault_schedule_is_seeded_and_deterministic(self):
        config = ResilienceConfig(
            max_retries=0, on_failure="skip", chaos=self.CHAOS, **NO_BACKOFF
        )
        first = SerialExecutor(config).map(square, range(30))
        drain_failures()
        second = SerialExecutor(config).map(square, range(30))
        drain_failures()
        failed_first = [r.index for r in first if isinstance(r, TaskFailure)]
        failed_second = [r.index for r in second if isinstance(r, TaskFailure)]
        assert failed_first == failed_second != []
        # injection is task-content-keyed and rate-bounded
        assert 0 < len(failed_first) <= 0.3 * 30 + 5

    def test_all_crash_rate_hits_every_task_once(self):
        instrument.reset()
        chaos = ChaosConfig(seed=1, crash_rate=1.0)
        config = ResilienceConfig(max_retries=1, chaos=chaos, **NO_BACKOFF)
        results = SerialExecutor(config).map(square, range(5))
        assert results == [0, 1, 4, 9, 16]
        assert instrument.counters()["task_retries"] == 5

    def test_injected_timeouts_counted_as_timeouts(self):
        instrument.reset()
        chaos = ChaosConfig(seed=1, timeout_rate=1.0)
        config = ResilienceConfig(max_retries=1, chaos=chaos, **NO_BACKOFF)
        results = SerialExecutor(config).map(square, range(4))
        assert results == [0, 1, 4, 9]
        assert instrument.counters()["task_timeouts"] == 4

    def test_injected_kills_exercise_pool_salvage(self):
        instrument.reset()
        chaos = ChaosConfig(seed=2, kill_rate=0.3)
        config = ResilienceConfig(max_retries=4, chaos=chaos, **NO_BACKOFF)
        with ParallelExecutor(2, config) as executor:
            results = executor.map(square, range(15))
        assert results == [x * x for x in range(15)]
        assert instrument.counters()["pool_restarts"] >= 1

    def test_kill_degrades_to_crash_in_parent_process(self):
        # a kill drawn under a serial executor must not os._exit the test
        chaos = ChaosConfig(seed=2, kill_rate=1.0)
        config = ResilienceConfig(max_retries=1, chaos=chaos, **NO_BACKOFF)
        results = SerialExecutor(config).map(square, range(3))
        assert results == [0, 1, 4]

    def test_active_config_chaos_applies_without_explicit_wrapper(self):
        from repro.runtime.executor import get_executor

        config = ResilienceConfig(
            max_retries=3, chaos=self.CHAOS, **NO_BACKOFF
        )
        with use_resilience(config):
            with get_executor(2) as executor:
                results = executor.map(square, range(12))
        assert results == [x * x for x in range(12)]

    def test_keys_name_the_fault_draw(self):
        # with keys, the draw follows the key, not the task content:
        # identical keys fault identically whatever the payload
        chaos = ChaosConfig(seed=4, crash_rate=0.5)
        config = ResilienceConfig(
            max_retries=0, on_failure="skip", chaos=chaos, **NO_BACKOFF
        )
        keys = [f"k{i}" for i in range(20)]
        first = SerialExecutor(config).map(square, range(20), keys=keys)
        second = SerialExecutor(config).map(square, range(100, 120), keys=keys)
        drain_failures()
        holes = [isinstance(r, TaskFailure) for r in first]
        assert holes == [isinstance(r, TaskFailure) for r in second]
        assert 0 < sum(holes) < 20


def beating_sleep(task):
    """Sleep ``seconds`` in ``step`` slices, heartbeating after each if asked."""
    seconds, step, beat = task
    for _ in range(round(seconds / step)):
        time.sleep(step)
        if beat:
            heartbeat()
    return os.getpid()


def worker_pid(_task):
    return os.getpid()


class TestSupervisedPool:
    def test_heartbeats_push_the_deadline_out(self):
        instrument.reset()
        config = ResilienceConfig(max_retries=0, task_timeout=0.5, **NO_BACKOFF)
        with ParallelExecutor(2, config) as executor:
            results = executor.map(beating_sleep, [(1.0, 0.1, True)])
        assert isinstance(results[0], int)
        assert executor.stats["task_timeouts"] == 0
        assert executor.stats["pool_restarts"] == 0
        assert executor.stats["dispatched"] == 1

    def test_silent_task_is_killed_and_charged_one_attempt(self):
        drain_failures()
        config = ResilienceConfig(
            max_retries=0, task_timeout=0.5, on_failure="skip", **NO_BACKOFF
        )
        with ParallelExecutor(2, config) as executor:
            results = executor.map(beating_sleep, [(1.0, 0.1, False)])
        assert isinstance(results[0], TaskFailure) and results[0].timeout
        assert results[0].attempts == 1
        assert executor.stats["task_timeouts"] == 1
        assert executor.stats["pool_restarts"] == 1
        drain_failures()

    def test_heartbeat_is_a_no_op_in_process(self):
        heartbeat()  # no pool, no slot: nothing to stamp, nothing raised
        assert SerialExecutor().map(beating_sleep, [(0.02, 0.01, True)]) == [
            os.getpid()
        ]

    def test_one_pool_serves_consecutive_maps(self):
        with ParallelExecutor(2) as executor:
            first = set(executor.map(worker_pid, range(8)))
            second = set(executor.map(worker_pid, range(8)))
        assert first == second
        assert os.getpid() not in first
        assert executor._pool is None  # closed by the with block

    def test_journal_fingerprints_follow_keys(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        config = ResilienceConfig(journal=Journal(path), scope="demo")
        SerialExecutor(config).map(square, [2, 3], keys=["a", "b"])
        config.journal.close()
        assert task_fingerprint("demo", 0, "b") in Journal(path)
        # same keys, any positions: both resume from the journal
        resumed = ResilienceConfig(journal=Journal(path), scope="demo")
        with ParallelExecutor(2, resumed) as executor:
            results = executor.map(square, [3, 2], keys=["b", "a"])
        resumed.journal.close()
        assert results == [9, 4]
        assert executor.stats["journal_hits"] == 2
        assert executor.stats["dispatched"] == 0


class TestReportIntegration:
    def test_resilience_counters_grouped_in_report(self):
        instrument.reset()
        config = ResilienceConfig(max_retries=2, **NO_BACKOFF)
        SerialExecutor(config).map(FailFirstAttempts(1), range(3))
        report = instrument.report(workers=1, elapsed=0.5)
        assert report["resilience"]["retries"] == 3
        assert report["resilience"]["skipped"] == 0
        assert "task_retries" not in report["counters"]

    def test_format_report_renders_resilience_and_failures(self):
        report = {
            "resilience": {
                "retries": 2,
                "timeouts": 1,
                "pool_restarts": 1,
                "skipped": 1,
                "resumed": 4,
            },
            "failures": [
                {"index": 3, "attempts": 2, "error": "ValueError('x')",
                 "timeout": False, "traceback": ""},
            ],
        }
        text = instrument.format_report(report)
        assert "resilience:" in text
        assert "2 retries" in text and "4 resumed from journal" in text
        assert "task 3" in text and "ValueError" in text

    def test_quiet_runs_print_no_resilience_line(self):
        instrument.reset()
        SerialExecutor().map(square, range(3))
        text = instrument.format_report(instrument.report(workers=1, elapsed=0.1))
        assert "resilience:" not in text
