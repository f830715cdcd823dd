"""Serial / process-parallel execution of picklable task specs.

The harness fans three shapes of work out across cores: the
per-replication work of :func:`repro.sim.runner.run_replications`
(workload draw → initial TOP placement → every policy's day), the
per-point work of experiment sweeps
(:func:`repro.experiments.common.map_points`), and the per-shard work
of a sharded day (:mod:`repro.shard`).  All route through one
:class:`Executor`:

* :class:`SerialExecutor` — a plain ordered loop in this process;
* :class:`ParallelExecutor` — submit-based dispatch onto a
  :class:`concurrent.futures.ProcessPoolExecutor`, preserving task order.
  The pool is forked on the first ``map`` and reused by later maps of
  the same function until :meth:`~Executor.close` (or the end of a
  ``with`` block), so a sharded day forks once, not once per hour.

Tasks must be *self-contained and picklable* — a task carries everything
its computation needs (topology, config, seeds), never shared mutable
state — which is what makes the executors bit-identical: the same seeds
go in, so the same results come out regardless of ``workers``, retries,
or worker deaths.

Every ``map`` resolves the active
:class:`~repro.runtime.resilience.ResilienceConfig` (or one passed
explicitly) and applies its policy:

* failed tasks are retried up to ``max_retries`` with exponential backoff
  and deterministic jitter (:func:`~repro.runtime.resilience.backoff_delay`);
* a worker death (``BrokenProcessPool``) loses only the tasks in flight —
  completed results are kept, the pool is rebuilt, and each in-flight
  task is charged one attempt and re-submitted (so a task that keeps
  killing its worker still exhausts its budget and terminates the loop);
* a task exceeding ``task_timeout`` has its (hung) pool killed and is
  charged one timed-out attempt; innocent in-flight neighbours re-run
  free of charge.  The deadline counts from the later of dispatch and
  the task's last :func:`heartbeat`, so a long task that reports
  progress is never mistaken for a wedged one.  Serial execution cannot
  preempt a running task, so there timeouts only classify
  injected/organic ``TimeoutError`` s;
* tasks that exhaust their budget either abort the map with
  :class:`~repro.errors.TaskError` (policy ``fail``) or leave a
  structured :class:`~repro.runtime.resilience.TaskFailure` in their
  result slot (policy ``skip``);
* when a journal is attached, finished tasks are checkpointed and
  journalled tasks are skipped on resume (counted as ``journal_hits``);
* chaos (``ResilienceConfig.chaos``) wraps the function in the seeded
  fault injection of :func:`~repro.runtime.resilience.chaos_wrap`.

A task's identity — its journal fingerprint and its chaos draw — is its
position and content by default.  ``map(..., keys=)`` names each task
instead: the fingerprint becomes ``task_fingerprint(scope, 0, key)``
and the chaos draw ``fault_decision(chaos, key, attempt)``, so callers
whose task payloads carry volatile parts (shared-memory segment names)
still resume and draw faults by stable content.

The function is shipped to each worker process *once* via the pool
initializer (not pickled per task), and tasks are submitted individually
— at most one per worker in flight — so submission time approximates
start time, which is what makes the parent-side deadline enforcement
honest.

Each worker process has its own compute cache and instrumentation; the
worker-side shim captures an instrumentation snapshot delta (counters,
phase timers, cache hits/misses) per task and the parent merges it back,
so profiling reports see all work wherever it ran.  Both executors also
time every task under the shared ``tasks`` timer, from which the report
derives its speedup estimate, and tally their own dispatches, retries,
timeouts, pool restarts and journal hits in :attr:`Executor.stats`.
"""

from __future__ import annotations

import builtins
import heapq
import multiprocessing
import time
import traceback as traceback_module
from abc import ABC, abstractmethod
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ReproError, TaskError
from repro.runtime import instrument
from repro.runtime.instrument import count
from repro.runtime.journal import task_fingerprint
from repro.runtime.resilience import (
    ResilienceConfig,
    TaskFailure,
    _ChaosFn,
    backoff_delay,
    chaos_wrap,
    get_resilience,
    record_failure,
)
from repro.utils.timing import Timer

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "get_executor",
    "heartbeat",
    "map_tasks",
]


class Executor(ABC):
    """Maps a picklable function over task specs, preserving order."""

    #: number of worker processes this executor uses (1 = in-process)
    workers: int = 1

    #: explicit policy override; ``None`` resolves the active one per map
    resilience: ResilienceConfig | None = None

    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        self.resilience = resilience
        #: this executor's own tallies (``dispatched``, ``task_retries``,
        #: ``task_timeouts``, ``pool_restarts``, ``journal_hits``, ...)
        self.stats: Counter = Counter()

    @abstractmethod
    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        keys: Sequence[str] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task, returning results in task order.

        ``keys``, when given, names each task's identity for the journal
        and the chaos draw (see the module docstring).
        """

    def close(self) -> None:
        """Release any worker processes (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _config(self) -> ResilienceConfig:
        return self.resilience if self.resilience is not None else get_resilience()

    def _count(self, name: str) -> None:
        count(name)
        self.stats[name] += 1

    def _lookup(self, config: ResilienceConfig, tasks, keys):
        """Journal fingerprints (``None`` without a journal) and hits."""
        if config.journal is None:
            return None, {}
        fingerprints = [
            task_fingerprint(config.scope, 0, keys[i])
            if keys is not None
            else task_fingerprint(config.scope, i, task)
            for i, task in enumerate(tasks)
        ]
        hits = {}
        for i, fingerprint in enumerate(fingerprints):
            hit, value = config.journal.lookup(fingerprint)
            if hit:
                self._count("journal_hits")
                hits[i] = value
        return fingerprints, hits

    def _exhausted(
        self, config: ResilienceConfig, failure: TaskFailure
    ) -> TaskFailure:
        """Apply the failure policy to a task that spent its budget."""
        if config.on_failure == "skip":
            self._count("tasks_skipped")
            record_failure(failure)
            return failure
        raise TaskError(
            f"task {failure.index} failed after {failure.attempts} attempt(s): "
            f"{failure.error}",
            index=failure.index,
            attempts=failure.attempts,
            error=failure.error,
            worker_traceback=failure.traceback,
        )


def _call_fn(fn: Callable[[Any], Any], task: Any, attempt: int, key: Any) -> Any:
    """Invoke a task function, passing the attempt number when supported.

    Attempt-aware callables (``accepts_attempt = True``) receive which
    attempt this is, so transient failures can clear on retry; the chaos
    wrapper also receives the task's key (its fault-draw identity);
    plain functions keep the one-argument contract.
    """
    if isinstance(fn, _ChaosFn):
        return fn(task, attempt, key)
    if getattr(fn, "accepts_attempt", False):
        return fn(task, attempt)
    return fn(task)


class SerialExecutor(Executor):
    """In-process ordered execution (the ``workers=1`` reference path)."""

    workers = 1

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        keys: Sequence[str] | None = None,
    ) -> list[Any]:
        config = self._config()
        fn = chaos_wrap(fn, config.chaos)
        tasks = list(tasks)
        fingerprints, hits = self._lookup(config, tasks, keys)
        results: list[Any] = []
        for index, task in enumerate(tasks):
            if index in hits:
                results.append(hits[index])
                continue
            key = None if keys is None else keys[index]
            result = self._run_one(fn, index, task, key, config)
            if fingerprints is not None and not isinstance(result, TaskFailure):
                config.journal.record(fingerprints[index], result)
            results.append(result)
        return results

    def _run_one(
        self,
        fn: Callable[[Any], Any],
        index: int,
        task: Any,
        key: Any,
        config: ResilienceConfig,
    ) -> Any:
        failed_attempts = 0
        while True:
            self.stats["dispatched"] += 1
            try:
                with Timer.timed("tasks"):
                    return _call_fn(fn, task, failed_attempts, key)
            except Exception as exc:
                is_timeout = isinstance(exc, builtins.TimeoutError)
                if is_timeout:
                    self._count("task_timeouts")
                failed_attempts += 1
                if failed_attempts <= config.max_retries:
                    self._count("task_retries")
                    delay = backoff_delay(config, index, failed_attempts)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                failure = TaskFailure(
                    index=index,
                    attempts=failed_attempts,
                    error=repr(exc),
                    traceback=traceback_module.format_exc(),
                    timeout=is_timeout,
                )
                return self._exhausted(config, failure)


# -- worker-side shims --------------------------------------------------------

#: the mapped function, shipped once per worker process by the initializer
#: instead of being pickled into every task payload
_WORKER_FN: Callable[[Any], Any] | None = None

#: the pool's shared heartbeat table (one monotonic timestamp per slot)
#: and the slot of the task this worker is running; both ``None`` in
#: the parent, where :func:`heartbeat` does nothing
_BEATS: Any = None
_SLOT: int | None = None


def _init_worker(fn: Callable[[Any], Any], beats: Any) -> None:
    global _WORKER_FN, _BEATS
    _WORKER_FN = fn
    _BEATS = beats


def heartbeat() -> None:
    """Report progress from inside a running task: its deadline restarts now.

    Stamps ``time.monotonic()`` (system-wide on Linux) into the running
    task's shared-memory slot; the parent counts ``task_timeout`` from
    the later of dispatch and that stamp.  Outside a pool worker
    (serial execution, or no task running) this does nothing.
    """
    if _BEATS is not None and _SLOT is not None:
        _BEATS[_SLOT] = time.monotonic()


def _run_task(index: int, attempt: int, task: Any, key: Any, slot: int) -> tuple:
    """Worker-side shim: run one task and report what happened and what it cost.

    Exceptions are caught *here*, in the worker, so the formatted
    traceback (which does not survive pickling on an exception object)
    crosses the process boundary as text.  Returns either
    ``("ok", index, result, delta)`` or
    ``("err", index, (error_repr, traceback_text, is_timeout), delta)``
    where ``delta`` is the instrumentation snapshot to merge back.
    """
    global _SLOT
    _SLOT = slot
    before = instrument.snapshot()
    try:
        with Timer.timed("tasks"):
            outcome = ("ok", _call_fn(_WORKER_FN, task, attempt, key))
    except Exception as exc:
        outcome = (
            "err",
            (
                repr(exc),
                traceback_module.format_exc(),
                isinstance(exc, builtins.TimeoutError),
            ),
        )
    finally:
        _SLOT = None
    delta = instrument.snapshot_delta(instrument.snapshot(), before)
    return (outcome[0], index, outcome[1], delta)


class ParallelExecutor(Executor):
    """Process-pool fan-out; results keep task order, stats merge back.

    Dispatch is submit-based (never a single ``pool.map``), so one dead
    worker forfeits only the tasks in flight; everything already
    completed is salvaged and the pool is rebuilt (see module docstring
    for the full failure semantics).  The pool outlives one ``map``:
    close the executor (or use it as a context manager) to release it.
    """

    def __init__(
        self, workers: int, resilience: ResilienceConfig | None = None
    ) -> None:
        if workers < 2:
            raise ReproError(
                f"ParallelExecutor needs at least 2 workers, got {workers}"
            )
        super().__init__(resilience)
        self.workers = int(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None  # (fn, chaos) the pool serves
        self._size = 0
        self._beats: Any = None

    # -- pool lifecycle -----------------------------------------------------

    def _spawn(self) -> ProcessPoolExecutor:
        self._pool = ProcessPoolExecutor(
            max_workers=self._size,
            initializer=_init_worker,
            initargs=(chaos_wrap(*self._pool_key), self._beats),
        )
        return self._pool

    def _ensure_pool(self, key: tuple, size: int) -> ProcessPoolExecutor:
        """The live pool for ``key``, forking a fresh one if it serves another."""
        if self._pool is not None and self._pool_key == key:
            return self._pool
        self.close()
        self._pool_key, self._size = key, size
        self._beats = multiprocessing.RawArray("d", size)
        return self._spawn()

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on hung or dead workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged beyond SIGTERM
                process.kill()
                process.join(timeout=5.0)

    def close(self) -> None:
        # graceful: between maps every worker is idle, and unlike
        # terminate() a cooperative shutdown cannot wedge the pool's
        # manager thread by killing a worker mid-queue-read
        pool, self._pool = self._pool, None
        self._pool_key = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:
        # an executor dropped unclosed (``ParallelExecutor(2).map(...)``)
        # must not leave idle workers behind until interpreter exit
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- the dispatch loop --------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        keys: Sequence[str] | None = None,
    ) -> list[Any]:
        config = self._config()
        tasks = list(tasks)
        n = len(tasks)
        fingerprints, hits = self._lookup(config, tasks, keys)
        results: list[Any] = [hits.get(i) for i in range(n)]
        remaining = [i for i in range(n) if i not in hits]
        if not remaining:
            return results
        attempts = [0] * n  # failed attempts so far, per task
        timeout = config.task_timeout

        pool = self._ensure_pool(
            (fn, config.chaos), min(self.workers, len(remaining))
        )
        beats = self._beats
        pending: deque[int] = deque(remaining)
        retry_heap: list[tuple[float, int]] = []  # (ready time, task index)
        inflight: dict[Future, tuple[int, int]] = {}  # future -> (index, slot)
        free_slots = list(range(self._size))

        def finish(index: int, result: Any) -> None:
            results[index] = result
            if fingerprints is not None:
                config.journal.record(fingerprints[index], result)

        def fail_or_retry(index: int, failure: TaskFailure) -> None:
            """Schedule a retry if budget remains, else apply the policy."""
            if attempts[index] <= config.max_retries:
                self._count("task_retries")
                delay = backoff_delay(config, index, attempts[index])
                heapq.heappush(retry_heap, (time.monotonic() + delay, index))
                return
            results[index] = self._exhausted(config, failure)

        def charge(index: int, error: str, *, is_timeout: bool = False) -> None:
            attempts[index] += 1
            fail_or_retry(
                index,
                TaskFailure(
                    index=index,
                    attempts=attempts[index],
                    error=error,
                    timeout=is_timeout,
                ),
            )

        def rebuild() -> ProcessPoolExecutor:
            """Kill the pool (every in-flight task is lost) and fork anew."""
            self._count("pool_restarts")
            inflight.clear()
            free_slots[:] = range(self._size)
            self._kill_pool()
            return self._spawn()

        def rebuild_after_crash() -> ProcessPoolExecutor:
            """Salvage a broken pool: charge the in-flight tasks, restart."""
            for index in sorted(index for index, _ in inflight.values()):
                charge(index, "worker process died (BrokenProcessPool)")
            return rebuild()

        try:
            while pending or inflight or retry_heap:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    pending.append(heapq.heappop(retry_heap)[1])
                while pending and free_slots:
                    index = pending.popleft()
                    slot = free_slots.pop()
                    key = None if keys is None else keys[index]
                    try:
                        future = pool.submit(
                            _run_task, index, attempts[index], tasks[index], key, slot
                        )
                    except BrokenProcessPool:
                        pending.appendleft(index)
                        free_slots.append(slot)
                        pool = rebuild_after_crash()
                        continue
                    beats[slot] = time.monotonic()
                    inflight[future] = (index, slot)
                    self.stats["dispatched"] += 1
                if not inflight:
                    if retry_heap:  # only backoff waits remain
                        time.sleep(
                            max(0.0, retry_heap[0][0] - time.monotonic())
                        )
                    continue

                wait_timeout = None
                if timeout is not None:
                    first = min(beats[slot] for _, slot in inflight.values())
                    wait_timeout = max(0.0, first + timeout - time.monotonic())
                if retry_heap:
                    until_retry = max(0.0, retry_heap[0][0] - time.monotonic())
                    wait_timeout = (
                        until_retry
                        if wait_timeout is None
                        else min(wait_timeout, until_retry)
                    )
                completed, _ = futures_wait(
                    set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                broken = False
                for future in completed:
                    index, slot = inflight.pop(future)
                    free_slots.append(slot)
                    try:
                        status, _, value, delta = future.result()
                    except BrokenProcessPool:
                        broken = True
                        charge(index, "worker process died (BrokenProcessPool)")
                        continue
                    instrument.merge_snapshot(delta)
                    if status == "ok":
                        finish(index, value)
                        continue
                    error_repr, traceback_text, is_timeout = value
                    if is_timeout:
                        self._count("task_timeouts")
                    attempts[index] += 1
                    fail_or_retry(
                        index,
                        TaskFailure(
                            index=index,
                            attempts=attempts[index],
                            error=error_repr,
                            traceback=traceback_text,
                            timeout=is_timeout,
                        ),
                    )
                if broken:
                    pool = rebuild_after_crash()
                    continue

                # parent-side deadline enforcement: a worker silent past its
                # task's deadline cannot be reclaimed, so the pool goes too
                if timeout is None:
                    continue
                now = time.monotonic()
                expired = sorted(
                    index
                    for index, slot in inflight.values()
                    if beats[slot] + timeout <= now
                )
                if expired:
                    # innocents killed alongside the hung worker re-run
                    # without being charged an attempt
                    survivors = sorted(
                        index for index, _ in inflight.values() if index not in expired
                    )
                    for index in expired:
                        self._count("task_timeouts")
                        charge(
                            index,
                            f"task exceeded task_timeout={timeout}s",
                            is_timeout=True,
                        )
                    pending.extendleft(reversed(survivors))
                    pool = rebuild()
        except BaseException:
            self._kill_pool()
            raise
        return results


def get_executor(
    workers: int | None = 1, resilience: ResilienceConfig | None = None
) -> Executor:
    """Select the executor for a ``workers`` argument (``None``/1 = serial).

    ``resilience`` overrides the process-wide active policy for this
    executor's maps (retries, timeouts, journal, chaos — see
    :mod:`repro.runtime.resilience`).
    """
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ReproError(f"workers must be a positive integer, got {workers}")
    if workers == 1:
        return SerialExecutor(resilience)
    return ParallelExecutor(workers, resilience)


def map_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int | None = 1,
    resilience: ResilienceConfig | None = None,
) -> list[Any]:
    """One-shot ``get_executor(workers, resilience).map(fn, tasks)``, pool closed."""
    with get_executor(workers, resilience) as executor:
        return executor.map(fn, tasks)
