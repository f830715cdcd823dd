"""Fault-tolerance policy for the execution layer: retries, timeouts, chaos.

Everything here is *policy and bookkeeping*; the mechanics live in
:mod:`repro.runtime.executor`, which resolves the active
:class:`ResilienceConfig` on every ``map`` call.  The pieces:

* :class:`ResilienceConfig` — per-task retry budget, timeout, backoff
  shape, failure policy (``fail`` or ``skip``), optional
  :class:`~repro.runtime.journal.Journal` for checkpoint/resume, and an
  optional :class:`ChaosConfig` for fault injection.  Installed
  process-wide with :func:`use_resilience` (the same pattern as the
  compute cache and instrumentation), so the runner, ``map_points`` and
  the CLI all route through one policy without threading a parameter
  through every experiment signature.
* :func:`backoff_delay` — exponential backoff with *deterministic*
  jitter: the jitter is derived from a hash of (scope, task index,
  attempt), never from a live RNG, so two identical runs retry on an
  identical schedule.
* :class:`TaskFailure` — the structured record of a task that exhausted
  its budget, carrying the worker-side traceback text across the process
  boundary.  Under the ``skip`` policy these stand in for the missing
  results and are collected for ``ExperimentResult.params["runtime"]["failures"]``.
* :class:`ChaosConfig` / :func:`chaos_wrap` — seeded, deterministic fault
  injection (exception crashes, delays, injected timeouts, and hard
  ``os._exit`` worker kills) used by the test suite to prove that results
  under faults remain bit-identical to a fault-free serial run.

Determinism argument: a retried task re-runs the *same* self-contained,
seeded task spec, and task results are keyed by position, so retries,
worker crashes, journal resumes and chaos faults can reorder *when* work
happens but never change *what* any task computes — the executor's
bit-identical contract survives every failure mode short of budget
exhaustion.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from repro.errors import ReproError, TimeoutError
from repro.runtime.journal import Journal, task_fingerprint

__all__ = [
    "ChaosConfig",
    "ChaosError",
    "ResilienceConfig",
    "TaskFailure",
    "backoff_delay",
    "chaos_wrap",
    "drain_failures",
    "fault_decision",
    "get_resilience",
    "record_failure",
    "use_resilience",
]

#: failure policies: abort the whole map, or keep a TaskFailure placeholder
ON_FAILURE = ("fail", "skip")


class ChaosError(ReproError):
    """An injected (not organic) task crash from the chaos layer."""


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection plan applied by every executor's ``map``.

    Each task draws one deterministic fault decision from
    ``sha256(seed, task fingerprint)`` (of the task's key, when the map
    names keys): with probability ``crash_rate`` it raises
    :class:`ChaosError`, with ``delay_rate`` it sleeps
    ``delay_seconds`` before running, with ``timeout_rate`` it raises an
    injected :class:`~repro.errors.TimeoutError`, and with ``kill_rate``
    it hard-kills its worker process via ``os._exit`` (exercising the
    broken-pool salvage path; meaningless under a serial executor, where
    it falls back to :class:`ChaosError`).  Faults fire only while
    ``attempt < faulty_attempts`` — by default only the first attempt —
    so a sufficient retry budget always recovers and results stay
    bit-identical to a fault-free run.
    """

    seed: int = 0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    timeout_rate: float = 0.0
    kill_rate: float = 0.0
    delay_seconds: float = 0.01
    faulty_attempts: int = 1

    def __post_init__(self) -> None:
        total = self.crash_rate + self.delay_rate + self.timeout_rate + self.kill_rate
        if not 0.0 <= total <= 1.0:
            raise ReproError(f"chaos fault rates must sum to [0, 1], got {total}")


@dataclass(frozen=True)
class ResilienceConfig:
    """The execution layer's failure policy (see module docstring).

    ``max_retries`` is *extra* attempts per task beyond the first;
    ``task_timeout`` (seconds) is enforced by the parent for parallel
    executors, counted from the later of dispatch and the task's last
    :func:`~repro.runtime.executor.heartbeat` (a silent worker is killed
    and the task charged one attempt — serial execution cannot preempt a
    running task, so there it only classifies injected timeouts).
    ``on_failure="skip"`` replaces a task's result with its
    :class:`TaskFailure` instead of raising :class:`~repro.errors.TaskError`.
    """

    max_retries: int = 0
    task_timeout: float | None = None
    on_failure: str = "fail"
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    scope: str = ""
    journal: Journal | None = None
    chaos: ChaosConfig | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ReproError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.on_failure not in ON_FAILURE:
            raise ReproError(
                f"on_failure must be one of {ON_FAILURE}, got {self.on_failure!r}"
            )

    def scoped(self, scope: str) -> "ResilienceConfig":
        """A copy of this config bound to a run scope (experiment@scale)."""
        return replace(self, scope=scope)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that exhausted its retry budget.

    Under ``on_failure="skip"`` this object *is* the task's result slot,
    so callers can both detect the hole and read why it happened —
    including the traceback formatted inside the worker process, which a
    pickled exception alone would have lost.
    """

    index: int
    attempts: int
    error: str
    traceback: str = ""
    timeout: bool = False

    def to_dict(self) -> dict:
        """JSON-friendly form for ``params["runtime"]["failures"]``."""
        return {
            "index": self.index,
            "attempts": self.attempts,
            "error": self.error,
            "timeout": self.timeout,
            "traceback": self.traceback,
        }


# -- active policy ------------------------------------------------------------

_DEFAULT = ResilienceConfig()
_ACTIVE: ResilienceConfig = _DEFAULT


def get_resilience() -> ResilienceConfig:
    """The process-wide policy executors resolve when given none."""
    return _ACTIVE


def set_resilience(config: ResilienceConfig | None) -> None:
    """Install (or, with ``None``, reset) the process-wide policy."""
    global _ACTIVE
    _ACTIVE = config if config is not None else _DEFAULT


@contextmanager
def use_resilience(config: ResilienceConfig) -> Iterator[ResilienceConfig]:
    """Scoped install of a policy: ``with use_resilience(cfg): run(...)``."""
    previous = _ACTIVE
    set_resilience(config)
    try:
        yield config
    finally:
        set_resilience(previous)


# -- failure collection -------------------------------------------------------

_FAILURES: list[TaskFailure] = []


def record_failure(failure: TaskFailure) -> None:
    """Collect one skipped task's failure for the end-of-run report."""
    _FAILURES.append(failure)


def drain_failures() -> list[TaskFailure]:
    """Pop every failure recorded since the last drain (run boundary)."""
    failures = list(_FAILURES)
    _FAILURES.clear()
    return failures


# -- deterministic backoff ----------------------------------------------------


def _unit_hash(*parts: Any) -> float:
    """Deterministic uniform-ish value in [0, 1) from hashable parts."""
    digest = hashlib.sha256("\x00".join(str(p) for p in parts).encode()).digest()
    (word,) = struct.unpack("<Q", digest[:8])
    return word / 2**64


def backoff_delay(config: ResilienceConfig, index: int, attempt: int) -> float:
    """Delay before retry ``attempt`` (1-based) of task ``index``, seconds.

    Exponential in the attempt number, capped at ``backoff_cap``, with
    deterministic jitter in [0.5x, 1.0x) derived from
    ``(scope, index, attempt)`` — so identical runs retry on identical
    schedules (no live RNG), while distinct tasks de-synchronize instead
    of thundering back in lockstep.  ``backoff_base=0`` disables waiting.
    """
    if config.backoff_base <= 0 or attempt <= 0:
        return 0.0
    raw = min(config.backoff_cap, config.backoff_base * 2 ** (attempt - 1))
    jitter = 0.5 + 0.5 * _unit_hash(config.scope, index, attempt, "backoff")
    return raw * jitter


# -- chaos injection ----------------------------------------------------------


def fault_decision(chaos: ChaosConfig, task: Any, attempt: int = 0) -> str | None:
    """Which fault (if any) this task draws: a pure function of content.

    Returns one of ``"crash"`` / ``"delay"`` / ``"timeout"`` / ``"kill"``
    or ``None``, derived from ``sha256(seed, fingerprint(task))`` — never
    a live RNG, so identical runs inject identical faults.  Faults fire
    only while ``attempt < faulty_attempts``, which is what lets a retry
    (the executor's, or the serve layer's quarantine-and-rebuild path)
    always converge on the real result.  ``task`` must be picklable.
    """
    if attempt >= chaos.faulty_attempts:
        return None
    draw = _unit_hash(chaos.seed, task_fingerprint("chaos", 0, task), "fault")
    edges = (
        ("crash", chaos.crash_rate),
        ("delay", chaos.delay_rate),
        ("timeout", chaos.timeout_rate),
        ("kill", chaos.kill_rate),
    )
    cumulative = 0.0
    for kind, rate in edges:
        cumulative += rate
        if draw < cumulative:
            return kind
    return None


class _ChaosFn:
    """Picklable fault-injecting wrapper around a task function.

    The executors call ``fn(task, attempt, key)``, which is what lets the
    injection be *transient*: the fault decision is a pure function of
    (seed, identity) — the task's ``key`` when the map names one, else
    the task content — but only fires while ``attempt`` is below
    ``faulty_attempts``, so retries always converge on the real result.
    """

    def __init__(self, fn: Callable[[Any], Any], chaos: ChaosConfig) -> None:
        self.fn = fn
        self.chaos = chaos

    def __call__(self, task: Any, attempt: int = 0, key: Any = None) -> Any:
        fault = fault_decision(self.chaos, task if key is None else key, attempt)
        if fault == "crash":
            raise ChaosError(f"injected crash (attempt {attempt})")
        if fault == "delay":
            time.sleep(self.chaos.delay_seconds)
        elif fault == "timeout":
            raise TimeoutError(f"injected timeout (attempt {attempt})")
        elif fault == "kill":
            # hard worker death -> BrokenProcessPool salvage path; in
            # the parent process (serial executor) degrade to a crash
            if os.getpid() != _PARENT_PID:
                os._exit(17)
            raise ChaosError(f"injected kill, serial fallback (attempt {attempt})")
        return self.fn(task)


#: recorded at import time in the parent; forked workers keep this value
#: but get their own pid, which is how injected kills spot worker processes
_PARENT_PID = os.getpid()


def chaos_wrap(fn: Callable[[Any], Any], chaos: ChaosConfig | None) -> Callable:
    """Wrap ``fn`` for fault injection (identity when ``chaos`` is None)."""
    if chaos is None:
        return fn
    return _ChaosFn(fn, chaos)
