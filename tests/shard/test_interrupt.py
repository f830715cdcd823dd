"""Graceful interruption: SIGTERM mid-day yields a flagged partial day."""

from __future__ import annotations

import os
import signal

from repro.runtime.journal import Journal
from repro.shard import ShardConfig, simulate_day_sharded
from repro.sim.engine import simulate_day

from .conftest import DayCase, canon


class InterruptingRates:
    """Rate process that SIGTERMs its own process at a chosen hour.

    ``deliver_interrupts`` converts the signal to ``KeyboardInterrupt``
    at the next bytecode boundary, so the day loop sees the interrupt
    exactly where a real ``kill`` mid-hour would land.
    """

    def __init__(self, inner, at_hour: int):
        self.inner = inner
        self.at_hour = at_hour

    def rates_at(self, hour: int):
        if hour == self.at_hour:
            os.kill(os.getpid(), signal.SIGTERM)
        return self.inner.rates_at(hour)


class InterruptingPolicy:
    """Policy wrapper that SIGTERMs the process on its n-th ``step``.

    Unlike :class:`InterruptingRates` this leaves the rate process —
    part of the shard journal's scope fingerprint — untouched, so a
    resumed run can adopt the interrupted run's journalled shards.
    """

    def __init__(self, inner, at_step: int):
        self._inner = inner
        self._at_step = at_step
        self._steps = 0

    def step(self, rates):
        self._steps += 1
        if self._steps == self._at_step:
            os.kill(os.getpid(), signal.SIGTERM)
        return self._inner.step(rates)

    def __getattr__(self, name):
        return getattr(self.__dict__["_inner"], name)


def _interrupted_day(case: DayCase, at_hour: int):
    return simulate_day(
        case.topology,
        case.flows,
        case.make_policy(),
        InterruptingRates(case.rate_process, at_hour),
        case.placement,
        case.hours,
        faults=case.make_faults(),
    )


class TestClassicLoop:
    def test_plain_day_returns_flagged_prefix(self):
        case = DayCase(num_flows=12, horizon=4)
        full = case.unsharded()
        partial = _interrupted_day(case, at_hour=3)
        assert partial.extra["interrupted"] is True
        assert len(partial.records) == 2
        # the completed hours are exactly the full day's prefix
        assert partial.records == full.records[:2]

    def test_fault_day_returns_flagged_prefix(self):
        case = DayCase(num_flows=12, horizon=4, fault_seed=5)
        full = case.unsharded()
        partial = _interrupted_day(case, at_hour=3)
        assert partial.extra["interrupted"] is True
        assert len(partial.records) == 2
        assert partial.records == full.records[:2]

    def test_normal_days_are_not_flagged(self):
        case = DayCase(num_flows=12, horizon=4)
        assert "interrupted" not in case.unsharded().extra


class TestShardedLoop:
    def test_sharded_day_returns_flagged_prefix(self):
        case = DayCase(num_flows=12, horizon=4)
        full, _ = case.sharded(2)
        partial = simulate_day_sharded(
            case.topology,
            case.flows,
            case.make_policy(),
            InterruptingRates(case.rate_process, at_hour=3),
            case.placement,
            case.hours,
            config=ShardConfig(num_shards=2),
        )
        assert partial.extra["interrupted"] is True
        assert len(partial.records) == 2
        assert partial.records == full.records[:2]

    def test_interrupted_shards_are_salvaged_on_resume(self, tmp_path):
        # the shard journal is flushed record-by-record, so a kill
        # mid-day leaves the completed shards on disk; the resumed run
        # adopts them and finishes the day byte-identically
        case = DayCase(num_flows=12, horizon=4)
        clean, _ = case.sharded(2)
        path = tmp_path / "shards.jsonl"
        with Journal(path) as journal:
            partial = simulate_day_sharded(
                case.topology,
                case.flows,
                InterruptingPolicy(case.make_policy(), at_step=3),
                case.rate_process,
                case.placement,
                case.hours,
                config=ShardConfig(num_shards=2),
                journal=journal,
            )
        assert partial.extra["interrupted"] is True
        assert len(partial.records) == 2
        with Journal(path) as journal:
            resumed, report = case.sharded(2, journal=journal)
        assert canon(resumed) == canon(clean)
        # hours 1-3's shards were journalled before the kill landed;
        # only the tail of the day is recomputed
        assert report["journal_hits"] > 0
        assert report["dispatched"] > 0
