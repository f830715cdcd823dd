"""The sharded-execution verification family: smoke campaign + checks."""

from __future__ import annotations

import json

import pytest

from repro.verify import (
    CAMPAIGNS,
    CampaignConfig,
    SHARD_DAY_KINDS,
    generate_shard_cases,
    run_campaign,
    run_shard_case,
)

pytestmark = pytest.mark.faults

SMOKE_CASES = 6


@pytest.fixture(scope="module")
def smoke_report():
    """One shared tier-1 shard campaign: ~6 seeded days, every execution."""
    return run_campaign(
        CAMPAIGNS["shard"], CampaignConfig(cases=SMOKE_CASES, seed=0)
    )


class TestSmokeCampaign:
    def test_zero_violations(self, smoke_report):
        assert smoke_report["violations"] == 0, smoke_report["failures"]
        assert smoke_report["failures"] == []

    def test_every_case_ran(self, smoke_report):
        assert smoke_report["cases"] == SMOKE_CASES
        assert smoke_report["checks"] >= SMOKE_CASES

    def test_day_kinds_cycle_evenly(self, smoke_report):
        kinds = smoke_report["coverage"]["by_day_kind"]
        assert set(kinds) == set(SHARD_DAY_KINDS)
        assert all(n == SMOKE_CASES // 3 for n in kinds.values())

    def test_infeasible_is_an_outcome_not_a_failure(self, smoke_report):
        outcomes = smoke_report["coverage"]["by_outcome"]
        assert "error" not in outcomes
        assert set(outcomes) <= {"completed", "infeasible"}

    def test_report_is_json_serializable(self, smoke_report):
        json.dumps(smoke_report)


class TestCaseGeneration:
    def test_deterministic(self):
        assert generate_shard_cases(3, 12) == generate_shard_cases(3, 12)

    def test_cycles_every_day_kind(self):
        kinds = [spec.day_kind for spec in generate_shard_cases(0, 9)]
        assert kinds == list(SHARD_DAY_KINDS) * 3

    def test_replication_days_carry_the_replication_policy(self):
        for spec in generate_shard_cases(1, 12):
            if spec.day_kind == "replication":
                assert spec.policy == "tom-replication"
            else:
                assert spec.policy in ("mpareto", "no-migration")


class TestChecks:
    @pytest.fixture(scope="class")
    def spec(self):
        return generate_shard_cases(0, 1)[0]

    def test_run_case_counts_checks(self, spec):
        outcome = run_shard_case((spec, 1e-9))
        assert outcome["outcome"] in ("completed", "infeasible")
        assert outcome["violations"] == []
        # oracle identity per shard count + invariance between counts
        assert outcome["checks"] >= len(spec.shard_counts)

    def test_spec_round_trips_to_json(self, spec):
        json.dumps(spec.to_dict())
