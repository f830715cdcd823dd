"""The incremental-equivalence verification family: smoke campaign + checks."""

from __future__ import annotations

import json

import pytest

from repro.verify import (
    CAMPAIGNS,
    CampaignConfig,
    check_dynamic_tables,
    check_incremental_day,
    generate_fault_cases,
    generate_incremental_cases,
    run_campaign,
    run_incremental_case,
)

pytestmark = pytest.mark.faults

SMOKE_CASES = 8


@pytest.fixture(scope="module")
def smoke_report():
    """One shared tier-1 incremental campaign: ~8 seeded days, both paths."""
    return run_campaign(
        CAMPAIGNS["incremental"], CampaignConfig(cases=SMOKE_CASES, seed=0)
    )


class TestSmokeCampaign:
    def test_zero_violations(self, smoke_report):
        assert smoke_report["violations"] == 0, smoke_report["failures"]
        assert smoke_report["failures"] == []

    def test_every_case_ran(self, smoke_report):
        assert smoke_report["cases"] == SMOKE_CASES
        assert smoke_report["checks"] >= SMOKE_CASES

    def test_infeasible_is_an_outcome_not_a_failure(self, smoke_report):
        outcomes = smoke_report["coverage"]["by_outcome"]
        assert "error" not in outcomes
        assert set(outcomes) <= {"completed", "infeasible"}

    def test_report_is_json_serializable(self, smoke_report):
        json.dumps(smoke_report)


class TestCaseGeneration:
    def test_reuses_the_fault_spec_space(self):
        # same seed, same specs: one generator, two campaign families
        assert generate_incremental_cases(0, 12) == generate_fault_cases(0, 12)

    def test_deterministic(self):
        assert generate_incremental_cases(3, 12) == generate_incremental_cases(3, 12)


class TestChecks:
    @pytest.fixture(scope="class")
    def spec(self):
        return generate_incremental_cases(0, 1)[0]

    def test_dynamic_tables_match_cold(self, spec):
        topology, _flows, _rates, faults = spec.build()
        violations, checks = check_dynamic_tables(topology, faults)
        assert violations == []
        assert checks >= 1

    def test_day_bits_match(self, spec):
        violations, checks, outcome = check_incremental_day(spec)
        assert violations == []
        assert checks >= 1
        assert outcome in ("ok", "infeasible")

    def test_run_case_counts_checks(self, spec):
        outcome = run_incremental_case((spec, 1e-9))
        assert outcome["outcome"] in ("completed", "infeasible")
        assert outcome["violations"] == []
        assert outcome["checks"] >= 1
