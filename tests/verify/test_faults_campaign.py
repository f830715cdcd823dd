"""The fault-injection verification family: smoke campaign + audit checks."""

from __future__ import annotations

import json

import pytest

from repro.verify import (
    CAMPAIGNS,
    CampaignConfig,
    FAULT_FAMILIES,
    check_fault_day,
    generate_fault_cases,
    run_campaign,
    run_fault_case,
)

pytestmark = pytest.mark.faults

SMOKE_CASES = 10


@pytest.fixture(scope="module")
def smoke_report():
    """One shared tier-1 fault campaign: ~10 seeded survivability days."""
    return run_campaign(
        CAMPAIGNS["faults"], CampaignConfig(cases=SMOKE_CASES, seed=0)
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
    def test_deterministic(self):
        assert generate_fault_cases(3, 20) == generate_fault_cases(3, 20)

    def test_prefix_stable_across_case_counts(self):
        assert generate_fault_cases(0, 5) == generate_fault_cases(0, 25)[:5]

    def test_seeds_differ(self):
        assert generate_fault_cases(0, 10) != generate_fault_cases(1, 10)

    def test_specs_cover_known_families(self):
        specs = generate_fault_cases(0, 40)
        assert {s.family for s in specs} <= set(FAULT_FAMILIES)
        assert {s.policy for s in specs} <= {"mpareto", "no-migration"}


class TestCheckFaultDay:
    @pytest.fixture(scope="class")
    def good_case(self):
        # pick a spec that completes (not infeasible) so the audit has a day
        for spec in generate_fault_cases(7, 30):
            outcome = run_fault_case((spec, 1e-9))
            if outcome["outcome"] == "completed":
                return spec
        pytest.fail("no completing fault case in the first 30 specs")

    def test_clean_day_passes(self, good_case):
        topology, flows, rate_process, faults = good_case.build()
        day = good_case.simulate()
        violations = check_fault_day(
            topology, flows, rate_process, faults, day, mu=good_case.mu
        )
        assert violations == []

    def test_corrupted_repair_cost_is_caught(self, good_case):
        from dataclasses import replace

        topology, flows, rate_process, faults = good_case.build()
        day = good_case.simulate()
        bad_first = replace(
            day.records[0], repair_cost=day.records[0].repair_cost + 123.0
        )
        bad_day = replace(day, records=(bad_first,) + day.records[1:])
        violations = check_fault_day(
            topology, flows, rate_process, faults, bad_day, mu=good_case.mu
        )
        assert any(v.invariant == "fault_repair_cost" for v in violations)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_corrupted_placement_is_caught(self, good_case):
        import copy

        topology, flows, rate_process, faults = good_case.build()
        day = good_case.simulate()
        bad_day = copy.deepcopy(day)
        # plant a VNF on a switch that is failed at some faulty hour, or —
        # on an all-healthy day — on a host (never a legal VNF site)
        log = bad_day.extra["fault_log"]
        for entry in log:
            if entry["failed_switches"]:
                entry["placement"][0] = entry["failed_switches"][0]
                break
        else:
            log[0]["placement"][0] = int(topology.hosts[0])
        violations = check_fault_day(
            topology, flows, rate_process, faults, bad_day, mu=good_case.mu
        )
        assert any(v.invariant == "fault_containment" for v in violations)

    def test_misaligned_log_is_caught(self, good_case):
        from dataclasses import replace

        topology, flows, rate_process, faults = good_case.build()
        day = good_case.simulate()
        bad_day = replace(
            day,
            extra={**day.extra, "fault_log": day.extra["fault_log"][:-1]},
        )
        violations = check_fault_day(
            topology, flows, rate_process, faults, bad_day, mu=good_case.mu
        )
        assert [v.invariant for v in violations] == ["fault_log_alignment"]


class TestRunFaultCase:
    def test_outcome_payload_shape(self):
        spec = generate_fault_cases(0, 1)[0]
        outcome = run_fault_case((spec, 1e-9))
        assert outcome["case_id"] == spec.case_id
        assert outcome["outcome"] in {"completed", "infeasible"}
        assert outcome["violations"] == []
        assert outcome["spec"] == spec.to_dict()

    def test_specs_rebuild_bitwise(self):
        spec = generate_fault_cases(5, 1)[0]
        _, _, _, faults_a = spec.build()
        _, _, _, faults_b = spec.build()
        assert json.dumps(faults_a.to_dict(), sort_keys=True) == json.dumps(
            faults_b.to_dict(), sort_keys=True
        )
