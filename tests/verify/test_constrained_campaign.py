"""The constrained-placement verification campaign."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.verify import (
    CAMPAIGNS,
    CampaignConfig,
    ConstrainedCaseSpec,
    generate_constrained_cases,
    run_campaign,
    run_constrained_case,
)

pytestmark = pytest.mark.constrained


class TestGeneration:
    def test_same_seed_same_cases(self):
        assert generate_constrained_cases(5, 12) == generate_constrained_cases(5, 12)

    def test_case_prefix_stable_across_counts(self):
        assert generate_constrained_cases(0, 20)[:8] == generate_constrained_cases(0, 8)

    def test_specs_are_picklable_and_json_friendly(self):
        for spec in generate_constrained_cases(1, 8):
            assert pickle.loads(pickle.dumps(spec)) == spec
            json.dumps(spec.to_dict())

    def test_modes_and_constraint_knobs_are_covered(self):
        specs = generate_constrained_cases(0, 60)
        modes = {s.mode for s in specs}
        assert {"place", "migrate", "contention"} <= modes
        assert any(s.vnf_capacity is not None for s in specs)
        assert any(s.delay_factor is not None for s in specs)
        assert any(s.bandwidth_factor is not None for s in specs)


class TestSingleCase:
    def test_record_shape(self):
        spec = generate_constrained_cases(0, 1)[0]
        record = run_constrained_case((spec, 1e-9))
        assert set(record) == {
            "case_id", "family", "policy", "outcome", "checks",
            "violations", "spec",
        }
        assert record["outcome"] in ("completed", "infeasible", "error")
        assert record["violations"] == []


class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_campaign(
            CAMPAIGNS["constrained"], CampaignConfig(cases=15, seed=0)
        )
        assert report["cases"] == 15
        assert report["violations"] == 0
        assert report["failures"] == []
        assert set(report["coverage"]["by_outcome"]) <= {
            "completed", "infeasible"
        }
        json.dumps(report)  # the report is a JSON document end to end

    @pytest.mark.campaign
    def test_full_campaign_seed0(self, tmp_path):
        report = run_campaign(
            CAMPAIGNS["constrained"],
            CampaignConfig(
                cases=200,
                seed=0,
                workers=2,
                report_path=tmp_path / "constrained_report.json",
            )
        )
        assert report["cases"] == 200
        assert report["violations"] == 0
        assert (tmp_path / "constrained_report.json").exists()
