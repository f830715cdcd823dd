"""The campaign runner: smoke campaign, determinism, injection, shrinking, resume."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.verify import (
    CAMPAIGNS,
    CampaignConfig,
    CheckOptions,
    generate_cases,
    run_campaign,
    run_case,
    shrink_case,
)

SMOKE_CASES = 50

CORE = CAMPAIGNS["core"]


@pytest.fixture(scope="module")
def smoke_report():
    """One shared tier-1 campaign: ~50 seeded cases, all checks on."""
    return run_campaign(
        CORE, CampaignConfig(cases=SMOKE_CASES, seed=0, shrink=False)
    )


class TestSmokeCampaign:
    def test_zero_violations(self, smoke_report):
        assert smoke_report["violations"] == 0, smoke_report["failures"]
        assert smoke_report["failures"] == []

    def test_every_case_ran_and_checked(self, smoke_report):
        assert smoke_report["cases"] == SMOKE_CASES
        # at least the invariant + oracle layers fired per case
        assert smoke_report["checks"] >= 2 * SMOKE_CASES

    def test_coverage_spans_the_matrix(self, smoke_report):
        coverage = smoke_report["coverage"]
        assert len(coverage["by_family"]) >= 4
        assert len(coverage["by_algo"]) >= 5
        assert set(coverage["by_mode"]) == {"place", "migrate"}
        assert "cold" in coverage["by_entry"]

    def test_report_is_json_serializable(self, smoke_report):
        import json

        json.dumps(smoke_report)


class TestCaseGeneration:
    def test_deterministic(self):
        assert generate_cases(3, 25) == generate_cases(3, 25)

    def test_prefix_stable_across_case_counts(self):
        # a resumed campaign with a larger --cases extends the same prefix
        assert generate_cases(0, 10) == generate_cases(0, 30)[:10]

    def test_seeds_differ(self):
        assert generate_cases(0, 10) != generate_cases(1, 10)

    def test_specs_rebuild_deterministically(self):
        spec = generate_cases(0, 5)[4]
        topo_a, flows_a, _ = spec.build()
        topo_b, flows_b, _ = spec.build()
        assert (flows_a.sources == flows_b.sources).all()
        assert (flows_a.rates == flows_b.rates).all()
        assert topo_a.num_switches == topo_b.num_switches


class TestInjection:
    def test_cost_corruption_is_caught(self):
        spec = replace(generate_cases(0, 1)[0], inject="cost")
        record = run_case((spec, CheckOptions()))
        assert record["violations"], "a corrupted cost must be flagged"
        names = {v["invariant"] for v in record["violations"]}
        assert "cost_decomposition" in names

    def test_duplicate_corruption_is_caught(self):
        spec = next(
            s for s in generate_cases(0, 30) if s.mode == "place" and s.n >= 2
        )
        record = run_case((replace(spec, inject="duplicate"), CheckOptions()))
        names = {v["invariant"] for v in record["violations"]}
        assert "feasibility" in names

    def test_clean_case_has_no_violations(self):
        record = run_case((generate_cases(0, 1)[0], CheckOptions()))
        assert record["violations"] == []


class TestShrinking:
    def test_injected_violation_shrinks_to_minimal_repro(self):
        # the acceptance pin: a seeded injected violation must shrink to
        # a scenario of at most 3 flows
        spec = next(
            s
            for s in generate_cases(0, 30)
            if s.mode == "place" and s.num_flows >= 4
        )
        shrunk, record = shrink_case(replace(spec, inject="cost"), CheckOptions())
        assert record["violations"], "the shrunk spec must still fail"
        assert shrunk.effective_flows <= 3
        assert shrunk.inject == "cost"  # the corruption rode along

    def test_campaign_reports_the_shrunk_spec(self):
        spec = next(
            s
            for s in generate_cases(0, 30)
            if s.mode == "place" and s.num_flows >= 4
        )
        report = run_campaign(
            CORE,
            CampaignConfig(
                cases=30, seed=0, inject_case=spec.case_id, inject_kind="cost"
            )
        )
        assert report["violations"] > 0
        (failure,) = [
            f for f in report["failures"] if f["case_id"] == spec.case_id
        ]
        assert failure["shrunk"]["num_flows"] <= 3
        assert failure["shrunk"]["violations"]

    def test_shrink_is_a_noop_on_passing_cases(self):
        spec = generate_cases(0, 1)[0]
        shrunk, record = shrink_case(spec, CheckOptions())
        assert shrunk == spec
        assert record["violations"] == []


class TestJournalResume:
    def test_resumed_campaign_replays_from_journal(self, tmp_path):
        journal = tmp_path / "verify_journal.jsonl"
        first = run_campaign(
            CORE,
            CampaignConfig(cases=15, seed=0, shrink=False, journal_path=journal)
        )
        assert first["runtime"]["journal_hits"] == 0
        # a *larger* re-run must replay the completed prefix, not resolve it
        second = run_campaign(
            CORE,
            CampaignConfig(cases=30, seed=0, shrink=False, journal_path=journal)
        )
        assert second["runtime"]["journal_hits"] == 15
        assert second["cases"] == 30
        assert second["violations"] == 0

    def test_different_seed_gets_no_hits(self, tmp_path):
        journal = tmp_path / "verify_journal.jsonl"
        run_campaign(
            CORE,
            CampaignConfig(cases=5, seed=0, shrink=False, journal_path=journal)
        )
        other = run_campaign(
            CORE,
            CampaignConfig(cases=5, seed=1, shrink=False, journal_path=journal)
        )
        assert other["runtime"]["journal_hits"] == 0

    def test_report_written_atomically(self, tmp_path):
        import json

        path = tmp_path / "report.json"
        run_campaign(
            CORE,
            CampaignConfig(cases=3, seed=0, shrink=False, report_path=path)
        )
        assert json.loads(path.read_text())["cases"] == 3


@pytest.mark.campaign
def test_full_campaign_is_clean():
    """The nightly pin: the acceptance-criterion campaign, in-process."""
    report = run_campaign(CORE, CampaignConfig(cases=500, seed=0))
    assert report["violations"] == 0, report["failures"]
