"""Every registered campaign family, driven through ``repro verify --family``."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import EXIT_ERROR, main
from repro.errors import ReproError
from repro.verify import CAMPAIGNS, CampaignConfig, run_campaign


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_family_runs_clean_through_the_cli(name, tmp_path):
    report_path = tmp_path / f"{name}_report.json"
    out = io.StringIO()
    code = main(
        ["verify", "--family", name, "--cases", "3", "--json", str(report_path)],
        out=out,
    )
    assert code == 0, out.getvalue()
    report = json.loads(report_path.read_text())
    assert report["violations"] == 0, report["failures"]
    assert report["cases"] == 3
    assert report["config"]["family"] == name
    assert f"3 {name} cases" in out.getvalue()
    assert f"{report['checks']} checks, 0 violations" in out.getvalue()


def test_registry_order_and_scopes():
    """Scopes key the journal fingerprints, so they never change."""
    assert {name: family.scope for name, family in CAMPAIGNS.items()} == {
        "core": "verify",
        "faults": "verify-faults",
        "incremental": "verify-incremental",
        "constrained": "verify-constrained",
        "replication": "verify-replication",
        "shard": "verify-shard",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cases", "-1"],
        ["verify", "--cases", "3", "--inject-case", "3"],
        ["verify", "--family", "shard", "--no-shrink"],
    ],
)
def test_bad_campaign_input_is_one_error_line(argv, capsys, tmp_path):
    out = io.StringIO()
    assert main([*argv, "--json", str(tmp_path / "r.json")], out=out) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()



def test_duplicate_injection_refuses_a_one_vnf_case():
    # core case 3 @ seed 0 places n=1: a 'duplicate' corruption would
    # leave it untouched and the self-test would prove nothing
    config = CampaignConfig(cases=30, inject_case=3, inject_kind="duplicate")
    with pytest.raises(ReproError, match="inject_case 3"):
        run_campaign(CAMPAIGNS["core"], config)
