import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_ERROR, main
from repro.errors import ReproError
from repro.experiments import get_experiment, list_experiments
from repro.experiments.common import ExperimentResult, check_scale

SRC = Path(__file__).resolve().parents[2] / "src"

EXPECTED_EXPERIMENTS = {
    "fig03_example",
    "fig06_pareto",
    "fig07_top1",
    "fig08_diurnal",
    "fig09_top",
    "fig10_top_weighted",
    "fig11a_hourly",
    "fig11c_vary_l",
    "fig11d_vary_n",
    "table02_algorithms",
    "scorecard",
    "ext_replication",
    "ext_multi_sfc",
    "ext_schedules",
    "ext_arrivals",
    "val_link_utilization",
    "val_gravity_dynamics",
    "ablation_complete_graph",
    "ablation_dp_backends",
    "ablation_frontiers",
    "ablation_mu",
    "ablation_dynamics",
}


class TestRegistry:
    def test_every_figure_is_registered(self):
        assert EXPECTED_EXPERIMENTS <= set(list_experiments())

    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            get_experiment("fig99_bogus")

    def test_bad_scale_rejected(self):
        with pytest.raises(ReproError, match="scale"):
            check_scale("enormous")


class TestExperimentResult:
    def test_table_and_json_round_trip(self):
        result = ExperimentResult(
            experiment="demo",
            description="a demo",
            rows=[{"x": 1, "y": 2.5}],
            notes=["hello"],
            params={"k": 4},
        )
        table = result.to_table()
        assert "demo" in table and "hello" in table
        payload = json.loads(result.to_json())
        assert payload["rows"][0]["y"] == 2.5
        assert result.column("x") == [1]


class TestSmokeRuns:
    """Every experiment must complete at smoke scale and keep its contract."""

    @pytest.mark.parametrize("name", sorted(EXPECTED_EXPERIMENTS))
    def test_runs_at_smoke_scale(self, name):
        result = get_experiment(name)("smoke")
        assert isinstance(result, ExperimentResult)
        assert result.rows, f"{name} produced no rows"
        assert result.experiment == name


class TestCli:
    def test_list(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        assert "fig07_top1" in out.getvalue()

    def test_run_writes_table_and_json(self, tmp_path):
        out = io.StringIO()
        json_path = tmp_path / "fig08.json"
        code = main(
            ["run", "fig08_diurnal", "--scale", "smoke", "--json", str(json_path)],
            out=out,
        )
        assert code == 0
        assert "tau_west" in out.getvalue()
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "fig08_diurnal"

    def test_run_unknown_fails(self, capsys):
        out = io.StringIO()
        assert main(["run", "nonexistent"], out=out) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'nonexistent'")
        assert err.count("\n") == 1

    def test_error_exits_without_traceback(self):
        """A ReproError reaches the shell as one line and exit code 1."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "fig11_dynamic"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == EXIT_ERROR
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: unknown experiment 'fig11_dynamic'")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
