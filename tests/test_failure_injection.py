"""Failure injection: corrupted inputs and injected runtime faults.

Two layers of injection live here:

* **data faults** — every public entry point is fed adversarial inputs
  (NaN rates, disconnected fabrics, placements referencing the wrong
  topology) and must raise a :class:`~repro.errors.ReproError` subclass
  rather than return garbage;
* **runtime faults** — a seeded :class:`~repro.runtime.resilience.ChaosConfig`
  injects crashes, delays, timeouts and worker kills into real experiment
  entry points (:func:`run_replications`, :func:`map_points`, the CLI),
  and the recovered outputs must be *bit-identical* to a fault-free
  serial run.
"""

import json

import numpy as np
import pytest

# chaos runs kill worker processes and hang tasks on purpose; they stay
# out of tier-1 and run in the dedicated `resilience` CI job
pytestmark = pytest.mark.slow

from repro.cli import main as cli_main
from repro.core.costs import CostContext
from repro.core.migration import mpareto_migration
from repro.core.optimal import optimal_placement
from repro.core.placement import dp_placement
from repro.errors import (
    GraphError,
    PlacementError,
    ReproError,
    TopologyError,
    WorkloadError,
)
from repro.graphs.adjacency import CostGraph
from repro.runtime import instrument
from repro.runtime.resilience import ChaosConfig, ResilienceConfig
from repro.sim.policies import MParetoPolicy, NoMigrationPolicy
from repro.sim.runner import RunConfig, run_replications
from repro.topology.base import Topology
from repro.workload.flows import FlowSet, place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel


@pytest.fixture()
def workload(ft4):
    flows = place_vm_pairs(ft4, 8, seed=171)
    return flows.with_rates(FacebookTrafficModel().sample(8, rng=171))


class TestCorruptRates:
    def test_negative_rates_rejected_at_construction(self, ft4, workload):
        with pytest.raises(WorkloadError):
            workload.with_rates(np.full(8, -1.0))

    def test_nan_rates_surface_in_cost(self, ft4, workload):
        """NaN rates pass FlowSet's sign check (NaN comparisons are False)
        but must poison the cost visibly, not silently order placements."""
        rates = workload.rates.copy()
        rates[0] = float("nan")
        nan_flows = workload.with_rates(rates)
        ctx = CostContext(ft4, nan_flows)
        cost = ctx.communication_cost(ft4.switches[:3])
        assert np.isnan(cost)


class TestWrongTopology:
    def test_foreign_hosts_rejected(self, ft4, ft8, workload):
        """Flows whose endpoints belong to another fabric are caught."""
        foreign = FlowSet(
            sources=[int(ft8.hosts[-1])],
            destinations=[int(ft8.hosts[-2])],
            rates=[1.0],
        )
        with pytest.raises((WorkloadError, IndexError)):
            dp_placement(ft4, foreign, 2)

    def test_placement_from_other_fabric_rejected(self, ft4, workload):
        bogus = np.asarray([10_000, 10_001])
        with pytest.raises(PlacementError):
            mpareto_migration(ft4, workload, bogus, mu=1.0)


class TestDisconnectedFabric:
    @staticmethod
    def _split_topology(**kwargs):
        graph = CostGraph(
            ["h1", "h2", "s1", "s2"], [(0, 2, 1.0), (1, 3, 1.0)]
        )
        return Topology(
            name="split",
            graph=graph,
            hosts=[0, 1],
            switches=[2, 3],
            host_edge_switch=[2, 3],
            **kwargs,
        )

    def test_disconnected_switch_layer_rejected_at_construction(self):
        with pytest.raises(TopologyError):
            self._split_topology()

    def test_placement_on_disconnected_graph_fails(self):
        # admitted like a fault-degraded view, the split fabric still
        # cannot carry a chain across its two components
        topo = self._split_topology(meta={"allow_disconnected": True})
        flows = FlowSet(sources=[0], destinations=[1], rates=[1.0])
        with pytest.raises(PlacementError):
            dp_placement(topo, flows, 2)


class TestBoundaryConditions:
    def test_every_switch_used(self, ft2, workload):
        """n == |V_s| exactly: the chain must use every switch once."""
        flows = FlowSet(
            sources=[int(ft2.hosts[0])], destinations=[int(ft2.hosts[1])], rates=[1.0]
        )
        result = dp_placement(ft2, flows, ft2.num_switches)
        assert sorted(result.placement.tolist()) == sorted(ft2.switches.tolist())

    def test_optimal_every_switch(self, ft2):
        flows = FlowSet(
            sources=[int(ft2.hosts[0])], destinations=[int(ft2.hosts[1])], rates=[1.0]
        )
        dp = dp_placement(ft2, flows, ft2.num_switches)
        opt = optimal_placement(ft2, flows, ft2.num_switches)
        assert opt.cost <= dp.cost + 1e-9

    def test_single_flow_zero_rate(self, ft4):
        flows = FlowSet(
            sources=[int(ft4.hosts[0])], destinations=[int(ft4.hosts[1])], rates=[0.0]
        )
        result = dp_placement(ft4, flows, 3)
        assert result.cost == 0.0


# -- runtime fault injection --------------------------------------------------

#: ≤30 % of tasks get a fault: crashes, slow-downs, injected timeouts and
#: hard worker kills, all drawn deterministically from the task content
CHAOS = ChaosConfig(
    seed=6,
    crash_rate=0.10,
    delay_rate=0.05,
    timeout_rate=0.05,
    kill_rate=0.10,
    delay_seconds=0.001,
)

_POLICY_FACTORIES = {"mpareto": MParetoPolicy, "stay": NoMigrationPolicy}


def _sweep_point(point):
    """Cheap but real sweep work: a DP placement on a tiny instance."""
    topology, num_vnfs, seed = point
    flows = place_vm_pairs(topology, 4, seed=seed)
    flows = flows.with_rates(FacebookTrafficModel().sample(4, rng=seed))
    result = dp_placement(topology, flows, num_vnfs)
    return (result.cost, result.placement.tolist())


def _day_fingerprint(rep):
    """Everything a replication computed, as comparable primitives."""
    return (
        rep.placement.tolist(),
        rep.flows.rates.tolist(),
        {
            name: [
                (r.hour, r.communication_cost, r.migration_cost, r.num_migrations)
                for r in day.records
            ]
            for name, day in rep.days.items()
        },
    )


class TestChaosBitIdentity:
    """Injected faults may change *when* work runs, never *what* it computes."""

    def _replications(self, ft4, workers, resilience=None):
        config = RunConfig(
            num_pairs=6,
            num_vnfs=3,
            mu=1.0,
            dynamics="redrawn",
            replications=4,
            seed=42,
        )
        return run_replications(
            ft4,
            FacebookTrafficModel(),
            config,
            _POLICY_FACTORIES,
            workers=workers,
            resilience=resilience,
        )

    def test_run_replications_identical_under_chaos(self, ft4):
        instrument.reset()
        clean_reps, clean_summaries = self._replications(ft4, workers=1)
        chaos_policy = ResilienceConfig(max_retries=4, backoff_base=0.0, chaos=CHAOS)
        instrument.reset()
        chaos_reps, chaos_summaries = self._replications(
            ft4, workers=2, resilience=chaos_policy
        )
        counters = instrument.counters()
        # chaos actually fired: retried errors/timeouts or a killed worker
        faults_seen = (
            counters.get("task_retries", 0)
            + counters.get("task_timeouts", 0)
            + counters.get("pool_restarts", 0)
        )
        assert faults_seen >= 1
        assert [_day_fingerprint(r) for r in chaos_reps] == [
            _day_fingerprint(r) for r in clean_reps
        ]
        for name in _POLICY_FACTORIES:
            for metric in clean_summaries[name]:
                assert (
                    chaos_summaries[name][metric].mean
                    == clean_summaries[name][metric].mean
                )
                assert (
                    chaos_summaries[name][metric].halfwidth
                    == clean_summaries[name][metric].halfwidth
                )

    def test_map_points_identical_under_chaos(self, ft4):
        from repro.experiments.common import map_points

        points = [(ft4, n, seed) for n in (2, 3) for seed in range(5)]
        clean = map_points(_sweep_point, points)
        chaos_policy = ResilienceConfig(max_retries=4, backoff_base=0.0, chaos=CHAOS)
        instrument.reset()
        chaotic = map_points(_sweep_point, points, workers=2, resilience=chaos_policy)
        counters = instrument.counters()
        faults_seen = (
            counters.get("task_retries", 0)
            + counters.get("task_timeouts", 0)
            + counters.get("pool_restarts", 0)
        )
        assert faults_seen >= 1
        assert chaotic == clean


class TestCliResumeByteIdentity:
    """A run killed mid-experiment, resumed with ``--resume``, must emit the
    same ``--json`` payload as an uninterrupted run.

    The comparison strips ``params["runtime"]`` first: that block is the
    observability report (wall-clock phase timings, speedup, how many
    tasks were resumed from the journal) and is *intentionally* volatile
    across runs.  Everything scientific — rows, notes, every other param —
    must match byte-for-byte after JSON re-serialization.
    """

    @staticmethod
    def _run_cli(argv) -> int:
        import io

        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    @staticmethod
    def _payload_bytes(path):
        data = json.loads(path.read_text())
        data["params"].pop("runtime")
        return json.dumps(data, sort_keys=True).encode()

    def test_killed_then_resumed_run_matches_uninterrupted(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        reference = tmp_path / "reference.json"
        resumed = tmp_path / "resumed.json"

        code, _ = self._run_cli(
            ["run", "fig07_top1", "--scale", "smoke", "--json", str(reference)]
        )
        assert code == 0

        # a full journalled run, then simulate a kill mid-append: keep the
        # first few records and leave a partial trailing line
        code, _ = self._run_cli(
            [
                "run",
                "fig07_top1",
                "--scale",
                "smoke",
                "--json",
                str(tmp_path / "scratch.json"),
                "--resume",
                str(journal),
            ]
        )
        assert code == 0
        lines = journal.read_text().splitlines(keepends=True)
        assert len(lines) >= 2
        journal.write_text("".join(lines[:-1]) + '{"fp": "killed-mid')

        code, output = self._run_cli(
            [
                "run",
                "fig07_top1",
                "--scale",
                "smoke",
                "--json",
                str(resumed),
                "--resume",
                str(journal),
            ]
        )
        assert code == 0
        assert "resuming from" in output
        assert self._payload_bytes(resumed) == self._payload_bytes(reference)

    def test_resume_reruns_nothing_on_second_pass(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        args = [
            "run",
            "fig07_top1",
            "--scale",
            "smoke",
            "--json",
            str(tmp_path / "out.json"),
            "--resume",
            str(journal),
        ]
        self._run_cli(args)
        size_after_first = journal.stat().st_size
        code, _ = self._run_cli(args + ["--profile"])
        assert code == 0
        # fully journalled: the second pass appends nothing new
        assert journal.stat().st_size == size_after_first
        report = json.loads((tmp_path / "out.json").read_text())["params"]["runtime"]
        assert report["resilience"]["resumed"] >= 1
