"""Benchmark: the executable reproduction scorecard + perf trajectory.

Two entry points:

* under pytest-benchmark (``pytest benchmarks/bench_scorecard.py``) the
  scorecard *experiment* runs once and every verdict must be PASS;
* as a standalone script (``python benchmarks/bench_scorecard.py``) the
  four tier-1 performance shapes are timed and written to a JSON
  scorecard (by default ``reports/BENCH_scorecard_fresh.json``).  The
  committed ``reports/BENCH_scorecard.json`` is the repo's
  perf-trajectory anchor: CI writes a fresh smoke scorecard and diffs it
  against the anchor, and the anchor is rewritten only by naming it:

  1. **fig11 session path** — one classic simulated day (Algorithm 5
     every hour through the pooled solver-session machinery);
  2. **fig12 fault loop** — the same day shape under a seeded fault
     process (degrade, evacuate, re-optimize);
  3. **serve rps** — the hardened placement service driven by the
     seeded churn workload;
  4. **replication sweep** — ``tom-replication`` days over ρ, with the
     migrate-vs-replicate lattice priced every hour.

Usage::

    python benchmarks/bench_scorecard.py            # full shapes, fresh JSON
    python benchmarks/bench_scorecard.py --smoke    # CI-sized, fresh JSON
    python benchmarks/bench_scorecard.py --json reports/BENCH_scorecard.json  # the anchor
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import time

import numpy as np

from repro.core.placement import dp_placement
from repro.faults import FaultConfig, FaultProcess
from repro.runtime.cache import ComputeCache, set_compute_cache
from repro.sim.engine import simulate_day
from repro.sim.policies import MParetoPolicy, TomReplicationPolicy
from repro.topology.fattree import fat_tree
from repro.utils.results_io import write_text_atomic
from repro.workload.diurnal import DiurnalModel
from repro.workload.dynamics import RedrawnRates
from repro.workload.flows import place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel


def test_scorecard(run_experiment):
    result = run_experiment("scorecard")
    verdicts = [row["verdict"] for row in result.rows]
    assert verdicts and all(v == "PASS" for v in verdicts)


def _scenario(k, num_pairs, horizon, seed, *, faulty=False, switch_rate=0.05):
    topology = fat_tree(k)
    model = FacebookTrafficModel()
    flows = place_vm_pairs(topology, num_pairs, seed=seed)
    flows = flows.with_rates(model.sample(num_pairs, rng=seed))
    rates = RedrawnRates(
        flows, DiurnalModel(num_hours=horizon), np.zeros(flows.num_flows),
        model, seed=seed,
    )
    faults = None
    if faulty:
        faults = FaultProcess(
            topology,
            FaultConfig(switch_rate=switch_rate, mean_repair_hours=4.0),
            seed=seed,
            horizon=horizon,
        )
    return topology, flows, rates, faults


def _timed_day(topology, flows, rates, faults, policy, n, horizon):
    previous = set_compute_cache(ComputeCache())
    try:
        placement = dp_placement(topology, flows, n).placement
        start = time.perf_counter()
        day = simulate_day(
            topology, flows, policy, rates, placement,
            range(1, horizon + 1), faults=faults,
        )
        elapsed = time.perf_counter() - start
    finally:
        set_compute_cache(previous)
    return elapsed, day


def _shape_fig11(k, num_pairs, n, horizon, seed) -> dict:
    topology, flows, rates, _ = _scenario(k, num_pairs, horizon, seed)
    elapsed, day = _timed_day(
        topology, flows, rates, None, MParetoPolicy(topology, mu=1e2),
        n, horizon,
    )
    return {
        "seconds": elapsed,
        "hours_per_second": horizon / elapsed if elapsed else 0.0,
        "total_cost": day.total_cost,
        "migrations": day.total_migrations,
    }


def _shape_fig12(k, num_pairs, n, horizon, seed) -> dict:
    topology, flows, rates, faults = _scenario(
        k, num_pairs, horizon, seed, faulty=True
    )
    elapsed, day = _timed_day(
        topology, flows, rates, faults, MParetoPolicy(topology, mu=1e2),
        n, horizon,
    )
    return {
        "seconds": elapsed,
        "hours_per_second": horizon / elapsed if elapsed else 0.0,
        "total_cost": day.total_cost,
        "repairs": day.total_repairs,
        "dropped_traffic": day.total_dropped_traffic,
    }


def _shape_serve(requests, concurrency) -> dict:
    from repro.serve import ChurnConfig, PlacementService, ServeConfig, run_churn

    async def run() -> dict:
        async with PlacementService(ServeConfig(max_concurrency=4)) as service:
            return await run_churn(
                service,
                ChurnConfig(
                    k=4, num_pairs=8, sfc_size=2,
                    requests=requests, concurrency=concurrency, seed=11,
                ),
            )

    summary = asyncio.run(run())
    return {
        "requests": summary["requests"],
        "completed": summary["completed"],
        "rps": summary["rps"],
        "p95_seconds": summary["latency"]["p95"],
        "shed": summary["shed_total"],
    }


def _shape_replication(k, num_pairs, n, horizon, seed, rhos) -> dict:
    topology, flows, rates, _ = _scenario(k, num_pairs, horizon, seed)
    base_elapsed, base_day = _timed_day(
        topology, flows, rates, None, MParetoPolicy(topology, mu=1e2),
        n, horizon,
    )
    points = []
    for rho in rhos:
        elapsed, day = _timed_day(
            topology, flows, rates, None,
            TomReplicationPolicy(
                topology, mu=1e2, rho=rho, sync_fraction=1e-3, max_replicas=2
            ),
            n, horizon,
        )
        points.append(
            {
                "rho": rho,
                "seconds": elapsed,
                "hours_per_second": horizon / elapsed if elapsed else 0.0,
                "total_cost": day.total_cost,
                "replications": day.total_replications,
                "cost_vs_baseline": day.total_cost - base_day.total_cost,
            }
        )
    return {
        "baseline_seconds": base_elapsed,
        "baseline_total_cost": base_day.total_cost,
        "points": points,
    }


def bench(smoke: bool, json_path: str | None) -> int:
    k = 4 if smoke else 6
    pairs = 8 if smoke else 24
    n = 2 if smoke else 3
    horizon = 6 if smoke else 12
    requests = 40 if smoke else 150
    rhos = (0.1, 0.5) if smoke else (0.1, 0.3, 0.5, 0.9)

    shapes = {}
    print(f"scorecard shapes: fat-tree(k={k}), l={pairs}, n={n}, {horizon}h")
    shapes["fig11_session_day"] = _shape_fig11(k, pairs, n, horizon, seed=17)
    print(
        f"fig11 session day : {shapes['fig11_session_day']['seconds']:7.3f}s "
        f"({shapes['fig11_session_day']['hours_per_second']:.1f} hours/s)"
    )
    shapes["fig12_fault_loop"] = _shape_fig12(k, pairs, n, horizon, seed=17)
    print(
        f"fig12 fault loop  : {shapes['fig12_fault_loop']['seconds']:7.3f}s "
        f"({shapes['fig12_fault_loop']['hours_per_second']:.1f} hours/s, "
        f"{shapes['fig12_fault_loop']['repairs']} repairs)"
    )
    shapes["serve_churn"] = _shape_serve(requests, concurrency=8)
    print(
        f"serve churn       : {shapes['serve_churn']['rps']:7.0f} rps "
        f"({shapes['serve_churn']['completed']}/{shapes['serve_churn']['requests']} "
        f"served, p95 {1000 * shapes['serve_churn']['p95_seconds']:.1f}ms)"
    )
    # seed scanned so the lattice actually replicates at full scale and
    # the sweep's cost column carries signal, not a row of zeros
    shapes["replication_sweep"] = _shape_replication(
        k, pairs, n, horizon, seed=14, rhos=rhos
    )
    for point in shapes["replication_sweep"]["points"]:
        print(
            f"replication rho={point['rho']:<4} : {point['seconds']:7.3f}s "
            f"({point['replications']} replications, "
            f"cost {point['cost_vs_baseline']:+.0f} vs plain TOM)"
        )

    report = {
        "workload": {
            "k": k, "num_pairs": pairs, "num_vnfs": n, "horizon": horizon,
            "serve_requests": requests, "rhos": list(rhos), "smoke": smoke,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "shapes": shapes,
    }
    if json_path:
        write_text_atomic(json_path, json.dumps(report, indent=2, sort_keys=True))
        print(f"report written to {json_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    # never the committed anchor: rewriting it takes naming it
    parser.add_argument("--json", default="reports/BENCH_scorecard_fresh.json")
    args = parser.parse_args(argv)
    return bench(args.smoke, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
