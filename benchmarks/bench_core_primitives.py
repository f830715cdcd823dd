"""Micro-benchmarks of the hot computational primitives.

Unlike the figure benchmarks (which run an experiment once and attach its
table), these use pytest-benchmark's statistical timing on the kernels
the profiling in DESIGN.md §7 identified as hot: the all-pairs
shortest-path computation, the vectorized stroll DP (one target, and the
whole target-blocked stroll matrix), the full Algorithm 3 placement, the
mPareto migration and the min-cost-flow solver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.migration import mpareto_migration
from repro.core.placement import dp_placement
from repro.core.stroll import StrollEngine, stroll_matrix
from repro.flow.mincostflow import solve_transportation
from repro.graphs.metric_closure import metric_closure
from repro.topology.fattree import fat_tree
from repro.workload.flows import place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel


@pytest.fixture(scope="module")
def k8():
    return fat_tree(8)


@pytest.fixture(scope="module")
def workload(k8):
    flows = place_vm_pairs(k8, 64, seed=1)
    return flows.with_rates(FacebookTrafficModel().sample(64, rng=1))


def test_apsp_k8(benchmark):
    def compute():
        topo = fat_tree(8)  # fresh instance: defeat the cache
        return topo.graph.distances

    dist = benchmark(compute)
    assert dist.shape == (208, 208)


def test_stroll_engine_batch_k8(benchmark, k8):
    closure = metric_closure(k8.graph, k8.switches)

    def solve():
        engine = StrollEngine(closure, target=0)
        return engine.batch_solve(5)

    costs, _ = benchmark(solve)
    assert np.isfinite(costs[1:]).all()


def test_stroll_matrix_k8_n5(benchmark, k8):
    """Algorithm 3's whole (ingress, egress) stroll matrix for n=5 (3 interior)."""
    closure = metric_closure(k8.graph, k8.switches)
    costs, edges = benchmark(stroll_matrix, closure, 3, max_edges=3 + 1 + 16)
    off_diagonal = ~np.eye(closure.shape[0], dtype=bool)
    assert np.isfinite(costs[off_diagonal]).all() and (edges[off_diagonal] >= 4).all()


def test_dp_placement_k8_n7(benchmark, k8, workload):
    result = benchmark(dp_placement, k8, workload, 7)
    assert result.num_vnfs == 7


def test_mpareto_k8(benchmark, k8, workload):
    source = dp_placement(k8, workload, 5).placement
    changed = workload.with_rates(FacebookTrafficModel().sample(64, rng=2))
    result = benchmark(mpareto_migration, k8, changed, source, 1e3)
    assert result.cost > 0


def test_min_cost_flow_transportation(benchmark):
    rng = np.random.default_rng(0)
    cost = rng.uniform(1, 10, size=(60, 40))
    supply = np.ones(60, dtype=np.int64)
    capacity = np.full(40, 3, dtype=np.int64)
    assignment, total = benchmark(solve_transportation, cost, supply, capacity)
    assert assignment.sum() == 60
