"""The target-block stroll kernel against a one-pair-at-a-time oracle.

:func:`stroll_matrix` grows the DP layers for a block of targets per
min-plus step, scans every pending (target, source) pair of the block
together and computes a scanned layer only for its pending rows when few
remain.  None of that may change a single byte of ``costs``/``edges``:
the oracle solves each pair with a scalar walk and the loop repair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stroll
from repro.core.stroll import StrollEngine, stroll_matrix
from repro.graphs.metric_closure import metric_closure
from repro.topology.fattree import fat_tree
from tests.core.stroll_oracles import per_target_matrix
from tests.core.test_stroll_repair import cheap_triangle_closure


def _closure(rng: np.random.Generator, m: int, components: int, float_weights: bool):
    """Shortest-path closure of a random graph, split into components."""
    if float_weights:
        raw = rng.uniform(0.5, 4.0, size=(m, m))
    else:
        raw = rng.integers(1, 4, size=(m, m)).astype(np.float64)  # many ties
    raw = np.minimum(raw, raw.T)
    keep = rng.random((m, m)) < 0.6
    raw[~(keep | keep.T)] = np.inf
    label = np.arange(m) % components
    raw[label[:, None] != label[None, :]] = np.inf  # a disconnected view
    for i in range(m - 1):  # a path inside each component keeps it connected
        j = i + components
        if j < m:
            raw[i, j] = raw[j, i] = min(raw[i, j], 2.0)
    np.fill_diagonal(raw, 0.0)
    for k in range(m):
        raw = np.minimum(raw, raw[:, k][:, None] + raw[k, :][None, :])
    return raw


def _assert_same(closure, n, mode, max_edges, slack, block_targets):
    m = closure.shape[0]
    saved = (StrollEngine.scan_slack, stroll._BLOCK_ELEMENTS)
    try:
        StrollEngine.scan_slack = slack
        if block_targets is not None:
            stroll._BLOCK_ELEMENTS = block_targets * m * m
        costs, edges = stroll_matrix(closure, n, mode=mode, max_edges=max_edges)
        want_costs, want_edges = per_target_matrix(closure, n, mode, max_edges)
    finally:
        StrollEngine.scan_slack, stroll._BLOCK_ELEMENTS = saved
    assert costs.tobytes() == want_costs.tobytes()
    assert edges.tobytes() == want_edges.tobytes()
    for target in range(m):  # the one-target case is the same kernel
        engine = StrollEngine(closure, target, mode=mode, max_edges=max_edges)
        engine.scan_slack = slack
        one_costs, one_edges = engine.batch_solve(n)
        assert one_costs.tobytes() == want_costs[:, target].tobytes()
        assert one_edges.tobytes() == want_edges[:, target].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 11),
    components=st.sampled_from([1, 1, 2, 3]),
    float_weights=st.booleans(),
    subset=st.booleans(),
    n=st.integers(1, 5),
    mode=st.sampled_from(["second-best", "paper"]),
    slack=st.sampled_from([0, 1, 6]),
    extra=st.sampled_from([None, 1, 16]),
    block_targets=st.sampled_from([None, 1, 2, 3]),
)
def test_block_kernel_matches_per_pair_oracle(
    seed, m, components, float_weights, subset, n, mode, slack, extra, block_targets
):
    rng = np.random.default_rng(seed)
    closure = _closure(rng, m + 3 if subset else m, components, float_weights)
    if subset:  # a candidate set: the closure restricted to some nodes
        keep = np.sort(rng.choice(closure.shape[0], size=m, replace=False))
        closure = np.ascontiguousarray(closure[np.ix_(keep, keep)])
    max_edges = None if extra is None else n + 1 + extra
    _assert_same(closure, n, mode, max_edges, slack, block_targets)


@pytest.mark.parametrize("mode", ["second-best", "paper"])
@pytest.mark.parametrize("block_targets", [1, 7, None])
def test_fat_tree_candidate_sets(mode, block_targets):
    """Unit-weight fabric ties, a ragged last block (20 = 7 + 7 + 6) and a
    candidate subset like the ones multi-SFC placement hands in."""
    topo = fat_tree(4)
    sw = topo.switches
    for cand in (sw, sw[::2]):
        closure = metric_closure(topo.graph, cand)
        _assert_same(closure, 3, mode, 3 + 17, 6, block_targets)


def test_repair_stragglers_in_a_block():
    """A cheap triangle forces stragglers through the repair path."""
    closure = cheap_triangle_closure(9)
    for slack in (0, 1, 6):
        _assert_same(closure, 4, "second-best", None, slack, 2)


def test_block_size_budget():
    """~2 MB per (T, m, m) array: 40 targets at m=80, 2 at m=320."""
    assert stroll._BLOCK_ELEMENTS // (80 * 80) == 40
    assert stroll._BLOCK_ELEMENTS // (320 * 320) == 2
    assert stroll._BLOCK_ELEMENTS * 8 <= 2 * 2**20
