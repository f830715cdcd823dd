"""The bounded-scan + insertion-repair path of the stroll engine.

A closure dominated by one very cheap triangle makes every e-edge optimum
orbit the triangle without collecting fresh nodes — the failure mode the
pseudocode's no-backtrack rule only "partially" fixes (Example 3).  The
engine must detect the stall within its scan window and repair by
inserting the cheapest missing nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stroll import StrollEngine, dp_stroll
from repro.errors import InfeasibleError, SolverError
from repro.graphs.metric_closure import satisfies_triangle_inequality
from repro.graphs.paths import closure_walk_cost, count_distinct_intermediates
from tests.core.stroll_oracles import loop_repair_walk


def cheap_triangle_closure(m: int = 9) -> np.ndarray:
    """A metric where nodes 1 and 2 form a near-free triangle with node 0."""
    base = np.full((m, m), 10.0)
    np.fill_diagonal(base, 0.0)
    for a in (0, 1, 2):
        for b in (0, 1, 2):
            if a != b:
                base[a, b] = 0.1
    # repair metric consistency (shortest-path closure of the raw costs)
    for k in range(m):
        base = np.minimum(base, base[:, k][:, None] + base[k, :][None, :])
    assert satisfies_triangle_inequality(base)
    return base


class TestRepairPath:
    def test_solve_terminates_and_is_feasible(self):
        closure = cheap_triangle_closure()
        result = dp_stroll(closure, 0, 8, 4)
        assert count_distinct_intermediates(result.walk, [0, 8]) >= 4
        assert closure_walk_cost(closure, result.walk) == pytest.approx(result.cost)

    def test_repair_flag_set_when_scan_fails(self):
        closure = cheap_triangle_closure()
        engine = StrollEngine(closure, target=8)
        engine.scan_slack = 0  # force immediate repair
        result = engine.solve(0, 4)
        assert result.extra.get("repaired") is True
        assert count_distinct_intermediates(result.walk, [0, 8]) >= 4

    def test_repair_cost_not_absurd(self):
        """Insertion repair should stay within a small factor of the direct
        visit-everything walk."""
        closure = cheap_triangle_closure()
        engine = StrollEngine(closure, target=8)
        engine.scan_slack = 0
        result = engine.solve(0, 4)
        # a trivial feasible walk: 0 -> four fresh nodes -> 8 (5 x 10)
        assert result.cost <= 5 * 10.0 + 1e-9

    def test_repair_infeasible_when_no_candidates(self):
        closure = cheap_triangle_closure(5)
        engine = StrollEngine(closure, target=4)
        engine.scan_slack = 0
        with pytest.raises(InfeasibleError):
            # needs 4 distinct among only 3 non-endpoint nodes
            engine.solve(0, 4)

    def test_batch_solve_covers_repaired_sources(self):
        closure = cheap_triangle_closure()
        engine = StrollEngine(closure, target=8)
        engine.scan_slack = 1
        costs, edges = engine.batch_solve(4)
        assert np.isfinite(costs[:8]).all()
        assert (edges[:8] > 0).all()


def _repairs(engine: StrollEngine, walk, n: int):
    """``(kind, value)`` of both repairs: the nodes, or the error type."""
    outcomes = []
    for repair in (engine._repair_walk, lambda w, k: loop_repair_walk(engine, w, k)):
        try:
            outcomes.append(("nodes", repair(np.asarray(walk, dtype=np.int64), n).tolist()))
        except (InfeasibleError, SolverError) as exc:
            outcomes.append(("error", type(exc).__name__))
    return outcomes


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestVectorizedRepairMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 12),
        walk_len=st.integers(2, 6),
        n=st.integers(1, 6),
        ties=st.booleans(),
        holes=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_random_walks(self, seed, m, walk_len, n, ties, holes):
        """Any walk, inf hops included: inf - inf detours are NaN."""
        rng = np.random.default_rng(seed)
        if ties:
            closure = rng.integers(0, 3, size=(m, m)).astype(np.float64)
        else:
            closure = rng.uniform(0.0, 5.0, size=(m, m))
        closure[rng.random((m, m)) < holes] = np.inf
        np.fill_diagonal(closure, 0.0)
        target = int(rng.integers(m))
        walk = rng.integers(m, size=walk_len)
        walk[-1] = target
        engine = StrollEngine(closure, target)
        vectorized, loop = _repairs(engine, walk, n)
        assert vectorized == loop

    def test_engine_fallback_walks(self):
        closure = cheap_triangle_closure()
        for target in range(9):
            engine = StrollEngine(closure, target)
            for source in range(9):
                if source == target:
                    continue
                walk = engine.walk_at(source, 5)
                vectorized, loop = _repairs(engine, walk, 4)
                assert vectorized == loop


class TestRepairInfNanTies:
    """Pinned tie semantics of the insertion repair on disconnected closures."""

    @staticmethod
    def two_islands() -> np.ndarray:
        """Nodes 0-4 and 5-7 are unit-weight cliques with no edge between."""
        closure = np.full((8, 8), np.inf)
        closure[:5, :5] = 1.0
        closure[5:, 5:] = 1.0
        np.fill_diagonal(closure, 0.0)
        return closure

    def test_other_island_is_never_inserted(self):
        """Detours into the other island are inf and never eligible; every
        reachable candidate prices 1, so each delta tie goes to the lowest
        candidate (2, then 3) at the lowest position."""
        engine = StrollEngine(self.two_islands(), target=4)
        repaired = engine._repair_walk(np.asarray([0, 1, 4]), 3)
        assert repaired.tolist() == [0, 3, 2, 1, 4]
        assert repaired.tolist() == loop_repair_walk(engine, np.asarray([0, 1, 4]), 3).tolist()

    def test_only_unreachable_candidates_raise(self):
        engine = StrollEngine(self.two_islands(), target=4)
        with pytest.raises(SolverError, match="no insertable node"):
            engine._repair_walk(np.asarray([0, 1, 2, 3, 4]), 4)
        with pytest.raises(SolverError, match="no insertable node"):
            loop_repair_walk(engine, np.asarray([0, 1, 2, 3, 4]), 4)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_detour_skips_candidate_and_minus_inf_wins(self):
        """Across an inf hop ``a -> b`` a candidate reachable from ``a``
        prices ``-inf`` and wins; one unreachable from ``a`` prices
        ``inf - inf = NaN`` at that position, its argmin lands on the NaN
        and it is skipped even though a later position is finite."""
        closure = self.two_islands()
        closure[0, 5] = closure[5, 0] = np.inf  # walk 0 -> 5 crosses islands
        engine = StrollEngine(closure, target=6)
        walk = np.asarray([0, 5, 6])
        # every candidate prices NaN at position 0; candidate 7 prices a
        # finite 1 at position 1 but is skipped all the same
        with pytest.raises(SolverError, match="no insertable node"):
            engine._repair_walk(walk, 2)
        with pytest.raises(SolverError, match="no insertable node"):
            loop_repair_walk(engine, walk, 2)
        closure[3, 5] = closure[5, 3] = 1.0  # a bridge through candidate 3
        engine = StrollEngine(closure, target=6)
        repaired = engine._repair_walk(walk, 2)
        assert repaired.tolist() == [0, 3, 5, 6]  # delta 1 + 1 - inf = -inf
        assert repaired.tolist() == loop_repair_walk(engine, walk, 2).tolist()
