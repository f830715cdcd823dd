"""Algorithm 2: the DP for the n-stroll problem (TOP-1).

Finding a shortest ``s``-``t`` stroll visiting ``n`` distinct nodes is
NP-hard, but a shortest ``s``-``t`` stroll with exactly ``e`` *edges* is a
min-plus DP.  Algorithm 2 therefore runs the e-edge DP on the *metric
closure* ``G''`` (complete graph of shortest-path costs), starting at
``e = n + 1`` and growing ``e`` until the reconstructed walk visits at
least ``n`` distinct intermediate nodes.  Two rules matter:

* the DP runs on the closure, not the raw graph — Example 2 of the paper
  shows the raw graph gives suboptimal walks;
* an immediate backtrack ``a → b → a`` is forbidden (line 6 of the
  pseudocode) — it burns two closure edges without discovering a new node
  (Example 3), and by the triangle inequality removing one never hurts.

**Backtrack modes.**  The paper's pseudocode memoizes a *single*
successor per ``(node, e)`` state and rejects an extension ``u → w``
whenever that stored successor of ``w`` is ``u``.  With cost ties (unit
weight fabrics are full of them) this can discard ``w`` even though an
equally cheap continuation avoiding ``u`` exists, and the DP then misses
optimal strolls.  The classic fix is to memoize the best *two*
successors and fall back to the second when the first would backtrack —
this computes exactly the minimum-cost no-immediate-backtrack e-edge
stroll, which is what the exclusion rule intends.  The engine supports
both: ``mode="second-best"`` (default, the strengthened DP) and
``mode="paper"`` (bit-faithful to the pseudocode; used in ablations and
verified against :func:`dp_stroll_reference`).

:func:`dp_stroll_reference` transliterates the pseudocode with explicit
loops; :class:`StrollEngine` vectorizes each DP layer as a masked
min-plus matrix step and exposes batch solving toward a fixed target so
Algorithm 3 can amortize one DP run across every candidate ingress.
:func:`stroll_matrix` runs that DP toward a block of targets per step,
which is how Algorithm 3 prices every (ingress, egress) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InfeasibleError, SolverError

__all__ = [
    "StrollResult", "StrollEngine", "stroll_matrix", "dp_stroll", "dp_stroll_reference",
]

_MODES = ("second-best", "paper")


@dataclass(frozen=True)
class StrollResult:
    """An ``s``-``t`` stroll visiting at least ``n`` distinct intermediates.

    Attributes
    ----------
    walk:
        Node sequence in closure-index space, from ``s`` to ``t``
        inclusive; every hop is a closure edge.
    cost:
        Walk cost under the closure matrix the solver was given.
    distinct:
        The first ``n`` distinct intermediate nodes in visit order —
        exactly where Algorithm 2 installs ``f_1 … f_n``.
    num_edges:
        ``len(walk) - 1`` (the final ``r`` of the pseudocode).
    """

    walk: np.ndarray
    cost: float
    distinct: np.ndarray
    num_edges: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("walk", "distinct"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _collect_distinct(walk: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` distinct intermediates of a walk, in first-visit order.

    Endpoints (``walk[0]`` and ``walk[-1]``) never count, even when the
    walk revisits them mid-way.
    """
    source, target = int(walk[0]), int(walk[-1])
    seen: list[int] = []
    seen_set = {source, target}
    for node in walk[1:-1]:
        node = int(node)
        if node not in seen_set:
            seen.append(node)
            seen_set.add(node)
            if len(seen) == n:
                break
    return np.asarray(seen, dtype=np.int64)


def count_needed(nodes: list[int], endpoints: set[int]) -> int:
    """Distinct non-endpoint nodes in a walk (the stroll feasibility count)."""
    return len({v for v in nodes if v not in endpoints})


def _check_inputs(closure: np.ndarray, source: int, target: int, n: int) -> np.ndarray:
    closure = np.asarray(closure, dtype=np.float64)
    if closure.ndim != 2 or closure.shape[0] != closure.shape[1]:
        raise SolverError(f"closure must be square, got shape {closure.shape}")
    m = closure.shape[0]
    if not (0 <= source < m and 0 <= target < m):
        raise SolverError(f"endpoints ({source}, {target}) out of range for {m} nodes")
    if n < 1:
        raise SolverError(f"n must be >= 1, got {n}")
    available = m - len({source, target})
    if available < n:
        raise InfeasibleError(
            f"need {n} distinct intermediates but only {available} candidate nodes exist"
        )
    return closure


def _check_closure(closure: np.ndarray, mode: str) -> np.ndarray:
    closure = np.asarray(closure, dtype=np.float64)
    if closure.ndim != 2 or closure.shape[0] != closure.shape[1]:
        raise SolverError(f"closure must be square, got shape {closure.shape}")
    if mode not in _MODES:
        raise SolverError(f"mode must be one of {_MODES}, got {mode!r}")
    return closure


def _edge_guard(m: int, max_edges: int | None) -> int:
    # a walk can always reach n distinct nodes within n + m edges; the
    # default guard is generous so hitting it indicates a logic error.
    return max_edges if max_edges is not None else 2 * m + 64


#: elements per ``(T, m, m)`` array a target block may allocate (~2 MB of
#: float64): 40 targets per block at m=80, 2 at m=320
_BLOCK_ELEMENTS = 1 << 18
#: a scanned layer is computed only for its pending pairs while they are at
#: most 1/_PARTIAL_SHARE of the block's pairs
_PARTIAL_SHARE = 4


class _TargetBlock:
    """The e-edge stroll DP toward a block of ``T`` targets at once.

    Layer ``e`` (list index ``e - 1``) holds ``(T, m)`` arrays: row ``i``
    is the best and second-best first step of an exactly-``e``-edge
    ``u → targets[i]`` stroll for every ``u``.  Each layer is one masked
    ``(T, m, m)`` min-plus step, and :meth:`scan` runs the successor-chain
    walk and the distinct-interior count over every pending
    ``(target, source)`` pair of the block together.  Rows never interact,
    so row ``i`` is bit-identical to a one-target block of ``targets[i]``.
    """

    def __init__(self, closure: np.ndarray, targets: np.ndarray, mode: str) -> None:
        self.closure = closure
        self.targets = np.asarray(targets, dtype=np.int64)
        self.mode = mode
        num, m = self.targets.size, closure.shape[0]
        rows = np.arange(num)
        cost1 = np.ascontiguousarray(closure[:, self.targets].T)
        cost1[rows, self.targets] = np.inf  # a 1-edge stroll t -> t is a self-loop
        succ1 = np.repeat(self.targets[:, None], m, axis=1)
        succ1[rows, self.targets] = -1
        self.cost1: list[np.ndarray] = [cost1]
        self.succ1: list[np.ndarray] = [succ1]
        self.cost2: list[np.ndarray] = [np.full((num, m), np.inf)]
        self.succ2: list[np.ndarray] = [np.full((num, m), -1, dtype=np.int64)]

    def row(self, i: int) -> _TargetBlock:
        """Target ``i`` alone, sharing the layers grown so far (as views)."""
        block = _TargetBlock(self.closure, self.targets[i : i + 1], self.mode)
        for name in ("cost1", "succ1", "cost2", "succ2"):
            setattr(block, name, [layer[i : i + 1] for layer in getattr(self, name)])
        return block

    def _relax(
        self, step: np.ndarray, blk: np.ndarray, src: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The next layer's ``(cost1, succ1, cost2, succ2)`` for pairs ``r``.

        Row ``r`` of ``step`` belongs to the pair ``(blk[r], src[r])`` and
        holds ``closure[src[r], w] + cost1[-1][blk[r], w]`` on entry: the
        cost of stepping ``src[r] -> w`` and continuing optimally toward
        ``targets[blk[r]]``.  ``step`` is overwritten.
        """
        closure = self.closure
        prev_c1, prev_s1, prev_c2 = self.cost1[-1], self.succ1[-1], self.cost2[-1]
        rows = np.arange(src.size)
        # a continuation from w whose stored first step returns to the row's
        # source is an immediate backtrack
        index = np.full(prev_c1.shape, -1, dtype=np.int64)
        index[blk, src] = rows
        wb, cols = np.nonzero(np.isfinite(prev_c1))
        back = prev_s1[wb, cols]
        hit = index[wb, back]
        keep = hit >= 0
        wb, cols, back, hit = wb[keep], cols[keep], back[keep], hit[keep]
        if self.mode == "paper":
            # pseudocode: reject w outright when its stored successor is u
            step[hit, cols] = np.inf
        else:
            # strengthened DP: fall back to w's second-best continuation
            step[hit, cols] = closure[back, cols] + prev_c2[wb, cols]
        step[rows, self.targets[blk]] = np.inf  # target is never an intermediate
        step[rows, src] = np.inf  # no self-steps

        # argmin lands on a row's first minimum, or on its first NaN, so the
        # value it points at is exactly the row's min
        succ1 = step.argmin(axis=1)
        cost1 = step[rows, succ1]
        finite = np.isfinite(cost1)
        succ1[~finite] = -1
        # second-best first step (must differ from the best first step)
        step[rows[finite], succ1[finite]] = np.inf
        succ2 = step.argmin(axis=1)
        cost2 = step[rows, succ2]
        succ2[~np.isfinite(cost2)] = -1
        return cost1, succ1, cost2, succ2

    def grow(self) -> None:
        """Append the next layer for every target of the block."""
        num, m = self.cost1[-1].shape
        step = (self.closure[None, :, :] + self.cost1[-1][:, None, :]).reshape(num * m, m)
        blk = np.repeat(np.arange(num), m)
        src = np.tile(np.arange(m), num)
        layer = self._relax(step, blk, src)
        for stored, arr in zip((self.cost1, self.succ1, self.cost2, self.succ2), layer):
            stored.append(arr.reshape(num, m))

    def _top_rows(self, blk: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(cost1, succ1)`` of the next layer for the given pairs only."""
        step = self.closure[src] + self.cost1[-1][blk]
        return self._relax(step, blk, src)[:2]

    def walks(self, blk: np.ndarray, sources: np.ndarray, first: np.ndarray, e: int) -> np.ndarray:
        """The ``e``-edge walks of the ``(blk[j], sources[j])`` pairs, one per row.

        ``first`` is each walk's first step (layer ``e``'s best successor,
        which never backtracks); later steps follow the best stored
        successor, falling back to the second-best when the best would
        immediately backtrack.
        """
        walks = np.empty((sources.size, e + 1), dtype=np.int64)
        walks[:, 0] = sources
        walks[:, 1] = first
        prev, node = sources, first
        for step in range(2, e + 1):
            layer = e - step
            nxt = self.succ1[layer][blk, node]
            clash = nxt == prev
            if np.any(clash):
                nxt = np.where(clash, self.succ2[layer][blk, node], nxt)
            prev = node
            node = nxt
            walks[:, step] = node
        return walks

    def scan(self, n: int, scan_limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 2's outer loop for every (target, source) pair at once.

        Returns ``(costs, edges, pending)`` of shape ``(T, m)``: the cost
        and ``e`` of the first exactly-``e``-edge stroll (``e`` in
        ``n+1 .. scan_limit``) whose walk visits at least ``n`` distinct
        intermediates, and the mask of pairs no scanned layer finished.

        Layer ``e`` is grown for the whole block only when enough pairs
        are still pending; for a few (typically the last scanned layer,
        which most pairs never reach) just their rows are computed, and
        the full layer is grown only if the scan goes on past it.
        """
        shape = self.cost1[0].shape
        costs = np.full(shape, np.inf)
        edges = np.full(shape, -1, dtype=np.int64)
        pending = np.ones(shape, dtype=bool)
        e = n + 1
        while e <= scan_limit and np.any(pending):
            while len(self.cost1) < e - 1:
                self.grow()
            blk, src = np.nonzero(pending)
            if len(self.cost1) < e and src.size * _PARTIAL_SHARE <= pending.size:
                layer_cost, first = self._top_rows(blk, src)
            else:
                if len(self.cost1) < e:
                    self.grow()
                layer_cost = self.cost1[e - 1][blk, src]
                first = self.succ1[e - 1][blk, src]
            live = np.isfinite(layer_cost)
            if np.any(live):
                blk, src, layer_cost = blk[live], src[live], layer_cost[live]
                walks = self.walks(blk, src, first[live], e)
                # distinct intermediates, excluding each walk's own source
                # and its target
                interior = walks[:, 1:-1].copy()
                interior[interior == walks[:, :1]] = -1
                interior[interior == self.targets[blk][:, None]] = -1
                interior.sort(axis=1)
                fresh = interior[:, 1:] != interior[:, :-1]
                counts = fresh.sum(axis=1) + 1
                counts -= (interior[:, :1] == -1).ravel()  # drop the -1 bucket
                ok = counts >= n
                blk, src = blk[ok], src[ok]
                costs[blk, src] = layer_cost[ok]
                edges[blk, src] = e
                pending[blk, src] = False
            e += 1
        return costs, edges, pending


def stroll_matrix(
    closure: np.ndarray, n: int, mode: str = "second-best", max_edges: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`StrollEngine.batch_solve` toward every target of ``closure``.

    Returns ``(costs, edges)`` with ``costs[s, t]``/``edges[s, t]`` equal
    to ``StrollEngine(closure, t, mode, max_edges).batch_solve(n)[k][s]``
    byte for byte.  The targets are processed in blocks sized so each
    ``(T, m, m)`` layer step stays within ``_BLOCK_ELEMENTS``; pairs the
    scan window leaves unfinished go through :meth:`StrollEngine.solve`
    on the block's own layers.
    """
    closure = _check_closure(closure, mode)
    m = closure.shape[0]
    costs = np.full((m, m), np.inf)
    edges = np.full((m, m), -1, dtype=np.int64)
    scan_limit = min(n + 1 + StrollEngine.scan_slack, _edge_guard(m, max_edges))
    size = max(1, _BLOCK_ELEMENTS // max(m * m, 1))
    for first in range(0, m, size):
        targets = np.arange(first, min(first + size, m))
        block = _TargetBlock(closure, targets, mode)
        block_costs, block_edges, pending = block.scan(n, scan_limit)
        costs[:, targets] = block_costs.T
        edges[:, targets] = block_edges.T
        if np.any(pending):
            # the stragglers' repair scans every layer up to scan_limit
            while len(block.cost1) < scan_limit:
                block.grow()
        for i in np.flatnonzero(pending.any(axis=1)):
            target = int(targets[i])
            engine = StrollEngine(closure, target, mode=mode, max_edges=max_edges)
            engine._block = block.row(i)
            for source in np.flatnonzero(pending[i]):
                costs[source, target], edges[source, target] = engine._solve_or_skip(
                    int(source), n
                )
    return costs, edges


class StrollEngine:
    """Incremental e-edge stroll DP toward a fixed ``target``.

    For every layer ``e`` the engine stores, per node ``u``, the best and
    second-best first steps of an exactly-``e``-edge ``u → target``
    stroll (``cost1/succ1`` and ``cost2/succ2``; the two strolls differ
    in their first step).  Layers are grown on demand, so asking for
    results from many sources (Algorithm 3) shares all the DP work.  The
    layers are a one-target :class:`_TargetBlock`, the same kernel
    :func:`stroll_matrix` runs for a block of targets.
    """

    #: how many edge counts beyond ``n + 1`` the outer loop scans before
    #: falling back to insertion repair (see :meth:`solve`)
    scan_slack: int = 6

    def __init__(
        self,
        closure: np.ndarray,
        target: int,
        mode: str = "second-best",
        max_edges: int | None = None,
    ) -> None:
        closure = _check_closure(closure, mode)
        self.closure = closure
        self.m = closure.shape[0]
        if not (0 <= target < self.m):
            raise SolverError(f"target {target} out of range for {self.m} nodes")
        self.target = int(target)
        self.mode = mode
        self.max_edges = _edge_guard(self.m, max_edges)
        self._block = _TargetBlock(closure, np.asarray([self.target]), mode)

    @property
    def num_layers(self) -> int:
        """Largest ``e`` currently computed."""
        return len(self._block.cost1)

    def _grow_layer(self) -> None:
        self._block.grow()

    def ensure_layers(self, e: int) -> None:
        if e > self.max_edges:
            raise SolverError(
                f"stroll DP asked for {e} edges, beyond the max_edges={self.max_edges} guard"
            )
        while self.num_layers < e:
            self._grow_layer()

    def cost_at(self, source: int, e: int) -> float:
        """Min cost of an exactly-``e``-edge ``source → target`` stroll."""
        self.ensure_layers(e)
        return float(self._block.cost1[e - 1][0, source])

    def walk_at(self, source: int, e: int) -> np.ndarray:
        """Reconstruct the ``e``-edge stroll from ``source`` (inclusive).

        Steps follow the best stored successor, falling back to the
        second-best when the best would immediately backtrack (the cost
        layers were computed under exactly this rule, so the walk's cost
        matches :meth:`cost_at`).
        """
        self.ensure_layers(e)
        if not np.isfinite(self._block.cost1[e - 1][0, source]):
            raise InfeasibleError(
                f"no {e}-edge stroll from {source} to {self.target} exists"
            )
        walk = [int(source)]
        prev = -1
        node = int(source)
        for remaining in range(e, 0, -1):
            layer = remaining - 1
            nxt = int(self._block.succ1[layer][0, node])
            if nxt == prev:
                nxt = int(self._block.succ2[layer][0, node])
                if nxt < 0:
                    raise SolverError("stroll reconstruction hit a dead end")
            prev = node
            node = nxt
            walk.append(node)
        assert node == self.target, "stroll reconstruction must end at the target"
        return np.asarray(walk, dtype=np.int64)

    def batch_solve(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2's outer loop for *every* source at once.

        Returns ``(costs, edges)`` arrays over all sources: ``costs[s]`` is
        the cost of the first (smallest-``e``) exactly-``e``-edge stroll
        from ``s`` whose reconstruction visits at least ``n`` distinct
        intermediates, and ``edges[s]`` that ``e``.  Sources whose scan
        window never yields enough distinct nodes are finished by
        :meth:`solve` (insertion repair) and report the repaired cost.
        Successor chaining and the distinct-intermediate count are fully
        vectorized per layer.
        """
        scan_limit = min(n + 1 + self.scan_slack, self.max_edges)
        costs, edges, pending = (a[0] for a in self._block.scan(n, scan_limit))
        # stragglers: the per-source repair path (rare — cheap-cycle orbits)
        for source in np.flatnonzero(pending):
            costs[source], edges[source] = self._solve_or_skip(int(source), n)
        return costs, edges

    def _solve_or_skip(self, source: int, n: int) -> tuple[float, int]:
        """``(cost, num_edges)`` of :meth:`solve`, or ``(inf, -1)`` if none."""
        try:
            result = self.solve(source, n)
        except (InfeasibleError, SolverError):
            return np.inf, -1  # no stroll from this source
        return result.cost, result.num_edges

    def _repair_walk(self, walk: np.ndarray, n: int) -> np.ndarray:
        """Greedy insertion repair: add fresh nodes until ``n`` distinct.

        When the scanned layers never produce a walk with ``n`` distinct
        intermediates (the e-edge optimum keeps orbiting a cheap cycle —
        the failure mode the pseudocode's backtrack rule only "partially"
        fixes, cf. Example 3), the cheapest scanned walk is patched by
        repeatedly inserting the unvisited node with the smallest detour
        ``c(a, x) + c(x, b) − c(a, b)`` between some consecutive pair.
        Each insertion adds exactly one distinct node, so termination is
        immediate and the detour premium is bounded by the insertion costs.

        Each insertion prices every (candidate, position) pair as one
        matrix.  A candidate's best position is its row's first minimum,
        or its first NaN, which makes the candidate ineligible; among the
        candidates whose best is ``< inf`` the lowest delta wins, then the
        lowest candidate, then the lowest position.
        """
        closure = self.closure
        nodes = walk.astype(np.int64)
        endpoints = {int(nodes[0]), self.target}
        missing = n - count_needed(nodes.tolist(), endpoints)
        free = np.ones(self.m, dtype=bool)
        free[nodes] = False
        free[list(endpoints)] = False
        candidates = np.flatnonzero(free)
        if missing > candidates.size:
            raise InfeasibleError(
                f"cannot repair walk to {n} distinct nodes: only "
                f"{candidates.size} unvisited candidates remain"
            )
        # an inf - inf detour is NaN by design: that candidate is skipped
        with np.errstate(invalid="ignore"):
            for _ in range(missing):
                a, b = nodes[:-1], nodes[1:]
                deltas = (
                    closure[a[None, :], candidates[:, None]]
                    + closure[candidates[:, None], b[None, :]]
                    - closure[a, b][None, :]
                )
                pos = deltas.argmin(axis=1)
                best = deltas[np.arange(candidates.size), pos]
                eligible = best < np.inf
                if not np.any(eligible):
                    raise SolverError("repair found no insertable node")
                pick = int(np.argmin(np.where(eligible, best, np.inf)))
                nodes = np.insert(nodes, pos[pick] + 1, candidates[pick])
                candidates = np.delete(candidates, pick)
        return nodes

    def solve(self, source: int, n: int) -> StrollResult:
        """Algorithm 2's outer loop: grow ``e`` until ``n`` distinct nodes.

        The scan is bounded: if no layer in ``n+1 .. n+1+scan_slack``
        yields enough distinct intermediates (possible when a cheap cycle
        dominates every longer layer), the cheapest scanned walk is
        patched by :meth:`_repair_walk` instead of growing ``e`` forever.
        """
        _check_inputs(self.closure, source, self.target, n)
        fallback: np.ndarray | None = None
        fallback_cost = np.inf
        for e in range(n + 1, min(n + 1 + self.scan_slack, self.max_edges) + 1):
            self.ensure_layers(e)
            if not np.isfinite(self._block.cost1[e - 1][0, source]):
                continue
            walk = self.walk_at(source, e)
            distinct = _collect_distinct(walk, n)
            if distinct.size >= n:
                return StrollResult(
                    walk=walk,
                    cost=float(self._block.cost1[e - 1][0, source]),
                    distinct=distinct[:n],
                    num_edges=e,
                    extra={"grown_layers": self.num_layers, "mode": self.mode},
                )
            if fallback is None:
                fallback = walk
                fallback_cost = float(self._block.cost1[e - 1][0, source])
        if fallback is None:
            raise SolverError(
                f"no stroll from {source} to {self.target} exists within "
                f"{self.max_edges} edges"
            )
        repaired = self._repair_walk(fallback, n)
        distinct = _collect_distinct(repaired, n)
        assert distinct.size >= n, "repair must reach n distinct intermediates"
        cost = float(self.closure[repaired[:-1], repaired[1:]].sum())
        return StrollResult(
            walk=repaired,
            cost=cost,
            distinct=distinct[:n],
            num_edges=int(repaired.size - 1),
            extra={"mode": self.mode, "repaired": True, "scan_cost": fallback_cost},
        )


def dp_stroll(
    closure: np.ndarray,
    source: int,
    target: int,
    n: int,
    mode: str = "second-best",
) -> StrollResult:
    """Algorithm 2 (vectorized): shortest stroll visiting ``n`` distinct nodes.

    ``closure`` must be a metric-closure cost matrix (complete graph);
    ``source``/``target`` are indices into it.  See the module docstring
    for the ``mode`` choices.
    """
    closure = _check_inputs(closure, source, target, n)
    engine = StrollEngine(closure, target, mode=mode)
    return engine.solve(source, n)


def dp_stroll_reference(
    closure: np.ndarray,
    source: int,
    target: int,
    n: int,
) -> StrollResult:
    """Pure-Python transliteration of the paper's Algorithm 2 pseudocode.

    Single-successor memoization, exactly as printed (= ``mode="paper"``
    of the vectorized engine, which tests assert it agrees with).  Kept
    deliberately loop-heavy and index-explicit as executable ground truth.
    """
    closure = _check_inputs(closure, source, target, n)
    m = closure.shape[0]
    max_edges = 2 * m + 64

    # cost[e][u], succ[e][u]; e starts at 1
    cost: dict[int, list[float]] = {1: [float("inf")] * m}
    succ: dict[int, list[int]] = {1: [-1] * m}
    for u in range(m):
        if u != target:
            cost[1][u] = float(closure[u, target])
            succ[1][u] = target

    def grow(e: int) -> None:
        cost[e] = [float("inf")] * m
        succ[e] = [-1] * m
        for u_i in range(m):
            for u in range(m):
                if u == u_i or u == target:
                    continue
                if succ[e - 1][u] == u_i:
                    continue  # line 6: no immediate backtrack
                candidate = float(closure[u_i, u]) + cost[e - 1][u]
                if candidate < cost[e][u_i]:
                    cost[e][u_i] = candidate
                    succ[e][u_i] = u

    r = n + 1
    while True:
        for e in range(2, r + 1):
            if e not in cost:
                grow(e)
        if cost[r][source] != float("inf"):
            # reconstruct the r-edge walk via the successor tables
            walk = [source]
            node = source
            for remaining in range(r, 0, -1):
                node = succ[remaining][node]
                walk.append(node)
            walk_arr = np.asarray(walk, dtype=np.int64)
            distinct = _collect_distinct(walk_arr, n)
            if distinct.size >= n:
                return StrollResult(
                    walk=walk_arr,
                    cost=float(cost[r][source]),
                    distinct=distinct[:n],
                    num_edges=r,
                    extra={"engine": "reference"},
                )
        r += 1
        if r > max_edges:
            raise SolverError(
                f"reference stroll search exceeded {max_edges} edges; "
                "instance appears degenerate"
            )
