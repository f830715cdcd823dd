"""Reference implementations of the stroll engine's fast paths.

``loop_repair_walk`` is the insertion repair written as a Python loop over
candidates.  ``ReferenceEngine`` grows each layer for its one target with
separate ``min``/``argmin`` passes over an ``(m, m)`` step and repairs with
the loop; ``per_target_matrix`` prices every (source, target) pair with
one :meth:`StrollEngine.solve` of it at a time, walking scalar successors.
All are kept only as oracles for the vectorized code in
:mod:`repro.core.stroll`.
"""

from __future__ import annotations

import numpy as np

from repro.core.stroll import StrollEngine, count_needed
from repro.errors import InfeasibleError, SolverError


def loop_repair_walk(engine: StrollEngine, walk: np.ndarray, n: int) -> np.ndarray:
    """Greedy insertion repair, one candidate at a time.

    For each candidate (ascending) the best position is the first
    ``argmin`` of its detours; a candidate replaces the incumbent only on
    a strictly smaller delta, so the lowest delta wins, then the lowest
    candidate, then the lowest position.  NaN and ``inf`` never win.
    """
    closure = engine.closure
    nodes = list(int(v) for v in walk)
    endpoints = {nodes[0], engine.target}
    visited = set(nodes)
    missing = n - count_needed(nodes, endpoints)
    candidates = [
        v for v in range(engine.m) if v not in visited and v not in endpoints
    ]
    if missing > len(candidates):
        raise InfeasibleError(
            f"cannot repair walk to {n} distinct nodes: only "
            f"{len(candidates)} unvisited candidates remain"
        )
    for _ in range(missing):
        best = (np.inf, -1, -1)  # (delta, candidate, position)
        arr = np.asarray(nodes)
        for x in candidates:
            deltas = closure[arr[:-1], x] + closure[x, arr[1:]] - closure[arr[:-1], arr[1:]]
            pos = int(np.argmin(deltas))
            if deltas[pos] < best[0]:
                best = (float(deltas[pos]), x, pos)
        _, x, pos = best
        if x < 0:
            raise SolverError("repair found no insertable node")
        nodes.insert(pos + 1, x)
        candidates.remove(x)
    return np.asarray(nodes, dtype=np.int64)


class ReferenceEngine(StrollEngine):
    """A :class:`StrollEngine` with the one-target layer step and loop repair."""

    def _grow_layer(self) -> None:
        block = self._block
        prev_c1, prev_s1 = block.cost1[-1][0], block.succ1[-1][0]
        prev_c2 = block.cost2[-1][0]
        closure = self.closure
        step = closure + prev_c1[None, :]
        cols = np.flatnonzero(np.isfinite(prev_c1))
        rows = prev_s1[cols]
        if self.mode == "paper":
            step[rows, cols] = np.inf
        else:
            step[rows, cols] = closure[rows, cols] + prev_c2[cols]
        step[:, self.target] = np.inf
        diag = np.arange(self.m)
        step[diag, diag] = np.inf

        cost1 = step.min(axis=1)
        succ1 = step.argmin(axis=1).astype(np.int64)
        succ1[~np.isfinite(cost1)] = -1
        finite = np.isfinite(cost1)
        step[diag[finite], succ1[finite]] = np.inf
        cost2 = step.min(axis=1)
        succ2 = step.argmin(axis=1).astype(np.int64)
        succ2[~np.isfinite(cost2)] = -1
        for stored, arr in zip(
            (block.cost1, block.succ1, block.cost2, block.succ2), (cost1, succ1, cost2, succ2)
        ):
            stored.append(arr[None, :])

    def _repair_walk(self, walk: np.ndarray, n: int) -> np.ndarray:
        return loop_repair_walk(self, walk, n)


def per_target_matrix(
    closure: np.ndarray, n: int, mode: str, max_edges: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(costs, edges)`` over every (source, target), one solve per pair.

    Unsolvable pairs read ``(inf, -1)``, as in
    :meth:`StrollEngine.batch_solve`.
    """
    m = closure.shape[0]
    costs = np.full((m, m), np.inf)
    edges = np.full((m, m), -1, dtype=np.int64)
    for target in range(m):
        engine = ReferenceEngine(closure, target, mode=mode, max_edges=max_edges)
        for source in range(m):
            try:
                result = engine.solve(source, n)
            except (InfeasibleError, SolverError):
                continue
            costs[source, target] = result.cost
            edges[source, target] = result.num_edges
    return costs, edges
