"""Algorithm 3 (and the TOP-1 wrapper): DP-based VNF placement.

Eq. 1 decomposes (see :mod:`repro.core.costs`) into ingress attraction +
``Λ`` × inter-VNF chain + egress attraction, so TOP reduces to: pick an
(ingress, egress) switch pair and connect them with an (n−2)-stroll.
Algorithm 3 evaluates every ordered pair, pricing the stroll with the
Algorithm 2 DP.

The paper states Algorithm 3 as ``O(n·|V|^6)`` because it re-runs the DP
per pair; this implementation runs the DP once per *egress* (the DP tables
depend only on the target) and solves all ingresses against it at once —
``O(n·|V|^3)`` overall — for a block of egresses per min-plus step
(:func:`repro.core.stroll.stroll_matrix`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro._compat import legacy_signature
from repro.core.costs import CostContext, validate_placement
from repro.core.stroll import StrollEngine, dp_stroll, stroll_matrix
from repro.core.types import PlacementResult
from repro.errors import InfeasibleError, PlacementError
from repro.graphs.metric_closure import metric_closure
from repro.runtime.cache import ComputeCache, get_compute_cache
from repro.runtime.instrument import count
from repro.topology.base import Topology
from repro.utils.timing import Timer
from repro.workload.flows import FlowSet
from repro.workload.sfc import SFC

__all__ = ["dp_placement", "dp_placement_top1", "chain_size"]


def chain_size(sfc: SFC | int) -> int:
    """Accept either an :class:`SFC` or a raw VNF count."""
    n = sfc.size if isinstance(sfc, SFC) else int(sfc)
    if n < 1:
        raise PlacementError(f"SFC must have at least one VNF, got {n}")
    return n


def _check_feasible(topology: Topology, n: int) -> None:
    if n > topology.num_switches:
        raise InfeasibleError(
            f"SFC of {n} VNFs cannot be placed on {topology.num_switches} switches"
        )


def _solve_small_n(ctx: CostContext, n: int) -> PlacementResult:
    """Exact solutions for n = 1 and n = 2 (trivial cases of Algorithm 3)."""
    sw = ctx.switches
    a_in = ctx.ingress_attraction[sw]
    a_out = ctx.egress_attraction[sw]
    if n == 1:
        best = int(np.argmin(a_in + a_out))
        placement = np.asarray([sw[best]], dtype=np.int64)
    else:
        sdist = ctx.distances[np.ix_(sw, sw)]
        score = a_in[:, None] + ctx.total_rate * sdist + a_out[None, :]
        np.fill_diagonal(score, np.inf)
        flat = int(np.argmin(score))
        i, j = divmod(flat, score.shape[1])
        placement = np.asarray([sw[i], sw[j]], dtype=np.int64)
    return PlacementResult(
        placement=placement,
        cost=ctx.communication_cost(placement),
        algorithm="dp",
        extra={"exact_small_n": True},
    )


@legacy_signature("extra_edge_slack", "mode", "candidate_switches", "cache")
def dp_placement(
    topology: Topology,
    flows: FlowSet,
    sfc: SFC | int,
    *,
    extra_edge_slack: int = 16,
    mode: str = "second-best",
    candidate_switches: np.ndarray | list | None = None,
    cache: ComputeCache | None = None,
) -> PlacementResult:
    """Algorithm 3: traffic-aware DP placement for TOP (any ``l``).

    ``extra_edge_slack`` bounds how far beyond ``n−1`` edges the stroll may
    grow while hunting for distinct switches before a pair is abandoned —
    in every practical topology the first one or two layers suffice.
    ``mode`` selects the stroll DP variant (see :mod:`repro.core.stroll`).
    ``candidate_switches`` restricts the placement to a subset of switches
    (used by multi-SFC placement, where chains must not share switches).
    ``cache`` overrides the process-global :class:`ComputeCache` holding
    the stroll-cost matrices.
    """
    count("dp_solves")
    with Timer.timed("dp_placement"):
        return _dp_placement(
            topology, flows, sfc, extra_edge_slack, mode, candidate_switches, cache
        )


def _dp_placement(
    topology: Topology,
    flows: FlowSet,
    sfc: SFC | int,
    extra_edge_slack: int,
    mode: str,
    candidate_switches: np.ndarray | list | None,
    cache: ComputeCache | None,
) -> PlacementResult:
    n = chain_size(sfc)
    _check_feasible(topology, n)
    ctx = CostContext(topology, flows, cache=cache)
    if candidate_switches is None:
        if n <= 2:
            return _solve_small_n(ctx, n)
        sw = ctx.switches
    else:
        sw = np.asarray(sorted(set(int(c) for c in candidate_switches)), dtype=np.int64)
        switch_set = set(topology.switches.tolist())
        stray = [int(c) for c in sw if int(c) not in switch_set]
        if stray:
            raise PlacementError(f"candidate switches {stray[:5]} are not switches")
        if n > sw.size:
            raise InfeasibleError(
                f"cannot place {n} VNFs on {sw.size} candidate switches"
            )
        if n <= 2:
            return _solve_small_n_restricted(ctx, n, sw)
    num_sw = sw.size
    a_in = ctx.ingress_attraction[sw]
    a_out = ctx.egress_attraction[sw]
    lam = ctx.total_rate
    interior = n - 2

    # b_cost[s, t] = cost of the best (n-2)-distinct stroll s -> t.  The
    # DP toward egress t prices all ingresses at once.  The whole matrix
    # depends only on (topology weights, candidate set, n, mode) — not on
    # traffic rates — so it is cached per topology: in the dynamic
    # simulator Algorithm 3 runs every hour and reuses the DP wholesale.
    max_edges = interior + 1 + extra_edge_slack
    closure, b_cost, b_edges = _stroll_matrix(
        topology, sw, interior, mode, max_edges, cache=ctx.cache
    )

    # nan-safe: at all-zero rates (e.g. the silent first/last diurnal hour)
    # lam == 0 and 0 * inf would poison the score with NaNs
    chain_term = np.full_like(b_cost, np.inf)
    finite = np.isfinite(b_cost)
    chain_term[finite] = lam * b_cost[finite]
    score = a_in[:, None] + chain_term + a_out[None, :]
    flat = int(np.argmin(score))
    s_pos, t_pos = divmod(flat, num_sw)
    if not np.isfinite(score[s_pos, t_pos]):
        raise InfeasibleError("no feasible (ingress, egress) stroll found")

    winner_engine = _stroll_engine(
        topology, closure, sw, t_pos, mode, max_edges, cache=ctx.cache
    )
    stroll = winner_engine.solve(s_pos, interior)
    distinct = stroll.distinct
    if distinct.size < interior:
        raise PlacementError("winning stroll lost its distinct interior on reconstruction")

    placement_positions = np.concatenate(([s_pos], distinct[:interior], [t_pos]))
    placement = sw[placement_positions]
    validate_placement(topology, placement, n)
    return PlacementResult(
        placement=placement,
        cost=ctx.communication_cost(placement),
        algorithm="dp",
        extra={
            "score": float(score[s_pos, t_pos]),
            "stroll_edges": int(b_edges[s_pos, t_pos]),
            "stroll_cost": float(b_cost[s_pos, t_pos]),
        },
    )


def _stroll_matrix(
    topology: Topology,
    sw: np.ndarray,
    interior: int,
    mode: str,
    max_edges: int,
    cache: ComputeCache | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``(closure, b_cost, b_edges)`` for Algorithm 3's inner DP.

    The matrix depends only on (topology weights, candidate set, n, mode)
    — not on traffic rates — so it lives in the :class:`ComputeCache`
    keyed weakly by the topology: in the dynamic simulator Algorithm 3
    runs every hour and reuses the DP wholesale.

    Beneath the per-topology key sits a *content-addressed* shared layer
    keyed by a hash of the metric closure itself — the only input the DP
    tables actually depend on besides ``(interior, mode, max_edges)``.
    Two topologies with identical closures over the same candidate set
    (e.g. a degraded view whose failures spared every switch-to-switch
    shortest path, or hour *h* vs *h−1* of a fault episode that came and
    went) therefore share one table — the warm start for the stroll DP.
    Sharing is bit-identical by construction: the closure bytes *are* the
    DP's input.
    """
    cache = cache if cache is not None else get_compute_cache()
    key = ("stroll_matrix", sw.tobytes(), interior, mode, max_edges)

    def adopt() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        closure = metric_closure(topology.graph, sw)
        shared_key = (
            "stroll_matrix",
            hashlib.sha256(closure.tobytes()).hexdigest(),
            interior,
            mode,
            max_edges,
        )
        if cache.has_shared(shared_key, depends_on=("strolls",)):
            count("stroll_warm_hits")
        return cache.get_or_compute_shared(
            shared_key,
            lambda: _build_stroll_matrix(
                topology, sw, interior, mode, max_edges, closure=closure
            ),
            depends_on=("strolls",),
        )

    return cache.get_or_compute(topology, key, adopt)


def _stroll_engine(
    topology: Topology,
    closure: np.ndarray,
    sw: np.ndarray,
    t_pos: int,
    mode: str,
    max_edges: int,
    cache: ComputeCache | None = None,
) -> StrollEngine:
    """Cached winner-reconstruction engine for one egress position.

    ``StrollEngine`` layers are deterministic and history-independent (a
    layer's contents depend only on (closure, target, mode, max_edges),
    never on which queries grew it first), so memoizing the engine per
    (candidate set, egress) is bit-identical to rebuilding it — and in
    repeated-query workloads the winner egress barely changes, making
    this the dominant per-call saving after the stroll matrix itself.

    Like :func:`_stroll_matrix`, a content-addressed shared layer keyed
    by the closure hash lets topology views with identical closures warm
    each other's engines.
    """
    cache = cache if cache is not None else get_compute_cache()
    key = ("stroll_engine", sw.tobytes(), int(t_pos), mode, max_edges)

    def adopt() -> StrollEngine:
        shared_key = (
            "stroll_engine",
            hashlib.sha256(closure.tobytes()).hexdigest(),
            int(t_pos),
            mode,
            max_edges,
        )
        return cache.get_or_compute_shared(
            shared_key,
            lambda: StrollEngine(closure, t_pos, mode=mode, max_edges=max_edges),
            depends_on=("strolls",),
        )

    return cache.get_or_compute(topology, key, adopt)


def _build_stroll_matrix(
    topology: Topology,
    sw: np.ndarray,
    interior: int,
    mode: str,
    max_edges: int,
    closure: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    count("stroll_matrix_builds")
    with Timer.timed("stroll_matrix"):
        if closure is None:
            closure = metric_closure(topology.graph, sw)
        b_cost, b_edges = stroll_matrix(closure, interior, mode=mode, max_edges=max_edges)
        np.fill_diagonal(b_cost, np.inf)  # ingress and egress must differ
        for arr in (closure, b_cost, b_edges):
            arr.setflags(write=False)
    return closure, b_cost, b_edges


def _solve_small_n_restricted(ctx: CostContext, n: int, sw: np.ndarray) -> PlacementResult:
    """n = 1, 2 exactly, over a candidate switch subset."""
    a_in = ctx.ingress_attraction[sw]
    a_out = ctx.egress_attraction[sw]
    if n == 1:
        best = int(np.argmin(a_in + a_out))
        placement = np.asarray([sw[best]], dtype=np.int64)
    else:
        sdist = ctx.distances[np.ix_(sw, sw)]
        score = a_in[:, None] + ctx.total_rate * sdist + a_out[None, :]
        np.fill_diagonal(score, np.inf)
        flat = int(np.argmin(score))
        i, j = divmod(flat, score.shape[1])
        placement = np.asarray([sw[i], sw[j]], dtype=np.int64)
    return PlacementResult(
        placement=placement,
        cost=ctx.communication_cost(placement),
        algorithm="dp",
        extra={"exact_small_n": True, "restricted": True},
    )


@legacy_signature("flow_index", "mode")
def dp_placement_top1(
    topology: Topology,
    flows: FlowSet,
    sfc: SFC | int,
    *,
    flow_index: int = 0,
    mode: str = "second-best",
    cache: ComputeCache | None = None,
) -> PlacementResult:
    """Algorithm 2 applied end-to-end to a single flow (TOP-1 / DP-Stroll).

    Builds ``G''`` over the flow's two hosts plus every switch, with edge
    costs ``λ_1 · c(u, v)``, and places all ``n`` VNFs on the first ``n``
    distinct switches of the resulting stroll.  This is the "DP-Stroll"
    series of Fig. 7.
    """
    count("dp_stroll_solves")
    n = chain_size(sfc)
    _check_feasible(topology, n)
    if not (0 <= flow_index < flows.num_flows):
        raise PlacementError(f"flow_index {flow_index} out of range")
    single = flows.subset(np.asarray([flow_index]))
    ctx = CostContext(topology, single, cache=cache)

    src_host = int(single.sources[0])
    dst_host = int(single.destinations[0])
    rate = float(single.rates[0])

    # V'' = {s(v1), s(v'1)} ∪ V_s; closure indices: 0 = source host,
    # (1 = dest host when distinct), then switches.
    sw = topology.switches
    if src_host == dst_host:
        nodes = np.concatenate(([src_host], sw))
        s_idx, t_idx = 0, 0
        sw_offset = 1
    else:
        nodes = np.concatenate(([src_host, dst_host], sw))
        s_idx, t_idx = 0, 1
        sw_offset = 2
    # The unscaled closure depends only on (topology, node set); the
    # per-call rate scaling is an elementwise product over it either way.
    base = ctx.cache.get_or_compute(
        topology,
        ("top1_closure", nodes.tobytes()),
        lambda: metric_closure(topology.graph, nodes),
    )
    closure = base * max(rate, 1.0e-300)

    result = dp_stroll(closure, s_idx, t_idx, n, mode=mode)
    placement = nodes[result.distinct]
    if np.any(result.distinct < sw_offset):
        raise PlacementError("stroll placed a VNF on a host node")  # pragma: no cover
    validate_placement(topology, placement, n)
    return PlacementResult(
        placement=placement,
        cost=ctx.communication_cost(placement),
        algorithm="dp-stroll",
        extra={
            "stroll_cost": float(result.cost),
            "stroll_edges": result.num_edges,
            "walk": result.walk.tolist(),
        },
    )
