"""repro.verify — differential + metamorphic verification of the solvers.

Three layers, cheapest first:

1. **Invariants** (:mod:`~repro.verify.invariants`): pure checks any
   result must pass — Eq. 1 recomputed from scratch, distinct-switch
   feasibility, Eq. 8's ``C_t = C_b + C_a`` split, triangle consistency
   against the APSP metric, the TOP-1 LP floor.
2. **Oracles** (:mod:`~repro.verify.oracles`): the exact solvers as
   size-gated referees — no result may beat the optimum.
3. **Metamorphic transforms** (:mod:`~repro.verify.metamorphic`):
   scenario rewrites (relabel, scale, split, reverse, zero-flow) with a
   known cost relation every sound solver must preserve.

Six seeded campaign families put them to work, all driven by one
:func:`~repro.verify.campaign.run_campaign` (journal resume, worker
fan-out, crash-as-finding, JSON report) and listed in :data:`CAMPAIGNS`
in the order ``repro verify --family`` names them:

* ``core`` (:mod:`~repro.verify.campaign`) — every solver entry point
  against all three layers, failures greedily shrunk;
* ``faults`` (:mod:`~repro.verify.faults`) — survivability days;
* ``incremental`` (:mod:`~repro.verify.incremental`) — incremental vs
  cold solver core;
* ``constrained`` (:mod:`~repro.verify.constrained`) — MSG solvers vs
  the constrained exact referee;
* ``replication`` (:mod:`~repro.verify.replication`) — the
  migrate-vs-replicate lattice;
* ``shard`` (:mod:`~repro.verify.shard`) — sharded vs unsharded days.

:mod:`~repro.verify.diff` holds the bit-identity helpers the
differential checks and the test suites share.
"""

from repro.verify.campaign import (
    APPLICABLE,
    CORE,
    CampaignConfig,
    CampaignFamily,
    CheckOptions,
    run_campaign,
    run_case,
    shrink_case,
)
from repro.verify.constrained import (
    CONSTRAINED,
    CONSTRAINED_FAMILIES,
    ConstrainedCaseSpec,
    generate_constrained_cases,
    run_constrained_case,
)
from repro.verify.diff import assert_equivalent, check_differential, diff_results
from repro.verify.faults import (
    FAULT_FAMILIES,
    FAULTS,
    FaultCaseSpec,
    check_fault_day,
    generate_fault_cases,
    run_fault_case,
)
from repro.verify.incremental import (
    INCREMENTAL,
    check_dynamic_tables,
    check_incremental_day,
    generate_incremental_cases,
    run_incremental_case,
)
from repro.verify.invariants import (
    DEFAULT_RTOL,
    Violation,
    check_cost_decomposition,
    check_feasibility,
    check_lp_floor,
    check_metric,
    check_migration_distance,
    check_migration_result,
    check_placement_result,
    check_result,
    check_total_split,
    check_triangle_consistency,
    check_vm_migration_result,
    recompute_communication_cost,
)
from repro.verify.metamorphic import (
    TRANSFORMS,
    TransformResult,
    relabel_topology,
    relabel_transform,
    reverse_transform,
    scale_transform,
    split_transform,
    zero_flow_transform,
)
from repro.verify.oracles import (
    OracleGate,
    check_oracle_floor,
    oracle_migration,
    oracle_placement,
)
from repro.verify.replication import (
    REPLICATION,
    REPLICATION_FAMILIES,
    ReplicationCaseSpec,
    check_replication_day,
    generate_replication_cases,
    run_replication_case,
)
from repro.verify.scenarios import FAMILIES, CaseSpec, generate_cases, shrink_candidates
from repro.verify.shard import (
    SHARD,
    SHARD_DAY_KINDS,
    ShardCaseSpec,
    generate_shard_cases,
    run_shard_case,
)

#: every campaign family by its ``repro verify --family`` name
CAMPAIGNS: dict[str, CampaignFamily] = {
    family.name: family
    for family in (CORE, FAULTS, INCREMENTAL, CONSTRAINED, REPLICATION, SHARD)
}

__all__ = [
    # invariants
    "DEFAULT_RTOL",
    "Violation",
    "recompute_communication_cost",
    "check_feasibility",
    "check_cost_decomposition",
    "check_total_split",
    "check_migration_distance",
    "check_triangle_consistency",
    "check_metric",
    "check_lp_floor",
    "check_placement_result",
    "check_migration_result",
    "check_vm_migration_result",
    "check_result",
    # oracles
    "OracleGate",
    "oracle_placement",
    "oracle_migration",
    "check_oracle_floor",
    # metamorphic
    "TransformResult",
    "TRANSFORMS",
    "relabel_topology",
    "relabel_transform",
    "scale_transform",
    "split_transform",
    "reverse_transform",
    "zero_flow_transform",
    # differential
    "diff_results",
    "assert_equivalent",
    "check_differential",
    # scenarios + campaign
    "FAMILIES",
    "CaseSpec",
    "generate_cases",
    "shrink_candidates",
    "APPLICABLE",
    "CheckOptions",
    "run_case",
    "shrink_case",
    # the campaign driver
    "CAMPAIGNS",
    "CampaignFamily",
    "CampaignConfig",
    "run_campaign",
    # fault injection
    "FAULT_FAMILIES",
    "FaultCaseSpec",
    "generate_fault_cases",
    "check_fault_day",
    "run_fault_case",
    # constrained placement
    "CONSTRAINED_FAMILIES",
    "ConstrainedCaseSpec",
    "generate_constrained_cases",
    "run_constrained_case",
    # replication lattice
    "REPLICATION_FAMILIES",
    "ReplicationCaseSpec",
    "generate_replication_cases",
    "check_replication_day",
    "run_replication_case",
    # incremental differential
    "generate_incremental_cases",
    "check_dynamic_tables",
    "check_incremental_day",
    "run_incremental_case",
    # sharded execution differential
    "SHARD_DAY_KINDS",
    "ShardCaseSpec",
    "generate_shard_cases",
    "run_shard_case",
]
