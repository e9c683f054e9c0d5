"""Frozen copy of the one-candidate-at-a-time reshard refine.

``_plan_metrics`` and ``_refine`` below are verbatim copies of
:mod:`repro.api.reshard` as it was before the refine scored each
neighbourhood as one batch: every candidate gets its own
``simulator.plan_cost`` and its own ``PlanDiff.between``.
``tests/test_reshard_equivalence.py`` monkeypatches this ``_refine`` into
:mod:`repro.api.reshard` and requires the batched refine to give
bit-identical reshard results.  Do not edit the two functions.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.diff import MigrationCostModel, PlanDiff
from repro.api.reshard import ReshardConfig
from repro.core.plan import ShardingPlan
from repro.core.simulator import NeuroShardSimulator
from repro.data.table import TableConfig
from repro.hardware.memory import MemoryModel


def _plan_metrics(
    plan: ShardingPlan,
    base_tables: Sequence[TableConfig],
    applied_plan: ShardingPlan,
    applied_base: Sequence[TableConfig],
    simulator: NeuroShardSimulator,
    cost_model: MigrationCostModel,
) -> tuple[float, PlanDiff]:
    """Simulated cost and diff-vs-applied of a candidate plan."""
    cost = simulator.plan_cost(plan.per_device_tables(base_tables)).max_cost_ms
    diff = PlanDiff.between(
        applied_plan, applied_base, plan, base_tables, cost_model
    )
    return cost, diff


def _refine(
    assignment: list[int],
    tables: Sequence[TableConfig],
    applied_plan: ShardingPlan,
    applied_base: Sequence[TableConfig],
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    cost_model: MigrationCostModel,
    config: ReshardConfig,
) -> tuple[list[TableConfig], list[int]]:
    """Bounded local search around the warm-started placement.

    Three move families, tried cheapest-disruption first on the
    bottleneck device (the max-cost objective can only improve by
    changing the bottleneck):

    1. **move** a shard to another device,
    2. **swap** a shard with one on another device (escapes the
       partition local optima single moves hit),
    3. **split** a shard column-wise and place the halves (the paper's
       compute/balance trade, Observation 1, in incremental form).

    A mutation is accepted only when it improves ``simulated + lambda *
    migration`` and its migration cost respects the budget; the loop
    stops at a local optimum or after ``max_refine_steps`` acceptances.
    Returns the (possibly grown) table list and its assignment.
    """
    num_devices = applied_plan.num_devices
    working = list(tables)
    lam = config.migration_lambda
    budget = config.migration_budget_ms

    def metrics(
        tbls: Sequence[TableConfig], assign: Sequence[int]
    ) -> tuple[float, PlanDiff]:
        """Simulated cost + diff-vs-applied of one candidate state."""
        plan = ShardingPlan(
            column_plan=(), assignment=tuple(assign), num_devices=num_devices
        )
        return _plan_metrics(
            plan, tbls, applied_plan, applied_base, simulator, cost_model
        )

    cost, diff = metrics(working, assignment)
    objective = cost + lam * diff.migration_cost_ms
    for _ in range(config.max_refine_steps):
        table_bytes = [memory.table_bytes(t) for t in working]
        device_bytes = [0] * num_devices
        for ti, d in enumerate(assignment):
            device_bytes[d] += table_bytes[ti]
        breakdown = simulator.plan_cost(
            ShardingPlan(
                column_plan=(),
                assignment=tuple(assignment),
                num_devices=num_devices,
            ).per_device_tables(working)
        )
        bottleneck = max(
            range(num_devices), key=lambda d: breakdown.device_costs_ms[d]
        )
        movers = [ti for ti, d in enumerate(assignment) if d == bottleneck]
        others = [ti for ti, d in enumerate(assignment) if d != bottleneck]

        # Each candidate: (tables, assignment) after the mutation.
        candidates: list[tuple[list[TableConfig], list[int]]] = []

        def stage(candidate_tables, candidate_assignment) -> None:
            candidates.append((candidate_tables, candidate_assignment))

        for ti in movers:
            for target in range(num_devices):
                if target == bottleneck:
                    continue
                if device_bytes[target] + table_bytes[ti] > memory.memory_bytes:
                    continue
                moved = list(assignment)
                moved[ti] = target
                stage(working, moved)
        for ti in movers:
            for tj in others:
                d_j = assignment[tj]
                fits_j = (
                    device_bytes[d_j] - table_bytes[tj] + table_bytes[ti]
                    <= memory.memory_bytes
                )
                fits_b = (
                    device_bytes[bottleneck]
                    - table_bytes[ti]
                    + table_bytes[tj]
                    <= memory.memory_bytes
                )
                if fits_j and fits_b:
                    swapped = list(assignment)
                    swapped[ti], swapped[tj] = d_j, bottleneck
                    stage(working, swapped)
        for ti in movers:
            if not working[ti].can_halve:
                continue
            first, second = working[ti].halved()
            half_bytes = memory.table_bytes(first)
            freed = device_bytes[bottleneck] - table_bytes[ti]
            for target in range(num_devices):
                on_bottleneck = half_bytes + (
                    half_bytes if target == bottleneck else 0
                )
                if freed + on_bottleneck > memory.memory_bytes:
                    continue
                if (
                    target != bottleneck
                    and device_bytes[target] + half_bytes > memory.memory_bytes
                ):
                    continue
                split_tables = list(working)
                split_tables[ti] = first
                split_tables.append(second)
                split_assignment = list(assignment)
                split_assignment.append(target)
                stage(split_tables, split_assignment)

        best: tuple[float, tuple[list[TableConfig], list[int]] | None] = (
            objective,
            None,
        )
        for candidate_tables, candidate_assignment in candidates:
            c, m_diff = metrics(candidate_tables, candidate_assignment)
            if budget is not None and m_diff.migration_cost_ms > budget:
                continue
            candidate_objective = c + lam * m_diff.migration_cost_ms
            if candidate_objective < best[0] - 1e-12:
                best = (candidate_objective, (candidate_tables, candidate_assignment))
        if best[1] is None:
            break
        working, assignment = best[1]
        objective = best[0]
    return working, assignment
