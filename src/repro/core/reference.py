"""Frozen pre-optimization search — the equivalence oracle.

This module preserves, verbatim, the recompute-from-scratch search
implementation that :mod:`repro.core.beam_search` and
:mod:`repro.core.greedy_grid` shipped with before the incremental-state
rewrite:

- the greedy allocator rebuilds every candidate device's table list and
  lets the simulator re-sort its ``table_set_key`` and re-stack its
  feature matrix on every single candidate evaluation;
- the beam search re-evaluates every expansion, including column plans
  that are multiset permutations of already-scored plans;
- single-table costs go through the cost cache on every ranking.

It exists for two reasons and must not be "improved":

1. **Equivalence regression**: the optimized search is required to return
   bit-identical ``(feasible, cost_ms, assignment, column_plan)`` results
   (``tests/test_search_equivalence.py`` pins this on seeded small /
   medium / infeasible task mixes).
2. **Performance baseline**: ``benchmarks/test_perf_search.py`` measures
   the optimized search's speedup against this implementation and gates
   it at 12x.

Why equivalence holds (and is tested rather than assumed): the optimized
paths reuse the same cached feature rows in the same placement order, so
every stacked prediction is the same matrix; canonical keys built
incrementally equal the re-sorted keys; and the beam's plan memo is keyed
on the *resulting table multiset* (not the column-plan index sequence,
whose permutations can produce different shard multisets), with
assignments remapped across uid-equal tables, which are cost-identical by
construction of :attr:`~repro.data.table.TableConfig.uid`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.config import SearchConfig
from repro.core.beam_search import BeamSearchResult
from repro.core.greedy_grid import GridSearchResult
from repro.core.plan import ShardingPlan, apply_column_plan
from repro.core.simulator import NeuroShardSimulator
from repro.data.table import TableConfig
from repro.hardware.memory import MemoryModel

__all__ = ["reference_greedy_grid_search", "reference_beam_search"]


def _single_table_costs(
    simulator: NeuroShardSimulator, tables: Sequence[TableConfig]
) -> np.ndarray:
    """Pre-optimization single-table costs: one cache round-trip per
    table, no uid memo (what ``single_table_costs`` used to do)."""
    return np.array(simulator.device_compute_costs([[t] for t in tables]))


def _reference_greedy_assign(
    tables: Sequence[TableConfig],
    order: np.ndarray,
    num_devices: int,
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    max_dim: float,
) -> tuple[int, ...] | None:
    """One greedy pass under a ``max_dim`` constraint (recompute-from-
    scratch: candidate lists are rebuilt and re-keyed per evaluation)."""
    device_tables: list[list[TableConfig]] = [[] for _ in range(num_devices)]
    device_bytes = [0] * num_devices
    device_dims = [0] * num_devices
    assignment = [0] * len(tables)

    for ti in order:
        table = tables[ti]
        t_bytes = memory.table_bytes(table)
        candidates = [
            d
            for d in range(num_devices)
            if device_bytes[d] + t_bytes <= memory.memory_bytes
            and device_dims[d] + table.dim <= max_dim
        ]
        if not candidates:
            return None
        resulting = [device_tables[d] + [table] for d in candidates]
        costs = simulator.device_compute_costs(resulting)
        best = candidates[int(np.argmin(costs))]
        device_tables[best].append(table)
        device_bytes[best] += t_bytes
        device_dims[best] += table.dim
        assignment[ti] = best
    return tuple(assignment)


def reference_greedy_grid_search(
    tables: Sequence[TableConfig],
    num_devices: int,
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    config: SearchConfig | None = None,
) -> GridSearchResult:
    """Algorithm 2, pre-optimization implementation."""
    config = config or SearchConfig()
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if len(tables) == 0:
        raise ValueError("cannot shard an empty table list")

    singles = _single_table_costs(simulator, tables)
    order = np.argsort(-singles, kind="stable")

    overflow = float(
        sum(
            max(0, memory.table_bytes(t) - memory.memory_bytes)
            for t in tables
        )
    )

    if config.use_grid_search:
        avg_dim = sum(t.dim for t in tables) / num_devices
        ms = max(avg_dim, 1.0)
        me = config.grid_end_factor * ms
        if config.grid_points == 1:
            grid: list[float] = [ms]
        else:
            grid = list(np.linspace(ms, me, config.grid_points))
        grid.append(math.inf)  # unconstrained fallback, tried last
    else:
        grid = [math.inf]

    best = GridSearchResult.infeasible(overflow)
    for max_dim in grid:
        if math.isfinite(max_dim) and max(t.dim for t in tables) > max_dim:
            continue  # no single table could be placed; skip early
        assignment = _reference_greedy_assign(
            tables, order, num_devices, simulator, memory, max_dim
        )
        if assignment is None:
            continue
        per_device: list[list[TableConfig]] = [[] for _ in range(num_devices)]
        for ti, d in enumerate(assignment):
            per_device[d].append(tables[ti])
        breakdown = simulator.plan_cost(per_device)
        cost = breakdown.max_cost_ms
        if cost < best.cost_ms:
            best = GridSearchResult(
                feasible=True,
                cost_ms=cost,
                assignment=assignment,
                max_dim_used=None if math.isinf(max_dim) else float(max_dim),
                breakdown=breakdown,
            )
    return best


def _reference_candidates(
    tables: Sequence[TableConfig],
    simulator: NeuroShardSimulator,
    top_n: int,
) -> list[int]:
    """Top-N costly ∪ top-N largest splittable table indices, with the
    original O(N²) ``i not in merged`` list-scan dedup."""
    splittable = [i for i, t in enumerate(tables) if t.can_halve]
    if not splittable:
        return []
    singles = _single_table_costs(simulator, tables)
    by_cost = sorted(splittable, key=lambda i: -singles[i])[:top_n]
    by_size = sorted(splittable, key=lambda i: -tables[i].size_bytes)[:top_n]
    merged: list[int] = []
    for i in by_cost + by_size:
        if i not in merged:
            merged.append(i)
    return merged


def reference_beam_search(
    base_tables: Sequence[TableConfig],
    num_devices: int,
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    config: SearchConfig | None = None,
) -> BeamSearchResult:
    """Algorithm 1, pre-optimization implementation (no plan memo)."""
    config = config or SearchConfig()
    if len(base_tables) == 0:
        raise ValueError("cannot shard an empty table list")

    evaluations = 0

    def evaluate(column_plan: tuple[int, ...]) -> GridSearchResult:
        nonlocal evaluations
        evaluations += 1
        sharded = apply_column_plan(base_tables, column_plan)
        return reference_greedy_grid_search(
            sharded, num_devices, simulator, memory, config
        )

    best_plan: tuple[int, ...] | None = None
    best_inner: GridSearchResult = GridSearchResult.infeasible()

    empty_result = evaluate(())
    if empty_result.feasible:
        best_plan = ()
        best_inner = empty_result

    if config.use_beam_search and config.max_steps > 0:
        beam: list[tuple[tuple[int, ...], tuple[float, float]]] = [
            ((), empty_result.beam_key)
        ]
        for _ in range(config.max_steps):
            scored: list[tuple[tuple[int, ...], tuple[float, float]]] = []
            for plan, _ in beam:
                sharded = apply_column_plan(base_tables, plan)
                for index in _reference_candidates(
                    sharded, simulator, config.top_n
                ):
                    new_plan = plan + (index,)
                    result = evaluate(new_plan)
                    scored.append((new_plan, result.beam_key))
                    if result.feasible and result.cost_ms < best_inner.cost_ms:
                        best_plan = new_plan
                        best_inner = result
            if not scored:
                break
            scored.sort(key=lambda item: item[1])
            beam = scored[: config.beam_width]

    if best_plan is None or not best_inner.feasible:
        return BeamSearchResult(
            feasible=False, plan=None, cost_ms=math.inf, evaluations=evaluations
        )
    return BeamSearchResult(
        feasible=True,
        plan=ShardingPlan(
            column_plan=best_plan,
            assignment=best_inner.assignment,
            num_devices=num_devices,
        ),
        cost_ms=best_inner.cost_ms,
        evaluations=evaluations,
    )
