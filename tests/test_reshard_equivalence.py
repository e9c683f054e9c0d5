"""Differential test: the batched reshard refine == the frozen refine.

:func:`repro.api.reshard._refine` scores each step's neighbourhood as one
batch and prices migrations from per-device byte sums.
``tests/reshard_oracle.py`` keeps the refine as it was before, scoring
every candidate with its own ``plan_cost`` and ``PlanDiff.between``.
Each case reshards the same applied state twice, once per refine, on
fresh engines over a committed benchmark bundle, and requires
bit-identical results: the chosen response (minus wall-clock fields),
the diff, the choice, the objective and the budget flag, plus equal
cost-cache misses and entries (the batched refine may only *skip*
lookups, never predict a set the frozen one did not).

The grid crosses refine steps {0, 1, 64}, migration budgets {none,
binding, 0} and lambda {0, 1e-4, 1e-1} on the 4- and 8-GPU bundles, plus
a memory-tight state whose applied plan and reshard both split tables
and a chain of reshards that splits halves again.  A migration cost only
steers the search when it is large against the simulated cost, so the
incremental migration sums are also checked candidate by candidate
against ``PlanDiff.between``.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
from pathlib import Path

import pytest
import reshard_oracle

import repro.api.reshard as reshard_module
from repro.api import (
    MigrationCostModel,
    PlanDiff,
    ReshardConfig,
    ShardingEngine,
    ShardingRequest,
    WorkloadDelta,
    incremental_reshard,
)
from repro.config import ClusterConfig, SearchConfig, TaskConfig
from repro.core.plan import ShardingPlan
from repro.core.simulator import NeuroShardSimulator
from repro.costmodel import PretrainedCostModels
from repro.data import TablePool, generate_tasks, synthesize_table_pool
from repro.data.table import table_set_key
from repro.data.tasks import ShardingTask
from repro.hardware import SimulatedCluster
from repro.hardware.memory import MemoryModel

BUNDLES = Path(__file__).resolve().parents[1] / "benchmarks" / "_cache"
MEMORY_BYTES = 4 * 1024**3
#: A small search config: the applied plans only need to be beam plans
#: (column splits included), not paper-grade ones.
SEARCH = SearchConfig(top_n=4, beam_width=2, max_steps=4, grid_points=4)
STEPS = (0, 1, 64)
LAMBDAS = (0.0, 1e-4, 1e-1)
BUDGETS = ("none", "binding", "zero")


@pytest.fixture(scope="module")
def pool() -> TablePool:
    return TablePool(synthesize_table_pool(seed=2023))


@pytest.fixture(scope="module", params=[4, 8], ids=["4gpu", "8gpu"])
def bundle(request) -> PretrainedCostModels:
    directory = BUNDLES / f"bundle_{request.param}gpu_8000s_300e_s1"
    return PretrainedCostModels.load(directory)


def _engine(bundle: PretrainedCostModels, memory_bytes: int) -> ShardingEngine:
    cluster = SimulatedCluster(
        ClusterConfig(num_devices=bundle.num_devices, memory_bytes=memory_bytes)
    )
    return ShardingEngine(cluster, bundle, search=SEARCH)


def _applied_state(bundle, tables, memory_bytes):
    """The beam plan of ``tables``: (plan, the tables it indexes)."""
    task = ShardingTask(
        tables=tables,
        num_devices=bundle.num_devices,
        memory_bytes=memory_bytes,
    )
    response = _engine(bundle, memory_bytes).shard(
        ShardingRequest(task, strategy="beam")
    )
    assert response.feasible
    return response.plan, response.plan_tables(task)


def _scenario(pool, bundle, seed, max_dim):
    """Seeded tables plus a delta adding three, removing one and
    re-weighting two."""
    tasks = generate_tasks(
        pool,
        TaskConfig(
            num_devices=bundle.num_devices,
            max_dim=max_dim,
            min_tables=12,
            max_tables=12,
            memory_bytes=MEMORY_BYTES,
        ),
        count=2,
        seed=seed,
    )
    tables = tasks[0].tables
    delta = WorkloadDelta(
        add_tables=tuple(
            dataclasses.replace(t, table_id=1_000_000 + i)
            for i, t in enumerate(tasks[1].tables[:3])
        ),
        remove_table_ids=(tables[0].table_id,),
        update_stats=tuple(
            dataclasses.replace(t, pooling_factor=t.pooling_factor * 3.0)
            for t in tables[1:3]
        ),
    )
    return tables, delta


def _reshard(bundle, state, delta, config, memory_bytes, refine):
    """One reshard on a fresh engine with ``refine`` patched in."""
    plan, base = state
    engine = _engine(bundle, memory_bytes)
    original = reshard_module._refine
    reshard_module._refine = refine
    try:
        result = incremental_reshard(
            engine, plan, base, delta, config, strategy="dim_greedy"
        )
    finally:
        reshard_module._refine = original
    return result, engine.cache


def _fingerprint(result, cache):
    return {
        "response": json.dumps(
            result.response.deterministic_dict(), sort_keys=True
        ),
        "diff": json.dumps(result.diff.to_dict(), sort_keys=True),
        "chosen": result.chosen,
        "objective_ms": result.objective_ms,
        "within_budget": result.within_budget,
        "cache_misses": cache.misses,
        "cache_entries": len(cache),
    }


def _assert_equivalent(bundle, state, delta, config, memory_bytes):
    frozen = _fingerprint(
        *_reshard(
            bundle, state, delta, config, memory_bytes, reshard_oracle._refine
        )
    )
    result, cache = _reshard(
        bundle, state, delta, config, memory_bytes, reshard_module._refine
    )
    assert _fingerprint(result, cache) == frozen
    return result


def _binding_budget(bundle, state, delta, memory_bytes) -> float:
    """Half the migration cost an unbudgeted reshard chooses."""
    result, _ = _reshard(
        bundle,
        state,
        delta,
        ReshardConfig(),
        memory_bytes,
        reshard_module._refine,
    )
    assert result.diff.migration_cost_ms > 0
    return 0.5 * result.diff.migration_cost_ms


def test_refine_matches_frozen_refine(pool, bundle):
    tables, delta = _scenario(pool, bundle, seed=5, max_dim=128)
    state = _applied_state(bundle, tables, MEMORY_BYTES)
    budgets = {
        "none": None,
        "binding": _binding_budget(bundle, state, delta, MEMORY_BYTES),
        "zero": 0.0,
    }
    split = False
    for steps, budget, lam in itertools.product(STEPS, BUDGETS, LAMBDAS):
        config = ReshardConfig(
            migration_budget_ms=budgets[budget],
            migration_lambda=lam,
            max_refine_steps=steps,
        )
        result = _assert_equivalent(bundle, state, delta, config, MEMORY_BYTES)
        if result.chosen == "incremental":
            split |= len(result.response.plan_tables(result.new_task)) > len(
                result.new_task.tables
            )
    # The grid must exercise accepted splits, not just moves and swaps.
    assert split


def test_memory_tight_reshard_matches_frozen_refine(pool, bundle):
    """A budget below the largest table: the applied plan holds split
    shards (uid-equal halves told apart by occurrence rank), the added
    tables are split to fit, and the refine splits further."""
    tables, delta = _scenario(pool, bundle, seed=9, max_dim=128)
    memory = MemoryModel(MEMORY_BYTES)
    tight = int(0.75 * max(memory.table_bytes(t) for t in tables))
    state = _applied_state(bundle, tables, tight)
    plan, base = state
    assert plan.num_splits > 0
    for steps, lam in itertools.product((1, 64), LAMBDAS):
        config = ReshardConfig(migration_lambda=lam, max_refine_steps=steps)
        _assert_equivalent(bundle, state, delta, config, tight)


def test_chained_reshards_match_frozen_refine(pool, bundle):
    """Each reshard's result becomes the next applied state, so splits
    pile up across reshards: halves are split again into quarters whose
    occurrence ranks shift against the applied plan's."""
    tables, _ = _scenario(pool, bundle, seed=13, max_dim=128)
    state = _applied_state(bundle, tables, MEMORY_BYTES)
    extra = generate_tasks(
        pool,
        TaskConfig(
            num_devices=bundle.num_devices,
            max_dim=128,
            min_tables=4,
            max_tables=4,
            memory_bytes=MEMORY_BYTES,
        ),
        count=1,
        seed=17,
    )[0].tables
    config = ReshardConfig(migration_lambda=0.0)
    for round_, table in enumerate(extra):
        plan, base = state
        delta = WorkloadDelta(
            add_tables=(dataclasses.replace(table, table_id=2_000_000 + round_),)
        )
        result = _assert_equivalent(bundle, state, delta, config, MEMORY_BYTES)
        state = (
            result.response.plan,
            result.response.plan_tables(result.new_task),
        )
    plan, base = state
    # Some table must be split more than once.
    shards = collections.Counter(t.table_id for t in plan.sharded_tables(base))
    assert max(shards.values()) > 2


def test_neighbourhood_prices_every_candidate_like_plan_diff(pool, bundle):
    """Every staged candidate's migration sums and batch item equal
    those rebuilt from its materialized plan, on states whose uid
    occurrence ranks shift under a split: halves of an applied split,
    and a split table re-added whole (its halves re-create the applied
    ones)."""
    tables, _ = _scenario(pool, bundle, seed=9, max_dim=128)
    memory = MemoryModel(MEMORY_BYTES)
    tight = int(0.75 * max(memory.table_bytes(t) for t in tables))
    plan, base = _applied_state(bundle, tables, tight)
    num_devices = plan.num_devices
    shards = plan.sharded_tables(base)
    counts = collections.Counter(t.table_id for t in shards)
    split_id = next(i for i, n in counts.items() if n > 1)
    rotated = [
        (d + 1) % num_devices if i % 3 == 0 else d
        for i, d in enumerate(plan.assignment)
    ]
    kept = [i for i, t in enumerate(shards) if t.table_id != split_id]
    whole = next(t for t in base if t.table_id == split_id)
    readded = (
        [shards[i] for i in kept] + [whole],
        [plan.assignment[i] for i in kept] + [0],
    )
    states = [(shards, list(plan.assignment)), (shards, rotated), readded]
    simulator = NeuroShardSimulator(bundle)
    memory = MemoryModel(64 * MEMORY_BYTES)  # every candidate fits
    cost_model = MigrationCostModel()
    kinds = collections.Counter()
    for state_tables, state_assignment in states:
        placement = reshard_module._Placement(
            state_tables, state_assignment, plan, base, simulator, memory
        )
        for bottleneck in range(num_devices):
            candidates = placement.neighbourhood(bottleneck)
            for mutation, item, transfers in candidates:
                kinds[mutation[0]] += 1
                after = reshard_module._Placement(
                    state_tables, state_assignment, plan, base, simulator, memory
                )
                after.apply(mutation, bottleneck)
                diff = PlanDiff.between(
                    plan,
                    base,
                    ShardingPlan((), tuple(after.assignment), num_devices),
                    after.tables,
                    cost_model,
                )
                assert tuple(transfers.egress) == diff.egress_bytes
                assert tuple(transfers.ingress) == diff.ingress_bytes
                assert transfers.cost_ms(cost_model) == diff.migration_cost_ms
                per_device = ShardingPlan(
                    (), tuple(after.assignment), num_devices
                ).per_device_tables(after.tables)
                keys, row_ids, dims = item
                assert keys == [table_set_key(dev) for dev in per_device]
                assert dims == [sum(t.dim for t in dev) for dev in per_device]
                assert [sorted(ids) for ids in row_ids] == [
                    sorted(simulator.featurizer.row_indices(dev).tolist())
                    for dev in per_device
                ]
    assert min(kinds[k] for k in ("move", "swap", "split")) > 0
