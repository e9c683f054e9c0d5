"""Differential fuzz: cache-on vs cache-off across every registered strategy.

The search has one scoring route, but two independent ways through it:
with the cost cache on, candidates are deduplicated, memo-served and
finalized in one batched plan-cost call; with it off (the "w/o caching"
ablation of Table 3) every grid point is its own trajectory group,
every set is predicted, and placements are finalized one at a time
through ``plan_cost``.  This suite drives a seeded corner-case task
matrix — dimension extremes (including the ``dim <= 128`` regime of the
paper's Observation 1, where fused multi-table kernels are cheapest),
pooling and skew extremes, and budget corners — through **both** via
:func:`~repro.validation.differential_matrix`:

- a *cached* engine (the default search config), and
- an *uncached* engine (``with_ablation("caching")``).

Every strategy must stay :class:`~repro.validation.PlanValidator`-clean
under both, and the two engines' responses must agree bit-for-bit under
``deterministic_dict`` — for all 18 registered strategies, not just the
core searches the ablation actually reroutes.
"""

import dataclasses

import pytest

from repro.api import (
    ShardingEngine,
    ShardingRequest,
    available_strategies,
    make_sharder,
)
from repro.config import SearchConfig
from repro.data.table import TableConfig
from repro.validation import PlanValidator, differential_matrix

SEARCH = SearchConfig(top_n=3, beam_width=2, max_steps=3, grid_points=4)


def _comparable(response):
    """``deterministic_dict`` minus the cache hit rate.

    A disabled cache never hits, so the hit *accounting* differs between
    the two engines by construction; the plan contract — plan, cost,
    feasibility, evaluations — is held exactly.
    """
    payload = response.deterministic_dict()
    payload.pop("cache_hit_rate", None)
    return payload


def _table(tid, hash_size, dim, pooling, alpha):
    return TableConfig(
        table_id=tid,
        hash_size=hash_size,
        dim=dim,
        pooling_factor=pooling,
        zipf_alpha=alpha,
    )


def _task(task_id, tables, *, headroom=2.0):
    """Budget = ``headroom`` × the total footprint, so at ``headroom >=
    2`` even the random baseline can place every table on one device."""
    from repro.data.tasks import ShardingTask

    total = sum(t.size_bytes + 4 * t.hash_size for t in tables)
    return ShardingTask(
        tables=tuple(tables),
        num_devices=2,
        memory_bytes=max(int(headroom * total), 1),
        task_id=task_id,
    )


@pytest.fixture(scope="module")
def corner_tasks():
    """Seeded corner-case matrix (generous budgets — see ``_task``)."""
    return [
        # Observation-1 edge: every dim <= 128, spanning MIN_DIM up to
        # exactly 128, where fused kernels amortize best.
        _task(0, [
            _table(0, 5_000, 4, 1.0, 0.0),
            _table(1, 40_000, 16, 20.0, 0.6),
            _table(2, 200_000, 64, 50.0, 1.1),
            _table(3, 1_000_000, 128, 80.0, 1.6),
            _table(4, 8_000, 128, 1.0, 0.0),
        ]),
        # Wide tables past the edge: column-split candidates.
        _task(1, [
            _table(0, 500_000, 256, 30.0, 0.9),
            _table(1, 120_000, 512, 10.0, 0.3),
            _table(2, 60_000, 32, 5.0, 1.4),
            _table(3, 2_000_000, 64, 150.0, 1.2),
        ]),
        # Pooling × skew extremes crossed at a fixed mid dimension.
        _task(2, [
            _table(0, 100_000, 48, 1.0, 0.0),
            _table(1, 100_000, 48, 1.0, 1.6),
            _table(2, 100_000, 48, 200.0, 0.0),
            _table(3, 100_000, 48, 200.0, 1.6),
        ]),
    ]


@pytest.fixture(scope="module")
def engines(cluster2, tiny_bundle):
    """(cached, uncached): the default search vs the caching ablation."""
    def build(search):
        return ShardingEngine(
            cluster2,
            tiny_bundle,
            search=search,
            strategy_kwargs={"random": {"seed": 7}},
        )

    return build(SEARCH), build(SEARCH.with_ablation("caching"))


@pytest.fixture(scope="module")
def strategy_options(cluster2, tiny_bundle, corner_tasks):
    """Construction options for strategies needing a trained artifact.

    The guided policy is built once and shared by both engines, so a
    response difference can only come from the cache setting under test.
    """
    policy = make_sharder(
        "imitation",
        cluster=cluster2,
        bundle=tiny_bundle,
        train_tasks=corner_tasks[:1],
        epochs=2,
    )
    fit = {"train_tasks": corner_tasks[:1], "epochs": 2}
    return {"guided": {"policy": policy}, "imitation": fit, "offline_rl": fit}


class TestCacheOnVsOff:
    def test_matrix_clean_under_both_engines(
        self, engines, corner_tasks, strategy_options
    ):
        for label, engine in zip(("cached", "uncached"), engines):
            report = differential_matrix(
                engine,
                corner_tasks,
                options=strategy_options,
                validator=PlanValidator(),
            )
            swept = {cell.strategy for cell in report.cells}
            assert swept == set(available_strategies())
            assert len(swept) >= 18
            assert report.clean, (
                label,
                [c.to_dict() for c in report.failures],
            )

    def test_responses_bit_identical(
        self, engines, corner_tasks, strategy_options
    ):
        """Every (strategy, task) response agrees across the two engines
        under ``deterministic_dict`` — plans, costs, feasibility."""
        cached_engine, uncached_engine = engines
        for name in available_strategies():
            for task in corner_tasks:
                request = ShardingRequest(
                    task,
                    strategy=name,
                    options=dict(strategy_options.get(name) or {}),
                    request_id=f"diff-{name}-{task.task_id}",
                )
                cached = _comparable(cached_engine.shard(request))
                uncached = _comparable(uncached_engine.shard(request))
                assert cached == uncached, (name, task.task_id)

    def test_split_forcing_budget_corner(self, engines, corner_tasks):
        """A budget below the largest table forces column splits; the
        splitting strategies must stay clean and agree bitwise."""
        # One dominant wide table (> half the total footprint) plus
        # small riders: a budget of 0.75 × the big table is below its
        # unsplit footprint yet above total/2, so a plan exists but only
        # via column splits.
        tables = [
            _table(0, 500_000, 512, 30.0, 0.9),
            _table(1, 60_000, 32, 5.0, 1.4),
            _table(2, 40_000, 16, 20.0, 0.6),
        ]
        largest = max(t.size_bytes + 4 * t.hash_size for t in tables)
        tight = dataclasses.replace(
            _task(10, tables), memory_bytes=max(int(0.75 * largest), 1)
        )
        cached_engine, uncached_engine = engines
        for engine in engines:
            report = differential_matrix(
                engine, [tight], strategies=["beam", "mixed"]
            )
            assert report.clean, [c.to_dict() for c in report.failures]
        for name in ("beam", "mixed"):
            request = ShardingRequest(
                tight, strategy=name, request_id=f"diff-split-{name}"
            )
            assert _comparable(cached_engine.shard(request)) == _comparable(
                uncached_engine.shard(request)
            )

    def test_infeasible_budget_corner_agrees(self, engines, corner_tasks):
        """When nothing fits, both engines must report the same
        infeasibility, cell for cell."""
        hopeless = dataclasses.replace(
            corner_tasks[0], memory_bytes=1024, task_id=11
        )
        names = ["beam", "mixed", "greedy_grid", "dim_greedy"]
        reports = [
            differential_matrix(engine, [hopeless], strategies=names)
            for engine in engines
        ]
        for cached_cell, uncached_cell in zip(
            reports[0].cells, reports[1].cells
        ):
            assert not cached_cell.feasible
            assert cached_cell.to_dict() == uncached_cell.to_dict()
