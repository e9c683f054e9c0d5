"""Tests for budgeted incremental resharding (repro.api.reshard)."""

import dataclasses
import json
import math

import pytest

from repro.api import (
    PlanDiff,
    ReshardConfig,
    ShardingEngine,
    ShardingRequest,
    ShardingService,
    WorkloadDelta,
    incremental_reshard,
)
from repro.costmodel.drift import DriftReport
from repro.data.tasks import ShardingTask


@pytest.fixture(scope="module")
def engine(cluster2, tiny_bundle):
    return ShardingEngine(cluster2, tiny_bundle)


@pytest.fixture(scope="module")
def applied(engine, tasks2):
    """An applied state: the beam plan of the first benchmark task."""
    task = tasks2[0]
    response = engine.shard(ShardingRequest(task, strategy="beam"))
    assert response.feasible
    return task, response.plan, response.plan_tables(task)


def _fresh_tables(tasks2, count=2, start_id=90_000):
    """Tables from another task, re-identified as brand-new tables."""
    return tuple(
        dataclasses.replace(t, table_id=start_id + i)
        for i, t in enumerate(tasks2[1].tables[:count])
    )


class TestWorkloadDelta:
    def test_round_trip_through_json(self, tasks2):
        delta = WorkloadDelta(
            add_tables=tuple(tasks2[1].tables[:2]),
            remove_table_ids=(3, 7),
            drift=DriftReport(
                probe_mse=1.5, rolling_mse=1.2, needs_retraining=True
            ),
        )
        restored = WorkloadDelta.from_dict(
            json.loads(json.dumps(delta.to_dict()))
        )
        assert restored == delta

    def test_version_mismatch_rejected(self):
        payload = WorkloadDelta().to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            WorkloadDelta.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"remove_table_id": [3]}, "unknown WorkloadDelta keys"),
            ({"remove_table_ids": [3.9]}, "must be a list of ints"),
            ({"remove_table_ids": [True]}, "must be a list of ints"),
            ({"remove_table_ids": ["3"]}, "must be a list of ints"),
            ({"remove_table_ids": 3}, "must be a list of ints"),
        ],
    )
    def test_from_dict_is_strict(self, payload, message):
        with pytest.raises(ValueError, match=message):
            WorkloadDelta.from_dict({"schema_version": 1, **payload})

    def test_partial_payload_keeps_defaults(self):
        restored = WorkloadDelta.from_dict(
            {"schema_version": 1, "remove_table_ids": [3], "drift": None}
        )
        assert restored == WorkloadDelta(remove_table_ids=(3,))

    def test_stored_record_delta_round_trips(self, engine, tasks2):
        """The delta a reshard record stores is what the validator
        reads back (``metadata["delta"]``), after a JSON round trip."""
        service = ShardingService()
        service.create_deployment("prod", engine, tables=tasks2[0].tables)
        service.plan("prod", strategy="dim_greedy")
        service.apply("prod")
        delta = WorkloadDelta(
            add_tables=_fresh_tables(tasks2, count=1),
            remove_table_ids=(tasks2[0].tables[0].table_id,),
        )
        record = service.reshard(
            "prod", delta, ReshardConfig(allow_full_search=False)
        )
        stored = json.loads(json.dumps(record.to_dict()))["metadata"]["delta"]
        assert WorkloadDelta.from_dict(stored) == delta

    def test_empty_flag(self, tasks2):
        assert WorkloadDelta().is_empty
        assert not WorkloadDelta(add_tables=(tasks2[0].tables[0],)).is_empty


class TestReshardConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="migration_budget_ms"):
            ReshardConfig(migration_budget_ms=-1.0)
        with pytest.raises(ValueError, match="migration_lambda"):
            ReshardConfig(migration_lambda=-0.1)
        with pytest.raises(ValueError, match="max_refine_steps"):
            ReshardConfig(max_refine_steps=-1)

    @pytest.mark.parametrize(
        "config",
        [
            ReshardConfig(
                migration_budget_ms=123.0,
                migration_lambda=0.5,
                allow_full_search=False,
                max_refine_steps=7,
            ),
            ReshardConfig(),
            ReshardConfig(migration_budget_ms=0.0, migration_lambda=0.0),
            ReshardConfig(migration_budget_ms=5_000, max_refine_steps=0),
        ],
    )
    def test_round_trip(self, config):
        assert ReshardConfig.from_dict(config.to_dict()) == config
        payload = json.loads(json.dumps(config.to_dict()))
        assert ReshardConfig.from_dict(payload) == config

    def test_omitted_knobs_keep_defaults(self):
        assert ReshardConfig.from_dict({}) == ReshardConfig()
        assert ReshardConfig.from_dict(
            {"migration_budget_ms": None, "migration_lambda": 0}
        ) == ReshardConfig(migration_lambda=0.0)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"max_refine_step": 1}, r"unknown ReshardConfig knobs \['max_refine_step'\]"),
            ({"allow_full_search": "false"}, "allow_full_search must be a bool"),
            ({"allow_full_search": 0}, "allow_full_search must be a bool"),
            ({"max_refine_steps": "8"}, "max_refine_steps must be an int"),
            ({"max_refine_steps": 8.0}, "max_refine_steps must be an int"),
            ({"max_refine_steps": True}, "max_refine_steps must be an int"),
            ({"migration_budget_ms": "5"}, "migration_budget_ms must be a number"),
            ({"migration_budget_ms": math.nan}, "migration_budget_ms must be a number"),
            ({"migration_lambda": "0.1"}, "migration_lambda must be a number"),
            ({"migration_lambda": False}, "migration_lambda must be a number"),
            ({"migration_lambda": None}, "migration_lambda must be a number"),
            ({"max_refine_steps": -1}, "max_refine_steps must be >= 0"),
        ],
    )
    def test_from_dict_is_strict(self, payload, message):
        with pytest.raises(ValueError, match=message):
            ReshardConfig.from_dict(payload)


class TestIncrementalReshard:
    def test_empty_delta_moves_nothing(self, engine, applied):
        _, plan, base = applied
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(),
            config=ReshardConfig(allow_full_search=False, max_refine_steps=0),
        )
        assert result.chosen == "incremental"
        assert result.diff.num_changes == 0
        assert result.response.feasible
        # The unchanged workload keeps the exact applied assignment.
        assert result.response.plan.assignment == plan.assignment

    def test_added_tables_placed_survivors_stay(self, engine, applied, tasks2):
        _, plan, base = applied
        added = _fresh_tables(tasks2)
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(add_tables=added),
            config=ReshardConfig(allow_full_search=False, max_refine_steps=0),
        )
        assert result.response.feasible
        # Without refinement, surviving shards never move.
        assert result.diff.moves == ()
        assert {c.uid for c in result.diff.created} == {t.uid for t in added}

    def test_removed_tables_disappear(self, engine, applied):
        task, plan, base = applied
        victim = base[0].table_id
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(remove_table_ids=(victim,)),
            config=ReshardConfig(allow_full_search=False, max_refine_steps=0),
        )
        tables = result.response.plan_tables(
            ShardingTask(
                tables=tuple(t for t in base if t.table_id != victim),
                num_devices=task.num_devices,
                memory_bytes=task.memory_bytes,
            )
        )
        assert all(t.table_id != victim for t in tables)
        assert any(c.uid.startswith(f"t{victim}:") for c in result.diff.removed)

    def test_budget_respected_by_refinement(self, engine, applied, tasks2):
        _, plan, base = applied
        added = _fresh_tables(tasks2)
        tight = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(add_tables=added),
            config=ReshardConfig(
                migration_budget_ms=0.0, allow_full_search=False
            ),
        )
        # Creations are unavoidable ingress, but no surviving shard may
        # move under a zero budget... unless creations alone exceed it,
        # in which case the result is flagged over budget.
        if tight.within_budget:
            assert tight.diff.moved_bytes == 0
        else:
            assert tight.diff.migration_cost_ms > 0.0

    def test_full_search_chosen_when_warm_impossible(self, engine, applied):
        task, plan, base = applied
        # Remove nothing but shrink memory below the applied layout's
        # most loaded device: the warm candidate cannot exist, so only
        # the full search (or nothing) can serve the reshard.
        device_bytes = [0] * task.num_devices
        for shard, device in zip(base, plan.assignment):
            device_bytes[device] += shard.size_bytes
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(),
            config=ReshardConfig(allow_full_search=True),
            memory_bytes=max(device_bytes) - 1,
        )
        assert result.chosen in ("full", "none")

    def test_drift_flag_propagates(self, engine, applied):
        _, plan, base = applied
        drift = DriftReport(probe_mse=9.0, rolling_mse=9.0, needs_retraining=True)
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(drift=drift),
            config=ReshardConfig(allow_full_search=False, max_refine_steps=0),
        )
        assert result.drift_triggered

    def test_needs_bundle(self, cluster2, applied):
        _, plan, base = applied
        bare = ShardingEngine(cluster2)
        with pytest.raises(ValueError, match="bundle"):
            incremental_reshard(bare, plan, base, WorkloadDelta())

    def test_removing_everything_rejected(self, engine, applied):
        _, plan, base = applied
        ids = tuple({t.table_id for t in base})
        with pytest.raises(ValueError, match="removes every table"):
            incremental_reshard(
                engine, plan, base, WorkloadDelta(remove_table_ids=ids)
            )

    def test_objective_is_cost_plus_weighted_migration(
        self, engine, applied, tasks2
    ):
        _, plan, base = applied
        added = _fresh_tables(tasks2)
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(add_tables=added),
            config=ReshardConfig(allow_full_search=False, migration_lambda=0.5),
        )
        expected = (
            result.response.simulated_cost_ms
            + 0.5 * result.diff.migration_cost_ms
        )
        assert math.isclose(result.objective_ms, expected)

    def test_diff_consistent_with_applied_plan(self, engine, applied, tasks2):
        task, plan, base = applied
        added = _fresh_tables(tasks2)
        result = incremental_reshard(
            engine, plan, base, WorkloadDelta(add_tables=added)
        )
        new_task = ShardingTask(
            tables=base + added,
            num_devices=task.num_devices,
            memory_bytes=task.memory_bytes,
        )
        recomputed = PlanDiff.between(
            plan,
            base,
            result.response.plan,
            result.response.plan_tables(new_task),
        )
        assert recomputed.moved_bytes == result.diff.moved_bytes
        assert recomputed.created_bytes == result.diff.created_bytes


class TestFullSearchFlag:
    def test_disabled_full_search_is_honored_even_when_warm_fails(
        self, engine, applied
    ):
        # Surviving layout illegal under a shrunken budget: with the
        # full search disabled the reshard reports infeasible instead of
        # silently overriding the flag.
        from repro.hardware.memory import MemoryModel

        task, plan, base = applied
        model = MemoryModel(task.memory_bytes)
        per_device_bytes = [
            sum(model.table_bytes(t) for t in dev)
            for dev in plan.per_device_tables(base)
        ]
        result = incremental_reshard(
            engine,
            plan,
            base,
            WorkloadDelta(),
            config=ReshardConfig(allow_full_search=False),
            memory_bytes=max(per_device_bytes) - 1,
        )
        assert result.chosen == "none"
        assert not result.response.feasible
        assert result.full_response is None


def test_reshards_keep_engine_memo_empty_and_cache_bounded(
    cluster2, tiny_bundle, tasks2
):
    """The engine's simulator lives as long as the engine: reshards must
    not grow its uid memo, and the bounded cost cache stays in bounds."""
    engine = ShardingEngine(
        cluster2, tiny_bundle, default_strategy="dim_greedy",
        cache_max_entries=64,
    )
    service = ShardingService()
    service.create_deployment("churn", engine, tables=tasks2[0].tables)
    service.plan("churn")
    service.apply("churn")
    budget = cluster2.config.memory_bytes
    pool = [
        t for task in tasks2[1:] for t in task.tables
        if t.size_bytes < budget // 8
    ]
    config = ReshardConfig(max_refine_steps=2)
    for i in range(50):
        added = dataclasses.replace(pool[i % len(pool)], table_id=50_000 + i)
        removed = (50_000 + i - 3,) if i >= 3 else ()
        record = service.reshard(
            "churn",
            WorkloadDelta(add_tables=(added,), remove_table_ids=removed),
            config=config,
        )
        assert record.feasible
    assert engine.simulator._single_cost_by_uid == {}
    assert engine.simulator._plan_cost_by_key == {}
    assert len(engine.cache) <= 64
    assert engine.cache.evictions > 0
