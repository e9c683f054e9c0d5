"""Tests for the plan-lifecycle service (repro.api.service)."""

import dataclasses
import json

import pytest

from repro.api import (
    DeploymentNotFoundError,
    PlanRecord,
    PlanStore,
    ReshardConfig,
    ShardingEngine,
    ShardingRequest,
    ShardingService,
    WorkloadDelta,
    incremental_reshard,
)
from repro.costmodel.drift import DriftMonitor
from repro.data.pool import TablePool
from repro.data.tasks import ShardingTask


@pytest.fixture()
def engine(cluster2, tiny_bundle):
    return ShardingEngine(cluster2, tiny_bundle)


@pytest.fixture()
def service(engine, tasks2):
    service = ShardingService()
    service.create_deployment("prod", engine, tables=tasks2[0].tables)
    return service


def _fresh_tables(tasks2, count=2, start_id=90_000):
    return tuple(
        dataclasses.replace(t, table_id=start_id + i)
        for i, t in enumerate(tasks2[1].tables[:count])
    )


class TestDeploymentManagement:
    def test_create_and_status(self, service, tasks2):
        status = service.status("prod")
        assert status["name"] == "prod"
        assert status["num_tables"] == len(tasks2[0].tables)
        assert status["applied_version"] is None
        assert service.deployments() == ["prod"]

    def test_duplicate_name_rejected(self, service, engine, tasks2):
        with pytest.raises(ValueError, match="already exists"):
            service.create_deployment("prod", engine, tables=tasks2[0].tables)

    def test_empty_tables_rejected(self, engine):
        with pytest.raises(ValueError, match="at least one table"):
            ShardingService().create_deployment("x", engine, tables=())

    def test_unknown_deployment(self, service):
        with pytest.raises(DeploymentNotFoundError):
            service.status("nope")


class TestPlanApplyRollback:
    def test_plan_is_not_applied_until_apply(self, service):
        record = service.plan("prod")
        assert record.version == 1
        assert record.feasible
        assert service.status("prod")["applied_version"] is None
        applied = service.apply("prod")
        assert applied.version == 1
        assert service.status("prod")["applied_version"] == 1

    def test_plan_matches_direct_engine_call(self, service, engine, tasks2):
        record = service.plan("prod", strategy="beam")
        direct = engine.shard(
            ShardingRequest(
                ShardingTask(
                    tables=tasks2[0].tables,
                    num_devices=tasks2[0].num_devices,
                    memory_bytes=engine.cluster.config.memory_bytes,
                    task_id=record.version,
                ),
                strategy="beam",
            )
        )
        assert record.plan == direct.plan
        assert record.simulated_cost_ms == direct.simulated_cost_ms

    def test_apply_specific_version(self, service):
        service.plan("prod", strategy="beam")
        service.plan("prod", strategy="dim_greedy")
        applied = service.apply("prod", version=1)
        assert applied.version == 1
        assert applied.strategy == "beam"

    def test_apply_without_feasible_record_rejected(self, service):
        with pytest.raises(ValueError, match="no feasible plan record"):
            service.apply("prod")

    def test_rollback_needs_two_applies(self, service):
        service.plan("prod")
        service.apply("prod")
        with pytest.raises(ValueError, match="roll back"):
            service.rollback("prod")

    def test_rollback_restores_previous(self, service):
        service.plan("prod", strategy="beam")
        service.apply("prod", version=1)
        service.plan("prod", strategy="dim_greedy")
        service.apply("prod", version=2)
        restored = service.rollback("prod")
        assert restored.version == 1
        assert service.status("prod")["applied_version"] == 1

    def test_history_lists_all_versions(self, service):
        service.plan("prod")
        service.plan("prod")
        history = service.history("prod")
        assert [r["version"] for r in history] == [1, 2]

    def test_plan_batch_versions_in_order(self, service):
        records = service.plan_batch(
            "prod",
            [("beam", None, "a"), ("dim_greedy", None, "b")],
        )
        assert [r.version for r in records] == [1, 2]
        assert [r.request_id for r in records] == ["a", "b"]
        assert [r.strategy for r in records] == ["beam", "dim_greedy"]


class TestReshardLifecycle:
    """The end-to-end acceptance flow of the lifecycle API."""

    def test_end_to_end_lifecycle(self, service, engine, cluster2, tiny_bundle,
                                  small_pool, tasks2):
        # create -> plan -> apply
        v1 = service.plan("prod", strategy="beam")
        service.apply("prod")

        # inject drift: flatter index distributions degrade the model
        drifted_pool = TablePool(
            [
                dataclasses.replace(t, zipf_alpha=round(t.zipf_alpha * 0.5, 6))
                for t in small_pool.tables
            ],
            augment_dims=small_pool.augment_dims,
        )
        monitor = DriftMonitor(
            tiny_bundle, cluster2, drifted_pool, threshold_mse=1e-6, window=1
        )
        drift = monitor.probe(num_samples=4, seed=5)
        assert drift.needs_retraining

        # ... plus two new tables
        added = _fresh_tables(tasks2, count=2)
        delta = WorkloadDelta(add_tables=added, drift=drift)

        # First measure both candidates unconstrained, then pick a
        # migration budget between them so the budget is binding.
        probe = incremental_reshard(
            engine, v1.plan, v1.base_tables, delta,
            config=ReshardConfig(allow_full_search=True),
        )
        assert probe.full_diff is not None, "full candidate must be evaluated"
        scratch_cost = probe.full_response.simulated_cost_ms
        scratch_moved = probe.full_diff.moved_bytes
        assert scratch_moved > 0, "scratch re-search should reshuffle shards"
        budget = 0.9 * probe.full_diff.migration_cost_ms

        record = service.reshard(
            "prod",
            delta,
            config=ReshardConfig(migration_budget_ms=budget),
        )
        assert record.feasible
        assert record.kind == "reshard"
        assert record.metadata["drift_triggered"]
        assert record.metadata["within_budget"]
        assert record.diff is not None
        assert record.diff.migration_cost_ms <= budget

        # Acceptance: strictly fewer moved bytes than re-shard-from-
        # scratch, at a simulated cost within 5% of it.
        assert record.diff.moved_bytes < scratch_moved
        assert record.simulated_cost_ms <= 1.05 * scratch_cost

        # The reshard is live; rollback restores v1 byte-identically.
        assert service.status("prod")["applied_version"] == record.version
        restored = service.rollback("prod")
        assert restored.version == v1.version
        assert restored.plan == v1.plan
        assert restored.base_tables == v1.base_tables
        assert restored.to_dict() == v1.to_dict()

    def test_reshard_requires_applied_plan(self, service):
        with pytest.raises(ValueError, match="no applied plan"):
            service.reshard("prod", WorkloadDelta())

    def test_reshard_without_apply_keeps_live_plan(self, service, tasks2):
        service.plan("prod")
        service.apply("prod")
        record = service.reshard(
            "prod",
            WorkloadDelta(add_tables=_fresh_tables(tasks2)),
            apply=False,
        )
        assert record.version == 2
        assert service.status("prod")["applied_version"] == 1

    def test_reshard_updates_current_workload(self, service, tasks2):
        service.plan("prod")
        service.apply("prod")
        added = _fresh_tables(tasks2)
        service.reshard("prod", WorkloadDelta(add_tables=added))
        status = service.status("prod")
        assert status["num_tables"] >= len(tasks2[0].tables) + len(added)


class TestPersistence:
    def test_lifecycle_survives_reopen(self, engine, tasks2, tmp_path):
        store = PlanStore(tmp_path / "deployments")
        service = ShardingService(store)
        service.create_deployment(
            "prod", engine, tables=tasks2[0].tables, bundle_ref="bundles/x"
        )
        service.plan("prod")
        service.apply("prod")
        record = service.reshard(
            "prod", WorkloadDelta(add_tables=_fresh_tables(tasks2))
        )

        reopened = ShardingService.open(store, lambda meta: engine)
        assert reopened.deployments() == ["prod"]
        status = reopened.status("prod")
        assert status["applied_version"] == record.version
        live = reopened.applied_record("prod")
        assert live.plan == record.plan
        assert live.base_tables == record.base_tables
        assert [r["version"] for r in reopened.history("prod")] == [1, 2]

    def test_records_are_immutable_on_disk(self, engine, tasks2, tmp_path):
        store = PlanStore(tmp_path / "deployments")
        service = ShardingService(store)
        service.create_deployment("prod", engine, tables=tasks2[0].tables)
        record = service.plan("prod")
        with pytest.raises(FileExistsError, match="immutable"):
            store.save_record("prod", record.to_dict())

    def test_meta_round_trips(self, engine, tasks2, tmp_path):
        store = PlanStore(tmp_path / "deployments")
        service = ShardingService(store)
        service.create_deployment(
            "prod", engine, tables=tasks2[0].tables, bundle_ref="b@v1"
        )
        meta = store.read_deployment("prod").meta
        assert meta["name"] == "prod"
        assert meta["bundle_ref"] == "b@v1"
        assert meta["num_devices"] == engine.cluster.num_devices
        assert len(meta["tables"]) == len(tasks2[0].tables)


class TestPlanRecordWire:
    def test_round_trip_through_json(self, service, tasks2):
        service.plan("prod")
        service.apply("prod")
        record = service.reshard(
            "prod", WorkloadDelta(add_tables=_fresh_tables(tasks2))
        )
        restored = PlanRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert restored == record

    def test_version_mismatch_rejected(self, service):
        payload = service.plan("prod").to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            PlanRecord.from_dict(payload)


class TestOpenOnError:
    def test_one_bad_deployment_does_not_block_the_rest(
        self, engine, tasks2, tmp_path
    ):
        store = PlanStore(tmp_path / "deployments")
        service = ShardingService(store)
        service.create_deployment("good", engine, tables=tasks2[0].tables)
        service.create_deployment("bad", engine, tables=tasks2[1].tables)

        def factory(meta):
            if meta["name"] == "bad":
                raise ValueError("device-count mismatch")
            return engine

        with pytest.raises(ValueError, match="mismatch"):
            ShardingService.open(store, factory)  # default: raise

        reopened = ShardingService.open(store, factory, on_error="skip")
        assert reopened.deployments() == ["good"]
        assert "bad" in reopened.skipped_deployments
        assert "mismatch" in reopened.skipped_deployments["bad"]

    def test_invalid_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            ShardingService.open(
                PlanStore(tmp_path / "d"), lambda meta: None, on_error="ignore"
            )
