"""Tests for the scenario atlas (repro.scenarios + trace replay).

Mirrors the strategy-registry contract tests: every promised scenario is
registered, unknown names fail helpfully, duplicates are rejected — plus
the atlas-specific guarantees: same seed ⇒ byte-identical trace JSON and
byte-identical replay metrics, versioned schema round-trips, and the
stats-update reshard path pricing zero migration for pure access-pattern
changes.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.api import (
    ReshardConfig,
    ShardingEngine,
    ShardingRequest,
    ShardingService,
    WorkloadDelta,
    incremental_reshard,
)
from repro.config import SearchConfig
from repro.scenarios import (
    ScenarioReport,
    ScenarioStepMetrics,
    TraceStep,
    UnknownScenarioError,
    WorkloadTrace,
    available_scenarios,
    format_scenario_report,
    iter_scenarios,
    make_trace,
    rebuild_delta,
    register_scenario,
    scenario_info,
    stats_update_delta,
)
from repro.scenarios import registry as scenario_registry
from repro.evaluation import replay_workload_trace

#: Every scenario the atlas promises (ISSUE 4 acceptance floor).
EXPECTED = {
    "diurnal",
    "flash_crowd",
    "table_churn",
    "dim_migration",
    "skew_drift",
    "multi_tenant",
    "device_degradation",
    "capacity_crunch",
}

SMALL_SEARCH = SearchConfig(top_n=3, beam_width=2, max_steps=4, grid_points=4)


@pytest.fixture(scope="module")
def engine2(cluster2, tiny_bundle):
    """A small serving engine over the session bundle."""
    return ShardingEngine(cluster2, tiny_bundle, search=SMALL_SEARCH)


def small_trace(pool, name: str, seed: int = 3) -> WorkloadTrace:
    return make_trace(name, pool, num_devices=2, num_tables=8, seed=seed)


# ----------------------------------------------------------------------
# registry contract
# ----------------------------------------------------------------------


class TestRegistry:
    def test_every_expected_scenario_registered(self):
        assert EXPECTED <= set(available_scenarios())
        assert len(available_scenarios()) >= 8

    def test_every_info_is_complete(self):
        for info in iter_scenarios():
            assert info.description
            assert callable(info.factory)
            assert info.default_steps >= 1
            assert scenario_info(info.name) is info

    def test_iter_scenarios_sorted_and_complete(self):
        names = [info.name for info in iter_scenarios()]
        assert names == sorted(names)
        assert set(names) == set(available_scenarios())

    def test_tag_filtering(self):
        capacity = available_scenarios(tag="capacity")
        assert "capacity_crunch" in capacity
        assert "diurnal" not in capacity
        assert available_scenarios(tag="no-such-tag") == []

    def test_unknown_name_is_helpful(self, small_pool):
        with pytest.raises(UnknownScenarioError) as exc:
            make_trace("quantum_workload", small_pool)
        message = str(exc.value)
        assert "quantum_workload" in message
        assert "available scenarios" in message
        assert "diurnal" in message  # the listing names real scenarios

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("diurnal", description="clash")(lambda pool: None)

    def test_fresh_registration_round_trips(self):
        name = "test_only_scenario"
        try:
            @register_scenario(name, description="one step", default_steps=1)
            def _factory(pool, **kwargs):  # pragma: no cover - not replayed
                raise NotImplementedError

            assert name in available_scenarios()
            assert scenario_info(name).factory is _factory
        finally:
            scenario_registry._REGISTRY.pop(name, None)

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError, match="description"):
            register_scenario("nameless", description="")(lambda pool: None)


# ----------------------------------------------------------------------
# trace generation: determinism + schema
# ----------------------------------------------------------------------


class TestTraceGeneration:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_same_seed_byte_identical_json(self, small_pool, name):
        first = small_trace(small_pool, name).to_dict()
        second = small_trace(small_pool, name).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_different_trace(self, small_pool):
        a = small_trace(small_pool, "table_churn", seed=1)
        b = small_trace(small_pool, "table_churn", seed=2)
        assert a.to_dict() != b.to_dict()

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_round_trip_identity(self, small_pool, name):
        trace = small_trace(small_pool, name)
        assert WorkloadTrace.from_dict(trace.to_dict()) == trace

    def test_timestamps_strictly_increase(self, small_pool):
        for name in sorted(EXPECTED):
            times = [s.timestamp for s in small_trace(small_pool, name).steps]
            assert all(b > a for a, b in zip(times, times[1:])), name

    def test_scenario_knobs_respected(self, small_pool):
        trace = make_trace(
            "table_churn", small_pool, num_devices=2, num_tables=6,
            steps=3, seed=0,
        )
        assert trace.num_steps == 3
        assert trace.num_devices == 2

    def test_too_few_steps_rejected(self, small_pool):
        with pytest.raises(ValueError, match="steps"):
            make_trace("flash_crowd", small_pool, steps=1)


class TestTraceSchema:
    def test_version_mismatch_rejected(self, small_pool):
        payload = small_trace(small_pool, "diurnal").to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            WorkloadTrace.from_dict(payload)

    def test_step_version_mismatch_rejected(self):
        step = TraceStep(timestamp=1.0)
        payload = step.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            TraceStep.from_dict(payload)

    def test_step_validation(self):
        with pytest.raises(ValueError, match="traffic_multiplier"):
            TraceStep(timestamp=1.0, traffic_multiplier=0.0)
        with pytest.raises(ValueError, match="memory_scale"):
            TraceStep(timestamp=1.0, memory_scale=-1.0)

    def test_trace_validation(self, small_pool):
        trace = small_trace(small_pool, "diurnal")
        with pytest.raises(ValueError, match="increasing"):
            trace.with_steps(
                [TraceStep(timestamp=2.0), TraceStep(timestamp=1.0)]
            )
        with pytest.raises(ValueError, match="initial table"):
            dataclasses.replace(trace, initial_tables=())


# ----------------------------------------------------------------------
# the stats-update delta
# ----------------------------------------------------------------------


class TestStatsUpdates:
    def test_delta_helpers(self, small_pool):
        tables = tuple(small_pool.tables[:2])
        stats = stats_update_delta(tables)
        assert stats.update_stats == tables
        assert not stats.add_tables and not stats.remove_table_ids
        assert not stats.is_empty
        rebuild = rebuild_delta(tables)
        assert rebuild.add_tables == tables
        assert rebuild.remove_table_ids == tuple(t.table_id for t in tables)

    def test_contradictory_delta_rejected(self, small_pool):
        table = small_pool.tables[0]
        with pytest.raises(ValueError, match="update_stats"):
            WorkloadDelta(
                update_stats=(table,), remove_table_ids=(table.table_id,)
            )
        with pytest.raises(ValueError, match="update_stats"):
            WorkloadDelta(update_stats=(table, table))

    def test_round_trip(self, small_pool):
        delta = stats_update_delta(small_pool.tables[:2])
        assert WorkloadDelta.from_dict(delta.to_dict()) == delta

    def test_unknown_update_id_rejected(self, engine2, tasks2):
        task = tasks2[0]
        response = engine2.shard(ShardingRequest(task))
        assert response.feasible
        ghost = dataclasses.replace(task.tables[0], table_id=987654)
        with pytest.raises(ValueError, match="not in the applied workload"):
            incremental_reshard(
                engine2,
                response.plan,
                task.tables,
                WorkloadDelta(update_stats=(ghost,)),
            )

    def test_pure_stats_update_moves_no_bytes(self, engine2, tasks2):
        """An access-pattern change must not be priced as migration."""
        task = tasks2[0]
        response = engine2.shard(ShardingRequest(task))
        assert response.feasible
        updates = tuple(
            dataclasses.replace(
                t, pooling_factor=round(t.pooling_factor * 3.0, 4)
            )
            for t in task.tables[:2]
        )
        result = incremental_reshard(
            engine2,
            response.plan,
            task.tables,
            WorkloadDelta(update_stats=updates),
            config=ReshardConfig(allow_full_search=False, max_refine_steps=0),
        )
        assert result.chosen == "incremental"
        assert result.response.feasible
        assert result.diff.moved_bytes == 0
        assert result.diff.migration_cost_ms == 0.0
        # The updated statistics reached the task both candidates answer.
        updated = {t.table_id: t for t in updates}
        for t in result.new_task.tables:
            if t.table_id in updated:
                assert t.pooling_factor == updated[t.table_id].pooling_factor


# ----------------------------------------------------------------------
# replay through the lifecycle service
# ----------------------------------------------------------------------


class TestReplay:
    @pytest.fixture(scope="class")
    def crowd_report(self, small_pool, engine2):
        trace = make_trace(
            "flash_crowd", small_pool, num_devices=2, num_tables=8,
            steps=5, seed=3,
        )
        config = ReshardConfig(
            migration_budget_ms=2_000.0, max_refine_steps=8
        )
        return trace, replay_workload_trace(
            trace, engine2, reshard_config=config
        )

    def test_report_shape(self, crowd_report):
        trace, report = crowd_report
        assert report.num_steps == trace.num_steps + 1
        assert report.steps[0].chosen == "plan"
        assert report.steps[0].feasible
        assert [s.step for s in report.steps] == list(range(report.num_steps))
        assert report.scenario == "flash_crowd"

    def test_serving_cost_tracks_traffic(self, crowd_report):
        _, report = crowd_report
        for s in report.steps:
            assert math.isfinite(s.serving_cost_ms)
            if s.traffic_multiplier > 1.0 and not s.resharded:
                # More lookups on the same plan cannot get cheaper.
                assert s.serving_cost_ms > s.plan_cost_ms

    def test_cumulative_columns_are_running_sums(self, crowd_report):
        _, report = crowd_report
        moved = 0.0
        scratch = 0.0
        for s in report.steps:
            moved += s.moved_mb
            scratch += s.scratch_moved_mb
            assert s.cumulative_moved_mb == pytest.approx(moved)
            assert s.cumulative_scratch_moved_mb == pytest.approx(scratch)

    def test_migration_budget_binds_every_in_budget_step(self, crowd_report):
        # Whatever the from-scratch candidate would migrate, a step
        # flagged within budget migrated no more than the budget; a step
        # where no candidate fit is flagged, not hidden.
        _, report = crowd_report
        budget = report.reshard_config["migration_budget_ms"]
        assert budget == 2_000.0
        assert any(s.resharded for s in report.steps)
        for s in report.steps:
            if s.within_budget:
                assert s.migration_ms <= budget + 1e-9

    def test_scratch_candidate_reported_each_feasible_reshard(
        self, crowd_report
    ):
        _, report = crowd_report
        resharded = [s for s in report.steps if s.resharded and s.feasible]
        assert resharded
        for s in resharded:
            assert math.isfinite(s.scratch_cost_ms)
            assert math.isfinite(s.scratch_migration_ms)
            assert s.chosen in ("incremental", "full")

    def test_step_at_or_before_the_epoch_rejected(self, small_pool, engine2):
        # The initial plan goes live at t=0, so every step must follow it.
        trace = small_trace(small_pool, "flash_crowd")
        for timestamp in (0.0, -1.0):
            early = trace.with_steps(
                [dataclasses.replace(trace.steps[0], timestamp=timestamp),
                 *trace.steps[1:]]
            )
            with pytest.raises(ValueError, match=f"t={timestamp}"):
                replay_workload_trace(early, engine2)

    def test_replay_metrics_deterministic(
        self, small_pool, cluster2, tiny_bundle, crowd_report
    ):
        trace, report = crowd_report
        fresh_engine = ShardingEngine(
            cluster2, tiny_bundle, search=SMALL_SEARCH
        )
        again = replay_workload_trace(
            trace,
            fresh_engine,
            reshard_config=ReshardConfig(
                migration_budget_ms=2_000.0, max_refine_steps=8
            ),
        )
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )

    def test_report_round_trip_and_version_check(self, crowd_report):
        _, report = crowd_report
        assert ScenarioReport.from_dict(report.to_dict()) == report
        payload = report.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            ScenarioReport.from_dict(payload)

    def test_format_report_mentions_every_step(self, crowd_report):
        _, report = crowd_report
        text = format_scenario_report(report)
        assert "flash_crowd" in text
        for s in report.steps:
            assert f"\n{s.step} " in text or text.startswith(f"{s.step} ")

    def test_memory_scale_reshards_deployment(self, small_pool, engine2):
        trace = make_trace(
            "device_degradation", small_pool, num_devices=2, num_tables=8,
            steps=4, seed=3,
        )
        service = ShardingService()
        report = replay_workload_trace(
            trace,
            engine2,
            reshard_config=ReshardConfig(max_refine_steps=4),
            service=service,
            deployment="degraded",
        )
        scales = [s.memory_scale for s in trace.steps]
        # The deployment's budget ends at the final step's scale.
        expected = int(round(trace.memory_bytes * scales[-1]))
        assert service.status("degraded")["memory_bytes"] == expected
        reported = [s.memory_bytes for s in report.steps[1:]]
        assert reported == [
            int(round(trace.memory_bytes * s)) for s in scales
        ]
        # Scale changes reshard; repeated scales hold.
        changed = [
            i for i, s in enumerate(scales)
            if s != ([1.0] + scales)[i]
        ]
        resharded = [
            i for i, row in enumerate(report.steps[1:]) if row.resharded
        ]
        assert resharded == changed

    def test_engine_without_bundle_rejected(self, small_pool, cluster2):
        trace = small_trace(small_pool, "diurnal")
        with pytest.raises(ValueError, match="bundle"):
            replay_workload_trace(trace, ShardingEngine(cluster2))

    def test_device_count_mismatch_rejected(
        self, small_pool, cluster2, tiny_bundle
    ):
        trace = make_trace(
            "diurnal", small_pool, num_devices=4, num_tables=8, seed=3
        )
        engine = ShardingEngine(cluster2, tiny_bundle, search=SMALL_SEARCH)
        with pytest.raises(ValueError, match="devices"):
            replay_workload_trace(trace, engine)


class TestServiceMemoryHook:
    def test_reshard_memory_override_persists(self, engine2, tasks2):
        task = tasks2[0]
        service = ShardingService()
        service.create_deployment(
            "shrink", engine2, tables=task.tables,
            memory_bytes=task.memory_bytes,
        )
        service.plan("shrink")
        service.apply("shrink")
        new_memory = task.memory_bytes // 2
        record = service.reshard(
            "shrink",
            WorkloadDelta(),
            config=ReshardConfig(max_refine_steps=0),
            memory_bytes=new_memory,
        )
        assert record.memory_bytes == new_memory
        assert service.status("shrink")["memory_bytes"] == new_memory

    def test_reshard_memory_must_be_positive(self, engine2, tasks2):
        task = tasks2[0]
        service = ShardingService()
        service.create_deployment("bad", engine2, tables=task.tables)
        service.plan("bad")
        service.apply("bad")
        with pytest.raises(ValueError, match="memory_bytes"):
            service.reshard("bad", WorkloadDelta(), memory_bytes=0)


class TestBudgetPersistence:
    """The degraded budget is deployment state: it survives restarts."""

    def _factory(self, cluster2, tiny_bundle):
        def factory(meta):
            return ShardingEngine(cluster2, tiny_bundle, search=SMALL_SEARCH)
        return factory

    def test_budget_survives_reopen_and_rollback(
        self, tmp_path, cluster2, tiny_bundle, engine2, tasks2
    ):
        from repro.api import PlanStore

        task = tasks2[0]
        store = PlanStore(tmp_path / "deps")
        service = ShardingService(store)
        service.create_deployment(
            "degraded", engine2, tables=task.tables,
            memory_bytes=task.memory_bytes,
        )
        service.plan("degraded")
        service.apply("degraded")
        # A second applied version, so a rollback target exists whether
        # or not the budgeted reshard below ends up applied.
        service.plan("degraded")
        service.apply("degraded")
        shrunk = int(task.memory_bytes * 0.9)
        service.reshard(
            "degraded",
            WorkloadDelta(),
            config=ReshardConfig(max_refine_steps=0),
            memory_bytes=shrunk,
        )
        # Rolling the *plan* back does not restore the lost capacity.
        service.rollback("degraded")
        assert service.status("degraded")["memory_bytes"] == shrunk
        # Neither does a restart.
        reopened = ShardingService.open(
            store, self._factory(cluster2, tiny_bundle)
        )
        assert reopened.status("degraded")["memory_bytes"] == shrunk

    def test_budget_survives_infeasible_reshard_restart(
        self, tmp_path, cluster2, tiny_bundle, engine2, tasks2
    ):
        from repro.api import PlanStore

        task = tasks2[0]
        store = PlanStore(tmp_path / "deps")
        service = ShardingService(store)
        service.create_deployment(
            "squeezed", engine2, tables=task.tables,
            memory_bytes=task.memory_bytes,
        )
        service.plan("squeezed")
        service.apply("squeezed")
        # A budget nothing fits: the reshard records an infeasible
        # version and applies nothing — but the capacity is still gone.
        record = service.reshard(
            "squeezed",
            WorkloadDelta(),
            config=ReshardConfig(max_refine_steps=0),
            memory_bytes=1,
        )
        assert not record.feasible
        assert service.status("squeezed")["memory_bytes"] == 1
        reopened = ShardingService.open(
            store, self._factory(cluster2, tiny_bundle)
        )
        assert reopened.status("squeezed")["memory_bytes"] == 1


class TestReplayExitContract:
    def test_all_reshard_steps_infeasible_is_exit_2(self, capsys):
        from repro.cli import EXIT_ALL_INFEASIBLE, _replay_exit

        def row(step, resharded, feasible):
            return ScenarioStepMetrics(
                step=step, timestamp=float(step), label="", resharded=resharded,
                feasible=feasible, chosen="none" if resharded else "plan",
                num_tables=1, num_shards=1, traffic_multiplier=1.0,
                memory_bytes=1, plan_cost_ms=1.0, serving_cost_ms=1.0,
                moved_mb=0.0, migration_ms=0.0, within_budget=False,
                budget_bound=False, scratch_cost_ms=math.nan,
                scratch_moved_mb=0.0, scratch_migration_ms=math.nan,
                cumulative_moved_mb=0.0, cumulative_scratch_moved_mb=0.0,
            )

        report = ScenarioReport(
            scenario="synthetic", seed=0, num_devices=2, memory_bytes=1,
            strategy=None, reshard_config={},
            steps=(row(0, False, True), row(1, True, False), row(2, True, False)),
        )
        assert _replay_exit(report, "synthetic") == EXIT_ALL_INFEASIBLE
        err = capsys.readouterr().err
        assert "reshard steps" in err and "1, 2" in err

    def test_partial_infeasibility_is_exit_0(self, capsys):
        from repro.cli import _replay_exit

        # One feasible reshard step flips the exit back to 0.
        def row(step, resharded, feasible):
            return ScenarioStepMetrics(
                step=step, timestamp=float(step), label="", resharded=resharded,
                feasible=feasible, chosen="incremental" if feasible else "none",
                num_tables=1, num_shards=1, traffic_multiplier=1.0,
                memory_bytes=1, plan_cost_ms=1.0, serving_cost_ms=1.0,
                moved_mb=0.0, migration_ms=0.0, within_budget=True,
                budget_bound=False, scratch_cost_ms=math.nan,
                scratch_moved_mb=0.0, scratch_migration_ms=math.nan,
                cumulative_moved_mb=0.0, cumulative_scratch_moved_mb=0.0,
            )
        report = ScenarioReport(
            scenario="synthetic", seed=0, num_devices=2, memory_bytes=1,
            strategy=None, reshard_config={},
            steps=(row(0, False, True), row(1, True, True), row(2, True, False)),
        )
        assert _replay_exit(report, "synthetic") == 0
