"""Negative tests: every validator invariant has a dedicated failure mode.

Each test constructs a *minimally* broken plan / record / transition and
asserts the exact ``ValidationError`` code — so a refactor of the
validator cannot silently weaken (or rename) an invariant.
"""

import dataclasses

import pytest

from repro.api.diff import PlanDiff, TableMove
from repro.api.reshard import WorkloadDelta
from repro.api.service import PlanRecord
from repro.core.plan import ShardingPlan
from repro.data.table import TableConfig
from repro.validation import PlanValidationError, PlanValidator

MEM = 10**8


@pytest.fixture()
def validator():
    return PlanValidator()


def _tables(count=2, dim=16, hash_size=2000, start_id=0):
    return tuple(
        TableConfig(
            table_id=start_id + i,
            hash_size=hash_size,
            dim=dim,
            pooling_factor=4.0,
            zipf_alpha=0.8,
        )
        for i in range(count)
    )


def _plan(assignment, column_plan=(), num_devices=2):
    return ShardingPlan(
        column_plan=tuple(column_plan),
        assignment=tuple(assignment),
        num_devices=num_devices,
    )


def _record(
    version,
    plan,
    tables,
    *,
    kind="plan",
    feasible=True,
    diff=None,
    metadata=None,
    num_devices=2,
):
    return PlanRecord(
        version=version,
        kind=kind,
        strategy="test",
        feasible=feasible,
        plan=plan,
        base_tables=tuple(tables),
        num_devices=num_devices,
        memory_bytes=MEM,
        simulated_cost_ms=1.0,
        sharding_time_s=0.0,
        created_at=0.0,
        diff=diff,
        metadata=dict(metadata or {}),
    )


class TestStructuralCodes:
    def test_plan_device_count(self, validator):
        report = validator.validate_plan(
            _plan([0, 1], num_devices=2), _tables(),
            num_devices=4, memory_bytes=MEM,
        )
        assert "plan/device-count" in report.error_codes

    def test_plan_column_plan(self, validator):
        report = validator.validate_plan(
            _plan([0, 1], column_plan=[5]), _tables(),
            num_devices=2, memory_bytes=MEM,
        )
        assert report.error_codes == ("plan/column-plan",)

    def test_plan_coverage(self, validator):
        # Two tables, one assignment entry: a shard is left unassigned.
        report = validator.validate_plan(
            _plan([0]), _tables(), num_devices=2, memory_bytes=MEM
        )
        assert report.error_codes == ("plan/coverage",)

    def test_plan_device_range(self, validator):
        # ShardingPlan's constructor refuses out-of-range devices, so a
        # broken plan can only come from outside the type system (a
        # corrupted store, a buggy deserializer) — bypass the
        # constructor the same way corruption would.
        plan = object.__new__(ShardingPlan)
        object.__setattr__(plan, "column_plan", ())
        object.__setattr__(plan, "assignment", (0, 7))
        object.__setattr__(plan, "num_devices", 2)
        report = validator.validate_plan(
            plan, _tables(), num_devices=2, memory_bytes=MEM
        )
        assert report.error_codes == ("plan/device-range",)

    def test_plan_memory(self, validator):
        report = validator.validate_plan(
            _plan([0, 0]), _tables(), num_devices=2, memory_bytes=1000
        )
        assert report.error_codes == ("plan/memory",)


class TestRecordCodes:
    def test_record_version(self, validator):
        record = _record(0, _plan([0, 1]), _tables())
        report = validator.validate_record(record)
        assert "record/version" in report.error_codes

    def test_record_plan_presence_feasible_without_plan(self, validator):
        record = _record(1, None, _tables(), feasible=True)
        report = validator.validate_record(record)
        assert report.error_codes == ("record/plan-presence",)

    def test_record_plan_presence_infeasible_with_plan(self, validator):
        record = _record(1, _plan([0, 1]), _tables(), feasible=False)
        report = validator.validate_record(record)
        assert report.error_codes == ("record/plan-presence",)


class TestDiffCodes:
    def test_diff_conservation(self, validator):
        # New plan drops a table but the diff accounts no removal.
        tables = _tables()
        old_plan = _plan([0, 1])
        new_plan = _plan([0])
        report = validator.validate_diff(
            PlanDiff(num_devices=2),  # empty: removal unaccounted
            old_plan, tables, new_plan, tables[:1],
        )
        assert "diff/conservation" in report.error_codes

    def test_diff_duplicate_move(self, validator):
        tables = _tables()
        old_plan = _plan([0, 1])
        new_plan = _plan([1, 0])
        move = TableMove(
            uid=tables[0].uid, occurrence=0,
            from_device=0, to_device=1, size_bytes=tables[0].size_bytes,
        )
        report = validator.validate_diff(
            PlanDiff(num_devices=2, moves=(move, move)),
            old_plan, tables, new_plan, tables,
        )
        assert "diff/duplicate-move" in report.error_codes

    def test_diff_move_of_unknown_shard(self, validator):
        tables = _tables()
        ghost = TableMove(
            uid="t999:d16:h2000:p4.0:z0.8", occurrence=0,
            from_device=0, to_device=1, size_bytes=1,
        )
        report = validator.validate_diff(
            PlanDiff(num_devices=2, moves=(ghost,)),
            _plan([0, 1]), tables, _plan([0, 1]), tables,
        )
        assert "diff/duplicate-move" in report.error_codes

    def test_diff_mismatch(self, validator):
        # Recorded diff claims a move the recomputation does not see.
        tables = _tables()
        old = _record(1, _plan([0, 1]), tables)
        stale = TableMove(
            uid=tables[0].uid, occurrence=0,
            from_device=0, to_device=1, size_bytes=tables[0].size_bytes,
        )
        new = _record(
            2,
            _plan([0, 1]),  # identical placement: a true diff is empty
            tables,
            kind="reshard",
            diff=PlanDiff(num_devices=2, moves=(stale,)),
            metadata={"base_version": 1},
        )
        report = validator.validate_transition(old, new)
        assert "diff/mismatch" in report.error_codes

    def test_diff_checks_skipped_without_base_anchor(self, validator):
        # The same stale diff is NOT held to account when the record
        # does not claim this base version (apply of an old version).
        tables = _tables()
        old = _record(1, _plan([0, 1]), tables)
        stale = TableMove(
            uid=tables[0].uid, occurrence=0,
            from_device=0, to_device=1, size_bytes=tables[0].size_bytes,
        )
        new = _record(
            2, _plan([0, 1]), tables, kind="reshard",
            diff=PlanDiff(num_devices=2, moves=(stale,)),
            metadata={"base_version": 7},
        )
        report = validator.validate_transition(old, new)
        assert "diff/mismatch" not in report.checks
        assert report.ok


class TestTransitionCodes:
    def test_corrupt_base_version_is_a_finding_not_a_crash(self, validator):
        tables = _tables()
        old = _record(1, _plan([0, 1]), tables)
        new = _record(
            2, _plan([0, 1]), tables, kind="reshard",
            metadata={"base_version": "two"},
        )
        report = validator.validate_transition(old, new)
        assert "transition/delta" in report.error_codes

    def test_stats_zero_move_respects_occurrence_swaps(self, validator):
        # A column-split table: two uid-equal shards on devices 0 and 1.
        # Swapping the occurrences is a genuine placement change, so the
        # zero-move law must NOT treat it as "placement held".
        table = _tables(1, dim=32)[0]
        updated = dataclasses.replace(table, pooling_factor=9.0)
        old_plan = _plan([0, 1], column_plan=[0])
        new_plan = _plan([1, 0], column_plan=[0])
        delta = WorkloadDelta(update_stats=(updated,))
        old = _record(1, old_plan, (table,))
        new = _record(
            2, new_plan, (updated,), kind="reshard",
            diff=PlanDiff.between(old_plan, (updated,), new_plan, (updated,)),
            metadata={"base_version": 1, "delta": delta.to_dict()},
        )
        report = validator.validate_transition(old, new)
        assert "transition/stats-zero-move" not in report.error_codes
        assert report.ok, report.errors

    def test_transition_delta(self, validator):
        tables = _tables()
        old = _record(1, _plan([0, 1]), tables)
        new = _record(
            2, _plan([0, 1]), tables, kind="reshard",
            diff=PlanDiff(num_devices=2),
            metadata={"base_version": 1, "delta": {"schema_version": 999}},
        )
        report = validator.validate_transition(old, new)
        assert "transition/delta" in report.error_codes

    def test_transition_stats_unknown_table(self, validator):
        tables = _tables()
        ghost_stats = dataclasses.replace(tables[0], table_id=999)
        delta = WorkloadDelta(update_stats=(ghost_stats,))
        old = _record(1, _plan([0, 1]), tables)
        new = _record(
            2, _plan([0, 1]), tables, kind="reshard",
            diff=PlanDiff(num_devices=2),
            metadata={"base_version": 1, "delta": delta.to_dict()},
        )
        report = validator.validate_transition(old, new)
        assert "transition/stats-unknown-table" in report.error_codes

    @pytest.mark.parametrize(
        "new_plan, new_tables",
        [
            # the new plan targets another device count
            (_plan([0, 2], num_devices=3), _tables()),
            # the new plan's assignment does not cover its base tables
            (_plan([0, 1]), _tables(count=3)),
        ],
    )
    def test_transition_diffable(self, validator, new_plan, new_tables):
        """Plans that cannot be diffed are a finding, not a crash."""
        old = _record(1, _plan([0, 1]), _tables())
        new = _record(2, new_plan, new_tables)
        report = validator.validate_transition(old, new)
        assert report.error_codes == ("transition/diffable",)

    def test_transition_stats_zero_move(self, validator):
        tables = _tables()
        updated = dataclasses.replace(tables[0], pooling_factor=9.0)
        delta = WorkloadDelta(update_stats=(updated,))
        new_tables = (updated, tables[1])
        old = _record(1, _plan([0, 1]), tables)
        # Same placement, but the recorded diff claims bytes moved: the
        # stats rewrite itself must be migration-free.
        phantom = TableMove(
            uid=updated.uid, occurrence=0,
            from_device=0, to_device=1, size_bytes=updated.size_bytes,
        )
        new = _record(
            2, _plan([0, 1]), new_tables, kind="reshard",
            diff=PlanDiff(num_devices=2, moves=(phantom,)),
            metadata={"base_version": 1, "delta": delta.to_dict()},
        )
        report = validator.validate_transition(old, new)
        assert "transition/stats-zero-move" in report.error_codes

    def test_clean_transition_passes_all_laws(self, validator):
        tables = _tables()
        extra = _tables(1, start_id=50)[0]
        new_tables = tables + (extra,)
        old_plan = _plan([0, 1])
        new_plan = _plan([0, 1, 0])
        old = _record(1, old_plan, tables)
        new = _record(
            2, new_plan, new_tables, kind="reshard",
            diff=PlanDiff.between(old_plan, tables, new_plan, new_tables),
            metadata={
                "base_version": 1,
                "delta": WorkloadDelta(add_tables=(extra,)).to_dict(),
            },
        )
        report = validator.validate_transition(old, new)
        assert report.ok, report.errors
        assert "diff/conservation" in report.checks
        assert "diff/mismatch" in report.checks


class TestStateCodes:
    def test_rollback_byte_identity(self, validator):
        record = _record(1, _plan([0, 1]), _tables())
        report = validator.validate_rollback(record, stored={"rewritten": 1})
        assert report.error_codes == ("rollback/byte-identity",)

    def test_rollback_tolerates_pre_validation_layer_records(self, validator):
        # Stores written before the validation layer lack the optional
        # 'validation' key; that is not history rewriting.
        record = _record(1, _plan([0, 1]), _tables())
        legacy = record.to_dict()
        del legacy["validation"]
        report = validator.validate_rollback(record, stored=legacy)
        assert report.ok, report.errors

    def test_state_applied_version_missing(self, validator):
        report = validator.validate_history([], [5])
        assert "state/applied-version" in report.error_codes

    def test_state_applied_version_infeasible(self, validator):
        record = _record(1, None, _tables(), feasible=False)
        report = validator.validate_history([record], [1])
        assert "state/applied-version" in report.error_codes


class TestEdgeBranches:
    def test_response_feasible_without_plan(self, validator):
        from repro.api import ShardingResponse
        from repro.data.tasks import ShardingTask

        task = ShardingTask(
            tables=_tables(), num_devices=2, memory_bytes=MEM
        )
        response = ShardingResponse(
            request_id="", strategy="test", feasible=True, plan=None,
            simulated_cost_ms=1.0, sharding_time_s=0.0,
        )
        report = validator.validate_response(response, task)
        assert report.error_codes == ("record/plan-presence",)

    def test_diff_accounting_undefined_for_illegal_plan(self, validator):
        # A structurally broken plan makes the accounting meaningless:
        # validate_diff runs no checks (the structural validators own
        # that failure).
        report = validator.validate_diff(
            PlanDiff(num_devices=2),
            _plan([0], column_plan=[9]), _tables(),
            _plan([0, 1]), _tables(),
        )
        assert report.checks == () and report.ok

    def test_transition_without_plans_is_vacuous(self, validator):
        old = _record(1, None, _tables(), feasible=False)
        new = _record(2, _plan([0, 1]), _tables())
        report = validator.validate_transition(old, new)
        assert report.checks == () and report.ok


def test_plan_validation_error_carries_report():
    validator = PlanValidator()
    report = validator.validate_plan(
        _plan([0, 1], num_devices=2), _tables(),
        num_devices=4, memory_bytes=MEM,
    )
    with pytest.raises(PlanValidationError, match="plan/device-count"):
        report.raise_if_failed()
    try:
        report.raise_if_failed()
    except PlanValidationError as exc:
        assert exc.report is report
