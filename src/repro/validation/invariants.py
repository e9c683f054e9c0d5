"""Structural invariants and lifecycle conservation laws of sharding plans.

The service layer mutates long-lived state — applied plans, append-only
record histories, incremental reshards — and this module is the
*independent checking layer* over all of it: :class:`PlanValidator`
re-derives every invariant from first principles (the plan, the table
list, the memory model) rather than trusting the code that produced the
result.  Verifiability-first systems work argues production ML
infrastructure needs exactly this separation: the component that checks
a result must not share the code path that computed it.

Three families of invariants:

**Structural** (one plan, one table list):

- ``plan/device-count`` — the plan targets the deployment's device count;
- ``plan/column-plan`` — the split sequence is legal over the base tables
  (every step indexes an existing table, no split below the minimum
  dimension);
- ``plan/coverage`` — the assignment covers the column-sharded table list
  exactly (no shard unassigned, no phantom assignment);
- ``plan/device-range`` — every assignment entry names a real device;
- ``plan/memory`` — per-device footprint (weights + row-wise optimizer
  state) fits the budget.

**Record coherence** (one :class:`~repro.api.service.PlanRecord`):

- ``record/version`` — versions are 1-based;
- ``record/plan-presence`` — feasible records carry a plan, infeasible
  records do not.

**Conservation laws** (lifecycle transitions):

- ``diff/conservation`` — a :class:`~repro.api.diff.PlanDiff` between two
  plans accounts for every shard exactly once as kept, moved, created or
  removed, and the byte totals balance
  (``old - removed + created == new``);
- ``diff/duplicate-move`` — no shard is moved twice, and every move
  references a shard the old plan actually had;
- ``diff/mismatch`` — a recorded diff matches a fresh recomputation from
  the two plans it claims to relate;
- ``transition/delta`` — a reshard record's workload delta deserializes;
- ``transition/stats-unknown-table`` — stats updates reference tables the
  old workload actually served;
- ``transition/diffable`` — the two plans can be diffed at all: they
  target the same device count and each covers its own base tables;
- ``transition/stats-zero-move`` — a pure ``update_stats`` reshard that
  holds the placement moves zero bytes (the update rewrites statistics in
  place; only voluntary rebalancing may move state);
- ``rollback/byte-identity`` — a restored plan record is byte-identical
  to its stored serialization (rollback replays history, never rewrites
  it);
- ``state/applied-version`` — the applied stack references only stored,
  feasible records.

Every check runs is recorded in :attr:`ValidationReport.checks`; every
violation is a :class:`ValidationError` with a stable ``code`` from the
list above, so tests (and operators) can assert the *exact* failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.api.diff import PlanDiff
from repro.api.reshard import WorkloadDelta, apply_stats_updates
from repro.api.schema import SCHEMA_VERSION, check_version
from repro.core.plan import ShardingPlan, apply_column_plan
from repro.data.table import TableConfig
from repro.hardware.memory import MemoryModel

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (service imports us)
    from repro.api.schema import ShardingResponse
    from repro.api.service import PlanRecord
    from repro.data.tasks import ShardingTask

__all__ = [
    "PlanValidationError",
    "PlanValidator",
    "ValidationError",
    "ValidationReport",
]


@dataclass(frozen=True)
class ValidationError:
    """One invariant violation.

    Attributes:
        code: stable machine-readable identifier (``"plan/memory"``,
            ``"diff/conservation"``, ...) — the contract negative tests
            assert against.
        message: human-readable diagnosis.
        context: JSON-safe details (device id, byte counts, ...).
    """

    code: str
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view of the violation."""
        return {
            "code": self.code,
            "message": self.message,
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ValidationError":
        """Inverse of :meth:`to_dict`."""
        return cls(
            code=str(data["code"]),
            message=str(data.get("message", "")),
            context=dict(data.get("context", {})),
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one validation pass.

    Attributes:
        subject: what was validated (``"prod/v3"``, ``"history:prod"``).
        checks: codes of the invariant checks that actually ran (a check
            that could not run — e.g. a memory check on an infeasible
            record without a plan — is absent, not silently passed).
        errors: the violations found (empty = all checks passed).
        code_fingerprint: provenance stamp — the fingerprint of the
            source tree that ran the checks (see
            :func:`repro.provenance.chain.stamp_fingerprint`); empty for
            unstamped reports.
        validated_digest: provenance stamp — the canonical digest of the
            record content the checks ran against (see
            :func:`repro.provenance.chain.record_digest`); empty for
            unstamped reports.
    """

    subject: str
    checks: tuple[str, ...] = ()
    errors: tuple[ValidationError, ...] = ()
    code_fingerprint: str = ""
    validated_digest: str = ""

    @property
    def ok(self) -> bool:
        """Whether every executed check passed."""
        return not self.errors

    @property
    def error_codes(self) -> tuple[str, ...]:
        """The violation codes, in discovery order."""
        return tuple(e.code for e in self.errors)

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        """This report plus another's checks and errors (same subject)."""
        return replace(
            self,
            checks=self.checks + other.checks,
            errors=self.errors + other.errors,
        )

    def raise_if_failed(self) -> None:
        """Raise :class:`PlanValidationError` when any check failed."""
        if not self.ok:
            raise PlanValidationError(self)

    def stamped(self, fingerprint: str, digest: str) -> "ValidationReport":
        """This report carrying provenance stamps.

        ``fingerprint`` names the source tree that ran the checks,
        ``digest`` the canonical record content they ran against — the
        offline auditor re-derives both and flags disagreement.
        """
        return replace(
            self, code_fingerprint=fingerprint, validated_digest=digest
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary.

        The provenance stamps are emitted only when present, so reports
        written before the stamps existed serialize byte-identically to
        how they always did.
        """
        payload = {
            "schema_version": SCHEMA_VERSION,
            "subject": self.subject,
            "ok": self.ok,
            "checks": list(self.checks),
            "errors": [e.to_dict() for e in self.errors],
        }
        if self.code_fingerprint:
            payload["code_fingerprint"] = self.code_fingerprint
        if self.validated_digest:
            payload["validated_digest"] = self.validated_digest
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ValidationReport":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        check_version(data, "validation report")
        return cls(
            subject=str(data.get("subject", "")),
            checks=tuple(str(c) for c in data.get("checks", ())),
            errors=tuple(
                ValidationError.from_dict(e) for e in data.get("errors", ())
            ),
            code_fingerprint=str(data.get("code_fingerprint", "")),
            validated_digest=str(data.get("validated_digest", "")),
        )


class PlanValidationError(ValueError):
    """A plan or lifecycle transition violated an invariant.

    Raised by :class:`~repro.api.service.ShardingService` (with
    ``validate=True``) before an invalid plan can go live; carries the
    full :attr:`report`.
    """

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        detail = "; ".join(
            f"{e.code}: {e.message}" for e in report.errors
        )
        super().__init__(
            f"validation of {report.subject!r} failed "
            f"({len(report.errors)} violation(s)): {detail}"
        )


class _Collector:
    """Accumulates executed checks and violations for one report."""

    def __init__(self, subject: str) -> None:
        self.subject = subject
        self.checks: list[str] = []
        self.errors: list[ValidationError] = []

    def ran(self, code: str) -> None:
        self.checks.append(code)

    def fail(self, code: str, message: str, **context: Any) -> None:
        self.errors.append(ValidationError(code, message, dict(context)))

    def report(self) -> ValidationReport:
        return ValidationReport(
            subject=self.subject,
            checks=tuple(self.checks),
            errors=tuple(self.errors),
        )


def _shard_entries(
    plan: ShardingPlan, base_tables: Sequence[TableConfig]
) -> list[tuple[str, int, int, int]]:
    """``(uid, occurrence, device, size_bytes)`` per shard of a plan."""
    return plan.shard_identities(base_tables)


class PlanValidator:
    """Re-derive and check every plan/lifecycle invariant independently.

    Stateless and thread-safe; one instance can serve a whole
    :class:`~repro.api.service.ShardingService`.

    Args:
        optimizer_rowwise_bytes: optimizer state bytes per table row used
            by the memory-feasibility check (must match the deployment's
            :class:`~repro.hardware.memory.MemoryModel` contract; 4 =
            row-wise AdaGrad's fp32 accumulator, the search's default).
    """

    #: Every invariant code this validator can emit.
    ALL_CODES = (
        "plan/device-count",
        "plan/column-plan",
        "plan/coverage",
        "plan/device-range",
        "plan/memory",
        "record/version",
        "record/plan-presence",
        "diff/conservation",
        "diff/duplicate-move",
        "diff/mismatch",
        "transition/delta",
        "transition/stats-unknown-table",
        "transition/diffable",
        "transition/stats-zero-move",
        "rollback/byte-identity",
        "state/applied-version",
    )

    def __init__(self, optimizer_rowwise_bytes: int = 4) -> None:
        self.optimizer_rowwise_bytes = optimizer_rowwise_bytes

    # ------------------------------------------------------------------
    # structural invariants
    # ------------------------------------------------------------------

    def validate_plan(
        self,
        plan: ShardingPlan,
        base_tables: Sequence[TableConfig],
        *,
        num_devices: int,
        memory_bytes: int,
        subject: str = "plan",
    ) -> ValidationReport:
        """Structural invariants of one plan over its base table list."""
        out = _Collector(subject)
        self._check_plan(out, plan, base_tables, num_devices, memory_bytes)
        return out.report()

    def _check_plan(
        self,
        out: _Collector,
        plan: ShardingPlan,
        base_tables: Sequence[TableConfig],
        num_devices: int,
        memory_bytes: int,
    ) -> None:
        out.ran("plan/device-count")
        if plan.num_devices != num_devices:
            out.fail(
                "plan/device-count",
                f"plan targets {plan.num_devices} devices, deployment has "
                f"{num_devices}",
                plan_devices=plan.num_devices,
                expected_devices=num_devices,
            )

        out.ran("plan/column-plan")
        try:
            sharded = apply_column_plan(base_tables, plan.column_plan)
        except (IndexError, ValueError) as exc:
            out.fail("plan/column-plan", str(exc))
            return  # nothing downstream is well-defined

        out.ran("plan/coverage")
        if len(sharded) != len(plan.assignment):
            out.fail(
                "plan/coverage",
                f"column plan produces {len(sharded)} shards but the "
                f"assignment covers {len(plan.assignment)}",
                num_shards=len(sharded),
                num_assigned=len(plan.assignment),
            )
            return  # alignment-dependent checks are meaningless

        out.ran("plan/device-range")
        bad = [d for d in plan.assignment if not 0 <= d < plan.num_devices]
        if bad:
            out.fail(
                "plan/device-range",
                f"assignment targets devices {sorted(set(bad))}, valid "
                f"range is 0..{plan.num_devices - 1}",
                devices=sorted(set(bad)),
            )
            return

        out.ran("plan/memory")
        memory = MemoryModel(
            memory_bytes, optimizer_rowwise_bytes=self.optimizer_rowwise_bytes
        )
        used = [0] * plan.num_devices
        for table, device in zip(sharded, plan.assignment):
            used[device] += memory.table_bytes(table)
        for device, device_used in enumerate(used):
            if device_used > memory_bytes:
                out.fail(
                    "plan/memory",
                    f"device {device} needs {device_used} B, budget is "
                    f"{memory_bytes} B",
                    device=device,
                    used_bytes=device_used,
                    memory_bytes=memory_bytes,
                )

    # ------------------------------------------------------------------
    # record coherence
    # ------------------------------------------------------------------

    def validate_record(
        self,
        record: "PlanRecord",
        subject: str | None = None,
        memory_bytes: int | None = None,
    ) -> ValidationReport:
        """Record coherence plus structural invariants of its plan.

        Args:
            record: the plan record under audit.
            subject: report label.
            memory_bytes: the per-device budget the plan must fit *now*.
                Defaults to the record's creation-time snapshot; gates
                that put a plan live (apply/rollback) must pass the
                deployment's current budget instead — capacity lost to a
                later ``reshard(memory_bytes=...)`` makes an old plan's
                own snapshot a stale contract.
        """
        out = _Collector(subject or f"record:v{record.version}")

        out.ran("record/version")
        if record.version < 1:
            out.fail(
                "record/version",
                f"record versions are 1-based, got {record.version}",
                version=record.version,
            )

        out.ran("record/plan-presence")
        if record.feasible and record.plan is None:
            out.fail(
                "record/plan-presence",
                "record claims feasibility but carries no plan",
            )
        elif not record.feasible and record.plan is not None:
            out.fail(
                "record/plan-presence",
                "record claims infeasibility but carries a plan",
            )

        if record.feasible and record.plan is not None:
            self._check_plan(
                out,
                record.plan,
                record.base_tables,
                record.num_devices,
                record.memory_bytes if memory_bytes is None else memory_bytes,
            )
        return out.report()

    def validate_response(
        self, response: "ShardingResponse", task: "ShardingTask"
    ) -> ValidationReport:
        """Structural invariants of an engine response's plan for a task."""
        out = _Collector(f"response:{response.strategy}")
        out.ran("record/plan-presence")
        if response.feasible and response.plan is None:
            out.fail(
                "record/plan-presence",
                "response claims feasibility but carries no plan",
            )
        if response.feasible and response.plan is not None:
            self._check_plan(
                out,
                response.plan,
                response.plan_tables(task),
                task.num_devices,
                task.memory_bytes,
            )
        return out.report()

    # ------------------------------------------------------------------
    # conservation laws
    # ------------------------------------------------------------------

    def validate_diff(
        self,
        diff: PlanDiff,
        old_plan: ShardingPlan,
        old_tables: Sequence[TableConfig],
        new_plan: ShardingPlan,
        new_tables: Sequence[TableConfig],
        subject: str = "diff",
    ) -> ValidationReport:
        """Conservation accounting of a diff against the plans it relates.

        Every old shard must be accounted exactly once as kept, moved or
        removed; every new shard as kept, moved or created; the byte
        totals must balance.  The accounting is recomputed from the two
        plans' shard identities — not from the diff algorithm — so a
        corrupted or stale diff cannot vouch for itself.
        """
        out = _Collector(subject)
        self._check_diff(out, diff, old_plan, old_tables, new_plan, new_tables)
        return out.report()

    def _check_diff(
        self,
        out: _Collector,
        diff: PlanDiff,
        old_plan: ShardingPlan,
        old_tables: Sequence[TableConfig],
        new_plan: ShardingPlan,
        new_tables: Sequence[TableConfig],
    ) -> None:
        try:
            old_entries = _shard_entries(old_plan, old_tables)
            new_entries = _shard_entries(new_plan, new_tables)
        except (IndexError, ValueError):
            return  # structural checks report this; accounting undefined

        out.ran("diff/conservation")
        old_bytes = sum(size for _, _, _, size in old_entries)
        new_bytes = sum(size for _, _, _, size in new_entries)
        kept_old = len(old_entries) - len(diff.removed)
        kept_new = len(new_entries) - len(diff.created)
        if kept_old != kept_new:
            out.fail(
                "diff/conservation",
                f"diff keeps {kept_old} of {len(old_entries)} old shards "
                f"but {kept_new} of {len(new_entries)} new shards",
                old_shards=len(old_entries),
                new_shards=len(new_entries),
                removed=len(diff.removed),
                created=len(diff.created),
            )
        if old_bytes - diff.removed_bytes + diff.created_bytes != new_bytes:
            out.fail(
                "diff/conservation",
                f"byte totals do not balance: {old_bytes} - "
                f"{diff.removed_bytes} (removed) + {diff.created_bytes} "
                f"(created) != {new_bytes}",
                old_bytes=old_bytes,
                new_bytes=new_bytes,
                removed_bytes=diff.removed_bytes,
                created_bytes=diff.created_bytes,
            )

        out.ran("diff/duplicate-move")
        old_keys = {(uid, occ) for uid, occ, _, _ in old_entries}
        seen: set[tuple[str, int]] = set()
        for move in diff.moves:
            key = (move.uid, move.occurrence)
            if key in seen:
                out.fail(
                    "diff/duplicate-move",
                    f"shard {move.uid} occurrence {move.occurrence} is "
                    "moved more than once",
                    uid=move.uid,
                    occurrence=move.occurrence,
                )
            seen.add(key)
            if key not in old_keys:
                out.fail(
                    "diff/duplicate-move",
                    f"move references shard {move.uid} occurrence "
                    f"{move.occurrence} which the old plan does not have",
                    uid=move.uid,
                    occurrence=move.occurrence,
                )

    def validate_transition(
        self, old: "PlanRecord", new: "PlanRecord"
    ) -> ValidationReport:
        """Conservation laws of one applied-plan transition.

        ``old`` is the record that was live when ``new`` goes live.  The
        recorded diff is held to account only when ``new`` declares the
        base it was diffed against (``metadata["base_version"]``) and it
        matches ``old`` — applying an arbitrary historical version is
        legal and carries no diff contract against the interim plan.
        """
        out = _Collector(f"transition:v{old.version}->v{new.version}")
        if old.plan is None or new.plan is None:
            return out.report()

        base_version = new.metadata.get("base_version")
        try:
            anchored = (
                base_version is not None and int(base_version) == old.version
            )
        except (TypeError, ValueError):
            # Corrupted anchor metadata is a finding, not a crash — the
            # validator must survive exactly the data it exists to audit.
            out.ran("transition/delta")
            out.fail(
                "transition/delta",
                f"metadata base_version {base_version!r} is not an integer",
            )
            anchored = False

        delta: WorkloadDelta | None = None
        delta_data = new.metadata.get("delta")
        if anchored and delta_data is not None:
            out.ran("transition/delta")
            try:
                delta = WorkloadDelta.from_dict(delta_data)
            except (ValueError, KeyError, TypeError) as exc:
                out.fail(
                    "transition/delta",
                    f"recorded workload delta does not deserialize: {exc}",
                )

        old_base = old.base_tables
        if delta is not None and delta.update_stats:
            out.ran("transition/stats-unknown-table")
            try:
                old_base = apply_stats_updates(old_base, delta.update_stats)
            except ValueError as exc:
                out.fail("transition/stats-unknown-table", str(exc))
                return out.report()

        out.ran("transition/diffable")
        try:
            recomputed = PlanDiff.between(
                old.plan, old_base, new.plan, new.base_tables
            )
        except ValueError as exc:
            out.fail("transition/diffable", f"the plans cannot be diffed: {exc}")
            return out.report()
        # The production diff algorithm must satisfy conservation on
        # every transition, anchored or not.
        self._check_diff(
            out, recomputed, old.plan, old_base, new.plan, new.base_tables
        )

        if anchored and new.diff is not None:
            self._check_diff(
                out, new.diff, old.plan, old_base, new.plan, new.base_tables
            )
            out.ran("diff/mismatch")
            recorded = new.diff
            mismatches = {
                name: (got, want)
                for name, got, want in (
                    ("moves", len(recorded.moves), len(recomputed.moves)),
                    ("created", len(recorded.created), len(recomputed.created)),
                    ("removed", len(recorded.removed), len(recomputed.removed)),
                    ("moved_bytes", recorded.moved_bytes, recomputed.moved_bytes),
                    (
                        "created_bytes",
                        recorded.created_bytes,
                        recomputed.created_bytes,
                    ),
                    (
                        "removed_bytes",
                        recorded.removed_bytes,
                        recomputed.removed_bytes,
                    ),
                )
                if got != want
            }
            if mismatches:
                out.fail(
                    "diff/mismatch",
                    "recorded diff disagrees with recomputation: "
                    + ", ".join(
                        f"{k} {got} != {want}"
                        for k, (got, want) in mismatches.items()
                    ),
                    **{k: list(v) for k, v in mismatches.items()},
                )

        if (
            anchored
            and delta is not None
            and delta.update_stats
            and not delta.add_tables
            and not delta.remove_table_ids
            and new.diff is not None
        ):
            out.ran("transition/stats-zero-move")
            # Occurrence included: uid-equal shards swapping devices is
            # a genuine placement change (two real moves), not a hold.
            old_placement = sorted(
                (uid, occurrence, device)
                for uid, occurrence, device, _ in _shard_entries(
                    old.plan, old_base
                )
            )
            new_placement = sorted(
                (uid, occurrence, device)
                for uid, occurrence, device, _ in _shard_entries(
                    new.plan, new.base_tables
                )
            )
            if old_placement == new_placement and new.diff.num_changes:
                out.fail(
                    "transition/stats-zero-move",
                    "pure stats update holds the placement but the "
                    f"recorded diff claims {new.diff.num_changes} change(s) "
                    f"({new.diff.moved_bytes} moved bytes) — a statistics "
                    "rewrite must move zero bytes",
                    num_changes=new.diff.num_changes,
                    moved_bytes=new.diff.moved_bytes,
                )
        return out.report()

    def validate_rollback(
        self,
        record: "PlanRecord",
        stored: Mapping[str, Any] | None = None,
    ) -> ValidationReport:
        """Byte-identity of a restored record (rollback replays history).

        Checks that the record's serialization round-trips to an equal
        record and — when its stored form is supplied — that memory and
        disk agree byte-for-byte.
        """
        out = _Collector(f"rollback:v{record.version}")
        out.ran("rollback/byte-identity")
        payload = record.to_dict()
        from repro.api.service import PlanRecord as _PlanRecord

        # Identity is checked at the serialized level: the wire format
        # is the contract (non-finite costs legitimately collapse to
        # ``None`` there, so object-level comparison would be too
        # strict for nan-scored plans).
        try:
            reloaded = _PlanRecord.from_dict(payload).to_dict()
        except (ValueError, KeyError, TypeError) as exc:
            reloaded = {"unreadable": str(exc)}
        if reloaded != payload:
            out.fail(
                "rollback/byte-identity",
                f"record v{record.version} does not survive its own "
                "serialization round-trip",
                version=record.version,
            )
        if stored is not None:
            normalized = dict(stored)
            # Records written before the validation layer existed lack
            # the (optional, None-defaulted) 'validation' key; records
            # written before the provenance chain lack 'provenance'.
            # Absence is not rewriting.
            normalized.setdefault("validation", None)
            normalized.setdefault("provenance", None)
            if normalized != payload:
                out.fail(
                    "rollback/byte-identity",
                    f"record v{record.version} differs from its stored "
                    "serialization — history was rewritten",
                    version=record.version,
                )
        return out.report()

    # ------------------------------------------------------------------
    # whole-deployment validation
    # ------------------------------------------------------------------

    def validate_history(
        self,
        records: Sequence["PlanRecord"],
        applied_stack: Sequence[int],
        stored: Mapping[int, Mapping[str, Any]] | None = None,
        subject: str = "history",
        memory_bytes: int | None = None,
    ) -> ValidationReport:
        """Every record, every applied transition, the stack, the store.

        Args:
            records: a deployment's plan records (any order).
            applied_stack: the apply/rollback stack (oldest first).
            stored: raw stored serializations by version, when the
                deployment is store-backed — each in-memory record must
                match its stored form byte-for-byte.
            subject: report label.
            memory_bytes: the deployment's *current* per-device budget.
                When given, the applied (top-of-stack) record — the plan
                serving traffic — is held to it instead of its own
                creation-time snapshot; historical records keep theirs.
        """
        out = _Collector(subject)
        by_version = {r.version: r for r in records}
        applied_version = applied_stack[-1] if applied_stack else None

        report = out.report()
        for record in sorted(records, key=lambda r: r.version):
            report = report.merged(
                self.validate_record(
                    record,
                    memory_bytes=(
                        memory_bytes
                        if record.version == applied_version
                        else None
                    ),
                )
            )
            if stored is not None:
                # A version the store cannot produce compares against {}
                # — "missing" is itself a byte-identity violation.
                report = report.merged(
                    self.validate_rollback(record, stored.get(record.version, {}))
                )

        out = _Collector(subject)
        out.ran("state/applied-version")
        for version in applied_stack:
            record = by_version.get(version)
            if record is None:
                out.fail(
                    "state/applied-version",
                    f"applied stack references missing record v{version}",
                    version=version,
                )
            elif not record.feasible or record.plan is None:
                out.fail(
                    "state/applied-version",
                    f"applied stack references infeasible record v{version}",
                    version=version,
                )
        report = report.merged(out.report())

        for prev, nxt in zip(applied_stack, applied_stack[1:]):
            old, new = by_version.get(prev), by_version.get(nxt)
            if old is None or new is None:
                continue  # state/applied-version already reported
            report = report.merged(self.validate_transition(old, new))
        return report
