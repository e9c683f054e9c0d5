"""The plan-lifecycle service: named deployments with live, versioned plans.

:class:`~repro.api.engine.ShardingEngine` answers one-shot questions;
production serving needs *state*: a model deployment has a current
applied plan, the plan has a version history, and workload changes are
handled by migrating the live plan, not recomputing it from nothing.
:class:`ShardingService` owns that lifecycle for any number of named
deployments::

    service = ShardingService(PlanStore("deployments/"))
    service.create_deployment("dlrm-prod", engine, tables=task.tables)
    record = service.plan("dlrm-prod")            # version 1, not live yet
    service.apply("dlrm-prod")                    # version 1 goes live
    service.reshard(                              # drift + new tables
        "dlrm-prod",
        WorkloadDelta(add_tables=new, drift=report),
        ReshardConfig(migration_budget_ms=5_000),
    )                                             # version 2, applied
    service.rollback("dlrm-prod")                 # version 1 again, byte-equal

Every plan/reshard produces an immutable :class:`PlanRecord` (plan, the
table list it indexes, simulated cost, the :class:`~repro.api.diff
.PlanDiff` against the plan it replaced) persisted through
:class:`~repro.api.store.PlanStore`, and ``apply``/``rollback`` only move
the applied-version stack — so the entire history is auditable and any
applied state is reproducible byte-for-byte.  Each persisted record also
carries a hash-chain link to its predecessor and a provenance-stamped
validation report (:mod:`repro.provenance`), making the stored history
tamper-evident: :meth:`ShardingService.audit_deployment` (or ``repro
audit``) verifies it offline, no engine or bundle needed.
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from repro.api.diff import MigrationCostModel, PlanDiff
from repro.api.engine import ShardingEngine
from repro.api.reshard import (
    ReshardConfig,
    WorkloadDelta,
    incremental_reshard,
)
from repro.api.schema import (
    SCHEMA_VERSION,
    ShardingRequest,
    ShardingResponse,
    _check_version,
    plan_from_dict,
    plan_to_dict,
)
from repro.api.store import PlanStore
from repro.core.plan import ShardingPlan
from repro.provenance.chain import (
    ProvenanceLink,
    genesis_digest,
    link_record,
    record_digest,
    stamp_fingerprint,
    state_stamp,
    stored_link_digest,
)
from repro.data.io import table_from_dict, table_to_dict
from repro.data.table import TableConfig
from repro.data.tasks import ShardingTask
from repro.validation.invariants import (
    PlanValidationError,
    PlanValidator,
    ValidationReport,
)

__all__ = [
    "DeploymentNotFoundError",
    "PlanRecord",
    "PlanValidationError",
    "ShardingService",
]


class DeploymentNotFoundError(KeyError):
    """Raised when a deployment name is unknown to the service."""


@dataclass(frozen=True)
class PlanRecord:
    """One immutable version in a deployment's plan history.

    Attributes:
        version: 1-based version within the deployment.
        kind: ``"plan"`` (one-shot) or ``"reshard"`` (incremental).
        strategy: registry strategy (or reshard candidate) that produced
            the plan.
        feasible: a memory-legal plan was found.
        plan: the plan itself (``None`` when infeasible).
        base_tables: the table list ``plan``'s column plan applies to —
            the workload this version serves.
        num_devices / memory_bytes: the deployment contract the plan was
            made under.
        simulated_cost_ms: the cost models' estimate of the plan.
        sharding_time_s: wall-clock planning time.
        created_at: POSIX timestamp of record creation.
        request_id: caller correlation id.
        diff: shard-level difference against the plan that was applied
            when this record was created (``None`` for the first plan).
        metadata: free-form context (reshard objective, drift report,
            migration budget, the ``base_version`` the diff was computed
            against, ...).
        validation: the :class:`~repro.validation.invariants
            .ValidationReport` of the invariant checks run on this record
            (``None`` when the service validates nothing, or for records
            written before the validation layer existed).
        provenance: the record's hash-chain link (:class:`~repro
            .provenance.chain.ProvenanceLink`) — it commits to the
            record's own canonical content digest and its predecessor's
            chain digest, so the stored history is tamper-evident
            (``None`` for records written before the chain existed).
    """

    version: int
    kind: str
    strategy: str
    feasible: bool
    plan: ShardingPlan | None
    base_tables: tuple[TableConfig, ...]
    num_devices: int
    memory_bytes: int
    simulated_cost_ms: float
    sharding_time_s: float
    created_at: float
    request_id: str = ""
    diff: PlanDiff | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    validation: ValidationReport | None = None
    provenance: ProvenanceLink | None = None

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "version": self.version,
            "kind": self.kind,
            "strategy": self.strategy,
            "feasible": self.feasible,
            "plan": None if self.plan is None else plan_to_dict(self.plan),
            "base_tables": [table_to_dict(t) for t in self.base_tables],
            "num_devices": self.num_devices,
            "memory_bytes": self.memory_bytes,
            "simulated_cost_ms": (
                None
                if not math.isfinite(self.simulated_cost_ms)
                else float(self.simulated_cost_ms)
            ),
            "sharding_time_s": float(self.sharding_time_s),
            "created_at": float(self.created_at),
            "request_id": self.request_id,
            "diff": None if self.diff is None else self.diff.to_dict(),
            "metadata": dict(self.metadata),
            "validation": (
                None if self.validation is None else self.validation.to_dict()
            ),
            "provenance": (
                None if self.provenance is None else self.provenance.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanRecord":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        _check_version(data, "plan record")
        plan_data = data.get("plan")
        cost = data.get("simulated_cost_ms")
        diff_data = data.get("diff")
        validation_data = data.get("validation")
        provenance_data = data.get("provenance")
        return cls(
            version=int(data["version"]),
            kind=str(data["kind"]),
            strategy=str(data["strategy"]),
            feasible=bool(data["feasible"]),
            plan=None if plan_data is None else plan_from_dict(plan_data),
            base_tables=tuple(
                table_from_dict(t) for t in data.get("base_tables", ())
            ),
            num_devices=int(data["num_devices"]),
            memory_bytes=int(data["memory_bytes"]),
            simulated_cost_ms=(
                math.inf if cost is None else float(cost)
            ),
            sharding_time_s=float(data.get("sharding_time_s", 0.0)),
            created_at=float(data.get("created_at", 0.0)),
            request_id=str(data.get("request_id", "")),
            diff=None if diff_data is None else PlanDiff.from_dict(diff_data),
            metadata=dict(data.get("metadata", {})),
            validation=(
                None
                if validation_data is None
                else ValidationReport.from_dict(validation_data)
            ),
            provenance=(
                None
                if provenance_data is None
                else ProvenanceLink.from_dict(provenance_data)
            ),
        )


def _coerce_profile(profile: Any) -> "Any | None":
    """Normalize a ``profile`` argument to a validated ``TunedProfile``.

    Accepts ``None``, a :class:`repro.tuning.TunedProfile`, or its dict
    form (the persisted metadata) — the dict path re-validates every
    embedded knob, so a hand-edited profile fails loudly here.  The
    import is deferred: :mod:`repro.tuning` layers *above* the api
    package and only loads when profiles are actually used.
    """
    if profile is None:
        return None
    from collections.abc import Mapping as _Mapping

    from repro.tuning.profile import TunedProfile

    if isinstance(profile, TunedProfile):
        return profile
    if isinstance(profile, _Mapping):
        return TunedProfile.from_dict(profile)
    raise TypeError(
        "profile must be a TunedProfile or its dict form, got "
        f"{type(profile).__name__}"
    )


class _Deployment:
    """Runtime state of one named deployment."""

    def __init__(
        self,
        name: str,
        engine: ShardingEngine,
        tables: tuple[TableConfig, ...],
        memory_bytes: int,
        profile: "Any | None" = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.initial_tables = tables
        self.memory_bytes = memory_bytes
        #: Tuned profile (:class:`repro.tuning.TunedProfile`) applied at
        #: creation: its chosen search config becomes the default plan
        #: options and its reshard knobs the default reshard config.
        self.profile = profile
        self.records: dict[int, PlanRecord] = {}
        self.applied_stack: list[int] = []
        self.lock = threading.RLock()
        #: Chain anchor: digest of the deployment metadata the first
        #: record links to (see :func:`repro.provenance.chain
        #: .genesis_digest`).
        self.genesis_digest = ""
        #: version -> the digest a successor's chain link commits to
        #: (the record's stored chain digest; legacy/unreadable records
        #: get content/raw digests) — saves a disk read per new record.
        self.chain_digests: dict[int, str] = {}
        # Highest version ever handed out (>= max(records): versions are
        # reserved before their records exist, so concurrent planners
        # never collide).
        self._version_counter = 0

    @property
    def applied_version(self) -> int | None:
        """The live plan version (``None`` before the first apply)."""
        return self.applied_stack[-1] if self.applied_stack else None

    @property
    def applied_record(self) -> PlanRecord | None:
        """The live plan record (``None`` before the first apply)."""
        version = self.applied_version
        return None if version is None else self.records[version]

    @property
    def current_tables(self) -> tuple[TableConfig, ...]:
        """The workload this deployment currently serves."""
        record = self.applied_record
        return self.initial_tables if record is None else record.base_tables

    def reserve_versions(self, count: int) -> int:
        """Claim ``count`` consecutive versions; returns the first."""
        with self.lock:
            self._version_counter = max(
                self._version_counter, max(self.records, default=0)
            )
            first = self._version_counter + 1
            self._version_counter += count
            return first


class ShardingService:
    """Plan-lifecycle front-end over one or more deployments.

    Concurrency model: deployments are independent — any number may
    plan/apply/reshard concurrently (each has its own lock, and
    searches run unlocked), and one deployment's searches fan out to
    the engine's worker pool when it has one.  Store writes follow the
    **single-writer-per-deployment** rule: one service handle owns each
    deployment's version allocation, and horizontal scale comes from
    worker fan-out inside that handle, not from multiple handles.  A
    second handle on the same store directory is nevertheless *safe*:
    records are immutable (the store refuses overwrites and this
    service re-keys past foreign versions on collision), every write is
    crash-atomic, and state is last-writer-wins over records both
    writers have persisted — so contention can cost performance and
    interleaving, never a torn record or an inconsistent applied stack.

    Args:
        store: persistence for deployment metadata, plan records and the
            applied stack; ``None`` keeps everything in memory (tests,
            notebooks).
        validator: the invariant checker (a default-configured
            :class:`~repro.validation.invariants.PlanValidator` when
            omitted).
        validate: run the validator on every lifecycle verb by default
            (overridable per call).  ``plan``/``reshard`` *record* the
            validation report on the produced record;
            ``apply``/``reshard``-apply/``rollback`` additionally refuse
            to change the live plan when a check fails (raising
            :class:`~repro.validation.invariants.PlanValidationError`),
            so an invariant-violating plan can be recorded and audited
            but never serves traffic.
    """

    def __init__(
        self,
        store: PlanStore | None = None,
        validator: PlanValidator | None = None,
        validate: bool = True,
    ) -> None:
        self.store = store
        self.validator = validator or PlanValidator()
        self.validate_by_default = validate
        self._deployments: dict[str, _Deployment] = {}
        self._lock = threading.Lock()
        #: Deployments :meth:`open` left out (name -> reason), only
        #: populated with ``on_error="skip"``.
        self.skipped_deployments: dict[str, str] = {}
        #: Corrupted-tail recoveries :meth:`open` performed
        #: (deployment name -> notes), e.g. a torn plan-record file
        #: dropped or an applied stack truncated to its last consistent
        #: version.
        self.recovery_notes: dict[str, list[str]] = {}

    def _validating(self, override: bool | None) -> bool:
        return self.validate_by_default if override is None else override

    # ------------------------------------------------------------------
    # deployment management
    # ------------------------------------------------------------------

    def deployments(self) -> list[str]:
        """Names of deployments this service instance holds."""
        with self._lock:
            return sorted(self._deployments)

    def _get(self, name: str) -> _Deployment:
        with self._lock:
            try:
                return self._deployments[name]
            except KeyError:
                raise DeploymentNotFoundError(
                    f"no deployment named {name!r} "
                    f"(known: {sorted(self._deployments) or 'none'})"
                ) from None

    def create_deployment(
        self,
        name: str,
        engine: ShardingEngine,
        tables: Sequence[TableConfig],
        memory_bytes: int | None = None,
        bundle_ref: str | None = None,
        profile: "Any | None" = None,
    ) -> dict[str, Any]:
        """Register a new deployment and persist its metadata.

        Args:
            name: deployment name (also its store directory).
            engine: the serving engine (cluster + bundle) for this
                deployment.
            tables: the initial workload (the tables the model embeds).
            memory_bytes: per-device embedding budget (engine cluster's
                when omitted).
            bundle_ref: free-form pointer to the engine's bundle (path or
                ``name@vN`` tag), persisted so a restarted service can
                rebuild the engine.
            profile: a :class:`repro.tuning.TunedProfile` (or its dict
                form) to apply: the chosen search config becomes this
                deployment's default plan options, the chosen reshard
                knobs its default reshard config.  Persisted in the
                metadata, so a reopened service keeps planning with it.

        Returns:
            The deployment's status dictionary.

        Raises:
            ValueError: when the name is already in use (in memory or in
                the store), the profile's device count does not match the
                engine's, or the profile payload is invalid.
        """
        tables = tuple(tables)
        if not tables:
            raise ValueError("a deployment needs at least one table")
        profile = _coerce_profile(profile)
        if (
            profile is not None
            and profile.num_devices != engine.cluster.num_devices
        ):
            raise ValueError(
                f"tuned profile {profile.scenario!r} was tuned for "
                f"{profile.num_devices} devices but the engine serves "
                f"{engine.cluster.num_devices}"
            )
        # Stored as an int: the store's reader accepts no other budget.
        memory = int(
            memory_bytes
            if memory_bytes is not None
            else engine.cluster.config.memory_bytes
        )
        with self._lock:
            if name in self._deployments:
                raise ValueError(f"deployment {name!r} already exists")
            if self.store is not None and self.store.has_deployment(name):
                raise ValueError(
                    f"deployment {name!r} already exists in store "
                    f"{self.store.root}; use ShardingService.open"
                )
            deployment = _Deployment(name, engine, tables, memory, profile)
            self._deployments[name] = deployment
        meta = {
            "schema_version": SCHEMA_VERSION,
            "name": name,
            "created_at": time.time(),
            "num_devices": engine.cluster.num_devices,
            "batch_size": engine.cluster.batch_size,
            "memory_bytes": memory,
            "bundle_ref": bundle_ref,
            "tables": [table_to_dict(t) for t in tables],
        }
        if profile is not None:
            meta["tuned_profile"] = profile.to_dict()
        # The chain anchor is the digest of this metadata — computed
        # here (not from a re-read) so storeless deployments chain too.
        deployment.genesis_digest = genesis_digest(meta)
        if self.store is not None:
            self.store.save_meta(name, meta)
            self._persist_state(deployment)
        return self.status(name)

    @classmethod
    def open(
        cls,
        store: PlanStore,
        engine_factory: Callable[[dict[str, Any]], ShardingEngine],
        on_error: str = "raise",
    ) -> "ShardingService":
        """Rebuild a service from a store.

        Corrupted-tail recovery over :meth:`PlanStore.read_deployment`:
        a record file that does not decode (torn write, disk corruption)
        is dropped, a malformed state field reset, and an applied stack
        referencing a missing or invalid record truncated to its longest
        consistent prefix — so the service always comes back serving the
        **last consistent applied version**.  Every such repair is
        recorded in :attr:`recovery_notes`; a clean store produces none.

        Args:
            store: the persisted deployments.
            engine_factory: builds each deployment's engine from its
                stored metadata (``meta["bundle_ref"]`` points at the
                bundle, ``meta["num_devices"]``/``memory_bytes`` describe
                the cluster).
            on_error: ``"raise"`` propagates a deployment's load/factory
                failure; ``"skip"`` leaves that deployment out (recorded
                in :attr:`skipped_deployments`) so one bad deployment —
                e.g. a device-count mismatch with the provided bundle —
                does not block listing/serving the others.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        service = cls(store)
        for name in store.names():
            notes: list[str] = []
            try:
                stored = store.read_deployment(name)
                meta = stored.meta
                if meta is None:
                    raise ValueError(f"unreadable metadata ({stored.meta_error})")
                engine = engine_factory(meta)
                deployment = _Deployment(
                    name,
                    engine,
                    tuple(table_from_dict(t) for t in meta["tables"]),
                    int(meta["memory_bytes"]),
                    _coerce_profile(meta.get("tuned_profile")),
                )
                deployment.genesis_digest = genesis_digest(meta)
                for stored_record in stored.records:
                    version, payload = stored_record.version, stored_record.payload
                    # Register what a successor would chain over (a torn
                    # file's raw bytes too), so records written after
                    # this recovery stay verifiably linked past damage.
                    digest = stored_link_digest(stored_record)
                    if digest is not None:
                        deployment.chain_digests[version] = digest
                    error = stored_record.error
                    if payload is not None:
                        try:
                            record = PlanRecord.from_dict(payload)
                        except Exception as exc:  # noqa: BLE001 — corrupted tail
                            error = f"{type(exc).__name__}: {exc}"
                    if error is not None:
                        notes.append(
                            f"dropped unreadable plan record v{version} ({error})"
                        )
                        continue
                    deployment.records[record.version] = record
                # Version allocation must clear every *stored* version,
                # readable or not: a dropped corrupt v<N> still occupies
                # its file, and records are immutable — reusing N would
                # wedge every future plan on FileExistsError.
                deployment._version_counter = max(
                    (r.version for r in stored.records), default=0
                )
                state = stored.state
                notes.extend(
                    f"reset damaged deployment state: {error}"
                    for error in state.errors.values()
                )
                consistent: list[int] = []
                for version in state.applied_stack:
                    record = deployment.records.get(version)
                    if record is None or not record.feasible or record.plan is None:
                        notes.append(
                            f"truncated applied stack at v{version} "
                            "(missing or invalid record); recovered to "
                            + (
                                f"v{consistent[-1]}"
                                if consistent
                                else "no applied version"
                            )
                        )
                        break
                    consistent.append(version)
                deployment.applied_stack = consistent
                # The budget the deployment actually runs under is
                # mutable state: reshard(memory_bytes=...) may have
                # changed it since the metadata snapshot at creation
                # time, independently of which plan is applied (capacity
                # loss survives infeasible reshards and rollbacks).
                # Stores written before the budget was state-tracked, or
                # whose budget field is malformed, fall back to the
                # applied record's contract.
                if state.memory_bytes is not None:
                    deployment.memory_bytes = state.memory_bytes
                elif deployment.applied_record is not None:
                    deployment.memory_bytes = (
                        deployment.applied_record.memory_bytes
                    )
            except Exception as exc:  # noqa: BLE001 — per-deployment boundary
                if on_error == "raise":
                    raise
                service.skipped_deployments[name] = f"{type(exc).__name__}: {exc}"
                continue
            if notes:
                service.recovery_notes[name] = notes
            service._deployments[name] = deployment
        return service

    # ------------------------------------------------------------------
    # lifecycle verbs
    # ------------------------------------------------------------------

    def _task(self, deployment: _Deployment, version: int) -> ShardingTask:
        return ShardingTask(
            tables=deployment.current_tables,
            num_devices=deployment.engine.cluster.num_devices,
            memory_bytes=deployment.memory_bytes,
            task_id=version,
        )

    #: Bound on version-collision retries against a store another
    #: writer is appending to (each retry allocates strictly past every
    #: stored version, so hitting the bound means something is rewriting
    #: the store far faster than any legitimate sibling service).
    _COLLISION_RETRIES = 100

    def _record_response(
        self,
        deployment: _Deployment,
        response: ShardingResponse,
        task: ShardingTask,
        version: int,
        kind: str,
        diff: PlanDiff | None = None,
        metadata: Mapping[str, Any] | None = None,
        applied: PlanRecord | None = None,
        validate: bool | None = None,
    ) -> PlanRecord:
        def build(record_version: int) -> PlanRecord:
            record = PlanRecord(
                version=record_version,
                kind=kind,
                strategy=response.strategy,
                feasible=response.feasible,
                plan=response.plan,
                base_tables=(
                    response.plan_tables(task)
                    if response.feasible
                    else task.tables
                ),
                num_devices=task.num_devices,
                memory_bytes=task.memory_bytes,
                simulated_cost_ms=response.simulated_cost_ms,
                sharding_time_s=response.sharding_time_s,
                created_at=time.time(),
                request_id=response.request_id,
                diff=diff,
                metadata=dict(metadata or {}),
            )
            if self._validating(validate):
                # Record the verdict, do not gate: an invariant-violating
                # plan may be recorded and audited — apply() is the gate
                # that keeps it from serving traffic.
                report = self.validator.validate_record(
                    record, subject=f"{deployment.name}/v{record_version}"
                )
                if (
                    applied is not None
                    and applied.plan is not None
                    and record.feasible
                ):
                    report = report.merged(
                        self.validator.validate_transition(applied, record)
                    )
                # Stamp the report with the code fingerprint that ran
                # the checks and the digest of what they checked (the
                # digest excludes the report itself, so stamping cannot
                # invalidate it).
                report = report.stamped(
                    stamp_fingerprint(), record_digest(record.to_dict())
                )
                record = replace(record, validation=report)
            # Chain link last: the content digest must cover the final
            # payload, validation stamp included.
            prev_version, prev_digest = self._chain_prev(
                deployment, record_version
            )
            return replace(
                record,
                provenance=link_record(
                    record.to_dict(), prev_version, prev_digest
                ),
            )

        record = build(version)
        # Disk before memory: a crash mid-write must never leave the
        # in-process service ahead of what a restart would recover.
        if self.store is not None:
            for _ in range(self._COLLISION_RETRIES):
                try:
                    self.store.save_record(deployment.name, record.to_dict())
                    break
                except FileExistsError:
                    # Another writer on the same store took this version.
                    # Single-writer-per-deployment is the design rule —
                    # worker fan-out happens *inside* one service handle
                    # — but a collision must stay safe, not corrupt: the
                    # store's immutable records already refused the
                    # overwrite, so re-sync allocation past every stored
                    # version and re-key the record.
                    with deployment.lock:
                        deployment._version_counter = max(
                            deployment._version_counter,
                            self.store.latest_version(deployment.name),
                        )
                        version = deployment.reserve_versions(1)
                    record = build(version)
            else:
                raise RuntimeError(
                    f"could not allocate a free plan version for deployment "
                    f"{deployment.name!r} after "
                    f"{self._COLLISION_RETRIES} collisions"
                )
        deployment.records[record.version] = record
        if record.provenance is not None:
            deployment.chain_digests[record.version] = (
                record.provenance.chain_digest
            )
        return record

    def _chain_prev(self, deployment: _Deployment, version: int) -> tuple[int, str]:
        """The predecessor a new record at ``version`` chains to.

        The highest version strictly below ``version`` that this handle
        knows (its own records) or the store holds (a sibling writer's),
        falling back to the genesis anchor when none exists.  Foreign
        records' digests are read from disk once and cached; a stored
        version whose digest cannot be derived at all (deleted between
        listing and reading) falls through to the next-lower candidate.
        """
        candidates = {
            v
            for v in (*deployment.chain_digests, *deployment.records)
            if v < version
        }
        if self.store is not None:
            candidates.update(
                v for v in self.store.versions(deployment.name) if v < version
            )
        for prev in sorted(candidates, reverse=True):
            digest = deployment.chain_digests.get(prev)
            if digest is None:
                digest = stored_link_digest(
                    self.store.read_record(deployment.name, prev)
                )
                if digest is None:
                    continue
                deployment.chain_digests[prev] = digest
            return prev, digest
        return 0, deployment.genesis_digest

    @staticmethod
    def _plan_options(
        deployment: _Deployment, options: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        """Request options with the deployment's tuned defaults applied.

        The tuned profile's chosen search config is injected as the
        ``search`` option (in dict form — request options must stay
        JSON-serializable for worker pools and the HTTP wire) unless the
        caller set one explicitly; an explicit per-request ``search``
        always wins.
        """
        merged = dict(options or {})
        if deployment.profile is not None and "search" not in merged:
            merged["search"] = deployment.profile.chosen.search.to_dict()
        return merged

    def plan(
        self,
        name: str,
        strategy: str | None = None,
        options: Mapping[str, Any] | None = None,
        request_id: str = "",
        validate: bool | None = None,
    ) -> PlanRecord:
        """Compute (but do not apply) a new plan for the current workload."""
        return self.plan_batch(
            name, [(strategy, options, request_id)], validate=validate
        )[0]

    def plan_batch(
        self,
        name: str,
        specs: Sequence[
            tuple[str | None, Mapping[str, Any] | None, str]
        ],
        max_workers: int | None = None,
        validate: bool | None = None,
    ) -> list[PlanRecord]:
        """Compute several plans concurrently (the serving micro-batch path).

        Each spec is ``(strategy, options, request_id)``.  Responses are
        identical to sequential :meth:`plan` calls (the engine's batch
        path is sequential-deterministic); records are versioned in spec
        order.

        The deployment lock is held only to reserve versions and to
        insert the finished records — the search itself runs unlocked,
        so ``status``/``history``/``apply`` stay responsive during a
        slow plan.  Diffs are computed against the plan applied at
        reservation time.
        """
        deployment = self._get(name)
        with deployment.lock:
            first_version = deployment.reserve_versions(len(specs))
            task_by_version = {
                first_version + i: self._task(deployment, first_version + i)
                for i in range(len(specs))
            }
            applied = deployment.applied_record
        requests = [
            ShardingRequest(
                task=task_by_version[first_version + i],
                strategy=spec[0],
                request_id=spec[2],
                options=self._plan_options(deployment, spec[1]),
            )
            for i, spec in enumerate(specs)
        ]
        responses = deployment.engine.shard_batch(
            requests, max_workers=max_workers
        )
        records = []
        with deployment.lock:
            for i, response in enumerate(responses):
                version = first_version + i
                task = task_by_version[version]
                diff = None
                metadata: dict[str, Any] = {}
                if applied is not None:
                    # Anchor the diff (and its validation) to the base
                    # it was computed against.
                    metadata["base_version"] = applied.version
                if (
                    applied is not None
                    and applied.plan is not None
                    and response.feasible
                    and response.plan is not None
                ):
                    diff = PlanDiff.between(
                        applied.plan,
                        applied.base_tables,
                        response.plan,
                        response.plan_tables(task),
                        # Price with the deployment's actual links, as
                        # reshard does — one spec per history.
                        MigrationCostModel(deployment.engine.cluster.spec),
                    )
                records.append(
                    self._record_response(
                        deployment,
                        response,
                        task,
                        version,
                        "plan",
                        diff,
                        metadata=metadata,
                        applied=applied,
                        validate=validate,
                    )
                )
        return records

    def apply(
        self, name: str, version: int | None = None, validate: bool | None = None
    ) -> PlanRecord:
        """Make a stored plan version the deployment's live plan.

        With validation on (the default), the record's structural
        invariants — and the conservation laws of the transition from the
        currently applied plan — are checked *before* the stack moves: an
        invariant-violating plan never goes live.  Memory feasibility is
        checked against the deployment's *current* per-device budget, not
        the record's creation-time snapshot — capacity lost to a later
        ``reshard(memory_bytes=...)`` makes an old plan's own snapshot a
        stale contract.

        Args:
            name: the deployment.
            version: the record to apply; defaults to the latest feasible
                record.
            validate: override the service's ``validate`` default.

        Returns:
            The applied record, byte-identical to how it was recorded
            (its ``validation`` field is the creation-time report).

        Raises:
            ValueError: when the version is unknown, infeasible, or no
                feasible record exists.
            PlanValidationError: when validation finds a violation.
        """
        deployment = self._get(name)
        with deployment.lock:
            if version is None:
                feasible = [
                    v
                    for v, r in sorted(deployment.records.items())
                    if r.feasible
                ]
                if not feasible:
                    raise ValueError(
                        f"deployment {name!r} has no feasible plan record to "
                        "apply"
                    )
                version = feasible[-1]
            record = deployment.records.get(version)
            if record is None:
                raise ValueError(
                    f"deployment {name!r} has no plan record v{version} "
                    f"(stored: {sorted(deployment.records) or 'none'})"
                )
            if not record.feasible or record.plan is None:
                raise ValueError(
                    f"plan record v{version} of deployment {name!r} is "
                    "infeasible and cannot be applied"
                )
            return self._apply_locked(deployment, record, validate)

    def _apply_locked(
        self,
        deployment: _Deployment,
        record: PlanRecord,
        validate: bool | None,
        report: ValidationReport | None = None,
    ) -> PlanRecord:
        """Gate ``record`` and push it onto the applied stack.

        Caller holds ``deployment.lock`` and has vetted feasibility.
        ``report`` lets :meth:`reshard` reuse the report stamped on the
        record it just created — same base, same budget, same lock hold —
        instead of re-running the full suite.
        """
        if self._validating(validate):
            if report is None:
                previous = deployment.applied_record
                report = self.validator.validate_record(
                    record,
                    subject=f"{deployment.name}/v{record.version}",
                    memory_bytes=deployment.memory_bytes,
                )
                if previous is not None and previous.plan is not None:
                    report = report.merged(
                        self.validator.validate_transition(previous, record)
                    )
            # Gate, but return the record unchanged: what apply hands
            # back must be byte-identical to what was recorded.
            report.raise_if_failed()
        # Disk before memory: persist the post-apply stack first, so a
        # crashed/failed state write leaves the in-process service on
        # the same version a restart would recover.
        self._persist_state(
            deployment,
            applied_stack=[*deployment.applied_stack, record.version],
        )
        deployment.applied_stack.append(record.version)
        return record

    def rollback(self, name: str, validate: bool | None = None) -> PlanRecord:
        """Restore the previously applied plan version.

        With validation on (the default), the record being restored is
        checked for byte-identity against its stored serialization —
        rollback replays history, it must never rewrite it — *before*
        the stack moves.

        Args:
            name: the deployment.
            validate: override the service's ``validate`` default.

        Returns:
            The record that is live after the rollback.

        Raises:
            ValueError: when fewer than two versions have been applied.
            PlanValidationError: when validation finds a violation.
        """
        deployment = self._get(name)
        with deployment.lock:
            if len(deployment.applied_stack) < 2:
                raise ValueError(
                    f"deployment {name!r} has no earlier applied version to "
                    "roll back to"
                )
            target = deployment.applied_stack[-2]
            record = deployment.records[target]
            if self._validating(validate):
                stored = None
                if self.store is not None:
                    try:
                        stored = self.store.load_record(deployment.name, target)
                    except Exception:  # noqa: BLE001 — missing/unreadable
                        # Either way the file cannot vouch for the
                        # record's bytes; the validator reports it.
                        stored = {}
                # The restored plan serves under the deployment's current
                # budget, not the (possibly larger) one it was created
                # under — degradation survives rollbacks.
                report = self.validator.validate_record(
                    record,
                    subject=f"{name}/v{target}",
                    memory_bytes=deployment.memory_bytes,
                ).merged(self.validator.validate_rollback(record, stored))
                # Gate, but return the record unchanged: rollback must
                # restore v{target} byte-identically, validation report
                # included.
                report.raise_if_failed()
            # Disk before memory, as in apply: a failed state write must
            # not leave the in-process service behind the stack a
            # restart would recover.
            self._persist_state(
                deployment, applied_stack=deployment.applied_stack[:-1]
            )
            deployment.applied_stack.pop()
            return record

    def reshard(
        self,
        name: str,
        delta: WorkloadDelta,
        config: ReshardConfig | None = None,
        strategy: str | None = None,
        apply: bool = True,
        request_id: str = "",
        memory_bytes: int | None = None,
        validate: bool | None = None,
    ) -> PlanRecord:
        """Re-plan the deployment for a changed workload, migration-aware.

        Runs :func:`~repro.api.reshard.incremental_reshard` from the
        applied plan, records the chosen candidate (diff included), and —
        by default — applies it.

        Args:
            name: the deployment.
            delta: tables added/removed/stat-updated since the applied
                plan.
            config: budget / lambda / refinement knobs.
            strategy: full-search strategy (engine default when omitted).
            apply: make the chosen plan live when it is feasible.
            memory_bytes: new per-device budget for this deployment from
                this reshard on (device degradation / capacity changes).
                The deployment keeps the new budget even when the reshard
                finds no feasible plan — lost capacity stays lost.
            request_id: caller correlation id.
            validate: override the service's ``validate`` default.

        Raises:
            ValueError: when no plan is applied yet, or ``memory_bytes``
                is not positive.
            PlanValidationError: when validation rejects the chosen plan
                at apply time (the record is still persisted for audit;
                it just does not go live).
        """
        deployment = self._get(name)
        if config is None:
            # The tuned profile's reshard knobs are the deployment
            # default; an explicit config always wins.
            config = (
                deployment.profile.chosen.reshard
                if deployment.profile is not None
                else ReshardConfig()
            )
        with deployment.lock:
            applied = deployment.applied_record
            if applied is None or applied.plan is None:
                raise ValueError(
                    f"deployment {name!r} has no applied plan; call plan() "
                    "and apply() first"
                )
            if memory_bytes is not None:
                if memory_bytes <= 0:
                    raise ValueError(
                        f"memory_bytes must be > 0, got {memory_bytes}"
                    )
                # Budget changes are deployment state, not plan state:
                # persist immediately (disk before memory) so the new
                # budget survives a restart even when this reshard finds
                # no feasible plan, and is not reverted by a later
                # rollback.
                self._persist_state(deployment, memory_bytes=int(memory_bytes))
                deployment.memory_bytes = int(memory_bytes)
            version = deployment.reserve_versions(1)
            result = incremental_reshard(
                deployment.engine,
                applied.plan,
                applied.base_tables,
                delta,
                config=config,
                strategy=strategy,
                memory_bytes=deployment.memory_bytes,
                request_id=request_id,
            )
            task = result.new_task
            metadata: dict[str, Any] = {
                "base_version": applied.version,
                "delta": delta.to_dict(),
                "reshard_config": config.to_dict(),
                "chosen": result.chosen,
                "objective_ms": (
                    None
                    if not math.isfinite(result.objective_ms)
                    else result.objective_ms
                ),
                "within_budget": result.within_budget,
                "drift_triggered": result.drift_triggered,
            }
            if result.full_response is not None and result.full_diff is not None:
                metadata["full_search"] = {
                    "strategy": result.full_response.strategy,
                    "simulated_cost_ms": result.full_response.simulated_cost_ms,
                    "migration_cost_ms": result.full_diff.migration_cost_ms,
                    "moved_bytes": result.full_diff.moved_bytes,
                    "transferred_bytes": result.full_diff.transferred_bytes,
                }
            record = self._record_response(
                deployment,
                result.response,
                task,
                version,
                "reshard",
                diff=result.diff,
                metadata=metadata,
                applied=applied,
                validate=validate,
            )
            if apply and record.feasible:
                # Reuse the report stamped moments ago under this same
                # lock: the base plan and budget are unchanged, so
                # re-running validate_record + validate_transition here
                # would double the validator cost of every default
                # reshard for no new information.
                self._apply_locked(
                    deployment, record, validate, report=record.validation
                )
            return record

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def get_record(self, name: str, version: int) -> PlanRecord:
        """One stored plan record of ``name``.

        Raises:
            ValueError: when the version does not exist.
        """
        deployment = self._get(name)
        with deployment.lock:
            record = deployment.records.get(version)
            if record is None:
                raise ValueError(
                    f"deployment {name!r} has no plan record v{version}"
                )
            return record

    def applied_record(self, name: str) -> PlanRecord | None:
        """The live plan record of ``name`` (``None`` before apply)."""
        deployment = self._get(name)
        with deployment.lock:
            return deployment.applied_record

    def history(self, name: str) -> list[dict[str, Any]]:
        """All plan records of ``name``, version-ascending, as dicts."""
        deployment = self._get(name)
        with deployment.lock:
            return [
                deployment.records[v].to_dict()
                for v in sorted(deployment.records)
            ]

    def validate_deployment(self, name: str) -> ValidationReport:
        """Run the full invariant suite over one deployment's history.

        Checks every stored record (structure, memory, coherence), every
        transition along the applied stack (diff conservation laws), the
        applied stack itself, and — for store-backed services — that the
        in-memory records are byte-identical to their stored
        serializations.  Never raises on violations; the report carries
        them.
        """
        deployment = self._get(name)
        with deployment.lock:
            records = [
                deployment.records[v] for v in sorted(deployment.records)
            ]
            stack = list(deployment.applied_stack)
            budget = deployment.memory_bytes
        return self.validator.validate_history(
            records,
            stack,
            # An unreadable record is missing: the byte check flags it.
            stored=None if self.store is None else (
                self.store.read_deployment(name).payloads
            ),
            subject=f"deployment:{name}",
            memory_bytes=budget,
        )

    def audit_deployment(self, name: str) -> Any:
        """Audit one deployment's stored provenance chain offline.

        Runs :func:`repro.provenance.audit.audit_deployment` over the
        service's store — verifying the hash chain, the validation
        stamps, and the state anchor, and re-running the validator —
        then cross-checks this handle's :attr:`recovery_notes` against
        the findings: every version a recovery note blames must carry a
        corresponding audit finding (damage :meth:`open` repaired in
        memory is still on disk and must be visible to a third party).
        An unconfirmed note is reported as a ``chain/recovery-unconfirmed``
        advisory.

        Returns:
            The :class:`repro.provenance.audit.AuditReport`.

        Raises:
            ValueError: when the service has no store (there is nothing
                on disk to audit).
            FileNotFoundError: when the store has no such deployment.
        """
        if self.store is None:
            raise ValueError(
                "audit requires a store-backed service; this service "
                "holds deployments in memory only"
            )
        from repro.provenance.audit import AuditFinding
        from repro.provenance.audit import audit_deployment as _audit

        report = _audit(self.store, name, validator=self.validator)
        flagged = {f.version for f in report.findings if f.version is not None}
        state_flagged = any(
            f.code.startswith("chain/state") or f.code.startswith("state/")
            for f in report.findings
        )
        extra = []
        for note in self.recovery_notes.get(name, []):
            match = re.search(r"v(\d+)", note)
            version = None if match is None else int(match.group(1))
            if version is None:
                confirmed = state_flagged or "state" not in note
            else:
                confirmed = version in flagged
            if not confirmed:
                extra.append(
                    AuditFinding(
                        "chain/recovery-unconfirmed",
                        "advisory",
                        version,
                        f"the audit found no damage behind open()'s "
                        f"recovery note: {note}",
                    )
                )
        return report.with_findings(extra)

    def status(self, name: str) -> dict[str, Any]:
        """Operational snapshot of one deployment."""
        deployment = self._get(name)
        with deployment.lock:
            applied = deployment.applied_record
            return {
                "name": name,
                "num_devices": deployment.engine.cluster.num_devices,
                "memory_bytes": deployment.memory_bytes,
                # Logical tables: column shards of one table share a
                # table_id, so the count is stable across re-splits.
                "num_tables": len(
                    {t.table_id for t in deployment.current_tables}
                ),
                "num_shards": len(deployment.current_tables),
                "num_records": len(deployment.records),
                "applied_version": deployment.applied_version,
                "applied_stack": list(deployment.applied_stack),
                # None when nothing is applied or the cost is non-finite
                # (bundle-less engines score plans as nan; bare NaN/inf
                # tokens are not valid JSON for strict parsers).
                "applied_cost_ms": (
                    applied.simulated_cost_ms
                    if applied is not None
                    and math.isfinite(applied.simulated_cost_ms)
                    else None
                ),
                "applied_strategy": (
                    None if applied is None else applied.strategy
                ),
                "default_strategy": deployment.engine.default_strategy,
                # Scenario name of the tuned profile applied at creation
                # (None for untuned deployments).
                "tuned_profile": (
                    None
                    if deployment.profile is None
                    else deployment.profile.scenario
                ),
                "cache": deployment.engine.cache_stats(),
                # Corrupted-tail repairs open() performed on this
                # deployment (empty for a clean store) — operators see
                # at a glance that the served version is a recovery.
                "recovery_notes": list(self.recovery_notes.get(name, [])),
            }

    def _persist_state(
        self,
        deployment: _Deployment,
        applied_stack: Sequence[int] | None = None,
        memory_bytes: int | None = None,
    ) -> None:
        """Write deployment state; overrides let mutating verbs persist
        the post-mutation state *before* touching memory (disk before
        memory — a failed write must leave process and disk agreeing).

        The state carries a provenance stamp anchored at the
        top-of-stack record's chain digest (the genesis digest when
        nothing is applied), so a truncated or edited applied stack is
        detectable offline (see :func:`repro.provenance.chain
        .state_stamp`).
        """
        if self.store is None:
            return
        stack = list(
            deployment.applied_stack if applied_stack is None else applied_stack
        )
        memory = (
            deployment.memory_bytes if memory_bytes is None else memory_bytes
        )
        anchor_version = stack[-1] if stack else 0
        if anchor_version == 0:
            anchor_digest = deployment.genesis_digest
        else:
            anchor_digest = deployment.chain_digests.get(anchor_version)
            if anchor_digest is None:
                anchor_digest = (
                    stored_link_digest(
                        self.store.read_record(deployment.name, anchor_version)
                    )
                    or ""
                )
        self.store.save_state(
            deployment.name,
            {
                "applied_stack": stack,
                "memory_bytes": memory,
                "provenance": state_stamp(
                    stack, memory, anchor_version, anchor_digest
                ),
            },
        )
