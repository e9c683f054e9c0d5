"""Simulation reports: SLO-style metrics of one policy on one regime.

Where a :class:`~repro.scenarios.report.ScenarioReport` is *per step*
(every trace step reshards), a :class:`SimulationReport` is *per unit
time*: the serving cost is a step function over simulated hours, and the
headline metrics are integrals of it — time-weighted mean and p99 cost,
minutes spent violating the SLO, minutes of device downtime, unplaced
table backlog, and migrated megabytes per simulated day.

Everything is deterministic (costs come from the cost-model simulator
and the seeded event processes, never wall clocks), so same seed ⇒
byte-identical report JSON — the property the committed
``benchmarks/results/policy_sim.txt`` artifact and the hypothesis
determinism suite pin.  Serialization follows the repo-wide versioned
schema convention (:mod:`repro.api.schema`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.schema import SCHEMA_VERSION, _check_version

__all__ = [
    "CostSegment",
    "ReshardDecision",
    "SimulationReport",
    "format_policy_matrix",
    "format_simulation_report",
    "time_weighted_mean",
    "time_weighted_quantile",
]


def _to_finite(value: float) -> float | None:
    """JSON-safe float: non-finite values become ``None``."""
    return float(value) if math.isfinite(value) else None


def _from_finite(value: float | None) -> float:
    return math.nan if value is None else float(value)


def time_weighted_mean(segments: "list[CostSegment]") -> float:
    """Duration-weighted mean serving cost (nan on an empty timeline)."""
    total = sum(s.duration_hours for s in segments)
    if total <= 0:
        return math.nan
    return (
        sum(s.serving_cost_ms * s.duration_hours for s in segments) / total
    )


def time_weighted_quantile(
    segments: "list[CostSegment]", q: float
) -> float:
    """Duration-weighted quantile of the serving cost step function.

    ``q=0.99`` answers: the cost level the cluster stayed at or below
    for 99% of simulated time.

    Raises:
        ValueError: when ``q`` is outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    total = sum(s.duration_hours for s in segments)
    if total <= 0:
        return math.nan
    target = q * total
    covered = 0.0
    for segment in sorted(segments, key=lambda s: s.serving_cost_ms):
        covered += segment.duration_hours
        if covered >= target:
            return segment.serving_cost_ms
    return max(s.serving_cost_ms for s in segments)


@dataclass(frozen=True)
class CostSegment:
    """One constant-cost span of the simulated timeline.

    Attributes:
        start_hours: segment start (simulated hours).
        duration_hours: span length (>= 0; zero-length spans between
            same-time event batches are dropped by the runner).
        serving_cost_ms: simulated serving cost over the span (traffic,
            pending stats overlays, straggler factors and the down-device
            penalty included).
        violating: the span counts toward SLO violation-minutes (cost
            above the SLO, or a shard-hosting device down).
        devices_down: down devices during the span.
        backlog_tables: added tables awaiting placement during the span.
    """

    start_hours: float
    duration_hours: float
    serving_cost_ms: float
    violating: bool
    devices_down: int
    backlog_tables: int

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "start_hours": float(self.start_hours),
            "duration_hours": float(self.duration_hours),
            "serving_cost_ms": _to_finite(self.serving_cost_ms),
            "violating": bool(self.violating),
            "devices_down": int(self.devices_down),
            "backlog_tables": int(self.backlog_tables),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostSegment":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        _check_version(data, "cost segment")
        return cls(
            start_hours=float(data["start_hours"]),
            duration_hours=float(data["duration_hours"]),
            serving_cost_ms=_from_finite(data.get("serving_cost_ms")),
            violating=bool(data["violating"]),
            devices_down=int(data.get("devices_down", 0)),
            backlog_tables=int(data.get("backlog_tables", 0)),
        )


@dataclass(frozen=True)
class ReshardDecision:
    """One reshard the policy triggered (or was forced into).

    Attributes:
        time_hours: when the reshard ran.
        reason: the policy's stated trigger.
        feasible: the service found an applicable plan.
        chosen: ``"incremental"`` / ``"full"`` / ``"none"``.
        num_tables: logical tables after the reshard.
        num_shards: physical shards the applied plan places afterwards.
        plan_cost_ms: the applied plan's recorded simulated cost after
            the reshard (the previous plan's when it was infeasible).
        moved_mb: megabytes of surviving shards moved.
        migration_ms: priced migration wall-clock.
        within_budget: the migration respected the budget.
        cost_before_ms / cost_after_ms: serving cost at the decision's
            traffic, immediately before and after the plan change.
        batched_deltas: how many trace deltas the reshard absorbed at
            once (1 for the immediate policy; more for lazy policies).
        scratch_cost_ms / scratch_moved_mb / scratch_migration_ms: the
            re-shard-from-scratch counterfactual evaluated from the same
            applied state (``nan``/0 when not evaluated), filled even
            when the reshard was infeasible.
    """

    time_hours: float
    reason: str
    feasible: bool
    chosen: str
    num_tables: int
    num_shards: int
    plan_cost_ms: float
    moved_mb: float
    migration_ms: float
    within_budget: bool
    cost_before_ms: float
    cost_after_ms: float
    batched_deltas: int
    scratch_cost_ms: float
    scratch_moved_mb: float
    scratch_migration_ms: float

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "time_hours": float(self.time_hours),
            "reason": self.reason,
            "feasible": bool(self.feasible),
            "chosen": self.chosen,
            "num_tables": int(self.num_tables),
            "num_shards": int(self.num_shards),
            "plan_cost_ms": _to_finite(self.plan_cost_ms),
            "moved_mb": float(self.moved_mb),
            "migration_ms": float(self.migration_ms),
            "within_budget": bool(self.within_budget),
            "cost_before_ms": _to_finite(self.cost_before_ms),
            "cost_after_ms": _to_finite(self.cost_after_ms),
            "batched_deltas": int(self.batched_deltas),
            "scratch_cost_ms": _to_finite(self.scratch_cost_ms),
            "scratch_moved_mb": float(self.scratch_moved_mb),
            "scratch_migration_ms": _to_finite(self.scratch_migration_ms),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReshardDecision":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        _check_version(data, "reshard decision")
        return cls(
            time_hours=float(data["time_hours"]),
            reason=str(data.get("reason", "")),
            feasible=bool(data["feasible"]),
            chosen=str(data["chosen"]),
            num_tables=int(data["num_tables"]),
            num_shards=int(data["num_shards"]),
            plan_cost_ms=_from_finite(data["plan_cost_ms"]),
            moved_mb=float(data["moved_mb"]),
            migration_ms=float(data["migration_ms"]),
            within_budget=bool(data["within_budget"]),
            cost_before_ms=_from_finite(data.get("cost_before_ms")),
            cost_after_ms=_from_finite(data.get("cost_after_ms")),
            batched_deltas=int(data.get("batched_deltas", 1)),
            scratch_cost_ms=_from_finite(data["scratch_cost_ms"]),
            scratch_moved_mb=float(data["scratch_moved_mb"]),
            scratch_migration_ms=_from_finite(data["scratch_migration_ms"]),
        )


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one policy simulated over one workload regime.

    Attributes:
        scenario: registry name of the regime (the trace's ``name``).
        policy: registry name of the online policy.
        policy_kwargs: the policy's knobs (plain JSON values).
        seed: trace generator seed.
        sim_seed: fleet-process / probe seed.
        num_devices: cluster size.
        memory_bytes: base per-device budget.
        horizon_hours: simulated span.
        slo_ms: the serving-cost SLO the violation metric counts against.
        strategy: full-search strategy (``None`` = engine default).
        reshard_config: migration knobs of every reshard, as a dict.
        segments: the serving-cost step function, time-ascending.
        reshards: every reshard decision, time-ascending.
        num_events: events the simulation processed.
        final_tables: logical tables at the horizon.
        initial_cost_ms / initial_shards / initial_tables: the t=0
            plan's recorded simulated cost, physical shards and logical
            tables.
    """

    scenario: str
    policy: str
    policy_kwargs: Mapping[str, Any]
    seed: int
    sim_seed: int
    num_devices: int
    memory_bytes: int
    horizon_hours: float
    slo_ms: float
    strategy: str | None
    reshard_config: Mapping[str, Any]
    segments: tuple[CostSegment, ...]
    reshards: tuple[ReshardDecision, ...]
    num_events: int
    final_tables: int
    initial_cost_ms: float
    initial_shards: int
    initial_tables: int

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    @property
    def mean_cost_ms(self) -> float:
        """Time-weighted mean serving cost over the horizon."""
        return time_weighted_mean(list(self.segments))

    @property
    def p99_cost_ms(self) -> float:
        """Time-weighted 99th-percentile serving cost."""
        return time_weighted_quantile(list(self.segments), 0.99)

    @property
    def peak_cost_ms(self) -> float:
        """Worst serving cost of any span."""
        costs = [
            s.serving_cost_ms
            for s in self.segments
            if math.isfinite(s.serving_cost_ms)
        ]
        return max(costs) if costs else math.nan

    @property
    def violation_minutes(self) -> float:
        """Minutes the cluster spent violating the SLO."""
        return 60.0 * sum(
            s.duration_hours for s in self.segments if s.violating
        )

    @property
    def downtime_minutes(self) -> float:
        """Minutes with at least one device down."""
        return 60.0 * sum(
            s.duration_hours for s in self.segments if s.devices_down > 0
        )

    @property
    def backlog_table_hours(self) -> float:
        """Unplaced-added-table hours (tables waiting x hours waited)."""
        return sum(
            s.backlog_tables * s.duration_hours for s in self.segments
        )

    @property
    def reshard_count(self) -> int:
        """Reshard attempts over the horizon."""
        return len(self.reshards)

    @property
    def infeasible_reshards(self) -> int:
        """Reshard attempts that found no applicable plan."""
        return sum(1 for r in self.reshards if not r.feasible)

    @property
    def total_moved_mb(self) -> float:
        """Megabytes of surviving shards moved over the horizon."""
        return sum(r.moved_mb for r in self.reshards)

    @property
    def moved_mb_per_day(self) -> float:
        """Migrated megabytes per simulated day."""
        if self.horizon_hours <= 0:
            return math.nan
        return self.total_moved_mb / (self.horizon_hours / 24.0)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "policy": self.policy,
            "policy_kwargs": dict(self.policy_kwargs),
            "seed": int(self.seed),
            "sim_seed": int(self.sim_seed),
            "num_devices": int(self.num_devices),
            "memory_bytes": int(self.memory_bytes),
            "horizon_hours": float(self.horizon_hours),
            "slo_ms": float(self.slo_ms),
            "strategy": self.strategy,
            "reshard_config": dict(self.reshard_config),
            "segments": [s.to_dict() for s in self.segments],
            "reshards": [r.to_dict() for r in self.reshards],
            "num_events": int(self.num_events),
            "final_tables": int(self.final_tables),
            "initial_cost_ms": _to_finite(self.initial_cost_ms),
            "initial_shards": int(self.initial_shards),
            "initial_tables": int(self.initial_tables),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationReport":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        _check_version(data, "simulation report")
        return cls(
            scenario=str(data["scenario"]),
            policy=str(data["policy"]),
            policy_kwargs=dict(data.get("policy_kwargs", {})),
            seed=int(data["seed"]),
            sim_seed=int(data.get("sim_seed", 0)),
            num_devices=int(data["num_devices"]),
            memory_bytes=int(data["memory_bytes"]),
            horizon_hours=float(data["horizon_hours"]),
            slo_ms=float(data["slo_ms"]),
            strategy=data.get("strategy"),
            reshard_config=dict(data.get("reshard_config", {})),
            segments=tuple(
                CostSegment.from_dict(s) for s in data.get("segments", ())
            ),
            reshards=tuple(
                ReshardDecision.from_dict(r) for r in data.get("reshards", ())
            ),
            num_events=int(data.get("num_events", 0)),
            final_tables=int(data.get("final_tables", 0)),
            initial_cost_ms=_from_finite(data["initial_cost_ms"]),
            initial_shards=int(data["initial_shards"]),
            initial_tables=int(data["initial_tables"]),
        )

    def summary(self) -> dict[str, Any]:
        """One-row aggregate view (CLI ``simulate compare``, benchmarks)."""
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "mean_cost_ms": self.mean_cost_ms,
            "p99_cost_ms": self.p99_cost_ms,
            "violation_minutes": self.violation_minutes,
            "downtime_minutes": self.downtime_minutes,
            "backlog_table_hours": self.backlog_table_hours,
            "reshards": self.reshard_count,
            "infeasible_reshards": self.infeasible_reshards,
            "moved_mb": self.total_moved_mb,
            "moved_mb_per_day": self.moved_mb_per_day,
        }


def _fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}" if math.isfinite(value) else "-"


def format_simulation_report(report: SimulationReport) -> str:
    """Render one simulation as a text table of its reshard decisions."""
    from repro.evaluation.reporting import format_text_table

    rows = []
    for r in report.reshards:
        rows.append(
            [
                f"{r.time_hours:.2f}",
                r.reason,
                r.chosen,
                r.num_tables,
                r.batched_deltas,
                f"{r.moved_mb:.1f}",
                _fmt(r.cost_before_ms),
                _fmt(r.cost_after_ms),
                "yes" if r.within_budget else "no",
            ]
        )
    title = (
        f"policy {report.policy} on {report.scenario} "
        f"(seed {report.seed}, {report.num_devices} devices, "
        f"{report.horizon_hours:.1f}h): mean {_fmt(report.mean_cost_ms)} ms, "
        f"p99 {_fmt(report.p99_cost_ms)} ms, "
        f"violation {report.violation_minutes:.1f} min, "
        f"moved {report.total_moved_mb:.1f} MB "
        f"({_fmt(report.moved_mb_per_day, 1)} MB/day)"
    )
    return format_text_table(
        [
            "t (h)",
            "reason",
            "chosen",
            "tables",
            "batched",
            "moved (MB)",
            "cost before",
            "cost after",
            "in budget",
        ],
        rows,
        title=title,
    )


def format_policy_matrix(reports: "list[SimulationReport]") -> str:
    """Render the policy-vs-regime comparison the benchmarks commit.

    One row per (scenario, policy), scenario-major — the layout of
    ``benchmarks/results/policy_sim.txt``.
    """
    from repro.evaluation.reporting import format_text_table

    rows = []
    for report in reports:
        s = report.summary()
        rows.append(
            [
                s["scenario"],
                s["policy"],
                _fmt(s["mean_cost_ms"]),
                _fmt(s["p99_cost_ms"]),
                f"{s['violation_minutes']:.1f}",
                f"{s['backlog_table_hours']:.2f}",
                s["reshards"],
                s["infeasible_reshards"],
                f"{s['moved_mb']:.1f}",
                _fmt(s["moved_mb_per_day"], 1),
            ]
        )
    scenarios = len({r.scenario for r in reports})
    policies = len({r.policy for r in reports})
    return format_text_table(
        [
            "scenario",
            "policy",
            "mean (ms)",
            "p99 (ms)",
            "violation (min)",
            "backlog (tbl*h)",
            "reshards",
            "infeasible",
            "moved (MB)",
            "MB/day",
        ],
        rows,
        title=(
            f"online resharding policies: {policies} policies x "
            f"{scenarios} regimes"
        ),
    )
