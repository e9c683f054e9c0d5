"""The simulation loop: events in, policy decisions and SLO metrics out.

:func:`simulate_policy` plays a workload regime — any
:class:`~repro.scenarios.trace.WorkloadTrace`, converted to events by the
adapter — against an :class:`~repro.simulator.policies.OnlinePolicy`
over a live, in-memory :class:`~repro.api.service.ShardingService`:

1. t=0 plans and applies the trace's initial workload; the SLO is fixed
   from that plan's cost.
2. Machine events (:class:`~repro.simulator.processes.FleetProcess`),
   workload events and policy ticks pop off one
   :class:`~repro.simulator.events.EventClock`, batch-per-timestamp.
3. Workload deltas and capacity changes **pend** rather than reshard:
   pending stats updates and removals overlay the serving cost (the
   hardware feels the new access pattern whether or not the plan moved),
   while pending *added* tables cannot serve and accrue backlog.
4. After every batch the policy is consulted; when it gives a reason and
   something is pending, the merged pending delta goes through
   :meth:`~repro.api.service.ShardingService.reshard` under the
   migration budget (validated like any other lifecycle reshard).  An
   infeasible reshard drops the batch and the previous plan keeps
   serving.
5. The serving cost between batches is one constant
   :class:`~repro.simulator.report.CostSegment`; the report integrates
   them into time-weighted mean/p99 cost, SLO violation-minutes and
   migrated MB per simulated day.

With the ``immediate`` policy and a quiet fleet this loop *is* the
scenario replay: :func:`~repro.evaluation.production.replay_workload_trace`
runs it and projects the report onto the trace's steps, so this is the
only loop that drives :meth:`~repro.api.service.ShardingService.reshard`
from a workload.

Everything is deterministic: costs come from the cost-model simulator,
event times from seeded processes, and no wall clock is ever read.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.costmodel.drift import DriftMonitor, DriftReport
from repro.scenarios.trace import WorkloadTrace
from repro.simulator.adapter import trace_to_events
from repro.simulator.events import (
    DEGRADE_END,
    DEGRADE_START,
    DEVICE_DOWN,
    DEVICE_UP,
    MEMORY,
    POLICY_TICK,
    TRAFFIC,
    WORKLOAD_DELTA,
    Event,
    EventClock,
)
from repro.simulator.policies import OnlinePolicy, PolicyObservation
from repro.simulator.processes import FleetProcess, FleetSpec
from repro.simulator.report import (
    CostSegment,
    ReshardDecision,
    SimulationReport,
)

if TYPE_CHECKING:  # imported lazily at runtime (repro.api import cycle)
    from repro.api import ReshardConfig, ShardingEngine, ShardingService
    from repro.api.reshard import WorkloadDelta

__all__ = ["SimulationConfig", "merge_deltas", "simulate_policy"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run (everything deterministic).

    Attributes:
        horizon_hours: simulated span; default: one tick past the last
            scheduled event.
        tick_hours: policy wake-up cadence (decision points also follow
            every state-changing event batch).
        slo_factor: SLO = ``slo_factor`` × the initial plan's cost.
        slo_cost_ms: absolute SLO override (wins over ``slo_factor``).
        sim_seed: seed of the fleet processes and drift probes.
        fleet: machine-dynamics rates (default: quiet — no machine
            events, pure workload replay).
        down_penalty: serving-cost multiplier of a down device's share
            (requests against its shards retry/time out; they do not
            vanish).
        drift_monitor: when provided, every policy tick runs one
            deterministic :meth:`~repro.costmodel.drift.DriftMonitor
            .probe` and feeds the stamped report to the policy.
        drift_probe_samples / drift_probe_max_tables: probe batch shape.
    """

    horizon_hours: float | None = None
    tick_hours: float = 1.0
    slo_factor: float = 1.5
    slo_cost_ms: float | None = None
    sim_seed: int = 0
    fleet: FleetSpec = field(default_factory=FleetSpec)
    down_penalty: float = 4.0
    drift_monitor: DriftMonitor | None = None
    drift_probe_samples: int = 8
    drift_probe_max_tables: int = 10

    def __post_init__(self) -> None:
        if self.tick_hours <= 0:
            raise ValueError(f"tick_hours must be > 0, got {self.tick_hours}")
        if self.horizon_hours is not None and self.horizon_hours <= 0:
            raise ValueError(
                f"horizon_hours must be > 0, got {self.horizon_hours}"
            )
        if self.slo_factor <= 1.0:
            raise ValueError(f"slo_factor must be > 1, got {self.slo_factor}")
        if self.slo_cost_ms is not None and self.slo_cost_ms <= 0:
            raise ValueError(
                f"slo_cost_ms must be > 0, got {self.slo_cost_ms}"
            )
        if self.down_penalty < 1.0:
            raise ValueError(
                f"down_penalty must be >= 1, got {self.down_penalty}"
            )


def merge_deltas(
    deltas: "Sequence[WorkloadDelta]", base_ids: set[int]
) -> "WorkloadDelta":
    """Coalesce pending deltas into one, relative to the applied tables.

    The rules mirror applying the deltas one by one (removes before adds
    within each delta, like :func:`~repro.api.reshard
    .incremental_reshard`):

    - a table added while pending and then removed never existed —
      both sides cancel;
    - re-adding a pending-removed applied table is a rebuild (remove +
      add survive together, the :func:`~repro.scenarios.trace
      .rebuild_delta` encoding);
    - stats updates last-write-win; an update to a pending *add* folds
      into the added config, an update to a pending *remove* is dropped
      (the table is leaving);
    - the newest drift report wins.

    Args:
        deltas: pending deltas, oldest first.
        base_ids: logical table ids of the *applied* plan (distinguishes
            cancel-the-add from rebuild-the-table).
    """
    from repro.api.reshard import WorkloadDelta

    adds: dict[int, Any] = {}
    removes: set[int] = set()
    stats: dict[int, Any] = {}
    drift: DriftReport | None = None
    for delta in deltas:
        for table_id in delta.remove_table_ids:
            if table_id in adds and table_id not in base_ids:
                del adds[table_id]  # add+remove while pending: cancels
            else:
                removes.add(table_id)
            stats.pop(table_id, None)
        for table in delta.add_tables:
            adds[table.table_id] = table
            stats.pop(table.table_id, None)
        for table in delta.update_stats:
            if table.table_id in adds:
                adds[table.table_id] = dataclasses.replace(
                    adds[table.table_id],
                    pooling_factor=table.pooling_factor,
                    zipf_alpha=table.zipf_alpha,
                )
            elif table.table_id in removes:
                continue
            else:
                stats[table.table_id] = table
        if delta.drift is not None:
            drift = delta.drift
    return WorkloadDelta(
        add_tables=tuple(adds[i] for i in sorted(adds)),
        remove_table_ids=tuple(sorted(removes)),
        update_stats=tuple(stats[i] for i in sorted(stats)),
        drift=drift,
    )


def _serving_cost_overlaid(
    engine: "ShardingEngine",
    record,
    traffic: float,
    stats_overlay: Mapping[int, Any],
    removed: set[int],
    device_factors: Mapping[int, float],
    down: set[int],
    down_penalty: float,
) -> float:
    """Serving cost of the applied plan under the *live* cluster state.

    The applied placement is scored with pending stats updates and
    removals overlaid (the hardware already feels them), the traffic
    multiplier scaling every shard's ``pooling_factor`` (column halves
    keep their parent's, so with nothing overlaid this equals scoring
    the scaled tables before placement), and each device's share scaled
    by its straggler factor (down devices by ``down_penalty`` on top).
    """
    per_device = record.plan.per_device_tables(record.base_tables)
    overlaid: list[list[Any]] = []
    for tables in per_device:
        scored = []
        for table in tables:
            if table.table_id in removed:
                continue
            update = stats_overlay.get(table.table_id)
            if update is not None:
                table = dataclasses.replace(
                    table,
                    pooling_factor=update.pooling_factor,
                    zipf_alpha=update.zipf_alpha,
                )
            if traffic != 1.0:
                table = dataclasses.replace(
                    table,
                    pooling_factor=max(table.pooling_factor * traffic, 1e-6),
                )
            scored.append(table)
        overlaid.append(scored)
    costs = engine.simulator.plan_cost(overlaid).device_costs_ms
    worst = 0.0
    for device, cost in enumerate(costs):
        factor = device_factors.get(device, 1.0)
        if device in down:
            factor *= down_penalty
        worst = max(worst, cost * factor)
    return worst


def _device_bytes(record) -> int:
    """Worst-device stored bytes of the applied plan (capacity signal)."""
    per_device = record.plan.per_device_tables(record.base_tables)
    return max(
        (sum(t.size_bytes for t in tables) for tables in per_device),
        default=0,
    )


def simulate_policy(
    trace: WorkloadTrace,
    engine: "ShardingEngine",
    policy: OnlinePolicy,
    reshard_config: "ReshardConfig | None" = None,
    strategy: str | None = None,
    config: SimulationConfig | None = None,
    extra_events: Sequence[Event] = (),
    service: "ShardingService | None" = None,
    deployment: str | None = None,
) -> SimulationReport:
    """Simulate one online policy over one workload regime.

    Args:
        trace: the workload regime (see :func:`repro.scenarios
            .make_trace`); its steps become the workload event stream.
        engine: serving engine with a cost-model bundle matching the
            trace's device count.
        policy: the reshard decision rule (see :func:`repro.simulator
            .policies.make_policy`); its state is reset first.
        reshard_config: migration budget / lambda knobs of every
            reshard (defaults to unbounded).
        strategy: full-search strategy name (engine default if omitted).
        config: simulation knobs (SLO, ticks, fleet, horizon).
        extra_events: additional caller-scripted events (tested
            faults, hand-written traffic spikes, ...).
        service: lifecycle service to simulate into (an in-memory one
            is created if omitted).  Injecting one keeps the full plan
            history around for post-hoc auditing — e.g. running
            :meth:`~repro.api.service.ShardingService
            .validate_deployment` over every simulated reshard.
        deployment: deployment name (default ``sim-<trace name>``).

    Returns:
        The deterministic :class:`~repro.simulator.report
        .SimulationReport`.

    Raises:
        ValueError: when the engine has no bundle or mismatches the
            trace's device count.
        RuntimeError: when the initial workload has no feasible plan.
    """
    from repro.api import ReshardConfig, ShardingService

    if engine.simulator is None:
        raise ValueError(
            "simulating a policy needs an engine with a cost-model bundle "
            "(it scores serving costs and reshard candidates)"
        )
    if engine.cluster.num_devices != trace.num_devices:
        raise ValueError(
            f"trace {trace.name!r} targets {trace.num_devices} devices but "
            f"the engine cluster has {engine.cluster.num_devices}"
        )
    config = config or SimulationConfig()
    reshard_config = reshard_config or ReshardConfig()

    workload_events = trace_to_events(trace)
    last_scheduled = max(
        [e.time for e in workload_events] + [e.time for e in extra_events],
        default=0.0,
    )
    horizon = config.horizon_hours or (last_scheduled + config.tick_hours)

    clock = EventClock()
    clock.extend(workload_events)
    if not config.fleet.quiet:
        process = FleetProcess(
            config.fleet, trace.num_devices, seed=config.sim_seed
        )
        clock.extend(e for e in process.generate(horizon) if e.time <= horizon)
    for extra in extra_events:
        if extra.time <= horizon:
            clock.push(extra)
    tick = config.tick_hours
    n_ticks = int(math.floor(horizon / tick + 1e-9))
    clock.extend(Event(tick * k, POLICY_TICK) for k in range(1, n_ticks + 1))

    # ------------------------------------------------------------------
    # t = 0: plan and apply the initial workload
    # ------------------------------------------------------------------
    service = service or ShardingService()
    name = deployment or f"sim-{trace.name}"
    service.create_deployment(
        name, engine, tables=trace.initial_tables,
        memory_bytes=trace.memory_bytes,
    )
    applied = service.plan(name, strategy=strategy,
                           request_id=f"{trace.name}-sim-initial")
    if not applied.feasible:
        raise RuntimeError(
            f"scenario {trace.name!r}: the initial workload has no feasible "
            "plan; regenerate with a looser memory budget or fewer tables"
        )
    service.apply(name)
    applied = initial = service.applied_record(name)
    assert applied is not None

    slo_ms = config.slo_cost_ms or config.slo_factor * applied.simulated_cost_ms

    # ------------------------------------------------------------------
    # mutable simulation state
    # ------------------------------------------------------------------
    spec = engine.cluster.spec
    pending_deltas: list[Any] = []
    pending_memory: int | None = None
    current_memory = trace.memory_bytes
    traffic = 1.0
    down: set[int] = set()
    episodes: dict[str, tuple[int, float]] = {}  # episode -> (device, factor)
    pending_drift: DriftReport | None = None
    last_reshard_time = 0.0
    probe_count = 0
    num_events = 0

    policy.reset()

    def base_ids() -> set[int]:
        return {t.table_id for t in applied.base_tables}

    def merged_pending():
        # A lone pending delta passes through verbatim: the incremental
        # search is order-sensitive, and the immediate policy (the
        # scenario replay) must reshard each trace step's delta as
        # written.
        if len(pending_deltas) == 1:
            return pending_deltas[0]
        return merge_deltas(pending_deltas, base_ids())

    def device_factors() -> dict[int, float]:
        factors: dict[int, float] = {}
        for device, factor in episodes.values():
            factors[device] = factors.get(device, 1.0) * factor
        return factors

    def current_cost(overlaid: bool = True) -> float:
        merged = merged_pending() if overlaid and pending_deltas else None
        return _serving_cost_overlaid(
            engine,
            applied,
            traffic,
            {t.table_id: t for t in merged.update_stats} if merged else {},
            set(merged.remove_table_ids) - {t.table_id for t in merged.add_tables}
            if merged
            else set(),
            device_factors(),
            down,
            config.down_penalty,
        )

    segments: list[CostSegment] = []
    reshards: list[ReshardDecision] = []
    cost = current_cost()
    baseline = cost
    prev_time = 0.0

    def close_segment(until: float) -> None:
        nonlocal prev_time
        if until > prev_time:
            merged = merged_pending() if pending_deltas else None
            backlog = len(merged.add_tables) if merged else 0
            segments.append(
                CostSegment(
                    start_hours=prev_time,
                    duration_hours=until - prev_time,
                    serving_cost_ms=cost,
                    violating=cost > slo_ms or bool(down),
                    devices_down=len(down),
                    backlog_tables=backlog,
                )
            )
        prev_time = until

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    while not clock.empty and clock.peek_time() <= horizon:
        batch = clock.pop_simultaneous()
        now = clock.now
        close_segment(now)

        ticked = False
        for event in batch:
            num_events += 1
            if event.kind == WORKLOAD_DELTA:
                pending_deltas.append(event.payload)
                if event.payload.drift is not None:
                    pending_drift = event.payload.drift
            elif event.kind == TRAFFIC:
                traffic = float(event.payload)
            elif event.kind == MEMORY:
                scaled = int(round(trace.memory_bytes * float(event.payload)))
                pending_memory = None if scaled == current_memory else scaled
            elif event.kind == DEVICE_DOWN:
                down.add(int(event.payload))
            elif event.kind == DEVICE_UP:
                down.discard(int(event.payload))
            elif event.kind == DEGRADE_START:
                device, factor, episode = event.payload
                episodes[episode] = (int(device), float(factor))
            elif event.kind == DEGRADE_END:
                _, episode = event.payload
                episodes.pop(episode, None)
            elif event.kind == POLICY_TICK:
                ticked = True

        if ticked and config.drift_monitor is not None:
            probe_count += 1
            pending_drift = config.drift_monitor.probe(
                num_samples=config.drift_probe_samples,
                seed=config.sim_seed + probe_count,
                max_tables=config.drift_probe_max_tables,
                timestamp=now,
                step_index=probe_count,
            )

        cost = current_cost()

        merged = merged_pending() if pending_deltas else None
        pending_add_mb = (
            sum(t.size_bytes for t in merged.add_tables) / 1e6 if merged else 0.0
        )
        budget = pending_memory if pending_memory is not None else current_memory
        obs = PolicyObservation(
            time_hours=now,
            hours_since_reshard=now - last_reshard_time,
            serving_cost_ms=cost,
            baseline_cost_ms=baseline,
            slo_ms=slo_ms,
            traffic_multiplier=traffic,
            pending_adds=len(merged.add_tables) if merged else 0,
            pending_removes=len(merged.remove_table_ids) if merged else 0,
            pending_updates=len(merged.update_stats) if merged else 0,
            pending_add_mb=pending_add_mb,
            pending_memory_change=pending_memory is not None,
            over_budget=_device_bytes(applied) > budget,
            estimated_migration_ms=(
                pending_add_mb * 1e6 / spec.comm_bandwidth_bytes_per_ms
                + (len(merged.add_tables) if merged else 0) * spec.comm_latency_ms
            ),
            drift=pending_drift,
        )
        reason = policy.decide(obs)
        if reason and obs.pending:
            delta = merged if merged is not None else merge_deltas([], set())
            cost_before = cost
            record = service.reshard(
                name,
                delta,
                config=reshard_config,
                strategy=strategy,
                request_id=f"{trace.name}-sim-{len(reshards) + 1}",
                memory_bytes=pending_memory,
            )
            if pending_memory is not None:
                current_memory = pending_memory
            # Consumed either way: an infeasible reshard drops the batch
            # (the previous plan keeps serving).
            pending_deltas.clear()
            pending_memory = None
            pending_drift = None
            if record.feasible:
                applied = service.applied_record(name)
                assert applied is not None
            cost = current_cost()
            baseline = cost
            last_reshard_time = now
            landed = record.feasible and record.diff is not None
            full = record.metadata.get("full_search") or {}
            reshards.append(
                ReshardDecision(
                    time_hours=now,
                    reason=reason,
                    feasible=record.feasible,
                    chosen=str(record.metadata.get("chosen", "?")),
                    num_tables=len(base_ids()),
                    num_shards=len(applied.plan.assignment),
                    plan_cost_ms=applied.simulated_cost_ms,
                    moved_mb=record.diff.moved_bytes / 1e6 if landed else 0.0,
                    migration_ms=(
                        record.diff.migration_cost_ms if landed else 0.0
                    ),
                    within_budget=landed
                    and bool(record.metadata.get("within_budget", True)),
                    cost_before_ms=cost_before,
                    cost_after_ms=cost,
                    batched_deltas=len(delta.add_tables)
                    + len(delta.remove_table_ids)
                    + len(delta.update_stats)
                    + (1 if obs.pending_memory_change else 0),
                    scratch_cost_ms=float(
                        full.get("simulated_cost_ms", math.nan)
                    ),
                    scratch_moved_mb=full.get("moved_bytes", 0) / 1e6,
                    scratch_migration_ms=float(
                        full.get("migration_cost_ms", math.nan)
                    ),
                )
            )
            policy.notify_reshard(obs)

    close_segment(horizon)

    return SimulationReport(
        scenario=trace.name,
        policy=policy.name,
        policy_kwargs=_policy_kwargs(policy),
        seed=trace.seed,
        sim_seed=config.sim_seed,
        num_devices=trace.num_devices,
        memory_bytes=trace.memory_bytes,
        horizon_hours=horizon,
        slo_ms=slo_ms,
        strategy=strategy,
        reshard_config=reshard_config.to_dict(),
        segments=tuple(segments),
        reshards=tuple(reshards),
        num_events=num_events,
        final_tables=len({t.table_id for t in applied.base_tables}),
        initial_cost_ms=initial.simulated_cost_ms,
        initial_shards=len(initial.plan.assignment),
        initial_tables=len({t.table_id for t in initial.base_tables}),
    )


def _policy_kwargs(policy: OnlinePolicy) -> dict[str, Any]:
    """The policy's public knobs (its non-underscore instance attrs)."""
    return {
        key: value
        for key, value in vars(policy).items()
        if not key.startswith("_") and isinstance(value, (int, float, str, bool))
    }
