"""The production-scale experiments (Section 4.5 / Table 4 + trace replay).

**Table 4** (:func:`run_production_experiment`): the paper deploys
NeuroShard on an ultra-large production DLRM: nearly a thousand
embedding tables demanding multi-terabyte memory, sharded onto 128 GPUs,
reporting per-method embedding cost and end-to-end training throughput
improvement over random sharding.  Production hardware and model are
unavailable, so this experiment *scales the same shape down*: a large
table subset with big dimensions under a deliberately tight memory
budget (so column-wise sharding is mandatory), a large simulated
cluster, and throughput measured from the trace simulator's steady-state
iteration time.

Faithful to the paper's protocol, the table-wise-only baselines first
receive NeuroShard's column-wise plan ("we first apply the column-wise
sharding plan proposed by NeuroShard and then run the baselines"), while
TorchRec plans its own column splits.

**Trace replay** (:func:`replay_workload_trace`): any
:class:`~repro.scenarios.trace.WorkloadTrace` — hand-written or generated
by the scenario atlas (:mod:`repro.scenarios`) — runs through the
discrete-event simulator (:func:`~repro.simulator.runner.simulate_policy`)
with the ``immediate`` policy, which reshards every step's delta under
the configured migration budget; the replay projects that run onto the
trace's steps as a deterministic
:class:`~repro.scenarios.report.ScenarioReport`.  Day-over-day table
churn is the ``table_churn`` scenario.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime (repro.api import cycle)
    from repro.api import ReshardConfig, ShardingEngine, ShardingService
    from repro.scenarios.report import ScenarioReport
    from repro.scenarios.trace import WorkloadTrace

from repro.baselines import (
    AutoShardSharder,
    DreamShardSharder,
    GreedySharder,
    PlannerSharder,
    RandomSharder,
)
from repro.baselines.base import Sharder, assignment_to_plan
from repro.config import (
    ClusterConfig,
    CollectionConfig,
    SearchConfig,
    TrainConfig,
)
from repro.core.plan import apply_column_plan
from repro.core.sharder import NeuroShard
from repro.data.pool import TablePool
from repro.data.tasks import ShardingTask
from repro.evaluation.runner import execute_plan
from repro.hardware.cluster import SimulatedCluster

__all__ = [
    "ProductionRow",
    "REPLAY_SEARCH_CONFIG",
    "replay_workload_trace",
    "run_production_experiment",
]

#: Reduced search scale of the replay experiments (one search per step,
#: not one-shot benchmark fidelity).  The CLI ``scenario`` verbs and
#: ``benchmarks/test_scenarios.py`` share this constant so their
#: engines search identically — one of the inputs (besides
#: bundle, pool seed, trace seed and reshard knobs) that must match for
#: a CLI replay to byte-reproduce a committed ``scenario_*.txt``.
REPLAY_SEARCH_CONFIG = SearchConfig(
    top_n=4, beam_width=2, max_steps=6, grid_points=5
)


@dataclass(frozen=True)
class ProductionRow:
    """One Table 4 row: method, cost, throughput improvement."""

    method: str
    embedding_cost_ms: float
    throughput_improvement_pct: float  # vs Random; nan for Random itself


def _make_production_task(
    pool: TablePool,
    num_devices: int,
    num_tables: int,
    memory_bytes: int,
    seed: int,
) -> ShardingTask:
    """A production-flavoured task: many tables, large dimensions.

    Dimensions are drawn from {64, 128} weighted toward 128, the regime
    where table-wise-only methods hit memory walls.
    """
    rng = np.random.default_rng(seed)
    tables = pool.sample_tables(num_tables, rng)
    dims = rng.choice([64, 128], size=len(tables), p=[0.3, 0.7])
    tables = [t.with_dim(int(d)) for t, d in zip(tables, dims)]
    # Keep the aggregate under cluster capacity (tasks must be solvable
    # by *some* plan); drop the largest tables until it is.
    tables.sort(key=lambda t: t.size_bytes)
    while tables and sum(t.size_bytes for t in tables) > 0.7 * memory_bytes * num_devices:
        tables.pop()
    if not tables:
        raise RuntimeError("memory budget too small for any production table")
    return ShardingTask(
        tables=tuple(tables),
        num_devices=num_devices,
        memory_bytes=memory_bytes,
        task_id=0,
    )


def run_production_experiment(
    pool: TablePool,
    num_devices: int = 32,
    num_tables: int = 120,
    memory_bytes: int = 2 * 1024**3,
    collection: CollectionConfig | None = None,
    train: TrainConfig | None = None,
    search: SearchConfig | None = None,
    rl_episodes: int = 30,
    seed: int = 0,
) -> list[ProductionRow]:
    """Reproduce Table 4's comparison on a scaled production task.

    Args:
        pool: the table pool.
        num_devices: cluster size (paper: 128; default scaled to 32 so
            the experiment runs in minutes — see EXPERIMENTS.md).
        num_tables: tables in the production model (paper: ~1000).
        memory_bytes: per-device budget, deliberately tight.
        collection / train / search: NeuroShard configuration.
        rl_episodes: episode budget of the RL baselines.
        seed: master seed.

    Returns:
        One row per method, Random first.
    """
    cluster = SimulatedCluster(
        ClusterConfig(num_devices=num_devices, memory_bytes=memory_bytes)
    )
    task = _make_production_task(
        pool, num_devices, num_tables, memory_bytes, seed
    )

    search = search or REPLAY_SEARCH_CONFIG
    neuroshard, _ = NeuroShard.pretrain(
        cluster,
        pool,
        collection=collection,
        train=train,
        search=search,
        seed=seed,
    )
    ns_result = neuroshard.shard(task)
    if not ns_result.feasible or ns_result.plan is None:
        raise RuntimeError(
            "NeuroShard found no feasible production plan; loosen the "
            "memory budget or reduce num_tables"
        )
    column_plan = ns_result.plan.column_plan

    # Baselines (except TorchRec) run table-wise on NeuroShard's
    # column-sharded tables, as in the paper.
    sharded_tables = apply_column_plan(task.tables, column_plan)
    sharded_task = ShardingTask(
        tables=tuple(sharded_tables),
        num_devices=num_devices,
        memory_bytes=memory_bytes,
        task_id=0,
    )

    baselines: list[Sharder] = [
        RandomSharder(seed=seed),
        GreedySharder("Size-based"),
        GreedySharder("Dim-based"),
        GreedySharder("Lookup-based"),
        GreedySharder("Size-lookup-based"),
        AutoShardSharder(neuroshard.models, episodes=rl_episodes, seed=seed),
        DreamShardSharder(neuroshard.models, episodes=rl_episodes, seed=seed),
    ]

    rows: list[ProductionRow] = []
    random_throughput = math.nan

    def run(method: str, plan) -> tuple[float, float]:
        if plan is None:
            return math.nan, math.nan
        execution = execute_plan(plan, task, cluster)
        if execution is None:
            return math.nan, math.nan
        return execution.max_cost_ms, execution.throughput_samples_per_s

    for baseline in baselines:
        plan = baseline.shard(sharded_task)
        if plan is not None:
            # Re-anchor the assignment onto the original task by carrying
            # NeuroShard's column plan.
            plan = assignment_to_plan(
                plan.assignment, num_devices, column_plan=column_plan
            )
        cost, throughput = run(baseline.name, plan)
        if baseline.name == "Random":
            random_throughput = throughput
            rows.append(ProductionRow(baseline.name, cost, math.nan))
        else:
            improvement = (
                (throughput - random_throughput) / random_throughput * 100.0
                if not math.isnan(throughput) and not math.isnan(random_throughput)
                else math.nan
            )
            rows.append(ProductionRow(baseline.name, cost, improvement))

    # TorchRec plans its own column-wise sharding on the original task.
    torchrec = PlannerSharder(batch_size=cluster.batch_size)
    cost, throughput = run(torchrec.name, torchrec.shard(task))
    rows.append(
        ProductionRow(
            torchrec.name,
            cost,
            (throughput - random_throughput) / random_throughput * 100.0
            if not math.isnan(throughput) and not math.isnan(random_throughput)
            else math.nan,
        )
    )

    cost, throughput = run("NeuroShard", ns_result.plan)
    rows.append(
        ProductionRow(
            "NeuroShard",
            cost,
            (throughput - random_throughput) / random_throughput * 100.0
            if not math.isnan(throughput) and not math.isnan(random_throughput)
            else math.nan,
        )
    )
    return rows


def replay_workload_trace(
    trace: "WorkloadTrace",
    engine: "ShardingEngine",
    reshard_config: "ReshardConfig | None" = None,
    strategy: str | None = None,
    service: "ShardingService | None" = None,
    deployment: str | None = None,
) -> "ScenarioReport":
    """Replay a workload trace end-to-end through the lifecycle service.

    The per-step view of the simulator behind the scenario atlas
    (:mod:`repro.scenarios`): the trace runs through
    :func:`~repro.simulator.runner.simulate_policy` with the
    ``immediate`` policy on a quiet fleet, and its report is projected
    onto the trace's steps:

    1. row 0 is the initial plan (planned and applied at t=0);
    2. a step the simulator resharded at — a non-empty delta, or a
       ``memory_scale`` that changes the per-device budget — carries
       that :class:`~repro.simulator.report.ReshardDecision`: the
       chosen candidate, the migration paid, whether the budget bound
       the choice, and the re-shard-from-scratch counterfactual;
    3. any other step holds the last applied plan;
    4. every step's serving cost is the simulated cost segment covering
       its timestamp (the applied plan under the step's traffic).

    An infeasible reshard keeps the previous plan serving (and the row
    reports ``feasible=False``) — the replay continues, so a scenario
    can probe the feasibility edge without aborting.

    Everything reported is deterministic: same trace + same engine
    bundle ⇒ an identical report.

    Args:
        trace: the scenario to replay (see :func:`repro.scenarios
            .make_trace`).
        engine: serving engine; must carry a cost-model bundle (it scores
            candidates and serving costs) and match the trace's device
            count.
        reshard_config: migration budget / lambda knobs for every reshard
            step (defaults to unbounded).
        strategy: full-search strategy name (engine default when omitted).
        service: replay into an existing service (an in-memory one is
            created when omitted).
        deployment: deployment name (the trace's name when omitted).

    Returns:
        The per-step :class:`~repro.scenarios.report.ScenarioReport`.

    Raises:
        ValueError: when the engine has no bundle, its cluster size
            mismatches the trace, or a step is at t <= 0 (the initial
            plan goes live at t=0).
        RuntimeError: when even the initial workload has no feasible
            plan (the scenario is mis-configured).
    """
    from repro.api import ReshardConfig
    from repro.scenarios.report import ScenarioReport, ScenarioStepMetrics
    from repro.simulator import make_policy, simulate_policy

    config = reshard_config or ReshardConfig()
    budget = config.migration_budget_ms
    sim = simulate_policy(
        trace,
        engine,
        make_policy("immediate"),
        reshard_config=config,
        strategy=strategy,
        service=service,
        deployment=deployment or trace.name,
    )
    decisions = {d.time_hours: d for d in sim.reshards}
    segment_starts = [s.start_hours for s in sim.segments]

    # A step without a reshard holds the plan: these outcome columns,
    # and the last applied plan's tables, shards and cost.
    outcome_hold = {
        "feasible": True,
        "chosen": "hold",
        "moved_mb": 0.0,
        "migration_ms": 0.0,
        "within_budget": True,
        "scratch_cost_ms": math.nan,
        "scratch_moved_mb": 0.0,
        "scratch_migration_ms": math.nan,
    }
    plan = {
        "num_tables": sim.initial_tables,
        "num_shards": sim.initial_shards,
        "plan_cost_ms": sim.initial_cost_ms,
    }
    rows = [
        ScenarioStepMetrics(
            step=0,
            timestamp=0.0,
            label="initial",
            resharded=False,
            traffic_multiplier=1.0,
            memory_bytes=trace.memory_bytes,
            serving_cost_ms=sim.initial_cost_ms,
            budget_bound=False,
            cumulative_moved_mb=0.0,
            cumulative_scratch_moved_mb=0.0,
            **{**outcome_hold, "chosen": "plan"},
            **plan,
        )
    ]
    cumulative = 0.0
    cumulative_scratch = 0.0
    for i, step in enumerate(trace.steps, start=1):
        decision = decisions.get(step.timestamp)
        outcome = outcome_hold
        budget_bound = False
        if decision is not None:
            outcome = {key: getattr(decision, key) for key in outcome_hold}
            plan = {key: getattr(decision, key) for key in plan}
            scratch_migration = decision.scratch_migration_ms
            budget_bound = (
                budget is not None
                and decision.feasible
                and (
                    not decision.within_budget
                    or (
                        math.isfinite(scratch_migration)
                        and scratch_migration > budget
                    )
                )
            )
        segment = sim.segments[
            bisect.bisect_right(segment_starts, step.timestamp) - 1
        ]
        cumulative += outcome["moved_mb"]
        cumulative_scratch += outcome["scratch_moved_mb"]
        rows.append(
            ScenarioStepMetrics(
                step=i,
                timestamp=step.timestamp,
                label=step.label,
                resharded=decision is not None,
                traffic_multiplier=step.traffic_multiplier,
                memory_bytes=int(round(trace.memory_bytes * step.memory_scale)),
                serving_cost_ms=segment.serving_cost_ms,
                budget_bound=budget_bound,
                cumulative_moved_mb=cumulative,
                cumulative_scratch_moved_mb=cumulative_scratch,
                **outcome,
                **plan,
            )
        )

    return ScenarioReport(
        scenario=trace.name,
        seed=trace.seed,
        num_devices=trace.num_devices,
        memory_bytes=trace.memory_bytes,
        strategy=strategy,
        reshard_config=config.to_dict(),
        steps=tuple(rows),
    )
