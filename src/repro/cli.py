"""Command-line interface: ``python -m repro <command>``.

Mirrors the workflow of the paper's artifact scripts (Appendix I), with
all sharding algorithms served through the :mod:`repro.api` registry:

- ``gen-data`` — synthesize the table pool and save it to JSON
  (the artifact's ``tools/gen_dlrm_data.py``).
- ``gen-tasks`` — generate benchmark sharding tasks and save them to
  JSON (the artifact's ``tools/gen_tasks.py``).
- ``pretrain`` — collect micro-benchmark data on the simulated cluster
  and train the cost models, saving either a bare bundle directory or a
  versioned :class:`~repro.api.store.BundleStore` entry
  (the artifact's ``collect_*_cost_data.py`` + ``train_*_cost_model.py``).
- ``shard`` — load a bundle and run any registered strategy over
  benchmark tasks, reporting simulated and real (simulated-hardware)
  costs (the artifact's ``eval_simulator.py`` / ``eval.py``).  Exits
  non-zero when every task is infeasible.  ``--profile`` additionally
  prints the aggregated search profile (stage timers, evaluation /
  memoization / cache counters — see :mod:`repro.perf`).
- ``compare`` — run one or more registry strategies on the same tasks
  for a side-by-side (the artifact's ``--alg`` flag).
- ``serve-batch`` — answer a tasks file concurrently through
  :meth:`~repro.api.engine.ShardingEngine.shard_batch`, writing
  schema-versioned response JSON.
- ``serve`` — run the plan-lifecycle HTTP server
  (:mod:`repro.api.server`) over a deployment store.
- ``deployment`` — drive the plan lifecycle from the shell:
  ``create / plan / apply / reshard / rollback / status / history /
  list`` against a persistent :class:`~repro.api.store.PlanStore`.
- ``scenario`` — the workload scenario atlas (:mod:`repro.scenarios`):
  ``list`` the registry, ``run`` one scenario's trace through the
  lifecycle service (per-step report, optional JSON artifacts),
  ``compare`` several scenarios' aggregate replay metrics side by side.
- ``simulate`` — the discrete-event cluster simulator
  (:mod:`repro.simulator`): ``list`` the online-policy registry,
  ``run`` one policy over one scenario regime (time-weighted SLO
  metrics, optional report JSON), ``compare`` a policy x scenario
  matrix side by side.
- ``validate`` — run the invariant suite (:mod:`repro.validation`) over
  stored deployments (plan structure, memory feasibility, lifecycle
  conservation laws, store byte-identity) and/or stored bundles
  (manifest + loadability).  No engine or bundle is needed to validate
  a plan store: the checks re-derive everything from the stored records.
- ``audit`` — verify a plan store's provenance hash chain offline
  (:mod:`repro.provenance`): every record's committed content digest
  and predecessor link, every validation stamp, the state anchor, plus
  a full validator re-run — localizing any tampering, deletion or
  reordering to the first offending version.  Like ``validate``, no
  engine or bundle is needed: a store copied off a production box is
  independently checkable.
- ``strategies`` — list every registered strategy.
- ``list-bundles`` — list the contents of a bundle store.

Exit codes: 0 success, 1 usage/input error, 2 everything infeasible
(``shard`` / ``serve-batch`` / ``deployment plan`` / ``deployment
reshard`` / ``deployment apply`` with the failing task ids on stderr;
``scenario run`` when the initial workload is unplannable or every
reshard step of the replay fails, failing step numbers on stderr;
``validate`` when *any* validated unit has violations — a validator
that half-passes must not exit 0 — with the failing deployment/bundle
names on stderr; ``audit`` when any audited deployment has
error-severity findings, with the first broken version per failing
deployment on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import signal
import sys
from typing import Sequence

import numpy as np

from repro.api import (
    BundleStore,
    EngineSpec,
    PlanStore,
    ReshardConfig,
    ShardingEngine,
    ShardingHTTPServer,
    ShardingRequest,
    ShardingService,
    WorkerPool,
    WorkloadDelta,
    all_names,
    iter_strategies,
    strategy_info,
)
from repro.config import (
    ClusterConfig,
    CollectionConfig,
    SearchConfig,
    TaskConfig,
    TrainConfig,
)
from repro.core import NeuroShard
from repro.costmodel import PretrainedCostModels
from repro.data import (
    TablePool,
    generate_tasks,
    load_pool,
    load_tasks,
    save_pool,
    save_tasks,
    synthesize_table_pool,
)
from repro.evaluation import (
    REPLAY_SEARCH_CONFIG,
    evaluate_sharder,
    format_text_table,
    replay_workload_trace,
)
from repro.hardware import SimulatedCluster
from repro.hardware.memory import OutOfMemoryError
from repro.perf import SearchProfile
from repro.scenarios import (
    UnknownScenarioError,
    format_scenario_report,
    iter_scenarios,
    make_trace,
)
from repro.scenarios.catalog import DEFAULT_MEMORY_BYTES
from repro.simulator import (
    FleetSpec,
    SimulationConfig,
    UnknownPolicyError,
    available_policies,
    format_policy_matrix,
    format_simulation_report,
    iter_policies,
    make_policy,
    simulate_policy,
)
from repro.tuning import (
    DEFAULT_SEARCH_SPACE,
    list_profiles,
    load_profile,
    profile_path,
    save_profile,
    tune_scenario,
)
from repro.utils import parse_key_value_args

__all__ = ["main", "build_parser"]

#: All-tasks-infeasible exit status of ``shard`` / ``serve-batch``.
EXIT_ALL_INFEASIBLE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeuroShard reproduction (MLSys 2023) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_data = sub.add_parser(
        "gen-data", help="synthesize the table pool, save it as JSON"
    )
    gen_data.add_argument("output", help="pool JSON file to write")
    gen_data.add_argument("--tables", type=int, default=856,
                          help="pool size (paper: 856)")
    gen_data.add_argument("--seed", type=int, default=0)

    gen_tasks = sub.add_parser(
        "gen-tasks", help="generate benchmark sharding tasks, save as JSON"
    )
    gen_tasks.add_argument("output", help="tasks JSON file to write")
    gen_tasks.add_argument("--pool", help="pool JSON from 'gen-data' "
                           "(default: the built-in synthesized pool)")
    gen_tasks.add_argument("--gpus", type=int, default=4)
    gen_tasks.add_argument("--max-dim", type=int, default=128)
    gen_tasks.add_argument("--tasks", type=int, default=100)
    gen_tasks.add_argument("--seed", type=int, default=0)

    pre = sub.add_parser("pretrain", help="pre-train cost models, save a bundle")
    pre.add_argument("output", help="bundle directory (or store root with "
                     "--bundle-name) to create")
    pre.add_argument("--bundle-name", help="save into a versioned bundle "
                     "store under OUTPUT instead of a bare directory")
    pre.add_argument("--gpus", type=int, default=4)
    pre.add_argument("--samples", type=int, default=4000,
                     help="compute-model training samples (paper: 100000)")
    pre.add_argument("--epochs", type=int, default=200,
                     help="training epochs (paper: 1000)")
    pre.add_argument("--seed", type=int, default=0)

    def add_bundle_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("bundle", help="bundle directory from 'pretrain', or "
                       "a bundle-store root")
        p.add_argument("--bundle-name", default="default",
                       help="bundle line when BUNDLE is a store root")
        p.add_argument("--bundle-version", type=int,
                       help="store version (default: latest)")

    shard = sub.add_parser("shard", help="shard benchmark tasks with a bundle")
    add_bundle_args(shard)
    shard.add_argument("--strategy", default="beam", choices=sorted(all_names()),
                       help="registry strategy to run (default: beam)")
    shard.add_argument("--max-dim", type=int, default=128)
    shard.add_argument("--tasks", type=int, default=5)
    shard.add_argument("--tasks-file", help="tasks JSON from 'gen-tasks' "
                       "(overrides --max-dim/--tasks)")
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--profile", action="store_true",
                       help="collect search-stage timers and work counters "
                       "(core strategies) and print the aggregate")

    cmp = sub.add_parser("compare", help="run registry strategies on "
                         "benchmark tasks")
    cmp.add_argument("algorithm", nargs="+", choices=sorted(all_names()),
                     help="one or more registry strategies")
    cmp.add_argument("--bundle", help="cost-model bundle (required by "
                     "cost-model-driven strategies)")
    cmp.add_argument("--bundle-name", default="default")
    cmp.add_argument("--bundle-version", type=int)
    cmp.add_argument("--gpus", type=int,
                     help="device count (default: the bundle's, else 4)")
    cmp.add_argument("--max-dim", type=int, default=128)
    cmp.add_argument("--tasks", type=int, default=5)
    cmp.add_argument("--tasks-file", help="tasks JSON from 'gen-tasks' "
                     "(overrides --gpus/--max-dim/--tasks)")
    cmp.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve-batch", help="answer a tasks file through "
                           "the engine's concurrent batch path")
    add_bundle_args(serve)
    serve.add_argument("tasks_file", help="tasks JSON from 'gen-tasks'")
    serve.add_argument("--strategy", default="beam",
                       choices=sorted(all_names()))
    serve.add_argument("--workers", type=int, default=4,
                       help="thread-pool size (default: 4)")
    serve.add_argument("--output", help="write response JSON here "
                       "(default: stdout)")

    serve_http = sub.add_parser("serve", help="run the plan-lifecycle HTTP "
                                "server over a deployment store")
    add_bundle_args(serve_http)
    serve_http.add_argument("--store", required=True,
                            help="plan-store root directory (deployments "
                            "persist here)")
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8731)
    serve_http.add_argument("--max-batch", type=int, default=8,
                            help="plan micro-batch size (default: 8)")
    serve_http.add_argument("--batch-wait-ms", type=float, default=10.0,
                            help="micro-batch collection window (default: 10)")
    serve_http.add_argument("--workers", type=int, default=1,
                            help="process-pool search workers; 1 serves "
                            "in-process (default: 1)")
    serve_http.add_argument("--request-timeout", type=float, default=60.0,
                            help="per-connection socket timeout in seconds "
                            "(default: 60)")
    serve_http.add_argument("--verbose", action="store_true",
                            help="log one line per HTTP request")

    dep = sub.add_parser("deployment", help="drive the plan lifecycle: "
                         "create/plan/apply/reshard/rollback/status/history")
    dep_sub = dep.add_subparsers(dest="action", required=True)

    def add_dep_args(p: argparse.ArgumentParser, bundle: bool = True) -> None:
        p.add_argument("name", help="deployment name")
        p.add_argument("--store", required=True,
                       help="plan-store root directory")
        if bundle:
            add_bundle_args(p)

    dep_create = dep_sub.add_parser("create", help="register a deployment "
                                    "with an initial workload")
    add_dep_args(dep_create)
    dep_create.add_argument("--tasks-file", help="tasks JSON from "
                            "'gen-tasks'; the first task is the workload")
    dep_create.add_argument("--task-index", type=int, default=0,
                            help="which task of --tasks-file to deploy")
    dep_create.add_argument("--max-dim", type=int, default=128)
    dep_create.add_argument("--seed", type=int, default=0)
    dep_create.add_argument("--memory-bytes", type=int,
                            help="per-device budget (default: 4 GiB)")
    dep_create.add_argument("--profile", metavar="PROFILE_JSON",
                            help="TunedProfile JSON from 'tune run'; its "
                            "chosen search/reshard knobs become the "
                            "deployment defaults")

    dep_plan = dep_sub.add_parser("plan", help="compute a new plan version "
                                  "for the current workload")
    add_dep_args(dep_plan)
    dep_plan.add_argument("--strategy", choices=sorted(all_names()),
                          help="registry strategy (deployment default "
                          "when omitted)")

    dep_apply = dep_sub.add_parser("apply", help="make a plan version live")
    add_dep_args(dep_apply)
    dep_apply.add_argument("--version", type=int,
                           help="record to apply (default: latest feasible)")

    dep_reshard = dep_sub.add_parser("reshard", help="incrementally re-plan "
                                     "for a changed workload")
    add_dep_args(dep_reshard)
    dep_reshard.add_argument("--add", type=int, default=0, metavar="N",
                             help="add N fresh tables sampled from the "
                             "built-in pool")
    dep_reshard.add_argument("--remove", type=int, nargs="*", default=[],
                             metavar="TABLE_ID",
                             help="table ids to drop from the workload")
    dep_reshard.add_argument("--max-dim", type=int, default=128,
                             help="max dimension of added tables")
    dep_reshard.add_argument("--seed", type=int, default=0,
                             help="sampling seed of added tables")
    dep_reshard.add_argument("--budget-ms", type=float,
                             help="hard migration budget (default: "
                             "unbounded)")
    dep_reshard.add_argument("--lam", type=float, default=1e-4,
                             help="migration amortization weight lambda "
                             "(default: 1e-4)")
    dep_reshard.add_argument("--no-full-search", action="store_true",
                             help="skip the from-scratch candidate")
    dep_reshard.add_argument("--no-apply", action="store_true",
                             help="record the reshard without applying it")
    dep_reshard.add_argument("--strategy", choices=sorted(all_names()),
                             help="full-search strategy")

    dep_rollback = dep_sub.add_parser("rollback", help="restore the "
                                      "previously applied plan version")
    add_dep_args(dep_rollback)

    dep_status = dep_sub.add_parser("status", help="one deployment's "
                                    "operational snapshot")
    add_dep_args(dep_status)

    dep_history = dep_sub.add_parser("history", help="all plan records of "
                                     "one deployment")
    add_dep_args(dep_history)

    dep_list = dep_sub.add_parser("list", help="deployments in a store")
    dep_list.add_argument("--store", required=True,
                          help="plan-store root directory")
    add_bundle_args(dep_list)

    scen = sub.add_parser("scenario", help="workload scenario atlas: "
                          "list/run/compare production regimes")
    scen_sub = scen.add_subparsers(dest="action", required=True)

    scen_list = scen_sub.add_parser("list", help="list registered workload "
                                    "scenarios")
    scen_list.add_argument("--tag", help="only scenarios carrying this tag")

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        add_bundle_args(p)
        p.add_argument("--seed", type=int, default=0,
                       help="trace generator seed (default: 0)")
        p.add_argument("--pool-seed", type=int, default=0,
                       help="synthesis seed of the table pool the "
                       "scenario samples from (default: 0; the "
                       "committed benchmark artifacts use 2023)")
        p.add_argument("--tables", type=int,
                       help="initial workload size (scenario default "
                       "when omitted)")
        p.add_argument("--steps", type=int,
                       help="trace steps (scenario default when omitted)")
        p.add_argument("--memory-bytes", type=int,
                       help="base per-device budget (default: 2 GiB)")
        p.add_argument("--budget-ms", type=float,
                       help="hard migration budget per reshard step "
                       "(default: unbounded)")
        p.add_argument("--lam", type=float, default=1e-4,
                       help="migration amortization weight lambda "
                       "(default: 1e-4)")
        p.add_argument("--refine-steps", type=int, default=32,
                       help="local-search bound per reshard (default: 32)")
        p.add_argument("--no-full-search", action="store_true",
                       help="skip the re-shard-from-scratch candidate")
        p.add_argument("--strategy", choices=sorted(all_names()),
                       help="full-search strategy (engine default when "
                       "omitted)")

    scen_run = scen_sub.add_parser("run", help="replay one scenario through "
                                   "the plan-lifecycle service")
    scen_run.add_argument("name", help="registry scenario name "
                          "(see 'scenario list')")
    add_scenario_args(scen_run)
    scen_run.add_argument("--output", help="write the ScenarioReport JSON "
                          "here")
    scen_run.add_argument("--trace-output", help="write the generated "
                          "WorkloadTrace JSON here")

    scen_cmp = scen_sub.add_parser("compare", help="replay several scenarios, "
                                   "summarize side by side")
    scen_cmp.add_argument("names", nargs="+", metavar="name",
                          help="registry scenario names (see "
                          "'scenario list')")
    add_scenario_args(scen_cmp)

    sim = sub.add_parser("simulate", help="discrete-event cluster "
                         "simulation: online when-to-reshard policies "
                         "over scenario regimes")
    sim_sub = sim.add_subparsers(dest="action", required=True)

    sim_sub.add_parser("list", help="list registered online resharding "
                       "policies")

    def add_simulate_args(p: argparse.ArgumentParser) -> None:
        add_scenario_args(p)
        p.add_argument("--slo-factor", type=float, default=1.5,
                       help="SLO = factor x initial plan cost "
                       "(default: 1.5)")
        p.add_argument("--tick-hours", type=float, default=1.0,
                       help="policy wake-up cadence in simulated hours "
                       "(default: 1.0)")
        p.add_argument("--horizon-hours", type=float,
                       help="simulated span (default: one tick past the "
                       "last scheduled event)")
        p.add_argument("--sim-seed", type=int, default=0,
                       help="seed of the fleet/machine processes "
                       "(default: 0)")
        p.add_argument("--mtbf-hours", type=float, default=0.0,
                       help="per-device mean time between failures; 0 "
                       "disables device flaps (default: 0)")
        p.add_argument("--mttr-hours", type=float, default=0.25,
                       help="mean repair time of a down device "
                       "(default: 0.25)")
        p.add_argument("--straggler-rate", type=float, default=0.0,
                       help="straggler episodes per device-hour; 0 "
                       "disables stragglers (default: 0)")
        p.add_argument("--straggler-hours", type=float, default=0.5,
                       help="mean straggler episode duration "
                       "(default: 0.5)")

    sim_run = sim_sub.add_parser("run", help="simulate one policy over one "
                                 "scenario regime")
    sim_run.add_argument("name", help="registry scenario name "
                         "(see 'scenario list')")
    add_simulate_args(sim_run)
    sim_run.add_argument("--policy", default="periodic",
                         help="online policy (see 'simulate list'; "
                         "default: periodic)")
    sim_run.add_argument("--policy-arg", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="policy knob override, repeatable "
                         "(e.g. --policy-arg interval_hours=4)")
    sim_run.add_argument("--output", help="write the SimulationReport "
                         "JSON here")

    sim_cmp = sim_sub.add_parser("compare", help="simulate several policies "
                                 "x scenarios, tabulate side by side")
    sim_cmp.add_argument("names", nargs="+", metavar="name",
                         help="registry scenario names (see "
                         "'scenario list')")
    add_simulate_args(sim_cmp)
    sim_cmp.add_argument("--policies", nargs="+", metavar="policy",
                         help="online policies (default: every "
                         "registered policy)")

    tune = sub.add_parser("tune", help="budget-aware auto-tuning of the "
                          "search/reshard knobs per workload scenario")
    tune_sub = tune.add_subparsers(dest="action", required=True)

    def add_profiles_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profiles", default="profiles",
                       help="profile directory, one JSON per scenario "
                       "(default: profiles/)")

    tune_run = tune_sub.add_parser("run", help="tune one scenario under a "
                                   "wall-clock budget, save its profile")
    tune_run.add_argument("name", help="registry scenario name "
                          "(see 'scenario list')")
    add_bundle_args(tune_run)
    tune_run.add_argument("--budget-s", type=float, default=60.0,
                          help="hard wall-clock tuning budget in seconds "
                          "(default: 60)")
    tune_run.add_argument("--seed", type=int, default=0,
                          help="trace generator seed (default: 0)")
    tune_run.add_argument("--pool-seed", type=int, default=0,
                          help="synthesis seed of the table pool the "
                          "scenario samples from (default: 0)")
    tune_run.add_argument("--tables", type=int,
                          help="initial workload size (scenario default "
                          "when omitted)")
    tune_run.add_argument("--steps", type=int,
                          help="trace steps (scenario default when omitted)")
    tune_run.add_argument("--memory-bytes", type=int,
                          help="base per-device budget (default: 2 GiB)")
    tune_run.add_argument("--max-candidates", type=int,
                          help="stop after this many evaluated configs "
                          "even with budget left")
    tune_run.add_argument("--cache-dir",
                          help="disk cache of per-config evaluations; "
                          "reruns with the same code are free")
    tune_run.add_argument("--tune-arg", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="override one knob's value grid, "
                          "repeatable (e.g. --tune-arg top_n=[2,4])")
    add_profiles_arg(tune_run)

    tune_list = tune_sub.add_parser("list", help="list saved tuned profiles")
    add_profiles_arg(tune_list)

    tune_show = tune_sub.add_parser("show", help="one profile's chosen "
                                    "config and frontier")
    tune_show.add_argument("name", help="scenario name of the profile")
    add_profiles_arg(tune_show)
    tune_show.add_argument("--json", action="store_true",
                           help="print the raw profile JSON")

    val = sub.add_parser("validate", help="validate stored deployments "
                         "and/or bundles against the invariant suite")
    val.add_argument("--store", help="plan-store root whose deployments "
                     "to validate")
    val.add_argument("--deployment", action="append", metavar="NAME",
                     help="restrict --store validation to this "
                     "deployment (repeatable; default: all)")
    val.add_argument("--bundle-store", help="bundle-store root whose "
                     "bundles to validate")
    val.add_argument("--json", action="store_true",
                     help="print the full reports as JSON instead of a "
                     "table")

    aud = sub.add_parser("audit", help="verify a plan store's provenance "
                         "hash chain offline (no engine or bundle needed)")
    aud.add_argument("--store", required=True,
                     help="plan-store root whose deployments to audit")
    aud.add_argument("--deployment", action="append", metavar="NAME",
                     help="restrict the audit to this deployment "
                     "(repeatable; default: all)")
    aud.add_argument("--json", action="store_true",
                     help="print the full audit reports as JSON instead "
                     "of a table")

    strategies = sub.add_parser("strategies", help="list registered "
                                "sharding strategies")
    strategies.add_argument("--category", choices=("core", "baseline",
                            "extension"))

    bundles = sub.add_parser("list-bundles", help="list a bundle store's "
                             "contents")
    bundles.add_argument("store", help="bundle store root directory")
    return parser


def _pool() -> TablePool:
    return TablePool(synthesize_table_pool(seed=0))


def _tasks(pool: TablePool, num_devices: int, max_dim: int, count: int, seed: int):
    lo, hi = (10, 60) if num_devices == 4 else (20, 120)
    cfg = TaskConfig(
        num_devices=num_devices, max_dim=max_dim, min_tables=lo, max_tables=hi
    )
    return generate_tasks(pool, cfg, count=count, seed=seed)


def _load_bundle(args) -> PretrainedCostModels:
    """Resolve ``args.bundle`` as a bare directory or a store entry."""
    if BundleStore.is_raw_bundle(args.bundle):
        return PretrainedCostModels.load(args.bundle)
    return BundleStore(args.bundle).load(
        args.bundle_name, getattr(args, "bundle_version", None)
    )


def _bundle_path(args) -> str:
    """The on-disk directory ``_load_bundle`` reads — pool workers
    re-load the bundle from this path in their own process."""
    if BundleStore.is_raw_bundle(args.bundle):
        return args.bundle
    return BundleStore(args.bundle).info(
        args.bundle_name, getattr(args, "bundle_version", None)
    ).path


def _cmd_gen_data(args) -> int:
    print(f"synthesizing a {args.tables}-table pool (seed {args.seed})...")
    pool = TablePool(
        synthesize_table_pool(num_tables=args.tables, seed=args.seed)
    )
    save_pool(pool, args.output)
    print(f"saved pool to {args.output}")
    return 0


def _cmd_gen_tasks(args) -> int:
    pool = load_pool(args.pool) if args.pool else _pool()
    tasks = _tasks(pool, args.gpus, args.max_dim, args.tasks, args.seed)
    save_tasks(tasks, args.output)
    print(f"{len(tasks)} sharding tasks generated!")
    print(f"saved tasks to {args.output}")
    return 0


def _cmd_pretrain(args) -> int:
    pool = _pool()
    cluster = SimulatedCluster(ClusterConfig(num_devices=args.gpus))
    print(
        f"collecting {args.samples} compute samples and training for "
        f"{args.epochs} epochs on a simulated {args.gpus}-GPU cluster..."
    )
    sharder, report = NeuroShard.pretrain(
        cluster,
        pool,
        collection=CollectionConfig(
            num_compute_samples=args.samples,
            num_comm_samples=max(args.samples // 3, 300),
        ).for_devices(args.gpus),
        train=TrainConfig(epochs=args.epochs),
        seed=args.seed,
    )
    mse_rows = report.test_mse_rows()
    for name, mse in mse_rows.items():
        print(f"  {name:24s} test MSE = {mse:.3f} ms^2")
    if args.bundle_name:
        info = BundleStore(args.output).save(
            sharder.models,
            args.bundle_name,
            metadata={"test_mse": mse_rows, "seed": args.seed},
        )
        print(f"saved bundle {info.version_tag} to {info.path}")
    else:
        sharder.models.save(args.output)
        print(f"saved bundle to {args.output}")
    return 0


def _load_or_generate_tasks(args, num_devices: int):
    """Tasks for shard/compare; ``None`` on a device-count mismatch."""
    if args.tasks_file:
        tasks = load_tasks(args.tasks_file)
        bad = [t.task_id for t in tasks if t.num_devices != num_devices]
        if bad:
            print(
                f"error: tasks {bad} target a different device count than "
                f"the expected {num_devices}",
                file=sys.stderr,
            )
            return None
        return tasks
    return _tasks(_pool(), num_devices, args.max_dim, args.tasks, args.seed)


def _infeasible_exit(
    num_success: int,
    num_tasks: int,
    strategy: str,
    failed_task_ids: Sequence[int | str] = (),
    unit: str = "tasks",
) -> int:
    """The everything-infeasible contract: stderr + exit 2.

    Shared by ``shard``, ``serve-batch``, the ``deployment``
    plan/apply/reshard actions and ``scenario run``: when *every* unit
    of work (task, or reshard step of a replay) is infeasible the
    command prints the failing ids to stderr and exits 2.
    """
    if num_tasks and num_success == 0:
        print(
            f"error: {strategy} produced no feasible plan on any of "
            f"{num_tasks} {unit} "
            f"(failing {unit}: {', '.join(str(i) for i in failed_task_ids) or '-'})",
            file=sys.stderr,
        )
        return EXIT_ALL_INFEASIBLE
    return 0


def _cmd_shard(args) -> int:
    try:
        bundle = _load_bundle(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    num_devices = bundle.num_devices
    cluster = SimulatedCluster(ClusterConfig(num_devices=num_devices))
    tasks = _load_or_generate_tasks(args, num_devices)
    if tasks is None:
        return 1
    engine = ShardingEngine(
        cluster, bundle, search=SearchConfig(), default_strategy=args.strategy
    )
    try:
        strategy_name = getattr(
            engine.sharder_for(args.strategy), "name", args.strategy
        )
    except Exception as exc:  # factory error, e.g. guided without a policy
        print(f"error: {exc}", file=sys.stderr)
        return 1
    options = {}
    if getattr(args, "profile", False):
        if strategy_info(args.strategy).category == "core":
            options = {"profile": True}
        else:
            print(
                f"note: --profile instruments the core search; strategy "
                f"{args.strategy!r} reports timing only",
                file=sys.stderr,
            )
    responses = [
        engine.shard(ShardingRequest(task, options=options)) for task in tasks
    ]

    rows = []
    real_costs = []
    errors = []
    failed_ids = []
    for task, resp in zip(tasks, responses):
        real = math.nan
        if resp.plan is not None:
            per_device = resp.plan.per_device_tables(resp.plan_tables(task))
            try:
                real = cluster.evaluate_plan(per_device).max_cost_ms
            except OutOfMemoryError:
                pass
        ok = resp.feasible and not math.isnan(real)
        if not ok:
            failed_ids.append(task.task_id)
        if resp.error is not None:
            status = "error"
            errors.append((task.task_id, resp.error))
        else:
            status = "ok" if ok else "OOM"
        rows.append([task.task_id, status, real, resp.sharding_time_s])
        if ok:
            real_costs.append(real)
    for task_id, message in errors:
        print(f"task {task_id}: {message}", file=sys.stderr)
    print(
        format_text_table(
            ["task", "status", "real cost (ms)", "search time (s)"],
            rows,
            title=f"{strategy_name} on {len(tasks)} tasks "
            f"({num_devices} GPUs, max dim {args.max_dim})",
        )
    )
    all_ok = len(real_costs) == len(tasks)
    mean = sum(real_costs) / len(real_costs) if all_ok and real_costs else math.nan
    print(f"Average: {'-' if math.isnan(mean) else f'{mean:.3f}'}")
    print(f"Valid {len(real_costs)} / {len(tasks)}")
    if getattr(args, "profile", False):
        aggregate = SearchProfile()
        profiled = 0
        for resp in responses:
            if resp.profile is not None:
                aggregate.merge(resp.profile)
                profiled += 1
        if profiled:  # non-core strategies report no search profile
            print(f"\nsearch profile (aggregated over {profiled} tasks):")
            for line in aggregate.format_lines():
                print(line)
    return _infeasible_exit(len(real_costs), len(tasks), strategy_name, failed_ids)


def _cmd_compare(args) -> int:
    bundle = None
    if args.bundle:
        try:
            bundle = _load_bundle(
                argparse.Namespace(
                    bundle=args.bundle,
                    bundle_name=args.bundle_name,
                    bundle_version=args.bundle_version,
                )
            )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    needy = [
        name for name in args.algorithm
        if strategy_info(name).needs_bundle and bundle is None
    ]
    if needy:
        print(
            f"error: strategies {needy} need a cost-model bundle; pass "
            "--bundle",
            file=sys.stderr,
        )
        return 1
    if args.tasks_file:
        tasks = load_tasks(args.tasks_file)
        num_devices = tasks[0].num_devices
    else:
        num_devices = args.gpus or (
            bundle.num_devices if bundle is not None else 4
        )
        tasks = _tasks(_pool(), num_devices, args.max_dim, args.tasks, args.seed)
    if bundle is not None and bundle.num_devices != num_devices:
        print(
            f"error: the tasks target {num_devices} devices but the bundle "
            f"was pre-trained for {bundle.num_devices}",
            file=sys.stderr,
        )
        return 1
    cluster = SimulatedCluster(ClusterConfig(num_devices=num_devices))
    engine = ShardingEngine(
        cluster, bundle, strategy_kwargs={"random": {"seed": args.seed}}
    )
    for name in args.algorithm:
        try:
            sharder = engine.sharder_for(name)
        except Exception as exc:  # factory error, e.g. guided w/o policy
            print(f"error: {exc}", file=sys.stderr)
            return 1
        evaluation = evaluate_sharder(
            sharder, tasks, cluster, name=strategy_info(name).name
        )
        mean = evaluation.mean_cost_ms
        if len(args.algorithm) > 1:
            print(f"[{evaluation.method}]")
        print(f"Average: {'-' if math.isnan(mean) else f'{mean:.3f}'}")
        print(f"Valid {evaluation.num_success} / {evaluation.num_tasks}")
    return 0


def _cmd_serve_batch(args) -> int:
    try:
        bundle = _load_bundle(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cluster = SimulatedCluster(ClusterConfig(num_devices=bundle.num_devices))
    tasks = load_tasks(args.tasks_file)
    bad = [t.task_id for t in tasks if t.num_devices != bundle.num_devices]
    if bad:
        print(
            f"error: tasks {bad} target a different device count than the "
            f"bundle's {bundle.num_devices}",
            file=sys.stderr,
        )
        return 1
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 1
    engine = ShardingEngine(cluster, bundle, default_strategy=args.strategy)
    requests = [
        ShardingRequest(task, strategy=args.strategy, request_id=str(task.task_id))
        for task in tasks
    ]
    responses = engine.shard_batch(requests, max_workers=args.workers)
    payload = json.dumps([r.to_dict() for r in responses], indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {len(responses)} responses to {args.output}")
    else:
        print(payload)
    feasible = sum(1 for r in responses if r.feasible)
    print(
        f"{args.strategy}: {feasible} / {len(responses)} feasible "
        f"({args.workers} workers)",
        file=sys.stderr if feasible == 0 else sys.stdout,
    )
    return _infeasible_exit(
        feasible,
        len(responses),
        args.strategy,
        [t.task_id for t, r in zip(tasks, responses) if not r.feasible],
    )


def _deployment_engine(
    args, bundle: PretrainedCostModels, worker_pool: WorkerPool | None = None
) -> ShardingEngine:
    """The serving engine of CLI-driven deployments."""
    memory = getattr(args, "memory_bytes", None) or 4 * 1024**3
    cluster = SimulatedCluster(
        ClusterConfig(num_devices=bundle.num_devices, memory_bytes=memory)
    )
    return ShardingEngine(
        cluster, bundle, search=SearchConfig(), worker_pool=worker_pool
    )


def _open_service(
    args, worker_pool: WorkerPool | None = None
) -> tuple[ShardingService, ShardingEngine] | None:
    """Load the plan store and rebuild its deployments' engines.

    Every deployment is served by one engine built from the CLI's bundle
    arguments; deployments whose stored device count mismatches fail
    loudly.  One optional ``worker_pool`` is shared by *every* engine —
    search results depend only on the request and the bundle, so any
    same-device-count deployment can fan out to the same workers.
    Returns ``None`` (after printing) on input errors.
    """
    try:
        bundle = _load_bundle(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    store = PlanStore(args.store)

    def factory(meta) -> ShardingEngine:
        if meta["num_devices"] != bundle.num_devices:
            raise ValueError(
                f"deployment {meta['name']!r} targets {meta['num_devices']} "
                f"devices but the bundle was pre-trained for "
                f"{bundle.num_devices}"
            )
        cluster = SimulatedCluster(
            ClusterConfig(
                num_devices=meta["num_devices"],
                memory_bytes=meta["memory_bytes"],
                batch_size=meta.get("batch_size", 65536),
            )
        )
        return ShardingEngine(
            cluster, bundle, search=SearchConfig(), worker_pool=worker_pool
        )

    try:
        service = ShardingService.open(store, factory, on_error="skip")
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for name, reason in service.skipped_deployments.items():
        print(
            f"warning: skipping deployment {name!r}: {reason}",
            file=sys.stderr,
        )
    return service, _deployment_engine(args, bundle, worker_pool)


def _serve_worker_pool(args) -> WorkerPool | None:
    """The shared search pool of ``repro serve`` (``None`` below 2 workers)."""
    if args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if args.workers == 1:
        return None
    bundle_path = _bundle_path(args)
    with open(os.path.join(bundle_path, "metadata.json")) as handle:
        num_devices = int(json.load(handle)["num_devices"])
    spec = EngineSpec(
        cluster=ClusterConfig(num_devices=num_devices),
        bundle_path=bundle_path,
        search=SearchConfig(),
    )
    return WorkerPool(spec, max_workers=args.workers)


def _cmd_serve(args) -> int:
    try:
        worker_pool = _serve_worker_pool(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    opened = _open_service(args, worker_pool)
    if opened is None:
        if worker_pool is not None:
            worker_pool.close()
        return 1
    service, engine = opened

    # Shut down cleanly on SIGTERM too (docker stop, CI cleanup, and
    # non-interactive shells where background jobs ignore SIGINT).
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    server = ShardingHTTPServer(
        service,
        engine,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        batch_wait_s=args.batch_wait_ms / 1000.0,
        bundle_ref=args.bundle,
        verbose=args.verbose,
        request_timeout_s=args.request_timeout,
    )
    names = service.deployments()
    workers = "in-process" if worker_pool is None else (
        f"{args.workers} worker processes"
    )
    print(
        f"serving {len(names)} deployment(s) "
        f"({', '.join(names) or 'none yet'}) on "
        f"http://{args.host}:{server.port} [{workers}] — Ctrl-C to stop"
    )
    try:
        server.run()
    finally:
        if worker_pool is not None:
            worker_pool.close()
    return 0


def _record_line(record) -> str:
    cost = (
        "-"
        if not record.feasible or math.isinf(record.simulated_cost_ms)
        else f"{record.simulated_cost_ms:.3f} ms"
    )
    extra = ""
    if record.diff is not None:
        extra = (
            f", moved {record.diff.moved_bytes / 1e6:.1f} MB "
            f"(migration {record.diff.migration_cost_ms:.1f} ms)"
        )
    return (
        f"v{record.version} [{record.kind}/{record.strategy}] "
        f"feasible={record.feasible} cost={cost}{extra}"
    )


def _record_exit(record, action: str) -> int:
    """The shared infeasibility contract for plan/reshard/apply actions."""
    if not record.feasible:
        return _infeasible_exit(0, 1, f"deployment {action}", [record.version])
    return 0


def _cmd_deployment(args) -> int:
    opened = _open_service(args)
    if opened is None:
        return 1
    service, engine = opened

    try:
        if args.action == "list":
            names = service.deployments()
            if not names:
                print(f"no deployments in {args.store}")
                return 0
            rows = []
            for name in names:
                status = service.status(name)
                rows.append([
                    name,
                    status["num_devices"],
                    status["num_tables"],
                    status["num_records"],
                    status["applied_version"] or "-",
                ])
            print(
                format_text_table(
                    ["deployment", "gpus", "tables", "records", "applied"],
                    rows,
                    title=f"{len(names)} deployments in {args.store}",
                )
            )
            return 0

        if args.action == "create":
            if args.tasks_file:
                tasks = load_tasks(args.tasks_file)
                if not 0 <= args.task_index < len(tasks):
                    print(
                        f"error: --task-index {args.task_index} out of range "
                        f"(file has {len(tasks)} tasks)",
                        file=sys.stderr,
                    )
                    return 1
                task = tasks[args.task_index]
                if task.num_devices != engine.cluster.num_devices:
                    print(
                        f"error: task targets {task.num_devices} devices but "
                        f"the bundle serves {engine.cluster.num_devices}",
                        file=sys.stderr,
                    )
                    return 1
                tables = task.tables
                memory = args.memory_bytes or task.memory_bytes
            else:
                generated = _tasks(
                    _pool(), engine.cluster.num_devices, args.max_dim, 1,
                    args.seed,
                )
                tables = generated[0].tables
                memory = args.memory_bytes or generated[0].memory_bytes
            profile = None
            if args.profile:
                try:
                    profile = load_profile(args.profile)
                except (FileNotFoundError, json.JSONDecodeError) as exc:
                    print(f"error: --profile: {exc}", file=sys.stderr)
                    return 1
            status = service.create_deployment(
                args.name,
                engine,
                tables=tables,
                memory_bytes=memory,
                bundle_ref=args.bundle,
                profile=profile,
            )
            tuned = (
                "" if profile is None
                else f" [tuned: {profile.scenario}]"
            )
            print(
                f"created deployment {args.name!r}: "
                f"{status['num_tables']} tables on "
                f"{status['num_devices']} GPUs{tuned}"
            )
            return 0

        if args.action == "plan":
            record = service.plan(args.name, strategy=args.strategy)
            print(_record_line(record))
            return _record_exit(record, "plan")

        if args.action == "apply":
            if args.version is not None:
                record = service.get_record(args.name, args.version)
                if not record.feasible:
                    return _infeasible_exit(
                        0, 1, "deployment apply", [record.version]
                    )
            else:
                history = service.history(args.name)
                if history and not any(r["feasible"] for r in history):
                    return _infeasible_exit(
                        0,
                        len(history),
                        "deployment apply",
                        [r["version"] for r in history],
                    )
            record = service.apply(args.name, args.version)
            print(f"applied {_record_line(record)}")
            return 0

        if args.action == "reshard":
            add_tables = ()
            if args.add:
                rng = np.random.default_rng(args.seed)
                sampled = _pool().sample_tables(args.add, rng)
                dims = rng.choice(
                    [d for d in (4, 8, 16, 32, 64, 128) if d <= args.max_dim],
                    size=len(sampled),
                )
                # Fresh table ids: added tables are *new* tables, never
                # aliases of workload tables the pool also contains
                # (colliding ids would make --remove drop both and let
                # the diff under-price the addition as "surviving").
                applied = service.applied_record(args.name)
                next_id = 1 + max(
                    (t.table_id for t in applied.base_tables)
                    if applied is not None
                    else (t.table_id for t in sampled),
                    default=0,
                )
                add_tables = tuple(
                    dataclasses.replace(t.with_dim(int(d)), table_id=next_id + i)
                    for i, (t, d) in enumerate(zip(sampled, dims))
                )
            delta = WorkloadDelta(
                add_tables=add_tables,
                remove_table_ids=tuple(args.remove),
            )
            config = ReshardConfig(
                migration_budget_ms=args.budget_ms,
                migration_lambda=args.lam,
                allow_full_search=not args.no_full_search,
            )
            record = service.reshard(
                args.name,
                delta,
                config=config,
                strategy=args.strategy,
                apply=not args.no_apply,
            )
            print(_record_line(record))
            full = record.metadata.get("full_search")
            if full is not None and record.diff is not None:
                print(
                    f"  vs re-shard-from-scratch: cost "
                    f"{full['simulated_cost_ms']:.3f} ms, moved "
                    f"{full['moved_bytes'] / 1e6:.1f} MB "
                    f"(chosen: {record.metadata['chosen']})"
                )
            return _record_exit(record, "reshard")

        if args.action == "rollback":
            record = service.rollback(args.name)
            print(f"rolled back to {_record_line(record)}")
            return 0

        if args.action == "status":
            status = service.status(args.name)
            for key, value in status.items():
                print(f"{key:18s} {value}")
            return 0

        if args.action == "history":
            records = service.history(args.name)
            applied = service.status(args.name)["applied_version"]
            for data in records:
                marker = " *live*" if data["version"] == applied else ""
                cost = data["simulated_cost_ms"]
                print(
                    f"v{data['version']} [{data['kind']}/{data['strategy']}] "
                    f"feasible={data['feasible']} "
                    f"cost={'-' if cost is None else f'{cost:.3f} ms'}"
                    f"{marker}"
                )
            return 0
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled deployment action {args.action!r}")


def _scenario_memory(args) -> int:
    """The replay's base per-device budget (explicit zero is not 'unset')."""
    if args.memory_bytes is None:
        return DEFAULT_MEMORY_BYTES
    return args.memory_bytes


def _scenario_trace(args, name: str, num_devices: int):
    """Build one registry scenario's trace from the CLI knobs."""
    kwargs = {"num_devices": num_devices, "seed": args.seed}
    kwargs["memory_bytes"] = _scenario_memory(args)
    if args.tables is not None:
        kwargs["num_tables"] = args.tables
    if args.steps is not None:
        kwargs["steps"] = args.steps
    pool = (
        _pool()
        if args.pool_seed == 0
        else TablePool(synthesize_table_pool(seed=args.pool_seed))
    )
    return make_trace(name, pool, **kwargs)


def _scenario_engine(bundle: PretrainedCostModels, memory_bytes: int) -> ShardingEngine:
    """A lifecycle-scale engine (reduced search: one reshard per step).

    Built on the same ``REPLAY_SEARCH_CONFIG`` as the committed scenario
    benchmarks; a CLI replay byte-reproduces a committed
    ``benchmarks/results/scenario_*.txt`` artifact when the remaining
    inputs also match — that benchmark's 4-GPU cached bundle plus
    ``--pool-seed 2023 --seed 2023 --tables 16 --budget-ms 150
    --refine-steps 16`` (and the default 2 GiB ``--memory-bytes``).
    """
    cluster = SimulatedCluster(
        ClusterConfig(
            num_devices=bundle.num_devices, memory_bytes=memory_bytes
        )
    )
    return ShardingEngine(cluster, bundle, search=REPLAY_SEARCH_CONFIG)


def _scenario_config(args) -> ReshardConfig:
    return ReshardConfig(
        migration_budget_ms=args.budget_ms,
        migration_lambda=args.lam,
        allow_full_search=not args.no_full_search,
        max_refine_steps=args.refine_steps,
    )


def _replay_exit(report, name: str) -> int:
    """Exit 2 when *every* reshard step of a replay was infeasible."""
    failing = [s.step for s in report.steps if s.resharded and not s.feasible]
    reshards = report.num_reshard_steps
    if reshards:
        return _infeasible_exit(
            reshards - len(failing),
            reshards,
            f"scenario {name}",
            failing,
            unit="reshard steps",
        )
    return 0


def _cmd_scenario(args) -> int:
    if args.action == "list":
        rows = [
            [
                info.name,
                ", ".join(info.tags) or "-",
                info.default_steps,
                info.description,
            ]
            for info in iter_scenarios()
            if args.tag is None or args.tag in info.tags
        ]
        print(
            format_text_table(
                ["scenario", "tags", "steps", "description"],
                rows,
                title=f"{len(rows)} registered workload scenarios",
            )
        )
        return 0

    try:
        bundle = _load_bundle(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    memory = _scenario_memory(args)
    if memory <= 0:
        print(f"error: --memory-bytes must be > 0, got {memory}",
              file=sys.stderr)
        return 1
    config = _scenario_config(args)

    if args.action == "run":
        try:
            trace = _scenario_trace(args, args.name, bundle.num_devices)
        except (UnknownScenarioError, ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.trace_output:
            with open(args.trace_output, "w", encoding="utf-8") as fh:
                json.dump(trace.to_dict(), fh, indent=1)
                fh.write("\n")
            print(f"wrote trace to {args.trace_output}")
        engine = _scenario_engine(bundle, memory)
        try:
            report = replay_workload_trace(
                trace, engine, reshard_config=config, strategy=args.strategy
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ALL_INFEASIBLE
        print(format_scenario_report(report))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=1)
                fh.write("\n")
            print(f"wrote report to {args.output}")
        return _replay_exit(report, args.name)

    if args.action == "compare":
        engine = _scenario_engine(bundle, memory)
        rows = []
        failures = 0
        for name in args.names:
            try:
                trace = _scenario_trace(args, name, bundle.num_devices)
            except (UnknownScenarioError, ValueError, RuntimeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            try:
                report = replay_workload_trace(
                    trace, engine, reshard_config=config,
                    strategy=args.strategy,
                )
            except RuntimeError as exc:
                print(f"warning: scenario {name}: {exc}", file=sys.stderr)
                failures += 1
                rows.append([name, "-", "-", "-", "-", "-", "-", "-"])
                continue
            summary = report.summary()
            rows.append([
                name,
                summary["steps"],
                summary["reshards"],
                f"{summary['infeasible_rate']:.2f}",
                f"{summary['budget_bound_rate']:.2f}",
                f"{summary['total_moved_mb']:.1f}",
                f"{summary['total_scratch_moved_mb']:.1f}",
                f"{summary['peak_serving_cost_ms']:.3f}",
            ])
        print(
            format_text_table(
                ["scenario", "steps", "reshards", "infeasible",
                 "budget-bound", "moved (MB)", "scratch (MB)",
                 "peak cost (ms)"],
                rows,
                title=f"{len(args.names)} scenarios on "
                f"{bundle.num_devices} devices "
                f"(budget {'-' if args.budget_ms is None else args.budget_ms} ms)",
            )
        )
        if failures == len(args.names):
            return EXIT_ALL_INFEASIBLE
        return 0

    raise AssertionError(f"unhandled scenario action {args.action!r}")


def _policy_kwargs(pairs: list[str]) -> dict[str, object]:
    """Parse repeatable ``--policy-arg key=value`` into typed kwargs.

    Delegates to the shared typed parser
    (:func:`repro.utils.parse_key_value_args`), so ``--policy-arg`` and
    ``tune --tune-arg`` coerce values identically — including the
    Python-style boolean spellings the old JSON fallback kept as
    (truthy) strings.

    Raises:
        ValueError: on an argument without ``=``.
    """
    return parse_key_value_args(pairs, flag="--policy-arg")


def _simulation_config(args) -> SimulationConfig:
    return SimulationConfig(
        horizon_hours=args.horizon_hours,
        tick_hours=args.tick_hours,
        slo_factor=args.slo_factor,
        sim_seed=args.sim_seed,
        fleet=FleetSpec(
            mtbf_hours=args.mtbf_hours,
            mttr_hours=args.mttr_hours,
            straggler_rate_per_hour=args.straggler_rate,
            straggler_duration_hours=args.straggler_hours,
        ),
    )


def _cmd_simulate(args) -> int:
    if args.action == "list":
        rows = [
            [
                info.name,
                ", ".join(
                    f"{k}={v}" for k, v in sorted(info.defaults.items())
                ) or "-",
                info.description,
            ]
            for info in iter_policies()
        ]
        print(
            format_text_table(
                ["policy", "defaults", "description"],
                rows,
                title=f"{len(rows)} registered online resharding policies",
            )
        )
        return 0

    try:
        bundle = _load_bundle(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    memory = _scenario_memory(args)
    if memory <= 0:
        print(f"error: --memory-bytes must be > 0, got {memory}",
              file=sys.stderr)
        return 1
    try:
        sim_config = _simulation_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reshard_config = _scenario_config(args)
    engine = _scenario_engine(bundle, memory)

    if args.action == "run":
        try:
            policy = make_policy(args.policy, **_policy_kwargs(args.policy_arg))
        except (UnknownPolicyError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            trace = _scenario_trace(args, args.name, bundle.num_devices)
        except (UnknownScenarioError, ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            report = simulate_policy(
                trace, engine, policy,
                reshard_config=reshard_config,
                strategy=args.strategy,
                config=sim_config,
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ALL_INFEASIBLE
        print(format_simulation_report(report))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=1)
                fh.write("\n")
            print(f"wrote report to {args.output}")
        if report.reshard_count and (
            report.infeasible_reshards == report.reshard_count
        ):
            print(
                f"simulate {args.name}: every reshard was infeasible",
                file=sys.stderr,
            )
            return EXIT_ALL_INFEASIBLE
        return 0

    if args.action == "compare":
        policies = args.policies or available_policies()
        try:
            for name in policies:
                make_policy(name)  # fail fast on unknown names
        except UnknownPolicyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        reports = []
        failures = 0
        for name in args.names:
            try:
                trace = _scenario_trace(args, name, bundle.num_devices)
            except (UnknownScenarioError, ValueError, RuntimeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            for policy_name in policies:
                try:
                    reports.append(
                        simulate_policy(
                            trace, engine, make_policy(policy_name),
                            reshard_config=reshard_config,
                            strategy=args.strategy,
                            config=sim_config,
                        )
                    )
                except RuntimeError as exc:
                    print(
                        f"warning: {name} x {policy_name}: {exc}",
                        file=sys.stderr,
                    )
                    failures += 1
        print(format_policy_matrix(reports))
        if not reports and failures:
            return EXIT_ALL_INFEASIBLE
        return 0

    raise AssertionError(f"unhandled simulate action {args.action!r}")


def _tune_search_space(pairs: list[str]) -> dict | None:
    """``--tune-arg KEY=VALUE`` pairs as per-knob value-grid overrides.

    A JSON-list value replaces the knob's whole grid; a scalar pins the
    knob to that single value.  Unknown knob names fail loudly inside
    :func:`repro.tuning.enumerate_candidates`.
    """
    overrides = parse_key_value_args(pairs, flag="--tune-arg")
    if not overrides:
        return None
    space = dict(DEFAULT_SEARCH_SPACE)
    for knob, value in overrides.items():
        space[knob] = (
            tuple(value) if isinstance(value, (list, tuple)) else (value,)
        )
    return space


def _candidate_row(candidate, chosen, default) -> list:
    marks = []
    if candidate.search == chosen.search and candidate.reshard == chosen.reshard:
        marks.append("chosen")
    if (
        candidate.search == default.search
        and candidate.reshard == default.reshard
    ):
        marks.append("default")
    budget = candidate.reshard.migration_budget_ms
    return [
        candidate.search.top_n,
        candidate.search.beam_width,
        candidate.search.max_steps,
        candidate.search.grid_points,
        f"{candidate.search.grid_end_factor:g}",
        f"{candidate.reshard.migration_lambda:g}",
        "-" if budget is None else f"{budget:g}",
        candidate.work,
        "-" if not candidate.feasible else f"{candidate.cost_ms:.3f}",
        " ".join(marks) or "-",
    ]


_FRONTIER_HEADER = [
    "N", "K", "L", "M", "end", "lambda", "budget_ms", "work", "cost_ms",
    "mark",
]


def _print_profile(profile) -> None:
    print(
        f"scenario {profile.scenario}: chosen cost "
        f"{profile.chosen.cost_ms:.3f} ms (default "
        f"{profile.default.cost_ms:.3f} ms) — "
        f"{profile.evaluated} evaluated, {profile.pruned} pruned, "
        f"{profile.skipped} skipped, {profile.cache_hits} cache hits "
        f"in {profile.elapsed_s:.1f}s of {profile.budget_s:g}s budget"
    )
    rows = [
        _candidate_row(c, profile.chosen, profile.default)
        for c in profile.frontier
    ]
    print(
        format_text_table(
            _FRONTIER_HEADER,
            rows,
            title=f"frontier: {len(rows)} non-dominated configs",
        )
    )


def _cmd_tune(args) -> int:
    if args.action == "list":
        profiles = list_profiles(args.profiles)
        if not profiles:
            print(f"no profiles in {args.profiles}")
            return 0
        rows = [
            [
                p.scenario,
                p.num_devices,
                p.evaluated,
                f"{p.chosen.cost_ms:.3f}",
                f"{p.default.cost_ms:.3f}",
                p.bundle_key,
            ]
            for p in profiles
        ]
        print(
            format_text_table(
                ["scenario", "gpus", "evaluated", "chosen_ms", "default_ms",
                 "bundle"],
                rows,
                title=f"{len(rows)} tuned profiles in {args.profiles}",
            )
        )
        return 0

    if args.action == "show":
        path = profile_path(args.profiles, args.name)
        try:
            profile = load_profile(path)
        except FileNotFoundError:
            print(
                f"error: no profile for {args.name!r} in {args.profiles}",
                file=sys.stderr,
            )
            return 1
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
            return 0
        _print_profile(profile)
        return 0

    if args.action == "run":
        try:
            bundle = _load_bundle(args)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.memory_bytes is not None and args.memory_bytes <= 0:
            print(
                f"error: --memory-bytes must be > 0, got {args.memory_bytes}",
                file=sys.stderr,
            )
            return 1
        pool = (
            _pool()
            if args.pool_seed == 0
            else TablePool(synthesize_table_pool(seed=args.pool_seed))
        )
        try:
            profile = tune_scenario(
                args.name,
                bundle,
                pool,
                budget_s=args.budget_s,
                memory_bytes=args.memory_bytes,
                num_tables=args.tables,
                steps=args.steps,
                seed=args.seed,
                search_space=_tune_search_space(args.tune_arg),
                max_candidates=args.max_candidates,
                cache_dir=args.cache_dir,
            )
        except (UnknownScenarioError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ALL_INFEASIBLE
        path = save_profile(profile, args.profiles)
        _print_profile(profile)
        print(f"wrote profile to {path}")
        return 0

    raise AssertionError(f"unhandled tune action {args.action!r}")


def _cmd_validate(args) -> int:
    from repro.provenance import rerun_validator
    from repro.validation import PlanValidator

    if not args.store and not args.bundle_store:
        print("error: validate needs --store and/or --bundle-store",
              file=sys.stderr)
        return 1
    validator = PlanValidator()
    units: list[tuple[str, dict, list[str]]] = []

    if args.store:
        store = PlanStore(args.store)
        names = args.deployment or store.names()
        unknown = sorted(set(names) - set(store.names()))
        if unknown:
            print(
                f"error: no deployment named {unknown} in store "
                f"{args.store} (known: {store.names() or 'none'})",
                file=sys.stderr,
            )
            return 1
        for name in names:
            # Re-derived from the stored JSON alone — no engine or
            # bundle — so a store the serving process cannot even load
            # (e.g. after a bundle mismatch) is still validated.
            stored = store.read_deployment(name)
            report, read_errors = rerun_validator(stored, validator)
            errors = [f"{e.code}: {e.message}" for e in report.errors] + read_errors
            stack = stored.state.applied_stack
            payload = report.to_dict()
            payload.update(
                ok=not errors,
                extra_errors=read_errors,
                num_records=len(stored.records),
                applied_version=stack[-1] if stack else None,
            )
            units.append((f"deployment:{name}", payload, errors))

    if args.bundle_store:
        bundles = BundleStore(args.bundle_store)
        for name in bundles.names():
            for version in bundles.versions(name):
                errors = []
                try:
                    info = bundles.info(name, version)
                    loaded = bundles.load(name, version)
                    if loaded.num_devices != info.num_devices:
                        errors.append(
                            f"manifest says {info.num_devices} devices, "
                            f"bundle has {loaded.num_devices}"
                        )
                except Exception as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")
                units.append((
                    f"bundle:{name}@v{version}",
                    {"subject": f"bundle:{name}@v{version}",
                     "ok": not errors, "errors": errors},
                    errors,
                ))

    if args.json:
        print(json.dumps([payload for _, payload, _ in units], indent=1))
    else:
        rows = [
            [unit, payload.get("num_records", "-"),
             payload.get("applied_version", "-") or "-",
             "ok" if not errors else f"{len(errors)} violation(s)"]
            for unit, payload, errors in units
        ]
        print(
            format_text_table(
                ["unit", "records", "applied", "result"],
                rows,
                title=f"validated {len(units)} unit(s)",
            )
        )
    failing = [unit for unit, _, errors in units if errors]
    for unit, _, errors in units:
        for error in errors:
            print(f"{unit}: {error}", file=sys.stderr)
    if failing:
        print(
            f"error: validation found violations in {len(failing)} of "
            f"{len(units)} unit(s): {', '.join(failing)}",
            file=sys.stderr,
        )
        return EXIT_ALL_INFEASIBLE
    return 0


def _cmd_audit(args) -> int:
    from repro.provenance import audit_deployment

    store = PlanStore(args.store)
    names = args.deployment or store.names()
    unknown = sorted(set(names) - set(store.names()))
    if unknown:
        print(
            f"error: no deployment named {unknown} in store "
            f"{args.store} (known: {store.names() or 'none'})",
            file=sys.stderr,
        )
        return 1
    reports = [audit_deployment(store, name) for name in sorted(names)]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=1))
    else:
        rows = [
            [
                r.deployment,
                len(r.versions),
                (r.applied_stack[-1] if r.applied_stack else "-"),
                len(r.advisories),
                (
                    "ok"
                    if r.ok
                    else f"{len(r.errors)} error(s), first broken "
                    f"v{r.first_broken_version}"
                    if r.first_broken_version is not None
                    else f"{len(r.errors)} error(s)"
                ),
            ]
            for r in reports
        ]
        print(
            format_text_table(
                ["deployment", "records", "applied", "advisories", "result"],
                rows,
                title=f"audited {len(reports)} deployment(s)",
            )
        )
    failing = [r for r in reports if not r.ok]
    for report in reports:
        for finding in report.errors:
            tag = "-" if finding.version is None else f"v{finding.version}"
            print(
                f"{report.deployment}/{tag}: {finding.code}: "
                f"{finding.message}",
                file=sys.stderr,
            )
    if failing:
        print(
            "error: audit found tampering or damage in "
            f"{len(failing)} of {len(reports)} deployment(s): "
            + ", ".join(
                f"{r.deployment} (first broken: "
                + (
                    f"v{r.first_broken_version}"
                    if r.first_broken_version is not None
                    else "deployment state"
                )
                + ")"
                for r in failing
            ),
            file=sys.stderr,
        )
        return EXIT_ALL_INFEASIBLE
    return 0


def _cmd_strategies(args) -> int:
    rows = [
        [
            info.name,
            info.category,
            "yes" if info.needs_bundle else "no",
            ", ".join(info.aliases) or "-",
            info.description,
        ]
        for info in iter_strategies()
        if args.category is None or info.category == args.category
    ]
    print(
        format_text_table(
            ["strategy", "category", "bundle?", "aliases", "description"],
            rows,
            title=f"{len(rows)} registered sharding strategies",
        )
    )
    return 0


def _cmd_list_bundles(args) -> int:
    store = BundleStore(args.store)
    infos = store.list_bundles()
    if not infos:
        print(f"no bundles in {args.store}")
        return 0
    rows = [
        [i.version_tag, i.num_devices, i.batch_size, i.path] for i in infos
    ]
    print(
        format_text_table(
            ["bundle", "gpus", "batch", "path"],
            rows,
            title=f"{len(infos)} bundles in {args.store}",
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "gen-tasks": _cmd_gen_tasks,
        "pretrain": _cmd_pretrain,
        "shard": _cmd_shard,
        "compare": _cmd_compare,
        "serve-batch": _cmd_serve_batch,
        "serve": _cmd_serve,
        "deployment": _cmd_deployment,
        "scenario": _cmd_scenario,
        "simulate": _cmd_simulate,
        "tune": _cmd_tune,
        "validate": _cmd_validate,
        "audit": _cmd_audit,
        "strategies": _cmd_strategies,
        "list-bundles": _cmd_list_bundles,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
