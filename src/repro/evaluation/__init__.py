"""Evaluation harness (Section 4's protocol).

For each sharding task, an algorithm produces a plan; the plan is
*executed on the (simulated) hardware* and the max per-device embedding
cost is recorded — never the algorithm's own cost estimate.  An algorithm
"cannot scale" to a setting when any task's plan is missing or
out-of-memory (the "-" entries of Table 1).

- :mod:`~repro.evaluation.runner` — run a sharder over a task batch.
- :mod:`~repro.evaluation.metrics` — improvements, summaries.
- :mod:`~repro.evaluation.reporting` — text/markdown tables.
- :mod:`~repro.evaluation.production` — the production-scale experiment
  (Table 4): embedding cost + end-to-end training throughput; and the
  per-step workload-trace replay of the scenario atlas.
- :mod:`~repro.evaluation.analysis` — plan diagnostics and what-if
  probing on the cost-model simulator (bottleneck breakdowns, single
  move/split improvement scans).
"""

from repro.evaluation.runner import (
    MethodEvaluation,
    TaskOutcome,
    evaluate_sharder,
    evaluate_strategy,
    execute_plan,
)
from repro.evaluation.metrics import (
    improvement_percent,
    strongest_baseline,
)
from repro.evaluation.reporting import format_markdown_table, format_text_table
from repro.evaluation.production import (
    REPLAY_SEARCH_CONFIG,
    ProductionRow,
    replay_workload_trace,
    run_production_experiment,
)
from repro.evaluation.analysis import (
    PlanAnalysis,
    WhatIfResult,
    analyze_plan,
    best_single_improvement,
    what_if_move,
    what_if_split,
)

__all__ = [
    "PlanAnalysis",
    "WhatIfResult",
    "analyze_plan",
    "best_single_improvement",
    "what_if_move",
    "what_if_split",
    "TaskOutcome",
    "MethodEvaluation",
    "evaluate_sharder",
    "evaluate_strategy",
    "execute_plan",
    "improvement_percent",
    "strongest_baseline",
    "format_text_table",
    "format_markdown_table",
    "ProductionRow",
    "REPLAY_SEARCH_CONFIG",
    "replay_workload_trace",
    "run_production_experiment",
]
