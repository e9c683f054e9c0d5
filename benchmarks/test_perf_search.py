"""Search-kernel performance benchmark: optimized vs. frozen reference.

Measures the end-to-end beam search (paper configuration N=10, K=3,
L=10, M=11) at Table-1 scale — the 856-table pool, 4 GPUs, 10-60 tables
per task, dimensions up to 128 — twice per task:

- the **frozen pre-optimization reference**
  (:func:`repro.core.reference.reference_beam_search`), which rebuilds
  per-device table lists, re-sorts ``table_set_key`` multisets and
  re-featurizes on every candidate evaluation;
- the **optimized kernel** (:func:`repro.core.beam_search.beam_search`)
  with incremental per-device state, plan-multiset memoization and the
  vectorized batch-scoring kernel: whole beam frontiers run their grid
  passes in lockstep and score every candidate of a step in one flat
  ``predict_rows`` call (plus one batched plan-cost finalization).

Both runs use fresh caches, so the measured ratio is the end-to-end
speedup of the rewrite, not cache warm-up.  Results are required to be
**byte-identical** (feasibility, bit-equal cost, same column plan and
assignment) — the speedup must come purely from eliminating redundant
work.

Gates, in order: the plans are byte-identical; the optimized search's
work counters (``SearchProfile`` counters, exact functions of the seed)
do not exceed ``WORK_CEILINGS`` — zero tolerance, so any extra work on
the pinned workload fails on any machine; and the aggregate speedup is
at least ``PERF_MIN_SPEEDUP``.  The ``*_hits`` counters and the
evaluations/s throughput are printed, not gated.  Only a run that
passed every gate rewrites ``benchmarks/results/perf_search.txt``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import RESULTS_DIR, SEARCH_4GPU
from repro.config import TaskConfig
from repro.core import CostCache, NeuroShardSimulator, beam_search
from repro.core.reference import reference_beam_search
from repro.data import generate_tasks
from repro.evaluation import format_text_table
from repro.hardware.memory import MemoryModel
from repro.perf import SearchProfile

pytestmark = pytest.mark.perf

PERF_TASKS = 2
PERF_MAX_DIM = 128
#: Required aggregate speedup; the batched kernel measures 11-14x on a
#: 2-core box.
PERF_MIN_SPEEDUP = 12.0
PERF_SEED = 777

#: The optimized search's work on the pinned workload above, summed over
#: its tasks.  A change that does less work lowers a ceiling in the same
#: commit; one that does more fails.
WORK_CEILINGS = {
    "evaluations": 903,
    "unique_evaluations": 587,
    "predict_batches": 561,
    "predicted_sets": 76_457,
    "scored_candidates": 185_953,
    "grid_passes": 7_044,
    "grid_pass_groups": 3_737,
    "greedy_steps": 55_341,
}


def _plans_identical(ref, opt) -> bool:
    if (ref.feasible, ref.cost_ms, ref.evaluations) != (
        opt.feasible, opt.cost_ms, opt.evaluations
    ):
        return False
    if (ref.plan is None) != (opt.plan is None):
        return False
    if ref.plan is None:
        return True
    return (
        ref.plan.column_plan == opt.plan.column_plan
        and ref.plan.assignment == opt.plan.assignment
    )


def test_perf_search_speedup(pool856, bundle4):
    task_cfg = TaskConfig(
        num_devices=4, max_dim=PERF_MAX_DIM, min_tables=10, max_tables=60
    )
    tasks = generate_tasks(pool856, task_cfg, count=PERF_TASKS, seed=PERF_SEED)
    memory_models = [MemoryModel(t.memory_bytes) for t in tasks]

    rows = []
    ref_total = opt_total = 0.0
    aggregate = SearchProfile()
    for task, memory in zip(tasks, memory_models):
        simulator = NeuroShardSimulator(bundle4, CostCache())
        started = time.perf_counter()
        ref = reference_beam_search(
            list(task.tables), 4, simulator, memory, SEARCH_4GPU
        )
        ref_s = time.perf_counter() - started

        profile = SearchProfile()
        simulator = NeuroShardSimulator(bundle4, CostCache(), profile=profile)
        started = time.perf_counter()
        opt = beam_search(
            list(task.tables), 4, simulator, memory, SEARCH_4GPU,
            profile=profile,
        )
        opt_s = time.perf_counter() - started

        # The whole point: faster, with byte-identical plans and costs.
        assert _plans_identical(ref, opt), (
            f"optimized search diverged on task {task.task_id}: "
            f"ref=({ref.feasible}, {ref.cost_ms}) "
            f"opt=({opt.feasible}, {opt.cost_ms})"
        )

        ref_total += ref_s
        opt_total += opt_s
        aggregate.merge(profile)
        rows.append(
            [
                task.task_id,
                task.num_tables,
                opt.evaluations,
                ref_s,
                opt_s,
                ref_s / opt_s,
            ]
        )

    speedup = ref_total / opt_total
    counters = aggregate.counters
    evals_per_sec = counters["evaluations"] / opt_total
    work_rows = [
        [name, value, WORK_CEILINGS.get(name, "-")]
        for name, value in sorted(counters.items())
    ]
    text = "\n\n".join(
        [
            format_text_table(
                ["task", "tables", "evaluations", "reference (s)",
                 "optimized (s)", "speedup"],
                rows,
                title=(
                    f"Incremental search kernel vs. frozen reference "
                    f"({PERF_TASKS} Table-1-scale tasks, max dim "
                    f"{PERF_MAX_DIM}): {speedup:.1f}x end-to-end, "
                    f"{evals_per_sec:.1f} evaluations/s"
                ),
            ),
            format_text_table(
                ["counter", "value", "ceiling"],
                work_rows,
                title="Optimized search work (*_hits are not gated)",
            ),
        ]
    )
    # Printed before the gates so a failing run shows its numbers;
    # written to results/ only after every gate passed.
    print(f"\n{text}\n")

    ungated = {
        name for name in counters
        if name not in WORK_CEILINGS and not name.endswith("_hits")
    }
    assert not ungated, f"work counters without a ceiling: {sorted(ungated)}"
    over = {
        name: (counters.get(name, 0), ceiling)
        for name, ceiling in WORK_CEILINGS.items()
        if counters.get(name, 0) > ceiling
    }
    assert not over, f"search work above its ceiling (value, ceiling): {over}"
    assert speedup >= PERF_MIN_SPEEDUP, (
        f"end-to-end speedup {speedup:.2f}x fell below the required "
        f"{PERF_MIN_SPEEDUP}x"
    )
    (RESULTS_DIR / "perf_search.txt").write_text(text + "\n")
