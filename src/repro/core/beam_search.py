"""Column-wise sharding: beam search (Algorithm 1).

The outer loop decides *which tables to column-split*.  Column splits
trade overall computation (Observation 1: two half shards cost more than
the parent) for balance and memory feasibility, so good plans split as
few tables as possible — the beam search therefore expands only from the
most promising candidates:

- in each iteration, the candidate tables of a plan are the union of the
  top-``N`` predicted-costliest tables and the top-``N`` largest tables
  (duplicates removed, unsplittable dim-4 tables skipped);
- each of the top-``K`` plans from the previous iteration is extended by
  each candidate, scored by the inner loop (Algorithm 2), and the
  top-``K`` lowest-cost new plans survive;
- after ``L`` iterations the globally best ``(c, t)`` wins.  The empty
  plan (no splits) is evaluated first, so zero splits is always an
  option.

**Frontier batching.**  All expansions of a beam iteration are
evaluated as one frontier: their grid searches run in lockstep
(:mod:`repro.core.greedy_grid`) and every step of the frontier scores in
a single flat ``predict_rows`` call.

**Plan memoization.**  Beam expansions are dominated by
permutation-duplicate plans: with beam width ``K`` and overlapping
candidate sets, different split orders routinely produce the *same
multiset of shards*, and the inner loop's outcome depends only on that
multiset.  ``evaluate_frontier`` therefore memoizes on the canonical key
of the resulting table list (its sorted uid multiset — NOT the
column-plan index sequence, whose permutations can legally produce
different shard multisets), and serves hits by remapping the stored
assignment across uid-equal tables (cost-identical by construction of
:attr:`~repro.data.table.TableConfig.uid`).  A hit for a *permuted*
ordering is only served when the greedy visit sequence matches the
memoized one — distinct uids with bit-equal predicted costs (possible
via the prediction floor) would otherwise tie-break differently — so
memoized results are bit-identical to re-evaluation.  The memo
decisions (serve / remap / fall-through / store) are made up front in
expansion order, so the search trajectory — beam contents,
tie-breaking, best plan — equals evaluating one expansion at a time;
only the redundant grid searches disappear.  The memo is disabled
alongside ``use_cache`` so the "w/o caching" ablation measures a
genuinely memo-free search.

With ``use_beam_search`` disabled only the empty plan is evaluated —
Table 3's "w/o beam search" ablation, which loses memory feasibility on
tasks with oversized tables.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.config import SearchConfig
from repro.core.greedy_grid import (
    GridSearchResult,
    _drive_grid_instances,
    _GridInstance,
)
from repro.core.plan import ShardingPlan, apply_column_plan
from repro.core.simulator import NeuroShardSimulator
from repro.data.table import TableConfig
from repro.hardware.memory import MemoryModel
from repro.perf import SearchProfile, maybe_stage

__all__ = ["BeamSearchResult", "beam_search"]


@dataclass(frozen=True)
class BeamSearchResult:
    """Outcome of the full (outer + inner) search.

    Attributes:
        feasible: some evaluated plan was memory-legal.
        plan: the best complete plan (column plan may be empty); ``None``
            when nothing feasible was found.
        cost_ms: its simulated embedding cost.
        evaluations: number of inner-loop (grid search) requests,
            including requests served by the plan memo — comparable to
            the pre-optimization search's count (the profile's
            ``unique_evaluations`` counter reports the grid searches
            actually executed).
    """

    feasible: bool
    plan: ShardingPlan | None
    cost_ms: float
    evaluations: int


def _candidates(
    tables: Sequence[TableConfig],
    simulator: NeuroShardSimulator,
    top_n: int,
) -> list[int]:
    """Top-N costly ∪ top-N largest splittable table indices.

    Order-preserving: the by-cost block first, then unseen by-size
    entries — deduplicated through a set (the candidate lists are
    ``O(top_n)`` long, but this runs on every beam expansion).
    """
    splittable = [i for i, t in enumerate(tables) if t.can_halve]
    if not splittable:
        return []
    singles = simulator.single_table_costs(tables)
    by_cost = sorted(splittable, key=lambda i: -singles[i])[:top_n]
    by_size = sorted(splittable, key=lambda i: -tables[i].size_bytes)[:top_n]
    merged: list[int] = []
    seen: set[int] = set()
    for i in by_cost + by_size:
        if i not in seen:
            seen.add(i)
            merged.append(i)
    return merged


def _remap_assignment(
    result: GridSearchResult,
    ref_uids: tuple[str, ...],
    uids: tuple[str, ...],
) -> GridSearchResult:
    """Re-align a memoized assignment to a permuted table list.

    ``result`` was computed for a table list with uid sequence
    ``ref_uids``; the requesting plan produced the same multiset in order
    ``uids`` *with an identical greedy visit sequence* (checked by the
    caller).  The allocator's behaviour depends only on that visit
    sequence, and uid-equal tables are visited in position order, so the
    k-th table of a given uid receives the same device in both
    orderings: remapping by occurrence rank reproduces exactly what
    direct re-evaluation would return.
    """
    devices_by_uid: dict[str, deque[int]] = defaultdict(deque)
    for uid, device in zip(ref_uids, result.assignment):
        devices_by_uid[uid].append(device)
    assignment = tuple(devices_by_uid[uid].popleft() for uid in uids)
    return replace(result, assignment=assignment)


def beam_search(
    base_tables: Sequence[TableConfig],
    num_devices: int,
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    config: SearchConfig | None = None,
    profile: SearchProfile | None = None,
) -> BeamSearchResult:
    """Algorithm 1: jointly search column-wise and table-wise plans."""
    config = config or SearchConfig()
    if len(base_tables) == 0:
        raise ValueError("cannot shard an empty table list")

    evaluations = 0
    memo_enabled = config.use_cache
    # Canonical shard multiset -> (inner result, uid order it was
    # computed for, greedy visit sequence).  Lives for one search
    # request, like the uid memo.
    plan_memo: dict[
        tuple[str, ...],
        tuple[GridSearchResult, tuple[str, ...], tuple[str, ...]],
    ] = {}

    def visit_sequence(sharded, uids: tuple[str, ...]) -> tuple[str, ...]:
        """The uid sequence the greedy allocator would visit: descending
        predicted single-table cost, stable on list position.  Cheap —
        single-table costs are memo-served after the first evaluation."""
        singles = simulator.single_table_costs(sharded)
        order = np.argsort(-singles, kind="stable")
        return tuple(uids[i] for i in order)

    def evaluate_frontier(
        plans: Sequence[tuple[int, ...]],
    ) -> list[GridSearchResult]:
        """Evaluate a whole beam frontier with the inner loop.

        Every expansion that must actually run becomes a
        :class:`~repro.core.greedy_grid._GridInstance` and the whole
        frontier is driven in lockstep — one merged scoring batch per
        greedy step across all expansions and all their grid passes.

        The plan-memo decisions (serve / remap / fall-through / store)
        depend only on uid multisets and visit sequences, all known
        before any result exists, so they are made up front in expansion
        order: a later expansion whose key matches an earlier *pending*
        one is served that instance's result after the drive, exactly as
        a one-at-a-time loop — where the earlier expansion would already
        have been memoized — would serve it.
        """
        nonlocal evaluations
        with maybe_stage(profile, "evaluate"):
            # outcome per plan:
            #   ("done", result)                      memo-served now
            #   ("inst", idx, store_key_or_None)      runs as instance idx
            #   ("direct", idx)                       pending result as-is
            #   ("remap", idx, ref_uids, uids)        pending result remapped
            outcomes: list[tuple] = []
            instances: list[_GridInstance] = []
            pending_by_key: dict[
                tuple[str, ...], tuple[int, tuple[str, ...], tuple[str, ...]]
            ] = {}

            def spawn(sharded, store=None) -> None:
                if profile is not None:
                    profile.count("unique_evaluations")
                instances.append(
                    _GridInstance(
                        sharded, num_devices, simulator, memory, config, profile
                    )
                )
                outcomes.append(("inst", len(instances) - 1, store))

            for plan in plans:
                evaluations += 1
                sharded = apply_column_plan(base_tables, plan)
                if not memo_enabled:
                    spawn(sharded)
                    continue
                uids = tuple(t.uid for t in sharded)
                key = tuple(sorted(uids))
                hit = plan_memo.get(key)
                if hit is not None:
                    result, ref_uids, ref_visit = hit
                    if ref_uids == uids:
                        if profile is not None:
                            profile.count("plan_memo_hits")
                        outcomes.append(("done", result))
                        continue
                    if visit_sequence(sharded, uids) == ref_visit:
                        if profile is not None:
                            profile.count("plan_memo_hits")
                        outcomes.append(
                            (
                                "done",
                                result
                                if not result.feasible
                                else _remap_assignment(result, ref_uids, uids),
                            )
                        )
                        continue
                    # Visit-sequence mismatch: distinct uids with
                    # bit-equal predicted costs (e.g. both clamped to the
                    # prediction floor) tie-break on list position, so
                    # re-evaluate — without overwriting the stored entry.
                    spawn(sharded)
                    continue
                pending = pending_by_key.get(key)
                if pending is not None:
                    # An earlier expansion of this frontier owns the key;
                    # one at a time it would already be memoized by now.
                    idx, ref_uids, ref_visit = pending
                    if ref_uids == uids:
                        if profile is not None:
                            profile.count("plan_memo_hits")
                        outcomes.append(("direct", idx))
                        continue
                    if visit_sequence(sharded, uids) == ref_visit:
                        if profile is not None:
                            profile.count("plan_memo_hits")
                        outcomes.append(("remap", idx, ref_uids, uids))
                        continue
                    spawn(sharded)
                    continue
                visit = visit_sequence(sharded, uids)
                pending_by_key[key] = (len(instances), uids, visit)
                spawn(sharded, store=(key, uids, visit))

            inner = (
                _drive_grid_instances(instances, simulator, profile=profile)
                if instances
                else []
            )

            results: list[GridSearchResult] = []
            for outcome in outcomes:
                tag = outcome[0]
                if tag == "done":
                    results.append(outcome[1])
                elif tag == "inst":
                    _, idx, store = outcome
                    result = inner[idx]
                    if store is not None:
                        skey, suids, svisit = store
                        plan_memo[skey] = (result, suids, svisit)
                    results.append(result)
                elif tag == "direct":
                    results.append(inner[outcome[1]])
                else:  # remap
                    _, idx, ref_uids, uids = outcome
                    result = inner[idx]
                    results.append(
                        result
                        if not result.feasible
                        else _remap_assignment(result, ref_uids, uids)
                    )
            return results

    best_plan: tuple[int, ...] | None = None
    best_inner: GridSearchResult = GridSearchResult.infeasible()

    empty_result = evaluate_frontier([()])[0]
    if empty_result.feasible:
        best_plan = ()
        best_inner = empty_result

    if config.use_beam_search and config.max_steps > 0:
        # Beam entries: (column_plan, beam key).  Infeasible plans stay in
        # the beam with infinite cost so the search can keep splitting
        # toward feasibility even before anything fits; among them, the
        # key's overflow component prefers plans whose oversized tables
        # are closest to fitting, steering the splits to the right
        # tables (without it the beam has no signal until something is
        # feasible and can wander for all L steps).
        beam: list[tuple[tuple[int, ...], tuple[float, float]]] = [
            ((), empty_result.beam_key)
        ]
        for _ in range(config.max_steps):
            expansions: list[tuple[int, ...]] = []
            for plan, _ in beam:
                sharded = apply_column_plan(base_tables, plan)
                with maybe_stage(profile, "candidates"):
                    indices = _candidates(sharded, simulator, config.top_n)
                expansions.extend(plan + (index,) for index in indices)
            if not expansions:
                break
            results = evaluate_frontier(expansions)
            scored: list[tuple[tuple[int, ...], tuple[float, float]]] = []
            for new_plan, result in zip(expansions, results):
                scored.append((new_plan, result.beam_key))
                if result.feasible and result.cost_ms < best_inner.cost_ms:
                    best_plan = new_plan
                    best_inner = result
            scored.sort(key=lambda item: item[1])
            beam = scored[: config.beam_width]

    if profile is not None:
        profile.count("evaluations", evaluations)

    if best_plan is None or not best_inner.feasible:
        return BeamSearchResult(
            feasible=False, plan=None, cost_ms=math.inf, evaluations=evaluations
        )
    return BeamSearchResult(
        feasible=True,
        plan=ShardingPlan(
            column_plan=best_plan,
            assignment=best_inner.assignment,
            num_devices=num_devices,
        ),
        cost_ms=best_inner.cost_ms,
        evaluations=evaluations,
    )
