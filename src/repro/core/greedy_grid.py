"""Table-wise sharding: greedy allocation + grid search (Algorithm 2).

Given a (column-sharded) table list, the inner loop finds the table-wise
plan ``t``:

1. Sort tables by predicted single-table computation cost, descending.
2. For each ``max_dim`` on a grid from ``Ms`` (the average device
   dimension) to ``Me = 1.5 * Ms`` (``M`` points):
   greedily assign each table to the *cheapest* candidate device, where
   candidates are devices that stay within the memory budget and whose
   device dimension stays within ``max_dim``, and "cheapest" means the
   lowest predicted computation cost with the table added (cache-served).
3. Score each completed assignment with the full simulated embedding
   cost ``f(c, t)`` and keep the best.

The ``max_dim`` constraint is how Observation 3 enters the search: it
bounds the max device dimension, which controls the communication
bottleneck, while the greedy objective balances the non-linear
computation costs (Observation 2).

**Batched lockstep scoring.**  The greedy allocator is the innermost
layer of the whole search (``O(L K N M T D)`` candidate evaluations).
The grid's ``M`` passes run as *trajectory groups* in lockstep: all grid
points start as one group (identical empty history), each step scores
the union of the group's candidate devices in a single flat
``predict_rows`` gather+forward
(:meth:`~repro.core.simulator.NeuroShardSimulator
.device_compute_costs_batch`), and a group splits only when members
choose different devices — so identical trajectories are scored once,
and a grid whose ``max_dim`` bound never bites collapses to a single
pass.  Per-table uids, bank row ids, byte sizes and dimensions are
materialized once per grid search; each device carries an
incrementally-maintained sorted uid list, so a candidate's canonical
cache key is one binary-search splice
(:func:`~repro.data.table.extend_table_set_key`), and its feature-bank
row ids in placement order.  Surviving assignments are finalized with
one batched plan-cost call.  With the cache ablated every grid point is
its own group scoring exactly its own mask, and each assignment is
finalized through ``plan_cost`` — the "w/o caching" ablation keeps its
honest prediction volume.

The results are bit-identical to the recompute-from-scratch reference
(:mod:`repro.core.reference`): same keys, same tie-breaking, and —
because inference GEMMs are chunk-stable and segment pooling sums in
canonical content order (:mod:`repro.costmodel.kernels`) — the same
bits regardless of how candidates are merged into batches.

Deviation from the paper (documented): when *every* grid point is
infeasible — e.g. one table's dimension alone exceeds ``Me`` — we fall
back to an unconstrained greedy pass (``max_dim = ∞``) so that the inner
loop only reports infeasible when memory genuinely cannot accommodate the
tables.  The paper's text leaves this case unspecified; without the
fallback, beam search would be forced to column-split purely to satisfy
an artificial dimension bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import SearchConfig
from repro.core.simulator import NeuroShardSimulator, PlanCost
from repro.data.table import TableConfig, extend_table_set_key, insort_uid
from repro.hardware.memory import MemoryModel
from repro.perf import SearchProfile, maybe_stage

__all__ = ["GridSearchResult", "greedy_grid_search"]


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of the inner loop for one column-sharded table list.

    Attributes:
        feasible: a memory-legal assignment exists.
        cost_ms: simulated embedding cost of the best assignment
            (``inf`` when infeasible).
        assignment: device per table (aligned with the input order),
            empty when infeasible.
        max_dim_used: the grid value that produced the best assignment
            (``None`` for the unconstrained fallback or infeasible).
        breakdown: per-device simulated costs of the best assignment.
        overflow_bytes: for infeasible results, how far oversized tables
            exceed a single device's budget in total.  The beam search
            uses this to rank equally-infeasible plans: among plans that
            cannot be placed at all, the one closer to fitting (smaller
            overflow) should survive, otherwise the beam has no signal
            pointing at the tables that must be split.
    """

    feasible: bool
    cost_ms: float
    assignment: tuple[int, ...]
    max_dim_used: float | None
    breakdown: PlanCost | None
    overflow_bytes: float = 0.0

    @staticmethod
    def infeasible(overflow_bytes: float = math.inf) -> "GridSearchResult":
        return GridSearchResult(
            feasible=False,
            cost_ms=math.inf,
            assignment=(),
            max_dim_used=None,
            breakdown=None,
            overflow_bytes=overflow_bytes,
        )

    @property
    def beam_key(self) -> tuple[float, float]:
        """Sort key for the beam: cost first, feasibility progress second."""
        return (self.cost_ms, self.overflow_bytes)


@dataclass
class _PassGroup:
    """One shared greedy trajectory in the lockstep batched search.

    ``members`` are the grid indices whose passes have made identical
    device choices at every step so far.  Shared history implies shared
    per-device state, so the group carries exactly one copy of it;
    members only separate (:meth:`clone_for`) at a step where different
    ``max_dim`` thresholds lead to different chosen devices.
    """

    members: list[int]
    device_keys: list[list[str]]
    device_row_ids: list[list[int]]
    device_bytes: list[int]
    device_dims: list[int]
    assignment: list[int]
    breakdown: PlanCost | None = None

    @staticmethod
    def initial(members: list[int], num_devices: int, num_tables: int) -> "_PassGroup":
        return _PassGroup(
            members=members,
            device_keys=[[] for _ in range(num_devices)],
            device_row_ids=[[] for _ in range(num_devices)],
            device_bytes=[0] * num_devices,
            device_dims=[0] * num_devices,
            assignment=[0] * num_tables,
        )

    def clone_for(self, members: list[int]) -> "_PassGroup":
        return _PassGroup(
            members=members,
            device_keys=[list(k) for k in self.device_keys],
            device_row_ids=[list(r) for r in self.device_row_ids],
            device_bytes=list(self.device_bytes),
            device_dims=list(self.device_dims),
            assignment=list(self.assignment),
        )

    def place(
        self, d: int, ti: int, uid: str, row_id: int, t_bytes: int, t_dim: int
    ) -> None:
        insort_uid(self.device_keys[d], uid)
        self.device_row_ids[d].append(row_id)
        self.device_bytes[d] += t_bytes
        self.device_dims[d] += t_dim
        self.assignment[ti] = d


class _GridInstance:
    """One inner-loop request (one sharded table list) in batched form.

    The batched search drives many instances — all grid passes of one
    :func:`greedy_grid_search` call, or a whole beam frontier's worth of
    them — in *lockstep*: every active instance advances one
    table-placement step per round, and the candidate scoring of all
    groups of all instances lands in a single
    :meth:`~repro.core.simulator.NeuroShardSimulator
    .device_compute_costs_batch` call per round.

    With the cost cache enabled all grid points start as one trajectory
    group (their histories are trivially identical) and only split when
    their ``max_dim`` thresholds force different device choices — the
    grouping makes redundant larger grid points free, because a
    never-splitting grid collapses to one trajectory.  With the cache
    disabled every grid point runs as its own group and scores exactly
    its own candidate mask, so the "w/o caching" ablation performs the
    same prediction volume as one pass per grid point.
    """

    __slots__ = (
        "tables",
        "num_devices",
        "memory_bytes",
        "order",
        "uids",
        "row_ids",
        "table_bytes",
        "dims",
        "grid",
        "overflow",
        "groups",
        "step",
        "num_steps",
    )

    def __init__(
        self,
        tables: Sequence[TableConfig],
        num_devices: int,
        simulator: NeuroShardSimulator,
        memory: MemoryModel,
        config: SearchConfig,
        profile: SearchProfile | None = None,
    ) -> None:
        self.tables = tables
        self.num_devices = num_devices
        self.memory_bytes = memory.memory_bytes

        singles = simulator.single_table_costs(tables)
        self.order = np.argsort(-singles, kind="stable")
        self.uids = [t.uid for t in tables]
        self.row_ids: list[int] = simulator.featurizer.row_indices(tables).tolist()
        self.table_bytes = [memory.table_bytes(t) for t in tables]
        self.dims = [t.dim for t in tables]
        max_table_dim = max(self.dims)
        self.overflow = float(
            sum(max(0, b - self.memory_bytes) for b in self.table_bytes)
        )

        if config.use_grid_search:
            avg_dim = sum(self.dims) / num_devices
            ms = max(avg_dim, 1.0)
            me = config.grid_end_factor * ms
            if config.grid_points == 1:
                grid: list[float] = [ms]
            else:
                grid = list(np.linspace(ms, me, config.grid_points))
            grid.append(math.inf)  # unconstrained fallback, tried last
        else:
            grid = [math.inf]
        # Runnable grid points only (a grid point below the widest table
        # cannot place it); the ∞ fallback is always runnable, so this
        # never empties.
        self.grid = [
            g for g in grid if not (math.isfinite(g) and max_table_dim > g)
        ]

        self.step = 0
        self.num_steps = len(tables)
        if simulator.cache.enabled:
            self.groups = [
                _PassGroup.initial(
                    list(range(len(self.grid))), num_devices, self.num_steps
                )
            ]
        else:
            self.groups = [
                _PassGroup.initial([gi], num_devices, self.num_steps)
                for gi in range(len(self.grid))
            ]
        if profile is not None:
            profile.count("grid_passes", len(self.grid))

    @property
    def active(self) -> bool:
        return bool(self.groups) and self.step < self.num_steps

    def result(self, profile: SearchProfile | None = None) -> GridSearchResult:
        """Fold the finalized groups back into one grid-search result.

        Replays the grid in order with a strict-``<`` update, so ties
        resolve to the earliest grid point exactly as a
        one-pass-at-a-time loop would.
        """
        if profile is not None:
            profile.count("grid_pass_groups", len(self.groups))
        group_by_grid: dict[int, _PassGroup] = {}
        for group in self.groups:
            for m in group.members:
                group_by_grid[m] = group
        best = GridSearchResult.infeasible(self.overflow)
        for gi, max_dim in enumerate(self.grid):
            group = group_by_grid.get(gi)
            if group is None:
                continue  # this grid point's pass died (no candidate device)
            assert group.breakdown is not None
            cost = group.breakdown.max_cost_ms
            if cost < best.cost_ms:
                best = GridSearchResult(
                    feasible=True,
                    cost_ms=cost,
                    assignment=tuple(group.assignment),
                    max_dim_used=None if math.isinf(max_dim) else float(max_dim),
                    breakdown=group.breakdown,
                )
        return best


def _advance_instances(
    active: Sequence[_GridInstance],
    simulator: NeuroShardSimulator,
    profile: SearchProfile | None,
) -> None:
    """One lockstep round: score every group's candidates in one batch,
    then advance each group one table-placement step (splitting groups
    whose members choose different devices)."""
    entries: list[tuple[tuple[str, ...], Sequence[int], int | None]] = []
    # (instance, group, ti, union candidates, per-member masks, slot start)
    requests: list[
        tuple[_GridInstance, _PassGroup, int, list[int], list[tuple[int, ...]], int]
    ] = []
    for inst in active:
        ti = int(inst.order[inst.step])
        t_bytes = inst.table_bytes[ti]
        t_dim = inst.dims[ti]
        uid = inst.uids[ti]
        for group in inst.groups:
            mem_ok = [
                d
                for d in range(inst.num_devices)
                if group.device_bytes[d] + t_bytes <= inst.memory_bytes
            ]
            # Candidate masks are nested by max_dim, so the loosest
            # member's mask is the union; score it once and let each
            # member pick the first-min over its own subset.
            union_max = max(inst.grid[m] for m in group.members)
            union = [
                d for d in mem_ok if group.device_dims[d] + t_dim <= union_max
            ]
            alive: list[int] = []
            masks: list[tuple[int, ...]] = []
            for m in group.members:
                threshold = inst.grid[m]
                if threshold == union_max:
                    mask = tuple(union)
                else:
                    mask = tuple(
                        d
                        for d in union
                        if group.device_dims[d] + t_dim <= threshold
                    )
                if mask:
                    alive.append(m)
                    masks.append(mask)
                # An empty mask means this grid point's pass just failed
                # (no candidate device); the member is dropped.
            group.members = alive
            if not alive:
                continue
            start = len(entries)
            entries.extend(
                (
                    extend_table_set_key(group.device_keys[d], uid),
                    group.device_row_ids[d],
                    inst.row_ids[ti],
                )
                for d in union
            )
            requests.append((inst, group, ti, union, masks, start))
            if profile is not None:
                profile.count("greedy_steps")
                profile.count("scored_candidates", len(union))

    costs = simulator.device_compute_costs_batch(entries) if entries else []

    new_groups: dict[int, list[_PassGroup]] = {id(inst): [] for inst in active}
    for inst, group, ti, union, masks, start in requests:
        slot = {d: start + k for k, d in enumerate(union)}
        best_by_mask: dict[tuple[int, ...], int] = {}
        buckets: dict[int, list[int]] = {}
        for m, mask in zip(group.members, masks):
            best = best_by_mask.get(mask)
            if best is None:
                # First-min tie-break over the member's own candidates in
                # ascending device order, like ``np.argmin``.
                best = mask[
                    min(range(len(mask)), key=lambda k: costs[slot[mask[k]]])
                ]
                best_by_mask[mask] = best
            buckets.setdefault(best, []).append(m)
        uid = inst.uids[ti]
        row_id = inst.row_ids[ti]
        t_bytes = inst.table_bytes[ti]
        t_dim = inst.dims[ti]
        successors = new_groups[id(inst)]
        if len(buckets) == 1:
            (best,) = buckets
            group.place(best, ti, uid, row_id, t_bytes, t_dim)
            successors.append(group)
        else:
            # Members diverge: one successor group per chosen device,
            # ordered by earliest member grid index for determinism.
            # Clones split off the *pre-placement* state, so they are
            # built before the surviving group mutates in place.
            ordered = sorted(buckets.items(), key=lambda kv: min(kv[1]))
            clones: list[_PassGroup] = []
            for best, members in ordered[1:]:
                clone = group.clone_for(members)
                clone.place(best, ti, uid, row_id, t_bytes, t_dim)
                clones.append(clone)
            first_best, first_members = ordered[0]
            group.members = first_members
            group.place(first_best, ti, uid, row_id, t_bytes, t_dim)
            successors.append(group)
            successors.extend(clones)
    for inst in active:
        inst.groups = new_groups[id(inst)]
        inst.step += 1


def _drive_grid_instances(
    instances: Sequence[_GridInstance],
    simulator: NeuroShardSimulator,
    profile: SearchProfile | None = None,
) -> list[GridSearchResult]:
    """Run instances to completion in lockstep, finalize, fold results."""
    with maybe_stage(profile, "greedy_assign"):
        while True:
            active = [inst for inst in instances if inst.active]
            if not active:
                break
            if profile is not None:
                profile.observe("frontier_size", len(active))
            _advance_instances(active, simulator, profile)

    with maybe_stage(profile, "plan_cost"):
        if simulator.cache.enabled:
            items = []
            slots: list[_PassGroup] = []
            for inst in instances:
                for group in inst.groups:
                    items.append(
                        (group.device_keys, group.device_row_ids, group.device_dims)
                    )
                    slots.append(group)
            if items:
                for group, breakdown in zip(
                    slots, simulator.plan_costs_keyed_batch(items)
                ):
                    group.breakdown = breakdown
        else:
            # The "w/o caching" ablation has no placement memo:
            # per-device table lists rebuilt in table input order and
            # scored via plan_cost, one placement at a time.
            for inst in instances:
                for group in inst.groups:
                    per_device: list[list[TableConfig]] = [
                        [] for _ in range(inst.num_devices)
                    ]
                    for ti, d in enumerate(group.assignment):
                        per_device[d].append(inst.tables[ti])
                    group.breakdown = simulator.plan_cost(per_device)

    return [inst.result(profile) for inst in instances]


def greedy_grid_search(
    tables: Sequence[TableConfig],
    num_devices: int,
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    config: SearchConfig | None = None,
    profile: SearchProfile | None = None,
) -> GridSearchResult:
    """Algorithm 2: find the best table-wise plan for ``tables``.

    With ``config.use_grid_search`` disabled, a single unconstrained
    greedy pass runs instead (the "w/o greedy grid search" ablation).
    All grid passes run in lockstep and every step's candidates across
    all passes are scored in one batched forward pass.
    """
    config = config or SearchConfig()
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if len(tables) == 0:
        raise ValueError("cannot shard an empty table list")
    instance = _GridInstance(tables, num_devices, simulator, memory, config, profile)
    return _drive_grid_instances([instance], simulator, profile=profile)[0]
