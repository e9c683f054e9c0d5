"""Incremental resharding: keep a live plan good under a moving workload.

The one-shot search answers "what is the best plan for this task?"; a
deployment needs the answer to "the workload changed — what is the best
plan *reachable from the one currently applied*?".  Re-searching from
scratch typically reshuffles most shards, and every moved shard is live
state that must travel (:mod:`repro.api.diff`), so the right objective
is the paper's simulated embedding cost plus an amortized migration
term:

    objective = simulated_cost_ms + lambda * migration_cost_ms

where ``lambda`` converts a one-time migration into per-iteration cost
(roughly ``1 / iterations-until-the-next-reshard``).

:func:`incremental_reshard` evaluates two candidates under that
objective and a hard ``migration_budget_ms``:

1. **warm start** — surviving shards keep their devices, added tables
   (column-split until they fit a device) are placed greedily by the
   cost models, then a bounded local search moves bottleneck-device
   shards while the objective improves and the budget holds;
2. **full re-search** — the engine's regular strategy on the new task,
   considered when ``allow_full_search`` and its migration cost fits the
   budget ("fall back to full re-search when the budget allows").

The local search is the expensive part, so each of its steps scores the
whole neighbourhood (every move, swap and split of the bottleneck's
shards) as one batch: one
:meth:`~repro.core.simulator.NeuroShardSimulator.plan_costs_batch` call
on feature-bank row ids, with both communication models run once per
step.  A candidate's migration cost comes from per-device egress,
ingress and transfer sums against the applied plan, in the per-shard
additive form of :class:`~repro.api.diff.MigrationCostModel`; only the
candidates' touched shards are re-priced, and the full
:class:`~repro.api.diff.PlanDiff` is built once, for the chosen plan.
Results are bit-identical to scoring every candidate on its own with
``plan_cost`` and ``PlanDiff.between`` (``tests/reshard_oracle.py``).
The reshard keeps no state on the engine's long-lived simulator beyond
cost-cache entries, so a bounded cache bounds it.

Workload deltas (:class:`WorkloadDelta`) carry added/removed tables,
in-place access-statistics updates (``update_stats`` — pooling/skew
changes that move no bytes by themselves), and optionally the
:class:`~repro.costmodel.drift.DriftReport` that triggered the reshard,
so drift-driven replans are recorded with their evidence.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.api.diff import MigrationCostModel, PlanDiff
from repro.api.schema import SCHEMA_VERSION, ShardingRequest, ShardingResponse, _check_version
from repro.core.plan import ShardingPlan
from repro.core.simulator import NeuroShardSimulator
from repro.costmodel.drift import DriftReport
from repro.data.io import table_from_dict, table_to_dict
from repro.data.table import TableConfig
from repro.data.tasks import ShardingTask
from repro.hardware.memory import MemoryModel

__all__ = [
    "ReshardConfig",
    "ReshardResult",
    "WorkloadDelta",
    "apply_stats_updates",
    "incremental_reshard",
]


def apply_stats_updates(
    tables: Sequence[TableConfig], updates: Sequence[TableConfig]
) -> tuple[TableConfig, ...]:
    """Rewrite tables' access statistics in place (zero bytes moved).

    Each update is matched by ``table_id`` and replaces only the
    cost-statistics fields (``pooling_factor``, ``zipf_alpha``) of every
    matching table — the stored weights (``dim``, ``hash_size``,
    ``bytes_per_element``) are untouched, which is what makes a stats
    update migration-free by construction.  Shared by the incremental
    reshard (applying a :attr:`WorkloadDelta.update_stats`) and the
    validation layer (recomputing transition diffs against the same
    stat-updated base the reshard searched from).

    Raises:
        ValueError: when an update references a ``table_id`` absent from
            ``tables``.
    """
    present = {t.table_id for t in tables}
    missing = sorted(
        t.table_id for t in updates if t.table_id not in present
    )
    if missing:
        raise ValueError(
            f"update_stats references table ids {missing} that are not "
            "in the applied workload"
        )
    stats = {t.table_id: t for t in updates}
    return tuple(
        t
        if t.table_id not in stats
        else dataclasses.replace(
            t,
            pooling_factor=stats[t.table_id].pooling_factor,
            zipf_alpha=stats[t.table_id].zipf_alpha,
        )
        for t in tables
    )


def _check_keys(data: Mapping[str, Any], extra: set[str], cls: type, what: str) -> None:
    """Reject keys of ``data`` that are neither ``cls`` fields nor ``extra``."""
    known = extra | {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} {unknown}; expected a subset of {sorted(known)}"
        )


@dataclass(frozen=True)
class WorkloadDelta:
    """A workload change between the applied plan and now.

    Attributes:
        add_tables: tables the model gained.
        remove_table_ids: ``table_id``s the model dropped (every shard of
            a removed table disappears).
        update_stats: tables (matched by ``table_id`` against the applied
            workload) whose *access statistics* — ``pooling_factor`` and
            ``zipf_alpha`` — changed while the stored weights did not.
            The reshard rewrites the surviving shards' statistics in
            place, so a stats update moves no bytes by itself; only
            rebalancing the search then chooses to do is priced.  A
            storage change (``dim``, ``hash_size``) must instead be
            expressed as remove + add of the same id, which prices the
            re-materialization.
        drift: the drift probe that motivated the reshard, when one did
            (see :class:`~repro.costmodel.drift.DriftMonitor`).

    Raises:
        ValueError: when one ``table_id`` appears in more than one of
            ``add_tables`` / ``remove_table_ids`` / ``update_stats`` in a
            contradictory way (an id both updated and removed, or both
            updated and re-added).
    """

    add_tables: tuple[TableConfig, ...] = ()
    remove_table_ids: tuple[int, ...] = ()
    update_stats: tuple[TableConfig, ...] = ()
    drift: DriftReport | None = None

    def __post_init__(self) -> None:
        updated = {t.table_id for t in self.update_stats}
        if len(updated) != len(self.update_stats):
            raise ValueError("update_stats repeats a table_id")
        clashes = updated & (
            set(self.remove_table_ids) | {t.table_id for t in self.add_tables}
        )
        if clashes:
            raise ValueError(
                f"table ids {sorted(clashes)} appear in update_stats and in "
                "add_tables/remove_table_ids of the same delta"
            )

    @property
    def is_empty(self) -> bool:
        """Whether the delta changes nothing about the workload."""
        return (
            not self.add_tables
            and not self.remove_table_ids
            and not self.update_stats
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "add_tables": [table_to_dict(t) for t in self.add_tables],
            "remove_table_ids": [int(i) for i in self.remove_table_ids],
            "update_stats": [table_to_dict(t) for t in self.update_stats],
            "drift": None if self.drift is None else self.drift.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadDelta":
        """Inverse of :meth:`to_dict`, strict about keys and ids.

        A typo'd key would load as an empty delta and a float id would be
        truncated onto another table, so both raise ``ValueError``
        (unknown keys are named).  Omitted fields keep their defaults.
        """
        _check_version(data, "workload delta")
        _check_keys(data, {"schema_version"}, cls, "WorkloadDelta keys")
        removed = data.get("remove_table_ids", [])
        if type(removed) is not list or any(type(i) is not int for i in removed):
            raise ValueError(
                f"remove_table_ids must be a list of ints, got {removed!r}"
            )
        drift = data.get("drift")
        return cls(
            add_tables=tuple(
                table_from_dict(t) for t in data.get("add_tables", ())
            ),
            remove_table_ids=tuple(removed),
            update_stats=tuple(
                table_from_dict(t) for t in data.get("update_stats", ())
            ),
            drift=None if drift is None else DriftReport.from_dict(drift),
        )


def _real(name: str, value: Any) -> float:
    """``value`` when it is a real number (not a bool, not NaN)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or math.isnan(value)
    ):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class ReshardConfig:
    """Knobs of the incremental reshard search.

    Attributes:
        migration_budget_ms: hard cap on the chosen plan's migration cost
            (``None`` = unbounded).
        migration_lambda: weight of the migration term in the objective —
            the amortization rate of a one-time migration into the
            per-iteration cost (``1e-4`` ≈ "the plan will live for ten
            thousand iterations").
        allow_full_search: also evaluate the engine's from-scratch search
            and adopt it when it wins the objective within budget.
        max_refine_steps: bound on local-search move acceptances.
    """

    migration_budget_ms: float | None = None
    migration_lambda: float = 1e-4
    allow_full_search: bool = True
    max_refine_steps: int = 64

    def __post_init__(self) -> None:
        if self.migration_budget_ms is not None and self.migration_budget_ms < 0:
            raise ValueError(
                f"migration_budget_ms must be >= 0, got {self.migration_budget_ms}"
            )
        if self.migration_lambda < 0:
            raise ValueError(
                f"migration_lambda must be >= 0, got {self.migration_lambda}"
            )
        if self.max_refine_steps < 0:
            raise ValueError(
                f"max_refine_steps must be >= 0, got {self.max_refine_steps}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view of the knobs."""
        return {
            "migration_budget_ms": self.migration_budget_ms,
            "migration_lambda": self.migration_lambda,
            "allow_full_search": self.allow_full_search,
            "max_refine_steps": self.max_refine_steps,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReshardConfig":
        """Inverse of :meth:`to_dict`, strict about keys and types.

        Knobs arrive from JSON (HTTP bodies, tuned profiles), where a
        typo'd key or a quoted value would otherwise run the defaults or
        a wrong value without a word.  Omitted knobs keep their defaults.

        Raises:
            ValueError: on an unknown key (named in the message), an
                ``allow_full_search`` that is not a bool, a
                ``max_refine_steps`` that is not an int, a
                ``migration_lambda`` or ``migration_budget_ms`` (``None``
                allowed) that is not a real number, or an out-of-range
                value.
        """
        _check_keys(data, set(), cls, "ReshardConfig knobs")
        kwargs = dict(data)
        if kwargs.get("migration_budget_ms") is not None:
            _real("migration_budget_ms", kwargs["migration_budget_ms"])
        if "migration_lambda" in kwargs:
            kwargs["migration_lambda"] = float(
                _real("migration_lambda", kwargs["migration_lambda"])
            )
        full = kwargs.get("allow_full_search", True)
        if not isinstance(full, bool):
            raise ValueError(f"allow_full_search must be a bool, got {full!r}")
        steps = kwargs.get("max_refine_steps", 64)
        if isinstance(steps, bool) or not isinstance(steps, int):
            raise ValueError(f"max_refine_steps must be an int, got {steps!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class ReshardResult:
    """Outcome of one incremental reshard.

    Attributes:
        response: the chosen plan as a regular engine response
            (``effective_tables`` set when the plan indexes a table list
            other than the new task's).
        new_task: the post-delta task both candidates answered
            (``response.plan_tables(new_task)`` is the list the chosen
            plan indexes).
        diff: shard-level difference of the chosen plan vs the applied
            plan, migration cost included.
        chosen: ``"incremental"`` or ``"full"``.
        objective_ms: the chosen candidate's combined objective.
        within_budget: the chosen plan's migration cost respects the
            budget (``False`` only when *no* candidate could).
        drift_triggered: the delta carried a drift report that demanded
            re-training.
        full_response / full_diff: the from-scratch candidate, when it
            was evaluated (for migration-savings reporting).
    """

    response: ShardingResponse
    new_task: ShardingTask
    diff: PlanDiff
    chosen: str
    objective_ms: float
    within_budget: bool
    drift_triggered: bool = False
    full_response: ShardingResponse | None = None
    full_diff: PlanDiff | None = None


def _split_to_fit(
    table: TableConfig, memory: MemoryModel
) -> list[TableConfig]:
    """Column-split ``table`` until each shard fits an empty device."""
    shards = [table]
    while True:
        oversized = [t for t in shards if memory.table_bytes(t) > memory.memory_bytes]
        if not oversized or not all(t.can_halve for t in oversized):
            return shards
        next_shards: list[TableConfig] = []
        for t in shards:
            if memory.table_bytes(t) > memory.memory_bytes:
                next_shards.extend(t.halved())
            else:
                next_shards.append(t)
        shards = next_shards


def _place_added(
    added: Sequence[TableConfig],
    per_device: list[list[TableConfig]],
    device_bytes: list[int],
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
) -> list[int] | None:
    """Greedily place ``added`` tables onto the warm per-device state.

    Returns the device chosen per added table (in input order), or
    ``None`` when some table fits no device.  Mirrors the inner search's
    greedy rule: costliest tables first, cheapest resulting device wins.
    """
    singles = simulator.device_compute_costs([[t] for t in added])
    order = sorted(range(len(added)), key=lambda i: -singles[i])
    devices: list[int] = [0] * len(added)
    for i in order:
        table = added[i]
        t_bytes = memory.table_bytes(table)
        candidates = [
            d
            for d in range(len(per_device))
            if device_bytes[d] + t_bytes <= memory.memory_bytes
        ]
        if not candidates:
            return None
        costs = simulator.device_compute_costs(
            [[*per_device[d], table] for d in candidates]
        )
        best = candidates[min(range(len(costs)), key=costs.__getitem__)]
        per_device[best].append(table)
        device_bytes[best] += t_bytes
        devices[i] = best
    return devices


def _plan_metrics(
    plan: ShardingPlan,
    base_tables: Sequence[TableConfig],
    applied_plan: ShardingPlan,
    applied_base: Sequence[TableConfig],
    simulator: NeuroShardSimulator,
    cost_model: MigrationCostModel,
) -> tuple[float, PlanDiff]:
    """Simulated cost and diff-vs-applied of a candidate plan."""
    cost = simulator.plan_cost(plan.per_device_tables(base_tables)).max_cost_ms
    diff = PlanDiff.between(
        applied_plan, applied_base, plan, base_tables, cost_model
    )
    return cost, diff


class _Transfers:
    """Per-device egress bytes, ingress bytes and transfer counts of a
    candidate placement against the applied plan.

    These are the integers :class:`~repro.api.diff.MigrationCostModel`
    prices.  Each shard adds its own term, which depends only on its
    applied slot (the ``(device, size)`` of the applied shard with the
    same uid and occurrence rank, or ``None`` for a shard the applied
    plan lacks) and its new device, so a mutation updates the sums by
    removing and re-adding the terms of the shards it touches.  Python
    ints keep every update exact, and :meth:`cost_ms` equals the
    ``migration_cost_ms`` of :meth:`PlanDiff.between` bitwise.
    """

    __slots__ = ("egress", "ingress", "transfers")

    def __init__(
        self, egress: list[int], ingress: list[int], transfers: list[int]
    ) -> None:
        self.egress = egress
        self.ingress = ingress
        self.transfers = transfers

    def copy(self) -> "_Transfers":
        """An independent copy (candidates adjust their own sums)."""
        return _Transfers(
            list(self.egress), list(self.ingress), list(self.transfers)
        )

    def shift(
        self, slot: tuple[int, int] | None, size: int, device: int, sign: int
    ) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) one shard's term."""
        if slot is None:
            self.ingress[device] += sign * size
            self.transfers[device] += sign
            return
        old_device, old_size = slot
        if old_device != device:
            self.egress[old_device] += sign * old_size
            self.ingress[device] += sign * old_size
            self.transfers[old_device] += sign
            self.transfers[device] += sign

    def cost_ms(self, cost_model: MigrationCostModel) -> float:
        """The migration cost these sums price to."""
        return cost_model.cost_ms(self.egress, self.ingress, self.transfers)


def _slot_ranker(
    old_slots: Mapping[str, list[tuple[int, int]]],
) -> Callable[[str], tuple[int, int] | None]:
    """Match shards, in table-list order, to applied slots by uid and
    occurrence rank (the :meth:`PlanDiff.between` convention)."""
    seen: dict[str, int] = {}

    def slot_of(uid: str) -> tuple[int, int] | None:
        rank = seen.get(uid, 0)
        seen[uid] = rank + 1
        slots = old_slots.get(uid)
        return slots[rank] if slots is not None and rank < len(slots) else None

    return slot_of


#: A refine mutation: ``("move", ti, target)``, ``("swap", ti, tj)`` or
#: ``("split", ti, target)`` (``ti`` halved in place, the second half
#: appended to the table list on ``target``).
_Mutation = tuple[str, int, int]
#: One device's canonical key, bank row ids and summed dimension.
_DeviceView = tuple[tuple[str, ...], list[int], int]
#: One placement as :meth:`NeuroShardSimulator.plan_costs_batch` takes it.
_PlacementItem = tuple[list[tuple[str, ...]], list[list[int]], list[int]]


class _Placement:
    """The refine's current placement and the neighbourhood around it.

    Keeps the working table list and its assignment with everything a
    candidate is scored from: per-table columns (uid, bank row id, dim,
    size, memory footprint and applied slot), per-device views and the
    migration sums against the applied plan.  The applied slots are
    built once per reshard; the columns are rebuilt only when a split
    changes the table list.

    A changed device's view lists its bank row ids in no particular
    order: row order within a set does not change its prediction
    (``predict_rows`` pools in a canonical order), and the canonical key
    and dimension sum are order-free.
    """

    def __init__(
        self,
        tables: Sequence[TableConfig],
        assignment: Sequence[int],
        applied_plan: ShardingPlan,
        applied_base: Sequence[TableConfig],
        simulator: NeuroShardSimulator,
        memory: MemoryModel,
    ) -> None:
        self.num_devices = applied_plan.num_devices
        self.memory = memory
        self._row_index = simulator.featurizer.row_index
        self._old_slots: dict[str, list[tuple[int, int]]] = {}
        for uid, _, device, size in applied_plan.shard_identities(applied_base):
            self._old_slots.setdefault(uid, []).append((device, size))
        self._set_tables(list(tables))
        self._set_assignment(list(assignment))

    def _set_tables(self, tables: list[TableConfig]) -> None:
        self.tables = tables
        self.uids = [t.uid for t in tables]
        self.row_ids = [self._row_index(t) for t in tables]
        self.dims = [t.dim for t in tables]
        self.sizes = [t.size_bytes for t in tables]
        self.table_bytes = [self.memory.table_bytes(t) for t in tables]
        slot_of = _slot_ranker(self._old_slots)
        self.slots = [slot_of(uid) for uid in self.uids]

    def _set_assignment(self, assignment: list[int]) -> None:
        self.assignment = assignment
        self.members: list[list[int]] = [[] for _ in range(self.num_devices)]
        self.device_bytes = [0] * self.num_devices
        self.transfers = _Transfers(
            [0] * self.num_devices, [0] * self.num_devices, [0] * self.num_devices
        )
        for ti, d in enumerate(assignment):
            self.members[d].append(ti)
            self.device_bytes[d] += self.table_bytes[ti]
            self.transfers.shift(self.slots[ti], self.sizes[ti], d, 1)
        self.views = [self._view(m) for m in self.members]

    def _view(
        self, members: Sequence[int], extra: Sequence[tuple[str, int, int]] = ()
    ) -> _DeviceView:
        """The view of a device holding table indices ``members`` plus
        ``extra`` ``(uid, row id, dim)`` shards."""
        entries = [(self.uids[k], self.row_ids[k], self.dims[k]) for k in members]
        entries.extend(extra)
        return (
            tuple(sorted(e[0] for e in entries)),
            [e[1] for e in entries],
            sum(e[2] for e in entries),
        )

    def item(self, changed: Mapping[int, _DeviceView] | None = None) -> _PlacementItem:
        """This placement as a ``plan_costs_batch`` item, with the views
        of the ``changed`` devices replaced."""
        views = list(self.views)
        for d, v in (changed or {}).items():
            views[d] = v
        return [v[0] for v in views], [v[1] for v in views], [v[2] for v in views]

    def neighbourhood(
        self, bottleneck: int
    ) -> list[tuple[_Mutation, _PlacementItem, _Transfers]]:
        """Every memory-feasible move, swap and split of the bottleneck's
        shards, in staging order (moves, then swaps, then splits), each
        with its ``plan_costs_batch`` item and migration sums."""
        capacity = self.memory.memory_bytes
        assignment, slots, sizes = self.assignment, self.slots, self.sizes
        table_bytes, device_bytes = self.table_bytes, self.device_bytes
        movers = self.members[bottleneck]
        others = [ti for ti, d in enumerate(assignment) if d != bottleneck]
        out: list[tuple[_Mutation, _PlacementItem, _Transfers]] = []

        def without(d: int, ti: int) -> list[int]:
            return [k for k in self.members[d] if k != ti]

        # The bottleneck's other shards, per shard leaving it.
        rest = {ti: without(bottleneck, ti) for ti in movers}
        for ti in movers:
            rest_view = self._view(rest[ti])
            for target in range(self.num_devices):
                if target == bottleneck:
                    continue
                if device_bytes[target] + table_bytes[ti] > capacity:
                    continue
                moved = self.transfers.copy()
                moved.shift(slots[ti], sizes[ti], bottleneck, -1)
                moved.shift(slots[ti], sizes[ti], target, 1)
                changed = {
                    bottleneck: rest_view,
                    target: self._view([*self.members[target], ti]),
                }
                out.append((("move", ti, target), self.item(changed), moved))
        for ti in movers:
            for tj in others:
                d_j = assignment[tj]
                fits_j = (
                    device_bytes[d_j] - table_bytes[tj] + table_bytes[ti]
                    <= capacity
                )
                fits_b = (
                    device_bytes[bottleneck] - table_bytes[ti] + table_bytes[tj]
                    <= capacity
                )
                if not (fits_j and fits_b):
                    continue
                moved = self.transfers.copy()
                moved.shift(slots[ti], sizes[ti], bottleneck, -1)
                moved.shift(slots[tj], sizes[tj], d_j, -1)
                moved.shift(slots[ti], sizes[ti], d_j, 1)
                moved.shift(slots[tj], sizes[tj], bottleneck, 1)
                changed = {
                    bottleneck: self._view([*rest[ti], tj]),
                    d_j: self._view([*without(d_j, tj), ti]),
                }
                out.append((("swap", ti, tj), self.item(changed), moved))
        for ti in movers:
            if not self.tables[ti].can_halve:
                continue
            half, _ = self.tables[ti].halved()
            half_entry = (half.uid, self._row_index(half), half.dim)
            half_bytes = self.memory.table_bytes(half)
            freed = device_bytes[bottleneck] - table_bytes[ti]
            # The split renames one occurrence of uids[ti] to the half's
            # uid, so both uids' occurrence ranks are re-derived; every
            # other shard keeps its applied slot.
            split = self.transfers.copy()
            slot_of = _slot_ranker(self._old_slots)
            for k, uid in enumerate(self.uids):
                if uid != self.uids[ti] and uid != half.uid:
                    continue
                split.shift(slots[k], sizes[k], assignment[k], -1)
                if k == ti:
                    split.shift(slot_of(half.uid), half.size_bytes, bottleneck, 1)
                else:
                    split.shift(slot_of(uid), sizes[k], assignment[k], 1)
            second_slot = slot_of(half.uid)
            for target in range(self.num_devices):
                on_bottleneck = half_bytes + (
                    half_bytes if target == bottleneck else 0
                )
                if freed + on_bottleneck > capacity:
                    continue
                if (
                    target != bottleneck
                    and device_bytes[target] + half_bytes > capacity
                ):
                    continue
                moved = split.copy()
                moved.shift(second_slot, half.size_bytes, target, 1)
                if target == bottleneck:
                    changed = {
                        bottleneck: self._view(rest[ti], [half_entry] * 2)
                    }
                else:
                    changed = {
                        bottleneck: self._view(rest[ti], [half_entry]),
                        target: self._view(self.members[target], [half_entry]),
                    }
                out.append((("split", ti, target), self.item(changed), moved))
        return out

    def apply(self, mutation: _Mutation, bottleneck: int) -> None:
        """Make a staged mutation of the ``bottleneck`` the placement."""
        kind, ti, other = mutation
        assignment = list(self.assignment)
        if kind == "move":
            assignment[ti] = other
        elif kind == "swap":
            assignment[ti], assignment[other] = assignment[other], bottleneck
        else:
            first, second = self.tables[ti].halved()
            tables = list(self.tables)
            tables[ti] = first
            tables.append(second)
            assignment.append(other)
            self._set_tables(tables)
        self._set_assignment(assignment)


def _refine(
    assignment: list[int],
    tables: Sequence[TableConfig],
    applied_plan: ShardingPlan,
    applied_base: Sequence[TableConfig],
    simulator: NeuroShardSimulator,
    memory: MemoryModel,
    cost_model: MigrationCostModel,
    config: ReshardConfig,
) -> tuple[list[TableConfig], list[int]]:
    """Bounded local search around the warm-started placement.

    Three move families, tried cheapest-disruption first on the
    bottleneck device (the max-cost objective can only improve by
    changing the bottleneck):

    1. **move** a shard to another device,
    2. **swap** a shard with one on another device (escapes the
       partition local optima single moves hit),
    3. **split** a shard column-wise and place the halves (the paper's
       compute/balance trade, Observation 1, in incremental form).

    A mutation is accepted only when it improves ``simulated + lambda *
    migration`` and its migration cost respects the budget; the loop
    stops at a local optimum or after ``max_refine_steps`` acceptances.
    Candidates are folded in staging order (moves, swaps, splits) with a
    strict improvement margin, so a tie goes to the earliest candidate.

    Each step scores its whole neighbourhood as one batch: every
    candidate's device sets (rebuilt, from bank row ids, only on the one
    or two devices it changes) go through one
    :meth:`~repro.core.simulator.NeuroShardSimulator.plan_costs_batch`
    call.  A candidate's migration cost is priced from per-device
    :class:`_Transfers` sums adjusted for the shards it touches, with no
    :class:`PlanDiff` built.  The accepted candidate's breakdown names
    the next step's bottleneck, so a placement is scored once.  The
    result is exactly that of scoring each candidate with
    ``plan_cost`` and ``PlanDiff.between``.  Returns the (possibly
    grown) table list and its assignment.
    """
    if config.max_refine_steps == 0:
        return list(tables), assignment
    lam = config.migration_lambda
    budget = config.migration_budget_ms
    placement = _Placement(
        tables, assignment, applied_plan, applied_base, simulator, memory
    )
    (current,) = simulator.plan_costs_batch([placement.item()])
    objective = current.max_cost_ms + lam * placement.transfers.cost_ms(
        cost_model
    )
    for _ in range(config.max_refine_steps):
        device_costs = current.device_costs_ms
        bottleneck = max(
            range(placement.num_devices), key=device_costs.__getitem__
        )
        candidates = placement.neighbourhood(bottleneck)
        breakdowns = simulator.plan_costs_batch([c[1] for c in candidates])
        best: tuple[float, int | None] = (objective, None)
        for n, ((_, _, transfers), breakdown) in enumerate(
            zip(candidates, breakdowns)
        ):
            migration_ms = transfers.cost_ms(cost_model)
            if budget is not None and migration_ms > budget:
                continue
            candidate_objective = breakdown.max_cost_ms + lam * migration_ms
            if candidate_objective < best[0] - 1e-12:
                best = (candidate_objective, n)
        objective, n = best
        if n is None:
            break
        placement.apply(candidates[n][0], bottleneck)
        current = breakdowns[n]
    return placement.tables, placement.assignment


def incremental_reshard(
    engine,
    applied_plan: ShardingPlan,
    applied_base_tables: Sequence[TableConfig],
    delta: WorkloadDelta,
    config: ReshardConfig | None = None,
    strategy: str | None = None,
    memory_bytes: int | None = None,
    request_id: str = "",
) -> ReshardResult:
    """Search for the best budget-respecting plan for the changed workload.

    Args:
        engine: a :class:`~repro.api.engine.ShardingEngine` with a bundle
            (the cost models score candidates and drive the full search).
        applied_plan: the deployment's currently applied plan.
        applied_base_tables: the base table list ``applied_plan`` was
            planned over.
        delta: tables added/removed, in-place stats updates, and
            optionally the drift report.
        config: budget / lambda / refinement knobs.
        strategy: full-search strategy name (engine default when omitted).
        memory_bytes: per-device budget (engine cluster's when omitted).
        request_id: correlation id echoed in the chosen response.

    Raises:
        ValueError: when the engine has no cost-model bundle, or the
            delta removes every table.
    """
    if engine.bundle is None:
        raise ValueError(
            "incremental resharding needs an engine with a cost-model "
            "bundle to score candidate plans"
        )
    config = config or ReshardConfig()
    memory = MemoryModel(
        memory_bytes
        if memory_bytes is not None
        else engine.cluster.config.memory_bytes
    )
    num_devices = applied_plan.num_devices
    cost_model = MigrationCostModel(engine.cluster.spec)
    simulator = engine.simulator
    removed = set(delta.remove_table_ids)
    drift_triggered = bool(delta.drift is not None and delta.drift.needs_retraining)

    # Stats updates rewrite the surviving shards' access statistics in
    # place *before* anything is diffed or scored: the stored weights are
    # unchanged, so the update itself moves no bytes — both candidates
    # are searched and priced against the stat-updated applied state.
    if delta.update_stats:
        applied_base_tables = apply_stats_updates(
            applied_base_tables, delta.update_stats
        )

    # The new task as the full search sees it: applied base tables minus
    # removals, plus the added tables (unsplit — the search decides).
    new_base = tuple(
        t for t in applied_base_tables if t.table_id not in removed
    ) + tuple(delta.add_tables)
    if not new_base:
        raise ValueError("the workload delta removes every table")
    new_task = ShardingTask(
        tables=new_base,
        num_devices=num_devices,
        memory_bytes=memory.memory_bytes,
    )

    # ------------------------------------------------------------------
    # candidate 1: warm start + bounded local refinement
    # ------------------------------------------------------------------
    started = time.perf_counter()
    old_sharded = applied_plan.sharded_tables(applied_base_tables)
    surviving = [
        (t, d)
        for t, d in zip(old_sharded, applied_plan.assignment)
        if t.table_id not in removed
    ]
    added: list[TableConfig] = []
    for table in delta.add_tables:
        added.extend(_split_to_fit(table, memory))

    warm_tables = tuple(t for t, _ in surviving) + tuple(added)
    per_device: list[list[TableConfig]] = [[] for _ in range(num_devices)]
    device_bytes = [0] * num_devices
    for t, d in surviving:
        per_device[d].append(t)
        device_bytes[d] += memory.table_bytes(t)
    warm_feasible = all(b <= memory.memory_bytes for b in device_bytes)
    warm_assignment: list[int] | None = None
    if warm_feasible:
        placed = _place_added(added, per_device, device_bytes, simulator, memory)
        if placed is None:
            warm_feasible = False
        else:
            warm_assignment = [d for _, d in surviving] + placed

    warm_response: ShardingResponse | None = None
    warm_diff: PlanDiff | None = None
    if warm_feasible and warm_assignment is not None:
        refined_tables, warm_assignment = _refine(
            warm_assignment,
            warm_tables,
            applied_plan,
            applied_base_tables,
            simulator,
            memory,
            cost_model,
            config,
        )
        warm_tables = tuple(refined_tables)
        warm_plan = ShardingPlan(
            column_plan=(),
            assignment=tuple(warm_assignment),
            num_devices=num_devices,
        )
        warm_cost, warm_diff = _plan_metrics(
            warm_plan,
            warm_tables,
            applied_plan,
            applied_base_tables,
            simulator,
            cost_model,
        )
        warm_response = ShardingResponse(
            request_id=request_id,
            strategy="reshard-incremental",
            feasible=True,
            plan=warm_plan,
            simulated_cost_ms=warm_cost,
            sharding_time_s=time.perf_counter() - started,
            effective_tables=(
                warm_tables if warm_tables != new_task.tables else None
            ),
        )

    # ------------------------------------------------------------------
    # candidate 2: full re-search (only when allowed — with the warm
    # candidate infeasible and the full search disabled, the reshard is
    # honestly infeasible rather than silently overriding the flag)
    # ------------------------------------------------------------------
    full_response: ShardingResponse | None = None
    full_diff: PlanDiff | None = None
    if config.allow_full_search:
        resp = engine.shard(
            ShardingRequest(new_task, strategy=strategy, request_id=request_id)
        )
        if resp.feasible and resp.plan is not None:
            full_response = resp
            full_diff = PlanDiff.between(
                applied_plan,
                applied_base_tables,
                resp.plan,
                resp.plan_tables(new_task),
                cost_model,
            )

    # ------------------------------------------------------------------
    # selection under the objective + budget
    # ------------------------------------------------------------------
    lam = config.migration_lambda
    budget = config.migration_budget_ms
    candidates: list[tuple[str, ShardingResponse, PlanDiff]] = []
    if warm_response is not None and warm_diff is not None:
        candidates.append(("incremental", warm_response, warm_diff))
    if full_response is not None and full_diff is not None:
        candidates.append(("full", full_response, full_diff))
    if not candidates:
        infeasible = full_response or ShardingResponse(
            request_id=request_id,
            strategy="reshard-incremental",
            feasible=False,
            plan=None,
            simulated_cost_ms=math.inf,
            sharding_time_s=time.perf_counter() - started,
            error="no feasible reshard candidate",
        )
        return ReshardResult(
            response=infeasible,
            new_task=new_task,
            diff=PlanDiff(num_devices=num_devices),
            chosen="none",
            objective_ms=math.inf,
            within_budget=False,
            drift_triggered=drift_triggered,
        )

    def objective(item: tuple[str, ShardingResponse, PlanDiff]) -> float:
        """The combined simulated + amortized-migration objective."""
        _, resp, diff = item
        return resp.simulated_cost_ms + lam * diff.migration_cost_ms

    in_budget = [
        c for c in candidates
        if budget is None or c[2].migration_cost_ms <= budget
    ]
    pool = in_budget or candidates
    if not in_budget:
        # Nothing fits the budget; take the cheapest migration so the
        # deployment overshoots by as little as possible.
        pool = [min(candidates, key=lambda c: c[2].migration_cost_ms)]
    name, response, diff = min(pool, key=objective)
    return ReshardResult(
        response=response,
        new_task=new_task,
        diff=diff,
        chosen=name,
        objective_ms=objective((name, response, diff)),
        within_budget=bool(
            budget is None or diff.migration_cost_ms <= budget
        ),
        drift_triggered=drift_triggered,
        full_response=full_response,
        full_diff=full_diff,
    )
