"""The sharding simulator ``f(c, t)`` built on pre-trained cost models.

The simulated embedding cost of a plan is the max over devices of

    compute_d + forward_comm_d + backward_comm_d

(Section 3.3: "summing up the predicted computation, forward
communication, and backward communication costs").  The communication
models take per-device starting timestamps; during search the observable
proxy for a device's collective start time is its predicted computation
cost (the trace analysis of Section 2 shows compute imbalance is what
skews collective starts), so the simulator feeds the predicted compute
costs as the start times of both collectives.

All computation-cost predictions flow through the
:class:`~repro.core.cache.CostCache`.  The simulator has two set-scoring
entry points — :meth:`NeuroShardSimulator.device_compute_costs` (table
lists) and :meth:`NeuroShardSimulator.device_compute_costs_batch`
(feature-bank row ids, the search's lockstep route) — and three
plan-scoring entry points — :meth:`NeuroShardSimulator.plan_cost` (one
placement of table lists), :meth:`NeuroShardSimulator.plan_costs_batch`
(many placements by row ids, no memo: the reshard refine's
neighbourhoods) and :meth:`NeuroShardSimulator.plan_costs_keyed_batch`
(the same behind a placement memo: the search's finalize).  They share
one prediction tail: cache misses are gathered from the featurizer bank
and predicted in one ``predict_rows`` forward pass, and placements get
their communication costs from one batched ``predict_batch`` per
direction, so every entry point returns bit-identical values.

:meth:`NeuroShardSimulator.single_table_costs` memoizes per table
``uid`` for the simulator's lifetime, so the beam search's repeated
candidate rankings cost one dict lookup per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cache import CostCache
from repro.costmodel.comm_model import comm_features
from repro.costmodel.features import TableFeaturizer
from repro.costmodel.pretrain import PretrainedCostModels
from repro.data.table import TableConfig, table_set_key
from repro.perf import SearchProfile

__all__ = ["PlanCost", "NeuroShardSimulator"]


@dataclass(frozen=True)
class PlanCost:
    """Simulated per-device cost breakdown of one placement."""

    compute_ms: tuple[float, ...]
    fwd_comm_ms: tuple[float, ...]
    bwd_comm_ms: tuple[float, ...]

    @property
    def device_costs_ms(self) -> tuple[float, ...]:
        return tuple(
            c + f + b
            for c, f, b in zip(self.compute_ms, self.fwd_comm_ms, self.bwd_comm_ms)
        )

    @property
    def max_cost_ms(self) -> float:
        """The simulated embedding cost ``f(c, t)``."""
        return max(self.device_costs_ms)


class NeuroShardSimulator:
    """Cost-model-backed simulator used by the online search.

    Args:
        models: the pre-trained bundle.
        cache: the lifelong computation-cost cache; a fresh enabled cache
            is created when omitted.
        profile: optional :class:`~repro.perf.SearchProfile` recording
            prediction-batch counters; ``None`` (the default) keeps the
            hot path uninstrumented.
    """

    def __init__(
        self,
        models: PretrainedCostModels,
        cache: CostCache | None = None,
        profile: SearchProfile | None = None,
    ) -> None:
        self.models = models
        self.cache = cache if cache is not None else CostCache()
        self.profile = profile
        # Memo layers that live as long as this simulator, outside the
        # cost cache's ``max_entries`` bound.  Sharders build one
        # simulator per search request and fill them; the simulator
        # ``ShardingEngine`` holds for its whole lifetime (plan scoring
        # and reshard) must not, so the engine-side callers use the
        # memo-free entry points (``device_compute_costs``,
        # ``plan_cost``, ``plan_costs_batch``).  Both are disabled
        # alongside the cost cache so the "w/o caching" ablation
        # measures a genuinely memo-free search.
        self._single_cost_by_uid: dict[str, float] = {}
        self._plan_cost_by_key: dict[
            tuple[tuple[str, ...], ...], PlanCost
        ] = {}

    @property
    def num_devices(self) -> int:
        return self.models.num_devices

    @property
    def featurizer(self) -> TableFeaturizer:
        """The bundle's featurizer (row cache shared with the search)."""
        return self.models.featurizer

    # ------------------------------------------------------------------
    # computation-cost prediction (cached)
    # ------------------------------------------------------------------

    def device_compute_costs(
        self, table_sets: Sequence[Sequence[TableConfig]]
    ) -> list[float]:
        """Batched, cached prediction over several device table sets.

        Every set is looked up on its own, so a set repeated inside one
        call counts one miss per occurrence (no in-call dedupe, unlike
        :meth:`device_compute_costs_batch`).  Bank row ids are built for
        the misses only.
        """
        costs: list[float | None] = []
        missing_indices: list[int] = []
        missing_keys: list[tuple[str, ...]] = []
        for i, tables in enumerate(table_sets):
            if len(tables) == 0:
                costs.append(0.0)
                continue
            key = table_set_key(tables)
            cached = self.cache.get(key)
            costs.append(cached)
            if cached is None:
                missing_indices.append(i)
                missing_keys.append(key)
        if missing_indices:
            row_indices = self.featurizer.row_indices
            ids = [row_indices(table_sets[i]) for i in missing_indices]
            self._predict_missing(
                costs,
                missing_indices,
                missing_keys,
                np.concatenate(ids),
                [len(a) for a in ids],
            )
        return [float(c) for c in costs]  # type: ignore[arg-type]

    def device_compute_costs_batch(
        self,
        entries: Sequence[tuple[tuple[str, ...], Sequence[int], int | None]],
    ) -> list[float]:
        """Frontier-level batched predictions from bank row ids.

        The lockstep search enumerates every candidate placement of a
        whole grid pass / beam frontier into ``entries`` and this method
        assembles **one** flat feature matrix — a single fancy-index
        gather from the featurizer bank — and makes a single
        ``predict_rows`` call for all cache misses.

        Args:
            entries: per candidate set, a triple of

                - its canonical :func:`~repro.data.table.table_set_key`,
                - the device's feature-bank row ids *in placement
                  order*, and
                - optionally one more row id, logically appended — the
                  candidate table being scored.

        Duplicate missing keys inside one call are predicted once and
        fanned out (recorded as external cache hits — scoring the
        candidates one at a time would have cache-served the repeats);
        with the cache disabled every entry is predicted, keeping the
        "w/o caching" ablation honest about its prediction volume.
        Values are bit-identical to :meth:`device_compute_costs`: same
        miss tail, same chunk-stable kernel.
        """
        costs: list[float | None] = []
        missing_indices: list[int] = []
        missing_keys: list[tuple[str, ...]] = []
        first_missing: dict[tuple[str, ...], int] | None = (
            {} if self.cache.enabled else None
        )
        dup_serves: list[tuple[int, int]] = []
        for i, (key, base_ids, extra_id) in enumerate(entries):
            if not base_ids and extra_id is None:
                costs.append(0.0)
                continue
            if first_missing is not None:
                j = first_missing.get(key)
                if j is not None:
                    costs.append(None)
                    dup_serves.append((i, j))
                    continue
            cached = self.cache.get(key)
            costs.append(cached)
            if cached is None:
                missing_indices.append(i)
                missing_keys.append(key)
                if first_missing is not None:
                    first_missing[key] = i
        if missing_indices:
            flat_ids: list[int] = []
            lengths: list[int] = []
            for i in missing_indices:
                _, base_ids, extra_id = entries[i]
                flat_ids.extend(base_ids)
                n = len(base_ids)
                if extra_id is not None:
                    flat_ids.append(extra_id)
                    n += 1
                lengths.append(n)
            self._predict_missing(
                costs, missing_indices, missing_keys, flat_ids, lengths
            )
            if self.profile is not None:
                self.profile.observe("predict_rows_per_batch", len(flat_ids))
                self.profile.observe("predict_sets_per_batch", len(lengths))
        if dup_serves:
            for i, j in dup_serves:
                costs[i] = costs[j]
            self.cache.record_external_hits(len(dup_serves))
            if self.profile is not None:
                self.profile.count("batch_dedup_hits", len(dup_serves))
        return costs  # type: ignore[return-value]

    def _predict_missing(
        self,
        costs: list[float | None],
        missing_indices: Sequence[int],
        missing_keys: Sequence[tuple[str, ...]],
        flat_ids: Sequence[int] | np.ndarray,
        lengths: Sequence[int],
    ) -> None:
        """Shared miss tail of both set-scoring entry points: one bank
        gather, one ``predict_rows`` forward, then floor, cache, fill and
        count.

        ``flat_ids`` concatenates the bank row ids of the missing sets
        (``lengths[k]`` ids for ``missing_indices[k]``).
        """
        rows_matrix = self.featurizer.gather(
            np.asarray(flat_ids, dtype=np.intp)
        )
        segments = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        predictions = self.models.compute.predict_rows(
            rows_matrix, segments, len(lengths)
        )
        # The true cost is positive; a tiny floor also keeps greedy
        # comparisons meaningful when the model extrapolates low.
        predictions = np.maximum(predictions, 1e-3)
        for i, key, value in zip(missing_indices, missing_keys, predictions):
            self.cache.put(key, float(value))
            costs[i] = float(value)
        if self.profile is not None:
            self.profile.count("predict_batches")
            self.profile.count("predicted_sets", len(missing_indices))

    def single_table_costs(
        self, tables: Sequence[TableConfig]
    ) -> np.ndarray:
        """Predicted isolated cost of each table (used for sorting and
        for the beam search's "top-N costly" candidates).

        Memoized per table ``uid`` for this simulator's lifetime: the
        beam search ranks candidates of near-identical table lists on
        every expansion, so repeat lookups skip the cost cache's key
        construction entirely.  Memo hits are recorded as cache hits
        (:meth:`~repro.core.cache.CostCache.record_external_hits`) to
        keep hit-rate diagnostics comparable.
        """
        memo = self._single_cost_by_uid if self.cache.enabled else None
        out = np.empty(len(tables), dtype=np.float64)
        pending_indices: list[int] = []
        pending_tables: list[TableConfig] = []
        for i, table in enumerate(tables):
            if memo is not None:
                cost = memo.get(table.uid)
                if cost is not None:
                    out[i] = cost
                    continue
            pending_indices.append(i)
            pending_tables.append(table)
        if pending_indices:
            costs = self.device_compute_costs([[t] for t in pending_tables])
            for i, table, cost in zip(pending_indices, pending_tables, costs):
                out[i] = cost
                if memo is not None:
                    memo[table.uid] = cost
        served = len(tables) - len(pending_indices)
        if served:
            self.cache.record_external_hits(served)
            if self.profile is not None:
                self.profile.count("single_cost_memo_hits", served)
        return out

    # ------------------------------------------------------------------
    # full plan cost
    # ------------------------------------------------------------------

    def plan_cost(
        self, per_device_tables: Sequence[Sequence[TableConfig]]
    ) -> PlanCost:
        """Simulated cost breakdown of a placement ``f(c, t)``."""
        if len(per_device_tables) != self.num_devices:
            raise ValueError(
                f"placement has {len(per_device_tables)} devices, models are "
                f"for {self.num_devices}"
            )
        compute = self.device_compute_costs(per_device_tables)
        dims = [sum(t.dim for t in dev) for dev in per_device_tables]
        return self._comm_breakdowns([compute], [dims])[0]

    def plan_costs_keyed_batch(
        self,
        items: Sequence[
            tuple[
                Sequence[Sequence[str]],
                Sequence[Sequence[int]],
                Sequence[int],
            ]
        ],
    ) -> list[PlanCost]:
        """Batched :meth:`plan_cost` over many placements, memoized on
        the exact placement.

        The lockstep search finalizes every surviving grid pass / beam
        frontier member at once: placement-memo lookups run first, and
        the remaining placements are scored by one
        :meth:`plan_costs_batch` call.  Adjacent grid points frequently
        converge to the same assignment; the memo (keyed on the ordered
        tuple of per-device canonical keys, which fully determines the
        breakdown) serves those repeats, and records the compute
        lookups it skips as cache hits to keep hit-rate diagnostics
        comparable.  Breakdowns are bit-identical to :meth:`plan_cost`
        on the same placement (same chunk-stable kernels).  Only called
        with an enabled cost cache; the "w/o caching" ablation finalizes
        through :meth:`plan_cost`.

        Args:
            items: per placement, ``(device_keys, device_row_ids,
                device_dims)`` with the featurizer-bank row ids of each
                device's tables in placement order.
        """
        out: list[PlanCost | None] = [None] * len(items)
        pending: list[int] = []
        pending_keys: list[tuple[tuple[str, ...], ...]] = []
        first_pending: dict[tuple[tuple[str, ...], ...], int] = {}
        dup_serves: list[tuple[int, int]] = []
        for i, (device_keys, _, _) in enumerate(items):
            if len(device_keys) != self.num_devices:
                raise ValueError(
                    f"placement has {len(device_keys)} devices, models are "
                    f"for {self.num_devices}"
                )
            placement_key = tuple(tuple(k) for k in device_keys)
            hit = self._plan_cost_by_key.get(placement_key)
            if hit is not None:
                nonempty = sum(1 for k in placement_key if k)
                if nonempty:
                    self.cache.record_external_hits(nonempty)
                if self.profile is not None:
                    self.profile.count("plan_cost_memo_hits")
                out[i] = hit
                continue
            j = first_pending.get(placement_key)
            if j is not None:
                # Same placement appears twice before it is memoized;
                # one-at-a-time scoring would memo-serve the second call.
                nonempty = sum(1 for k in placement_key if k)
                if nonempty:
                    self.cache.record_external_hits(nonempty)
                if self.profile is not None:
                    self.profile.count("plan_cost_memo_hits")
                dup_serves.append((i, j))
                continue
            first_pending[placement_key] = i
            pending.append(i)
            pending_keys.append(placement_key)
        if pending:
            breakdowns = self.plan_costs_batch(
                [
                    (placement_key, items[i][1], items[i][2])
                    for i, placement_key in zip(pending, pending_keys)
                ]
            )
            for i, placement_key, breakdown in zip(
                pending, pending_keys, breakdowns
            ):
                self._plan_cost_by_key[placement_key] = breakdown
                out[i] = breakdown
        for i, j in dup_serves:
            out[i] = out[j]
        return out  # type: ignore[return-value]

    def plan_costs_batch(
        self,
        items: Sequence[
            tuple[
                Sequence[tuple[str, ...]],
                Sequence[Sequence[int]],
                Sequence[int],
            ]
        ],
    ) -> list[PlanCost]:
        """Batched :meth:`plan_cost` over many placements, with no
        placement memo.

        Every placement's device sets flow through **one**
        :meth:`device_compute_costs_batch` call and both communication
        models score all placements in one ``predict_batch`` each.
        Breakdowns are bit-identical to :meth:`plan_cost` on the same
        placement (same chunk-stable kernels).  Nothing outlives the
        call except cost-cache entries, so callers that score many
        one-off placements (the reshard refine's neighbourhoods) do not
        grow simulator state.

        Args:
            items: per placement, ``(device_keys, device_row_ids,
                device_dims)``: each device's canonical
                :func:`~repro.data.table.table_set_key`, the
                featurizer-bank row ids of its tables (in any order: a
                set's prediction does not depend on its row order), and
                its summed table dimension.
        """
        if not items:
            return []
        d = self.num_devices
        entries: list[tuple[tuple[str, ...], Sequence[int], int | None]] = []
        for device_keys, device_row_ids, _ in items:
            if len(device_keys) != d:
                raise ValueError(
                    f"placement has {len(device_keys)} devices, models are "
                    f"for {d}"
                )
            entries.extend(
                (key, row_ids, None)
                for key, row_ids in zip(device_keys, device_row_ids)
            )
        flat_compute = self.device_compute_costs_batch(entries)
        return self._comm_breakdowns(
            [flat_compute[n * d : (n + 1) * d] for n in range(len(items))],
            [list(dims) for _, _, dims in items],
        )

    def _comm_breakdowns(
        self,
        computes: Sequence[Sequence[float]],
        dims_list: Sequence[Sequence[int]],
    ) -> list[PlanCost]:
        """Attach communication costs to per-device compute predictions:
        one stacked forward per direction for all placements
        (chunk-stable, so each row equals its single-placement
        prediction bitwise)."""
        rows = np.empty(
            (len(computes), 2 * self.num_devices), dtype=np.float64
        )
        for n, (compute, dims) in enumerate(zip(computes, dims_list)):
            # Compute imbalance is what skews collective starts; only the
            # relative skew matters, so anchor at zero (the comm models
            # are trained on zero-anchored skews).
            min_compute = min(compute)
            starts = [c - min_compute for c in compute]
            rows[n] = comm_features(dims, starts, self.models.batch_size)
        fwd = np.maximum(self.models.forward_comm.predict_batch(rows), 0.0)
        bwd = np.maximum(self.models.backward_comm.predict_batch(rows), 0.0)
        return [
            PlanCost(
                compute_ms=tuple(compute),
                fwd_comm_ms=tuple(float(x) for x in fwd[n]),
                bwd_comm_ms=tuple(float(x) for x in bwd[n]),
            )
            for n, compute in enumerate(computes)
        ]
