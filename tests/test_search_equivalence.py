"""Equivalence regression: optimized search == frozen reference.

The batched/memoized search (:mod:`repro.core.greedy_grid`,
:mod:`repro.core.beam_search`, the simulator's batch/memo entry points)
is required to return results *identical* to the pre-optimization
implementation preserved in :mod:`repro.core.reference` — same
feasibility, bit-equal costs, same assignment, same column plan, and the
same number of inner-loop evaluations (a trajectory fingerprint).

The suites cover seeded small / medium / split-forcing / infeasible task
mixes, plus the ablation configurations (no grid, no cache) that drive
the alternative code paths, and a full (strategy × cache) matrix
pinning the vectorized batch-scoring kernel cell by cell.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.config import SearchConfig, TaskConfig
from repro.core import (
    CostCache,
    NeuroShardSimulator,
    beam_search,
    greedy_grid_search,
    reference_beam_search,
    reference_greedy_grid_search,
)
from repro.data import generate_tasks
from repro.extensions import AblatedFeaturizer
from repro.hardware.memory import MemoryModel

SMALL_SEARCH = SearchConfig(top_n=3, beam_width=2, max_steps=3, grid_points=4)
MEDIUM_SEARCH = SearchConfig(top_n=4, beam_width=2, max_steps=5, grid_points=6)


def _run_both(bundle, tables, num_devices, memory, search):
    """Run reference and optimized beam search on fresh caches."""
    ref = reference_beam_search(
        list(tables), num_devices,
        NeuroShardSimulator(bundle, CostCache(enabled=search.use_cache)),
        memory, search,
    )
    opt = beam_search(
        list(tables), num_devices,
        NeuroShardSimulator(bundle, CostCache(enabled=search.use_cache)),
        memory, search,
    )
    return ref, opt


def _assert_identical(ref, opt):
    assert opt.feasible == ref.feasible
    assert opt.cost_ms == ref.cost_ms  # bit-equal, no tolerance
    assert opt.evaluations == ref.evaluations
    if ref.plan is None:
        assert opt.plan is None
    else:
        assert opt.plan.column_plan == ref.plan.column_plan
        assert opt.plan.assignment == ref.plan.assignment
        assert opt.plan.num_devices == ref.plan.num_devices


class TestBeamSearchEquivalence:
    def test_small_tasks(self, tiny_bundle, tasks2):
        for task in tasks2:
            memory = MemoryModel(task.memory_bytes)
            ref, opt = _run_both(
                tiny_bundle, task.tables, 2, memory, SMALL_SEARCH
            )
            assert ref.feasible
            _assert_identical(ref, opt)

    def test_medium_tasks(self, tiny_bundle, small_pool):
        cfg = TaskConfig(
            num_devices=2,
            max_dim=64,
            min_tables=10,
            max_tables=16,
            memory_bytes=2 * 1024**3,
        )
        for task in generate_tasks(small_pool, cfg, count=3, seed=41):
            memory = MemoryModel(task.memory_bytes)
            ref, opt = _run_both(
                tiny_bundle, task.tables, 2, memory, MEDIUM_SEARCH
            )
            _assert_identical(ref, opt)

    def test_split_forcing_tasks(self, tiny_bundle, tasks2):
        """Budgets below the largest table force column splits — the
        regime where the plan memo and overflow ranking matter most."""
        for task in tasks2[:3]:
            largest = max(
                t.size_bytes + t.hash_size * 4 for t in task.tables
            )
            memory = MemoryModel(max(int(largest * 0.75), 1))
            ref, opt = _run_both(
                tiny_bundle, task.tables, 2, memory, MEDIUM_SEARCH
            )
            _assert_identical(ref, opt)

    def test_infeasible_tasks(self, tiny_bundle, tasks2):
        memory = MemoryModel(1024)  # nothing fits, ever
        for task in tasks2[:2]:
            ref, opt = _run_both(
                tiny_bundle, task.tables, 2, memory, SMALL_SEARCH
            )
            assert not ref.feasible
            assert opt.cost_ms == math.inf
            _assert_identical(ref, opt)

    @pytest.mark.parametrize("ablation", ["grid_search", "caching"])
    def test_ablation_configs(self, tiny_bundle, tasks2, ablation):
        """The ablated configurations exercise the non-memoized and
        single-pass code paths; equivalence must hold there too."""
        search = MEDIUM_SEARCH.with_ablation(ablation)
        for task in tasks2[:2]:
            memory = MemoryModel(task.memory_bytes)
            ref, opt = _run_both(
                tiny_bundle, task.tables, 2, memory, search
            )
            _assert_identical(ref, opt)


class TestGridSearchEquivalence:
    def test_inner_loop_direct(self, tiny_bundle, tasks2):
        for task in tasks2:
            memory = MemoryModel(task.memory_bytes)
            ref = reference_greedy_grid_search(
                list(task.tables), 2,
                NeuroShardSimulator(tiny_bundle, CostCache()),
                memory, MEDIUM_SEARCH,
            )
            opt = greedy_grid_search(
                list(task.tables), 2,
                NeuroShardSimulator(tiny_bundle, CostCache()),
                memory, MEDIUM_SEARCH,
            )
            assert opt.feasible == ref.feasible
            assert opt.cost_ms == ref.cost_ms
            assert opt.assignment == ref.assignment
            assert opt.max_dim_used == ref.max_dim_used
            assert opt.overflow_bytes == ref.overflow_bytes
            if ref.breakdown is not None:
                assert opt.breakdown.compute_ms == ref.breakdown.compute_ms
                assert opt.breakdown.fwd_comm_ms == ref.breakdown.fwd_comm_ms
                assert opt.breakdown.bwd_comm_ms == ref.breakdown.bwd_comm_ms

    def test_shared_cache_between_runs_is_harmless(self, tiny_bundle, tasks2):
        """Predictions are deterministic, so running the optimized search
        on a cache pre-warmed by the reference changes nothing."""
        task = tasks2[0]
        memory = MemoryModel(task.memory_bytes)
        shared = CostCache()
        simulator = NeuroShardSimulator(tiny_bundle, shared)
        ref = reference_greedy_grid_search(
            list(task.tables), 2, simulator, memory, SMALL_SEARCH
        )
        opt = greedy_grid_search(
            list(task.tables), 2,
            NeuroShardSimulator(tiny_bundle, shared),
            memory, SMALL_SEARCH,
        )
        assert opt.cost_ms == ref.cost_ms
        assert opt.assignment == ref.assignment


class TestAblatedFeaturizerBundle:
    def test_beam_search_matches_reference(self, tiny_bundle, tasks2):
        """A bundle whose featurizer zeroes feature groups searches on the
        batched route (gathering masked bank rows) and still matches the
        reference, which stacks masked per-set matrices, bit for bit."""
        bundle = dataclasses.replace(
            tiny_bundle,
            featurizer=AblatedFeaturizer(
                tiny_bundle.batch_size, ("distribution", "size")
            ),
        )
        task = tasks2[0]
        largest = max(t.size_bytes + t.hash_size * 4 for t in task.tables)
        for memory in (
            MemoryModel(task.memory_bytes),
            MemoryModel(max(int(largest * 0.75), 1)),  # forces splits
        ):
            ref, opt = _run_both(bundle, task.tables, 2, memory, MEDIUM_SEARCH)
            assert ref.feasible
            _assert_identical(ref, opt)


def _config_for(base: SearchConfig, strategy: str, cache: bool):
    """Build the matrix cell's configuration from its coordinates."""
    config = base
    if strategy == "mixed":
        # Beam search over column splits with the inner grid ablated to a
        # single unconstrained greedy pass — the remaining hybrid of the
        # two loops, and the only strategy shape not covered above.
        config = config.with_ablation("grid_search")
    if not cache:
        config = config.with_ablation("caching")
    return config


class TestEquivalenceMatrix:
    """(strategy ∈ greedy/beam/mixed) × (cache on/off).

    Every cell is held to *byte-identical plans and bit-equal costs*
    against the frozen reference: the whole-frontier forward passes
    must not perturb a single low bit, and the cache-off ablation must
    stay honest under batching.
    """

    STRATEGIES = ("greedy", "beam", "mixed")

    def _check(self, bundle, tables, memory, search, strategy):
        if strategy == "greedy":
            ref = reference_greedy_grid_search(
                list(tables), 2,
                NeuroShardSimulator(
                    bundle, CostCache(enabled=search.use_cache)
                ),
                memory, search,
            )
            opt = greedy_grid_search(
                list(tables), 2,
                NeuroShardSimulator(
                    bundle, CostCache(enabled=search.use_cache)
                ),
                memory, search,
            )
            assert opt.feasible == ref.feasible
            assert opt.cost_ms == ref.cost_ms  # bit-equal, no tolerance
            assert opt.assignment == ref.assignment
            assert opt.max_dim_used == ref.max_dim_used
            assert opt.overflow_bytes == ref.overflow_bytes
            if ref.breakdown is not None:
                assert opt.breakdown.compute_ms == ref.breakdown.compute_ms
                assert opt.breakdown.fwd_comm_ms == ref.breakdown.fwd_comm_ms
                assert opt.breakdown.bwd_comm_ms == ref.breakdown.bwd_comm_ms
        else:
            ref, opt = _run_both(bundle, tables, 2, memory, search)
            _assert_identical(ref, opt)

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cell(self, tiny_bundle, tasks2, strategy, cache):
        search = _config_for(SMALL_SEARCH, strategy, cache)
        for task in tasks2[:2]:
            memory = MemoryModel(task.memory_bytes)
            self._check(tiny_bundle, task.tables, memory, search, strategy)

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_split_forcing_cell(
        self, tiny_bundle, tasks2, strategy, cache
    ):
        """Budgets below the largest table force column splits (beam) or
        outright infeasibility (greedy alone) in every cell."""
        search = _config_for(SMALL_SEARCH, strategy, cache)
        task = tasks2[2]
        largest = max(t.size_bytes + t.hash_size * 4 for t in task.tables)
        memory = MemoryModel(max(int(largest * 0.75), 1))
        self._check(tiny_bundle, task.tables, memory, search, strategy)

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_infeasible_cell(self, tiny_bundle, tasks2, strategy, cache):
        """Nothing fits: every cell must agree on (in)feasibility, the
        overflow ranking and the evaluation count."""
        search = _config_for(SMALL_SEARCH, strategy, cache)
        memory = MemoryModel(1024)
        self._check(tiny_bundle, tasks2[4].tables, memory, search, strategy)
