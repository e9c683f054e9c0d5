"""Tests for the production-experiment helpers."""

import pytest

from repro.evaluation.production import _make_production_task


class TestMakeProductionTask:
    def test_shape(self, small_pool):
        task = _make_production_task(
            small_pool,
            num_devices=4,
            num_tables=20,
            memory_bytes=2 * 1024**3,
            seed=0,
        )
        assert task.num_devices == 4
        assert 1 <= task.num_tables <= 20
        # Production tables are large-dimension.
        assert all(t.dim in (64, 128) for t in task.tables)

    def test_respects_aggregate_capacity(self, small_pool):
        memory = 1 * 1024**3
        task = _make_production_task(
            small_pool, num_devices=4, num_tables=30, memory_bytes=memory, seed=1
        )
        assert task.total_size_bytes <= 0.7 * memory * 4

    def test_deterministic(self, small_pool):
        a = _make_production_task(small_pool, 4, 20, 2 * 1024**3, seed=5)
        b = _make_production_task(small_pool, 4, 20, 2 * 1024**3, seed=5)
        assert a == b

    def test_impossible_budget_raises(self, small_pool):
        with pytest.raises(RuntimeError):
            _make_production_task(
                small_pool, num_devices=1, num_tables=5, memory_bytes=1, seed=0
            )

