"""Tests for repro.costmodel.features."""

import numpy as np
import pytest

from repro.costmodel import TableFeaturizer
from repro.data import synthesize_table_pool


@pytest.fixture(scope="module")
def tables():
    return synthesize_table_pool(num_tables=20, seed=8)


@pytest.fixture()
def featurizer() -> TableFeaturizer:
    return TableFeaturizer(batch_size=65536)


class TestFeaturizer:
    def test_vector_width(self, featurizer, tables):
        vec = featurizer.features(tables[0])
        assert vec.shape == (featurizer.num_features,)

    def test_all_finite(self, featurizer, tables):
        for t in tables:
            assert np.all(np.isfinite(featurizer.features(t)))

    def test_matrix_stacking(self, featurizer, tables):
        mat = featurizer.features_matrix(tables[:5])
        assert mat.shape == (5, featurizer.num_features)
        assert np.allclose(mat[2], featurizer.features(tables[2]))

    def test_empty_matrix(self, featurizer):
        mat = featurizer.features_matrix([])
        assert mat.shape == (0, featurizer.num_features)

    def test_dim_affects_features(self, featurizer, tables):
        t = tables[0]
        a = featurizer.features(t.with_dim(8))
        b = featurizer.features(t.with_dim(128))
        assert not np.allclose(a, b)

    def test_cache_returns_same_vector(self, featurizer, tables):
        a = featurizer.features(tables[0])
        b = featurizer.features(tables[0])
        assert a is b  # cached object identity

    def test_clear_cache(self, featurizer, tables):
        a = featurizer.features(tables[0])
        featurizer.clear_cache()
        b = featurizer.features(tables[0])
        assert a is not b
        assert np.allclose(a, b)

    def test_batch_size_changes_features(self, tables):
        small = TableFeaturizer(batch_size=1024).features(tables[0])
        large = TableFeaturizer(batch_size=65536).features(tables[0])
        assert not np.allclose(small, large)

    def test_constant_count_feature_is_last(self, featurizer, tables):
        vec = featurizer.features(tables[0])
        assert vec[-1] == 1.0

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            TableFeaturizer(batch_size=0)

    def test_features_scale_reasonably(self, featurizer, tables):
        """Features should stay O(10) so the MLP needs no normalizer."""
        mats = featurizer.features_matrix(tables)
        assert np.abs(mats).max() < 50


class TestCacheCoherence:
    """Interned features vs in-place table mutation.

    ``bytes_per_element`` feeds ``size_bytes`` (feature 9) but is absent
    from the ``uid`` the bank interns by — the one way a table can change
    cost behaviour under a reused uid.  ``clear_cache()`` is the
    invalidation contract: it must drop the preallocated bank itself, so
    row ids issued before the mutation fail loudly instead of silently
    resolving against stale (or re-interned) rows.
    """

    def test_mid_search_mutation_never_serves_stale_features(self, tables):
        featurizer = TableFeaturizer(batch_size=65536)
        victim = tables[0]
        # A search in flight: row ids handed out, matrices materialized.
        stale_ids = featurizer.row_indices(tables[:6])
        before = featurizer.features_matrix(tables[:6]).copy()
        old_bank = featurizer.bank

        # The table changes under the same uid mid-search.
        object.__setattr__(victim, "bytes_per_element", 8)
        try:
            featurizer.clear_cache()
            # The bank is replaced, not merely re-keyed: stale ids must
            # not alias rows of any buffer, old or new.
            assert featurizer.bank is not old_bank
            assert featurizer.num_interned == 0
            with pytest.raises(IndexError, match="stale feature row id"):
                featurizer.gather(stale_ids)

            fresh = featurizer.features_matrix(tables[:6])
            # The mutated table featurizes differently despite the
            # unchanged uid — the gap clear_cache() exists to close.
            assert not np.allclose(fresh[0], before[0])
            # Untouched tables re-featurize bit-identically.
            assert np.array_equal(fresh[1:], before[1:])
            # Re-issued ids are live again and serve the fresh rows.
            assert np.array_equal(
                featurizer.gather(featurizer.row_indices(tables[:6])), fresh
            )
        finally:
            object.__setattr__(victim, "bytes_per_element", 4)

    def test_stale_ids_fail_even_after_partial_reintern(self, tables):
        """Re-interning fewer tables than before must still reject the
        out-of-range tail of a stale id list."""
        featurizer = TableFeaturizer(batch_size=65536)
        stale_ids = featurizer.row_indices(tables[:6])
        featurizer.clear_cache()
        featurizer.row_indices(tables[:3])  # new epoch, 3 live rows
        with pytest.raises(IndexError, match="stale feature row id"):
            featurizer.gather(stale_ids)


class TestConcurrentInterning:
    def test_threads_interning_one_bank_never_publish_dead_ids(self):
        """An engine's threads share one bundle featurizer: ids handed to
        any thread must gather their own rows, never a stale-id error or
        another table's features."""
        import sys
        import threading

        pool = synthesize_table_pool(num_tables=300, seed=5)
        featurizer = TableFeaturizer(batch_size=65536)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            order = np.random.default_rng(seed).permutation(len(pool))
            try:
                for start in range(0, len(order), 3):
                    chunk = [pool[i] for i in order[start : start + 3]]
                    rows = featurizer.gather(featurizer.row_indices(chunk))
                    for table, row in zip(chunk, rows):
                        assert np.array_equal(
                            row, featurizer._compute_features(table)
                        )
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert featurizer.num_interned == len({t.uid for t in pool})
