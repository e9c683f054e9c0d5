"""Per-table feature extraction for the computation cost model.

Section 2.1 identifies the cost-relevant factors: dimension, hash size,
pooling factor and the indices distribution (access skew, unique rows per
batch).  Following AutoShard (Zha et al., 2022a), each table is encoded as
a fixed vector of those factors plus distribution summaries; the batch
size is fixed per deployment, so batch-dependent quantities (indices per
batch, expected unique rows) are features, not inputs.

All heavy-tailed quantities enter in log scale and are shifted/scaled to
O(1) magnitudes so the MLP trains without per-dataset normalization
statistics (which would complicate the "once-for-all" deployment story —
a pre-trained model must featurize unseen tables identically).

**Feature bank.**  Feature rows live in one preallocated 2-D array (the
*bank*), grown geometrically and indexed by an interned per-``uid`` row
id.  The batched search keeps per-device state as lists of those integer
row ids and materializes a whole grid pass / beam frontier of candidate
sets with a single fancy-index gather (:meth:`TableFeaturizer.gather`)
instead of re-stacking Python lists of vectors per candidate.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.data.table import TableConfig

__all__ = ["TableFeaturizer"]

#: Concentration quantiles summarizing the access distribution: the mass
#: hitting the hottest 0.1% / 1% / 10% of rows.
_CONCENTRATION_FRACTIONS = (0.001, 0.01, 0.1)


class TableFeaturizer:
    """Maps a :class:`TableConfig` to the cost model's feature vector.

    Args:
        batch_size: the deployment batch size (fixed per trained model;
            a model trained for one batch size must be re-trained for
            another, like the paper's per-setting models in Table 2).

    The feature layout (``num_features`` wide) is::

        0  log2(dim)                      5  log10(indices per batch)
        1  dim / 128                      6  unique fraction of the batch
        2  log10(hash size)               7  log10(expected unique rows)
        3  log10(pooling factor + 1)      8  zipf alpha
        4  pooling factor / 100           9  log10(table bytes)
        10..12  access concentration at the hottest 0.1% / 1% / 10%
        13 dim * pooling / 1000  (lookup workload, the "lookup-based"
           greedy heuristic, as a learned-model input)
        14 constant 1.0 — sums to the table count under the pooling,
           letting the head model the fused-kernel speedup, which is a
           function of how many tables are fused (Observation 2)

    Feature rows are interned per table ``uid`` into a preallocated bank
    (the search queries the same tables thousands of times); callers on
    the hot path hold integer row ids (:meth:`row_index`,
    :meth:`row_indices`) and gather flat candidate matrices straight
    from the bank.
    """

    NUM_FEATURES = 15
    _INITIAL_CAPACITY = 64

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self._bank = np.empty(
            (self._INITIAL_CAPACITY, self.NUM_FEATURES), dtype=np.float64
        )
        self._row_by_uid: dict[str, int] = {}
        self._num_rows = 0
        # Serializes interning: one bundle's featurizer is shared by every
        # thread of an engine, and two threads claiming the same row id
        # would publish ids past the live region.
        self._intern_lock = threading.Lock()
        # Per-uid view objects into the bank, so repeated features()
        # calls return the same array object (callers rely on identity
        # for their own caching).  Views from before a geometric grow
        # keep the retired buffer alive — values stay correct because
        # interned rows are immutable until clear_cache().
        self._views: dict[str, np.ndarray] = {}

    @property
    def num_features(self) -> int:
        return self.NUM_FEATURES

    @property
    def bank(self) -> np.ndarray:
        """The preallocated feature bank; rows ``< num_interned`` are live."""
        return self._bank

    @property
    def num_interned(self) -> int:
        """Number of live rows in :attr:`bank`."""
        return self._num_rows

    def _compute_features(self, table: TableConfig) -> np.ndarray:
        b = self.batch_size
        indices = table.indices_per_batch(b)
        unique = table.expected_unique_rows(b)
        vec = np.array(
            [
                np.log2(table.dim),
                table.dim / 128.0,
                np.log10(table.hash_size),
                np.log10(table.pooling_factor + 1.0),
                table.pooling_factor / 100.0,
                np.log10(indices),
                unique / indices,
                np.log10(unique + 1.0),
                table.zipf_alpha,
                np.log10(table.size_bytes),
                *(
                    table.access_concentration(f)
                    for f in _CONCENTRATION_FRACTIONS
                ),
                table.dim * table.pooling_factor / 1000.0,
                1.0,
            ],
            dtype=np.float64,
        )
        if vec.shape != (self.NUM_FEATURES,):
            raise AssertionError(
                f"feature layout drifted: got {vec.shape}, "
                f"expected ({self.NUM_FEATURES},)"
            )
        return vec

    def row_index(self, table: TableConfig) -> int:
        """Bank row id of ``table``, interning its features on first use."""
        idx = self._row_by_uid.get(table.uid)
        if idx is not None:
            return idx
        with self._intern_lock:
            idx = self._row_by_uid.get(table.uid)
            if idx is not None:
                return idx
            idx = self._num_rows
            if idx == self._bank.shape[0]:
                # Geometric growth: copy live rows into a fresh buffer
                # twice the size.  Never shrinks, never rebuilds from
                # Python lists, and never writes new rows into a buffer an
                # outstanding view aliases past its live region.
                grown = np.empty(
                    (2 * self._bank.shape[0], self.NUM_FEATURES),
                    dtype=np.float64,
                )
                grown[:idx] = self._bank[:idx]
                self._bank = grown
            self._bank[idx] = self._compute_features(table)
            self._num_rows = idx + 1
            # Publish the id last, so a lock-free reader that finds it
            # can already gather its row.
            self._row_by_uid[table.uid] = idx
        return idx

    def row_indices(self, tables: Sequence[TableConfig]) -> np.ndarray:
        """Bank row ids for a table list (interning as needed)."""
        return np.fromiter(
            (self.row_index(t) for t in tables), dtype=np.intp, count=len(tables)
        )

    def gather(self, flat_row_ids: np.ndarray) -> np.ndarray:
        """Stack bank rows ``[len(flat_row_ids), F]`` by fancy index.

        The batched scoring path concatenates the row-id lists of every
        candidate set in a grid pass / beam frontier and materializes the
        whole flat feature matrix in this one gather.  Ids must be live
        (interned in the current epoch): ids issued before a
        :meth:`clear_cache` are rejected rather than silently resolved
        against re-interned rows.
        """
        flat_row_ids = np.asarray(flat_row_ids)
        if flat_row_ids.size and int(flat_row_ids.max()) >= self._num_rows:
            raise IndexError(
                f"stale feature row id {int(flat_row_ids.max())}: only "
                f"{self._num_rows} rows are interned in the current epoch "
                "(row ids do not survive clear_cache())"
            )
        return self._bank[flat_row_ids]

    def features(self, table: TableConfig) -> np.ndarray:
        """Feature vector of one table (interned; stable object identity)."""
        view = self._views.get(table.uid)
        if view is None:
            view = self._bank[self.row_index(table)]
            self._views[table.uid] = view
        return view

    def features_matrix(self, tables: Sequence[TableConfig]) -> np.ndarray:
        """Stacked feature rows for a table combination ``[T, F]``."""
        if len(tables) == 0:
            return np.zeros((0, self.NUM_FEATURES))
        return self.gather(self.row_indices(tables))

    def clear_cache(self) -> None:
        """Drop every interned row *and* the preallocated bank.

        Replacing the bank (instead of only clearing the uid map) is
        load-bearing: previously handed-out row ids must never resolve
        to stale rows after a :class:`TableConfig` changes under a
        reused ``uid`` — re-interning into a retained buffer would let
        an old id silently alias the old features.  The fresh epoch
        starts at zero live rows, so :meth:`gather` rejects stale ids
        loudly until they are re-interned.
        """
        with self._intern_lock:
            self._row_by_uid.clear()
            self._views.clear()
            self._num_rows = 0
            self._bank = np.empty(
                (self._INITIAL_CAPACITY, self.NUM_FEATURES), dtype=np.float64
            )
