"""Cost-model feature ablation (extension experiment).

Section 2.1 argues the computation cost depends on four factor groups —
dimension, hash size, pooling factor and the indices distribution.  This
module ablates feature groups from the featurizer so a benchmark can
train otherwise-identical cost models and quantify each group's
contribution to accuracy (``benchmarks/test_ext_ablations.py``, listed
under "Where each paper table / figure is produced" in
docs/architecture.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.costmodel.features import TableFeaturizer
from repro.data.table import TableConfig

__all__ = ["FEATURE_GROUPS", "AblatedFeaturizer"]

#: Feature-vector indices by semantic group (see TableFeaturizer docs).
FEATURE_GROUPS: dict[str, tuple[int, ...]] = {
    "dimension": (0, 1),
    "hash_size": (2,),
    "pooling": (3, 4, 5),
    "distribution": (6, 7, 8, 10, 11, 12),
    "size": (9,),
    "interaction": (13,),
}


class AblatedFeaturizer:
    """A :class:`TableFeaturizer` with selected feature groups zeroed.

    Zeroing (rather than removing) keeps the model architecture
    identical across ablations, so accuracy differences are attributable
    to information content alone.  It exposes the feature-bank API
    (:meth:`row_indices` / :meth:`gather`), so a bundle trained on it
    searches on the same batched route as any other.

    Args:
        batch_size: deployment batch size.
        drop_groups: names from :data:`FEATURE_GROUPS` to zero out.
    """

    def __init__(self, batch_size: int, drop_groups: Sequence[str]) -> None:
        unknown = set(drop_groups) - set(FEATURE_GROUPS)
        if unknown:
            raise ValueError(
                f"unknown feature groups {sorted(unknown)}; expected "
                f"{sorted(FEATURE_GROUPS)}"
            )
        self._inner = TableFeaturizer(batch_size)
        self.drop_groups = tuple(drop_groups)
        self._mask = np.ones(self._inner.num_features)
        for group in drop_groups:
            for index in FEATURE_GROUPS[group]:
                self._mask[index] = 0.0

    @property
    def batch_size(self) -> int:
        return self._inner.batch_size

    @property
    def num_features(self) -> int:
        return self._inner.num_features

    def features(self, table: TableConfig) -> np.ndarray:
        return self._inner.features(table) * self._mask

    def row_indices(self, tables: Sequence[TableConfig]) -> np.ndarray:
        """Bank row ids of the wrapped featurizer (unmasked rows)."""
        return self._inner.row_indices(tables)

    def gather(self, flat_row_ids: np.ndarray) -> np.ndarray:
        """Masked rows: the ablation is a column mask over the gather."""
        return self._inner.gather(flat_row_ids) * self._mask

    def features_matrix(self, tables: Sequence[TableConfig]) -> np.ndarray:
        return self._inner.features_matrix(tables) * self._mask

    def clear_cache(self) -> None:
        self._inner.clear_cache()
