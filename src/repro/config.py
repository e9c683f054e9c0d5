"""Global configuration objects for the NeuroShard reproduction.

Every experiment in the paper is parameterized by a handful of knobs: the
number of GPUs, per-GPU memory budget, the table-dimension grid, the search
hyperparameters (N, K, L, M from Section 3.3) and the data-collection sizes
(Section 4, "Implementation details").  This module centralizes those knobs
in frozen dataclasses so an experiment is fully described by a config value
plus a seed.

All randomness in the repository flows through explicit
``numpy.random.Generator`` objects derived from integer seeds; no module
touches the global NumPy random state.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any, Tuple

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "DIMENSION_GRID",
    "SearchConfig",
    "CollectionConfig",
    "TrainConfig",
    "ClusterConfig",
    "TaskConfig",
    "ExperimentConfig",
    "rng_from_seed",
    "spawn_rngs",
]

#: Seed used by every example / benchmark unless overridden.
DEFAULT_SEED = 2023

#: The table-dimension grid used throughout the paper: augmentation
#: dimensions, task dimension sampling and column-wise sharding all draw
#: from {4, 8, 16, 32, 64, 128} (Section 4, "Implementation details").
DIMENSION_GRID: Tuple[int, ...] = (4, 8, 16, 32, 64, 128)


def rng_from_seed(seed: int | np.random.Generator) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator and returns it unchanged so that call
    sites can be agnostic about whether they received a seed or a stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one integer seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so streams are
    statistically independent and stable across platforms.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters of the online search (Section 3.3).

    Attributes:
        top_n: ``N`` — number of top-costly and top-largest candidate tables
            considered per beam-search expansion.
        beam_width: ``K`` — number of column-wise plans kept per iteration.
        max_steps: ``L`` — number of column-wise sharding steps (outer loop).
        grid_points: ``M`` — number of max-device-dimension values tried by
            the greedy grid search (inner loop).
        grid_end_factor: ``Me = grid_end_factor * Ms`` where ``Ms`` is the
            average device dimension.  The paper fixes this to 1.5.
        use_beam_search: disable to reproduce the "w/o beam search"
            ablation row of Table 3 (column-wise sharding skipped).
        use_grid_search: disable to reproduce "w/o greedy grid search"
            (the max-dimension constraint is dropped; pure greedy).
        use_cache: disable to reproduce "w/o caching".
    """

    top_n: int = 10
    beam_width: int = 3
    max_steps: int = 10
    grid_points: int = 11
    grid_end_factor: float = 1.5
    use_beam_search: bool = True
    use_grid_search: bool = True
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")
        if self.grid_end_factor < 1.0:
            raise ValueError(
                f"grid_end_factor must be >= 1.0, got {self.grid_end_factor}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view of the knobs (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchConfig":
        """Build a validated config from a plain mapping.

        Unlike ``SearchConfig(**data)`` this rejects unknown keys with a
        readable error instead of a ``TypeError``; range checks run in
        ``__post_init__`` either way, so an out-of-range knob arriving
        from JSON fails as loudly as one passed to the constructor.
        """
        # The retired ``use_batch_scoring`` knob (batched scoring is the
        # only search route) is dropped, so tuned profiles and deployment
        # metadata saved while it existed still load.
        data = {k: v for k, v in data.items() if k != "use_batch_scoring"}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SearchConfig knobs {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def coerce(cls, value: "SearchConfig | Mapping[str, Any]") -> "SearchConfig":
        """Normalize a ``search`` argument to a validated ``SearchConfig``.

        Every surface that accepts search knobs as data — engine options,
        HTTP request payloads, stored profiles, CLI-built dicts — funnels
        through here, so a mapping is always re-validated by the
        constructor instead of riding along as an unchecked dict.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(
            "search must be a SearchConfig or a mapping of knobs, got "
            f"{type(value).__name__}"
        )

    def with_ablation(self, name: str) -> "SearchConfig":
        """Return a copy with one mechanism disabled (Table 3 rows)."""
        if name == "beam_search":
            return replace(self, use_beam_search=False)
        if name == "grid_search":
            return replace(self, use_grid_search=False)
        if name == "caching":
            return replace(self, use_cache=False)
        raise ValueError(
            f"unknown ablation {name!r}; expected one of "
            "'beam_search', 'grid_search', 'caching'"
        )


@dataclass(frozen=True)
class CollectionConfig:
    """Micro-benchmark data-collection parameters (Sections 3.1 and 4).

    The paper collects 100K samples per cost model; the default here is much
    smaller so tests and examples run in seconds.  Figure 8 shows ~100
    samples already yield near-optimal sharding, which our benchmarks
    confirm.

    Attributes:
        num_compute_samples: table combinations benchmarked for the
            computation cost model.
        num_comm_samples: table placements benchmarked for the
            communication cost models.
        min_tables: minimum tables per combination (paper: 1).
        max_tables: maximum tables per combination (paper: 15).
        min_placement_tables / max_placement_tables: table-count range for
            placement generation (paper: 10-60 for 4 GPUs, 20-120 for 8).
        max_start_ms: communication starting timestamps are sampled
            uniformly in [0, max_start_ms] (paper: 20 ms).
        augment_dims: augmentation dimension grid (Algorithm 3).
    """

    num_compute_samples: int = 2000
    num_comm_samples: int = 2000
    min_tables: int = 1
    max_tables: int = 15
    min_placement_tables: int = 10
    max_placement_tables: int = 60
    max_start_ms: float = 20.0
    augment_dims: Tuple[int, ...] = DIMENSION_GRID

    def __post_init__(self) -> None:
        if not 1 <= self.min_tables <= self.max_tables:
            raise ValueError(
                "need 1 <= min_tables <= max_tables, got "
                f"{self.min_tables}..{self.max_tables}"
            )
        if not 1 <= self.min_placement_tables <= self.max_placement_tables:
            raise ValueError(
                "need 1 <= min_placement_tables <= max_placement_tables, got "
                f"{self.min_placement_tables}..{self.max_placement_tables}"
            )
        if self.max_start_ms < 0:
            raise ValueError(f"max_start_ms must be >= 0, got {self.max_start_ms}")
        if len(self.augment_dims) == 0:
            raise ValueError("augment_dims must not be empty")
        for d in self.augment_dims:
            if d < 4 or d % 4 != 0:
                raise ValueError(
                    f"augment dimension {d} invalid: FBGEMM requires dims "
                    "divisible by 4 (Section 3.3)"
                )

    def for_devices(self, num_devices: int) -> "CollectionConfig":
        """Scale the placement table-count range with the device count.

        The paper uses 10-60 tables for 4 GPUs and 20-120 for 8 GPUs, i.e.
        the range scales linearly with ``num_devices / 4``.
        """
        scale = num_devices / 4.0
        return replace(
            self,
            min_placement_tables=max(1, int(round(10 * scale))),
            max_placement_tables=max(1, int(round(60 * scale))),
        )


@dataclass(frozen=True)
class TrainConfig:
    """Cost-model training hyperparameters (Appendix F).

    Paper values: batch size 512, Adam lr 1e-3, 1000 epochs, 80/10/10
    train/valid/test split, keep the best-validation checkpoint.  Defaults
    are reduced for fast iteration; benchmarks override where fidelity
    matters.
    """

    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 60
    train_frac: float = 0.8
    valid_frac: float = 0.1
    weight_decay: float = 0.0
    cosine_decay: bool = True
    log_every: int = 0  # 0 disables epoch logging

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.train_frac < 1 or not 0 < self.valid_frac < 1:
            raise ValueError("train_frac and valid_frac must be in (0, 1)")
        if self.train_frac + self.valid_frac >= 1:
            raise ValueError(
                "train_frac + valid_frac must leave room for a test split, got "
                f"{self.train_frac} + {self.valid_frac}"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated training cluster shape.

    Attributes:
        num_devices: number of GPUs tables are sharded onto.
        memory_bytes: per-device memory budget for embedding tables.  The
            benchmark tasks use 4 GB (Section 4, "Datasets").
        batch_size: per-iteration mini-batch size; determines all-to-all
            message sizes (Section 2.2).
    """

    num_devices: int = 4
    memory_bytes: int = 4 * 1024**3
    batch_size: int = 65536

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices}")
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be > 0, got {self.memory_bytes}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class TaskConfig:
    """Sharding-task sampling parameters (paper Table 5).

    A task draws ``num_tables`` uniformly from
    [min_tables, max_tables] out of the table pool, then assigns each table
    a dimension drawn uniformly from ``dim_choices``.
    """

    num_devices: int = 4
    max_dim: int = 128
    min_tables: int = 10
    max_tables: int = 60
    memory_bytes: int = 4 * 1024**3

    def __post_init__(self) -> None:
        if self.max_dim not in DIMENSION_GRID:
            raise ValueError(
                f"max_dim {self.max_dim} not in dimension grid {DIMENSION_GRID}"
            )
        if not 1 <= self.min_tables <= self.max_tables:
            raise ValueError(
                "need 1 <= min_tables <= max_tables, got "
                f"{self.min_tables}..{self.max_tables}"
            )

    @property
    def dim_choices(self) -> Tuple[int, ...]:
        """Dimensions a task samples from: {4, 8, ..., max_dim}.

        Mirrors the paper's {4, 8, ..., 2^j} with 2^j = max_dim, except that
        (as in the paper's Table 5) the grid skips 32 when max_dim is 64 or
        128 — i.e. the published rows are "4, 8, 16, 64" and
        "4, 8, 16, 64, 128".  We reproduce the published rows exactly.
        """
        if self.max_dim in (64, 128):
            return tuple(d for d in DIMENSION_GRID if d <= self.max_dim and d != 32)
        return tuple(d for d in DIMENSION_GRID if d <= self.max_dim)

    @classmethod
    def paper_grid(cls) -> list["TaskConfig"]:
        """The 12 task settings of paper Table 5 (4 & 8 GPUs × 6 dims)."""
        grid = []
        for num_devices in (4, 8):
            lo, hi = (10, 60) if num_devices == 4 else (20, 120)
            for max_dim in DIMENSION_GRID:
                grid.append(
                    cls(
                        num_devices=num_devices,
                        max_dim=max_dim,
                        min_tables=lo,
                        max_tables=hi,
                    )
                )
        return grid

    def cluster(self, batch_size: int = 65536) -> ClusterConfig:
        """Cluster config matching this task's device count and memory."""
        return ClusterConfig(
            num_devices=self.num_devices,
            memory_bytes=self.memory_bytes,
            batch_size=batch_size,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of everything an end-to-end experiment needs."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    collection: CollectionConfig = field(default_factory=CollectionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    seed: int = DEFAULT_SEED
