"""Shared benchmark fixtures.

The benchmarks regenerate every table and figure of the paper's
evaluation (see "Where each paper table / figure is produced" in
docs/architecture.md).  They are scaled down from the paper's sizes
(100K training samples, 100 tasks per setting) so the whole suite
runs in tens of minutes on a laptop; the *shape* of every
result — who wins, by roughly what factor, where methods stop scaling —
is preserved.  Scale knobs:

- ``REPRO_BENCH_SAMPLES``: compute-model training samples (default 8000).
- ``REPRO_BENCH_EPOCHS``: training epochs (default 300).
- ``REPRO_BENCH_TASKS``: tasks per Table 1 setting (default 6).

Pre-trained bundles are cached (and committed) under
``benchmarks/_cache`` keyed by their configuration, so repeated
benchmark runs skip the ~2 minute pre-training.  Pre-training is
deterministic — rebuilding a cache entry under unchanged code reproduces
the bundle bit-for-bit — and because the configuration key alone does
not capture the code, every bundle directory carries a
``code_fingerprint.txt`` hashing the source that determines it
(``repro.costmodel``/``repro.data``/``repro.hardware``/``repro.nn``/
``repro.config``);
a cached bundle whose fingerprint no longer matches is retrained
automatically instead of being served stale.  The hash covers raw
source bytes, so a comment-only edit also invalidates it — deliberately
erring on the side of a spurious retrain, which is cheap and, being
deterministic, reproduces the bundle bit-for-bit (commit the refreshed
fingerprint, nothing else moves).  After a retrain that *does* change
the bundle, rerun the benchmarks so the committed ``results/*.txt`` are
regenerated against it — git will show both moving together.  Each
benchmark writes its paper-style table to ``benchmarks/results/*.txt``
as well as printing it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import (
    ClusterConfig,
    CollectionConfig,
    SearchConfig,
    TrainConfig,
)
from repro.costmodel import PretrainedCostModels, pretrain_cost_models
from repro.data import TablePool, synthesize_table_pool
from repro.hardware import SimulatedCluster
from repro.utils import source_fingerprint

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / "_cache"
RESULTS_DIR = BENCH_DIR / "results"

BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "8000"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "300"))
BENCH_TASKS = int(os.environ.get("REPRO_BENCH_TASKS", "6"))

#: Memory budget of the benchmark tasks (paper: 4 GB per GPU).
TASK_MEMORY_BYTES = 4 * 1024**3

#: Search configuration used by the benchmarks.  The paper's N=10, K=3,
#: L=10, M=11 is kept for the 4-GPU settings; 8-GPU settings use a
#: narrower beam but *more* steps — our synthesized pool has heavier
#: tables than dlrm_datasets, so several tables can each require a
#: mandatory split and L must cover the sum of those splits.
SEARCH_4GPU = SearchConfig()
SEARCH_8GPU = SearchConfig(top_n=6, beam_width=2, max_steps=16, grid_points=7)


def bench_collection(num_devices: int) -> CollectionConfig:
    return CollectionConfig(
        num_compute_samples=BENCH_SAMPLES,
        num_comm_samples=max(BENCH_SAMPLES // 3, 500),
    ).for_devices(num_devices)


def bench_train() -> TrainConfig:
    return TrainConfig(epochs=BENCH_EPOCHS)


@pytest.fixture(scope="session")
def pool856() -> TablePool:
    """The full 856-table pool (dlrm_datasets stand-in)."""
    return TablePool(synthesize_table_pool(seed=2023))


def make_cluster(num_devices: int) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(num_devices=num_devices, memory_bytes=TASK_MEMORY_BYTES)
    )


@pytest.fixture(scope="session")
def cluster4() -> SimulatedCluster:
    return make_cluster(4)


@pytest.fixture(scope="session")
def cluster8() -> SimulatedCluster:
    return make_cluster(8)


#: Source entries (relative to ``src/repro``) a pre-trained bundle's
#: bytes depend on: featurization, the ``repro.nn`` model/training
#: stack, the simulated hardware the samples are collected on, and the
#: config defaults.
BUNDLE_SOURCES = ("config.py", "costmodel", "data", "hardware", "nn")


def bundle_code_fingerprint() -> str:
    """Hash of every source file a pre-trained bundle depends on.

    The cache key of :func:`load_or_pretrain_bundle` captures the
    *configuration* (devices, samples, epochs, seed) but not the *code*;
    this digest covers the rest — so a cached bundle trained by older
    code is detected mechanically.  Delegates to the shared (cached)
    :func:`repro.utils.source_fingerprint`, the same helper provenance
    stamps use; the digest is byte-identical to the one historical
    ``code_fingerprint.txt`` files were written with.
    """
    return source_fingerprint(*BUNDLE_SOURCES)


def load_or_pretrain_bundle(
    pool: TablePool,
    cluster: SimulatedCluster,
    seed: int = 1,
) -> tuple[PretrainedCostModels, dict[str, float]]:
    """Disk-cached pre-training for a given cluster shape.

    Returns the bundle and the Table 2 test-MSE rows (also cached).
    A cached bundle is only served when its ``code_fingerprint.txt``
    matches the current source (see :func:`bundle_code_fingerprint`);
    otherwise it is retrained and overwritten in place.
    """
    import json

    key = (
        f"bundle_{cluster.num_devices}gpu_{BENCH_SAMPLES}s_{BENCH_EPOCHS}e_s{seed}"
    )
    directory = CACHE_DIR / key
    mse_path = directory / "test_mse.json"
    fingerprint = bundle_code_fingerprint()
    fingerprint_path = directory / "code_fingerprint.txt"
    if mse_path.exists() and (
        fingerprint_path.exists()
        and fingerprint_path.read_text().strip() == fingerprint
    ):
        bundle = PretrainedCostModels.load(directory)
        return bundle, json.loads(mse_path.read_text())
    bundle, report = pretrain_cost_models(
        cluster,
        pool,
        collection=bench_collection(cluster.num_devices),
        train=bench_train(),
        seed=seed,
    )
    directory.mkdir(parents=True, exist_ok=True)
    bundle.save(directory)
    mse_rows = report.test_mse_rows()
    mse_path.write_text(json.dumps(mse_rows, indent=2))
    fingerprint_path.write_text(fingerprint + "\n")
    return bundle, mse_rows


def bundle_cache_path(num_devices: int, seed: int = 1) -> Path:
    """The on-disk cache directory of :func:`load_or_pretrain_bundle`.

    The service benchmark hands this to :class:`repro.api.EngineSpec`
    so worker processes bootstrap from the same cached bundle the
    in-process fixtures load.
    """
    return CACHE_DIR / (
        f"bundle_{num_devices}gpu_{BENCH_SAMPLES}s_{BENCH_EPOCHS}e_s{seed}"
    )


@pytest.fixture(scope="session")
def bundle4(pool856, cluster4):
    return load_or_pretrain_bundle(pool856, cluster4)[0]


@pytest.fixture(scope="session")
def bundle8(pool856, cluster8):
    return load_or_pretrain_bundle(pool856, cluster8)[0]


def record_result(name: str, text: str) -> None:
    """Print a paper-style table and persist it under results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and heavy; statistical repetition
    is meaningless, so every benchmark uses a single round.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
