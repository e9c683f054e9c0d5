"""Hypothesis metamorphic properties of the scenario replay.

Two laws of :mod:`repro.scenarios` + :func:`repro.evaluation.production
.replay_workload_trace`:

1. **Pure-traffic permutation invariance** — traffic multipliers are a
   scoring overlay; permuting them across the pure-traffic steps of a
   trace must not change what the lifecycle *does* (the final applied
   plan, the reshard outcomes).
2. **Traffic monotonicity** — while the applied plan holds, a larger
   traffic multiplier can only report a larger (or equal) serving cost.

Both properties quantify over the *harness*, not over a trained model:
the engine carries a hand-built linear bundle whose compute cost is a
nonnegative combination of features that are monotone in the pooling
factor, so monotonicity holds analytically and a violation can only come
from the replay plumbing (mis-threaded multipliers, state leaks between
steps).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReshardConfig, ShardingEngine
from repro.config import ClusterConfig
from repro.costmodel.features import TableFeaturizer
from repro.costmodel.linear_model import (
    LinearCommCostModel,
    LinearComputeCostModel,
)
from repro.costmodel.pretrain import PretrainedCostModels
from repro.data.table import TableConfig
from repro.evaluation import replay_workload_trace
from repro.hardware import SimulatedCluster
from repro.scenarios.trace import TraceStep, WorkloadTrace

_SETTINGS = settings(max_examples=10, deadline=None)
_NUM_DEVICES = 2
_BATCH = 4096


def _monotone_bundle() -> PretrainedCostModels:
    """A deterministic bundle whose compute cost is provably monotone in
    every table's pooling factor.

    The ridge models are interface-compatible with the trained ones; the
    coefficients are set by hand (nonnegative weight on the
    ``dim * pooling`` workload feature and the table count, zero
    elsewhere) instead of fitted, because the property needs *analytic*
    monotonicity — a trained model's shape is not under test here.
    """
    featurizer = TableFeaturizer(_BATCH)
    compute = LinearComputeCostModel(featurizer.num_features)
    coef = np.zeros(featurizer.num_features + 2)
    coef[13] = 0.5   # dim * pooling / 1000 — strictly increasing in pooling
    coef[-2] = 0.02  # table count
    coef[-1] = 0.1   # bias
    compute._coef = coef
    comm_width = 2 * _NUM_DEVICES + 1
    forward = LinearCommCostModel(_NUM_DEVICES)
    forward._coef = np.zeros((comm_width, _NUM_DEVICES))
    backward = LinearCommCostModel(_NUM_DEVICES)
    backward._coef = np.zeros((comm_width, _NUM_DEVICES))
    return PretrainedCostModels(
        compute=compute,
        forward_comm=forward,
        backward_comm=backward,
        featurizer=featurizer,
        num_devices=_NUM_DEVICES,
        batch_size=_BATCH,
    )


@pytest.fixture(scope="module")
def engine():
    cluster = SimulatedCluster(
        ClusterConfig(num_devices=_NUM_DEVICES, memory_bytes=2 * 1024**3)
    )
    return ShardingEngine(cluster, _monotone_bundle())


def _tables(count=4, start_id=0):
    return tuple(
        TableConfig(
            table_id=start_id + i,
            hash_size=1000 + 200 * i,
            dim=16,
            pooling_factor=4.0 + i,
            zipf_alpha=0.8,
        )
        for i in range(count)
    )


def _pure_step(timestamp, multiplier):
    return TraceStep(
        timestamp=float(timestamp),
        traffic_multiplier=float(multiplier),
        label=f"traffic x{multiplier:.2f}",
    )


def _replay(trace, engine):
    """Replay into a fresh service; returns (report, final applied record)."""
    from repro.api import ShardingService

    service = ShardingService()
    report = replay_workload_trace(
        trace,
        engine,
        reshard_config=ReshardConfig(max_refine_steps=2),
        strategy="dim_greedy",
        service=service,
        deployment="replay",
    )
    return report, service.applied_record("replay")


multipliers_st = st.lists(
    st.floats(min_value=0.25, max_value=8.0,
              allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=5,
)


class TestTrafficPermutation:
    @given(multipliers=multipliers_st, data=st.data())
    @_SETTINGS
    def test_pure_traffic_permutation_preserves_final_plan(
        self, engine, multipliers, data
    ):
        from repro.api.reshard import WorkloadDelta

        permuted = data.draw(st.permutations(multipliers))
        extra = _tables(1, start_id=500)[0]

        def build(ms):
            # Pure-traffic steps straddle one genuine workload change.
            steps = [_pure_step(i + 1, m) for i, m in enumerate(ms[:-1])]
            steps.append(
                TraceStep(
                    timestamp=len(ms),
                    delta=WorkloadDelta(add_tables=(extra,)),
                    label="onboard",
                )
            )
            steps.append(_pure_step(len(ms) + 1, ms[-1]))
            return WorkloadTrace(
                name="perm-prop",
                seed=0,
                num_devices=_NUM_DEVICES,
                memory_bytes=2 * 1024**3,
                initial_tables=_tables(),
                steps=tuple(steps),
            )

        base, base_applied = _replay(build(multipliers), engine)
        swapped, swapped_applied = _replay(build(permuted), engine)

        # The lifecycle's *actions* are traffic-independent.
        assert base_applied.plan == swapped_applied.plan
        assert base_applied.base_tables == swapped_applied.base_tables
        base_reshards = [s for s in base.steps if s.resharded]
        swapped_reshards = [s for s in swapped.steps if s.resharded]
        assert len(base_reshards) == len(swapped_reshards)
        for a, b in zip(base_reshards, swapped_reshards):
            assert a.moved_mb == b.moved_mb
            assert a.chosen == b.chosen
            assert a.num_shards == b.num_shards


class TestTrafficMonotonicity:
    @given(multipliers=multipliers_st)
    @_SETTINGS
    def test_serving_cost_is_monotone_in_traffic(self, engine, multipliers):
        trace = WorkloadTrace(
            name="mono-prop",
            seed=0,
            num_devices=_NUM_DEVICES,
            memory_bytes=2 * 1024**3,
            initial_tables=_tables(),
            steps=tuple(
                _pure_step(i + 1, m) for i, m in enumerate(multipliers)
            ),
        )
        report, _ = _replay(trace, engine)
        costs = {
            step.traffic_multiplier: step.serving_cost_ms
            for step in report.steps[1:]
        }
        ordered = sorted(costs)
        for lo, hi in zip(ordered, ordered[1:]):
            assert costs[lo] <= costs[hi] + 1e-9, (
                f"serving cost fell from {costs[lo]} (x{lo}) to "
                f"{costs[hi]} (x{hi})"
            )


def test_replay_is_deterministic(engine):
    trace = WorkloadTrace(
        name="det-prop",
        seed=0,
        num_devices=_NUM_DEVICES,
        memory_bytes=2 * 1024**3,
        initial_tables=_tables(),
        steps=(_pure_step(1, 2.0), _pure_step(2, 0.5)),
    )
    first, _ = _replay(trace, engine)
    second, _ = _replay(trace, engine)
    assert first.to_dict() == second.to_dict()
