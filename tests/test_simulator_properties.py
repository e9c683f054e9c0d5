"""Hypothesis properties of the discrete-event simulator.

Three laws of :mod:`repro.simulator`:

1. **Stable clock ordering** — the :class:`~repro.simulator.events
   .EventClock` pops time-ascending, and events sharing a timestamp pop
   in push order, for *every* push sequence (the heap must never fall
   back to comparing payloads).
2. **Seed determinism** — one ``(trace, policy, sim_seed)`` triple
   yields a byte-identical :class:`~repro.simulator.report
   .SimulationReport` JSON on every run, machine processes included.
3. **Replay projection** — :func:`~repro.evaluation.production
   .replay_workload_trace` is the ``immediate``-policy, quiet-fleet run
   of :func:`~repro.simulator.runner.simulate_policy` projected onto the
   trace's steps; for every atlas regime its rows agree with a direct
   simulation decision for decision: same reshard outcomes, moved bytes,
   applied-plan and from-scratch columns, and serving cost after every
   step.

Like ``test_scenario_properties.py``, the engine quantifies over the
*harness* with a hand-built linear bundle — deterministic and
training-free, so the properties can afford real end-to-end runs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ShardingEngine
from repro.config import ClusterConfig
from repro.costmodel.features import TableFeaturizer
from repro.costmodel.linear_model import (
    LinearCommCostModel,
    LinearComputeCostModel,
)
from repro.costmodel.pretrain import PretrainedCostModels
from repro.evaluation import replay_workload_trace
from repro.hardware import SimulatedCluster
from repro.scenarios import available_scenarios, make_trace
from repro.simulator import (
    Event,
    EventClock,
    FleetSpec,
    SimulationConfig,
    make_policy,
    simulate_policy,
)
from repro.simulator.events import EVENT_KINDS, POLICY_TICK

_SETTINGS = settings(max_examples=10, deadline=None)
_NUM_DEVICES = 2
_BATCH = 4096
_MEMORY = 2 * 1024**3


# ----------------------------------------------------------------------
# 1. clock ordering
# ----------------------------------------------------------------------

# A coarse time grid forces plenty of equal timestamps.
_events_st = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        st.sampled_from(sorted(EVENT_KINDS)),
    ),
    max_size=40,
)


@_SETTINGS
@given(_events_st)
def test_clock_pops_time_ascending_with_stable_ties(items):
    clock = EventClock()
    for index, (time, kind) in enumerate(items):
        clock.push(Event(time, kind, payload=index))
    popped = [clock.pop() for _ in range(len(items))]
    assert [e.time for e in popped] == sorted(e.time for e in popped)
    for time in {e.time for e in popped}:
        same_time = [e.payload for e in popped if e.time == time]
        assert same_time == sorted(same_time)  # push order preserved


@_SETTINGS
@given(_events_st)
def test_pop_simultaneous_partitions_the_stream(items):
    clock = EventClock()
    for index, (time, kind) in enumerate(items):
        clock.push(Event(time, kind, payload=index))
    batches = []
    while not clock.empty:
        batches.append(clock.pop_simultaneous())
    # Batches partition the events, strictly time-ascending, and each
    # batch is single-timestamp in push order.
    assert sum(len(b) for b in batches) == len(items)
    times = [b[0].time for b in batches]
    assert times == sorted(set(times))
    for batch in batches:
        assert len({e.time for e in batch}) == 1
        payloads = [e.payload for e in batch]
        assert payloads == sorted(payloads)


@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=10, deadline=None)
def test_clock_rejects_time_travel(delta):
    clock = EventClock()
    clock.push(Event(delta, POLICY_TICK))
    clock.pop()
    with pytest.raises(ValueError):
        clock.push(Event(delta / 2, POLICY_TICK))


# ----------------------------------------------------------------------
# deterministic engine (no training)
# ----------------------------------------------------------------------


def _linear_bundle() -> PretrainedCostModels:
    """A hand-built bundle: deterministic, training-free, plausible."""
    featurizer = TableFeaturizer(_BATCH)
    compute = LinearComputeCostModel(featurizer.num_features)
    coef = np.zeros(featurizer.num_features + 2)
    coef[13] = 0.5   # dim * pooling / 1000
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
        ClusterConfig(num_devices=_NUM_DEVICES, memory_bytes=_MEMORY)
    )
    return ShardingEngine(cluster, _linear_bundle())


# ----------------------------------------------------------------------
# 2. seed determinism
# ----------------------------------------------------------------------


@settings(max_examples=5, deadline=None)
@given(
    sim_seed=st.integers(min_value=0, max_value=10_000),
    policy_name=st.sampled_from(["periodic", "cost_of_delay"]),
)
def test_same_seed_means_byte_identical_report_json(
    engine, small_pool, sim_seed, policy_name
):
    trace = make_trace(
        "table_churn", small_pool, seed=2, num_tables=6,
        num_devices=_NUM_DEVICES, memory_bytes=_MEMORY,
    )
    config = SimulationConfig(
        sim_seed=sim_seed,
        horizon_hours=24.0,
        fleet=FleetSpec(mtbf_hours=12.0, straggler_rate_per_hour=0.25),
    )
    payloads = [
        json.dumps(
            simulate_policy(
                trace, engine, make_policy(policy_name), config=config
            ).to_dict(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    assert payloads[0] == payloads[1]


def test_different_fleet_seeds_differ(engine, small_pool):
    """The seed must actually reach the machine processes."""
    trace = make_trace(
        "table_churn", small_pool, seed=2, num_tables=6,
        num_devices=_NUM_DEVICES, memory_bytes=_MEMORY,
    )
    flaky = dict(
        horizon_hours=48.0,
        fleet=FleetSpec(mtbf_hours=6.0, straggler_rate_per_hour=0.5),
    )
    a = simulate_policy(
        trace, engine, make_policy("periodic"),
        config=SimulationConfig(sim_seed=0, **flaky),
    )
    b = simulate_policy(
        trace, engine, make_policy("periodic"),
        config=SimulationConfig(sim_seed=1, **flaky),
    )
    assert a.to_dict() != b.to_dict()


# ----------------------------------------------------------------------
# 3. replay projection (the adapter's contract)
# ----------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    scenario=st.sampled_from(sorted(available_scenarios())),
    seed=st.integers(min_value=0, max_value=3),
)
def test_immediate_policy_on_quiet_fleet_matches_replay(
    engine, small_pool, scenario, seed
):
    trace = make_trace(
        scenario, small_pool, seed=seed, num_tables=6,
        num_devices=_NUM_DEVICES, memory_bytes=_MEMORY,
    )
    replay = replay_workload_trace(trace, engine)
    sim = simulate_policy(trace, engine, make_policy("immediate"))

    # Decision for decision: one simulated reshard per resharded step,
    # with identical outcomes and migration spend.
    replayed = [s for s in replay.steps if s.resharded]
    assert len(sim.reshards) == len(replayed)
    for step, decision in zip(replayed, sim.reshards):
        assert decision.time_hours == step.timestamp
        assert decision.feasible == step.feasible
        assert decision.chosen == step.chosen
        assert decision.moved_mb == pytest.approx(step.moved_mb)
        assert decision.migration_ms == pytest.approx(step.migration_ms)
        assert decision.within_budget == step.within_budget
        # The applied plan after the step and the from-scratch
        # counterfactual, both read off the same reshard record.
        assert decision.plan_cost_ms == step.plan_cost_ms
        assert decision.num_shards == step.num_shards
        assert decision.num_tables == step.num_tables
        for column in (
            "scratch_cost_ms", "scratch_moved_mb", "scratch_migration_ms"
        ):
            assert getattr(decision, column) == pytest.approx(
                getattr(step, column), nan_ok=True
            )
    assert sim.initial_cost_ms == replay.steps[0].plan_cost_ms
    assert sim.initial_shards == replay.steps[0].num_shards
    assert sim.total_moved_mb == pytest.approx(
        replay.steps[-1].cumulative_moved_mb
    )

    # Cost for cost: the segment opened at each step's timestamp serves
    # at exactly the replayed step's serving cost.
    by_start = {s.start_hours: s for s in sim.segments}
    for step in replay.steps[1:]:
        if step.timestamp >= sim.horizon_hours:
            continue
        segment = by_start[step.timestamp]
        assert segment.serving_cost_ms == pytest.approx(
            step.serving_cost_ms, rel=1e-12
        )
    assert sim.final_tables == replay.steps[-1].num_tables
