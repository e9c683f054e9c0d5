"""The benchmark's own checks: seeded inputs, quality guards, metric rules.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` (about a
minute: the quality-guard tests start real server children).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from perfbench import inputs, metrics, run
from perfbench.tracing import Tracer, install

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pool():
    return inputs.table_pool()


@pytest.fixture(scope="module", autouse=True)
def _remove_work_dir():
    yield
    run.remove_work_dir()


def test_same_seed_gives_byte_identical_schedules(pool):
    def all_inputs(seed):
        beam = [
            inputs.Request(None, "beam_plan", "", "", {"tables": [t.uid for t in tables]})
            for tables in islice(inputs.beam_tasks(pool, seed), 10)
        ]
        churn = inputs.reshard_deployments(pool, seed)["churn1"]
        return b"|".join(
            [inputs.schedule_bytes(s) for s in inputs.lifecycle_schedules(seed, 30)]
            + [
                inputs.schedule_bytes(beam),
                inputs.schedule_bytes(list(islice(inputs.reshard_deltas(pool, seed, 1, churn), 20))),
                inputs.schedule_bytes(inputs.reshard_status_schedule(30)),
                repr(inputs.lifecycle_deployments(pool, seed)).encode(),
                repr(inputs.reshard_deployments(pool, seed)).encode(),
            ]
        )

    assert all_inputs(7) == all_inputs(7)
    assert all_inputs(7) != all_inputs(8)


def test_lifecycle_schedule_sends_only_verbs_the_state_allows():
    for seed in range(5):
        schedules = inputs.lifecycle_schedules(seed, 30)
        stack = {}
        for conn, schedule in enumerate(schedules):
            for request in schedule:
                name = request.path.split("/")[3]
                assert int(name[3:]) % inputs.CONNECTIONS == conn
                depth = stack.setdefault(name, 1)
                if request.verb == "rollback":
                    assert depth >= 2
                    stack[name] = depth - 1
                elif request.verb == "apply":
                    stack[name] = depth + 1


def test_lifecycle_decks_send_every_verb_equally():
    for schedule in inputs.lifecycle_schedules(4, 30):
        size = len(inputs.LIFECYCLE_VERBS)
        for start in range(0, len(schedule) - size + 1, size):
            deck = [r.verb for r in schedule[start : start + size]]
            # A rollback the state must refuse goes out as an apply.
            assert deck.count("plan") == deck.count("status") == 1
            assert deck.count("apply") + deck.count("rollback") == 2


def test_reshard_deltas_keep_the_table_count(pool):
    initial = inputs.reshard_deployments(pool, 3)["churn2"]
    current = {t.table_id for t in initial}
    for request in islice(inputs.reshard_deltas(pool, 3, 2, initial), 30):
        assert request.path == "/v1/deployments/churn2/reshard"
        delta = request.body["delta"]
        updated = {t["table_id"] for t in delta["update_stats"]}
        assert updated <= current and not updated & set(delta["remove_table_ids"])
        current -= set(delta["remove_table_ids"])
        current |= {t["table_id"] for t in delta["add_tables"]}
        assert len(current) == inputs.RESHARD_TABLES


def test_status_reads_follow_the_deployment_being_resharded():
    schedule = inputs.reshard_status_schedule(40)
    for request in schedule:
        chain = min(inputs.RESHARD_CHAINS - 1, int(request.due_s * inputs.RESHARD_CHAINS / 40))
        assert request.path == f"/v1/deployments/churn{chain}/status"
    assert {r.path for r in schedule} == {
        f"/v1/deployments/churn{chain}/status" for chain in range(inputs.RESHARD_CHAINS)
    }


def _guards(workload, seed, **kwargs):
    untraced, _, _ = workload(seed, 1.0, False, setups=1, **kwargs)
    assert not untraced.failures
    return run._quality(untraced.quality, objective=workload is run.reshard_churn)


@pytest.mark.parametrize(
    "workload, kwargs",
    [
        (run.plan_beam, {"quality_plans": 2}),
        (run.lifecycle_mix, {}),
        (run.reshard_churn, {"quality_reshards": 3}),
    ],
    ids=["plan_beam", "lifecycle_mix", "reshard_churn"],
)
def test_quality_guards_repeat_exactly(workload, kwargs):
    first = _guards(workload, 5, **kwargs)
    assert first["feasible_share"] == 1.0
    assert _guards(workload, 5, **kwargs) == first


def test_tail_is_the_order_statistic_with_ten_beyond():
    values = [float(v) for v in range(100)]
    assert metrics.tail(values) == (89.0, 90.0, 10)
    # Too few samples for a tail: the (upper) median stands in.
    assert metrics.tail([float(v) for v in range(10)]) == (5.0, 60.0, 4)


def test_p50_weighs_each_verb_class_median_by_its_share():
    def sample(verb, ms):
        return metrics.Sample(verb, 0.0, 0.0, ms / 1000, True)

    # Reads (3 of 4 requests) have median 4 ms, the commit 16 ms.
    samples = [sample("status", 4.0), sample("history", 3.0), sample("status", 90.0)]
    samples.append(sample("apply", 16.0))
    assert metrics.p50_ms(samples) == pytest.approx(0.75 * 4.0 + 0.25 * 16.0)


def test_self_time_subtracts_child_spans():
    spans = [
        (0, -1, "service.reshard", 0.0, 1.0, 0),
        (1, 0, "reshard.incremental", 0.1, 0.9, 0),
        (2, 1, "engine.shard", 0.2, 0.5, 7),
        (3, 1, "diff.between", 0.6, 0.7, 0),
    ]
    layer = metrics.layer_metrics(spans, (0.0, 1.0), [], {})
    assert layer["service.reshard.self_ms"] == pytest.approx(200.0)
    assert layer["reshard.incremental.self_ms"] == pytest.approx(400.0)
    assert layer["reshard.full_search.ms"] == pytest.approx(300.0)
    assert layer["core.search.evaluations"] == 7


def test_concurrent_children_cover_their_union_once():
    spans = [
        (0, -1, "service.plan", 0.0, 1.0, 2),
        (1, 0, "engine.shard", 0.1, 0.6, 0),
        (2, 0, "engine.shard", 0.2, 0.7, 0),
    ]
    samples = [metrics.Sample("plan", 0.0, 0.0, 1.1, True) for _ in range(2)]
    layer = metrics.layer_metrics(spans, (0.0, 1.0), samples, {})
    assert layer["service.plan.self_ms"] == pytest.approx(400.0)
    # Both clients waited on the whole batch: 100 ms each outside it.
    assert layer["server.self_ms"] == pytest.approx(100.0)


def test_work_submitted_to_a_pool_is_a_child_of_the_submitter():
    from concurrent.futures import ThreadPoolExecutor

    tracer = install(Tracer())
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            # A count from the arguments is kept when the call returns None.
            inner = tracer.wrap("inner", lambda: None, lambda args, result: 3.0)
            outer = tracer.wrap("outer", lambda: pool.submit(inner).result())
            outer()
            pool.submit(inner).result()
    finally:
        tracer.uninstall()
    outer_id = tracer.spans[1][0]
    assert [(s[2], s[1], s[5]) for s in tracer.spans] == [
        ("inner", outer_id, 3.0), ("outer", -1, 0), ("inner", -1, 3.0)
    ]


def test_tracer_restores_every_patched_function():
    from repro.api.diff import PlanDiff
    from repro.api.service import ShardingService

    from concurrent.futures import ThreadPoolExecutor

    def patched():
        return (
            PlanDiff.__dict__["between"],
            ShardingService.__dict__["status"],
            ThreadPoolExecutor.__dict__["submit"],
        )

    before = patched()
    tracer = install(Tracer())
    assert all(a is not b for a, b in zip(patched(), before))
    tracer.uninstall()
    assert patched() == before


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_beam",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
