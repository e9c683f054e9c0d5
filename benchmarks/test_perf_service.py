"""Serving-plane performance benchmark: sustained mixed-traffic throughput.

Measures the HTTP serving plane end to end — client threads firing a
seeded, deterministic mix of ``plan`` / ``apply`` / ``reshard`` /
``rollback`` requests at a :class:`~repro.api.server.ShardingHTTPServer`
over several store-backed deployments — in two configurations:

- **single-worker**: every search runs in-process, on the server's own
  interpreter (GIL-bound to one core);
- **multi-worker**: the same traffic with a shared
  :class:`~repro.api.workers.WorkerPool` of shared-nothing worker
  processes behind every deployment's engine.

Reported per configuration: sustained requests/sec over the timed phase
(warm-up excluded) and p50/p99 per-request latency.  The table is
printed; no file is written.  Pool-vs-in-process bit identity is pinned
for every registered strategy by ``tests/test_api_workers.py``, not
here.

Every request must answer 200, except the 400s the lifecycle allows
(``_ALLOWED_400``: a rollback with one applied version).  At least one
reshard must answer 200, and after the storm every deployment must
sweep clean under ``validate_deployment``.

Gates, all against the same run:

- **floor**: pool requests/sec >= in-process requests/sec /
  ``FLOOR_FACTOR`` (a pool that serves the same traffic at under half
  the in-process rate is broken, on any machine);
- **scaling** (armed only on a >=4-core machine — a 1- or 2-core box
  physically cannot demonstrate parallel speedup): pool throughput must
  be >=``MIN_SCALING``x the in-process run at comparable p99
  (``p99_pool <= p99_single * P99_FACTOR``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from benchmarks.conftest import (
    SEARCH_4GPU,
    TASK_MEMORY_BYTES,
    bundle_cache_path,
    make_cluster,
)
from repro.api import (
    EngineSpec,
    PlanStore,
    ShardingEngine,
    ShardingHTTPServer,
    ShardingService,
    WorkerPool,
)
from repro.api.reshard import WorkloadDelta
from repro.config import ClusterConfig, TaskConfig
from repro.data import generate_tasks
from repro.evaluation import format_text_table

pytestmark = pytest.mark.perf

CLIENTS = 6
REQUESTS = 4  # timed requests per client
DEPLOYMENTS = 2
#: At least 2 even on a single-core machine: the multi-worker run must
#: measure the *process-pool* serving plane, never silently fall back
#: to the in-process path.
POOL_WORKERS = min(4, max(2, os.cpu_count() or 1))
MIN_SCALING = 3.0
P99_FACTOR = 1.25
FLOOR_FACTOR = 2.0
PERF_SEED = 4242

#: The scaling gate needs cores to scale onto; a smaller box still
#: measures, it just cannot assert a parallel speedup it cannot produce.
SCALING_GATE_ARMED = (os.cpu_count() or 1) >= 4

#: The traffic mix, deterministic per client thread (seeded schedule):
#: search-heavy, with enough lifecycle churn to exercise the store.
_OPS = ("plan", "plan", "plan", "apply", "reshard", "rollback")
_STRATEGIES = ("beam", "dim_greedy", "lookup_greedy")

#: The 400s a correct server gives this traffic, by verb: the error
#: message fragment of each.  Any other 400 is a failure.
_ALLOWED_400 = {
    "rollback": "has no earlier applied version to roll back to",
}


def _post(base: str, path: str, body: dict) -> tuple[int, str]:
    """POST ``body``; the status, and the error body of a non-200."""
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=600) as resp:
            resp.read()
            return resp.status, ""
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace")


def _client_schedule(client_id: int, count: int, spare_tables):
    """The deterministic request list of one client thread."""
    rng = random.Random(PERF_SEED + client_id)
    schedule = []
    for i in range(count):
        op = _OPS[rng.randrange(len(_OPS))]
        name = f"dep{(client_id + i) % DEPLOYMENTS}"
        if op == "plan":
            body = {"strategy": _STRATEGIES[rng.randrange(len(_STRATEGIES))]}
        elif op == "reshard":
            table = spare_tables[rng.randrange(len(spare_tables))]
            added = dataclasses.replace(
                table, table_id=500_000 + 1_000 * client_id + i
            )
            body = {
                "delta": WorkloadDelta(add_tables=(added,)).to_dict(),
                "strategy": "dim_greedy",
            }
        else:
            body = {}
        schedule.append((op, name, body))
    return schedule


def _run_config(bundle, spec: EngineSpec, tasks, workers: int, store_root):
    """Serve the seeded storm with ``workers`` processes; measure it."""
    pool = WorkerPool(spec, max_workers=workers) if workers > 1 else None
    store = PlanStore(store_root)
    service = ShardingService(store)
    engines = []
    for index in range(DEPLOYMENTS):
        engine = ShardingEngine(
            make_cluster(4), bundle, search=SEARCH_4GPU, worker_pool=pool
        )
        engines.append(engine)
        service.create_deployment(
            f"dep{index}", engine, tables=tasks[index].tables
        )
    server = ShardingHTTPServer(
        service, engines[0], port=0, max_batch=8, batch_wait_s=0.005
    )
    server.start()
    base = f"http://127.0.0.1:{server.port}"
    spare_tables = tasks[DEPLOYMENTS].tables

    try:
        # Warm-up (untimed): one plan+apply per deployment primes every
        # worker's engine and gives apply/rollback a feasible record.
        for index in range(DEPLOYMENTS):
            for verb, body in (("plan", {"strategy": "dim_greedy"}),
                               ("apply", {})):
                status, error = _post(
                    base, f"/v1/deployments/dep{index}/{verb}", body
                )
                assert status == 200, f"warm-up {verb}: {status} {error}"

        latencies: list[float] = []
        failures: list[str] = []
        reshards_ok = 0
        lock = threading.Lock()

        def client(client_id: int) -> None:
            nonlocal reshards_ok
            mine = []
            for op, name, body in _client_schedule(
                client_id, REQUESTS, spare_tables
            ):
                started = time.perf_counter()
                status, error = _post(
                    base, f"/v1/deployments/{name}/{op}", body
                )
                mine.append(time.perf_counter() - started)
                allowed = status == 200 or (
                    status == 400
                    and op in _ALLOWED_400
                    and _ALLOWED_400[op] in error
                )
                with lock:
                    reshards_ok += op == "reshard" and status == 200
                    if not allowed:
                        failures.append(f"{op} {name} -> {status} {error}")
            with lock:
                latencies.extend(mine)

        threads = [
            threading.Thread(target=client, args=(c,))
            for c in range(CLIENTS)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - started
        assert failures == [], failures
        assert reshards_ok >= 1, "no reshard of the storm answered 200"

        # Every deployment produced under the storm validates clean.
        for index in range(DEPLOYMENTS):
            report = service.validate_deployment(f"dep{index}")
            assert report.ok, report.errors

        latencies.sort()
        total = len(latencies)
        return {
            "requests": total,
            "reshards_ok": reshards_ok,
            "wall_s": round(wall_s, 4),
            "requests_per_sec": round(total / wall_s, 3),
            "p50_ms": round(1000 * latencies[total // 2], 3),
            "p99_ms": round(
                1000 * latencies[min(total - 1, int(total * 0.99))], 3
            ),
        }
    finally:
        server.close()
        for engine in engines:
            engine.close()
        if pool is not None:
            pool.close()


def test_perf_service_throughput(pool856, bundle4, tmp_path):
    task_cfg = TaskConfig(
        num_devices=4,
        max_dim=64,
        min_tables=10,
        max_tables=20,
        memory_bytes=TASK_MEMORY_BYTES,
    )
    tasks = generate_tasks(
        pool856, task_cfg, count=DEPLOYMENTS + 1, seed=PERF_SEED
    )
    spec = EngineSpec(
        cluster=ClusterConfig(
            num_devices=4, memory_bytes=TASK_MEMORY_BYTES
        ),
        bundle_path=str(bundle_cache_path(4)),
        search=SEARCH_4GPU,
    )

    single = _run_config(bundle4, spec, tasks, 1, tmp_path / "w1")
    multi = _run_config(
        bundle4, spec, tasks, POOL_WORKERS, tmp_path / "wN"
    )
    scaling = multi["requests_per_sec"] / single["requests_per_sec"]

    print(
        "\n"
        + format_text_table(
            ["configuration", "requests", "reshards ok", "wall (s)",
             "req/s", "p50 (ms)", "p99 (ms)"],
            [
                [label, run["requests"], run["reshards_ok"], run["wall_s"],
                 run["requests_per_sec"], run["p50_ms"], run["p99_ms"]]
                for label, run in (
                    ("1 worker (in-process)", single),
                    (f"{POOL_WORKERS} workers (process pool)", multi),
                )
            ],
            title=(
                f"Serving plane under mixed plan/apply/reshard traffic "
                f"({CLIENTS} clients x {REQUESTS} requests, "
                f"{DEPLOYMENTS} deployments, {os.cpu_count()} cpus): "
                f"{scaling:.2f}x scaling, gate "
                f"{'armed' if SCALING_GATE_ARMED else 'disarmed'}"
            ),
        )
        + "\n"
    )

    floor = single["requests_per_sec"] / FLOOR_FACTOR
    assert multi["requests_per_sec"] >= floor, (
        f"process-pool throughput {multi['requests_per_sec']:.2f} req/s "
        f"is below 1/{FLOOR_FACTOR} of the in-process "
        f"{single['requests_per_sec']:.2f} req/s of the same run"
    )
    if SCALING_GATE_ARMED:
        assert scaling >= MIN_SCALING, (
            f"{POOL_WORKERS}-worker throughput scaled only "
            f"{scaling:.2f}x over single-worker "
            f"(required {MIN_SCALING}x on this {os.cpu_count()}-core "
            f"machine)"
        )
        assert multi["p99_ms"] <= single["p99_ms"] * P99_FACTOR, (
            f"multi-worker p99 {multi['p99_ms']:.1f} ms exceeds "
            f"{P99_FACTOR}x the single-worker p99 "
            f"{single['p99_ms']:.1f} ms — throughput bought with "
            f"latency is not scaling"
        )
