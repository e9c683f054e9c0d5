"""Seeded inputs of the three workloads.

Everything the program under test receives is generated here from the
benchmark seed alone: the same seed gives byte-identical tasks,
deployments and request schedules (:func:`schedule_bytes`).  The
program never sees the seed.

Request schedules are plain lists of :class:`Request` tuples so the load
generator and the determinism tests share one representation.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterator

import numpy as np

from repro.api.reshard import ReshardConfig, WorkloadDelta
from repro.config import TaskConfig
from repro.data import TablePool, generate_tasks, synthesize_table_pool
from repro.data.table import TableConfig

#: The committed 4-GPU bundle every workload serves from (read-only).
BUNDLE_DIR = "benchmarks/_cache/bundle_4gpu_8000s_300e_s1"
NUM_DEVICES = 4
MEMORY_BYTES = 4 * 1024**3
POOL_SEED = 2023

#: Tables per ``plan_beam`` task: one stated input size at the low end of
#: the paper's Table-1 range (10-60 tables).  A mix of sizes makes the
#: plan latency multimodal, so its median jumps between size clusters from
#: run to run, and a 60-table beam plan takes seconds, too few per run to
#: repeat across runs.  The seed picks every table and dimension.
BEAM_TABLES = 12
BEAM_MAX_DIM = 128

#: Tables of each ``lifecycle_mix`` deployment: fixed sizes across the
#: 10-20 range, so verify latency (which grows with plan size) does not
#: swing with the seed.
LIFECYCLE_TABLES = (10, 13, 17, 20)
LIFECYCLE_MAX_DIM = 64
#: Saturation throughput of the ``lifecycle_mix`` mix, in requests/s:
#: its schedules sent closed loop on both connections, as
#: ``python3 perfbench/capacity.py`` measures it (median of seeds 1-3,
#: 15 s each, on a 2-core x86-64 VM with single-threaded BLAS).  It is
#: bound by a stall, not by CPU: back to back on a keep-alive connection
#: every reply takes about 44 ms, even a 1 ms ``status``, because the
#: server sends a reply's headers and body in two writes and Nagle's
#: algorithm holds the second until the client's delayed ACK (40 ms).
#: With Nagle disabled in the server the same mix completes about 100
#: requests/s.
LIFECYCLE_CAPACITY_RPS = 39.1
#: Share of :data:`LIFECYCLE_CAPACITY_RPS` the open loop offers: each
#: connection sends every ~100 ms, twice the time a reply takes at
#: saturation, so requests do not queue into the stall above, and a
#: machine that is slower for a while still stays below saturation.
LIFECYCLE_LOAD = 0.5
#: Offered rate of the ``lifecycle_mix`` open loop, all connections.
LIFECYCLE_RATE_RPS = LIFECYCLE_LOAD * LIFECYCLE_CAPACITY_RPS
#: The verbs of the mix, one of each per deck: every layer the workload
#: is meant to load gets the same share of requests.  Writes (plan,
#: apply, rollback) sit beside reads (status, history) and verifies
#: (validate, audit).  A rollback the deployment's own state would
#: refuse (fewer than two applied versions) is sent as an apply instead.
LIFECYCLE_VERBS = ("status", "history", "apply", "rollback", "plan", "validate", "audit")
CHEAP_STRATEGIES = ("dim_greedy", "lookup_greedy")

RESHARD_TABLES = 10
#: Deployments ``reshard_churn`` reshards in turn, each for an equal share
#: of the run, every one from its own seeded tables and delta stream.  A
#: deployment's reshard cost depends on the tables and plan its history
#: left behind (one history's mean CPU per reshard ranged 49-89 ms), so
#: one deployment per run kept a seed's cost for the whole run: CPU per
#: request spread 0.093 of its median over five seeds at 40 s, in the same
#: seed order at 15, 25 and 40 s.  Four histories per run still spread it
#: by 0.12-0.15 over ten seeds, the same seeds high in two batches; eight
#: spread it by 0.06.
RESHARD_CHAINS = 8
RESHARD_MAX_DIM = 128
#: Tables whose access statistics one reshard delta rewrites.
RESHARD_STATS_UPDATES = 2
#: Refinement bound every reshard request asks for: one neighbourhood
#: scan (every move, swap and split of the bottleneck's shards, each
#: priced with ``plan_cost`` and ``PlanDiff.between``).  With the default
#: of 64 accepted moves, splits pile up and one reshard of the same
#: deployment runs from 0.1 s to over 20 s, too few and too uneven per
#: run to repeat across seeds.
RESHARD_CONFIG = ReshardConfig(max_refine_steps=1)
#: Offered rate of connection B's ``GET status`` open loop: a status waits
#: for the reshard holding the lock, so the rate stays well below one
#: read per reshard.
RESHARD_STATUS_RPS = 5.0
#: ``table_id``s of tables a delta adds start here, far above the pool's.
ADDED_TABLE_ID_BASE = 1_000_000

#: Connections (and so load-generator threads): at most the core count
#: of the 2-core machine the limits were fixed on.
CONNECTIONS = 2


@dataclasses.dataclass(frozen=True)
class Request:
    """One scheduled HTTP request.

    ``due_s`` is the offset from the start of the measured window at
    which an open loop sends it (``None`` in a closed loop: send when the
    previous reply arrived).
    """

    due_s: float | None
    verb: str
    method: str
    path: str
    body: dict[str, Any] | None = None


def schedule_bytes(schedule: list[Request]) -> bytes:
    """Canonical bytes of a schedule: equal inputs give equal bytes."""
    return json.dumps(
        [dataclasses.asdict(r) for r in schedule], sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def table_pool() -> TablePool:
    """The 856-table pool (the dlrm_datasets stand-in) every task draws from."""
    return TablePool(synthesize_table_pool(seed=POOL_SEED))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, *stream])


def _tables(
    pool: TablePool,
    rng: np.random.Generator,
    count: int,
    max_dim: int,
) -> tuple[TableConfig, ...]:
    """One task's tables, redrawn until every table fits half a device.

    Then no table needs a mandatory split: the greedy strategies cannot
    split, and the beam's step budget ``L`` must cover every mandatory
    split, so every request of a workload succeeds.
    """
    config = TaskConfig(
        num_devices=NUM_DEVICES,
        max_dim=max_dim,
        min_tables=count,
        max_tables=count,
        memory_bytes=MEMORY_BYTES,
    )
    while True:
        tables = generate_tasks(pool, config, count=1, seed=rng)[0].tables
        if all(t.size_bytes <= MEMORY_BYTES // 2 for t in tables):
            return tables


# ----------------------------------------------------------------------
# plan_beam
# ----------------------------------------------------------------------


def beam_tasks(pool: TablePool, seed: int) -> Iterator[tuple[TableConfig, ...]]:
    """Endless stream of ``plan_beam`` task tables."""
    rng = _rng(seed, 1)
    while True:
        yield _tables(pool, rng, BEAM_TABLES, BEAM_MAX_DIM)


def beam_warmup_tables(pool: TablePool) -> tuple[TableConfig, ...]:
    """The warm-up task of a ``plan_beam`` set-up.

    Not a measured input, so it is the same for every seed: set-up time
    then varies with the code, not with the seed.
    """
    return _tables(pool, _rng(0, 2), 10, BEAM_MAX_DIM)


# ----------------------------------------------------------------------
# lifecycle_mix
# ----------------------------------------------------------------------


def lifecycle_deployments(
    pool: TablePool, seed: int
) -> dict[str, tuple[TableConfig, ...]]:
    """The ``lifecycle_mix`` deployments' initial tables, by name."""
    rng = _rng(seed, 3)
    return {
        f"dep{index}": _tables(pool, rng, count, LIFECYCLE_MAX_DIM)
        for index, count in enumerate(LIFECYCLE_TABLES)
    }


def lifecycle_schedules(
    seed: int, seconds: float, rate_rps: float = LIFECYCLE_RATE_RPS
) -> list[list[Request]]:
    """Per-connection open-loop schedules of ``lifecycle_mix`` at ``rate_rps``.

    Each connection sends its verbs in seed-shuffled decks of
    :data:`LIFECYCLE_VERBS`, so every run sends the same proportions.
    Connections are offset by an equal share of the period, so their
    requests interleave rather than fire together.

    Deployment ``depN`` is pinned to connection ``N % CONNECTIONS``, so
    each deployment's requests arrive in schedule order and the
    generator can track the state every verb needs: after set-up each
    deployment holds one applied plan, every ``plan`` adds a feasible
    record, and a ``rollback`` is only sent with at least two applied
    versions on the stack.
    """
    rng = _rng(seed, 4)
    stack = {f"dep{i}": 1 for i in range(len(LIFECYCLE_TABLES))}
    period = CONNECTIONS / rate_rps
    decks: list[list[str]] = [[] for _ in range(CONNECTIONS)]
    schedules: list[list[Request]] = [[] for _ in range(CONNECTIONS)]
    for slot in range(int(seconds / period)):
        for conn in range(CONNECTIONS):
            if not decks[conn]:
                decks[conn] = [LIFECYCLE_VERBS[i] for i in rng.permutation(len(LIFECYCLE_VERBS))]
            due = (slot + conn / CONNECTIONS) * period
            mine = [n for n in stack if int(n[3:]) % CONNECTIONS == conn]
            name = mine[slot % len(mine)]
            verb = decks[conn].pop()
            if verb == "rollback" and stack[name] < 2:
                verb = "apply"
            if verb == "apply":
                stack[name] += 1
            elif verb == "rollback":
                stack[name] -= 1
            schedules[conn].append(_lifecycle_request(due, name, verb, rng))
    return schedules


def _lifecycle_request(
    due: float, name: str, verb: str, rng: np.random.Generator
) -> Request:
    path = f"/v1/deployments/{name}/{verb}"
    if verb == "plan":
        strategy = CHEAP_STRATEGIES[int(rng.integers(len(CHEAP_STRATEGIES)))]
        return Request(due, verb, "POST", path, {"strategy": strategy})
    if verb in ("apply", "rollback"):
        return Request(due, verb, "POST", path, {})
    return Request(due, verb, "GET", path)


# ----------------------------------------------------------------------
# reshard_churn
# ----------------------------------------------------------------------


def reshard_deployments(pool: TablePool, seed: int) -> dict[str, tuple[TableConfig, ...]]:
    """The ``reshard_churn`` deployments' initial tables, by name."""
    return {
        reshard_name(chain): _tables(pool, _rng(seed, 5, chain), RESHARD_TABLES, RESHARD_MAX_DIM)
        for chain in range(RESHARD_CHAINS)
    }


def reshard_name(chain: int) -> str:
    return f"churn{chain}"


def reshard_chain_at(offset_s: float, seconds: float) -> int:
    """The deployment being resharded ``offset_s`` into a ``seconds`` run."""
    return min(RESHARD_CHAINS - 1, int(offset_s * RESHARD_CHAINS / seconds))


def _drifted(table: TableConfig, rng: np.random.Generator) -> TableConfig:
    """``table`` with drifted access statistics (same stored weights)."""
    return dataclasses.replace(
        table,
        pooling_factor=float(table.pooling_factor * rng.uniform(0.8, 1.25)),
        zipf_alpha=float(max(0.0, table.zipf_alpha + rng.uniform(-0.05, 0.05))),
    )


def reshard_deltas(
    pool: TablePool, seed: int, chain: int, initial: tuple[TableConfig, ...]
) -> Iterator[Request]:
    """Endless closed-loop stream of connection A's ``POST reshard`` to
    deployment ``chain``.

    Each delta adds one pool table (under a fresh ``table_id``), removes
    one current table and rewrites the access statistics of a few
    others, so the table count stays at :data:`RESHARD_TABLES`.  The
    generator tracks the workload each delta leaves behind, which is
    exact because every reshard is applied in order on one connection.
    """
    rng = _rng(seed, 6, chain)
    path = f"/v1/deployments/{reshard_name(chain)}/reshard"
    # The current tables with their original statistics: updates drift
    # around those, not in a random walk, so the workload looks alike
    # however long a run is.
    current = {t.table_id: t for t in initial}
    added = 0
    while True:
        ids = sorted(current)
        picks = rng.choice(len(ids), size=1 + RESHARD_STATS_UPDATES, replace=False)
        removed = ids[int(picks[0])]
        updates = tuple(_drifted(current[ids[int(pick)]], rng) for pick in picks[1:])
        new = dataclasses.replace(
            _tables(pool, rng, 1, RESHARD_MAX_DIM)[0],
            table_id=ADDED_TABLE_ID_BASE + added,
        )
        added += 1
        del current[removed]
        current[new.table_id] = new
        delta = WorkloadDelta(
            add_tables=(new,), remove_table_ids=(removed,), update_stats=updates
        )
        body = {
            "delta": delta.to_dict(),
            "config": RESHARD_CONFIG.to_dict(),
            "strategy": "dim_greedy",
        }
        yield Request(None, "reshard", "POST", path, body)


def reshard_status_schedule(seconds: float) -> list[Request]:
    """Connection B's open loop of ``GET status`` at a fixed rate, each to
    the deployment connection A is resharding at its due time."""
    schedule = []
    for i in range(int(seconds * RESHARD_STATUS_RPS)):
        due = i / RESHARD_STATUS_RPS
        name = reshard_name(reshard_chain_at(due, seconds))
        schedule.append(Request(due, "status", "GET", f"/v1/deployments/{name}/status"))
    return schedule
