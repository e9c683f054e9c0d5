"""Latency statistics, end-to-end metrics and the per-layer breakdown."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any

from perfbench.tracing import SERVICE_VERBS, STORE_FUNCTIONS, VALIDATION_FUNCTIONS

#: Latency limit per verb, in ms.  A request that fails or is refused
#: misses its limit.  500 ms is the ROADMAP's service p99 target, used for
#: every HTTP verb an operator or controller waits on interactively.  A
#: reshard answers a workload change and runs a search: 1 s keeps the new
#: plan within one monitoring tick of the change.  A ``plan_beam`` plan is
#: an offline Table-1-scale search whose paper-config runs take seconds;
#: 10 s is the point past which re-planning stops fitting a routine
#: maintenance loop.
LIMITS_MS = {
    "beam_plan": 10_000.0,
    "plan": 500.0,
    "apply": 500.0,
    "rollback": 500.0,
    "status": 500.0,
    "history": 500.0,
    "validate": 500.0,
    "audit": 500.0,
    "reshard": 1_000.0,
}

#: Verb classes the per-verb report groups requests into.
VERB_CLASSES = {
    "plan": ("beam_plan", "plan"),
    "commit": ("apply", "rollback"),
    "read": ("status", "history"),
    "verify": ("validate", "audit"),
    "reshard": ("reshard",),
}


@dataclass
class Sample:
    """One request as the load generator saw it (``time.monotonic`` stamps).

    ``due`` is when an open loop was to send it; a closed loop sends when
    the previous reply arrived, so there ``due == sent``.
    """

    verb: str
    due: float
    sent: float
    done: float
    ok: bool
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        """Latency counted from the due time."""
        return self.done - self.due

    @property
    def service_s(self) -> float:
        """Latency counted from the send time."""
        return self.done - self.sent

    @property
    def lag_s(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due

    @property
    def good(self) -> bool:
        """Succeeded within its verb's latency limit."""
        return self.ok and 1000 * self.latency_s <= LIMITS_MS[self.verb]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the tail.

    The tail is the highest order statistic with at least ten samples
    above it, so its percentile grows with the sample count.  Below 21
    samples that would fall under the median, and the median is reported
    instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def p50_ms(samples: list[Sample]) -> float:
    """Mean of the verb classes' median latencies, weighted by their share.

    Latency is counted from the due time.  The median of all requests
    pooled sits in whichever verb class spans the middle rank and jumps
    to the next class where their latencies overlap; each class's median
    is steady, and weighting it by the class's share of the requests
    makes the metric move by the share of request time a class takes.
    """
    total = 0.0
    for verbs in VERB_CLASSES.values():
        mine = [1000 * s.latency_s for s in samples if s.verb in verbs]
        if mine:
            total += len(mine) * statistics.median(mine)
    return total / len(samples)


def goodput_rps(samples: list[Sample], elapsed_s: float) -> float:
    """Requests per second that succeeded within their limit."""
    return sum(s.good for s in samples) / elapsed_s


#: With at least this many timed requests per third, the tail is taken
#: over each third of the measured window (requests assigned by due
#: time) and the median of the three reported: a burst from another
#: tenant of the shared machine then moves at most one third.  With fewer
#: (``plan_beam`` runs about 50 plans), the whole window is used.
MIN_PART_SAMPLES = 100


def _parts(samples: list[Sample], start: float, elapsed_s: float) -> list[list[Sample]]:
    """The non-empty parts of the measured window."""
    count = 3 if len(samples) >= 3 * MIN_PART_SAMPLES else 1
    width = elapsed_s / count
    parts: list[list[Sample]] = [[] for _ in range(count)]
    for s in samples:
        parts[min(count - 1, int((s.due - start) / width))].append(s)
    return [part for part in parts if part]


def latency(samples: list[Sample], start: float, elapsed_s: float) -> dict[str, float]:
    """Latency of one run: :func:`p50_ms` and the median over the window's
    parts of each part's :func:`tail`.

    Reported, not gated: wall-clock latency includes the time the
    machine's host runs other guests on this one's CPUs (steal time), and
    on a shared host that moved whole runs by half their median.
    """
    return {
        "p50_ms": p50_ms(samples),
        "tail_ms": statistics.median(
            tail([1000 * s.latency_s for s in part])[0]
            for part in _parts(samples, start, elapsed_s)
        ),
    }


def end_to_end(
    samples: list[Sample],
    elapsed_s: float,
    setup_s: list[float],
    peak_rss_mb: float,
    cpu_s: float,
    requests: int,
) -> dict[str, float]:
    """The gated end-to-end metrics of one untraced run.

    ``cpu_ms_per_req`` is the CPU time the serving process spent per
    request it served while the workload ran: what an operator pays for
    a request, and the work every layer's speed-up removes.  CPU time
    leaves out steal time, which is why it repeats where latency does not.
    """
    return {
        "setup_s": statistics.median(setup_s),
        "goodput_rps": goodput_rps(samples, elapsed_s),
        "cpu_ms_per_req": 1000 * cpu_s / requests,
        "peak_rss_mb": peak_rss_mb,
    }


UNITS = {
    "setup_s": "s",
    "goodput_rps": "1/s",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
}


def verb_report(
    samples: list[Sample],
    elapsed_s: float,
    quality: dict[str, float],
) -> list[str]:
    """Human-readable per-verb-class lines, each with unit and sample count."""
    lines = []
    for cls, verbs in VERB_CLASSES.items():
        mine = [s for s in samples if s.verb in verbs]
        if not mine:
            continue
        lat = [1000 * s.latency_s for s in mine]
        value, q, beyond = tail(lat)
        lines.append(
            f"{cls}_p50_ms {statistics.median(lat):.3f} ms  "
            f"{cls}_tail_ms {value:.3f} ms (p{q:.1f}, {beyond} beyond)  "
            f"n={len(mine)} within_limit={sum(s.good for s in mine)}"
        )
        if cls == "plan":
            lines.append(f"plans_per_s {len(mine) / elapsed_s:.4f} 1/s  n={len(mine)}")
    for name, value in quality.items():
        unit = "share" if name == "feasible_share" else "ms"
        lines.append(f"{name} {value:.6f} {unit}")
    return lines


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_s") or name.endswith("rps"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "hit_rate")):
        return "share"
    if name.endswith(("ms", "ms_tail", "ms_per_req")):
        return "ms"
    return "count"


# ----------------------------------------------------------------------
# per-layer breakdown from spans
# ----------------------------------------------------------------------

#: Per-layer metrics only the beam search moves: ``plan_beam`` reports
#: them, the greedy searches of the gated workloads never do.
BEAM_ONLY = ("core.search.", "core.bookkeeping_share", "core.simulator.batch.")


def _windowed(spans: list, start: float, end: float) -> list:
    return [s for s in spans if start <= s[3] <= end]


def layer_metrics(
    spans: list,
    window: tuple[float, float],
    samples: list[Sample],
    cache_stats: dict[str, Any],
) -> dict[str, float]:
    """Per-layer metrics of one traced run (spans started in ``window``)."""
    spans = _windowed(spans, *window)
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] in by_id:
            children.setdefault(s[1], []).append((s[3], s[4]))
    # Children that ran concurrently (a batch fanned out to a thread
    # pool) cover their union once.
    child_ms = {parent: 1000 * _covered(ivs) for parent, ivs in children.items()}

    def named(name: str) -> list:
        return [s for s in spans if s[2] == name]

    def ms(group: list) -> float:
        return sum(1000 * (s[4] - s[3]) for s in group)

    def self_ms(group: list) -> float:
        return ms(group) - sum(child_ms.get(s[0], 0.0) for s in group)

    def under(span, name: str) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    out: dict[str, float] = {}
    rows = named("costmodel.predict_rows")
    comm = named("costmodel.comm")
    out["costmodel.predict_rows.calls"] = len(rows)
    out["costmodel.predict_rows.rows"] = sum(s[5] for s in rows)
    out["costmodel.predict_rows.ms"] = ms(rows)
    out["costmodel.comm.calls"] = len(comm)
    out["costmodel.comm.ms"] = ms(comm)

    shard = named("engine.shard")
    shard_ms = ms(shard)
    evaluations = sum(s[5] for s in shard)
    in_search = ms([s for s in rows + comm if under(s, "engine.shard")])
    out["core.search.evaluations"] = evaluations
    out["core.search.evals_per_s"] = evaluations / (shard_ms / 1000) if shard_ms else 0.0
    out["core.bookkeeping_share"] = 1 - in_search / shard_ms if shard_ms else 0.0
    for name in ("core.simulator.batch", "core.simulator.plan_cost"):
        group = named(name)
        out[f"{name}.calls"] = len(group)
        out[f"{name}.ms"] = ms(group)
    out["engine.shard.calls"] = len(shard)
    out["engine.shard.ms"] = shard_ms
    out["engine.cache_hit_rate"] = float(cache_stats.get("hit_rate", 0.0))

    reshard = named("reshard.incremental")
    out["reshard.incremental.calls"] = len(reshard)
    out["reshard.incremental.ms"] = ms(reshard)
    out["reshard.incremental.self_ms"] = self_ms(reshard)
    out["reshard.full_search.ms"] = ms(
        [s for s in shard if by_id.get(s[1], (0, 0, ""))[2] == "reshard.incremental"]
    )
    diff = named("diff.between")
    out["diff.between.calls"] = len(diff)
    out["diff.between.ms"] = ms(diff)

    # Service time the clients waited on: every plan of a batch waits for
    # the whole plan_batch call.
    service_ms = sum(1000 * (s[4] - s[3]) * s[5] for s in named("service.plan"))
    for verb in SERVICE_VERBS.values():
        group = named(f"service.{verb}")
        if verb != "plan":
            service_ms += ms(group)
        out[f"service.{verb}.calls"] = len(group)
        out[f"service.{verb}.ms"] = ms(group)
        out[f"service.{verb}.self_ms"] = self_ms(group)
    status = [1000 * (s[4] - s[3]) for s in named("service.status")]
    out["service.status.ms_tail"] = tail(status)[0] if status else 0.0
    for fn in VALIDATION_FUNCTIONS:
        group = named(f"validation.{fn}")
        out[f"validation.{fn}.calls"] = len(group)
        out[f"validation.{fn}.ms"] = ms(group)
    for fn in STORE_FUNCTIONS:
        group = named(f"store.{fn}")
        out[f"store.{fn}.calls"] = len(group)
        out[f"store.{fn}.ms"] = ms(group)
    link = named("provenance.link_record")
    out["provenance.link_record.calls"] = len(link)
    out["provenance.link_record.ms"] = ms(link)

    http = [s for s in samples if s.verb != "beam_plan"]
    out["server.self_ms"] = (
        (1000 * sum(s.service_s for s in http) - service_ms) / len(http) if http else 0.0
    )
    batches = named("service.plan")
    out["server.plan_batch_size"] = (
        sum(s[5] for s in batches) / len(batches) if batches else 0.0
    )
    microbatches = named("server.microbatch")
    out["server.microbatch_jobs"] = (
        sum(s[5] for s in microbatches) / len(microbatches) if microbatches else 0.0
    )
    return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def loadgen_metrics(samples: list[Sample]) -> dict[str, float]:
    """Load-generator health: requests sent, failed, and how late it ran."""
    return {
        "loadgen.sent": len(samples),
        "loadgen.failed": sum(not s.ok for s in samples),
        "loadgen.lag_p99_ms": percentile([1000 * s.lag_s for s in samples], 99),
    }
