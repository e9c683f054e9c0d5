"""Search-performance instrumentation: stage timers and counters.

The online search is the service's hot path, so its efficiency is a
first-class, measured quantity (the same serving-efficiency concern FLSys
raises for high-traffic ML services).  A :class:`SearchProfile` rides
along a single search invocation and records

- **stage timers** — cumulative wall-clock seconds per named stage
  (candidate generation, inner-loop evaluation, greedy assignment, plan
  scoring), and
- **counters** — how much work each optimization layer did or avoided
  (inner-loop evaluations requested vs. actually run, plan-memo hits,
  cost-cache traffic, stacked prediction batches), and
- **histograms** — power-of-two bucketed size distributions, used by the
  batched scoring kernel to record how many feature rows / device sets
  each merged forward pass carries (the whole point of batching is to
  move these distributions up by orders of magnitude).

Profiles are plain data: they serialize to nested dictionaries, surface
on :class:`~repro.core.sharder.ShardingResult` /
:class:`~repro.api.schema.ShardingResponse` as the ``profile`` field, and
print from the CLI via ``python -m repro shard --profile``.

Profiling is opt-in and near-free when off: the search passes ``None``
around and every instrumentation site is guarded by a single ``is not
None`` check, so the paper-mode hot path stays unencumbered.

Counter vocabulary (written by the search layers):

======================  ================================================
``evaluations``         inner-loop (grid search) requests, memo hits
                        included — comparable to the pre-optimization
                        search's evaluation count
``unique_evaluations``  grid searches actually executed
``plan_memo_hits``      column plans served from the multiset memo
``grid_passes``         greedy passes over the ``max_dim`` grid
``grid_pass_groups``    distinct lockstep trajectories those passes
                        collapsed into (identical candidate-mask
                        histories share one greedy state)
``greedy_steps``        table-placement steps; one step advances a
                        whole trajectory group
``scored_candidates``   candidate devices scored across all steps
``predict_batches``     stacked cost-model forward passes
``predicted_sets``      device table sets predicted (cache misses)
``batch_dedup_hits``    duplicate candidate sets served from an earlier
                        slot of the same merged batch
``single_cost_memo_hits``  single-table costs served by the uid memo
======================  ================================================

Histogram vocabulary (batched scoring kernel):

``predict_rows_per_batch``  feature rows per merged forward pass
``predict_sets_per_batch``  device sets per merged forward pass
``frontier_size``           grid instances driven per lockstep frontier
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Mapping

__all__ = ["SearchProfile", "maybe_stage"]


class SearchProfile:
    """Mutable counter/timer bag for one search invocation.

    Not thread-safe: one profile instruments one (single-threaded)
    search.  Concurrent requests each carry their own profile.
    """

    __slots__ = ("counters", "timers_s", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers_s: dict[str, float] = {}
        # name -> {"count", "total", "min", "max", "buckets"} with
        # power-of-two bucket labels ("1", "2", "3-4", "5-8", ...).
        self.histograms: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    @staticmethod
    def _bucket_label(value: int) -> str:
        """Power-of-two bucket of a non-negative size: 0, 1, 2, 3-4, 5-8…"""
        if value <= 2:
            return str(value)
        hi = 1 << (value - 1).bit_length()
        return f"{hi // 2 + 1}-{hi}"

    def observe(self, name: str, value: int) -> None:
        """Record one size observation into histogram ``name``."""
        value = int(value)
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {
                "count": 0,
                "total": 0,
                "min": value,
                "max": value,
                "buckets": {},
            }
        hist["count"] += 1
        hist["total"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        label = self._bucket_label(value)
        hist["buckets"][label] = hist["buckets"].get(label, 0) + 1

    def add_time(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to stage timer ``name`` (created at 0.0)."""
        self.timers_s[name] = self.timers_s.get(name, 0.0) + seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into stage ``name`` (cumulative)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # aggregation / serialization
    # ------------------------------------------------------------------

    def merge(self, other: "SearchProfile | Mapping[str, Any]") -> None:
        """Accumulate another profile (or its ``to_dict`` form) into this
        one — used by the CLI to aggregate per-task profiles."""
        if isinstance(other, SearchProfile):
            counters: Mapping[str, Any] = other.counters
            timers: Mapping[str, Any] = other.timers_s
            histograms: Mapping[str, Any] = other.histograms
        else:
            counters = other.get("counters", {})
            timers = other.get("timers_s", {})
            histograms = other.get("histograms", {})
        for name, n in counters.items():
            self.count(name, int(n))
        for name, seconds in timers.items():
            self.add_time(name, float(seconds))
        for name, hist in histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = {
                    "count": int(hist["count"]),
                    "total": int(hist["total"]),
                    "min": int(hist["min"]),
                    "max": int(hist["max"]),
                    "buckets": {k: int(v) for k, v in hist["buckets"].items()},
                }
                continue
            mine["count"] += int(hist["count"])
            mine["total"] += int(hist["total"])
            mine["min"] = min(mine["min"], int(hist["min"]))
            mine["max"] = max(mine["max"], int(hist["max"]))
            for label, n in hist["buckets"].items():
                mine["buckets"][label] = mine["buckets"].get(label, 0) + int(n)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible snapshot of counters, timers and histograms."""
        out: dict[str, Any] = {
            "counters": dict(self.counters),
            "timers_s": {k: float(v) for k, v in self.timers_s.items()},
        }
        if self.histograms:
            out["histograms"] = {
                name: {
                    "count": hist["count"],
                    "total": hist["total"],
                    "min": hist["min"],
                    "max": hist["max"],
                    "buckets": dict(hist["buckets"]),
                }
                for name, hist in self.histograms.items()
            }
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchProfile":
        """Inverse of :meth:`to_dict`."""
        profile = cls()
        profile.merge(data)
        return profile

    def format_lines(self) -> list[str]:
        """Human-readable summary lines (CLI ``--profile`` output)."""
        lines = []
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:24s} {self.counters[name]}")
        if self.timers_s:
            lines.append("stage seconds:")
            for name in sorted(self.timers_s):
                lines.append(f"  {name:24s} {self.timers_s[name]:.4f}")
        if self.histograms:
            lines.append("histograms:")
            for name in sorted(self.histograms):
                hist = self.histograms[name]
                mean = hist["total"] / hist["count"] if hist["count"] else 0.0
                lines.append(
                    f"  {name:24s} n={hist['count']} mean={mean:.1f} "
                    f"min={hist['min']} max={hist['max']}"
                )
        return lines or ["(empty profile)"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SearchProfile(counters={self.counters}, timers_s={self.timers_s})"


def maybe_stage(profile: SearchProfile | None, name: str):
    """``profile.stage(name)`` or a free no-op when profiling is off."""
    return nullcontext() if profile is None else profile.stage(name)
