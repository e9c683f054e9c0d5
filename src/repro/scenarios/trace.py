"""Workload traces: the replayable unit of a production scenario.

A *scenario* (a diurnal load swing, a flash crowd, a table-onboarding
wave, ...) is not code that pokes at a service — it is **data**: a
:class:`WorkloadTrace` holding the initial workload plus a timestamped
sequence of :class:`TraceStep`\\ s, each carrying a
:class:`~repro.api.reshard.WorkloadDelta` (tables added / removed /
updated), a **traffic multiplier** (scales every table's lookup rate for
that step's cost evaluation) and a **memory scale** (models device
degradation / capacity loss as a fraction of the trace's base budget).

Because a trace is plain data with the same versioned JSON round-trip as
the rest of :mod:`repro.api.schema`, scenarios can be generated once,
committed, diffed, and replayed bit-identically through
:func:`repro.evaluation.production.replay_workload_trace` — the registry
in :mod:`repro.scenarios.catalog` is just a library of deterministic
trace generators.

Workload *updates* come in two physically distinct flavours, and the
trace encodes them differently so migration is priced honestly:

- **stats updates** (:func:`stats_update_delta`) — the access pattern
  changed (pooling factor, skew) but the stored weights did not.  Carried
  in :attr:`~repro.api.reshard.WorkloadDelta.update_stats`; the reshard
  rewrites the surviving shards' statistics in place, so no bytes move
  unless the search *chooses* to rebalance.
- **rebuilds** (:func:`rebuild_delta`) — the storage layout changed
  (dimension migration, re-hashed rows).  Encoded as remove-and-re-add of
  the same ``table_id``: the old shards are retired and the new
  configuration is placed, pricing the re-materialization of the table's
  state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.api.reshard import WorkloadDelta
from repro.api.schema import SCHEMA_VERSION, _check_version
from repro.data.io import table_from_dict, table_to_dict
from repro.data.table import TableConfig

__all__ = ["TraceStep", "WorkloadTrace", "rebuild_delta", "stats_update_delta"]


def stats_update_delta(updates: Iterable[TableConfig]) -> WorkloadDelta:
    """A delta whose tables change *access statistics* only.

    Use for pooling-factor or skew changes: the stored weights are
    untouched, so the reshard applies the new statistics to the surviving
    shards in place and prices zero migration for the update itself.
    """
    return WorkloadDelta(update_stats=tuple(updates))


def rebuild_delta(replacements: Iterable[TableConfig]) -> WorkloadDelta:
    """A delta that rebuilds tables (same ids, new storage layout).

    Use for dimension or row-count changes: encoded as remove-and-re-add
    of each replacement's ``table_id``, so the incremental reshard
    retires every old shard and places the new configuration — the
    re-materialization of the table's state is priced as migration.
    """
    replacements = tuple(replacements)
    return WorkloadDelta(
        add_tables=replacements,
        remove_table_ids=tuple(t.table_id for t in replacements),
    )


@dataclass(frozen=True)
class TraceStep:
    """One timestamped workload change within a :class:`WorkloadTrace`.

    Attributes:
        timestamp: monotone position of the step (hours, days, or plain
            step index — the unit is the scenario's to choose; replay
            requires it to increase and to be > 0, since the initial
            plan goes live at t=0).
        delta: tables added / removed / updated at this step (empty
            deltas are legal: a pure traffic or capacity change).
        traffic_multiplier: factor applied to every table's
            ``pooling_factor`` when the step's serving cost is evaluated
            (1.0 = the planned load; 2.0 = twice the lookups per batch).
            Traffic is a *scoring overlay*: it never moves bytes by
            itself.
        memory_scale: per-device memory budget at this step as a fraction
            of the trace's base ``memory_bytes`` (device degradation,
            capacity loss).  A change re-packs through the reshard path.
        label: short human-readable annotation for reports.
    """

    timestamp: float
    delta: WorkloadDelta = field(default_factory=WorkloadDelta)
    traffic_multiplier: float = 1.0
    memory_scale: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.traffic_multiplier <= 0:
            raise ValueError(
                f"traffic_multiplier must be > 0, got {self.traffic_multiplier}"
            )
        if self.memory_scale <= 0:
            raise ValueError(
                f"memory_scale must be > 0, got {self.memory_scale}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "timestamp": float(self.timestamp),
            "delta": self.delta.to_dict(),
            "traffic_multiplier": float(self.traffic_multiplier),
            "memory_scale": float(self.memory_scale),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceStep":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        _check_version(data, "trace step")
        return cls(
            timestamp=float(data["timestamp"]),
            delta=WorkloadDelta.from_dict(data["delta"]),
            traffic_multiplier=float(data.get("traffic_multiplier", 1.0)),
            memory_scale=float(data.get("memory_scale", 1.0)),
            label=str(data.get("label", "")),
        )


@dataclass(frozen=True)
class WorkloadTrace:
    """A replayable production scenario: initial workload + change steps.

    Attributes:
        name: scenario (registry) name this trace was generated from.
        seed: the generator seed (same seed ⇒ byte-identical trace JSON).
        num_devices: cluster size the trace targets.
        memory_bytes: base per-device memory budget (steps scale it via
            ``memory_scale``).
        initial_tables: the day-0 workload.
        steps: the timestamped change sequence, timestamp-ascending.
        description: one-line summary for listings and reports.
    """

    name: str
    seed: int
    num_devices: int
    memory_bytes: int
    initial_tables: tuple[TableConfig, ...]
    steps: tuple[TraceStep, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.initial_tables:
            raise ValueError("a workload trace needs at least one initial table")
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices}")
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be > 0, got {self.memory_bytes}")
        times = [s.timestamp for s in self.steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(
                f"trace steps must have strictly increasing timestamps, got {times}"
            )

    @property
    def num_steps(self) -> int:
        """Number of change steps (the initial plan is not a step)."""
        return len(self.steps)

    def with_steps(self, steps: Sequence[TraceStep]) -> "WorkloadTrace":
        """Copy of this trace with a different step sequence."""
        return replace(self, steps=tuple(steps))

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a versioned, JSON-compatible dictionary."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "seed": int(self.seed),
            "num_devices": int(self.num_devices),
            "memory_bytes": int(self.memory_bytes),
            "initial_tables": [table_to_dict(t) for t in self.initial_tables],
            "steps": [s.to_dict() for s in self.steps],
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadTrace":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        _check_version(data, "workload trace")
        return cls(
            name=str(data["name"]),
            seed=int(data["seed"]),
            num_devices=int(data["num_devices"]),
            memory_bytes=int(data["memory_bytes"]),
            initial_tables=tuple(
                table_from_dict(t) for t in data.get("initial_tables", ())
            ),
            steps=tuple(TraceStep.from_dict(s) for s in data.get("steps", ())),
            description=str(data.get("description", "")),
        )
