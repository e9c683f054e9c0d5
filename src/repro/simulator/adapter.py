"""WorkloadTrace → event stream: the atlas feeds the simulator.

The eight registered scenario regimes (:mod:`repro.scenarios.catalog`)
already encode production *workload* dynamics as deterministic
:class:`~repro.scenarios.trace.WorkloadTrace`\\ s.  This adapter turns a
trace into the simulator's native currency — typed
:class:`~repro.simulator.events.Event`\\ s — so every existing regime
doubles as a traffic/workload arrival process without regeneration.

One :class:`~repro.scenarios.trace.TraceStep` becomes up to three events
at the step's timestamp, pushed in the order a step takes effect (the
clock keeps ties in push order):

1. ``MEMORY`` when ``memory_scale`` differs from the running scale —
   capacity changes precede the reshard decision;
2. ``WORKLOAD_DELTA`` when the delta is non-empty;
3. ``TRAFFIC`` when the multiplier changes — scoring overlays come last.

Run through the simulator with the ``immediate`` policy and a quiet
fleet, the resulting stream *is* the scenario replay:
:func:`~repro.evaluation.production.replay_workload_trace` projects that
run onto the trace's steps.
"""

from __future__ import annotations

from repro.scenarios.trace import WorkloadTrace
from repro.simulator.events import MEMORY, TRAFFIC, WORKLOAD_DELTA, Event

__all__ = ["trace_to_events"]


def trace_to_events(trace: WorkloadTrace) -> list[Event]:
    """Convert a workload trace into a time-ascending event stream.

    Steps whose timestamp is not strictly positive are rejected: the
    simulation epoch (t=0) is when the initial plan goes live, so trace
    changes must happen after it.

    Raises:
        ValueError: on a step at or before the simulation epoch.
    """
    events: list[Event] = []
    current_scale = 1.0
    current_traffic = 1.0
    for step in trace.steps:
        if step.timestamp <= 0:
            raise ValueError(
                f"trace {trace.name!r} has a step at t={step.timestamp}; "
                "the simulator plans the initial workload at t=0, so steps "
                "must have strictly positive timestamps"
            )
        if step.memory_scale != current_scale:
            events.append(
                Event(
                    step.timestamp,
                    MEMORY,
                    step.memory_scale,
                    label=step.label,
                )
            )
            current_scale = step.memory_scale
        if not step.delta.is_empty:
            events.append(
                Event(step.timestamp, WORKLOAD_DELTA, step.delta, label=step.label)
            )
        if step.traffic_multiplier != current_traffic:
            events.append(
                Event(
                    step.timestamp,
                    TRAFFIC,
                    step.traffic_multiplier,
                    label=step.label,
                )
            )
            current_traffic = step.traffic_multiplier
    return events
