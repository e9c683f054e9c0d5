"""The discrete-event kernel: typed events on a priority-queue clock.

Every dynamic thing that can happen to a simulated serving cluster —
a device failing or recovering, a straggler slowing one device down, a
traffic-rate change, a workload delta arriving, a policy wake-up — is an
:class:`Event` with a timestamp (simulated hours) and a typed ``kind``.
The :class:`EventClock` orders them on a binary heap and hands them back
time-ascending.

Two properties the rest of the simulator (and the hypothesis property
suite) depend on:

- **stable ties** — events pushed at the same timestamp pop in push
  order.  The heap entry is ``(time, seq, event)`` with a monotone
  per-clock sequence number, so ordering never falls back to comparing
  event payloads and a trace step's ``memory → delta → traffic``
  sub-ordering survives the queue.
- **no time travel** — pushing an event earlier than the clock's current
  time raises; the clock's ``now`` only moves forward, so a simulation
  can never observe effects before their causes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "DEGRADE_END",
    "DEGRADE_START",
    "DEVICE_DOWN",
    "DEVICE_UP",
    "EVENT_KINDS",
    "Event",
    "EventClock",
    "MEMORY",
    "POLICY_TICK",
    "TRAFFIC",
    "WORKLOAD_DELTA",
]

#: A table add/remove/stats-update batch (payload: ``WorkloadDelta``).
WORKLOAD_DELTA = "workload-delta"
#: Traffic-rate change (payload: the new multiplier, > 0).
TRAFFIC = "traffic"
#: Per-device budget change (payload: memory scale vs the base budget).
MEMORY = "memory"
#: A device drops out of serving (payload: device index).
DEVICE_DOWN = "device-down"
#: The device comes back (payload: device index).
DEVICE_UP = "device-up"
#: Straggler / degradation onset (payload: ``(device, factor, episode)``).
DEGRADE_START = "degrade-start"
#: Straggler / degradation recovery (payload: ``(device, episode)``).
DEGRADE_END = "degrade-end"
#: Scheduled policy wake-up (no payload).
POLICY_TICK = "policy-tick"

EVENT_KINDS = frozenset(
    {
        WORKLOAD_DELTA,
        TRAFFIC,
        MEMORY,
        DEVICE_DOWN,
        DEVICE_UP,
        DEGRADE_START,
        DEGRADE_END,
        POLICY_TICK,
    }
)


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence in the simulated cluster.

    Attributes:
        time: simulated hours since the simulation epoch (finite, >= 0).
        kind: one of the module-level event kinds.
        payload: kind-specific data (see each kind's docstring).
        label: short annotation carried into reshard reasons/reports.
    """

    time: float
    kind: str
    payload: Any = None
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; known kinds: "
                f"{', '.join(sorted(EVENT_KINDS))}"
            )


@dataclass
class EventClock:
    """A forward-only priority queue of :class:`Event`\\ s.

    ``push`` accepts events at or after ``now``; ``pop`` returns the
    earliest pending event and advances ``now`` to its time.  Ties pop
    in push order (see the module docstring).
    """

    _heap: list[tuple[float, int, Event]] = field(default_factory=list)
    _seq: int = 0
    _now: float = 0.0

    @property
    def now(self) -> float:
        """Simulated time of the last popped event (0.0 initially)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        """True when no events are pending."""
        return not self._heap

    def push(self, event: Event) -> None:
        """Schedule ``event``.

        Raises:
            ValueError: when the event is earlier than ``now`` — the
                clock only moves forward.
        """
        if event.time < self._now:
            raise ValueError(
                f"cannot schedule an event at t={event.time} behind the "
                f"clock (now={self._now})"
            )
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1

    def extend(self, events: Iterable[Event]) -> None:
        """Push several events (in iteration order, for tie stability)."""
        for event in events:
            self.push(event)

    def peek_time(self) -> float:
        """Timestamp of the next event.

        Raises:
            IndexError: when the clock is empty.
        """
        return self._heap[0][0]

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing ``now``.

        Raises:
            IndexError: when the clock is empty.
        """
        time, _, event = heapq.heappop(self._heap)
        self._now = time
        return event

    def pop_simultaneous(self) -> list[Event]:
        """Pop the earliest event *batch*: every event sharing the next
        timestamp, in push order.

        A trace step schedules its memory change, workload delta and
        traffic change at one timestamp; the simulation applies the whole
        batch before consulting the policy, so one
        :class:`~repro.scenarios.trace.TraceStep` is one decision point
        (one row of :func:`~repro.evaluation.production
        .replay_workload_trace`).
        """
        batch = [self.pop()]
        while self._heap and self._heap[0][0] == self._now:
            batch.append(self.pop())
        return batch
