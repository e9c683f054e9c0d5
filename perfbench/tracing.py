"""Span tracing installed at run time around the layers' public functions.

The program under test carries no tracing of its own; :func:`install`
wraps each traced function where callers look it up (a class attribute,
or the importing module's global for names imported with ``from x import
f``).  Spans are kept in memory — one tuple per call — and written out
when the run ends.

A span is ``(id, parent_id, name, start_s, end_s, count)``: ``parent_id``
is the innermost open span of the same thread (``-1`` at the root), or
for work submitted to a thread pool the span open where it was
submitted; the clock is :func:`time.monotonic` (system-wide, so the
benchmark process can window a server child's spans by its own
timestamps), and ``count`` is a per-call quantity a name defines (rows
predicted, evaluations, batch size).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

Span = tuple[int, int, str, float, float, float]


class Tracer:
    """In-memory span recorder shared by every traced function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[tuple, Any], float] | None = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.monotonic()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                n = count(args, result) if returned and count is not None else 0
                self.spans.append((span_id, parent, name, start, end, n))

        return traced

    def _stack(self) -> list[int]:
        """This thread's open span ids, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def follow_pools(self) -> None:
        """Record work submitted to a thread pool under the submitter's open span.

        ``ShardingEngine.shard_batch`` fans a batch out to a thread pool,
        whose threads have no open span of their own.
        """
        submit = vars(ThreadPoolExecutor)["submit"]
        tracer = self

        @functools.wraps(submit)
        def traced_submit(executor, fn, /, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return submit(executor, fn, *args, **kwargs)
            parent = stack[-1]

            def adopted(*a, **k):
                worker = tracer._stack()
                worker.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    worker.pop()

            return submit(executor, adopted, *args, **kwargs)

        self._undo.append((ThreadPoolExecutor, "submit", submit))
        ThreadPoolExecutor.submit = traced_submit

    def patch(self, owner: Any, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by its traced version."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            traced = self.wrap(name, getattr(owner, attr), count)
            wrapped: Any = classmethod(lambda cls, *a, **k: traced(*a, **k))
        else:
            wrapped = self.wrap(name, original, count)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _rows(args: tuple, result: Any) -> float:
    return float(len(args[1]))


def _evaluations(args: tuple, result: Any) -> float:
    return float(result.evaluations)


def _specs(args: tuple, result: Any) -> float:
    return float(len(args[2]))


def _jobs(args: tuple, result: Any) -> float:
    return float(len(args[1]))


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer function; returns ``tracer``."""
    import repro.api.server as server_module
    import repro.api.service as service_module
    from repro.api.diff import PlanDiff
    from repro.api.engine import ShardingEngine
    from repro.api.service import ShardingService
    from repro.api.store import PlanStore
    from repro.core.simulator import NeuroShardSimulator
    from repro.costmodel.comm_model import CommCostModel
    from repro.costmodel.compute_model import ComputeCostModel
    from repro.validation.invariants import PlanValidator

    tracer.patch(ComputeCostModel, "predict_rows", "costmodel.predict_rows", _rows)
    tracer.patch(CommCostModel, "predict_batch", "costmodel.comm")
    tracer.patch(
        NeuroShardSimulator, "device_compute_costs_batch", "core.simulator.batch"
    )
    tracer.patch(NeuroShardSimulator, "plan_cost", "core.simulator.plan_cost")
    tracer.patch(ShardingEngine, "shard", "engine.shard", _evaluations)
    tracer.follow_pools()
    # service.py imports these two by name: patch its globals, which is
    # where its calls look them up.
    tracer.patch(service_module, "incremental_reshard", "reshard.incremental")
    tracer.patch(service_module, "link_record", "provenance.link_record")
    tracer.patch(PlanDiff, "between", "diff.between")
    for attr, verb in SERVICE_VERBS.items():
        tracer.patch(
            ShardingService,
            attr,
            f"service.{verb}",
            _specs if attr == "plan_batch" else None,
        )
    for attr in VALIDATION_FUNCTIONS:
        tracer.patch(PlanValidator, attr, f"validation.{attr}")
    for attr in STORE_FUNCTIONS:
        tracer.patch(PlanStore, attr, f"store.{attr}")
    # The server's micro-batcher: one span per batch of plan requests it
    # collected, counting them (it then calls plan_batch once per
    # deployment in the batch).
    tracer.patch(server_module._PlanBatcher, "_dispatch", "server.microbatch", _jobs)
    return tracer


#: ``ShardingService`` method -> verb name of its spans.  HTTP ``plan``
#: goes through ``plan_batch`` (the server's micro-batcher).
SERVICE_VERBS = {
    "plan_batch": "plan",
    "apply": "apply",
    "rollback": "rollback",
    "reshard": "reshard",
    "status": "status",
    "history": "history",
    "validate_deployment": "validate",
    "audit_deployment": "audit",
}
VALIDATION_FUNCTIONS = (
    "validate_record",
    "validate_transition",
    "validate_rollback",
    "validate_history",
)
STORE_FUNCTIONS = ("save_record", "save_state", "load_record")
