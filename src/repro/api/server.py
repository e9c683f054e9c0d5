"""Async HTTP front-end of the plan-lifecycle service (stdlib only).

A thin JSON-over-HTTP layer on :class:`~repro.api.service
.ShardingService`, built on :class:`http.server.ThreadingHTTPServer`
(one handler thread per connection) plus a **micro-batching queue** for
the hot endpoint: concurrent ``plan`` requests are collected for a few
milliseconds and flushed through the engine's concurrent
:meth:`~repro.api.engine.ShardingEngine.shard_batch` path, so a burst of
``B`` clients costs one batched dispatch instead of ``B`` engine
round-trips — and, because the batch path is sequential-deterministic,
every client still gets exactly the response a lone
:meth:`~repro.api.engine.ShardingEngine.shard` call would have produced.

Endpoints (all bodies and responses are JSON)::

    GET  /v1/strategies                       registry listing
    GET  /v1/deployments                      deployment names
    POST /v1/deployments                      create {name, tables, ...}
    GET  /v1/deployments/<name>/status
    GET  /v1/deployments/<name>/history
    GET  /v1/deployments/<name>/validate      run the invariant suite
    GET  /v1/deployments/<name>/audit         verify the provenance chain
    POST /v1/deployments/<name>/plan          {strategy?, options?, request_id?}
    POST /v1/deployments/<name>/apply         {version?}
    POST /v1/deployments/<name>/reshard       {delta, config?, strategy?, apply?}
    POST /v1/deployments/<name>/rollback

Errors map to HTTP statuses: unknown deployment → 404, invalid input →
400, handler crash → 500; every error body is ``{"error": "..."}``.

Start one with :func:`serve` (blocking, the CLI's ``repro serve``) or
:class:`ShardingHTTPServer` directly (tests embed it)::

    server = ShardingHTTPServer(service, engine, host="127.0.0.1", port=0)
    server.start()           # background thread
    ...                      # http://127.0.0.1:{server.port}/v1/...
    server.close()
"""

from __future__ import annotations

import json
import queue
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.api.engine import ShardingEngine
from repro.api.registry import iter_strategies
from repro.api.reshard import ReshardConfig, WorkloadDelta
from repro.api.service import (
    DeploymentNotFoundError,
    PlanRecord,
    ShardingService,
)
from repro.data.io import table_from_dict

__all__ = ["ShardingHTTPServer", "serve"]

_DEPLOYMENT_PATH = re.compile(
    r"^/v1/deployments/(?P<name>[^/]+)/(?P<verb>[a-z]+)$"
)

#: Upper bound a handler thread waits for its micro-batch to be served.
_PLAN_TIMEOUT_S = 600.0

#: How often the accept loop looks for a :meth:`ShardingHTTPServer.close`
#: request; it bounds how long ``close`` waits (socketserver's default
#: of 0.5 s made every close take half a second on an idle server).
_SHUTDOWN_POLL_S = 0.05


def _body_field(body: Mapping[str, Any], key: str, kind: type, default: Any) -> Any:
    """``body[key]`` when it is exactly a JSON ``kind`` (no coercion:
    ``"false"`` is no bool, ``2.9`` or ``true`` no int), else a 400;
    ``default`` when absent or ``null``."""
    value = body.get(key)
    if value is None:
        return default
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


class _PlanJob:
    """One queued ``plan`` request awaiting its micro-batch."""

    def __init__(
        self,
        deployment: str,
        spec: tuple[str | None, Mapping[str, Any] | None, str],
    ) -> None:
        self.deployment = deployment
        self.spec = spec
        self.event = threading.Event()
        self.record: PlanRecord | None = None
        self.error: Exception | None = None

    def resolve(self, record: PlanRecord) -> None:
        """Deliver the finished record and wake the waiting handler."""
        self.record = record
        self.event.set()

    def fail(self, error: Exception) -> None:
        """Deliver a planning failure and wake the waiting handler."""
        self.error = error
        self.event.set()


class _PlanBatcher(threading.Thread):
    """Collect concurrent plan jobs and flush them through ``plan_batch``.

    The first job of a batch is taken blocking; further jobs are drained
    for at most ``batch_wait_s`` (or until ``max_batch`` are in hand),
    then the batch is grouped by deployment and each group dispatched on
    its own worker thread.  Within one micro-batch a deployment's jobs
    keep their arrival order (spec order = version order); requests
    racing across micro-batches are ordered by the deployment lock, as
    for any concurrent clients.
    """

    def __init__(
        self,
        service: ShardingService,
        max_batch: int = 8,
        batch_wait_s: float = 0.01,
    ) -> None:
        super().__init__(name="plan-batcher", daemon=True)
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self.max_batch = max_batch
        self.batch_wait_s = batch_wait_s
        self._queue: queue.Queue[_PlanJob | None] = queue.Queue()
        self._closed = False
        # In-flight accounting for the graceful drain: a job counts from
        # submit() until resolve()/fail() delivers its outcome.
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    def submit(self, job: _PlanJob) -> None:
        """Enqueue one plan job for the next micro-batch."""
        if self._closed:
            raise RuntimeError("server is shutting down")
        with self._inflight_cv:
            self._inflight += 1
        self._queue.put(job)

    def _settle(self, jobs: list[_PlanJob]) -> None:
        """Mark delivered jobs no longer in flight."""
        with self._inflight_cv:
            self._inflight -= len(jobs)
            self._inflight_cv.notify_all()

    def stop(self, drain_s: float = 0.0) -> None:
        """Stop accepting jobs, then (optionally) drain the in-flight ones.

        With ``drain_s > 0`` the call blocks — up to the deadline —
        until every accepted plan job has been delivered an outcome, so
        a graceful shutdown never strands a client that was already
        promised an answer.  Jobs that raced past the close flag into
        the queue after the batcher thread exited are failed explicitly
        rather than left waiting out their HTTP timeout.
        """
        deadline = time.monotonic() + max(drain_s, 0.0)
        self._closed = True
        self._queue.put(None)
        if drain_s <= 0:
            return
        if self.is_alive():
            self.join(timeout=max(deadline - time.monotonic(), 0.0))
        # The batcher thread is gone; anything still queued will never
        # be dispatched — deliver the failure now.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                job.fail(RuntimeError("server is shutting down"))
                self._settle([job])
        with self._inflight_cv:
            self._inflight_cv.wait_for(
                lambda: self._inflight <= 0,
                timeout=max(deadline - time.monotonic(), 0.0),
            )

    def run(self) -> None:  # pragma: no cover — exercised via HTTP tests
        """Collect jobs into micro-batches and dispatch them."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            batch = [job]
            deadline = time.monotonic() + self.batch_wait_s
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is None:
                    self._dispatch(batch)
                    return
                batch.append(nxt)
            self._dispatch(batch)

    def _dispatch(self, batch: list[_PlanJob]) -> None:
        groups: dict[str, list[_PlanJob]] = {}
        for job in batch:
            groups.setdefault(job.deployment, []).append(job)
        # One worker thread per deployment group, not joined: planning
        # stays serialized *per deployment* (the service's deployment
        # lock orders versions), but deployment B never waits behind
        # deployment A's slow search, and the batcher loop is free to
        # collect the next micro-batch immediately.
        for name, jobs in groups.items():
            threading.Thread(
                target=self._dispatch_group,
                args=(name, jobs),
                name=f"plan-batch-{name}",
                daemon=True,
            ).start()

    def _dispatch_group(self, name: str, jobs: list[_PlanJob]) -> None:
        try:
            records = self.service.plan_batch(name, [job.spec for job in jobs])
        except Exception as exc:  # noqa: BLE001 — service boundary
            for job in jobs:
                job.fail(exc)
        else:
            for job, record in zip(jobs, records):
                job.resolve(record)
        finally:
            self._settle(jobs)


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the service (one thread per connection)."""

    protocol_version = "HTTP/1.1"
    server: "ShardingHTTPServer"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Arm the per-request socket timeout before reading anything.

        One stalled or half-open client must not pin a handler thread
        forever: ``BaseRequestHandler`` applies :attr:`timeout` to the
        connection socket, so a read that sits idle past the server's
        ``request_timeout_s`` raises ``TimeoutError`` and the connection
        is torn down instead of leaking the thread.
        """
        self.timeout = self.server.request_timeout_s
        super().setup()

    def handle(self) -> None:
        """Serve the connection; a mid-body stall tears it down.

        ``BaseHTTPRequestHandler`` only maps a timeout on the *request
        line* to a clean close; a client that stalls mid-headers or
        mid-body instead raises ``TimeoutError`` out of the read.  Catch
        it here so the handler thread always exits.
        """
        try:
            super().handle()
        except TimeoutError:
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Log one line per request only in ``--verbose`` mode."""
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _drain_body(self) -> bytes:
        """Consume the request body (if any) without interpreting it.

        Connections are keep-alive (HTTP/1.1): an error response that
        leaves body bytes unread would desynchronize the next request on
        the same connection, so every path — including 404s — must drain
        before replying.
        """
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    def _read_body(self) -> dict[str, Any]:
        raw = self._drain_body()
        if not raw:
            return {}
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _guard(self, fn, *args) -> None:
        """Run a route handler, mapping exceptions to HTTP statuses."""
        try:
            fn(*args)
        except DeploymentNotFoundError as exc:
            self._send_error_json(404, str(exc.args[0] if exc.args else exc))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 — service boundary
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        """Route the read-only endpoints (strategies/deployments/status/...)."""
        self._drain_body()  # GET handlers never use a body; keep the
        # connection synchronized if a client sent one anyway
        if self.path == "/v1/strategies":
            self._guard(self._get_strategies)
            return
        if self.path == "/v1/deployments":
            self._guard(self._get_deployments)
            return
        match = _DEPLOYMENT_PATH.match(self.path)
        if match and match["verb"] == "status":
            self._guard(self._get_status, match["name"])
            return
        if match and match["verb"] == "history":
            self._guard(self._get_history, match["name"])
            return
        if match and match["verb"] == "validate":
            self._guard(self._get_validate, match["name"])
            return
        if match and match["verb"] == "audit":
            self._guard(self._get_audit, match["name"])
            return
        self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        """Route the mutating endpoints (create/plan/apply/reshard/rollback)."""
        if self.path == "/v1/deployments":
            self._guard(self._post_create)
            return
        match = _DEPLOYMENT_PATH.match(self.path)
        if match:
            verb = match["verb"]
            handlers = {
                "plan": self._post_plan,
                "apply": self._post_apply,
                "reshard": self._post_reshard,
                "rollback": self._post_rollback,
            }
            if verb in handlers:
                self._guard(handlers[verb], match["name"])
                return
        self._drain_body()
        self._send_error_json(404, f"unknown path {self.path!r}")

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------

    def _get_strategies(self) -> None:
        self._send_json(
            200,
            {
                "strategies": [
                    {
                        "name": info.name,
                        "category": info.category,
                        "needs_bundle": info.needs_bundle,
                        "aliases": list(info.aliases),
                        "description": info.description,
                    }
                    for info in iter_strategies()
                ]
            },
        )

    def _get_deployments(self) -> None:
        self._send_json(200, {"deployments": self.server.service.deployments()})

    def _get_status(self, name: str) -> None:
        self._send_json(200, self.server.service.status(name))

    def _get_history(self, name: str) -> None:
        self._send_json(200, {"history": self.server.service.history(name)})

    def _get_validate(self, name: str) -> None:
        # Violations are reported in the body, not as an HTTP error:
        # the validation *ran* successfully either way.
        self._send_json(
            200, self.server.service.validate_deployment(name).to_dict()
        )

    def _get_audit(self, name: str) -> None:
        # As with validate: findings live in the body; the audit itself
        # ran.  A memory-only service has no store to audit → 400.
        try:
            report = self.server.service.audit_deployment(name)
        except FileNotFoundError as exc:
            raise DeploymentNotFoundError(str(exc)) from None
        self._send_json(200, report.to_dict())

    # ------------------------------------------------------------------
    # POST routes
    # ------------------------------------------------------------------

    def _post_create(self) -> None:
        body = self._read_body()
        name = body.get("name")
        if not name:
            raise ValueError("create needs a 'name'")
        tables_data = body.get("tables")
        if not tables_data:
            raise ValueError("create needs a non-empty 'tables' list")
        engine = self.server.engine
        if engine is None:
            raise ValueError(
                "this server was started without an engine; create "
                "deployments through the service API instead"
            )
        status = self.server.service.create_deployment(
            name,
            engine,
            tables=tuple(table_from_dict(t) for t in tables_data),
            memory_bytes=_body_field(body, "memory_bytes", int, None),
            bundle_ref=self.server.bundle_ref,
        )
        self._send_json(200, status)

    def _post_plan(self, name: str) -> None:
        body = self._read_body()
        job = _PlanJob(
            name,
            (
                body.get("strategy"),
                body.get("options") or {},
                str(body.get("request_id", "")),
            ),
        )
        self.server.batcher.submit(job)
        if not job.event.wait(timeout=_PLAN_TIMEOUT_S):
            self._send_error_json(500, "plan request timed out")
            return
        if job.error is not None:
            raise job.error
        assert job.record is not None
        self._send_json(200, job.record.to_dict())

    def _post_apply(self, name: str) -> None:
        body = self._read_body()
        record = self.server.service.apply(
            name, _body_field(body, "version", int, None)
        )
        self._send_json(200, record.to_dict())

    def _post_reshard(self, name: str) -> None:
        body = self._read_body()
        delta_data = body.get("delta")
        if not delta_data:
            raise ValueError("reshard needs a 'delta' object")
        delta = WorkloadDelta.from_dict(delta_data)
        config_data = body.get("config")
        config = (
            None if config_data is None else ReshardConfig.from_dict(config_data)
        )
        record = self.server.service.reshard(
            name,
            delta,
            config=config,
            strategy=body.get("strategy"),
            apply=_body_field(body, "apply", bool, True),
            request_id=str(body.get("request_id", "")),
        )
        self._send_json(200, record.to_dict())

    def _post_rollback(self, name: str) -> None:
        self._drain_body()  # rollback takes no parameters
        record = self.server.service.rollback(name)
        self._send_json(200, record.to_dict())


class ShardingHTTPServer(ThreadingHTTPServer):
    """Threaded JSON server over a :class:`ShardingService`.

    Args:
        service: the lifecycle service to expose.
        engine: engine used by the HTTP ``create`` endpoint for new
            deployments (``None`` disables HTTP creation).
        host / port: bind address (``port=0`` picks a free port).
        max_batch / batch_wait_s: micro-batching knobs of the ``plan``
            endpoint.
        bundle_ref: bundle pointer recorded on HTTP-created deployments.
        verbose: log one line per request to stderr.
        request_timeout_s: per-connection socket timeout — a client that
            stalls (half-open connection, abandoned upload) is torn down
            after this instead of pinning its handler thread forever.
            Conservative by default; it bounds *socket idle time*, not
            planning time (a slow search keeps the handler legitimately
            busy and is bounded separately by the plan-job timeout).
        drain_s: graceful-drain budget of :meth:`close` — how long to
            wait for already-accepted plan jobs to finish before the
            socket goes away (``0`` restores the old drop-everything
            shutdown).
    """

    daemon_threads = True

    def __init__(
        self,
        service: ShardingService,
        engine: ShardingEngine | None = None,
        host: str = "127.0.0.1",
        port: int = 8731,
        max_batch: int = 8,
        batch_wait_s: float = 0.01,
        bundle_ref: str | None = None,
        verbose: bool = False,
        request_timeout_s: float = 60.0,
        drain_s: float = 30.0,
    ) -> None:
        if request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        if drain_s < 0:
            raise ValueError(f"drain_s must be >= 0, got {drain_s}")
        super().__init__((host, port), _Handler)
        self.service = service
        self.engine = engine
        self.bundle_ref = bundle_ref
        self.verbose = verbose
        self.request_timeout_s = request_timeout_s
        self.drain_s = drain_s
        self.batcher = _PlanBatcher(
            service, max_batch=max_batch, batch_wait_s=batch_wait_s
        )
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.server_address[1]

    def start(self) -> None:
        """Serve in a background thread (tests, embedding)."""
        self.batcher.start()
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name="sharding-http",
            daemon=True,
        )
        self._thread.start()

    def run(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self.batcher.start()
        try:
            self.serve_forever(poll_interval=_SHUTDOWN_POLL_S)
        except KeyboardInterrupt:  # pragma: no cover — interactive only
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop serving and release the socket, draining in-flight work.

        Shutdown order is deliberate: first stop *accepting* plan jobs
        and wait (up to :attr:`drain_s`) for the accepted ones to
        deliver their outcome — their handler threads are still writing
        responses on live connections — then stop the accept loop and
        release the listening socket.
        """
        self.batcher.stop(drain_s=self.drain_s)
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve(
    service: ShardingService,
    engine: ShardingEngine | None = None,
    host: str = "127.0.0.1",
    port: int = 8731,
    **kwargs: Any,
) -> None:
    """Blocking convenience wrapper: build the server and run it."""
    ShardingHTTPServer(service, engine, host=host, port=port, **kwargs).run()
