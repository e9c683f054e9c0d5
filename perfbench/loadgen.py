"""Single-process HTTP load generator: one thread per keep-alive connection.

Open loops send each request when it is due, late or not, and time it
from its due time, so a stall also charges the requests queued behind
it; how late the generator itself ran is each sample's ``lag_s``.
Closed loops send the next request when the previous reply arrived.
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from perfbench.inputs import Request
from perfbench.metrics import Sample

#: Verbs whose reply the generator parses to check and score it.
_PARSED = ("plan", "apply", "rollback", "reshard", "validate", "audit")


class Connection:
    """One keep-alive HTTP connection to the server child."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        """Send one request; ``(status, body)``, status 0 on a broken connection."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            return 0, b""

    def close(self) -> None:
        self._conn.close()


def _check(verb: str, status: int, raw: bytes) -> tuple[bool, dict]:
    """Whether a reply is a success, plus the fields the metrics need."""
    if not 200 <= status < 300:
        return False, {"status": status}
    if verb not in _PARSED:
        return True, {}
    body = json.loads(raw)
    if verb in ("validate", "audit"):
        return bool(body["ok"]), {}
    validation = body.get("validation") or {}
    info = {
        "feasible": bool(body["feasible"]),
        "cost_ms": body["simulated_cost_ms"],
        "objective_ms": (body.get("metadata") or {}).get("objective_ms"),
    }
    return info["feasible"] and validation.get("ok", False), info


def send(conn: Connection, request: Request, due: float | None = None) -> Sample:
    """Send one request and check its reply."""
    sent = time.monotonic()
    status, raw = conn.call(request.method, request.path, request.body)
    done = time.monotonic()
    ok, info = _check(request.verb, status, raw)
    return Sample(request.verb, sent if due is None else due, sent, done, ok, info)


def open_loop(conn: Connection, schedule: list[Request], start: float) -> list[Sample]:
    """Send ``schedule`` on its due times (offsets from ``start``)."""
    samples = []
    for request in schedule:
        due = start + request.due_s
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        samples.append(send(conn, request, due))
    return samples


def closed_loop(
    call: Callable[[], Sample], end: float, minimum: int
) -> tuple[list[Sample], list[Sample]]:
    """Repeat ``call`` back to back until ``end``; ``(timed, extra)`` samples.

    Calls made before ``end`` are timed.  When fewer than ``minimum``
    were, the loop goes on untimed until it has ``minimum`` replies, so
    quality metrics over the first ``minimum`` always see the same
    requests.
    """
    timed: list[Sample] = []
    extra: list[Sample] = []
    while time.monotonic() < end or len(timed) + len(extra) < minimum:
        (timed if time.monotonic() < end else extra).append(call())
    return timed, extra


def run_threads(jobs: list[Callable[[], list]]) -> list[list]:
    """Run each job on its own thread; their results in job order."""
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result() for future in futures]
