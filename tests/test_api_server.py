"""Tests for the lifecycle HTTP server (repro.api.server)."""

import dataclasses
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    ShardingEngine,
    ShardingHTTPServer,
    ShardingRequest,
    ShardingService,
)
from repro.data.io import table_to_dict
from repro.data.tasks import ShardingTask


@pytest.fixture(scope="module")
def engine(cluster2, tiny_bundle):
    return ShardingEngine(cluster2, tiny_bundle)


@pytest.fixture()
def server(engine, tasks2):
    service = ShardingService()
    service.create_deployment("prod", engine, tables=tasks2[0].tables)
    server = ShardingHTTPServer(
        service, engine, port=0, max_batch=4, batch_wait_s=0.02
    )
    server.start()
    yield server
    server.close()


def _get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, body):
    url = f"http://127.0.0.1:{server.port}{path}"
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutes:
    def test_strategies_listing(self, server):
        status, payload = _get(server, "/v1/strategies")
        assert status == 200
        names = {s["name"] for s in payload["strategies"]}
        assert {"beam", "dim_greedy", "random"} <= names

    def test_deployments_listing(self, server):
        status, payload = _get(server, "/v1/deployments")
        assert status == 200
        assert payload == {"deployments": ["prod"]}

    def test_status_and_history(self, server):
        _post(server, "/v1/deployments/prod/plan", {})
        status, payload = _get(server, "/v1/deployments/prod/status")
        assert status == 200
        assert payload["name"] == "prod"
        assert payload["num_records"] == 1
        # The store-recovery audit trail is part of the HTTP status
        # surface (empty for this in-memory service, but present).
        assert payload["recovery_notes"] == []
        status, payload = _get(server, "/v1/deployments/prod/history")
        assert status == 200
        assert [r["version"] for r in payload["history"]] == [1]

    def test_unknown_deployment_is_404(self, server):
        status, payload = _post(server, "/v1/deployments/nope/plan", {})
        assert status == 404
        assert "nope" in payload["error"]

    def test_unknown_path_is_404(self, server):
        status, _ = _post(server, "/v1/deployments/prod/frobnicate", {})
        assert status == 404

    def test_bad_body_is_400(self, server):
        status, payload = _post(server, "/v1/deployments/prod/reshard", {})
        assert status == 400
        assert "delta" in payload["error"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"max_refine_step": 1}, "unknown ReshardConfig knobs"),
            ({"allow_full_search": "false"}, "allow_full_search must be a bool"),
            ({"migration_budget_ms": "5"}, "migration_budget_ms must be a number"),
        ],
    )
    def test_bad_reshard_config_is_400(self, server, config, message):
        _post(server, "/v1/deployments/prod/plan", {})
        _post(server, "/v1/deployments/prod/apply", {})
        delta = {"schema_version": 1, "remove_table_ids": [], "drift": None}
        status, payload = _post(
            server,
            "/v1/deployments/prod/reshard",
            {"delta": delta, "config": config},
        )
        assert status == 400
        assert message in payload["error"]

    @pytest.mark.parametrize("apply", ["false", 0, "yes"])
    def test_reshard_apply_must_be_a_bool(self, server, apply):
        _post(server, "/v1/deployments/prod/plan", {"strategy": "dim_greedy"})
        _post(server, "/v1/deployments/prod/apply", {})
        delta = {"schema_version": 1, "remove_table_ids": [], "drift": None}
        status, payload = _post(
            server,
            "/v1/deployments/prod/reshard",
            {"delta": delta, "apply": apply},
        )
        assert status == 400
        assert "'apply' must be a JSON bool" in payload["error"]
        # Nothing was resharded, let alone applied.
        _, state = _get(server, "/v1/deployments/prod/status")
        assert state["num_records"] == 1 and state["applied_version"] == 1

    @pytest.mark.parametrize("version", [2.9, True, "2"])
    def test_apply_version_must_be_an_int(self, server, version):
        _post(server, "/v1/deployments/prod/plan", {"strategy": "dim_greedy"})
        _post(server, "/v1/deployments/prod/plan", {"strategy": "dim_greedy"})
        status, payload = _post(
            server, "/v1/deployments/prod/apply", {"version": version}
        )
        assert status == 400
        assert "'version' must be a JSON int" in payload["error"]
        _, state = _get(server, "/v1/deployments/prod/status")
        assert state["applied_version"] is None

    @pytest.mark.parametrize("memory_bytes", [1.5e9, True, "4096"])
    def test_create_memory_bytes_must_be_an_int(
        self, server, tasks2, memory_bytes
    ):
        body = {
            "name": "canary",
            "tables": [table_to_dict(t) for t in tasks2[2].tables],
            "memory_bytes": memory_bytes,
        }
        status, payload = _post(server, "/v1/deployments", body)
        assert status == 400
        assert "'memory_bytes' must be a JSON int" in payload["error"]
        _, listing = _get(server, "/v1/deployments")
        assert listing["deployments"] == ["prod"]


class TestLifecycleOverHTTP:
    def test_plan_apply_reshard_rollback_round_trip(self, server, tasks2):
        status, v1 = _post(
            server, "/v1/deployments/prod/plan", {"strategy": "beam"}
        )
        assert status == 200 and v1["feasible"]
        status, applied = _post(server, "/v1/deployments/prod/apply", {})
        assert status == 200 and applied["version"] == v1["version"]

        added = [
            table_to_dict(dataclasses.replace(t, table_id=91_000 + i))
            for i, t in enumerate(tasks2[1].tables[:2])
        ]
        delta = {
            "schema_version": 1,
            "add_tables": added,
            "remove_table_ids": [],
            "drift": None,
        }
        status, v2 = _post(
            server,
            "/v1/deployments/prod/reshard",
            {"delta": delta, "config": {"migration_budget_ms": 1e9}},
        )
        assert status == 200 and v2["feasible"]
        assert v2["kind"] == "reshard"
        assert v2["diff"] is not None

        status, restored = _post(
            server, "/v1/deployments/prod/rollback", {}
        )
        assert status == 200
        assert restored["version"] == v1["version"]
        assert restored["plan"] == v1["plan"]

    def test_create_deployment_over_http(self, server, tasks2):
        body = {
            "name": "canary",
            "tables": [table_to_dict(t) for t in tasks2[2].tables],
        }
        status, payload = _post(server, "/v1/deployments", body)
        assert status == 200
        assert payload["name"] == "canary"
        status, payload = _get(server, "/v1/deployments")
        assert payload["deployments"] == ["canary", "prod"]


class TestConcurrencyAndBatching:
    def test_concurrent_plans_match_sequential_engine(
        self, server, engine, tasks2
    ):
        """Acceptance: concurrent HTTP plans == sequential engine.shard."""
        task = ShardingTask(
            tables=tasks2[0].tables,
            num_devices=tasks2[0].num_devices,
            memory_bytes=engine.cluster.config.memory_bytes,
        )
        expected = engine.shard(ShardingRequest(task, strategy="beam"))

        def plan(i):
            return _post(
                server,
                "/v1/deployments/prod/plan",
                {"strategy": "beam", "request_id": f"c{i}"},
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(plan, range(6)))
        versions = set()
        for status, record in results:
            assert status == 200
            assert record["feasible"]
            assert record["plan"]["assignment"] == list(expected.plan.assignment)
            assert record["plan"]["column_plan"] == list(expected.plan.column_plan)
            assert record["simulated_cost_ms"] == expected.simulated_cost_ms
            versions.add(record["version"])
        # Every request got its own record version.
        assert len(versions) == 6
        assert {r["request_id"] for _, r in results} == {
            f"c{i}" for i in range(6)
        }

    def test_start_request_shutdown_round_trip(self, engine, tasks2):
        """The CI smoke: boot a fresh server, serve one plan, shut down."""
        service = ShardingService()
        service.create_deployment("smoke", engine, tables=tasks2[0].tables)
        server = ShardingHTTPServer(service, engine, port=0)
        server.start()
        try:
            status, record = _post(
                server, "/v1/deployments/smoke/plan", {"strategy": "dim_greedy"}
            )
            assert status == 200
            assert record["strategy"] == "dim_greedy"
        finally:
            server.close()
        # The socket is released: a fresh server can bind immediately.
        again = ShardingHTTPServer(service, engine, port=0)
        again.start()
        again.close()


class TestKeepAliveBodyDrain:
    def test_404_with_body_does_not_desync_the_connection(self, server):
        """Persistent connections survive an error response: the unread
        request body must be drained before replying, or the next
        request on the same socket parses garbage."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            body = json.dumps({"x": 1})
            conn.request(
                "POST", "/v1/deployments/prod/frobnicate", body=body,
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 404
            first.read()
            # Same connection: a valid follow-up must still work.
            conn.request("GET", "/v1/deployments")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read()) == {"deployments": ["prod"]}
        finally:
            conn.close()

    def test_rollback_with_body_keeps_connection_synchronized(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/deployments/prod/rollback",
                body=json.dumps({"ignored": True}),
            )
            first = conn.getresponse()
            assert first.status == 400  # nothing applied yet: clean error
            first.read()
            conn.request("GET", "/v1/deployments/prod/status")
            second = conn.getresponse()
            assert second.status == 200
            second.read()
        finally:
            conn.close()


class TestRequestTimeout:
    def test_stalled_client_does_not_pin_a_handler_thread(
        self, engine, tasks2
    ):
        """A client that opens a connection and never finishes its
        request must be torn down by ``request_timeout_s`` — while it
        stalls, other clients are still served."""
        import socket
        import time

        service = ShardingService()
        service.create_deployment("prod", engine, tables=tasks2[0].tables)
        server = ShardingHTTPServer(
            service, engine, port=0, request_timeout_s=1.0
        )
        server.start()
        try:
            stalled = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            )
            # Half a request line, then silence — never a full request.
            stalled.sendall(b"POST /v1/deployments/prod/pl")

            # Parallel traffic is unaffected by the stalled connection.
            status, payload = _get(server, "/v1/deployments")
            assert status == 200 and payload == {"deployments": ["prod"]}

            # The server hangs up on the staller once the socket idles
            # past the timeout: the next read sees EOF, not a hang.
            stalled.settimeout(30)
            deadline = time.monotonic() + 30
            data = b"x"
            while data and time.monotonic() < deadline:
                data = stalled.recv(4096)
            assert data == b"", "stalled connection was never closed"
            stalled.close()

            status, _ = _get(server, "/v1/deployments/prod/status")
            assert status == 200
        finally:
            server.close()

    def test_rejects_nonpositive_timeout(self, engine, tasks2):
        service = ShardingService()
        service.create_deployment("prod", engine, tables=tasks2[0].tables)
        with pytest.raises(ValueError, match="request_timeout_s"):
            ShardingHTTPServer(service, engine, port=0, request_timeout_s=0)


class TestGracefulDrain:
    def test_close_delivers_accepted_plan_jobs(self, engine, tasks2):
        """Plan jobs accepted before shutdown deliver a real outcome:
        the drain waits for in-flight micro-batches instead of dropping
        them on the floor."""
        import http.client
        import threading

        service = ShardingService()
        service.create_deployment("prod", engine, tables=tasks2[0].tables)
        server = ShardingHTTPServer(
            service, engine, port=0, max_batch=4, batch_wait_s=0.05,
            drain_s=30.0,
        )
        server.start()
        results: list[int] = []

        def plan() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            try:
                conn.request(
                    "POST", "/v1/deployments/prod/plan",
                    body=json.dumps({"strategy": "dim_greedy"}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                results.append(response.status)
            finally:
                conn.close()

        threads = [threading.Thread(target=plan) for _ in range(3)]
        for t in threads:
            t.start()
        # The drain covers *accepted* jobs: wait until every request has
        # reached the batcher (still inside the micro-batch collection
        # window), then close — all three must be settled, not dropped.
        import time

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if server.batcher._inflight + len(results) >= 3:
                break
            time.sleep(0.002)
        server.close()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        # Every client got an answer — a planned record (200) or an
        # explicit shutting-down error (500), never a dropped socket.
        assert len(results) == 3
        assert set(results) <= {200, 500}


class TestValidateEndpoint:
    def test_validate_reports_clean_history(self, server):
        _post(server, "/v1/deployments/prod/plan", {"strategy": "dim_greedy"})
        _post(server, "/v1/deployments/prod/apply", {})
        status, payload = _get(server, "/v1/deployments/prod/validate")
        assert status == 200
        assert payload["ok"] is True
        assert payload["subject"] == "deployment:prod"
        assert "state/applied-version" in payload["checks"]
        assert payload["errors"] == []

    def test_validate_unknown_deployment_is_404(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/v1/deployments/nope/validate")
        assert excinfo.value.code == 404

    def test_plan_response_carries_validation_report(self, server):
        status, record = _post(
            server, "/v1/deployments/prod/plan", {"strategy": "dim_greedy"}
        )
        assert status == 200
        assert record["validation"]["ok"] is True
        assert "plan/memory" in record["validation"]["checks"]

    def test_plan_response_carries_provenance_link(self, server):
        status, record = _post(
            server, "/v1/deployments/prod/plan", {"strategy": "dim_greedy"}
        )
        assert status == 200
        link = record["provenance"]
        assert link["prev_version"] == record["version"] - 1
        assert len(link["chain_digest"]) == 64


class TestAuditEndpoint:
    @pytest.fixture()
    def store_server(self, engine, tasks2, tmp_path):
        from repro.api import PlanStore

        service = ShardingService(PlanStore(tmp_path / "deps"))
        service.create_deployment("prod", engine, tables=tasks2[0].tables)
        server = ShardingHTTPServer(service, engine, port=0)
        server.start()
        yield server
        server.close()

    def test_audit_clean_store_backed_deployment(self, store_server):
        _post(store_server, "/v1/deployments/prod/plan", {})
        _post(store_server, "/v1/deployments/prod/apply", {})
        status, payload = _get(store_server, "/v1/deployments/prod/audit")
        assert status == 200
        assert payload["ok"] is True
        assert payload["deployment"] == "prod"
        assert payload["first_broken_version"] is None
        assert payload["findings"] == []

    def test_audit_names_the_tampered_version(self, store_server, tmp_path):
        _post(store_server, "/v1/deployments/prod/plan", {})
        _post(store_server, "/v1/deployments/prod/apply", {})
        _post(store_server, "/v1/deployments/prod/plan", {})
        path = tmp_path / "deps" / "prod" / "plans" / "v1.json"
        data = json.loads(path.read_text())
        data["simulated_cost_ms"] = 1.0
        path.write_text(json.dumps(data))
        status, payload = _get(store_server, "/v1/deployments/prod/audit")
        assert status == 200  # the audit ran; the verdict is in the body
        assert payload["ok"] is False
        assert payload["first_broken_version"] == 1
        codes = {f["code"] for f in payload["findings"]}
        assert "chain/content-mismatch" in codes

    def test_audit_memory_only_service_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/v1/deployments/prod/audit")
        assert excinfo.value.code == 400

    def test_audit_unknown_deployment_is_404(self, store_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(store_server, "/v1/deployments/nope/audit")
        assert excinfo.value.code == 404
