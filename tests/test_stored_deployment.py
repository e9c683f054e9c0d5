"""One reader for a stored deployment: every consumer, one verdict.

``ShardingService.open`` (restart recovery), ``audit_deployment`` (the
offline provenance audit) and ``repro validate --store`` all decode a
stored deployment through ``PlanStore.read_deployment``.  Each damage
row below must therefore get the same verdict from all three: ``open``
serves the deployment with a recovery note, and the audit and validate
report a named finding — nothing raises, nothing is silently misread.
"""

import json

import pytest

from repro.api import PlanStore, ShardingEngine, ShardingService
from repro.cli import EXIT_ALL_INFEASIBLE, main
from repro.data.table import TableConfig
from repro.provenance import audit_deployment
from repro.validation import CrashPoint, FaultyFS

TABLES = tuple(
    TableConfig(
        table_id=i, hash_size=2000, dim=16, pooling_factor=4.0,
        zipf_alpha=0.8,
    )
    for i in range(4)
)


@pytest.fixture()
def light_engine(cluster2):
    """A bundle-less engine (dim_greedy default): plans instantly."""
    return ShardingEngine(cluster2)


@pytest.fixture()
def store(tmp_path, light_engine):
    """Two plans applied (stack [1, 2]) plus an unapplied v3."""
    store = PlanStore(tmp_path / "deps")
    service = ShardingService(store)
    service.create_deployment("prod", light_engine, tables=TABLES)
    for _ in range(2):
        service.plan("prod")
        service.apply("prod")
    service.plan("prod")
    return store


def _edit_state(store, **fields):
    path = store.root / "prod" / "state.json"
    state = json.loads(path.read_text())
    state.update(fields)
    path.write_text(json.dumps(state))


def _write(store, relative, payload):
    (store.root / "prod" / relative).write_text(json.dumps(payload))


# damage, the audit's finding code, the needle every consumer's
# message carries, the applied version open serves
ROWS = {
    "memory-bytes-string": (
        lambda store: _edit_state(store, memory_bytes="lots"),
        "chain/state-unreadable",
        "memory_bytes 'lots' is not an integer",
        2,
    ),
    "applied-stack-string": (
        lambda store: _edit_state(store, applied_stack="12"),
        "chain/state-unreadable",
        "applied_stack '12' is not a list of integers",
        None,
    ),
    "state-not-an-object": (
        lambda store: _write(store, "state.json", [1, 2]),
        "chain/state-unreadable",
        "expected an object, got list",
        None,
    ),
    "record-not-an-object": (
        lambda store: _write(store, "plans/v3.json", [1, 2]),
        "chain/unreadable-record",
        "expected an object, got list",
        2,
    ),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_every_consumer_gives_the_same_verdict(
    row, store, light_engine, capsys
):
    damage, code, needle, served = ROWS[row]
    damage(store)

    # open: serves the deployment, notes the repair, never skips.
    service = ShardingService.open(store, lambda meta: light_engine)
    assert service.skipped_deployments == {}
    assert service.status("prod")["applied_version"] == served
    notes = service.recovery_notes["prod"]
    assert any(needle in note for note in notes), notes

    # audit: a named error finding, offline and through the service
    # (whose recovery note the finding confirms).
    report = audit_deployment(store, "prod")
    assert not report.ok
    assert code in report.error_codes
    assert any(needle in f.message for f in report.errors)
    service_report = service.audit_deployment("prod")
    assert "chain/recovery-unconfirmed" not in {
        f.code for f in service_report.findings
    }

    # validate: the finding on stderr, exit 2.
    exit_code = main(["validate", "--store", str(store.root)])
    captured = capsys.readouterr()
    assert exit_code == EXIT_ALL_INFEASIBLE
    assert needle in captured.err
    assert "Traceback" not in captured.err


def test_bad_budget_keeps_the_applied_stack(store, light_engine):
    """A malformed budget is its own error: open keeps serving v2 under
    the applied record's budget, and the audit still re-validates the
    parsed stack."""
    _edit_state(store, memory_bytes="lots")
    stored = store.read_deployment("prod")
    assert stored.state.applied_stack == (1, 2)
    assert stored.state.memory_bytes is None
    assert set(stored.state.errors) == {"memory_bytes"}
    service = ShardingService.open(store, lambda meta: light_engine)
    assert service.status("prod")["memory_bytes"] == (
        service.get_record("prod", 2).memory_bytes
    )
    assert audit_deployment(store, "prod").applied_stack == (1, 2)


def test_integral_float_budget_is_stored_as_an_int(tmp_path, light_engine):
    """The service writes what its reader accepts: a budget passed as an
    integral float reopens clean instead of reading as damage."""
    store = PlanStore(tmp_path / "deps")
    service = ShardingService(store)
    service.create_deployment(
        "prod", light_engine, tables=TABLES, memory_bytes=float(2**30)
    )
    service.plan("prod")
    service.apply("prod")
    assert store.read_deployment("prod").state.memory_bytes == 2**30
    reopened = ShardingService.open(store, lambda meta: light_engine)
    assert reopened.recovery_notes == {}
    assert audit_deployment(store, "prod").ok


def test_validate_survives_a_create_that_crashed(tmp_path, light_engine):
    """A deployment whose metadata never reached disk still validates:
    the reader reports the missing file instead of raising."""
    fs = FaultyFS()
    service = ShardingService(PlanStore(tmp_path / "deps", fs=fs))
    fs.arm("meta#write")
    with pytest.raises(CrashPoint):
        service.create_deployment("prod", light_engine, tables=TABLES)
    assert service.validate_deployment("prod").ok


class TestReader:
    def test_clean_store_decodes_without_errors(self, store):
        stored = store.read_deployment("prod")
        assert stored.meta["name"] == "prod"
        assert [r.version for r in stored.records] == [1, 2, 3]
        assert all(r.raw and r.payload for r in stored.records)
        assert stored.state.applied_stack == (1, 2)
        assert isinstance(stored.state.memory_bytes, int)
        assert stored.state.provenance is not None
        assert stored.errors == []

    @pytest.mark.parametrize(
        "stack", [[1, True], [1, 2.0], [1, "2"], {"1": 2}, 12]
    )
    def test_applied_stack_must_be_a_list_of_ints(self, store, stack):
        _edit_state(store, applied_stack=stack)
        state = store.read_deployment("prod").state
        assert state.applied_stack == ()
        assert set(state.errors) == {"applied_stack"}

    @pytest.mark.parametrize("memory", [1.5, True, "123"])
    def test_memory_bytes_must_be_an_int(self, store, memory):
        _edit_state(store, memory_bytes=memory)
        state = store.read_deployment("prod").state
        assert state.memory_bytes is None
        assert state.applied_stack == (1, 2)
        assert set(state.errors) == {"memory_bytes"}

    def test_torn_record_keeps_its_raw_bytes(self, store):
        path = store.root / "prod" / "plans" / "v2.json"
        torn = path.read_bytes()[:40]
        path.write_bytes(torn)
        record = store.read_deployment("prod").records[1]
        assert record.raw == torn
        assert record.payload is None
        assert "JSONDecodeError" in record.error

    def test_future_metadata_schema_is_a_meta_error(self, store):
        path = store.root / "prod" / "deployment.json"
        meta = json.loads(path.read_text())
        meta["schema_version"] = 99
        path.write_text(json.dumps(meta))
        stored = store.read_deployment("prod")
        assert stored.meta is None
        assert "schema version 99" in stored.meta_error
        assert stored.errors[0].startswith("meta: unreadable")

    def test_missing_state_is_empty_not_an_error(self, store):
        (store.root / "prod" / "state.json").unlink()
        state = store.read_deployment("prod").state
        assert state.applied_stack == () and state.errors == {}

    def test_missing_deployment_is_a_meta_error(self, store):
        stored = store.read_deployment("nope")
        assert stored.meta is None and "FileNotFoundError" in stored.meta_error
        assert stored.records == () and stored.state.errors == {}
