"""Offline auditor behavior: localization, legacy stores, determinism.

The contract under test (ISSUE 8 acceptance): on a lifecycle store with
several versions, flipping one byte in any middle record — or deleting
or reordering any record file — makes the audit fail and name the first
broken version, while an untampered store (including a pre-chain legacy
store) audits clean offline with no engine or bundle loaded.
"""

import json
import shutil

import pytest

from repro.api import PlanStore, ShardingEngine, ShardingService
from repro.data.table import TableConfig
from repro.provenance import audit_deployment, audit_store

TABLES = tuple(
    TableConfig(
        table_id=i, hash_size=2000, dim=16, pooling_factor=4.0,
        zipf_alpha=0.8,
    )
    for i in range(4)
)


def _build_store(root, cluster, versions=5):
    """A store-backed deployment with ``versions`` recorded plans."""
    store = PlanStore(root)
    service = ShardingService(store)
    service.create_deployment("prod", ShardingEngine(cluster), tables=TABLES)
    service.plan("prod")
    service.apply("prod")
    for _ in range(versions - 1):
        service.plan("prod")
    service.apply("prod", version=2)
    return store


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, cluster2):
    """A session-built 5-version store, copied per test for mutation."""
    root = tmp_path_factory.mktemp("audit") / "deps"
    _build_store(root, cluster2)
    return root


@pytest.fixture()
def store_copy(pristine, tmp_path):
    shutil.copytree(pristine, tmp_path / "deps")
    return PlanStore(tmp_path / "deps")


def _record_path(store, version):
    return store.root / "prod" / "plans" / f"v{version}.json"


class TestCleanStore:
    def test_audits_clean_with_no_engine_or_bundle(self, store_copy):
        report = audit_deployment(store_copy, "prod")
        assert report.ok, [f.to_dict() for f in report.findings]
        assert report.findings == ()  # not even advisories
        assert report.versions == (1, 2, 3, 4, 5)
        assert report.applied_stack == (1, 2)
        assert report.first_broken_version is None

    def test_audit_is_deterministic(self, store_copy):
        first = json.dumps(audit_deployment(store_copy, "prod").to_dict())
        second = json.dumps(audit_deployment(store_copy, "prod").to_dict())
        assert first == second

    def test_audit_store_covers_all_deployments(self, store_copy):
        reports = audit_store(store_copy)
        assert [r.deployment for r in reports] == ["prod"]
        assert all(r.ok for r in reports)

    def test_unknown_deployment_raises(self, store_copy):
        with pytest.raises(FileNotFoundError):
            audit_deployment(store_copy, "nope")


class TestTamperLocalization:
    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_edited_middle_record_is_pinpointed(self, store_copy, version):
        path = _record_path(store_copy, version)
        data = json.loads(path.read_text())
        data["simulated_cost_ms"] = 123.456
        path.write_text(json.dumps(data, indent=1))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert report.first_broken_version == version
        assert "chain/content-mismatch" in report.error_codes
        # Localized: no *error* findings on any other version.
        assert {f.version for f in report.errors} == {version}

    @pytest.mark.parametrize("claimed", [0, 7])
    def test_tampered_version_field_blames_the_file(self, store_copy, claimed):
        """A flip of the version *field* must not misdirect the blame to
        a version with no file to restore — the validator's findings
        name the claimed version, the audit re-anchors them at the file
        making the claim."""
        path = _record_path(store_copy, 2)
        data = json.loads(path.read_text())
        data["version"] = claimed
        path.write_text(json.dumps(data, indent=1))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert "chain/version-mismatch" in report.error_codes
        assert report.first_broken_version == 2
        assert all(f.version in report.versions for f in report.errors)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_deleted_record_is_blamed_at_the_deleted_version(
        self, store_copy, version
    ):
        _record_path(store_copy, version).unlink()
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert report.first_broken_version == version
        assert "chain/missing-record" in report.error_codes

    def test_reordered_records_are_detected(self, store_copy):
        a, b = _record_path(store_copy, 3), _record_path(store_copy, 4)
        a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
        a.write_bytes(b_bytes)
        b.write_bytes(a_bytes)
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert report.first_broken_version == 3
        assert "chain/version-mismatch" in report.error_codes

    def test_validation_report_tamper_is_detected(self, store_copy):
        """The chain covers the validation report: quietly blessing a
        failed verdict breaks the content digest."""
        path = _record_path(store_copy, 3)
        data = json.loads(path.read_text())
        data["validation"]["checks"] = []
        path.write_text(json.dumps(data, indent=1))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert report.first_broken_version == 3
        assert "chain/content-mismatch" in report.error_codes

    def test_recomputed_forgery_breaks_at_the_successor(self, store_copy):
        """An attacker who edits v3 *and* recomputes v3's own digests
        consistently still breaks v4's committed link — detection is
        preserved, localized to the first record that disagrees."""
        from repro.provenance import link_record, record_digest

        path = _record_path(store_copy, 3)
        data = json.loads(path.read_text())
        data["simulated_cost_ms"] = 123.456
        data["validation"]["validated_digest"] = record_digest(data)
        old_link = data["provenance"]
        data["provenance"] = link_record(
            data, old_link["prev_version"], old_link["prev_digest"]
        ).to_dict()
        path.write_text(json.dumps(data, indent=1))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert report.first_broken_version == 4
        assert "chain/broken-link" in report.error_codes

    @pytest.mark.parametrize("anchor", [2.7, "2", True])
    def test_coercible_stamp_anchor_is_malformed(self, store_copy, anchor):
        """The applied stack tops out at v2: an anchor that only int()
        would read as v2 is a malformed stamp, not a match."""
        state_path = store_copy.root / "prod" / "state.json"
        state = json.loads(state_path.read_text())
        state["provenance"]["anchor_version"] = anchor
        state_path.write_text(json.dumps(state, indent=2))
        report = audit_deployment(store_copy, "prod")
        assert "chain/state-mismatch" in report.error_codes
        assert any("malformed provenance stamp" in f.message for f in report.errors)

    def test_truncated_applied_stack_is_detected(self, store_copy):
        state_path = store_copy.root / "prod" / "state.json"
        state = json.loads(state_path.read_text())
        state["applied_stack"] = state["applied_stack"][:-1]
        state_path.write_text(json.dumps(state, indent=2))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert "chain/state-mismatch" in report.error_codes

    def test_edited_memory_budget_is_detected(self, store_copy):
        state_path = store_copy.root / "prod" / "state.json"
        state = json.loads(state_path.read_text())
        state["memory_bytes"] = state["memory_bytes"] * 2
        state_path.write_text(json.dumps(state, indent=2))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert "chain/state-mismatch" in report.error_codes

    def test_edited_metadata_breaks_the_genesis_anchor(self, store_copy):
        meta_path = store_copy.root / "prod" / "deployment.json"
        meta = json.loads(meta_path.read_text())
        meta["memory_bytes"] = meta["memory_bytes"] * 2
        meta_path.write_text(json.dumps(meta, indent=2))
        report = audit_deployment(store_copy, "prod")
        assert not report.ok
        assert report.first_broken_version == 1
        assert "chain/broken-link" in report.error_codes


class TestLegacyStore:
    @pytest.fixture()
    def legacy_store(self, store_copy):
        """A pre-PR-8 store: chain fields and stamps stripped in place."""
        for version in store_copy.versions("prod"):
            path = _record_path(store_copy, version)
            data = json.loads(path.read_text())
            data.pop("provenance", None)
            if data.get("validation"):
                data["validation"].pop("code_fingerprint", None)
                data["validation"].pop("validated_digest", None)
            path.write_text(json.dumps(data, indent=1))
        state_path = store_copy.root / "prod" / "state.json"
        state = json.loads(state_path.read_text())
        state.pop("provenance", None)
        state_path.write_text(json.dumps(state, indent=2))
        return store_copy

    def test_legacy_store_audits_clean_with_advisories(self, legacy_store):
        report = audit_deployment(legacy_store, "prod")
        assert report.ok, [f.to_dict() for f in report.findings]
        codes = {f.code for f in report.advisories}
        assert "chain/legacy-record" in codes
        assert "chain/legacy-state" in codes

    def test_legacy_store_still_opens_and_serves(self, legacy_store, cluster2):
        engine = ShardingEngine(cluster2)
        service = ShardingService.open(legacy_store, lambda meta: engine)
        assert service.recovery_notes == {}
        assert service.status("prod")["applied_version"] == 2
        assert service.validate_deployment("prod").ok

    def test_new_records_chain_over_legacy_history(self, legacy_store, cluster2):
        """A legacy store upgraded in place: the first post-upgrade
        record links to the legacy predecessor's content digest."""
        from repro.provenance import content_digest

        engine = ShardingEngine(cluster2)
        service = ShardingService.open(legacy_store, lambda meta: engine)
        record = service.plan("prod")
        assert record.provenance is not None
        prev = legacy_store.load_record("prod", record.version - 1)
        assert record.provenance.prev_digest == content_digest(prev)
        report = audit_deployment(legacy_store, "prod")
        assert report.ok, [f.to_dict() for f in report.findings]

    def test_legacy_tamper_is_still_advisory_only(self, legacy_store):
        """Without chain fields the auditor cannot prove tampering from
        digests alone — but the validator re-run still catches edits
        that break invariants, and the audit never crashes."""
        report = audit_deployment(legacy_store, "prod")
        assert report.ok


class TestServiceAudit:
    def test_storeless_service_refuses(self, cluster2):
        service = ShardingService(store=None)
        service.create_deployment(
            "mem", ShardingEngine(cluster2), tables=TABLES
        )
        with pytest.raises(ValueError, match="store"):
            service.audit_deployment("mem")

    def test_unknown_deployment_raises(self, store_copy, cluster2):
        engine = ShardingEngine(cluster2)
        service = ShardingService.open(store_copy, lambda meta: engine)
        with pytest.raises(FileNotFoundError):
            service.audit_deployment("nope")

    def test_recovery_notes_are_cross_checked(self, store_copy, cluster2):
        """Damage open() recovered from must be visible to the audit;
        a note blaming an undamaged version is flagged as unconfirmed."""
        path = _record_path(store_copy, 4)
        path.write_bytes(path.read_bytes()[:50])
        engine = ShardingEngine(cluster2)
        service = ShardingService.open(store_copy, lambda meta: engine)
        assert "prod" in service.recovery_notes
        report = service.audit_deployment("prod")
        assert not report.ok
        assert report.first_broken_version == 4
        # The note is confirmed by the finding: no unconfirmed advisory.
        assert "chain/recovery-unconfirmed" not in {
            f.code for f in report.findings
        }

    def test_unconfirmed_recovery_note_is_advisory(self, store_copy, cluster2):
        engine = ShardingEngine(cluster2)
        service = ShardingService.open(store_copy, lambda meta: engine)
        service.recovery_notes["prod"] = [
            "dropped unreadable plan record v3 (stale note)"
        ]
        report = service.audit_deployment("prod")
        assert report.ok  # advisory, not error
        advisory_codes = [f.code for f in report.advisories]
        assert "chain/recovery-unconfirmed" in advisory_codes
