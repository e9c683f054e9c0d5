"""Unit tests of the provenance chain primitives and service wiring.

The digest discipline under test (see ``repro/provenance/chain.py``):
canonical digests survive JSON round-trips, the two-digest scheme keeps
validation stamps out of their own input while chain links cover the
report, and every record the service persists carries a verifiable link
back to the deployment metadata's genesis digest.
"""

import json

import pytest

from repro.api import PlanStore, ShardingEngine, ShardingService
from repro.data.table import TableConfig
from repro.provenance import (
    ProvenanceLink,
    chain_digest,
    content_digest,
    genesis_digest,
    link_digest_of_payload,
    link_record,
    raw_digest,
    record_digest,
    stamp_fingerprint,
    state_digest,
    state_stamp,
)
from repro.utils import source_fingerprint

TABLES = tuple(
    TableConfig(
        table_id=i, hash_size=2000, dim=16, pooling_factor=4.0,
        zipf_alpha=0.8,
    )
    for i in range(4)
)


@pytest.fixture()
def lifecycle(tmp_path, cluster2):
    """A store-backed deployment with a few versions of history."""
    store = PlanStore(tmp_path / "deps")
    service = ShardingService(store)
    service.create_deployment("prod", ShardingEngine(cluster2), tables=TABLES)
    service.plan("prod")
    service.apply("prod")
    service.plan("prod")
    service.apply("prod", version=2)
    return store, service


class TestDigests:
    def test_digests_are_key_order_independent(self):
        a = {"x": 1, "y": [1, 2], "z": {"a": 1, "b": 2}}
        b = {"z": {"b": 2, "a": 1}, "y": [1, 2], "x": 1}
        assert content_digest(a) == content_digest(b)
        assert record_digest(a) == record_digest(b)

    def test_digests_are_domain_separated(self):
        payload = {"version": 1}
        digests = {
            content_digest(payload),
            record_digest(payload),
            genesis_digest(payload),
            raw_digest(json.dumps(payload).encode()),
        }
        assert len(digests) == 4

    def test_record_digest_ignores_validation_and_provenance(self):
        base = {"version": 1, "plan": [1, 2]}
        decorated = dict(base, validation={"ok": True}, provenance={"x": 1})
        assert record_digest(base) == record_digest(decorated)

    def test_content_digest_covers_validation_but_not_provenance(self):
        base = {"version": 1, "plan": [1, 2], "validation": {"ok": True}}
        assert content_digest(base) != content_digest(
            dict(base, validation={"ok": False})
        )
        assert content_digest(base) == content_digest(
            dict(base, provenance={"x": 1})
        )

    def test_chain_digest_binds_version_and_link(self):
        base = chain_digest(3, 2, "p" * 64, "c" * 64)
        assert base != chain_digest(4, 2, "p" * 64, "c" * 64)
        assert base != chain_digest(3, 1, "p" * 64, "c" * 64)
        assert base != chain_digest(3, 2, "q" * 64, "c" * 64)
        assert base != chain_digest(3, 2, "p" * 64, "d" * 64)

    def test_link_round_trips(self):
        payload = {"version": 5, "plan": None}
        link = link_record(payload, 4, "p" * 64)
        assert ProvenanceLink.from_dict(link.to_dict()) == link
        assert link.chain_digest == chain_digest(
            5, 4, "p" * 64, content_digest(payload)
        )

    def test_link_digest_of_payload_prefers_stored_chain_digest(self):
        payload = {"version": 5, "plan": None}
        link = link_record(payload, 4, "p" * 64)
        chained = dict(payload, provenance=link.to_dict())
        assert link_digest_of_payload(chained) == link.chain_digest
        assert link_digest_of_payload(payload) == content_digest(payload)

    def test_state_stamp_self_verifies(self):
        stamp = state_stamp([1, 2], 1024, 2, "a" * 64)
        assert stamp["digest"] == state_digest([1, 2], 1024, 2, "a" * 64)
        assert stamp["digest"] != state_digest([1], 1024, 2, "a" * 64)

    def test_stamp_fingerprint_is_cached_and_stable(self):
        assert stamp_fingerprint() == stamp_fingerprint()
        assert len(stamp_fingerprint()) == 64


class TestSharedFingerprint:
    def test_bundle_fingerprint_delegates_to_shared_helper(self):
        entries = ("config.py", "costmodel", "data", "hardware", "nn")
        assert source_fingerprint(*entries) == source_fingerprint(*entries)
        # Different entry sets produce different digests.
        assert source_fingerprint("config.py") != source_fingerprint(*entries)

    def test_fingerprint_matches_committed_bundle_caches(self):
        """The shared helper must reproduce the digest historical bundle
        caches were written with — otherwise every committed bundle
        would spuriously retrain."""
        import pathlib

        cache = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "_cache"
        )
        fingerprints = sorted(cache.glob("*/code_fingerprint.txt"))
        if not fingerprints:
            pytest.skip("no committed bundle caches")
        current = source_fingerprint(
            "config.py", "costmodel", "data", "hardware", "nn"
        )
        for path in fingerprints:
            assert path.read_text().strip() == current, (
                f"{path} was written by different source; bundles would "
                "retrain — regenerate the caches if the change is real"
            )


class TestServiceWiring:
    def test_records_carry_verifiable_links(self, lifecycle):
        store, service = lifecycle
        meta = store.read_deployment("prod").meta
        genesis = genesis_digest(meta)
        v1 = store.load_record("prod", 1)
        v2 = store.load_record("prod", 2)
        assert v1["provenance"]["prev_version"] == 0
        assert v1["provenance"]["prev_digest"] == genesis
        assert v1["provenance"]["content_digest"] == content_digest(v1)
        assert v2["provenance"]["prev_version"] == 1
        assert v2["provenance"]["prev_digest"] == v1["provenance"]["chain_digest"]

    def test_validation_reports_are_stamped(self, lifecycle):
        store, _ = lifecycle
        payload = store.load_record("prod", 1)
        validation = payload["validation"]
        assert validation["code_fingerprint"] == stamp_fingerprint()
        assert validation["validated_digest"] == record_digest(payload)

    def test_state_is_stamped_and_anchored(self, lifecycle):
        store, _ = lifecycle
        state = store.read_deployment("prod").state
        stamp = state.provenance
        assert stamp["anchor_version"] == 2
        v2 = store.load_record("prod", 2)
        assert stamp["anchor_digest"] == v2["provenance"]["chain_digest"]
        assert stamp["digest"] == state_digest(
            list(state.applied_stack), state.memory_bytes, 2,
            stamp["anchor_digest"],
        )

    def test_records_survive_round_trip_with_provenance(self, lifecycle):
        from repro.api.service import PlanRecord

        store, _ = lifecycle
        payload = store.load_record("prod", 2)
        assert PlanRecord.from_dict(payload).to_dict() == payload

    def test_storeless_service_still_chains(self, cluster2):
        service = ShardingService(store=None)
        service.create_deployment(
            "mem", ShardingEngine(cluster2), tables=TABLES
        )
        r1 = service.plan("mem")
        service.apply("mem")
        r2 = service.plan("mem")
        assert r1.provenance is not None
        assert r2.provenance is not None
        assert r2.provenance.prev_version == 1
        assert r2.provenance.prev_digest == r1.provenance.chain_digest

    def test_reopened_service_continues_the_chain(self, lifecycle, cluster2):
        store, _ = lifecycle
        engine = ShardingEngine(cluster2)
        reopened = ShardingService.open(store, lambda meta: engine)
        record = reopened.plan("prod")
        v_prev = store.load_record("prod", record.version - 1)
        assert record.provenance.prev_version == record.version - 1
        assert (
            record.provenance.prev_digest
            == v_prev["provenance"]["chain_digest"]
        )

    def test_unstamped_validation_serializes_without_stamp_keys(self):
        """Legacy byte-identity: a report without stamps must serialize
        exactly as it did before the stamp fields existed."""
        from repro.validation import ValidationReport

        report = ValidationReport(subject="x", checks=("a",))
        assert "code_fingerprint" not in report.to_dict()
        assert "validated_digest" not in report.to_dict()
        stamped = report.stamped("f" * 64, "d" * 64)
        assert stamped.to_dict()["code_fingerprint"] == "f" * 64
        assert ValidationReport.from_dict(stamped.to_dict()) == stamped
