"""Property-based tamper detection over the provenance chain.

Hypothesis drives arbitrary byte flips, record deletions, reorderings,
and applied-stack truncations against a real lifecycle store and asserts
the offline auditor either detects the tamper or the mutation was
semantically null (the canonical payload did not change — e.g. a flip
inside JSON whitespace).
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import PlanStore, ShardingEngine, ShardingService
from repro.data.table import TableConfig
from repro.provenance import audit_deployment, canonical_bytes

TABLES = tuple(
    TableConfig(
        table_id=i, hash_size=2000, dim=16, pooling_factor=4.0,
        zipf_alpha=0.8,
    )
    for i in range(4)
)

PROPERTY_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, cluster2):
    """A 5-version store built once; every example works on a copy."""
    root = tmp_path_factory.mktemp("props") / "deps"
    store = PlanStore(root)
    service = ShardingService(store)
    service.create_deployment("prod", ShardingEngine(cluster2), tables=TABLES)
    service.plan("prod")
    service.apply("prod")
    for _ in range(4):
        service.plan("prod")
    service.apply("prod", version=2)
    return root


def _copy(pristine):
    tmp = Path(tempfile.mkdtemp(prefix="prov-prop-"))
    shutil.copytree(pristine, tmp / "deps")
    return tmp, PlanStore(tmp / "deps")


def _record_path(store, version):
    return store.root / "prod" / "plans" / f"v{version}.json"


def _canonical(path):
    """Canonical bytes of the parsed payload, or ``None`` if unparsable."""
    try:
        return canonical_bytes(json.loads(path.read_bytes()))
    except (ValueError, TypeError):
        return None


class TestByteFlip:
    @PROPERTY_SETTINGS
    @given(
        version=st.integers(min_value=1, max_value=5),
        offset=st.integers(min_value=0),
        delta=st.integers(min_value=1, max_value=255),
    )
    def test_any_single_byte_flip_is_detected(
        self, pristine, version, offset, delta
    ):
        tmp, store = _copy(pristine)
        try:
            path = _record_path(store, version)
            raw = bytearray(path.read_bytes())
            index = offset % len(raw)
            before = _canonical(path)
            raw[index] = (raw[index] + delta) % 256
            path.write_bytes(bytes(raw))
            report = audit_deployment(store, "prod")
            if _canonical(path) == before:
                # Semantically null flip (whitespace / formatting only).
                assert report.ok
            else:
                assert not report.ok
                assert report.first_broken_version == version
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


#: Single-byte flips that once crashed the audit instead of being
#: reported: ``(version, stored bytes, flipped bytes)``.
CRASHING_FLIPS = [
    # the top-level "version" key renamed: int(None) in the chain check
    (1, b'"version": 1,', b'"wersion": 1,'),
    # the plan's device count changed: PlanDiff.between refused to diff
    (1, b'"num_devices": 2\n },', b'"num_devices": 3\n },'),
    # the base tables key renamed: the plan no longer covers its tables
    (1, b'"base_tables"', b'"case_tables"'),
]


class TestByteFlipRegressions:
    @pytest.mark.parametrize("version, stored, flipped", CRASHING_FLIPS)
    def test_flip_is_reported_as_tampering(
        self, pristine, version, stored, flipped
    ):
        assert len(stored) == len(flipped)
        assert sum(a != b for a, b in zip(stored, flipped)) == 1
        tmp, store = _copy(pristine)
        try:
            path = _record_path(store, version)
            raw = path.read_bytes()
            assert stored in raw
            path.write_bytes(raw.replace(stored, flipped, 1))
            report = audit_deployment(store, "prod")
            assert not report.ok
            assert report.first_broken_version == version
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class TestStructuralTampers:
    @PROPERTY_SETTINGS
    @given(version=st.integers(min_value=1, max_value=4))
    def test_any_nontail_deletion_is_blamed_at_the_deleted_version(
        self, pristine, version
    ):
        """Deleting any record with a successor is detected.  Deleting
        the *tail* record is out of scope by construction: nothing links
        to it yet, and the state stamp anchors the applied-stack top —
        a hash chain cannot prove its own length without an external
        head pointer."""
        tmp, store = _copy(pristine)
        try:
            _record_path(store, version).unlink()
            report = audit_deployment(store, "prod")
            assert not report.ok
            assert report.first_broken_version == version
            assert "chain/missing-record" in report.error_codes
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_deleting_an_applied_record_is_detected_even_at_the_tail(
        self, pristine
    ):
        """The applied stack IS an external anchor: removing the record
        its top points at breaks the state stamp's anchor digest."""
        tmp, store = _copy(pristine)
        try:
            for version in (3, 4, 5):  # leave only the applied records
                _record_path(store, version).unlink()
            _record_path(store, 2).unlink()  # applied-stack top
            report = audit_deployment(store, "prod")
            assert not report.ok
            assert "chain/missing-record" in report.error_codes
            assert report.first_broken_version == 2
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    @PROPERTY_SETTINGS
    @given(perm=st.permutations(list(range(1, 6))))
    def test_any_nontrivial_reordering_is_detected(self, pristine, perm):
        tmp, store = _copy(pristine)
        try:
            contents = {
                v: _record_path(store, v).read_bytes() for v in range(1, 6)
            }
            for target, source in zip(range(1, 6), perm):
                _record_path(store, target).write_bytes(contents[source])
            report = audit_deployment(store, "prod")
            if perm == [1, 2, 3, 4, 5]:
                assert report.ok
            else:
                assert not report.ok
                first_moved = next(
                    t for t, s in zip(range(1, 6), perm) if t != s
                )
                assert report.first_broken_version == first_moved
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    @PROPERTY_SETTINGS
    @given(keep=st.integers(min_value=0, max_value=1))
    def test_any_stack_truncation_is_detected(self, pristine, keep):
        tmp, store = _copy(pristine)
        try:
            state_path = store.root / "prod" / "state.json"
            state = json.loads(state_path.read_text())
            assert len(state["applied_stack"]) == 2
            state["applied_stack"] = state["applied_stack"][:keep]
            state_path.write_text(json.dumps(state, indent=2))
            report = audit_deployment(store, "prod")
            assert not report.ok
            assert "chain/state-mismatch" in report.error_codes
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class TestDeterminism:
    @PROPERTY_SETTINGS
    @given(
        version=st.integers(min_value=1, max_value=5),
        offset=st.integers(min_value=0),
    )
    def test_audit_of_a_tampered_store_is_byte_deterministic(
        self, pristine, version, offset
    ):
        tmp, store = _copy(pristine)
        try:
            path = _record_path(store, version)
            raw = bytearray(path.read_bytes())
            raw[offset % len(raw)] ^= 0xFF
            path.write_bytes(bytes(raw))
            first = json.dumps(audit_deployment(store, "prod").to_dict())
            second = json.dumps(audit_deployment(store, "prod").to_dict())
            assert first == second
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
