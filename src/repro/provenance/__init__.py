"""Tamper-evident plan provenance: hash chains, stamps, offline audit.

The validation layer (:mod:`repro.validation`) proves a plan is
*internally* consistent; this package makes the lifecycle history
*externally* auditable.  :mod:`repro.provenance.chain` defines the
digest discipline — every :class:`~repro.api.service.PlanRecord`
commits to its own canonical content digest and its predecessor's chain
digest (genesis anchored in the deployment metadata), validation
reports are stamped with the digest they validated plus the source-tree
fingerprint, and the mutable state commits to its applied stack.
:mod:`repro.provenance.audit` walks a store offline — no engine or
bundle — verifying the full chain, re-running the validator, and
localizing any damage to the first offending version.

Surfaced as ``repro audit`` on the CLI, ``GET
/v1/deployments/<name>/audit`` on the server, and
:meth:`~repro.api.service.ShardingService.audit_deployment`.
"""

from repro.provenance.audit import (
    AuditFinding,
    AuditReport,
    audit_deployment,
    audit_store,
    rerun_validator,
)
from repro.provenance.chain import (
    STAMP_SOURCES,
    ProvenanceLink,
    canonical_bytes,
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

__all__ = [
    "AuditFinding",
    "AuditReport",
    "ProvenanceLink",
    "STAMP_SOURCES",
    "audit_deployment",
    "audit_store",
    "canonical_bytes",
    "chain_digest",
    "content_digest",
    "genesis_digest",
    "link_digest_of_payload",
    "link_record",
    "raw_digest",
    "record_digest",
    "rerun_validator",
    "stamp_fingerprint",
    "state_digest",
    "state_stamp",
]
