"""Hash-chained plan provenance: canonical digests and chain links.

Every persisted :class:`~repro.api.service.PlanRecord` carries a
``provenance`` object committing to (a) a canonical digest of the
record's own content and (b) the digest of its predecessor record —
anchored, for the first record, in a digest of the deployment metadata.
A third party holding nothing but the store directory can therefore
re-derive every digest and walk the chain: silent edits, truncation,
deletion and reordering of the history become detectable, without any
cooperation from the code that wrote it.

Digest discipline (all sha256 hex over canonical JSON — sorted keys,
compact separators — because a record cannot commit to its *own file
bytes*; the digest must survive the parse/serialize round trip):

- :func:`record_digest` — the record payload **excluding** its
  ``provenance`` and ``validation`` keys: the plan content itself.
  Validation reports are stamped with this digest (the digest of what
  they validated).
- :func:`content_digest` — the payload excluding only ``provenance``
  (validation report included), the digest a chain link commits to: a
  flipped byte anywhere in the stored record, report included, breaks
  it.
- :func:`chain_digest` — binds ``(version, prev_version, prev_digest,
  content_digest)`` together, so reordering records is as detectable as
  editing them.
- :func:`genesis_digest` — the chain anchor, derived from the
  deployment metadata written at creation time.
- :func:`state_stamp` — the mutable ``state.json`` commits to the
  applied stack *and* the chain digest of its top-of-stack record, so
  truncating the applied history is detectable too.

What the chain does **not** give: there are no secrets or signatures,
so an adversary willing to recompute every digest downstream of an edit
can forge a consistent history.  The chain is tamper-*evident* against
silent corruption, bit rot, partial copies and casual edits — the cheap
80% of verifiable-lifecycle work (see PAPERS.md's verifiable-FL line),
not the ZKP machinery.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.utils import source_fingerprint

__all__ = [
    "ProvenanceLink",
    "STAMP_SOURCES",
    "canonical_bytes",
    "chain_digest",
    "content_digest",
    "genesis_digest",
    "link_digest_of_payload",
    "link_record",
    "raw_digest",
    "record_digest",
    "stamp_fingerprint",
    "state_digest",
    "state_stamp",
]

#: Source entries (relative to ``src/repro``) whose bytes determine what
#: a validation verdict *means*: the validator itself, the plan/diff/
#: reshard machinery it re-derives invariants from, and this package.
STAMP_SOURCES = (
    "config.py",
    "api",
    "core",
    "data",
    "hardware",
    "provenance",
    "validation",
)


def stamp_fingerprint() -> str:
    """The repro-source code fingerprint validation stamps carry.

    Cached (per process) by :func:`repro.utils.source_fingerprint` — the
    same mechanism pre-trained bundles use for their
    ``code_fingerprint.txt``.
    """
    return source_fingerprint(*STAMP_SOURCES)


def canonical_bytes(payload: Any) -> bytes:
    """The canonical JSON encoding digests are computed over.

    Sorted keys and compact separators: two payloads digest equal iff
    they are value-equal, independent of key order or the pretty-printed
    indentation the store writes with.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _digest(tag: bytes, payload: Any) -> str:
    digest = hashlib.sha256()
    digest.update(tag)
    digest.update(b"\0")
    digest.update(canonical_bytes(payload))
    return digest.hexdigest()


def record_digest(payload: Mapping[str, Any]) -> str:
    """Digest of a record's plan content (sans provenance *and* validation).

    This is the digest stamped onto the record's validation report — the
    report vouches for the content, so the content must not include the
    report.
    """
    body = {
        k: v
        for k, v in payload.items()
        if k not in ("provenance", "validation")
    }
    return _digest(b"record", body)


def content_digest(payload: Mapping[str, Any]) -> str:
    """Digest of everything a chain link commits to (sans provenance only).

    The validation report (stamps included) is covered: a byte flipped
    anywhere in the stored record except inside the provenance object
    itself changes this digest.
    """
    body = {k: v for k, v in payload.items() if k != "provenance"}
    return _digest(b"content", body)


def chain_digest(
    version: int, prev_version: int, prev_digest: str, content: str
) -> str:
    """The digest one record's successor commits to.

    Binds the version number and the predecessor link into the digest,
    so a record cannot be silently renumbered or re-parented.
    """
    return _digest(
        b"chain",
        {
            "version": int(version),
            "prev_version": int(prev_version),
            "prev_digest": str(prev_digest),
            "content_digest": str(content),
        },
    )


def genesis_digest(meta: Mapping[str, Any]) -> str:
    """The chain anchor of a deployment: a digest of its metadata."""
    return _digest(b"genesis", dict(meta))


def raw_digest(data: bytes) -> str:
    """Digest of raw file bytes — the fallback identity of a record file
    that does not parse (a torn write the writer still chained past)."""
    digest = hashlib.sha256()
    digest.update(b"raw\0")
    digest.update(data)
    return digest.hexdigest()


@dataclass(frozen=True)
class ProvenanceLink:
    """The chain fields persisted on one plan record.

    Attributes:
        prev_version: version of the predecessor record this one commits
            to (0 for the first record of a deployment).
        prev_digest: the predecessor's :func:`link digest
            <link_digest_of_payload>` — its chain digest, or the genesis
            digest when ``prev_version`` is 0.
        content_digest: :func:`content_digest` of this record's payload.
        chain_digest: :func:`chain_digest` over this record's version and
            the three fields above — what *this* record's successor
            commits to.
    """

    prev_version: int
    prev_digest: str
    content_digest: str
    chain_digest: str

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view of the link."""
        return {
            "prev_version": self.prev_version,
            "prev_digest": self.prev_digest,
            "content_digest": self.content_digest,
            "chain_digest": self.chain_digest,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProvenanceLink":
        """Inverse of :meth:`to_dict`."""
        return cls(
            prev_version=int(data["prev_version"]),
            prev_digest=str(data["prev_digest"]),
            content_digest=str(data["content_digest"]),
            chain_digest=str(data["chain_digest"]),
        )


def link_record(
    payload: Mapping[str, Any], prev_version: int, prev_digest: str
) -> ProvenanceLink:
    """Compute the chain link for a record payload about to be stored.

    ``payload`` is the record's serialized dict (its ``provenance`` key,
    if present, is ignored); ``prev_version``/``prev_digest`` identify
    the predecessor the writer observed.
    """
    content = content_digest(payload)
    return ProvenanceLink(
        prev_version=int(prev_version),
        prev_digest=str(prev_digest),
        content_digest=content,
        chain_digest=chain_digest(
            int(payload["version"]), prev_version, prev_digest, content
        ),
    )


def link_digest_of_payload(payload: Mapping[str, Any]) -> str:
    """The digest a successor record commits to for ``payload``.

    A chained record is identified by its *stored* chain digest (the
    auditor separately verifies that stored digest is self-consistent);
    a legacy record (no ``provenance``) by the recomputed content digest
    of its payload.
    """
    provenance = payload.get("provenance")
    if isinstance(provenance, Mapping) and provenance.get("chain_digest"):
        return str(provenance["chain_digest"])
    return content_digest(payload)


def stored_link_digest(stored: Any) -> str | None:
    """The digest a successor commits to for a stored record file (a
    :class:`~repro.api.store.StoredRecord`): its payload's link digest,
    its raw bytes' digest when it is torn (the chain accounts for damage
    instead of skipping it), ``None`` when it cannot be read at all."""
    if stored.payload is not None:
        return link_digest_of_payload(stored.payload)
    return None if stored.raw is None else raw_digest(stored.raw)


def state_digest(
    applied_stack: list[int],
    memory_bytes: Any,
    anchor_version: int,
    anchor_digest: str,
) -> str:
    """Digest the mutable deployment state commits to."""
    return _digest(
        b"state",
        {
            "applied_stack": [int(v) for v in applied_stack],
            "memory_bytes": memory_bytes,
            "anchor_version": int(anchor_version),
            "anchor_digest": str(anchor_digest),
        },
    )


def state_stamp(
    applied_stack: list[int],
    memory_bytes: Any,
    anchor_version: int,
    anchor_digest: str,
) -> dict[str, Any]:
    """The provenance stamp written into ``state.json``.

    ``anchor_version``/``anchor_digest`` name the top-of-stack record's
    chain digest (the genesis digest when nothing is applied), so a
    truncated or rewritten applied stack no longer matches its own
    stamp.
    """
    return {
        "anchor_version": int(anchor_version),
        "anchor_digest": str(anchor_digest),
        "digest": state_digest(
            applied_stack, memory_bytes, anchor_version, anchor_digest
        ),
    }
