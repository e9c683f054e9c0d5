"""Offline store auditor: walk the hash chain, re-run the validator.

:func:`audit_deployment` needs nothing but a
:class:`~repro.api.store.PlanStore` directory — no engine, no bundle —
so a store copied off a production box is independently checkable.  Per
deployment it

1. re-derives the genesis digest from the deployment metadata,
2. walks every stored record in version order, recomputing content and
   chain digests and verifying each record's committed link against the
   digest registered for its claimed predecessor,
3. verifies every validation stamp (the ``validated_digest`` must match
   the re-derived record digest; a stale ``code_fingerprint`` is an
   advisory — the code evolved, the record did not),
4. verifies the mutable state's provenance stamp (applied stack + chain
   anchor), and
5. re-runs :class:`~repro.validation.invariants.PlanValidator` over the
   parseable history, folding its violations into the findings.

Findings carry a stable machine-readable ``code`` (``chain/...`` plus
the validator's own codes) and a severity: **errors** are evidence of
tampering, corruption or invariant violations and make the audit fail;
**advisories** note verifiable-but-noteworthy conditions — legacy
records written before the chain existed, non-immediate predecessor
links from multi-writer interleaving, a code fingerprint from an older
source tree — and leave the audit clean.

Localization discipline: damage is attributed to the *first offending
version* and never cascades.  A record whose content was edited fails
its own content check, while its successor's link — committed to the
predecessor's *stored* chain digest — still verifies; a link that
cannot be verified only because its predecessor is already broken is an
advisory, not a second error; a deleted record is reported **at the
deleted version** (its successor's claimed predecessor is missing), so
:attr:`AuditReport.first_broken_version` names exactly the version an
operator should restore from backup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.provenance.chain import (
    ProvenanceLink,
    chain_digest,
    content_digest,
    genesis_digest,
    record_digest,
    stamp_fingerprint,
    stored_link_digest,
)

if TYPE_CHECKING:  # pragma: no cover — typing only, no runtime cycle
    from repro.api.store import PlanStore, StoredDeployment, StoredRecord, StoredState
    from repro.validation.invariants import PlanValidator, ValidationReport

__all__ = [
    "AuditFinding",
    "AuditReport",
    "audit_deployment",
    "audit_store",
    "rerun_validator",
]


@dataclass(frozen=True)
class AuditFinding:
    """One audit observation.

    Attributes:
        code: stable machine-readable identifier (``"chain/broken-link"``,
            ``"plan/memory"``, ...).
        severity: ``"error"`` (tampering / corruption / invariant
            violation — fails the audit) or ``"advisory"`` (noteworthy
            but verifiable — the audit stays clean).
        version: the plan version the finding is attributed to (``None``
            for deployment-level findings such as state damage).
        message: human-readable diagnosis.
        context: JSON-safe details (digests, claimed links, ...).
    """

    code: str
    severity: str
    version: int | None
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view of the finding."""
        return {
            "code": self.code,
            "severity": self.severity,
            "version": self.version,
            "message": self.message,
            "context": dict(self.context),
        }


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing one deployment.

    Attributes:
        deployment: the audited deployment's name.
        findings: every observation, in walk order (chain findings
            version-ascending, then state findings, then re-run
            validator findings).
        versions: the stored record versions, ascending.
        applied_stack: the applied stack read from the stored state.
        code_fingerprint: the auditing source tree's own fingerprint
            (:func:`~repro.provenance.chain.stamp_fingerprint`) — what
            stamped fingerprints were compared against.
    """

    deployment: str
    findings: tuple[AuditFinding, ...] = ()
    versions: tuple[int, ...] = ()
    applied_stack: tuple[int, ...] = ()
    code_fingerprint: str = ""

    @property
    def errors(self) -> tuple[AuditFinding, ...]:
        """The error-severity findings."""
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def advisories(self) -> tuple[AuditFinding, ...]:
        """The advisory-severity findings."""
        return tuple(f for f in self.findings if f.severity == "advisory")

    @property
    def ok(self) -> bool:
        """Whether the audit found no errors (advisories allowed)."""
        return not self.errors

    @property
    def error_codes(self) -> tuple[str, ...]:
        """Codes of the error findings, in discovery order."""
        return tuple(f.code for f in self.errors)

    @property
    def first_broken_version(self) -> int | None:
        """Lowest version any error finding is attributed to.

        ``None`` when the audit is clean or every error is
        deployment-level (no version to blame).
        """
        versions = [
            f.version
            for f in self.errors
            if f.version is not None
        ]
        return min(versions) if versions else None

    def to_dict(self) -> dict[str, Any]:
        """Deterministic plain-JSON view (same store → identical bytes)."""
        return {
            "deployment": self.deployment,
            "ok": self.ok,
            "first_broken_version": self.first_broken_version,
            "versions": list(self.versions),
            "applied_stack": list(self.applied_stack),
            "code_fingerprint": self.code_fingerprint,
            "num_errors": len(self.errors),
            "num_advisories": len(self.advisories),
            "findings": [f.to_dict() for f in self.findings],
        }

    def with_findings(self, extra: Sequence[AuditFinding]) -> "AuditReport":
        """This report plus ``extra`` findings appended."""
        return replace(self, findings=self.findings + tuple(extra))


class _Walker:
    """Per-deployment chain-walk state: registered digests and damage."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.findings: list[AuditFinding] = []
        #: version -> the digest a successor's link is verified against
        #: (stored chain digest / legacy content digest / raw bytes).
        self.registered: dict[int, str] = {}
        #: versions already carrying an error — their successors' link
        #: failures become advisories, not cascaded errors.
        self.broken: set[int] = set()

    def error(
        self, code: str, version: int | None, message: str, **context: Any
    ) -> None:
        self.findings.append(
            AuditFinding(code, "error", version, message, dict(context))
        )
        if version is not None:
            self.broken.add(version)

    def advise(
        self, code: str, version: int | None, message: str, **context: Any
    ) -> None:
        self.findings.append(
            AuditFinding(code, "advisory", version, message, dict(context))
        )


def _walk_record(
    walker: _Walker,
    stored: "StoredRecord",
    genesis: str | None,
    stored_versions: Sequence[int],
) -> None:
    """Verify one stored record's digests and chain link.

    Registers the digest successors commit to for the record's version.
    """
    version, payload = stored.version, stored.payload
    # A successor written after recovery chained over a torn file's raw
    # bytes; registering them keeps its link verifiable.
    digest = stored_link_digest(stored)
    if digest is not None:
        walker.registered[version] = digest
    if payload is None:
        walker.error(
            "chain/unreadable-record",
            version,
            f"plan record v{version} is unreadable ({stored.error})",
        )
        return

    claimed_version = payload.get("version")
    if claimed_version != version:
        walker.error(
            "chain/version-mismatch",
            version,
            f"record file v{version}.json claims version "
            f"{claimed_version!r} — records were renamed or reordered",
            claimed_version=claimed_version,
        )

    provenance = payload.get("provenance")
    if provenance is None:
        walker.advise(
            "chain/legacy-record",
            version,
            f"record v{version} predates the provenance chain "
            "(no chain fields); identified by content digest",
        )
        return
    try:
        link = ProvenanceLink.from_dict(provenance)
    except Exception as exc:  # noqa: BLE001 — malformed chain fields
        walker.error(
            "chain/digest-mismatch",
            version,
            f"record v{version} carries malformed provenance "
            f"({type(exc).__name__}: {exc})",
        )
        return

    actual_content = content_digest(payload)
    if link.content_digest != actual_content:
        walker.error(
            "chain/content-mismatch",
            version,
            f"record v{version} content does not match its committed "
            "digest — the record was edited",
            committed=link.content_digest,
            actual=actual_content,
        )
    # The chain digest commits to the version the record claims; a
    # claim that is not an integer (already a version-mismatch finding)
    # is checked against the file's own version instead.
    expected_chain = chain_digest(
        claimed_version if type(claimed_version) is int else version,
        link.prev_version,
        link.prev_digest,
        link.content_digest,
    )
    if link.chain_digest != expected_chain:
        walker.error(
            "chain/digest-mismatch",
            version,
            f"record v{version}'s chain digest does not match its own "
            "committed fields",
            committed=link.chain_digest,
            expected=expected_chain,
        )

    # --- the predecessor link -----------------------------------------
    earlier = [v for v in stored_versions if v < version]
    pv = link.prev_version
    if pv >= version:
        walker.error(
            "chain/broken-link",
            version,
            f"record v{version} claims a non-prior predecessor v{pv}",
            prev_version=pv,
        )
    elif pv == 0:
        if earlier:
            walker.error(
                "chain/broken-link",
                version,
                f"record v{version} claims the genesis anchor but "
                f"v{earlier[-1]} precedes it",
                prev_version=0,
            )
        elif genesis is None:
            walker.advise(
                "chain/unverifiable-link",
                version,
                f"record v{version}'s genesis link cannot be verified "
                "(deployment metadata is unreadable)",
            )
        elif link.prev_digest != genesis:
            walker.error(
                "chain/broken-link",
                version,
                f"record v{version}'s genesis link does not match the "
                "deployment metadata digest",
                claimed=link.prev_digest,
                expected=genesis,
            )
    elif pv not in walker.registered:
        # The claimed predecessor's file is gone: blame the *deleted*
        # version, so first_broken_version names what to restore.
        walker.error(
            "chain/missing-record",
            pv,
            f"record v{pv} is missing but v{version} commits to it — "
            "a record file was deleted",
            successor=version,
        )
    elif link.prev_digest != walker.registered[pv]:
        if pv in walker.broken:
            walker.advise(
                "chain/unverifiable-link",
                version,
                f"record v{version}'s link to v{pv} cannot be verified "
                f"(v{pv} is already damaged); not cascading",
                prev_version=pv,
            )
        else:
            walker.error(
                "chain/broken-link",
                version,
                f"record v{version}'s committed predecessor digest does "
                f"not match v{pv} as stored",
                prev_version=pv,
                claimed=link.prev_digest,
                expected=walker.registered[pv],
            )
    if pv != 0 and earlier and pv != earlier[-1]:
        walker.advise(
            "chain/fork",
            version,
            f"record v{version} chains to v{pv}, not its immediate "
            f"predecessor v{earlier[-1]} (multi-writer interleaving)",
            prev_version=pv,
            immediate=earlier[-1],
        )

    # --- the validation stamp -----------------------------------------
    validation = payload.get("validation")
    if isinstance(validation, dict):
        stamped_digest = validation.get("validated_digest", "")
        if stamped_digest:
            actual = record_digest(payload)
            if stamped_digest != actual:
                walker.error(
                    "chain/stamp-mismatch",
                    version,
                    f"record v{version}'s validation report is stamped "
                    "with a different record digest — the report and the "
                    "plan disagree",
                    stamped=stamped_digest,
                    actual=actual,
                )
        stamped_fp = validation.get("code_fingerprint", "")
        if stamped_fp and stamped_fp != stamp_fingerprint():
            walker.advise(
                "chain/stamp-fingerprint",
                version,
                f"record v{version} was validated by a different source "
                "tree (code evolved since)",
                stamped=stamped_fp,
            )


def _walk_state(
    walker: _Walker,
    state: "StoredState",
    genesis: str | None,
) -> None:
    """Verify the mutable state's provenance stamp.

    A state with fields that do not decode cannot be checked against
    its stamp: each such field is its own finding, and the stamp check
    is skipped rather than cascading into a mismatch.
    """
    from repro.provenance.chain import state_digest

    for error in state.errors.values():
        walker.error("chain/state-unreadable", None, f"deployment state: {error}")
    if state.errors:
        return
    stack, memory = list(state.applied_stack), state.memory_bytes

    stamp = state.provenance
    if stamp is None:
        walker.advise(
            "chain/legacy-state",
            None,
            "deployment state predates the provenance chain (no stamp)",
        )
        return
    try:
        anchor_version = stamp["anchor_version"]
        anchor_digest, digest = stamp["anchor_digest"], stamp["digest"]
        # No coercion: an anchor of 2.7 or "2" must not pass as v2.
        if type(anchor_version) is not int or {type(anchor_digest), type(digest)} != {str}:
            raise TypeError("anchor_version must be an int, digests strings")
    except Exception as exc:  # noqa: BLE001 — malformed stamp
        walker.error(
            "chain/state-mismatch",
            None,
            f"deployment state carries a malformed provenance stamp "
            f"({type(exc).__name__}: {exc})",
        )
        return

    expected = state_digest(stack, memory, anchor_version, anchor_digest)
    if digest != expected:
        walker.error(
            "chain/state-mismatch",
            None,
            "deployment state does not match its own provenance stamp — "
            "the applied stack or budget was edited",
            stamped=digest,
            expected=expected,
        )
    top = stack[-1] if stack else 0
    if anchor_version != top:
        walker.error(
            "chain/state-mismatch",
            None,
            f"state stamp anchors v{anchor_version} but the applied "
            f"stack tops out at {'v%d' % top if top else 'nothing'}",
            anchor_version=anchor_version,
            top=top or None,
        )
    elif top == 0:
        if genesis is not None and anchor_digest != genesis:
            walker.error(
                "chain/state-mismatch",
                None,
                "state stamp's genesis anchor does not match the "
                "deployment metadata digest",
                claimed=anchor_digest,
                expected=genesis,
            )
    elif top in walker.registered:
        if anchor_digest != walker.registered[top]:
            if top in walker.broken:
                walker.advise(
                    "chain/unverifiable-link",
                    None,
                    f"state anchor to v{top} cannot be verified (v{top} "
                    "is already damaged); not cascading",
                    anchor_version=top,
                )
            else:
                walker.error(
                    "chain/state-mismatch",
                    None,
                    f"state stamp's anchor digest does not match v{top} "
                    "as stored",
                    claimed=anchor_digest,
                    expected=walker.registered[top],
                )
    else:
        walker.error(
            "chain/missing-record",
            top,
            f"record v{top} is missing but the state stamp anchors it",
        )


def rerun_validator(
    stored: "StoredDeployment", validator: "PlanValidator"
) -> tuple["ValidationReport", list[str]]:
    """Re-run the offline invariant suite over one stored deployment.

    The audit's last step and ``repro validate --store``'s whole unit: no
    engine needed.  A payload that does not deserialize is a
    ``record/deserialize`` violation.  Returns the report and the
    reader's errors (the damage the validator never saw).
    """
    from repro.api.service import PlanRecord
    from repro.validation.invariants import ValidationError, ValidationReport

    subject = f"deployment:{stored.name}"
    payloads = stored.payloads
    records, failures = [], []
    for version, payload in payloads.items():
        try:
            records.append(PlanRecord.from_dict(payload))
        except Exception as exc:  # noqa: BLE001 — parse failure is a finding
            failures.append(
                ValidationError(
                    "record/deserialize",
                    f"record v{version} does not deserialize "
                    f"({type(exc).__name__}: {exc})",
                    {"version": version},
                )
            )
    report = ValidationReport(
        subject, ("record/deserialize",), tuple(failures)
    ).merged(
        validator.validate_history(
            records,
            list(stored.state.applied_stack),
            stored=payloads,
            subject=subject,
            memory_bytes=stored.state.memory_bytes,
        )
    )
    return report, stored.errors


def audit_deployment(
    store: "PlanStore",
    name: str,
    validator: "PlanValidator | None" = None,
) -> AuditReport:
    """Audit one deployment's stored history offline.

    Every file :meth:`~repro.api.store.PlanStore.read_deployment` could
    not decode is a finding.

    Args:
        store: the plan store to walk (no engine or bundle is loaded).
        name: the deployment to audit.
        validator: the invariant checker to re-run (a default-configured
            :class:`~repro.validation.invariants.PlanValidator` when
            omitted).

    Returns:
        The :class:`AuditReport`; never raises on damage — every problem
        is a finding.

    Raises:
        FileNotFoundError: when the deployment does not exist at all.
    """
    from repro.validation.invariants import PlanValidator

    if not store.has_deployment(name):
        raise FileNotFoundError(
            f"no deployment named {name!r} in store {store.root} "
            f"(known: {store.names() or 'none'})"
        )
    stored = store.read_deployment(name)
    walker = _Walker(name)

    genesis: str | None = None
    if stored.meta is None:
        walker.error(
            "chain/meta-unreadable",
            None,
            f"deployment metadata cannot be read ({stored.meta_error})",
        )
    else:
        genesis = genesis_digest(stored.meta)

    stored_versions = [r.version for r in stored.records]
    for record in stored.records:
        _walk_record(walker, record, genesis, stored_versions)
    _walk_state(walker, stored.state, genesis)

    report, _ = rerun_validator(stored, validator or PlanValidator())
    # The validator names the version a record *claims*; a tampered
    # version field would misdirect first_broken_version at a version
    # with no file to restore.  Blame the file that makes the claim.
    payloads = stored.payloads
    claimed_to_file = {}
    for file_version in sorted(payloads):
        claimed = payloads[file_version].get("version")
        if isinstance(claimed, int) and claimed != file_version:
            claimed_to_file.setdefault(claimed, file_version)
    for error in report.errors:
        version = error.context.get("version")
        if isinstance(version, int) and version not in payloads:
            version = claimed_to_file.get(version, version)
        walker.error(
            error.code,
            version if isinstance(version, int) else None,
            error.message,
            **{k: v for k, v in error.context.items() if k != "version"},
        )

    return AuditReport(
        deployment=name,
        findings=tuple(walker.findings),
        versions=tuple(stored_versions),
        applied_stack=stored.state.applied_stack,
        code_fingerprint=stamp_fingerprint(),
    )


def audit_store(
    store: "PlanStore",
    deployments: Sequence[str] | None = None,
    validator: "PlanValidator | None" = None,
) -> list[AuditReport]:
    """Audit every (or the named) deployment(s) of a store, name-sorted.

    Raises:
        FileNotFoundError: when a named deployment does not exist.
    """
    names = sorted(deployments) if deployments else store.names()
    return [audit_deployment(store, name, validator=validator) for name in names]
