"""Versioned cost-model bundle and plan-lifecycle storage.

The paper's production deployment keeps cost models under "strict
version control" (Section 3.2): a sharding plan must always be
reproducible from the exact bundle that produced it.  Two stores provide
that discipline on directory trees:

:class:`BundleStore` — cost-model bundles::

    <root>/
      <name>/
        v1/   compute.npz forward_comm.npz backward_comm.npz
              metadata.json bundle_meta.json
        v2/   ...

Each version directory is a plain
:meth:`~repro.costmodel.pretrain.PretrainedCostModels.save` bundle plus a
``bundle_meta.json`` manifest (name, version, creation time, device
count, free-form metadata such as test MSEs).  Saving auto-increments
the version; loading defaults to the latest, so long-lived engines can
pick up retrained models by restarting without path changes.

:class:`PlanStore` — plan-lifecycle records of named deployments (the
:class:`~repro.api.service.ShardingService`'s persistence)::

    <root>/
      <deployment>/
        deployment.json      # cluster shape, bundle reference
        state.json           # applied-version stack
        plans/
          v1.json  v2.json   # one immutable record per plan version

Records are stored as the versioned JSON dictionaries the service's
:class:`~repro.api.service.PlanRecord` serializes to, so a deployment's
entire history — every plan, diff and rollback — survives restarts and
is replayable byte-for-byte.  Records carry provenance chain fields
(each commits to its predecessor's digest — see
:mod:`repro.provenance`), persisted through the same exclusive-link
commit path.  :meth:`PlanStore.read_deployment` is the one reader of a
stored deployment: restart recovery, the offline audit and ``repro
validate`` all decode through it, so damage means the same to each.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.api.schema import check_version
from repro.costmodel.pretrain import PretrainedCostModels

__all__ = ["BundleInfo", "BundleStore", "PlanStore", "StoredDeployment",
           "StoredRecord", "StoredState"]

_MANIFEST = "bundle_meta.json"
_BUNDLE_META = "metadata.json"  # written by PretrainedCostModels.save


def _check_name(name: str, kind: str) -> None:
    if not name or "/" in name or name.startswith("."):
        raise ValueError(f"invalid {kind} name {name!r}")


@dataclass(frozen=True)
class BundleInfo:
    """Manifest of one stored bundle version.

    Attributes:
        name: bundle line name (e.g. ``"prod-4gpu"``).
        version: 1-based version number within the line.
        path: the version directory holding the bundle files.
        created_at: POSIX timestamp of the save.
        num_devices / batch_size: the bundle's deployment contract.
        metadata: free-form caller metadata (e.g. test MSEs, pool seed).
    """

    name: str
    version: int
    path: str
    created_at: float
    num_devices: int
    batch_size: int
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def version_tag(self) -> str:
        """The ``name@vN`` tag used in reports and plan checkpoints."""
        return f"{self.name}@v{self.version}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view of the bundle metadata."""
        return {
            "name": self.name,
            "version": self.version,
            "created_at": self.created_at,
            "num_devices": self.num_devices,
            "batch_size": self.batch_size,
            "metadata": self.metadata,
        }


class BundleStore:
    """Save, list and load versioned cost-model bundles under one root.

    Args:
        root: store directory (created lazily on first save).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def save(
        self,
        models: PretrainedCostModels,
        name: str = "default",
        metadata: Mapping[str, Any] | None = None,
    ) -> BundleInfo:
        """Store ``models`` as the next version of bundle line ``name``."""
        _check_name(name, "bundle")
        version = self.latest_version(name) + 1
        directory = self.root / name / f"v{version}"
        models.save(directory)
        info = BundleInfo(
            name=name,
            version=version,
            path=str(directory),
            created_at=time.time(),
            num_devices=models.num_devices,
            batch_size=models.batch_size,
            metadata=dict(metadata or {}),
        )
        (directory / _MANIFEST).write_text(json.dumps(info.to_dict(), indent=2))
        return info

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def versions(self, name: str) -> list[int]:
        """Stored version numbers of bundle line ``name``, ascending."""
        line = self.root / name
        if not line.is_dir():
            return []
        found = []
        for entry in line.iterdir():
            if (
                entry.is_dir()
                and entry.name.startswith("v")
                and entry.name[1:].isdigit()
                and (entry / _BUNDLE_META).exists()
            ):
                found.append(int(entry.name[1:]))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """Highest stored version of ``name`` (0 when none exist)."""
        versions = self.versions(name)
        return versions[-1] if versions else 0

    def names(self) -> list[str]:
        """Bundle line names with at least one stored version."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self.versions(entry.name)
        )

    def list_bundles(self) -> list[BundleInfo]:
        """Manifests of every stored version, ordered by name then version."""
        return [
            self.info(name, version)
            for name in self.names()
            for version in self.versions(name)
        ]

    def _version_dir(self, name: str, version: int | None) -> Path:
        if version is None:
            version = self.latest_version(name)
            if version == 0:
                raise FileNotFoundError(
                    f"no bundle named {name!r} in store {self.root} "
                    f"(known: {self.names() or 'none'})"
                )
        directory = self.root / name / f"v{version}"
        if not (directory / _BUNDLE_META).exists():
            raise FileNotFoundError(
                f"no version v{version} of bundle {name!r} in store "
                f"{self.root} (stored: {self.versions(name) or 'none'})"
            )
        return directory

    def info(self, name: str = "default", version: int | None = None) -> BundleInfo:
        """Manifest of one stored version (latest when unspecified)."""
        directory = self._version_dir(name, version)
        manifest_path = directory / _MANIFEST
        if manifest_path.exists():
            data = json.loads(manifest_path.read_text())
        else:  # bundle dropped in by hand — synthesize a manifest
            meta = json.loads((directory / _BUNDLE_META).read_text())
            data = {
                "name": name,
                "version": int(directory.name[1:]),
                "created_at": 0.0,
                "num_devices": meta["num_devices"],
                "batch_size": meta["batch_size"],
                "metadata": {},
            }
        return BundleInfo(path=str(directory), **data)

    def load(
        self, name: str = "default", version: int | None = None
    ) -> PretrainedCostModels:
        """Load a stored bundle (latest version when unspecified)."""
        return PretrainedCostModels.load(self._version_dir(name, version))

    @staticmethod
    def is_raw_bundle(path: str | os.PathLike) -> bool:
        """True when ``path`` is a bare ``PretrainedCostModels`` directory."""
        return (Path(path) / _BUNDLE_META).exists()


class _LocalFS:
    """Direct filesystem operations (the default :class:`PlanStore` backend).

    The two-method interface exists so fault injection
    (:class:`~repro.validation.faults.FaultyFS`) can fail writes at
    named points; this default implementation ignores the point names.
    """

    def write_text(self, path: Path, text: str, point: str = "") -> None:
        """Write ``text`` to ``path``."""
        Path(path).write_text(text)

    def replace(self, src: Path, dst: Path, point: str = "") -> None:
        """Atomically rename ``src`` onto ``dst``."""
        os.replace(src, dst)

    def link(self, src: Path, dst: Path, point: str = "") -> None:
        """Atomically commit ``src`` to ``dst``, refusing to overwrite.

        Raises:
            FileExistsError: when ``dst`` already exists — the atomic
                claim-and-commit that keeps concurrent writers from
                silently clobbering each other's immutable records.
        """
        os.link(src, dst)


#: Disambiguates concurrent temp files within one process; the pid in
#: the name disambiguates across processes.
_TMP_COUNTER = itertools.count()


def _read_object(path: Path) -> tuple[bytes | None, dict[str, Any] | None, str | None]:
    """``(raw bytes, JSON object, why there is no object)`` of one file;
    ``raw`` is ``None`` only when the file cannot be read at all."""
    raw = None
    try:
        raw = path.read_bytes()
        data = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        return raw, None, f"{type(exc).__name__}: {exc}"
    if not isinstance(data, dict):
        return raw, None, f"expected an object, got {type(data).__name__}"
    return raw, data, None


@dataclass(frozen=True)
class StoredRecord:
    """One listed plan-record file: its bytes and, when it decodes, its
    JSON object (``payload``); ``error`` says why there is none."""

    version: int
    raw: bytes | None
    payload: dict[str, Any] | None
    error: str | None = None


@dataclass(frozen=True)
class StoredState:
    """The decoded ``state.json``: ``applied_stack`` must be a JSON list
    of integers (a string never splits into per-character versions),
    ``memory_bytes`` a JSON integer (``None`` when absent, as in stores
    older than state-tracked budgets); ``provenance`` is the stamp,
    undecoded.  A field that does not decode keeps its empty value and
    gets its own message in ``errors``, keyed by field name (``"state"``
    when the file is unreadable or not a JSON object)."""

    applied_stack: tuple[int, ...] = ()
    memory_bytes: int | None = None
    provenance: Any = None
    errors: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def decode(cls, path: Path) -> "StoredState":
        """Read and decode a state file (empty when it does not exist)."""
        if not path.exists():
            return cls()
        _, data, error = _read_object(path)
        if data is None:
            return cls(errors={"state": f"unreadable ({error})"})
        errors = {}
        # ``type(...) is int``: a JSON true is a bool, not an integer.
        stack = data.get("applied_stack", [])
        if type(stack) is not list or any(type(v) is not int for v in stack):
            errors["applied_stack"] = f"applied_stack {stack!r} is not a list of integers"
            stack = []
        memory = data.get("memory_bytes")
        if memory is not None and type(memory) is not int:
            errors["memory_bytes"] = f"memory_bytes {memory!r} is not an integer"
            memory = None
        return cls(tuple(stack), memory, data.get("provenance"), errors)


@dataclass(frozen=True)
class StoredDeployment:
    """Everything stored for one deployment, read once and decoded (see
    :meth:`PlanStore.read_deployment`); ``meta`` is ``None`` when the
    metadata does not decode, and ``meta_error`` says why."""

    name: str
    meta: dict[str, Any] | None
    meta_error: str | None
    records: tuple[StoredRecord, ...]
    state: StoredState

    @property
    def payloads(self) -> dict[int, dict[str, Any]]:
        """The decoded record objects, by file version."""
        return {
            r.version: r.payload for r in self.records if r.payload is not None
        }

    @property
    def errors(self) -> list[str]:
        """Every decoding error, one ``"<file>: <what>"`` line each."""
        lines = [f"meta: unreadable ({self.meta_error})"] if self.meta_error else []
        lines += [
            f"record v{r.version}: unreadable ({r.error})"
            for r in self.records
            if r.error is not None
        ]
        return lines + [f"state: {e}" for e in self.state.errors.values()]


class PlanStore:
    """Persist named deployments' plan-version histories under one root.

    The store holds plain JSON dictionaries; the semantics (what a plan
    record contains, what the state means) belong to
    :class:`~repro.api.service.ShardingService`.  Records are immutable:
    ``save_record`` refuses to overwrite an existing version, so history
    can only grow — rollbacks are state changes, not record rewrites.

    Every write is **crash-atomic**: the payload lands in a same-directory
    temp file first and is committed into place atomically, so a crash at
    any point leaves the destination either untouched or fully written —
    never torn.  The write sites are named (:data:`WRITE_POINTS`) so a
    fault injector can crash each one and a recovery test can sweep them
    all.

    The store is also safe for **multiple writers** — several service
    handles (threads or processes) sharing one root: temp names are
    writer-unique, mutable files (metadata, applied-stack state) commit
    by rename with last-writer-wins semantics, and immutable plan
    records commit by *exclusive* link, so racing writers can never
    silently clobber a version — the loser gets ``FileExistsError`` and
    allocates a fresh one.

    Args:
        root: store directory (created lazily on first save).
        fs: filesystem shim (``write_text`` / ``replace``); the real
            filesystem when omitted.  Tests inject
            :class:`~repro.validation.faults.FaultyFS` here.
    """

    _DEPLOYMENT = "deployment.json"
    _STATE = "state.json"
    _PLANS = "plans"

    #: Every named atomic-write point, ``"<kind>#<phase>"``: the logical
    #: write site (deployment metadata / applied-stack state / plan
    #: record) crossed with the atomic-write step (temp-file write /
    #: rename into place).  A crash injected at any of these must leave
    #: :meth:`~repro.api.service.ShardingService.open` recovering the
    #: last consistent applied version.
    WRITE_POINTS = (
        "meta#write",
        "meta#rename",
        "state#write",
        "state#rename",
        "record#write",
        "record#rename",
    )

    def __init__(self, root: str | os.PathLike, fs: Any | None = None) -> None:
        self.root = Path(root)
        self.fs = fs if fs is not None else _LocalFS()

    def _tmp_path(self, path: Path) -> Path:
        """A writer-unique same-directory temp name.

        The pid + counter suffix keeps concurrent writers — service
        handles in different processes sharing one store — from writing
        through the same temp file and renaming each other's bytes.
        """
        return path.parent / (
            f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )

    def _write_json(
        self, path: Path, payload: Mapping[str, Any], point: str, indent: int
    ) -> None:
        """Crash-atomic JSON write: same-directory temp file + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(path)
        self.fs.write_text(
            tmp, json.dumps(dict(payload), indent=indent), point=f"{point}#write"
        )
        self.fs.replace(tmp, path, point=f"{point}#rename")

    def _deployment_dir(self, name: str) -> Path:
        _check_name(name, "deployment")
        return self.root / name

    # ------------------------------------------------------------------
    # deployments
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Deployment names with stored metadata."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / self._DEPLOYMENT).exists()
        )

    def has_deployment(self, name: str) -> bool:
        """Whether the store holds a deployment named ``name``."""
        return (self._deployment_dir(name) / self._DEPLOYMENT).exists()

    def save_meta(self, name: str, meta: Mapping[str, Any]) -> None:
        """Write a deployment's metadata (cluster shape, bundle ref)."""
        directory = self._deployment_dir(name)
        self._write_json(directory / self._DEPLOYMENT, meta, "meta", indent=2)

    def read_deployment(self, name: str) -> StoredDeployment:
        """Read and decode everything stored for one deployment.

        Each file is read once; damage, a missing file included, is an
        error on the snapshot, never an exception.  The metadata must be
        a JSON object of this code's schema version and each record file
        a JSON object (its raw bytes are kept, so a torn file can still
        be digested); the state decodes field by field
        (:class:`StoredState`).
        """
        directory = self._deployment_dir(name)
        _, meta, meta_error = _read_object(directory / self._DEPLOYMENT)
        if meta is not None:
            try:
                check_version(meta, "deployment metadata")
            except ValueError as exc:
                meta, meta_error = None, f"ValueError: {exc}"
        return StoredDeployment(
            name,
            meta,
            meta_error,
            tuple(self.read_record(name, v) for v in self.versions(name)),
            StoredState.decode(directory / self._STATE),
        )

    # ------------------------------------------------------------------
    # plan records
    # ------------------------------------------------------------------

    def versions(self, name: str) -> list[int]:
        """Stored plan-record versions of ``name``, ascending."""
        plans = self._deployment_dir(name) / self._PLANS
        if not plans.is_dir():
            return []
        found = []
        for entry in plans.iterdir():
            stem, suffix = entry.name[:-5], entry.name[-5:]
            if (
                entry.is_file()
                and suffix == ".json"
                and stem.startswith("v")
                and stem[1:].isdigit()
            ):
                found.append(int(stem[1:]))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """Highest stored plan version of ``name`` (0 when none exist)."""
        versions = self.versions(name)
        return versions[-1] if versions else 0

    def save_record(self, name: str, record: Mapping[str, Any]) -> None:
        """Append one immutable plan record (its ``version`` keys it).

        The commit is an atomic *exclusive* link, not a rename: a rename
        overwrites, so two service handles racing on the same version —
        e.g. two processes serving one store directory — would silently
        clobber each other's records.  The loser gets
        ``FileExistsError`` instead and re-allocates a fresh version.

        Raises:
            FileExistsError: when the version is already stored; records
                are immutable, so the caller must allocate a new one.
        """
        version = int(record["version"])
        if version < 1:
            raise ValueError(f"record version must be >= 1, got {version}")
        plans = self._deployment_dir(name) / self._PLANS
        path = plans / f"v{version}.json"
        if path.exists():
            raise FileExistsError(
                f"plan record v{version} of deployment {name!r} already "
                "exists; records are immutable"
            )
        plans.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(path)
        try:
            self.fs.write_text(
                tmp, json.dumps(dict(record), indent=1), point="record#write"
            )
            try:
                self.fs.link(tmp, path, point="record#rename")
            except FileExistsError:
                raise FileExistsError(
                    f"plan record v{version} of deployment {name!r} already "
                    "exists; records are immutable"
                ) from None
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass

    def load_record(self, name: str, version: int) -> dict[str, Any]:
        """Read one stored plan record.

        Raises:
            FileNotFoundError: when the version is not stored.
        """
        path = self._deployment_dir(name) / self._PLANS / f"v{version}.json"
        if not path.exists():
            raise FileNotFoundError(
                f"no plan record v{version} of deployment {name!r} in store "
                f"{self.root} (stored: {self.versions(name) or 'none'})"
            )
        return json.loads(path.read_text())

    def read_record(self, name: str, version: int) -> StoredRecord:
        """Read one listed plan-record file: raw bytes plus its object.

        Never raises on damage: a missing, torn or non-object file comes
        back with ``payload=None`` and the reason in ``error``.
        """
        path = self._deployment_dir(name) / self._PLANS / f"v{version}.json"
        return StoredRecord(version, *_read_object(path))

    # ------------------------------------------------------------------
    # mutable deployment state (applied stack)
    # ------------------------------------------------------------------

    def save_state(self, name: str, state: Mapping[str, Any]) -> None:
        """Write the mutable deployment state (the applied stack)."""
        directory = self._deployment_dir(name)
        self._write_json(directory / self._STATE, state, "state", indent=2)
