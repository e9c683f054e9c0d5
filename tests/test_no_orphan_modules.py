"""Guard against dead modules: every ``repro`` module must be imported.

An AST scan of the source tree and its runnable consumers (``src/``,
``examples/``, ``benchmarks/``, ``perfbench/``, ``tools/``) collects every
module they import.  A ``src/repro`` module that nothing there imports —
only its own tests, say — is dead code and fails this test.  Entry points
that are run rather than imported are allowlisted explicitly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = ("src", "examples", "benchmarks", "perfbench", "tools")
#: Modules run as programs (``python -m repro``), never imported.
ENTRY_POINTS = {"repro.__main__"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path) -> set[str]:
    """Every dotted name a file imports, with its parent packages."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            # The code base uses absolute imports only; a relative one
            # (``node.level > 0``) would surface here as a false orphan.
            names.add(node.module)
            # ``from pkg import mod`` imports the submodule ``pkg.mod``.
            names.update(f"{node.module}.{a.name}" for a in node.names)
    closed = set(names)
    for name in names:
        parts = name.split(".")
        closed.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return closed


def _orphans() -> list[str]:
    modules = {
        _module_name(path): path for path in (SRC / "repro").rglob("*.py")
    }
    importers: dict[str, set[Path]] = {name: set() for name in modules}
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            for name in _imported_names(path) & importers.keys():
                importers[name].add(path)
    return sorted(
        name
        for name, path in modules.items()
        if name not in ENTRY_POINTS and not importers[name] - {path}
    )


def test_every_repro_module_is_imported():
    assert _orphans() == []

