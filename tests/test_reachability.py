"""Every module under ``src/repro`` is reached from a shipped entry point.

The entry points are the ``repro`` console script (``repro.cli``) and
every ``.py`` file under ``benchmarks/`` and ``examples/``. The scan
walks their imports with :mod:`ast`, imports inside functions included,
and follows the imports of every ``src/repro`` module it reaches. A
package ``__init__`` only re-exports: importing a name through it
reaches the module that defines the name, not everything the
``__init__`` imports. Importing a module also reaches its parent
packages, as Python does.

A module that nothing reaches is dead code, unless tests need it: an
oracle they compare against, or the inputs they build. Those few are
allowlisted below, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ENTRY_MODULE = "repro.cli"
ROOT_DIRS = ("benchmarks", "examples")

ALLOWED_UNREACHED = {
    "repro.algorithms.exhaustive": (
        "the exact LCRB-D optimum that the SCBG approximation-bound "
        "property test compares against"
    ),
    "repro.datasets.toy": (
        "the paper's worked examples (Figs. 1-3) that the unit and "
        "property tests run on"
    ),
    "repro.community.modularity": (
        "Newman modularity, the objective the Louvain tests check the "
        "detector's levels against"
    ),
    "repro.graph.subgraph": (
        "induced_subgraph, which the k-core property test builds each "
        "core with to check core_numbers"
    ),
}


def _library_modules() -> Dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _library_modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _reexports() -> Dict[str, Dict[str, Tuple[str, str]]]:
    """Per package: exported alias -> (source module, name there)."""
    table: Dict[str, Dict[str, Tuple[str, str]]] = {}
    for name in MODULES:
        if not _is_package(name):
            continue
        exported = table.setdefault(name, {})
        for node in ast.walk(ast.parse(MODULES[name].read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    exported[alias.asname or alias.name] = (node.module, alias.name)
    return table


REEXPORTS = _reexports()


def _defining_module(module: str, name: str) -> str:
    """The module that ``from module import name`` really reaches."""
    submodule = f"{module}.{name}"
    if submodule in MODULES:
        return submodule
    source = REEXPORTS.get(module, {}).get(name)
    if source is None:
        return module
    return _defining_module(*source)


def _imports(path: Path) -> Iterator[str]:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield _defining_module(node.module, alias.name)


def _reached() -> Set[str]:
    pending = [ENTRY_MODULE]
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            pending.extend(_imports(path))
    reached: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in reached or name not in MODULES:
            continue
        reached.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            pending.append(parent)
        if not _is_package(name):
            pending.extend(_imports(MODULES[name]))
    return reached


def test_every_library_module_is_reached():
    unreached = sorted(set(MODULES) - _reached() - set(ALLOWED_UNREACHED))
    assert not unreached, (
        f"no CLI command, benchmark or example reaches {unreached}: delete "
        "them, or allowlist one that tests need, with the reason"
    )


def test_allowlist_names_only_unreached_modules():
    reached = _reached()
    stale = sorted(
        name for name in ALLOWED_UNREACHED if name not in MODULES or name in reached
    )
    assert not stale, f"allowlisted but reached or missing: {stale}"
