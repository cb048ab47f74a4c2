#!/usr/bin/env python
"""Docstring-presence lint for the public API.

Walks the given files/directories (default: ``src/repro/runtime``,
``src/repro/analysis``, ``src/repro/sim``, ``src/repro/mac``,
``src/repro/backends``, ``src/repro/core`` and ``src/repro/testbed``)
and
reports every public module, class, function or method without a
docstring.  Exit status 1 if anything is missing — CI runs this next
to the test suite.

Usage::

    python tools/lint_docstrings.py [PATH ...]

"Public" means the name (and every enclosing scope's name) has no
leading underscore; ``__init__`` and friends are treated as private.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, List, Sequence

DEFAULT_PATHS = ("src/repro/runtime", "src/repro/analysis",
                 "src/repro/sim", "src/repro/mac",
                 "src/repro/backends", "src/repro/core",
                 "src/repro/testbed")

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name: str) -> bool:
    """Whether ``name`` is part of the public API surface."""
    return not name.startswith("_")


def _walk_defs(node: ast.AST, qualname: str = "") -> Iterator[tuple]:
    """Yield ``(qualname, node)`` for every public def/class inside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEF_NODES):
            if not _is_public(child.name):
                continue
            child_qualname = (f"{qualname}.{child.name}"
                              if qualname else child.name)
            yield child_qualname, child
            if isinstance(child, ast.ClassDef):
                yield from _walk_defs(child, child_qualname)


def missing_docstrings(path: pathlib.Path) -> List[str]:
    """Public defs in ``path`` without docstrings, as ``file:line name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: List[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path}:1 (module)")
    for qualname, node in _walk_defs(tree):
        if ast.get_docstring(node) is None:
            missing.append(f"{path}:{node.lineno} {qualname}")
    return missing


def python_files(target: pathlib.Path) -> List[pathlib.Path]:
    """The ``*.py`` files under ``target`` (or ``target`` itself)."""
    if target.is_dir():
        return sorted(target.rglob("*.py"))
    return [target]


def run(paths: Sequence[str]) -> List[str]:
    """Lint every path; returns the list of violations."""
    violations: List[str] = []
    for raw in paths:
        target = pathlib.Path(raw)
        if not target.exists():
            raise FileNotFoundError(f"no such path: {target}")
        for path in python_files(target):
            violations.extend(missing_docstrings(path))
    return violations


def main(argv: Sequence[str]) -> int:
    """CLI entry point."""
    paths = list(argv) or list(DEFAULT_PATHS)
    violations = run(paths)
    if violations:
        print(f"{len(violations)} public definition(s) missing docstrings:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"docstring lint clean ({', '.join(paths)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
