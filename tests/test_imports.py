"""No module in the package or the tests imports a name it never uses.

No linter is configured for this repository, so this walks each file's
syntax tree with the standard `ast` module instead.  A name counts as used
when it appears as a variable anywhere in the file, quoted annotations
included.  `from __future__` imports are
exempt, and so are the names `lifter/__init__.py` re-exports through
`__all__`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lifter

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "lifter").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # A quoted annotation such as "GoalIndex" or "list[Term]".
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def annotations(tree: ast.AST) -> list[ast.expr]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            found.append(node.returns)
    return found


def unused_imports(path: Path, exempt: set[str] = frozenset()) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    return [
        (name, line)
        for name, line in imported_names(tree).items()
        if name not in used and name not in exempt
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    exempt = set(lifter.__all__) if path == ROOT / "src" / "lifter" / "__init__.py" else set()
    assert unused_imports(path, exempt) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    sys.exit()\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == [("os", 2)]
