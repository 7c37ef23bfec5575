"""Every name a module of src/chordhom, tests or scripts imports is read by
that module: an import nothing reads is dead weight.  The package's
__init__.py is exempt, since it imports to re-export, and so is
`from __future__ import annotations`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chordhom"
MODULES = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]


def unread_imports() -> set[tuple[str, str]]:
    """(module path, name) for every name bound by an import of the module
    and never read there, as a name or as the root of an attribute."""
    found = set()
    for path in sorted(MODULES):
        if path == SRC / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            )
            for alias in node.names
        }
        # the root of an attribute chain is itself an ast.Name
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found |= {(str(path.relative_to(ROOT)), name) for name in bound - read}
    return found


def test_every_import_is_read():
    assert unread_imports() == set()
