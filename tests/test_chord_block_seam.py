"""Each chord complex is defined once, by complexes._chord_block, for its
builder and for the surgery complexes alike: no other module of
src/chordhom reaches the chord bases and kernels that the seam pairs.
lefschetz.py keeps _decorated_bases, since the cyclic tensor complex
shares ho's basis."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chordhom"

SEAM_PARTS = {
    "_cyclic_bases",
    "_cyclic_kernel",
    "_decorated_bases",
    "_decorated_kernel",
    "_enumerate_marked_words",
    "_mcyc_kernel",
}
ALLOWED = {("lefschetz.py", "_decorated_bases")}


def seam_bypasses() -> set[tuple[str, str]]:
    """(module, name) for every name of SEAM_PARTS that a module other than
    complexes.py imports or reads as an attribute, less ALLOWED."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "complexes.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found |= {(path.name, name) for name in names & SEAM_PARTS}
    return found - ALLOWED


def test_only_complexes_pairs_chord_bases_with_images():
    assert seam_bypasses() == set()
