"""Every name the library defines is read by the library itself.

Test-only helpers belong in the tests that call them, so each module-level
function and class, each method and each annotated class field in
`src/graphseq` must be read (a load of the name or of an attribute so named)
somewhere in `src/graphseq`.  Dunder names are left out.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "graphseq"

# Read only by the acceptance tests (03 reads c_empirical, 12 parity_gap), which
# check the printed constants against the exact counts and stay as they are.
READ_OUTSIDE_SRC = {"c_empirical", "parity_gap"}


def _definitions(tree: ast.Module):
    """(name, line) of each top-level def and class, method and annotated field."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, item.lineno


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_source_definition_has_a_reader_in_source():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    assert "constants.py" in trees
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{module}:{line} {name}"
              for module, tree in trees.items()
              for name, line in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read and name not in READ_OUTSIDE_SRC]
    assert not unread, "defined in src/graphseq but read only outside it: " + ", ".join(unread)
