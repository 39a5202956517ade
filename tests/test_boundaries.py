"""Module boundaries: no package module reaches into another's private names.

Each module keeps its helpers private, and siblings go through public
names only.  The one shared private helper is the memory guard
`core._check_bytes`, which every module that allocates calls.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spindyn"
SHARED = {"_check_bytes"}


def reach_ins(path):
    """Lines of `path` that import a private name from a sibling module or
    read a private attribute of any object other than self or cls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "spindyn"
        ):
            for alias in node.names:
                if alias.name.startswith("_") and alias.name not in SHARED:
                    yield f"{path.name}:{node.lineno} imports {alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            yield f"{path.name}:{node.lineno} reads .{node.attr}"


def test_modules_use_only_public_names_of_their_siblings():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"core.py", "hamiltonian.py", "trotter.py"}
    found = [line for path in modules for line in reach_ins(path)]
    assert found == []
