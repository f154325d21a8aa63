"""A cochain's coordinates are one column, linalg.stacked of its blocks,
and a cochain is cut out of a column with RRBCochain.of_column.  No module
of the package reads the dense tuple of RRBCochain.vector(), kept for the
perfbench workloads, or defines or calls the from_vector that of_column
replaced."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rotabaxter"


def vector_uses(tree):
    """(line, what) for each call of a .vector() method and each
    definition of or reference to from_vector."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "vector"):
            yield node.lineno, "vector()"
        elif isinstance(node, ast.Attribute) and node.attr == "from_vector":
            yield node.lineno, "from_vector"
        elif isinstance(node, ast.FunctionDef) and node.name == "from_vector":
            yield node.lineno, "def from_vector"


def test_vector_uses_are_found():
    tree = ast.parse(
        "def vector(self):\n"
        "    return tuple(self.blocks())\n"
        "diff = zip(c1.vector(), c2.vector())\n"
        "c = RRBCochain.from_vector(x, b, k, vec)\n"
        "def from_vector(x, b, k, vec):\n"
        "    return vec\n"
        "f = c.vector\n")
    assert sorted(vector_uses(tree)) == [
        (3, "vector()"), (3, "vector()"), (4, "from_vector"),
        (5, "def from_vector")]


def test_src_cuts_cochains_from_columns():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.name}:{line} {what}"
                     for line, what in vector_uses(tree))
    assert not found, f"dense cochain coordinates in src: {', '.join(found)}"
