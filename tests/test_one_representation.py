"""A Matrix stores integers over one denominator, and only linalg.py sees
them.  No other module of the package or of the tests reads a matrix's
row dicts (_data) or its denominator (_den), or wraps rows with
Matrix._of: everything else goes through the public constructors and
operations, which move the integers (Matrix.reindexed places entries,
Matrix.from_blocks sums placed blocks), and through the Q-valued reads
at the boundary, so the storage can change in one file.  Every tensor is
held as a Matrix and nothing else."""

import ast
import pathlib

from rotabaxter.algebra import StructureConstants
from rotabaxter.rrb import RMatrix

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRIVATE = ("_data", "_den", "_of")


def storage_uses(tree):
    """(line, attribute) for each use of a private storage attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            yield node.lineno, node.attr


def test_storage_uses_are_found():
    tree = ast.parse(
        "rows = m._data\n"
        "den = other._den * 2\n"
        "m = Matrix._of(1, 1, [{0: 1}])\n"
        "data = m.row_dicts()\n"
        "self._data = None\n")
    assert sorted(storage_uses(tree)) == [
        (1, "_data"), (2, "_den"), (3, "_of"), (5, "_data")]


def test_only_linalg_sees_the_storage():
    paths = sorted([*(ROOT / "src" / "rotabaxter").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    found = []
    for path in paths:
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.name}:{line} {what}"
                     for line, what in storage_uses(tree))
    assert len(paths) > 20
    assert not found, f"matrix storage used outside linalg: {', '.join(found)}"


def test_tensors_hold_only_their_matrix():
    """A bilinear map and an r-matrix keep their constants in one Matrix,
    with no nested copy beside it."""
    assert StructureConstants.__slots__ == (
        "dim_left", "dim_right", "dim_out", "matrix")
    assert RMatrix.__slots__ == ("over", "matrix")
