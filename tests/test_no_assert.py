"""Validation in src must raise, not assert: python -O strips asserts."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rotabaxter"


def test_src_has_no_assert():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"assert statements in src: {', '.join(found)}"
