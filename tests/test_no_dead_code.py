"""Every function, class and method defined in src is used: its name is
referenced somewhere in src or tests (dunders are called by the language)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotabaxter"


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def test_every_definition_is_referenced():
    defined, used = [], set()
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used.update(referenced_names(tree))
        if path.parent == SRC:
            defined.extend(
                (node.name, f"{path.name}:{node.lineno}")
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__")))
    dead = [f"{where} {name}" for name, where in defined if name not in used]
    assert not dead, f"defined but never referenced: {', '.join(dead)}"
