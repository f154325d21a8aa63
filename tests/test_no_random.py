"""No command draws random input: only samples may use random, and no
module of the package imports samples."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rotabaxter"


def imported_modules(tree):
    """(line, dotted module name) of every import, relative ones with their
    leading dots; `from . import samples` names `.samples`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield node.lineno, base
            sep = "." if node.module else ""
            for alias in node.names:
                yield node.lineno, base + sep + alias.name


def imports_in_src(wanted):
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend((path.name, f"{path.name}:{line}")
                     for line, name in imported_modules(tree)
                     if wanted(name))
    return found


def test_only_samples_imports_random():
    found = [where for name, where in imports_in_src(
        lambda m: m == "random" or m.startswith("random."))
        if name != "samples.py"]
    assert not found, f"random imported outside samples: {', '.join(found)}"


def test_src_does_not_import_samples():
    found = [where for _, where in imports_in_src(
        lambda m: m.split(".")[-1] == "samples")]
    assert not found, f"samples imported in src: {', '.join(found)}"
