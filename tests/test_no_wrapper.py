"""A linear map is its Matrix.  No module of the package refers to
LinearMap, the shape check kept for the perfbench set-up, or reads the
domain_dim and codomain_dim of the wrapper class it replaced: a map's
dimensions are its matrix's cols and rows."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rotabaxter"


def wrapper_uses(tree):
    """(line, what) for each reference to LinearMap and each read of
    domain_dim or codomain_dim; the definition itself is not a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "LinearMap":
            yield node.lineno, "LinearMap"
        elif isinstance(node, ast.Attribute) and node.attr in (
                "LinearMap", "domain_dim", "codomain_dim"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, "LinearMap") for alias in node.names
                        if alias.name == "LinearMap")


def test_wrapper_uses_are_found():
    tree = ast.parse(
        "from .algebra import LinearMap\n"
        "def LinearMap(dom, cod, matrix):\n"
        "    return matrix\n"
        "f = LinearMap.zero(1, 2)\n"
        "n = f.domain_dim + g.codomain_dim\n"
        "h = algebra.LinearMap(1, 1, m)\n")
    assert sorted(wrapper_uses(tree)) == [
        (1, "LinearMap"), (4, "LinearMap"), (5, "codomain_dim"),
        (5, "domain_dim"), (6, "LinearMap")]


def test_src_uses_matrices_for_linear_maps():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.name}:{line} {what}"
                     for line, what in wrapper_uses(tree))
    assert not found, f"linear-map wrapper used in src: {', '.join(found)}"
