"""Every function, class and method defined in src is used: its name is
referenced somewhere in src or tests (dunders are called by the language).
A static or class method of class C counts as referenced only as C.name,
C a name or the last attribute of a dotted chain, so a method that shares
its name with another class's is not seen as called through it.
A test is not a caller the library needs: every definition is referenced
in src or perfbench, or is one of the PUBLIC library constructions, so
that a reader only tests use lives in tests/helpers.py.  Every local a
src function assigns, and every parameter of a module-level src
function, is read, in the function or in one nested in it (names
starting with _ are exempt).  Methods may ignore a parameter: a class
shares its method signatures with its siblings.  Every name a module of
src or tests imports at module level is read in that module."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotabaxter"

# The paper's constructions and checks that the library offers and that
# neither the package itself nor the benchmark calls.
PUBLIC = (
    "AInftyBimodule.adjoint", "DendriformRepresentation.adjoint",
    "DifferentialPair", "check_derivation", "check_extension_morphism",
    "cobounding_cochain", "extension_iso_from_cobounding",
    "invert_differential_pair", "morphism_induced_bimodule",
    "rb_bimodule_from_r_matrix", "rb_differential_matrix",
    "semidirect_inclusion_matrix",
)


def referenced_names(tree):
    """Each name, and C.name for each attribute read off C, a name or a
    dotted chain that ends in C."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
            owner = node.value
            if isinstance(owner, ast.Name):
                yield f"{owner.id}.{node.attr}"
            elif isinstance(owner, ast.Attribute):
                yield f"{owner.attr}.{node.attr}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def definitions(path, tree):
    """(name, where) for each function, class and method that is not a
    dunder; a static or class method of class C is named C.name."""
    owners = {id(node): cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef) and any(
                  isinstance(d, ast.Name)
                  and d.id in ("staticmethod", "classmethod")
                  for d in node.decorator_list)}
    return [(f"{owners[id(node)]}.{node.name}" if id(node) in owners
             else node.name, f"{path.name}:{node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def uses(dirs):
    """The definitions of the src files and the names the files of dirs
    reference."""
    defined, used = [], set()
    for path in (p for d in dirs for p in sorted(d.glob("*.py"))):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used.update(referenced_names(tree))
        if path.parent == SRC:
            defined.extend(definitions(path, tree))
    return defined, used


def test_every_definition_is_referenced():
    defined, used = uses([SRC, ROOT / "tests"])
    dead = [f"{where} {name}" for name, where in defined if name not in used]
    assert not dead, f"defined but never referenced: {', '.join(dead)}"


def test_static_methods_are_matched_by_their_class():
    src = ast.parse(
        "class A:\n"
        "    @staticmethod\n"
        "    def zero():\n"
        "        return A()\n"
        "class B:\n"
        "    @classmethod\n"
        "    def zero(cls):\n"
        "        return cls()\n"
        "    def adjoint(self):\n"
        "        return self\n")
    # A.zero is called through a dotted chain, B.zero not at all, though
    # a zero is; a plain method is matched by its name
    caller = ast.parse("pkg.mod.A.zero()\nB().adjoint()\n")
    used = set(referenced_names(caller))
    assert {name for name, _ in definitions(pathlib.Path("m.py"), src)
            if name not in used} == {"B.zero"}


def test_every_definition_has_a_caller_outside_the_tests():
    """Each definition with no reference in src or perfbench is named in
    PUBLIC, and each name there is such a definition; samples.py, the
    fixture module, is exempt."""
    defined, used = uses([SRC, ROOT / "perfbench"])
    uncalled = {name: where for name, where in defined
                if name not in used and not where.startswith("samples.py:")}
    only_tests = [f"{where} {name}" for name, where in uncalled.items()
                  if name not in PUBLIC]
    assert not only_tests, (
        f"called only by tests, so a test helper: {', '.join(only_tests)}")
    stale = sorted(set(PUBLIC) - set(uncalled))
    assert not stale, f"PUBLIC names a called or missing one: {stale}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(func):
    """The nodes of func's body outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree):
    """(function, name, line) for each name a function assigns and neither
    it nor a function nested in it reads."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, shared = {}, set()
        for node in own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for name, line in stored.items():
            if not (name in read or name in shared or name.startswith("_")):
                yield func.name, name, line


def test_unused_locals_are_found():
    tree = ast.parse(
        "def f(n):\n"
        "    ia, im = g(n), g(n)\n"
        "    for i, _j in pairs(n):\n"
        "        total = i\n"
        "    def inner():\n"
        "        return im\n"
        "    return inner\n")
    assert set(unused_locals(tree)) == {("f", "ia", 2), ("f", "total", 4)}


def test_every_local_is_read():
    unused = [f"{path.name}:{line} {func}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for func, name, line in unused_locals(
                  ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert not unused, f"assigned but never read: {', '.join(unused)}"


def unused_parameters(tree):
    """(function, name, line) for each parameter of a module-level function
    that neither it nor a function nested in it reads."""
    for func in tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for param in params:
            if not (param.arg in read or param.arg.startswith("_")):
                yield func.name, param.arg, param.lineno


def test_unused_parameters_are_found():
    tree = ast.parse(
        "def f(a, b, *rest, c=1, _d=2, **kw):\n"
        "    def inner(e):\n"
        "        return b\n"
        "    return inner, kw\n"
        "class K:\n"
        "    def m(self, unused):\n"
        "        return self\n")
    assert set(unused_parameters(tree)) == {
        ("f", "a", 1), ("f", "rest", 1), ("f", "c", 1)}


def test_every_parameter_is_read():
    unused = [f"{path.name}:{line} {func}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for func, name, line in unused_parameters(
                  ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert not unused, f"parameter never read: {', '.join(unused)}"


def unused_imports(tree):
    """(name, line) for each name a module-level import binds and the
    module never reads; `from __future__` imports bind no name."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield name, node.lineno


def test_unused_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from m import (a, b as c,\n"
        "               d)\n"
        "def f():\n"
        "    import sys\n"
        "    return a, os.path.join, c\n")
    assert set(unused_imports(tree)) == {("js", 3), ("d", 4)}


def test_every_import_is_read():
    unused = [f"{path.parent.name}/{path.name}:{line} {name}"
              for path in sorted([*SRC.glob("*.py"),
                                  *(ROOT / "tests").glob("*.py")])
              for name, line in unused_imports(
                  ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert not unused, f"imported but never read: {', '.join(unused)}"
