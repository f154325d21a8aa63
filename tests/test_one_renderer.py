"""Reports and structure files have one renderer, fileformat.render_json.
No other module of the package calls json.dumps, and none renders with
json.dumps(..., indent=...), for which CPython runs its pure-Python
encoder, not the C one."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def dumps_calls(tree):
    """(line, whether it passes indent) for each call of json.dumps, or of
    a dumps imported from json."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names if alias.name == "dumps"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "dumps" and \
                isinstance(f.value, ast.Name) and f.value.id == "json" or \
                isinstance(f, ast.Name) and f.id in imported:
            yield node.lineno, any(k.arg == "indent" for k in node.keywords)


def test_dumps_calls_are_found():
    tree = ast.parse(
        "import json\n"
        "from json import dumps as d\n"
        "text = json.dumps(x, indent=2, sort_keys=True)\n"
        "text = d(x)\n"
        "json.loads(text)\n"
        "text = render_json(x)\n")
    assert sorted(dumps_calls(tree)) == [(3, True), (4, False)]


def modules():
    paths = sorted((ROOT / "src" / "rotabaxter").glob("*.py"))
    assert len(paths) > 5
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"), str(p)))
            for p in paths]


def test_only_fileformat_calls_json_dumps():
    found = [f"{name}:{line}" for name, tree in modules()
             if name != "fileformat.py" for line, _ in dumps_calls(tree)]
    assert not found, f"json.dumps outside fileformat: {', '.join(found)}"


def test_nothing_renders_with_json_dumps_indent():
    found = [f"{name}:{line}" for name, tree in modules()
             for line, indent in dumps_calls(tree) if indent]
    assert not found, f"json.dumps with indent: {', '.join(found)}"
