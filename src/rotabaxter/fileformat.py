"""Structure files: exact JSON serialization of every declared structure.

A structure file is a single JSON document:

    {
      "field": "Q",
      "spaces":   { name: {"dim": n, "basis_names": [...]?} },
      "bilinear": { name: {"from": [s1, s2], "to": s, "tensor": data} },
      "linear":   { name: {"from": s | [s, ...], "to": s, "matrix": rows} },
      "declare":  [ {"type": kind, "name": ..., ...}, ... ]
    }

All scalars are rational strings "p" or "p/q" (never floats).  A bilinear
tensor is nested data[i][j][k]; a linear matrix has to-dim rows of
from-dim entries, and a list-valued "from" means the flattened tensor
product of those spaces, first factor most significant.  Declarations are
resolved in order, so anything referenced must appear earlier in the
list.  Parsing is strict: unresolved names, wrong shapes, malformed
rationals, and unknown fields all raise ParseError naming the offending
key.  Checking the declared structures against their axioms is the
caller's job (the command line front end does it); parsing checks shapes
and the cross-checks in KINDS.  Each distinct scalar string of a document
is parsed once.

KINDS describes each declaration kind once: its constructor, and the
fields of its entry (spaces, maps, lists of them, references to earlier
declarations, a scalar table, a degree, nested objects) in order, with
its cross-checks after the fields they read.  parse_document walks the
fields to read an entry, and declare to write one: a field names the
suffix of what it writes (".space", ".mul", ".R", ".beta1", ...), the
object's attribute, and a map's spaces as dotted paths through the entry
and the declarations it names ("over.module.space").

dump_document writes with render_json, the package's one JSON renderer,
which the command line's JSON reports use too: the bytes of
json.dumps(obj, indent=2, sort_keys=True), in one pass.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import partial
from math import prod
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, DendriformRepresentation,
    ShapeError, StructureConstants,
)
from .classification import (
    AbelianExtension, AInftyBimodule, HomotopyRRBOperator, Section,
    TwoTermAInfty, require_fit,
)
from .cohomology import RRBCochain
from .linalg import format_matrix, parse_ratio, ratio_matrix
from .rrb import RelativeRBAlgebra, RMatrix
from .rrb_modules import RRBBimodule


class ParseError(ValueError):
    """Structure file rejected; the message names the offending key."""


# one resolved entry of the declare list
Declaration = namedtuple("Declaration", "kind name obj refs")


class StructureFile:
    """Parsed and resolved structure file."""

    __slots__ = ("spaces", "bilinear", "linear", "declarations", "by_name")

    def __init__(self, spaces, bilinear, linear, declarations):
        self.spaces, self.bilinear, self.linear = spaces, bilinear, linear
        self.declarations = declarations
        self.by_name = {d.name: d for d in declarations}

    def find(self, kind):
        """First declaration of the kind, or None."""
        for d in self.declarations:
            if d.kind == kind:
                return d
        return None

    def find_all(self, kind):
        return [d for d in self.declarations if d.kind == kind]


# ---------------------------------------------------------------- parsing


def _scalar_rows():
    """entries(rows, key, tail, width): the entries of rows (lists) of one
    file as pairs (p, q), each distinct string parsed once.  An error names
    row n key+tail[n], or key+tail[i][j] for (i, j) = divmod(n, width).
    Only strings are kept: True == 1, and a bool must still be refused."""
    memo = {}

    def read(v):
        if not isinstance(v, str):
            return parse_ratio(v)
        pq = memo.get(v)
        if pq is None:
            pq = memo[v] = parse_ratio(v)
        return pq

    def entries(rows, key, tail, width=None):
        try:
            return [memo[v] for row in rows for v in row]
        except (KeyError, TypeError):  # a string not seen yet, or no string
            pass
        out = []
        for n, row in enumerate(rows):
            try:
                out += [read(v) for v in row]
            except ValueError as err:
                index = (n,) if width is None else divmod(n, width)
                raise ParseError(key + tail + "".join(f"[{i}]" for i in index)
                                 + f": {err}") from None
        return out
    return entries


def _keys(required, optional=()):
    """The fields an entry must have, in order and as a set, and those it
    may have ("type" in any entry)."""
    return (tuple(required), frozenset(required),
            frozenset((*required, *optional, "type")))


def _check_keys(entry, key, keys):
    order, required, allowed = keys
    if not isinstance(entry, dict):
        raise ParseError(f"{key}: must be an object")
    present = entry.keys()
    if not present <= allowed:
        raise ParseError(f"{key}: unknown fields {sorted(present - allowed)}")
    if not present >= required:
        missing = next(f for f in order if f not in entry)
        raise ParseError(f"{key}: missing field '{missing}'")


_SPACE_KEYS = _keys(("dim",), ("basis_names",))
_MAP_KEYS = {"bilinear": _keys(("from", "to", "tensor")),
             "linear": _keys(("from", "to", "matrix"))}


def _resolve(rs, table, value, key, tail=""):
    """The entry of rs[table] (the word errors use) that a name refers to;
    errors name key + tail."""
    if not isinstance(value, str):
        raise ParseError(f"{key}{tail}: names must be strings, got "
                         f"{type(value).__name__}")
    try:
        return rs[table][value]
    except KeyError:
        raise ParseError(f"{key}{tail}: unresolved {table} '{value}'") \
            from None


def _table(value, key, kind):
    """A table (dict) or the declare list; absent or null reads as empty."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ParseError(f"{key}: must be "
                         + ("an object" if kind is dict else "a list"))
    return value


def _parse_spaces(raw):
    spaces = {}
    for name, entry in raw.items():
        key = f"spaces.{name}"
        _check_keys(entry, key, _SPACE_KEYS)
        dim = entry["dim"]
        if type(dim) is not int or dim < 0:  # bool is an int subclass
            raise ParseError(f"{key}.dim: must be a nonnegative integer")
        names = entry.get("basis_names")
        if names is not None:
            if not isinstance(names, list) or len(names) != dim or \
                    not all(isinstance(s, str) for s in names):
                raise ParseError(f"{key}.basis_names: needs {dim} strings")
            names = tuple(names)
        spaces[name] = {"dim": dim, "basis_names": names}
    return spaces


def _parse_maps(raw, rs, table):
    """The bilinear table (maps from two spaces, a tensor of planes of
    rows) or the linear one (from a space or a list, a matrix of rows)."""
    out, row_of = {}, rs["scalars"]
    for name, entry in raw.items():
        key = f"{table}.{name}"
        _check_keys(entry, key, _MAP_KEYS[table])
        frm = entry["from"]
        if table == "bilinear" and (not isinstance(frm, list) or
                                    len(frm) != 2):
            raise ParseError(f"{key}.from: needs exactly two space names")
        dims = []
        for s in (frm if isinstance(frm, list) else [frm]):
            dims.append(_resolve(rs, "space", s, key, ".from")["dim"])
        cod = _resolve(rs, "space", entry["to"], key, ".to")["dim"]
        if table == "linear":
            rows, dom = entry["matrix"], prod(dims)
            if not isinstance(rows, list) or len(rows) != cod:
                raise ParseError(f"{key}.matrix: needs {cod} rows")
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != dom:
                    raise ParseError(f"{key}.matrix[{i}]: needs {dom} entries")
            out[name] = ratio_matrix(cod, dom, row_of(rows, key, ".matrix"))
            continue
        (dl, dr), tensor = dims, entry["tensor"]
        if not isinstance(tensor, list) or len(tensor) != dl:
            raise ParseError(f"{key}.tensor: needs {dl} planes")
        for i, plane in enumerate(tensor):
            if not isinstance(plane, list) or len(plane) != dr:
                raise ParseError(f"{key}.tensor[{i}]: needs {dr} rows")
            for j, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != cod:
                    raise ParseError(
                        f"{key}.tensor[{i}][{j}]: needs {cod} entries")
        # the rows of the file, c[i][j], are the columns of the matrix
        ratios = row_of([r for p in tensor for r in p], key, ".tensor", dr)
        out[name] = StructureConstants(
            dl, dr, ratio_matrix(cod, dl * dr, ratios, by_columns=True))
    return out


# ------------------------------------------------------ the kinds' fields
# A field's read(value, key, rs, vals) gives its value from the entry's
# (vals: the fields before it; _ABSENT: a missing optional field), and
# write(w, prefix, obj) what the entry holds for obj (None: nothing),
# writing what it names under prefix and a suffix.  Declaration.refs keep
# the "name" in the entry or the "value" read of a field with kept.  A
# check (entry, key, vals) follows the fields it reads.

_ABSENT = object()
_Field = namedtuple("_Field", "name read write optional kept",
                    defaults=(False, None))


def _space(name="space", suffix=".space", dim="dim"):
    """A space of the object's dimension dim, with its basis names if any."""
    def read(value, key, rs, vals):
        return _resolve(rs, "space", value, key, "." + name)

    def write(w, prefix, obj):
        return add_space(w.doc, prefix + suffix,
                         dim(obj) if callable(dim) else getattr(obj, dim),
                         getattr(obj, "basis_names", None))
    return _Field(name, read, write)


def _map(table, name, suffix, spaces, attr=None, optional=False):
    """A map of the table, the object's attribute attr (None: not written);
    spaces is "from ... > to", paths (one from path written as a name), or
    a function of the object giving (from paths, written as a list, to)."""
    def read(value, key, rs, vals):
        return None if value is _ABSENT else _resolve(rs, table, value, key)

    def write(w, prefix, obj):
        m = getattr(obj, attr or name)
        if m is None:
            return None
        if callable(spaces):
            paths, to = spaces(obj)
            frm = [w.at(p) for p in paths]
        else:
            paths, to = spaces.split(" > ")
            frm = [w.at(p) for p in paths.split()]
            frm = frm if len(frm) > 1 else frm[0]
        return _add_map(w.doc, table, prefix + suffix, frm, w.at(to), m)
    return _Field(name, read, write, optional)


_bilinear, _linear = partial(_map, "bilinear"), partial(_map, "linear")


def _ref(name, kinds, suffix=None, refs=None):
    """An earlier declaration of the kinds: given by the caller, or a part,
    the attribute name, first written under the suffix with the refs."""
    def read(value, key, rs, vals):
        d = _resolve(rs, "declaration", value, key)
        if d.kind not in kinds:
            raise ParseError(f"{key}: '{value}' is a {d.kind}, expected "
                             + " or ".join(kinds))
        return d.obj

    def write(w, prefix, obj):
        if suffix is None:
            return w.given[name]
        _Writer(w.doc, w.index, kinds[0], prefix + suffix, getattr(obj, name),
                {f: w.at(path) for f, path in refs.items()})
        return prefix + suffix
    return _Field(name, read, write, kept="name")


def _list(name, need, items):
    """The fields items as a list; need words its length in errors."""
    def read(value, key, rs, vals):
        if not isinstance(value, list) or len(value) != len(items):
            raise ParseError(f"{key}.{name}: needs {need}")
        return [f.read(v, key, rs, vals) for f, v in zip(items, value)]
    return _Field(name, read, lambda w, prefix, obj: [
        f.write(w, prefix, obj) for f in items])


def _slots(name, need, suffix, *paths, count, attr=None):
    """count linear maps (count: a number or a field); with paths (base,
    slot, to), map s goes from base^k with its s-th factor slot, to to."""
    def read(value, key, rs, vals):
        n = vals[count] if isinstance(count, str) else count
        if not isinstance(value, list) or len(value) != n:
            raise ParseError(f"{key}.{name}: needs " + need.format(n))
        return [_resolve(rs, "linear", v, key) for v in value]

    def write(w, prefix, obj):
        maps, (b, sl, t) = getattr(obj, attr or name), map(w.at, paths)
        return [_add_map(w.doc, "linear", prefix + suffix.format(s + 1),
                         [sl if u == s else b for u in range(len(maps))], t, m)
                for s, m in enumerate(maps)]
    return _Field(name, read, write)


def _square(name, over, attr):
    """A square table of scalars as wide as the object of the field over."""
    def read(rows, key, rs, vals):
        d = vals[over].dim
        if not isinstance(rows, list) or len(rows) != d or \
                any(not isinstance(r, list) or len(r) != d for r in rows):
            raise ParseError(f"{key}.{name}: needs {d} x {d} entries")
        return ratio_matrix(d, d, rs["scalars"](rows, key, "." + name))
    return _Field(name, read, lambda w, prefix, obj: format_matrix(
        getattr(obj, attr)))


def _degree(name):
    """A positive integer, the object's attribute name."""
    def read(value, key, rs, vals):
        if type(value) is not int or value < 1:  # bool is an int subclass
            raise ParseError(f"{key}.{name}: must be a positive integer")
        return value
    return _Field(name, read, lambda w, prefix, obj: getattr(obj, name))


def _object(name, fields, build=None, sections=False):
    """A nested object of the fields, read as their dict or build(*values);
    with sections, a table of them by name that the caller gives."""
    keys, plan = _keys([f.name for f in fields]), _plan(fields)

    def read_at(value, key, rs):
        _check_keys(value, key, keys)
        sub = _walk(plan, value, key, rs)
        return sub if build is None else build(*sub.values())

    def read(value, key, rs, vals):
        key = f"{key}.{name}"
        if not sections:
            return read_at(value, key, rs)
        table = _table(None if value is _ABSENT else value, key, dict)
        return {sname: read_at(sentry, f"{key}.{sname}", rs)
                for sname, sentry in table.items()}

    def write(w, prefix, obj):
        if sections:
            return {sname: {f.name: f.write(w, f"{prefix}.{sname}", sec)
                            for f in fields}
                    for sname, sec in w.given.get(name, {}).items()} or None
        sub = w.entry[name] = {}  # its fields' paths reach into it
        for f in fields:
            sub[f.name] = f.write(w, prefix, obj)
        return sub
    return _Field(name, read, write, sections, "value" if sections else None)


def _plan(steps):
    """(name, read) of each field and (None, check) of each check."""
    return [(s.name, s.read) if isinstance(s, _Field) else (None, s)
            for s in steps]


def _walk(plan, entry, key, rs):
    """The values of the fields of an entry whose keys are checked."""
    vals = {}
    for name, read in plan:
        if name is None:
            read(entry, key, vals)
        else:
            vals[name] = read(entry.get(name, _ABSENT), key, rs, vals)
    return vals


def _over(field, of, via=None):
    """Check: the object of field is over that of field of, or its via."""
    def check(entry, key, vals):
        if vals[field].over is not (vals[of] if via is None
                                    else getattr(vals[of], via)):
            raise ParseError(
                f"{key}: {field} '{entry[field]}' is not over "
                + (f"the {via} of" if via else "algebra") + f" '{entry[of]}'")
    return check


def _operator_layers(_entry, key, vals):
    a, m, r0, r1 = (vals[f] for f in ("algebra", "module", "r0", "r1"))
    if (r0.cols, r0.rows) != (m.dim0, a.dim0) or \
            (r1.cols, r1.rows) != (m.dim1, a.dim1):
        raise ParseError(f"{key}: operator layers do not map the module "
                         "complex into the algebra complex")


def _fiber_operator(_entry, _key, vals):
    fiber = vals["fiber"]
    if (fiber["operator"].rows, fiber["operator"].cols) != \
            (fiber["algebra_space"]["dim"], fiber["module_space"]["dim"]):
        raise ShapeError("fiber operator must map the module space into the "
                         "algebra space")


def _sections_fit(_entry, key, vals):
    for sname, sec in vals["sections"].items():
        try:
            sec.fit(vals["base"], vals["total"])
        except ShapeError as err:
            raise ParseError(
                f"{key}.sections.{sname}: shape mismatch: {err}") from None


def _gamma_rule(entry, key, vals):
    if vals["degree"] >= 2 and "gamma" not in entry:
        raise ParseError(f"{key}: degree >= 2 needs a gamma map")
    if vals["degree"] == 1 and "gamma" in entry:
        raise ParseError(f"{key}: degree 1 has no gamma map")


class _Kind:
    """A kind: build(*field values) gives its object; steps are its fields
    and checks."""

    def __init__(self, build, *steps):
        self.plan, self.build = _plan(steps), build
        self.fields = [s for s in steps if isinstance(s, _Field)]
        self.keys = _keys(
            ["name", *(f.name for f in self.fields if not f.optional)],
            [f.name for f in self.fields if f.optional])
        self.kept = [(f.name, f.kept == "name") for f in self.fields if f.kept]

    def read(self, entry, key, rs):
        """(object, refs) of an entry."""
        _check_keys(entry, key, self.keys)
        vals = _walk(self.plan, entry, key, rs)
        return self.build(*vals.values()), {
            f: (entry if by_name else vals)[f] for f, by_name in self.kept}


_LAYERS = _list("spaces", "[degree0, degree1]", [
    _space("spaces", f".deg{i}", f"dim{i}") for i in (0, 1)])


def _blocks(name, spaces, block=None):
    """The blocks (block or name)ij, i, j = 00, 01, 10, from the spaces
    spaces(i, j) to the layer of degree i + j."""
    return _list(name, "three bilinear names", [
        _bilinear(None, f".{block or name}{i}{j}",
                  f"{spaces(i, j)} > spaces.{i + j}", f"{block or name}{i}{j}")
        for i, j in ((0, 0), (0, 1), (1, 0))])


KINDS = {
    "assoc_algebra": _Kind(
        lambda sp, mu: AssocAlgebra(sp["dim"], mu, sp["basis_names"]),
        _space(), _bilinear("product", ".mul", "space space > space", "mu")),
    "bimodule": _Kind(
        lambda alg, sp, left, right: Bimodule(alg, sp["dim"], left, right,
                                              sp["basis_names"]),
        _ref("algebra", ("assoc_algebra",)), _space(),
        _bilinear("left", ".left", "algebra.space space > space"),
        _bilinear("right", ".right", "space algebra.space > space")),
    "rrb_algebra": _Kind(
        RelativeRBAlgebra,
        _ref("algebra", ("assoc_algebra",), ".algebra", {}),
        _ref("module", ("bimodule",), ".module", {"algebra": "algebra"}),
        _over("module", "algebra"),
        _linear("operator", ".R", "module.space > algebra.space", "rop")),
    "rrb_bimodule": _Kind(
        RRBBimodule, _ref("over", ("rrb_algebra",)),
        _ref("base", ("bimodule",), ".base", {"algebra": "over.algebra"}),
        _ref("fiber", ("bimodule",), ".fiber", {"algebra": "over.algebra"}),
        _over("base", "over", "algebra"), _over("fiber", "over", "algebra"),
        _linear("operator", ".S", "fiber.space > base.space", "sop"),
        _bilinear("left_pair", ".l",
                  "over.module.space base.space > fiber.space"),
        _bilinear("right_pair", ".r",
                  "base.space over.module.space > fiber.space")),
    "dendriform": _Kind(
        lambda sp, prec, succ: DendriformAlgebra(sp["dim"], prec, succ,
                                                 sp["basis_names"]),
        _space(), *(_bilinear(p, f".{p}", "space space > space")
                    for p in ("prec", "succ"))),
    "dendriform_rep": _Kind(
        lambda den, sp, *actions: DendriformRepresentation(
            den, sp["dim"], *actions, sp["basis_names"]),
        _ref("over", ("dendriform",)), _space(),
        *(_bilinear(f"{side}_{p}", f".{side}_{p}", spaces)
          for side, spaces in (("left", "over.space space > space"),
                               ("right", "space over.space > space"))
          for p in ("prec", "succ"))),
    "r_matrix": _Kind(
        RMatrix, _ref("algebra", ("assoc_algebra",)),
        _square("tensor", "algebra", "matrix")),
    "two_term_ainfty": _Kind(
        lambda sp, d, mu2, mu3: TwoTermAInfty(sp[0]["dim"], sp[1]["dim"], d,
                                              mu2, mu3),
        _LAYERS, _linear("d", ".d", "spaces.1 > spaces.0"),
        _blocks("mu2", lambda i, j: f"spaces.{i} spaces.{j}", "mu"),
        _linear("mu3", ".mu3", "spaces.0 spaces.0 spaces.0 > spaces.1")),
    "ainfty_bimodule": _Kind(
        lambda a, sp, *maps: AInftyBimodule(a, sp[0]["dim"], sp[1]["dim"],
                                            *maps),
        _ref("over", ("two_term_ainfty",)), _LAYERS,
        _linear("d", ".d", "spaces.1 > spaces.0", "dm"),
        _blocks("left", lambda i, j: f"over.spaces.{i} spaces.{j}"),
        _blocks("right", lambda i, j: f"spaces.{i} over.spaces.{j}"),
        _slots("mu3", "three linear names", ".mu3m{}", "over.spaces.0",
               "spaces.0", "spaces.1", count=3, attr="mu3m")),
    "homotopy_rrb": _Kind(
        lambda _a, _m, *layers: HomotopyRRBOperator(*layers),
        _ref("algebra", ("two_term_ainfty",)),
        _ref("module", ("ainfty_bimodule",)),
        lambda _entry, _key, v: require_fit(v["algebra"], v["module"]),
        _over("module", "algebra"),
        _linear("r0", ".r0", "module.spaces.0 > algebra.spaces.0"),
        _linear("r1", ".r1", "module.spaces.1 > algebra.spaces.1"),
        _operator_layers,
        _bilinear("r2", ".r2",
                  "module.spaces.0 module.spaces.0 > algebra.spaces.1")),
    "extension": _Kind(
        lambda base, total, fiber, maps, _sections: AbelianExtension(
            base, fiber["operator"], total, *maps.values()),
        _ref("base", ("rrb_algebra",), ".base", {}),
        _ref("total", ("rrb_algebra",), ".total", {}),
        _object("fiber", [
            _space("algebra_space", ".fiber_algebra", lambda e: e.sop.rows),
            _space("module_space", ".fiber_module", lambda e: e.sop.cols),
            _linear("operator", ".S",
                    "fiber.module_space > fiber.algebra_space", "sop")]),
        _fiber_operator,
        _object("maps", [
            _linear("alg_incl", ".i",
                    "fiber.algebra_space > total.algebra.space"),
            _linear("mod_incl", ".ibar",
                    "fiber.module_space > total.module.space"),
            _linear("alg_proj", ".p",
                    "total.algebra.space > base.algebra.space"),
            _linear("mod_proj", ".pbar",
                    "total.module.space > base.module.space")]),
        _object("sections", [
            _linear("s", ".s", "base.algebra.space > total.algebra.space"),
            _linear("sbar", ".sbar",
                    "base.module.space > total.module.space")],
            Section, sections=True),
        _sections_fit),
    "cocycle": _Kind(
        lambda x, b, *maps: RRBCochain(*maps).validate(x, b),
        _ref("over", ("rrb_algebra",)),
        _ref("coefficients", ("rrb_bimodule",)),
        _over("coefficients", "over"), _degree("degree"),
        _linear("alpha", ".alpha", lambda c: (
            ["over.algebra.space"] * c.degree, "coefficients.base.space")),
        _slots("beta", "{} linear names", ".beta{}", "over.algebra.space",
               "over.module.space", "coefficients.fiber.space",
               count="degree"),
        _gamma_rule,
        _map("linear", "gamma", ".gamma", lambda c: (
            ["over.module.space"] * (c.degree - 1), "coefficients.base.space"),
             optional=True)),
}


def _declaration(entry, idx, rs):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ParseError(f"declare[{idx}]: needs a 'type' field")
    kind = entry["type"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ParseError(f"declare[{idx}]: unknown type '{kind}'")
    if "name" not in entry or not isinstance(entry["name"], str):
        raise ParseError(f"declare[{idx}]: needs a string 'name'")
    name = entry["name"]
    key = f"declare.{name}"
    if name in rs["declaration"]:
        raise ParseError(f"{key}: duplicate declaration name")
    try:
        obj, refs = KINDS[kind].read(entry, key, rs)
    except ShapeError as err:
        raise ParseError(f"{key}: shape mismatch: {err}") from None
    return Declaration(kind, name, obj, refs)


def parse_document(doc):
    """Resolve a decoded JSON document into a StructureFile."""
    if not isinstance(doc, dict):
        raise ParseError("top level: must be a JSON object")
    unknown = set(doc) - {"field", "spaces", "bilinear", "linear", "declare"}
    if unknown:
        raise ParseError(f"top level: unknown keys {sorted(unknown)}")
    if doc.get("field") != "Q":
        raise ParseError('field: must be "Q"')
    raw = {key: _table(doc.get(key), key, dict)
           for key in ("spaces", "bilinear", "linear")}
    # the tables names resolve in, by the word errors use, and the scalars
    rs = {"space": _parse_spaces(raw["spaces"]), "scalars": _scalar_rows(),
          "declaration": {}}
    for table in ("bilinear", "linear"):
        rs[table] = _parse_maps(raw[table], rs, table)
    for idx, entry in enumerate(_table(doc.get("declare"), "declare", list)):
        d = _declaration(entry, idx, rs)
        rs["declaration"][d.name] = d
    return StructureFile(rs["space"], rs["bilinear"], rs["linear"],
                         list(rs["declaration"].values()))


def parse_text(text):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        # a JSONDecodeError, an integer past the interpreter's digit limit,
        # or nesting deeper than its recursion limit
        raise ParseError(f"invalid JSON: {err}") from None
    return parse_document(doc)


def parse_path(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err}") from None
    return parse_text(text)


# ------------------------------------------------------------ serializing


def _sc_json(sc):
    """The nested c[i][j][k]: the matrix's columns, cut into planes."""
    cols, dr = format_matrix(sc.matrix, by_columns=True), sc.dim_right
    return [cols[i * dr:(i + 1) * dr] for i in range(sc.dim_left)]


def new_document():
    return {"field": "Q", "spaces": {}, "bilinear": {}, "linear": {},
            "declare": []}


def add_space(doc, name, dim, basis_names=None):
    entry = {"dim": dim}
    if basis_names is not None:
        entry["basis_names"] = list(basis_names)
    doc["spaces"][name] = entry
    return name


def _add_map(doc, table, name, frm, to, m):
    """Add the bilinear or linear map m, from the space or spaces frm."""
    doc[table][name] = {"from": frm, "to": to, **(
        {"tensor": _sc_json(m)} if table == "bilinear" else
        {"matrix": format_matrix(m)})}
    return name


class _Writer:
    """Writes obj into doc as the declaration of the kind named name."""

    def __init__(self, doc, index, kind, name, obj, given):
        self.doc, self.index, self.given = doc, index, given
        self.entry = {"type": kind, "name": name}
        for f in KINDS[kind].fields:
            value = f.write(self, name, obj)
            if value is not None:
                self.entry[f.name] = value
        doc["declare"].append(self.entry)
        index[name] = self.entry

    def at(self, path):
        """The name at a dotted path through the entry and what it names."""
        value = self.entry
        for step in path.split("."):
            if isinstance(value, str):
                value = self.index[value]
            value = value[int(step)] if isinstance(value, list) \
                else value[step]
        return value


def declare(doc, kind, name, obj, paths=(), **given):
    """Append obj to doc as the declaration of the kind named name, after
    what it names.  given: the names its references give (over=...), and
    an extension's sections.  Returns (name, *the names at the paths)."""
    w = _Writer(doc, {d["name"]: d for d in doc["declare"]}, kind, name, obj,
                given)
    return (name, *map(w.at, paths))


def declare_rrb_algebra(doc, name, x):
    """Returns (declaration name, algebra space, module space)."""
    return declare(doc, "rrb_algebra", name, x,
                   ("algebra.space", "module.space"))


def declare_rrb_bimodule(doc, name, b, over_name, _alg_space, _mod_space):
    """Returns (declaration name, base space, fiber space)."""
    return declare(doc, "rrb_bimodule", name, b,
                   ("base.space", "fiber.space"), over=over_name)


def declare_cocycle(doc, name, c, over_name, coeff_name, _alg_space,
                    _mod_space, _base_space, _fiber_space):
    return declare(doc, "cocycle", name, c, over=over_name,
                   coefficients=coeff_name)[0]


def render_json(obj):
    """The text of json.dumps(obj, indent=2, sort_keys=True), rendered in
    one pass: the C escaper quotes every string, and a list of strings (a
    row of a matrix) is one join.  Takes dicts with string keys, lists,
    tuples, strings, ints, bools and None; anything else (a float, say,
    which no report holds) raises TypeError."""
    return _render(obj, "\n")


def _render(obj, nl):
    """obj rendered at the indent that nl, a newline, carries; the types
    are tried from the most to the least frequent in a structure file."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if isinstance(obj[0], str):
            try:
                return "[" + inner + sep.join(map(_quote, obj)) + nl + "]"
            except TypeError:  # not all strings
                pass
        return "[" + inner + sep.join([_render(v, inner) for v in obj]) \
            + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _render(v, inner)
             for k, v in sorted(obj.items())]) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def dump_document(doc):
    """Deterministic text form: sorted keys, two-space indent."""
    return render_json(doc) + "\n"


def write_path(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(doc))
