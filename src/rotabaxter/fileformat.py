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
only.  Each document parses each distinct scalar string once.

dump_document writes with render_json, the package's one JSON renderer,
which the command line's JSON reports use too: the bytes of
json.dumps(obj, indent=2, sort_keys=True), in one pass.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, DendriformRepresentation,
    ShapeError, StructureConstants,
)
from .classification import (
    AbelianExtension, AInftyBimodule, HomotopyRRBOperator, Section,
    TwoTermAInfty,
)
from .cohomology import RRBCochain
from .linalg import format_matrix, parse_ratio, ratio_matrix
from .rrb import RelativeRBAlgebra, RMatrix
from .rrb_modules import RRBBimodule


class ParseError(ValueError):
    """Structure file rejected; the message names the offending key."""


class Declaration:
    """One resolved entry of the declare list."""

    __slots__ = ("kind", "name", "obj", "refs")

    def __init__(self, kind, name, obj, refs):
        self.kind = kind
        self.name = name
        self.obj = obj
        self.refs = refs


class StructureFile:
    """Parsed and resolved structure file."""

    __slots__ = ("spaces", "bilinear", "linear", "declarations", "by_name")

    def __init__(self, spaces, bilinear, linear, declarations):
        self.spaces = spaces
        self.bilinear = bilinear
        self.linear = linear
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


class _Scalars:
    """parse_ratio over the scalars of one document.  A file repeats most
    of its strings ("0", "1", "-1", ...), so each distinct string is parsed
    once and then looked up.  Only strings are kept: True == 1, and a bool
    must still be refused."""

    __slots__ = ("memo",)

    def __init__(self):
        self.memo = {}

    def _read(self, v):
        if not isinstance(v, str):
            return parse_ratio(v)
        pq = self.memo.get(v)
        if pq is None:
            pq = self.memo[v] = parse_ratio(v)
        return pq

    def row(self, row, key, *index):
        """The entries of a row (a list) as pairs (p, q).  The row's key,
        key[i][j]..., is formatted only when an entry is rejected."""
        try:
            return [self.memo[v] for v in row]
        except (KeyError, TypeError):  # a string not seen yet, or no string
            pass
        try:
            return [self._read(v) for v in row]
        except ValueError as err:
            where = key + "".join(f"[{n}]" for n in index)
            raise ParseError(f"{where}: {err}") from None


def _fields(entry, key, required, optional=()):
    unknown = set(entry) - set(required) - set(optional) - {"type"}
    if unknown:
        raise ParseError(f"{key}: unknown fields {sorted(unknown)}")
    for f in required:
        if f not in entry:
            raise ParseError(f"{key}: missing field '{f}'")


def _name(value, key):
    """A reference to a space, a map or a declaration: a string."""
    if not isinstance(value, str):
        raise ParseError(
            f"{key}: names must be strings, got {type(value).__name__}")
    return value


def _table(value, key, kind):
    """A table of entries (dict) or a declare list; absent or null reads
    as empty."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ParseError(f"{key}: must be "
                         + ("an object" if kind is dict else "a list"))
    return value


def _space_dim(spaces, name, key):
    if _name(name, key) not in spaces:
        raise ParseError(f"{key}: unresolved space '{name}'")
    return spaces[name]["dim"]


def _parse_spaces(raw):
    spaces = {}
    for name, entry in raw.items():
        key = f"spaces.{name}"
        if not isinstance(entry, dict):
            raise ParseError(f"{key}: must be an object")
        _fields(entry, key, ("dim",), ("basis_names",))
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


def _parse_bilinear(raw, spaces, scalars):
    out = {}
    for name, entry in raw.items():
        key = f"bilinear.{name}"
        if not isinstance(entry, dict):
            raise ParseError(f"{key}: must be an object")
        _fields(entry, key, ("from", "to", "tensor"))
        frm = entry["from"]
        if not isinstance(frm, list) or len(frm) != 2:
            raise ParseError(f"{key}.from: needs exactly two space names")
        dl = _space_dim(spaces, frm[0], f"{key}.from")
        dr = _space_dim(spaces, frm[1], f"{key}.from")
        do = _space_dim(spaces, entry["to"], f"{key}.to")
        tensor, where = entry["tensor"], f"{key}.tensor"
        if not isinstance(tensor, list) or len(tensor) != dl:
            raise ParseError(f"{where}: needs {dl} planes")
        ratios = []
        for i, plane in enumerate(tensor):
            if not isinstance(plane, list) or len(plane) != dr:
                raise ParseError(f"{where}[{i}]: needs {dr} rows")
            for j, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != do:
                    raise ParseError(f"{where}[{i}][{j}]: needs {do} entries")
                ratios += scalars.row(row, where, i, j)
        # the rows of the file, c[i][j], are the columns of the matrix
        out[name] = StructureConstants(
            dl, dr, ratio_matrix(do, dl * dr, ratios, by_columns=True))
    return out


def _parse_linear(raw, spaces, scalars):
    out = {}
    for name, entry in raw.items():
        key = f"linear.{name}"
        if not isinstance(entry, dict):
            raise ParseError(f"{key}: must be an object")
        _fields(entry, key, ("from", "to", "matrix"))
        frm = entry["from"]
        factors = frm if isinstance(frm, list) else [frm]
        dom = 1
        for s in factors:
            dom *= _space_dim(spaces, s, f"{key}.from")
        cod = _space_dim(spaces, entry["to"], f"{key}.to")
        rows, where = entry["matrix"], f"{key}.matrix"
        if not isinstance(rows, list) or len(rows) != cod:
            raise ParseError(f"{where}: needs {cod} rows")
        ratios = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dom:
                raise ParseError(f"{where}[{i}]: needs {dom} entries")
            ratios += scalars.row(row, where, i)
        out[name] = ratio_matrix(cod, dom, ratios)
    return out


class _Resolver:
    """Name resolution against the three tables and prior declarations."""

    def __init__(self, spaces, bilinear, linear, scalars):
        self.spaces = spaces
        self.bilinear = bilinear
        self.linear = linear
        self.scalars = scalars
        self.declared = {}

    def space(self, entry, field, key):
        name = _name(entry[field], f"{key}.{field}")
        if name not in self.spaces:
            raise ParseError(f"{key}.{field}: unresolved space '{name}'")
        return self.spaces[name]

    def bilin(self, name, key):
        if _name(name, key) not in self.bilinear:
            raise ParseError(f"{key}: unresolved bilinear '{name}'")
        return self.bilinear[name]

    def lin(self, name, key):
        if _name(name, key) not in self.linear:
            raise ParseError(f"{key}: unresolved linear '{name}'")
        return self.linear[name]

    def decl(self, name, kinds, key):
        if _name(name, key) not in self.declared:
            raise ParseError(f"{key}: unresolved declaration '{name}'")
        d = self.declared[name]
        if d.kind not in kinds:
            raise ParseError(f"{key}: '{name}' is a {d.kind}, expected "
                             + " or ".join(kinds))
        return d


def _build_declaration(entry, idx, rs):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ParseError(f"declare[{idx}]: needs a 'type' field")
    kind = entry["type"]
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ParseError(f"declare[{idx}]: unknown type '{kind}'")
    if "name" not in entry or not isinstance(entry["name"], str):
        raise ParseError(f"declare[{idx}]: needs a string 'name'")
    name = entry["name"]
    key = f"declare.{name}"
    if name in rs.declared:
        raise ParseError(f"{key}: duplicate declaration name")
    try:
        obj, refs = _BUILDERS[kind](entry, key, rs)
    except ShapeError as err:
        raise ParseError(f"{key}: shape mismatch: {err}") from None
    return Declaration(kind, name, obj, refs)


def _build_assoc_algebra(entry, key, rs):
    _fields(entry, key, ("name", "space", "product"))
    sp = rs.space(entry, "space", key)
    alg = AssocAlgebra(sp["dim"], rs.bilin(entry["product"], key),
                       sp["basis_names"])
    return alg, {}


def _build_bimodule(entry, key, rs):
    _fields(entry, key, ("name", "algebra", "space", "left", "right"))
    alg = rs.decl(entry["algebra"], ("assoc_algebra",), key).obj
    sp = rs.space(entry, "space", key)
    mod = Bimodule(alg, sp["dim"], rs.bilin(entry["left"], key),
                   rs.bilin(entry["right"], key), sp["basis_names"])
    return mod, {"algebra": entry["algebra"]}


def _build_rrb_algebra(entry, key, rs):
    _fields(entry, key, ("name", "algebra", "module", "operator"))
    alg = rs.decl(entry["algebra"], ("assoc_algebra",), key).obj
    mod = rs.decl(entry["module"], ("bimodule",), key).obj
    if mod.over is not alg:
        raise ParseError(f"{key}: module '{entry['module']}' is not over "
                         f"algebra '{entry['algebra']}'")
    x = RelativeRBAlgebra(alg, mod, rs.lin(entry["operator"], key))
    return x, {"algebra": entry["algebra"], "module": entry["module"]}


def _build_rrb_bimodule(entry, key, rs):
    _fields(entry, key, ("name", "over", "base", "fiber", "operator",
                         "left_pair", "right_pair"))
    x = rs.decl(entry["over"], ("rrb_algebra",), key).obj
    base = rs.decl(entry["base"], ("bimodule",), key).obj
    fiber = rs.decl(entry["fiber"], ("bimodule",), key).obj
    for part, label in ((base, "base"), (fiber, "fiber")):
        if part.over is not x.algebra:
            raise ParseError(f"{key}: {label} '{entry[label]}' is not over "
                             f"the algebra of '{entry['over']}'")
    b = RRBBimodule(x, base, fiber, rs.lin(entry["operator"], key),
                    rs.bilin(entry["left_pair"], key),
                    rs.bilin(entry["right_pair"], key))
    return b, {"over": entry["over"]}


def _build_dendriform(entry, key, rs):
    _fields(entry, key, ("name", "space", "prec", "succ"))
    sp = rs.space(entry, "space", key)
    den = DendriformAlgebra(sp["dim"], rs.bilin(entry["prec"], key),
                            rs.bilin(entry["succ"], key), sp["basis_names"])
    return den, {}


def _build_dendriform_rep(entry, key, rs):
    _fields(entry, key, ("name", "over", "space", "left_prec", "left_succ",
                         "right_prec", "right_succ"))
    den = rs.decl(entry["over"], ("dendriform",), key).obj
    sp = rs.space(entry, "space", key)
    rep = DendriformRepresentation(
        den, sp["dim"], rs.bilin(entry["left_prec"], key),
        rs.bilin(entry["left_succ"], key), rs.bilin(entry["right_prec"], key),
        rs.bilin(entry["right_succ"], key), sp["basis_names"])
    return rep, {"over": entry["over"]}


def _build_r_matrix(entry, key, rs):
    _fields(entry, key, ("name", "algebra", "tensor"))
    alg = rs.decl(entry["algebra"], ("assoc_algebra",), key).obj
    rows, where = entry["tensor"], f"{key}.tensor"
    if not isinstance(rows, list) or len(rows) != alg.dim or \
            any(not isinstance(r, list) or len(r) != alg.dim for r in rows):
        raise ParseError(f"{where}: needs {alg.dim} x {alg.dim} entries")
    ratios = [pq for i, row in enumerate(rows)
              for pq in rs.scalars.row(row, where, i)]
    return (RMatrix(alg, ratio_matrix(alg.dim, alg.dim, ratios)),
            {"algebra": entry["algebra"]})


def _build_two_term(entry, key, rs):
    _fields(entry, key, ("name", "spaces", "d", "mu2", "mu3"))
    names = entry["spaces"]
    if not isinstance(names, list) or len(names) != 2:
        raise ParseError(f"{key}.spaces: needs [degree0, degree1]")
    d0 = _space_dim(rs.spaces, names[0], f"{key}.spaces")
    d1 = _space_dim(rs.spaces, names[1], f"{key}.spaces")
    mu2 = entry["mu2"]
    if not isinstance(mu2, list) or len(mu2) != 3:
        raise ParseError(f"{key}.mu2: needs three bilinear names")
    a = TwoTermAInfty(d0, d1, rs.lin(entry["d"], key),
                      tuple(rs.bilin(n, key) for n in mu2),
                      rs.lin(entry["mu3"], key))
    return a, {}


def _build_ainfty_bimodule(entry, key, rs):
    _fields(entry, key, ("name", "over", "spaces", "d", "left", "right",
                         "mu3"))
    a = rs.decl(entry["over"], ("two_term_ainfty",), key).obj
    names = entry["spaces"]
    if not isinstance(names, list) or len(names) != 2:
        raise ParseError(f"{key}.spaces: needs [degree0, degree1]")
    d0 = _space_dim(rs.spaces, names[0], f"{key}.spaces")
    d1 = _space_dim(rs.spaces, names[1], f"{key}.spaces")
    for side in ("left", "right"):
        if not isinstance(entry[side], list) or len(entry[side]) != 3:
            raise ParseError(f"{key}.{side}: needs three bilinear names")
    if not isinstance(entry["mu3"], list) or len(entry["mu3"]) != 3:
        raise ParseError(f"{key}.mu3: needs three linear names")
    m = AInftyBimodule(a, d0, d1, rs.lin(entry["d"], key),
                       tuple(rs.bilin(n, key) for n in entry["left"]),
                       tuple(rs.bilin(n, key) for n in entry["right"]),
                       tuple(rs.lin(n, key) for n in entry["mu3"]))
    return m, {"over": entry["over"]}


def _build_homotopy_rrb(entry, key, rs):
    _fields(entry, key, ("name", "algebra", "module", "r0", "r1", "r2"))
    a = rs.decl(entry["algebra"], ("two_term_ainfty",), key).obj
    m = rs.decl(entry["module"], ("ainfty_bimodule",), key).obj
    r0 = rs.lin(entry["r0"], key)
    r1 = rs.lin(entry["r1"], key)
    if (r0.cols, r0.rows) != (m.dim0, a.dim0) or \
            (r1.cols, r1.rows) != (m.dim1, a.dim1):
        raise ParseError(f"{key}: operator layers do not map the module "
                         "complex into the algebra complex")
    r = HomotopyRRBOperator(r0, r1, rs.bilin(entry["r2"], key))
    return r, {"algebra": entry["algebra"], "module": entry["module"]}


def _build_extension(entry, key, rs):
    _fields(entry, key, ("name", "base", "total", "fiber", "maps"),
            ("sections",))
    base = rs.decl(entry["base"], ("rrb_algebra",), key).obj
    total = rs.decl(entry["total"], ("rrb_algebra",), key).obj
    fib = entry["fiber"]
    if not isinstance(fib, dict):
        raise ParseError(f"{key}.fiber: must be an object")
    _fields(fib, f"{key}.fiber", ("algebra_space", "module_space",
                                  "operator"))
    dB = rs.space(fib, "algebra_space", f"{key}.fiber")["dim"]
    dN = rs.space(fib, "module_space", f"{key}.fiber")["dim"]
    sop = rs.lin(fib["operator"], f"{key}.fiber")
    if (sop.rows, sop.cols) != (dB, dN):
        raise ShapeError("fiber operator must map the module space into the "
                         "algebra space")
    maps = entry["maps"]
    if not isinstance(maps, dict):
        raise ParseError(f"{key}.maps: must be an object")
    _fields(maps, f"{key}.maps", ("alg_incl", "mod_incl", "alg_proj",
                                  "mod_proj"))
    e = AbelianExtension(base, sop, total,
                         rs.lin(maps["alg_incl"], f"{key}.maps"),
                         rs.lin(maps["mod_incl"], f"{key}.maps"),
                         rs.lin(maps["alg_proj"], f"{key}.maps"),
                         rs.lin(maps["mod_proj"], f"{key}.maps"))
    sections = {}
    table = _table(entry.get("sections"), f"{key}.sections", dict)
    for sname, sentry in table.items():
        skey = f"{key}.sections.{sname}"
        if not isinstance(sentry, dict):
            raise ParseError(f"{skey}: must be an object")
        _fields(sentry, skey, ("s", "sbar"))
        sections[sname] = Section(rs.lin(sentry["s"], skey),
                                  rs.lin(sentry["sbar"], skey))
    return e, {"base": entry["base"], "total": entry["total"],
               "sections": sections}


def _build_cocycle(entry, key, rs):
    _fields(entry, key, ("name", "over", "coefficients", "degree", "alpha",
                         "beta"), ("gamma",))
    x = rs.decl(entry["over"], ("rrb_algebra",), key).obj
    b = rs.decl(entry["coefficients"], ("rrb_bimodule",), key).obj
    degree = entry["degree"]
    if type(degree) is not int or degree < 1:
        raise ParseError(f"{key}.degree: must be a positive integer")
    beta = entry["beta"]
    if not isinstance(beta, list) or len(beta) != degree:
        raise ParseError(f"{key}.beta: needs {degree} linear names")
    gamma = None
    if degree >= 2:
        if "gamma" not in entry:
            raise ParseError(f"{key}: degree >= 2 needs a gamma map")
        gamma = rs.lin(entry["gamma"], key)
    elif "gamma" in entry:
        raise ParseError(f"{key}: degree 1 has no gamma map")
    c = RRBCochain(degree, rs.lin(entry["alpha"], key),
                   tuple(rs.lin(n, key) for n in beta), gamma)
    c.validate(x, b)
    return c, {"over": entry["over"], "coefficients": entry["coefficients"]}


_BUILDERS = {
    "assoc_algebra": _build_assoc_algebra,
    "bimodule": _build_bimodule,
    "rrb_algebra": _build_rrb_algebra,
    "rrb_bimodule": _build_rrb_bimodule,
    "dendriform": _build_dendriform,
    "dendriform_rep": _build_dendriform_rep,
    "r_matrix": _build_r_matrix,
    "two_term_ainfty": _build_two_term,
    "ainfty_bimodule": _build_ainfty_bimodule,
    "homotopy_rrb": _build_homotopy_rrb,
    "extension": _build_extension,
    "cocycle": _build_cocycle,
}


def parse_document(doc):
    """Resolve a decoded JSON document into a StructureFile."""
    if not isinstance(doc, dict):
        raise ParseError("top level: must be a JSON object")
    unknown = set(doc) - {"field", "spaces", "bilinear", "linear", "declare"}
    if unknown:
        raise ParseError(f"top level: unknown keys {sorted(unknown)}")
    if doc.get("field") != "Q":
        raise ParseError('field: must be "Q"')
    spaces, bilinear, linear = (_table(doc.get(key), key, dict) for key in
                                ("spaces", "bilinear", "linear"))
    spaces, scalars = _parse_spaces(spaces), _Scalars()
    bilinear = _parse_bilinear(bilinear, spaces, scalars)
    linear = _parse_linear(linear, spaces, scalars)
    rs = _Resolver(spaces, bilinear, linear, scalars)
    declarations = []
    for idx, entry in enumerate(_table(doc.get("declare"), "declare", list)):
        d = _build_declaration(entry, idx, rs)
        rs.declared[d.name] = d
        declarations.append(d)
    return StructureFile(spaces, bilinear, linear, declarations)


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
    """The nested c[i][j][k] as strings: the columns of the matrix, cut
    into dim_left planes."""
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


def add_bilinear(doc, name, frm, to, sc):
    doc["bilinear"][name] = {"from": list(frm), "to": to,
                             "tensor": _sc_json(sc)}
    return name


def add_linear(doc, name, frm, to, lin):
    doc["linear"][name] = {"from": frm if isinstance(frm, str) else list(frm),
                           "to": to, "matrix": format_matrix(lin)}
    return name


def declare_assoc_algebra(doc, name, alg):
    """Returns (declaration name, space name)."""
    sp = add_space(doc, name + ".space", alg.dim, alg.basis_names)
    mul = add_bilinear(doc, name + ".mul", (sp, sp), sp, alg.mu)
    doc["declare"].append({"type": "assoc_algebra", "name": name,
                           "space": sp, "product": mul})
    return name, sp


def declare_bimodule(doc, name, mod, algebra_name, algebra_space):
    """Returns (declaration name, space name)."""
    sp = add_space(doc, name + ".space", mod.dim, mod.basis_names)
    left = add_bilinear(doc, name + ".left", (algebra_space, sp), sp,
                        mod.left)
    right = add_bilinear(doc, name + ".right", (sp, algebra_space), sp,
                         mod.right)
    doc["declare"].append({"type": "bimodule", "name": name,
                           "algebra": algebra_name, "space": sp,
                           "left": left, "right": right})
    return name, sp


def declare_rrb_algebra(doc, name, x):
    """Returns (declaration name, algebra space, module space)."""
    alg_name, alg_sp = declare_assoc_algebra(doc, name + ".algebra",
                                             x.algebra)
    mod_name, mod_sp = declare_bimodule(doc, name + ".module", x.module,
                                        alg_name, alg_sp)
    rop = add_linear(doc, name + ".R", mod_sp, alg_sp, x.rop)
    doc["declare"].append({"type": "rrb_algebra", "name": name,
                           "algebra": alg_name, "module": mod_name,
                           "operator": rop})
    return name, alg_sp, mod_sp


def declare_rrb_bimodule(doc, name, b, over_name, alg_space, mod_space):
    """Returns (declaration name, base space, fiber space)."""
    alg_name = over_name + ".algebra"
    base_name, base_sp = declare_bimodule(doc, name + ".base", b.base,
                                          alg_name, alg_space)
    fiber_name, fiber_sp = declare_bimodule(doc, name + ".fiber", b.fiber,
                                            alg_name, alg_space)
    sop = add_linear(doc, name + ".S", fiber_sp, base_sp, b.sop)
    lp = add_bilinear(doc, name + ".l", (mod_space, base_sp), fiber_sp,
                      b.left_pair)
    rp = add_bilinear(doc, name + ".r", (base_sp, mod_space), fiber_sp,
                      b.right_pair)
    doc["declare"].append({"type": "rrb_bimodule", "name": name,
                           "over": over_name, "base": base_name,
                           "fiber": fiber_name, "operator": sop,
                           "left_pair": lp, "right_pair": rp})
    return name, base_sp, fiber_sp


def declare_cocycle(doc, name, c, over_name, coeff_name, alg_space,
                    mod_space, base_space, fiber_space):
    k = c.degree
    alpha = add_linear(doc, name + ".alpha", [alg_space] * k, base_space,
                       c.alpha)
    beta = []
    for s, slot in enumerate(c.beta):
        frm = [alg_space] * k
        frm[s] = mod_space
        beta.append(add_linear(doc, f"{name}.beta{s + 1}", frm, fiber_space,
                               slot))
    entry = {"type": "cocycle", "name": name, "over": over_name,
             "coefficients": coeff_name, "degree": k, "alpha": alpha,
             "beta": beta}
    if c.gamma is not None:
        entry["gamma"] = add_linear(doc, name + ".gamma",
                                    [mod_space] * (k - 1), base_space,
                                    c.gamma)
    doc["declare"].append(entry)
    return name


def declare_extension(doc, name, e, sections=None):
    base_name, base_alg_sp, base_mod_sp = declare_rrb_algebra(
        doc, name + ".base", e.base)
    total_name, tot_alg_sp, tot_mod_sp = declare_rrb_algebra(
        doc, name + ".total", e.total)
    fib_alg = add_space(doc, name + ".fiber_algebra", e.sop.rows)
    fib_mod = add_space(doc, name + ".fiber_module", e.sop.cols)
    sop = add_linear(doc, name + ".S", fib_mod, fib_alg, e.sop)
    maps = {
        "alg_incl": add_linear(doc, name + ".i", fib_alg, tot_alg_sp,
                               e.alg_incl),
        "mod_incl": add_linear(doc, name + ".ibar", fib_mod, tot_mod_sp,
                               e.mod_incl),
        "alg_proj": add_linear(doc, name + ".p", tot_alg_sp, base_alg_sp,
                               e.alg_proj),
        "mod_proj": add_linear(doc, name + ".pbar", tot_mod_sp, base_mod_sp,
                               e.mod_proj),
    }
    entry = {"type": "extension", "name": name, "base": base_name,
             "total": total_name,
             "fiber": {"algebra_space": fib_alg, "module_space": fib_mod,
                       "operator": sop},
             "maps": maps}
    if sections:
        table = {}
        for sname, sec in sections.items():
            table[sname] = {
                "s": add_linear(doc, f"{name}.{sname}.s", base_alg_sp,
                                tot_alg_sp, sec.s),
                "sbar": add_linear(doc, f"{name}.{sname}.sbar", base_mod_sp,
                                   tot_mod_sp, sec.sbar),
            }
        entry["sections"] = table
    doc["declare"].append(entry)
    return name


def declare_two_term(doc, name, a):
    """Returns (declaration name, degree-0 space, degree-1 space)."""
    s0 = add_space(doc, name + ".deg0", a.dim0)
    s1 = add_space(doc, name + ".deg1", a.dim1)
    d = add_linear(doc, name + ".d", s1, s0, a.d)
    mu2 = [add_bilinear(doc, name + ".mu00", (s0, s0), s0, a.mu00),
           add_bilinear(doc, name + ".mu01", (s0, s1), s1, a.mu01),
           add_bilinear(doc, name + ".mu10", (s1, s0), s1, a.mu10)]
    mu3 = add_linear(doc, name + ".mu3", [s0, s0, s0], s1, a.mu3)
    doc["declare"].append({"type": "two_term_ainfty", "name": name,
                           "spaces": [s0, s1], "d": d, "mu2": mu2,
                           "mu3": mu3})
    return name, s0, s1


def declare_ainfty_bimodule(doc, name, m, over_name, a0, a1):
    s0 = add_space(doc, name + ".deg0", m.dim0)
    s1 = add_space(doc, name + ".deg1", m.dim1)
    d = add_linear(doc, name + ".d", s1, s0, m.dm)
    left = [add_bilinear(doc, name + ".left00", (a0, s0), s0, m.left00),
            add_bilinear(doc, name + ".left01", (a0, s1), s1, m.left01),
            add_bilinear(doc, name + ".left10", (a1, s0), s1, m.left10)]
    right = [add_bilinear(doc, name + ".right00", (s0, a0), s0, m.right00),
             add_bilinear(doc, name + ".right01", (s0, a1), s1, m.right01),
             add_bilinear(doc, name + ".right10", (s1, a0), s1, m.right10)]
    mu3 = []
    for s, slot in enumerate(m.mu3m):
        frm = [a0, a0, a0]
        frm[s] = s0
        mu3.append(add_linear(doc, f"{name}.mu3m{s + 1}", frm, s1, slot))
    doc["declare"].append({"type": "ainfty_bimodule", "name": name,
                           "over": over_name, "spaces": [s0, s1], "d": d,
                           "left": left, "right": right, "mu3": mu3})
    return name, s0, s1


def declare_homotopy_rrb(doc, name, r, alg_name, mod_name, a0, a1, m0, m1):
    r0 = add_linear(doc, name + ".r0", m0, a0, r.r0)
    r1 = add_linear(doc, name + ".r1", m1, a1, r.r1)
    r2 = add_bilinear(doc, name + ".r2", (m0, m0), a1, r.r2)
    doc["declare"].append({"type": "homotopy_rrb", "name": name,
                           "algebra": alg_name, "module": mod_name,
                           "r0": r0, "r1": r1, "r2": r2})
    return name


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
