"""Structure files: round trips, strict parsing, and error reporting."""

import json
import pathlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter import cli, fileformat as ff
from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, DendriformRepresentation,
    StructureConstants,
)
from rotabaxter.classification import (
    AbelianExtension, AInftyBimodule, HomotopyRRBOperator, Section,
    TwoTermAInfty, build_extension, canonical_section,
    check_abelian_extension, check_ainfty_bimodule,
    check_homotopy_rrb_operator, check_two_term_ainfty, extract_cocycle,
    skeletal_to_triple, triple_to_skeletal,
)
from rotabaxter.cohomology import RRBCochain
from rotabaxter.linalg import Matrix
from rotabaxter.rrb import RelativeRBAlgebra, RMatrix
from rotabaxter.rrb_modules import (
    RRBBimodule, induced_dendriform_representation,
)
from rotabaxter.samples import (
    random_invertible, random_rrb_cocycle, random_rrb_pair,
)

from helpers import (
    coords, fractions_made, nested, upper_triangular_r_matrix, zero_cochain,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def rrb_document(seed=2, degree=2, cocycle_seed=0):
    x, b = random_rrb_pair(seed=seed)
    c = random_rrb_cocycle(cocycle_seed, x, b, degree)
    assert c is not None
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.declare_cocycle(doc, "c", c, xn, bn, asp, msp, bsp, fsp)
    return doc, x, b, c


def reject(doc, fragment):
    with pytest.raises(ff.ParseError) as err:
        ff.parse_document(doc)
    assert fragment in str(err.value), str(err.value)


# ------------------------------------------------------------ round trips


def test_rrb_pair_round_trip():
    doc, x, b, c = rrb_document()
    text = ff.dump_document(doc)
    sf = ff.parse_text(text)
    x2, b2, c2 = (sf.by_name[n].obj for n in ("X", "B", "c"))
    assert nested(x2.algebra.mu) == nested(x.algebra.mu)
    assert nested(x2.module.left) == nested(x.module.left)
    assert nested(x2.module.right) == nested(x.module.right)
    assert x2.rop == x.rop
    assert b2.sop == b.sop
    assert nested(b2.left_pair) == nested(b.left_pair)
    assert nested(b2.right_pair) == nested(b.right_pair)
    assert coords(c2) == coords(c)
    # re-serializing the parsed objects reproduces the bytes
    doc2 = ff.new_document()
    ff.declare_rrb_algebra(doc2, "X", x2)
    ff.declare_rrb_bimodule(doc2, "B", b2, "X", "X.algebra.space",
                            "X.module.space")
    ff.declare_cocycle(doc2, "c", c2, "X", "B", "X.algebra.space",
                       "X.module.space", "B.base.space", "B.fiber.space")
    assert ff.dump_document(doc2) == text


def test_extension_round_trip_with_section():
    doc, x, b, c = rrb_document()
    e = build_extension(x, b, c)
    sec = canonical_section(e)
    out = ff.new_document()
    ff.declare(out, "extension", "E", e, sections={"split": sec})
    sf = ff.parse_text(ff.dump_document(out))
    d = sf.by_name["E"]
    assert check_abelian_extension(d.obj).ok
    sec2 = d.refs["sections"]["split"].validate(d.obj)
    assert coords(extract_cocycle(d.obj, sec2)) == coords(c)


def test_skeletal_round_trip():
    x, b = random_rrb_pair(seed=2)
    c = random_rrb_cocycle(1, x, b, 3)
    assert c is not None
    a, m, r = triple_to_skeletal(x, b, c)
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "A2", a)
    ff.declare(doc, "ainfty_bimodule", "M2", m, over="A2")
    ff.declare(doc, "homotopy_rrb", "T", r, algebra="A2", module="M2")
    sf = ff.parse_text(ff.dump_document(doc))
    a2, m2, r2 = (sf.by_name[n].obj for n in ("A2", "M2", "T"))
    assert check_two_term_ainfty(a2).ok
    assert check_ainfty_bimodule(a2, m2).ok
    assert check_homotopy_rrb_operator(a2, m2, r2).ok
    x2, b2, c2 = skeletal_to_triple(a2, m2, r2)
    assert coords(c2) == coords(c)
    assert x2.rop == x.rop
    assert b2.sop == b.sop


def test_dump_is_deterministic():
    doc, _, _, _ = rrb_document()
    assert ff.dump_document(doc) == ff.dump_document(doc)


def test_path_round_trip(tmp_path):
    doc, x, _, _ = rrb_document()
    path = tmp_path / "pair.json"
    ff.write_path(doc, path)
    sf = ff.parse_path(path)
    assert sf.by_name["X"].obj.rop == x.rop


def test_integer_scalars_accepted():
    doc = ff.new_document()
    ff.add_space(doc, "V", 1)
    doc["bilinear"]["mul"] = {"from": ["V", "V"], "to": "V",
                              "tensor": [[[1]]]}
    doc["declare"].append({"type": "assoc_algebra", "name": "A",
                           "space": "V", "product": "mul"})
    sf = ff.parse_document(doc)
    assert nested(sf.by_name["A"].obj.mu)[0][0] == (1,)


# ------------------------------------------------------------ parse errors


def test_field_must_be_q():
    reject({"field": "R", "spaces": {}, "declare": []}, 'must be "Q"')


def test_unknown_top_level_key():
    reject({"field": "Q", "tables": {}}, "unknown keys")


def test_bad_dimension():
    reject({"field": "Q", "spaces": {"V": {"dim": -1}}},
           "spaces.V.dim")


def test_basis_names_length():
    reject({"field": "Q", "spaces": {"V": {"dim": 2,
                                           "basis_names": ["x"]}}},
           "spaces.V.basis_names: needs 2 strings")


def test_bilinear_needs_two_factors():
    doc = {"field": "Q", "spaces": {"V": {"dim": 1}},
           "bilinear": {"m": {"from": ["V"], "to": "V", "tensor": [[[0]]]}}}
    reject(doc, "bilinear.m.from")


def test_unresolved_space_name():
    doc = {"field": "Q", "spaces": {"V": {"dim": 1}},
           "linear": {"f": {"from": "W", "to": "V", "matrix": [[0]]}}}
    reject(doc, "unresolved space 'W'")


def test_tensor_shape_names_the_key():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["bilinear"]["B.l"]["tensor"][0] = doc["bilinear"]["B.l"]["tensor"][0][:1]
    reject(doc, "bilinear.B.l.tensor[0]")


def test_malformed_rational():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["linear"]["X.R"]["matrix"][0][0] = "2/4x"
    reject(doc, "malformed rational '2/4x'")


def test_bool_scalar_rejected(tmp_path, capsys):
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["linear"]["X.R"]["matrix"][0][0] = True
    reject(doc, "rational must be a string or int, got True")
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert "error: linear.X.R" in capsys.readouterr().err


def test_bool_dim_rejected(tmp_path, capsys):
    doc = {"field": "Q", "spaces": {"V": {"dim": True}}}
    reject(doc, "spaces.V.dim: must be a nonnegative integer")
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert "error: spaces.V.dim" in capsys.readouterr().err


def test_bool_degree_rejected(tmp_path, capsys):
    x, b = random_rrb_pair(seed=2)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.declare_cocycle(doc, "c", zero_cochain(x, b, 1), xn, bn, asp, msp,
                       bsp, fsp)
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][-1]["degree"] = True
    reject(doc, ".degree: must be a positive integer")
    path = tmp_path / "bool_degree.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert ".degree: must be a positive integer" in capsys.readouterr().err


def test_zero_denominator():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["linear"]["X.R"]["matrix"][0][0] = "1/0"
    reject(doc, "zero denominator")


# the three errors of a scalar, each at the three keys that name a row
SCALAR_ERRORS = [
    ("2/4x", "malformed rational '2/4x'"),
    ("1/-0", "malformed rational '1/-0': zero denominator"),
    (True, "rational must be a string or int, got True"),
]


@pytest.mark.parametrize("value, message", SCALAR_ERRORS)
@pytest.mark.parametrize("where", ["tensor", "matrix", "r_matrix"])
def test_scalar_errors_name_the_row(where, value, message):
    doc = json.loads(json.dumps(FUZZ_SEEDS[0]))
    if where == "tensor":
        doc["bilinear"]["B.base.left"]["tensor"][0][1][1] = value
        key = "bilinear.B.base.left.tensor[0][1]"
    elif where == "matrix":
        doc["linear"]["B.S"]["matrix"][1][0] = value
        key = "linear.B.S.matrix[1]"
    else:  # the algebra of the r-matrix has dimension 1
        doc["declare"][-3]["tensor"][0][0] = value
        key = "declare.r.tensor[0]"
    with pytest.raises(ff.ParseError) as err:
        ff.parse_document(doc)
    assert str(err.value) == f"{key}: {message}"


# ------------------------------------------------- the memo of one document


def one_row(*rows):
    """A document whose one linear map f: V -> K has the given rows of
    scalars, one per dimension of K."""
    return {"field": "Q", "spaces": {"V": {"dim": len(rows[0])},
                                     "K": {"dim": len(rows)}},
            "linear": {"f": {"from": "V", "to": "K", "matrix": list(rows)}}}


def test_bool_is_refused_after_an_equal_int_and_string():
    # True == 1: a memo that kept ints would read True as the 1 before it
    with pytest.raises(ff.ParseError) as err:
        ff.parse_document(one_row([1, "1"], ["1", True]))
    assert str(err.value) == \
        "linear.f.matrix[1]: rational must be a string or int, got True"


def test_malformed_string_seen_twice_is_reported_where_first_seen():
    doc = one_row(["0", "1"], ["1/x", "0"], ["0", "1/x"])
    doc["bilinear"] = {"b": {"from": ["V", "V"], "to": "K",
                             "tensor": [[["0", "0", "0"]] * 2] * 2}}
    doc["bilinear"]["b"]["tensor"][1] = [["2", "2", "2"], ["0", "1/x", "0"]]
    with pytest.raises(ff.ParseError) as err:
        ff.parse_document(doc)
    assert str(err.value) == \
        "bilinear.b.tensor[1][1]: malformed rational '1/x'"
    del doc["bilinear"]
    with pytest.raises(ff.ParseError) as err:
        ff.parse_document(doc)
    assert str(err.value) == "linear.f.matrix[1]: malformed rational '1/x'"


def test_each_document_parses_its_strings_once_and_anew(monkeypatch):
    """Within a document each distinct string is parsed once; a second
    document parses its own again, whatever came before it."""
    doc = json.loads(ff.dump_document(rrb_document()[0]))
    calls, real = [], ff.parse_ratio

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(ff, "parse_ratio", counted)
    first = ff.parse_document(doc)
    once = list(calls)
    assert len(set(once)) == len(once) > 2
    calls.clear()
    ff.parse_document(one_row(["7/3", "-1", "0", "7/3"]))
    assert calls == ["7/3", "-1", "0"]
    calls.clear()
    second = ff.parse_document(doc)
    assert calls == once
    assert second.linear == first.linear
    assert {k: c.matrix for k, c in second.bilinear.items()} == \
        {k: c.matrix for k, c in first.bilinear.items()}


def test_reading_and_writing_build_no_fraction(tmp_path, monkeypatch):
    """A structure file is parsed into integers and rendered from them:
    declaring sample 14 with its cocycles and an r-matrix over its
    algebra, writing the file and reading it back make no Fraction."""
    x, b = random_rrb_pair(14)
    cocycles = [random_rrb_cocycle(14, x, b, k) for k in (2, 3)]
    d = x.algebra.dim
    tensor = [[f"{i - j}/{i + j + 2}" for j in range(d)] for i in range(d)]
    r = RMatrix(x.algebra, Matrix.from_rows(tensor))
    made = fractions_made(monkeypatch)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    for c in cocycles:
        ff.declare_cocycle(doc, f"C{c.degree}", c, xn, bn, asp, msp, bsp,
                           fsp)
    ff.declare(doc, "r_matrix", "r", r, algebra="X.algebra")
    path = tmp_path / "sample14.json"
    ff.write_path(doc, path)
    sf = ff.parse_path(path)
    assert made == []
    monkeypatch.undo()
    assert sf.by_name["X"].obj.rop == x.rop
    assert sf.by_name["B"].obj.left_pair == b.left_pair
    assert coords(sf.by_name["C3"].obj) == coords(cocycles[1])
    assert sf.by_name["r"].obj.matrix == Matrix.from_rows(tensor)


def test_matrix_row_count():
    doc = {"field": "Q", "spaces": {"V": {"dim": 2}},
           "linear": {"f": {"from": "V", "to": "V", "matrix": [[0, 0]]}}}
    reject(doc, "linear.f.matrix: needs 2 rows")


def test_unknown_declaration_type():
    doc = {"field": "Q", "declare": [{"type": "group", "name": "G"}]}
    reject(doc, "unknown type 'group'")


def test_duplicate_declaration_name():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["declare"].append(dict(doc["declare"][0]))
    reject(doc, "duplicate declaration name")


def test_unresolved_declaration_reference():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][2]["module"] = "nope"
    reject(doc, "unresolved declaration 'nope'")


def test_wrong_kind_reference():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][2]["module"] = "X.algebra"
    reject(doc, "is a assoc_algebra, expected bimodule")


def test_forward_reference_rejected():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["declare"].reverse()
    reject(doc, "unresolved declaration")


def test_unknown_field_in_declaration():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][0]["extra"] = 1
    reject(doc, "unknown fields ['extra']")


def test_shape_mismatch_from_constructor():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    # S declared fiber -> base; pointing the rrb operator at it breaks shapes
    doc["declare"][2]["operator"] = "B.S"
    reject(doc, "shape mismatch")


def test_cocycle_degree_one_rejects_gamma():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    entry = doc["declare"][-1]
    entry["degree"] = 1
    entry["beta"] = entry["beta"][:1]
    reject(doc, "degree 1 has no gamma")


def test_cocycle_needs_gamma_at_degree_two():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    del doc["declare"][-1]["gamma"]
    reject(doc, "needs a gamma map")


def test_cocycle_beta_count():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][-1]["beta"] = doc["declare"][-1]["beta"][:1]
    reject(doc, "needs 2 linear names")


def test_bimodule_over_wrong_algebra():
    doc, _, _, _ = rrb_document()
    doc = json.loads(ff.dump_document(doc))
    # a second copy of the algebra is a different declaration, so pointing
    # the coefficient base at a bimodule over the copy must be rejected
    idx = next(i for i, d in enumerate(doc["declare"]) if d["name"] == "X")
    doc["declare"].insert(idx, {
        "type": "assoc_algebra", "name": "A2",
        "space": "X.algebra.space", "product": "X.algebra.mul"})
    doc["declare"].insert(idx + 1, {
        "type": "bimodule", "name": "B2.base", "algebra": "A2",
        "space": "B.base.space", "left": "B.base.left",
        "right": "B.base.right"})
    for entry in doc["declare"]:
        if entry.get("type") == "rrb_bimodule":
            entry["base"] = "B2.base"
    reject(doc, "is not over the algebra")


def test_extension_fiber_operator_must_fit_its_spaces():
    doc, x, b, c = rrb_document()
    out = ff.new_document()
    ff.declare(out, "extension", "E", build_extension(x, b, c))
    out = json.loads(ff.dump_document(out))
    # the total algebra is wider than the algebra fiber, so the operator
    # S: N -> B no longer maps into the declared algebra space; every
    # other shape still fits
    entry = next(d for d in out["declare"] if d["name"] == "E")
    entry["fiber"]["algebra_space"] = "E.total.algebra.space"
    reject(out, "shape mismatch")


def test_homotopy_layer_mismatch():
    x, b = random_rrb_pair(seed=2)
    c = random_rrb_cocycle(1, x, b, 3)
    a, m, r = triple_to_skeletal(x, b, c)
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "A2", a)
    ff.declare(doc, "ainfty_bimodule", "M2", m, over="A2")
    ff.declare(doc, "homotopy_rrb", "T", r, algebra="A2", module="M2")
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][-1]["r0"] = "T.r1"
    reject(doc, "operator layers")


# ------------------------------------------------------------------ fuzzing


def skeletal_document():
    x, b = random_rrb_pair(seed=2)
    a, m, r = triple_to_skeletal(x, b, random_rrb_cocycle(1, x, b, 3))
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "A2", a)
    ff.declare(doc, "ainfty_bimodule", "M2", m, over="A2")
    ff.declare(doc, "homotopy_rrb", "T", r, algebra="A2", module="M2")
    return doc


def extension_document():
    doc, x, b, c = rrb_document()
    e = build_extension(x, b, c)
    ff.declare(doc, "extension", "E", e,
               sections={"canonical": canonical_section(e)})
    return doc


# ------------------------------------------------- every kind, written


def every_kind_document():
    """A document declaring each of the twelve kinds through the writer,
    and name -> the object declared under it (the sections of E under
    "E.sections")."""
    x, b = random_rrb_pair(seed=2)
    # sample 2 has no nonzero degree-1 cocycle
    cocycles = {1: zero_cochain(x, b, 1), 2: random_rrb_cocycle(0, x, b, 2),
                3: random_rrb_cocycle(1, x, b, 3)}
    e = build_extension(x, b, cocycles[2])
    a, m, r = triple_to_skeletal(x, b, cocycles[3])
    rep = induced_dendriform_representation(b)
    aybe = upper_triangular_r_matrix(random_invertible(Random(2), 3))
    doc, objs = ff.new_document(), {}

    def put(kind, name, obj, **given):
        ff.declare(doc, kind, name, obj, **given)
        objs[name] = obj

    put("assoc_algebra", "A", aybe.over)
    put("bimodule", "M", Bimodule.adjoint(aybe.over), algebra="A")
    put("r_matrix", "r", aybe, algebra="A")
    put("rrb_algebra", "X", x)
    put("rrb_bimodule", "B", b, over="X")
    for k, c in cocycles.items():
        put("cocycle", f"C{k}", c, over="X", coefficients="B")
    put("dendriform", "D", rep.over)
    put("dendriform_rep", "N", rep, over="D")
    put("two_term_ainfty", "T", a)
    put("ainfty_bimodule", "TM", m, over="T")
    put("homotopy_rrb", "TR", r, algebra="T", module="TM")
    sections = {"canonical": canonical_section(e)}
    put("extension", "E", e, sections=sections)
    objs["E.sections"] = sections
    return doc, objs


def same(p, q):
    """p and q are equal: equal matrices, scalars and strings, and
    objects of one class with the same slots, item by item; a slot whose
    name starts with an underscore holds what is built from the others
    on first use, and is not compared."""
    if isinstance(p, Matrix):
        return p == q
    if isinstance(p, (tuple, list)):
        return isinstance(q, (tuple, list)) and len(p) == len(q) and \
            all(map(same, p, q))
    if isinstance(p, dict):
        return isinstance(q, dict) and p.keys() == q.keys() and \
            all(same(p[k], q[k]) for k in p)
    if hasattr(type(p), "__slots__"):
        return type(p) is type(q) and all(
            same(getattr(p, s), getattr(q, s)) for s in type(p).__slots__
            if not s.startswith("_"))
    return p == q


def read_back(doc):
    sf = ff.parse_text(ff.dump_document(doc))
    return {**{d.name: d.obj for d in sf.declarations},
            **{f"{d.name}.sections": d.refs["sections"]
               for d in sf.find_all("extension")}}


def test_every_kind_reads_back_as_written():
    doc, objs = every_kind_document()
    assert {d["type"] for d in doc["declare"]} == set(ff.KINDS)
    back = read_back(doc)
    for name, obj in objs.items():
        assert same(back[name], obj), name
    # the parts an rrb_algebra, rrb_bimodule and extension write
    assert same(back["X.module"], objs["X"].module)
    assert same(back["B.fiber"], objs["B"].fiber)
    assert same(back["E.total"], objs["E"].total)


SCALAR = st.fractions(-5, 5, max_denominator=6)


def random_matrix(draw, rows, cols):
    return Matrix.from_rows([[draw(SCALAR) for _ in range(cols)]
                             for _ in range(rows)]) if rows else \
        Matrix(0, cols)


def random_bilinear(draw, left, right, out):
    return StructureConstants(left, right,
                              random_matrix(draw, out, left * right))


def random_bimodule(draw, alg, dim):
    return Bimodule(alg, dim, random_bilinear(draw, alg.dim, dim, dim),
                    random_bilinear(draw, dim, alg.dim, dim))


def random_rrb(draw, dim_a, dim_m):
    alg = AssocAlgebra(dim_a, random_bilinear(draw, dim_a, dim_a, dim_a))
    return RelativeRBAlgebra(alg, random_bimodule(draw, alg, dim_m),
                             random_matrix(draw, dim_a, dim_m))


@settings(max_examples=30, deadline=None, database=None)
@given(st.data())
def test_random_structures_of_every_field_type_read_back(data):
    """Constructors check shapes only, so random data of random small
    dimensions builds every kind: spaces with and without basis names,
    maps, lists and slots of maps, references and parts, a scalar table,
    a degree and the nested objects of an extension."""
    draw = data.draw
    dim = st.integers(0, 2)
    a, m, bb, n = (draw(dim) for _ in range(4))
    x = random_rrb(draw, a, m)
    b = RRBBimodule(x, random_bimodule(draw, x.algebra, bb),
                    random_bimodule(draw, x.algebra, n),
                    random_matrix(draw, bb, n),
                    random_bilinear(draw, m, bb, n),
                    random_bilinear(draw, bb, m, n))
    k = draw(st.integers(1, 3))
    c = RRBCochain(k, random_matrix(draw, bb, a ** k),
                   [random_matrix(draw, n, a ** (k - 1) * m)
                    for _ in range(k)],
                   random_matrix(draw, bb, m ** (k - 1)) if k > 1 else None)
    den = DendriformAlgebra(a, random_bilinear(draw, a, a, a),
                            random_bilinear(draw, a, a, a),
                            [f"d{i}" for i in range(a)])
    rep = DendriformRepresentation(
        den, m, *(random_bilinear(draw, *dims) for dims in
                  [(a, m, m)] * 2 + [(m, a, m)] * 2))
    d0, d1, e0, e1 = (draw(dim) for _ in range(4))
    two = TwoTermAInfty(d0, d1, random_matrix(draw, d0, d1), [
        random_bilinear(draw, d0, d0, d0), random_bilinear(draw, d0, d1, d1),
        random_bilinear(draw, d1, d0, d1)], random_matrix(draw, d1, d0 ** 3))
    mod = AInftyBimodule(
        two, e0, e1, random_matrix(draw, e0, e1),
        [random_bilinear(draw, *dims)
         for dims in ((d0, e0, e0), (d0, e1, e1), (d1, e0, e1))],
        [random_bilinear(draw, *dims)
         for dims in ((e0, d0, e0), (e0, d1, e1), (e1, d0, e1))],
        [random_matrix(draw, e1, d0 * d0 * e0) for _ in range(3)])
    op = HomotopyRRBOperator(random_matrix(draw, d0, e0),
                             random_matrix(draw, d1, e1),
                             random_bilinear(draw, e0, e0, d1))
    total = random_rrb(draw, a + bb, m + n)
    ext = AbelianExtension(
        x, random_matrix(draw, bb, n), total,
        random_matrix(draw, a + bb, bb), random_matrix(draw, m + n, n),
        random_matrix(draw, a, a + bb), random_matrix(draw, m, m + n))
    sections = {f"s{i}": Section(random_matrix(draw, a + bb, a),
                                 random_matrix(draw, m + n, m))
                for i in range(draw(st.integers(0, 2)))}
    doc = ff.new_document()
    ff.declare(doc, "rrb_algebra", "X", x)
    ff.declare(doc, "rrb_bimodule", "B", b, over="X")
    ff.declare(doc, "cocycle", "c", c, over="X", coefficients="B")
    ff.declare(doc, "r_matrix", "r", RMatrix(x.algebra, random_matrix(
        draw, a, a)), algebra="X.algebra")
    ff.declare(doc, "dendriform", "D", den)
    ff.declare(doc, "dendriform_rep", "N", rep, over="D")
    ff.declare(doc, "two_term_ainfty", "T", two)
    ff.declare(doc, "ainfty_bimodule", "M", mod, over="T")
    ff.declare(doc, "homotopy_rrb", "R", op, algebra="T", module="M")
    ff.declare(doc, "extension", "E", ext, sections=sections)
    back = read_back(doc)
    for name, obj in (("X", x), ("B", b), ("c", c), ("D", den), ("N", rep),
                      ("T", two), ("M", mod), ("R", op), ("E", ext),
                      ("E.sections", sections)):
        assert same(back[name], obj), name


# --------------------------------------------------------- cross-checks


def test_cocycle_coefficients_over_another_algebra(tmp_path, capsys):
    x, _ = random_rrb_pair(6)
    y, b = random_rrb_pair(7)
    doc = ff.new_document()
    ff.declare(doc, "rrb_algebra", "X", x)
    ff.declare(doc, "rrb_algebra", "Y", y)
    ff.declare(doc, "rrb_bimodule", "B", b, over="Y")
    ff.declare(doc, "cocycle", "c", zero_cochain(x, b, 2), over="X",
               coefficients="B")
    message = "declare.c: coefficients 'B' is not over algebra 'X'"
    reject(doc, message)
    path = tmp_path / "coefficients.json"
    ff.write_path(doc, path)
    assert cli.main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_homotopy_module_over_another_algebra(tmp_path, capsys):
    x, b = random_rrb_pair(seed=2)
    a, m, r = triple_to_skeletal(x, b, random_rrb_cocycle(1, x, b, 3))
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "A", a)
    ff.declare(doc, "two_term_ainfty", "A2", a)
    ff.declare(doc, "ainfty_bimodule", "M", m, over="A")
    ff.declare(doc, "homotopy_rrb", "R", r, algebra="A2", module="M")
    message = "declare.R: module 'M' is not over algebra 'A2'"
    reject(doc, message)
    path = tmp_path / "homotopy.json"
    ff.write_path(doc, path)
    for argv in (["validate", str(path)],
                 ["skeletal-to-triple", str(path), "-o",
                  str(tmp_path / "out.json")]):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


def test_extension_section_shape_names_the_section(tmp_path, capsys):
    doc = json.loads(ff.dump_document(extension_document()))
    entry = next(d for d in doc["declare"] if d["name"] == "E")
    entry["sections"]["bad"] = dict(entry["sections"]["canonical"], s="E.S")
    message = ("declare.E.sections.bad: shape mismatch: s must map the "
               "base algebra into the total")
    reject(doc, message)
    path = tmp_path / "section.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["extract-cocycle", str(path)]):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


def test_readme_example_parses_and_validates(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    example = text.split("### Structure files", 1)[1] \
        .split("```json\n", 1)[1].split("```", 1)[0]
    assert [d.kind for d in ff.parse_text(example).declarations] == \
        ["assoc_algebra"]
    path = tmp_path / "readme.json"
    path.write_text(example)
    assert cli.main(["validate", str(path)]) == 0
    assert "validate: pass" in capsys.readouterr().out


# ----------------------------------------------------------------- renderer

# strings with what the escaper must write: quotes, backslashes, control
# characters, and non-ASCII from the Latin, BMP and astral planes
TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\x00\x1f\x7f\t\n", "é", "\u2028€", "😀"])
RENDERABLE = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10 ** 80, 10 ** 80) | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple) | st.lists(TEXT, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=500, deadline=None, database=None)
@given(RENDERABLE)
def test_render_json_is_json_dumps(value):
    assert ff.render_json(value) == json.dumps(value, indent=2,
                                               sort_keys=True)


def test_render_json_takes_what_json_dumps_takes_without_floats():
    value = {"b": ["x", 1, ("y", [])], "a": {}, "c": ["s", None, True]}
    assert ff.render_json(value) == json.dumps(value, indent=2,
                                               sort_keys=True)
    for bad in (0.5, [1, {"k": 2.0}], {1: "int key"}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            ff.render_json(bad)


def pair_document_with_r_matrix_and_dendriform():
    """rrb_document with an r-matrix of ones over its algebra, then the
    induced dendriform representation on B's fiber and its algebra."""
    doc, x, b, _ = rrb_document()
    n = x.algebra.dim
    ones = RMatrix(x.algebra, Matrix.from_rows([[1] * n] * n))
    rep = induced_dendriform_representation(b)
    ff.declare(doc, "r_matrix", "r", ones, algebra="X.algebra")
    ff.declare(doc, "dendriform", "D", rep.over)
    ff.declare(doc, "dendriform_rep", "N", rep, over="D")
    return doc


# valid documents, all written by the writer, covering every kind
FUZZ_SEEDS = [json.loads(ff.dump_document(doc)) for doc in (
    pair_document_with_r_matrix_and_dendriform(), skeletal_document(),
    extension_document(), every_kind_document()[0])]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(0, 1)
    | st.sampled_from(["", "Q", "1", "1/2", "1/0", "x", "X", "X.algebra",
                       "X.module.space", "B.l", "c.alpha", "assoc_algebra",
                       "cocycle", "extension"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "name", "dim", "from", "to",
                                       "tensor", "matrix", "space"]),
                      inner, max_size=3),
    max_leaves=6)


def paths(value, prefix=()):
    """Every place in a JSON value, the root first."""
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from paths(v, prefix + (i,))


def replaced(doc, path, new):
    if not path:
        return new
    out = json.loads(json.dumps(doc))
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return out


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_parse_document_raises_only_parse_error(data):
    doc = data.draw(st.sampled_from(FUZZ_SEEDS))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(paths(doc))))
        doc = replaced(doc, path, data.draw(JSON))
    try:
        ff.parse_document(doc)
    except ff.ParseError:
        pass
