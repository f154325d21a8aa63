"""Structure files: round trips, strict parsing, and error reporting."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter import cli, fileformat as ff
from rotabaxter.classification import (
    build_extension, canonical_section, check_abelian_extension,
    check_ainfty_bimodule, check_homotopy_rrb_operator,
    check_two_term_ainfty, extract_cocycle, skeletal_to_triple,
    triple_to_skeletal,
)
from rotabaxter.linalg import Matrix
from rotabaxter.samples import random_rrb_cocycle, random_rrb_pair

from helpers import coords, fractions_made, nested, zero_cochain


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
    ff.declare_extension(out, "E", e, sections={"split": sec})
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
    an, a0, a1 = ff.declare_two_term(doc, "A2", a)
    mn, m0, m1 = ff.declare_ainfty_bimodule(doc, "M2", m, an, a0, a1)
    ff.declare_homotopy_rrb(doc, "T", r, an, mn, a0, a1, m0, m1)
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
    made = fractions_made(monkeypatch)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    for c in cocycles:
        ff.declare_cocycle(doc, f"C{c.degree}", c, xn, bn, asp, msp, bsp,
                           fsp)
    doc["declare"].append({"type": "r_matrix", "name": "r",
                           "algebra": "X.algebra", "tensor": tensor})
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
    ff.declare_extension(out, "E", build_extension(x, b, c))
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
    an, a0, a1 = ff.declare_two_term(doc, "A2", a)
    mn, m0, m1 = ff.declare_ainfty_bimodule(doc, "M2", m, an, a0, a1)
    ff.declare_homotopy_rrb(doc, "T", r, an, mn, a0, a1, m0, m1)
    doc = json.loads(ff.dump_document(doc))
    doc["declare"][-1]["r0"] = "T.r1"
    reject(doc, "operator layers")


# ------------------------------------------------------------------ fuzzing


def skeletal_document():
    x, b = random_rrb_pair(seed=2)
    a, m, r = triple_to_skeletal(x, b, random_rrb_cocycle(1, x, b, 3))
    doc = ff.new_document()
    an, a0, a1 = ff.declare_two_term(doc, "A2", a)
    mn, m0, m1 = ff.declare_ainfty_bimodule(doc, "M2", m, an, a0, a1)
    ff.declare_homotopy_rrb(doc, "T", r, an, mn, a0, a1, m0, m1)
    return doc


def extension_document():
    doc, x, b, c = rrb_document()
    e = build_extension(x, b, c)
    ff.declare_extension(doc, "E", e, {"canonical": canonical_section(e)})
    return doc


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


# valid documents covering every declaration kind but the dendriform ones
# and r_matrix, which the hand-made entries below add
FUZZ_SEEDS = [json.loads(ff.dump_document(doc)) for doc in (
    rrb_document()[0], skeletal_document(), extension_document())]
_n = FUZZ_SEEDS[0]["spaces"]["X.algebra.space"]["dim"]
FUZZ_SEEDS[0]["declare"].extend([
    {"type": "r_matrix", "name": "r", "algebra": "X.algebra",
     "tensor": [["1"] * _n] * _n},
    {"type": "dendriform", "name": "D", "space": "X.algebra.space",
     "prec": "X.algebra.mul", "succ": "X.algebra.mul"},
    {"type": "dendriform_rep", "name": "E", "over": "D",
     "space": "X.algebra.space", "left_prec": "X.algebra.mul",
     "left_succ": "X.algebra.mul", "right_prec": "X.algebra.mul",
     "right_succ": "X.algebra.mul"}])

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
