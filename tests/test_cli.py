"""Command line behavior: exit codes, reports, and output files."""

import functools
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter import classification, cli, cohomology, fileformat as ff, rrb
from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, StructuralError, StructureConstants,
)
from rotabaxter.classification import AInftyBimodule, build_extension
from rotabaxter.linalg import Matrix
from rotabaxter.rrb import RelativeRBAlgebra
from rotabaxter.rrb_modules import check_laws
from rotabaxter.samples import (
    bump_constants, random_rrb_cocycle, random_rrb_pair,
)

from helpers import (
    nonskeletal_two_term, zero_ainfty_bimodule, zero_cochain,
    zero_homotopy_rrb, zero_two_term,
)


def write_zero_fixture(path):
    alg = AssocAlgebra(1, StructureConstants.zero(1, 1, 1))
    mod = Bimodule(alg, 1, StructureConstants.zero(1, 1, 1),
                   StructureConstants.zero(1, 1, 1))
    x = RelativeRBAlgebra(alg, mod, Matrix.zero(1, 1))
    doc = ff.new_document()
    ff.declare_rrb_algebra(doc, "X", x)
    ff.write_path(doc, path)


def write_pair_fixture(path, seed=2, cocycle_seed=0, degree=2,
                       cocycle_name="c"):
    x, b = random_rrb_pair(seed=seed)
    c = random_rrb_cocycle(cocycle_seed, x, b, degree)
    assert c is not None
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.declare_cocycle(doc, cocycle_name, c, xn, bn, asp, msp, bsp, fsp)
    ff.write_path(doc, path)
    return x, b, c


def write_nonassociative_triple(path):
    """random_rrb_pair(8) with entry (0, 0, 0) of the product lowered by 1
    and the zero degree-3 cocycle: the relative Rota-Baxter identity and
    the eight bimodule identities still hold, associativity and the
    bimodule laws of M, B and N do not."""
    x, b = random_rrb_pair(seed=8)
    alg = AssocAlgebra(x.algebra.dim,
                       bump_constants(x.algebra.mu, (0, 0, 0), -1),
                       x.algebra.basis_names)
    mod = x.module
    bent = RelativeRBAlgebra(
        alg, Bimodule(alg, mod.dim, mod.left, mod.right, mod.basis_names),
        x.rop)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", bent)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.declare_cocycle(doc, "C", zero_cochain(x, b, 3), xn, bn, asp, msp,
                       bsp, fsp)
    ff.write_path(doc, path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# ------------------------------------------------------------ exit code 0


def test_validate_zero_fixture(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_zero_fixture(path)
    rc, out = run(capsys, "validate", str(path))
    assert rc == 0
    assert "validate: pass" in out
    assert "X (rrb_algebra): pass" in out


def test_cohomology_zero_fixture_dimensions(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_zero_fixture(path)
    rc, out = run(capsys, "cohomology", str(path), "--max-degree", "2")
    assert rc == 0
    assert "H^1 = 2" in out
    assert "H^2 = 4" in out


def test_report_commands_pass_on_seeded_pair(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_pair_fixture(path)
    for argv in (["validate"], ["cohomology"], ["hochschild"],
                 ["derivations"], ["dendriform"], ["chainmap-check"],
                 ["chainmap-check", "--degree", "2"]):
        rc, _ = run(capsys, *argv, str(path))
        assert rc == 0, argv


def test_output_files_reparse_and_revalidate(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    jobs = [
        (["semidirect", str(src)], "semi.json"),
        (["dual", str(src)], "dual.json"),
        (["lift", str(src)], "lift.json"),
        (["extend", str(src), "--cocycle", "c"], "ext.json"),
    ]
    for argv, name in jobs:
        out_path = tmp_path / name
        rc, _ = run(capsys, *argv, "-o", str(out_path))
        assert rc == 0, argv
        rc, _ = run(capsys, "validate", str(out_path))
        assert rc == 0, argv


def test_conversion_round_trip_through_files(tmp_path, capsys):
    src = tmp_path / "triple.json"
    write_pair_fixture(src, cocycle_seed=1, degree=3, cocycle_name="c3")
    skel = tmp_path / "skel.json"
    rc, _ = run(capsys, "triple-to-skeletal", str(src), "-o", str(skel))
    assert rc == 0
    rc, _ = run(capsys, "validate", str(skel))
    assert rc == 0
    back = tmp_path / "back.json"
    rc, _ = run(capsys, "skeletal-to-triple", str(skel), "-o", str(back))
    assert rc == 0
    rc, _ = run(capsys, "validate", str(back))
    assert rc == 0
    src_doc = json.loads(src.read_text())
    back_doc = json.loads(back.read_text())
    assert (back_doc["bilinear"]["triple.algebra.mul"]["tensor"]
            == src_doc["bilinear"]["X.algebra.mul"]["tensor"])
    assert (back_doc["linear"]["triple.cocycle.gamma"]["matrix"]
            == src_doc["linear"]["c3.gamma"]["matrix"])


def test_extract_cocycle_recovers_declared_cocycle(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    ext = tmp_path / "ext.json"
    rc, _ = run(capsys, "extend", str(src), "--cocycle", "c",
                "-o", str(ext))
    assert rc == 0
    rc, out = run(capsys, "extract-cocycle", str(ext), "--format", "json")
    assert rc == 0
    blob = json.loads(out)["cocycle"]
    declared = json.loads(src.read_text())["linear"]
    assert blob["alpha"] == declared["c.alpha"]["matrix"]
    assert blob["beta"][0] == declared["c.beta1"]["matrix"]
    assert blob["beta"][1] == declared["c.beta2"]["matrix"]
    assert blob["gamma"] == declared["c.gamma"]["matrix"]


def test_extract_cocycle_with_named_section(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    ext = tmp_path / "ext.json"
    run(capsys, "extend", str(src), "--cocycle", "c", "-o", str(ext))
    rc, out = run(capsys, "extract-cocycle", str(ext),
                  "--section", "canonical")
    assert rc == 0
    assert "section 'canonical'" in out
    assert "cocycle condition: pass" in out


def test_hochschild_adjoint_fallback(tmp_path, capsys):
    alg = AssocAlgebra(1, StructureConstants.zero(1, 1, 1))
    doc = ff.new_document()
    ff.declare(doc, "assoc_algebra", "A", alg)
    path = tmp_path / "alg.json"
    ff.write_path(doc, path)
    rc, out = run(capsys, "hochschild", str(path), "--max-degree", "1")
    assert rc == 0
    assert "adjoint(A)" in out
    assert "H^0 = 1" in out
    assert "H^1 = 1" in out


def test_json_format_payload(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_zero_fixture(path)
    rc, out = run(capsys, "cohomology", str(path), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    # every differential vanishes, so H^k is the cochain space dimension
    assert payload["dims"] == {"1": 2, "2": 4, "3": 5}


def test_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_pair_fixture(path)
    outs = []
    for _ in range(2):
        rc, out = run(capsys, "chainmap-check", str(path), "--degree", "1",
                      "--format", "json")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {"command": "chainmap-check", "ok": True,
                                   "degree": 1}
    outs = []
    for _ in range(2):
        rc, out = run(capsys, "derivations", str(path))
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("option", ["--trials", "--seed"])
def test_chainmap_check_takes_no_sampling_options(tmp_path, capsys, option):
    path = tmp_path / "pair.json"
    write_pair_fixture(path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["chainmap-check", str(path), option, "2"])
    assert exc.value.code == 2


# ------------------------------------------------------------ exit code 1


def test_validate_fails_on_broken_operator(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    doc = json.loads(src.read_text())
    doc["linear"]["X.R"]["matrix"][0][0] = "5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out = run(capsys, "validate", str(bad))
    assert rc == 1
    assert "FAIL" in out


def test_extend_rejects_non_cocycle_naming_component(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    doc = json.loads(src.read_text())
    doc["linear"]["c.alpha"]["matrix"][0][0] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out = run(capsys, "extend", str(bad), "--cocycle", "c",
                  "-o", str(tmp_path / "never.json"))
    assert rc == 1
    assert "not a cocycle: the differential is nonzero in" in out
    assert not (tmp_path / "never.json").exists()


def test_extend_checks_the_glued_total_once_and_builds_no_differential(
        tmp_path, capsys, monkeypatch):
    """A passing extend reads laws once in all, those of the total it
    glued, in the extension check that decides, and assembles no
    differential: the cocycle condition and the laws of the algebra and
    its coefficients are read only when that check fails.  A passing
    extract-cocycle on what it wrote assembles no differential and builds
    no induced bimodule: its extension check decides."""
    src, ext = tmp_path / "pair.json", tmp_path / "ext.json"
    write_pair_fixture(src)
    read, built = [], []

    def counted(s):
        read.append(s)
        return check_laws(s)

    def kept(*inputs):
        built.append(build_extension(*inputs))
        return built[-1]

    def refused(*_, **__):
        raise AssertionError("a differential or induced bimodule was built")

    for module in (cli, classification):
        monkeypatch.setattr(module, "check_laws", counted)
    monkeypatch.setattr(cli, "build_extension", kept)
    for module in (cli, classification, cohomology):
        for name in ("rrb_differential_matrix", "induced_fiber_bimodule"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    rc, _ = run(capsys, "extend", str(src), "--cocycle", "c",
                "-o", str(ext))
    assert rc == 0
    assert [s is built[0].total for s in read] == [True]
    for section in ([], ["--section", "canonical"]):
        rc, out = run(capsys, "extract-cocycle", str(ext), *section)
        assert rc == 0
        assert out.endswith("cocycle condition: pass\n")


def test_triple_to_skeletal_rejects_a_nonassociative_algebra(tmp_path,
                                                            capsys):
    # the skeletal data it would write fails validate's associator laws
    src, out = tmp_path / "bent.json", tmp_path / "skel.json"
    write_nonassociative_triple(src)
    rc, text = run(capsys, "triple-to-skeletal", str(src), "-o", str(out))
    assert rc == 1 and not out.exists()
    lines = text.splitlines()
    assert lines[0] == "X (rrb_algebra): FAIL (6 violations)"
    assert lines[1].startswith("  assoc at (0, 0, 1): ")
    assert "B (rrb_bimodule): FAIL (8 violations)" in lines
    assert "C (cocycle): pass" in lines


def test_skeletal_to_triple_rejects_nonzero_differentials(tmp_path,
                                                          capsys):
    # the data passes every skeletal law; only the flattening refuses it
    a = nonskeletal_two_term()
    m = AInftyBimodule.adjoint(a)
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "A", a)
    ff.declare(doc, "ainfty_bimodule", "M", m, over="A")
    ff.declare(doc, "homotopy_rrb", "R", zero_homotopy_rrb(a, m),
               algebra="A", module="M")
    src, out = tmp_path / "nonskeletal.json", tmp_path / "triple.json"
    ff.write_path(doc, src)
    rc, text = run(capsys, "skeletal-to-triple", str(src), "-o", str(out))
    assert (rc, text) == (1, "both differentials must vanish\n")
    rc, text = run(capsys, "skeletal-to-triple", str(src), "-o", str(out),
                   "--format", "json")
    assert (rc, text) == (1, '{\n  "command": "skeletal-to-triple",\n'
                             '  "error": "both differentials must vanish",\n'
                             '  "ok": false\n}\n')
    assert not out.exists()


def test_lift_builds_the_semidirect_algebra_once(tmp_path, capsys,
                                                 monkeypatch):
    src = tmp_path / "pair.json"
    write_pair_fixture(src, seed=14)
    calls, build = [], rrb.semidirect_algebra

    def counted(mod):
        calls.append(mod.dim)
        return build(mod)

    monkeypatch.setattr(rrb, "semidirect_algebra", counted)
    rc, _ = run(capsys, "lift", str(src), "-o", str(tmp_path / "out.json"))
    assert rc == 0 and calls == [3]


def test_chainmap_check_fails_on_a_sign_error(tmp_path, capsys, monkeypatch):
    # sample 6 has nonzero pairings, so both sides of the identity are
    # nonzero; negating label 1 of the degree-1 comparison map breaks it
    path = tmp_path / "pair.json"
    write_pair_fixture(path, seed=6)
    rc, out = run(capsys, "chainmap-check", str(path))
    assert (rc, out) == (0, "chain map at degree 1: pass\n")
    psi = cli.psi_matrix

    def label_one_negated(x, b, k):
        m = psi(x, b, k)
        if k == 1:
            m = Matrix.from_entries(m.rows, m.cols, {
                (i, j): -v if i < b.fiber.dim * x.module.dim ** 2 else v
                for i, j, v in m.nonzero_items()})
        return m

    monkeypatch.setattr(cli, "psi_matrix", label_one_negated)
    rc, out = run(capsys, "chainmap-check", str(path))
    assert rc == 1
    assert out == ("chain map at degree 1: FAIL\n"
                   "D.Psi_1 and Psi_2.delta_1 differ at labels 1\n")
    rc, out = run(capsys, "chainmap-check", str(path), "--format", "json")
    assert rc == 1
    assert out == ('{\n  "command": "chainmap-check",\n  "degree": 1,\n'
                   '  "labels": [\n    1\n  ],\n  "ok": false\n}\n')


def test_commands_guard_invalid_inputs(tmp_path, capsys):
    from rotabaxter.rrb import check_relative_rb
    from rotabaxter.samples import bump_map

    broken = None
    for seed in range(10):
        x, b = random_rrb_pair(seed=seed)
        for row in range(x.rop.rows):
            for col in range(x.rop.cols):
                x2 = RelativeRBAlgebra(x.algebra, x.module,
                                       bump_map(x.rop, (row, col)))
                if not check_relative_rb(x2).ok:
                    broken = (x2, b)
                    break
            if broken:
                break
        if broken:
            break
    assert broken is not None
    x2, b = broken
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x2)
    ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    bad = tmp_path / "bad.json"
    ff.write_path(doc, bad)
    for argv in (["cohomology"], ["derivations"], ["semidirect", "-o",
                                                   str(tmp_path / "x.json")],
                 ["chainmap-check"]):
        rc, out = run(capsys, argv[0], str(bad), *argv[1:])
        assert rc == 1, argv
        assert "FAIL" in out


def test_structural_errors_outside_a_construction_go_to_stderr(
        tmp_path, capsys, monkeypatch):
    """A construction that rejects its input reports on stdout; an
    invariant failing anywhere else is reported on stderr."""
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    out = tmp_path / "out.json"

    def broken(*_):
        raise StructuralError("invariant broken")

    monkeypatch.setattr(cli, "build_extension", broken)
    rc = cli.main(["extend", str(src), "--cocycle", "c", "-o", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "invariant broken\n")
    assert "failure" not in captured.err
    monkeypatch.setattr(cli, "semidirect_rrb", broken)
    rc = cli.main(["semidirect", str(src), "-o", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("failure: invariant broken\n")
    assert not out.exists()


def test_text_violation_renders_as_one_string(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    ext = tmp_path / "ext.json"
    run(capsys, "extend", str(src), "--cocycle", "c", "-o", str(ext))
    doc = json.loads(ext.read_text())
    s = doc["linear"]["c.extension.canonical.s"]["matrix"]
    doc["linear"]["c.extension.canonical.s"]["matrix"] = [
        ["0"] * len(row) for row in s]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    lhs = "s is not a right inverse of the algebra projection"
    rhs = "a splitting of both projections"
    rc, out = run(capsys, "validate", str(bad))
    assert rc == 1
    assert f"  section[canonical] at (): lhs={lhs} rhs={rhs}\n" in out
    rc, out = run(capsys, "validate", str(bad), "--format", "json")
    assert rc == 1
    (entry,) = [c for c in json.loads(out)["checks"]
                if c["kind"] == "extension"]
    assert entry["violations"] == [{"law": "section[canonical]", "args": [],
                                    "lhs": lhs, "rhs": rhs}]


# ------------------------------------------------------------ exit code 2


def test_missing_file(capsys):
    rc, _ = run(capsys, "validate", "/nonexistent/file.json")
    assert rc == 2


@pytest.mark.parametrize("text, message", [
    ('{"field": "Q", "spaces": [1]}', "spaces: must be an object"),
    ('{"field": "Q", "linear": {"f": 3}}', "linear.f: must be an object"),
    ('{"field": "Q", "spaces": {"A": {"dim": 1}}, "bilinear": {"m": '
     '{"from": [["A"], "A"], "to": "A", "tensor": [[["1"]]]}}}',
     "bilinear.m.from: names must be strings"),
], ids=["spaces-list", "linear-entry-int", "space-name-list"])
def test_malformed_structure_file_is_input_error(tmp_path, capsys, text,
                                                 message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "error: not UTF-8 text: 'utf-8' codec can't decode byte "
                    "0xff in position 0: invalid start byte"),
    (b"[" * 200000 + b"]" * 200000, "error: invalid JSON: maximum recursion "
                                    "depth exceeded"),
    (b'{"field": "Q", "spaces": {"V": {"dim": ' + b"7" * 5000 + b"}}}",
     "error: invalid JSON: Exceeds the limit (4300"),  # 3.10 omits "digits"
], ids=["utf-16-mark", "deeply-nested", "5000-digit-integer"])
def test_unreadable_structure_file_is_input_error(tmp_path, capsys, data,
                                                   message):
    # no traceback: one error line, then the elapsed time
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert cli.main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error, elapsed = captured.err.splitlines()
    assert error.startswith(message) and elapsed.startswith("elapsed: ")


def test_malformed_rational_is_input_error(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    doc = json.loads(src.read_text())
    doc["linear"]["X.R"]["matrix"][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _ = run(capsys, "validate", str(bad))
    assert rc == 2


def test_homotopy_operator_over_a_misfit_module_is_input_error(tmp_path,
                                                                capsys):
    # the operator's module is a bimodule over another, larger algebra
    small, big = zero_two_term(1, 1), zero_two_term(2, 1)
    m = zero_ainfty_bimodule(big, 1, 1)
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "small", small)
    ff.declare(doc, "two_term_ainfty", "big", big)
    ff.declare(doc, "ainfty_bimodule", "m", m, over="big")
    ff.declare(doc, "homotopy_rrb", "r", zero_homotopy_rrb(small, m),
               algebra="small", module="m")
    path = tmp_path / "misfit.json"
    ff.write_path(doc, path)
    rc = cli.main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and "shape mismatch" in err


def test_unknown_cocycle_name(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    rc, _ = run(capsys, "extend", str(src), "--cocycle", "nope",
                "-o", str(src) + ".out")
    assert rc == 2


def test_unknown_section_name(tmp_path, capsys):
    src = tmp_path / "pair.json"
    write_pair_fixture(src)
    ext = tmp_path / "ext.json"
    run(capsys, "extend", str(src), "--cocycle", "c", "-o", str(ext))
    rc, _ = run(capsys, "extract-cocycle", str(ext), "--section", "nope")
    assert rc == 2


def test_missing_required_declaration(tmp_path, capsys):
    alg = AssocAlgebra(1, StructureConstants.zero(1, 1, 1))
    doc = ff.new_document()
    ff.declare(doc, "assoc_algebra", "A", alg)
    path = tmp_path / "alg.json"
    ff.write_path(doc, path)
    rc, _ = run(capsys, "cohomology", str(path))
    assert rc == 2
    rc, _ = run(capsys, "triple-to-skeletal", str(path),
                "-o", str(tmp_path / "o.json"))
    assert rc == 2


@pytest.mark.parametrize("command", ["cohomology", "hochschild"])
def test_negative_max_degree(tmp_path, capsys, command):
    path = tmp_path / "zero.json"
    write_zero_fixture(path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), "--max-degree", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree: must be >= 0, got -3" in captured.err


def test_cohomology_max_degree_zero(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_zero_fixture(path)
    rc = cli.main(["cohomology", str(path), "--max-degree", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree must be at least 1 for cohomology" in captured.err
    # Hochschild cohomology starts in degree 0, so K = 0 is a full report
    doc = ff.new_document()
    ff.declare(doc, "assoc_algebra", "A", AssocAlgebra.zero(1))
    ff.write_path(doc, path)
    rc, out = run(capsys, "hochschild", str(path), "--max-degree", "0")
    assert rc == 0
    assert out == "Hochschild cohomology with coefficients in adjoint(A)\n" \
                  "H^0 = 1\n"


def write_nonassociative_bimodule(path):
    """The product e0.e0 = e1, e1.e0 = e0 on k^2, not associative, with
    the one-dimensional bimodule whose actions are zero, which passes
    the bimodule laws."""
    alg = AssocAlgebra(2, StructureConstants(2, 2, Matrix.from_entries(
        2, 4, {(1, 0): 1, (0, 2): 1})))
    doc = ff.new_document()
    ff.declare(doc, "assoc_algebra", "A", alg)
    ff.declare(doc, "bimodule", "M", Bimodule(
        alg, 1, StructureConstants.zero(2, 1, 1),
        StructureConstants.zero(1, 2, 1)), algebra="A")
    ff.write_path(doc, path)


@pytest.mark.parametrize("argv", [
    ["cohomology"], ["hochschild"], ["derivations"], ["dendriform"],
    ["chainmap-check"], ["semidirect", "-o", "out.json"],
    ["dual", "-o", "out.json"], ["lift", "-o", "out.json"]],
    ids=lambda argv: argv[0])
def test_commands_reject_a_nonassociative_algebra(tmp_path, capsys, argv):
    # the sweep of cohomology or hochschild would find d . d != 0; the
    # input check reads the associativity of A first, in the report of X,
    # or for hochschild in that of the first bimodule over A, here one
    # that passes the bimodule laws
    path = tmp_path / "bent.json"
    if argv[0] == "hochschild":
        write_nonassociative_bimodule(path)
        report = "M: FAIL (4 violations)"
    else:
        write_nonassociative_triple(path)
        report = "X (rrb_algebra): FAIL (6 violations)"
    argv = [a.replace("out.json", str(tmp_path / "out.json")) for a in argv]
    rc, out = run(capsys, argv[0], str(path), *argv[1:])
    lines = out.splitlines()
    assert (rc, lines[0]) == (1, report)
    assert lines[1].startswith("  assoc at ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, dims", [
    ("cohomology", "rrb_cohomology_dims"),
    ("hochschild", "hochschild_cohomology_dims")],
    ids=["cohomology", "hochschild"])
def test_sweep_that_finds_a_noncomplex_is_input_error(
        tmp_path, capsys, monkeypatch, command, dims):
    # input that passes every law gives a complex; should a sweep find
    # d . d != 0 all the same, the command exits 2 with one error line
    path = tmp_path / "pair.json"
    write_pair_fixture(path)

    def noncomplex(*_):
        raise ValueError("d_2 . d_1 != 0: not a complex")

    monkeypatch.setattr(cli, dims, noncomplex)
    rc = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.splitlines()[:-1] == [
        "error: the differentials do not form a complex: d_2 . d_1 != 0: "
        "not a complex"]


def test_validate_prints_each_violation_once(tmp_path, capsys):
    # validate checks each declaration by its own laws: the associator
    # violations of A are printed under A alone, and the bimodule laws
    # once per bimodule, not again under X or B
    path = tmp_path / "bent.json"
    write_nonassociative_triple(path)
    rc, out = run(capsys, "validate", str(path), "--format", "json")
    laws = {c["name"]: sorted({v["law"] for v in c["violations"]})
            for c in json.loads(out)["checks"]}
    bimodule = ["left_assoc", "right_assoc"]
    assert rc == 1 and laws == {
        "X.algebra (assoc_algebra)": ["assoc"],
        "X.module (bimodule)": bimodule, "X (rrb_algebra)": [],
        "B.base (bimodule)": bimodule, "B.fiber (bimodule)": bimodule,
        "B (rrb_bimodule)": [], "C (cocycle)": []}
    rc, text = run(capsys, "validate", str(path))
    assert text.count("  assoc at ") == 2


# every command that reads a pair file, with the declarations it reads
# and those they are built from; OUT stands for an output file
PAIR = {"X.algebra", "X.module", "X", "B.base", "B.fiber", "B"}
READS = [
    (["cohomology", "--max-degree", "2"], PAIR),
    (["hochschild", "--max-degree", "2"],
     {"X.algebra", "X.module", "B.base", "B.fiber"}),
    (["derivations"], PAIR), (["dendriform"], PAIR),
    (["chainmap-check"], PAIR), (["semidirect", "-o", "OUT"], PAIR),
    (["dual", "-o", "OUT"], PAIR), (["lift", "-o", "OUT"], PAIR),
    (["extend", "--cocycle", "C2", "-o", "OUT"], PAIR | {"C2"}),
    (["triple-to-skeletal", "-o", "OUT"], PAIR | {"C3"})]


@functools.cache
def mutation_fixture(seed):
    """The structure file of sample seed with its degree-2 and degree-3
    cocycles C2 and C3, as text, and the key path of each scalar of its
    maps."""
    x, b = random_rrb_pair(seed)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    for k in (2, 3):
        ff.declare_cocycle(doc, f"C{k}", random_rrb_cocycle(seed, x, b, k),
                           xn, bn, asp, msp, bsp, fsp)

    def scalars(node, keys):
        if isinstance(node, list):
            for i, item in enumerate(node):
                yield from scalars(item, (*keys, i))
        else:
            yield keys

    return ff.render_json(doc), [
        path for table in ("bilinear", "linear")
        for name, entry in doc[table].items()
        for field in ("tensor", "matrix") if field in entry
        for path in scalars(entry[field], (table, name, field))]


def quiet(argv):
    """cli.main(argv), the exit code and stdout; any exception escapes."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_commands_accept_exactly_what_validate_passes(tmp_path_factory,
                                                      data):
    """A pair file of samples 2, 6, 10 or 20 with one scalar changed by
    +-1: each command exits 0 exactly when validate passes every
    declaration it reads (and 1 otherwise), and none raises.  Samples 2,
    10 and 20 have zero pairings, so a product or an action that breaks
    only the laws of a part of X or B leaves their own identities
    holding."""
    text, paths = mutation_fixture(data.draw(st.sampled_from((2, 6, 10,
                                                              20))))
    doc = json.loads(text)
    *keys, last = data.draw(st.sampled_from(paths))
    node = functools.reduce(lambda node, key: node[key], keys, doc)
    node[last] = str(Fraction(node[last]) +
                     data.draw(st.sampled_from((1, -1))))
    work = tmp_path_factory.mktemp("mutated")
    path = work / "pair.json"
    path.write_text(json.dumps(doc))
    rc, out = quiet(["validate", str(path), "--format", "json"])
    failed = {c["name"].split(" (")[0] for c in json.loads(out)["checks"]
              if not c["ok"]}
    for argv, reads in READS:
        argv = [argv[0], str(path)] + [
            str(work / "out.json") if a == "OUT" else a for a in argv[1:]]
        rc, _ = quiet(argv)
        assert rc == (1 if failed & reads else 0), (argv, sorted(failed))


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    """main builds its parser once per process.  No option of one call
    leaks into the next: every output and exit code of a sequence equals
    that of the same call through a freshly built parser."""
    path = str(tmp_path / "pair.json")
    write_pair_fixture(path)
    sequence = [
        ["cohomology", path, "--max-degree", "1"], ["cohomology", path],
        ["validate", path, "--format", "json"], ["validate", path],
        ["cohomology", path, "--max-degree", "-1"], ["cohomology", path]]

    def call(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        return rc, out, [line for line in err.splitlines()
                         if not line.startswith("elapsed: ")]

    cached = [call(argv) for argv in sequence]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert cached == fresh
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 0, 2, 0]
    assert cached[0][1] != cached[1][1] and cached[2][1] != cached[3][1]


def test_module_entry_point(tmp_path):
    path = tmp_path / "zero.json"
    write_zero_fixture(path)
    r = subprocess.run(
        [sys.executable, "-m", "rotabaxter.cli", "cohomology", str(path),
         "--max-degree", "2"],
        capture_output=True, text=True)
    assert r.returncode == 0
    assert "H^1 = 2" in r.stdout
    assert "elapsed" in r.stderr
