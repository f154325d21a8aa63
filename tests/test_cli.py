"""Command line behavior: exit codes, reports, and output files."""

import json
import subprocess
import sys

import pytest

from rotabaxter import cli, fileformat as ff
from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, StructuralError, StructureConstants,
)
from rotabaxter.classification import (
    AInftyBimodule, HomotopyRRBOperator, TwoTermAInfty,
)
from rotabaxter.linalg import Matrix
from rotabaxter.rrb import RelativeRBAlgebra
from rotabaxter.samples import random_rrb_cocycle, random_rrb_pair


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
    ff.declare_assoc_algebra(doc, "A", alg)
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
    small, big = TwoTermAInfty.zero(1, 1), TwoTermAInfty.zero(2, 1)
    m = AInftyBimodule.zero(big, 1, 1)
    doc = ff.new_document()
    a_name, a0, a1 = ff.declare_two_term(doc, "small", small)
    big_name, b0, b1 = ff.declare_two_term(doc, "big", big)
    m_name, m0, m1 = ff.declare_ainfty_bimodule(doc, "m", m, big_name, b0, b1)
    ff.declare_homotopy_rrb(doc, "r", HomotopyRRBOperator.zero(small, m),
                            a_name, m_name, a0, a1, m0, m1)
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
    ff.declare_assoc_algebra(doc, "A", alg)
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
    ff.declare_assoc_algebra(doc, "A", AssocAlgebra.zero(1))
    ff.write_path(doc, path)
    rc, out = run(capsys, "hochschild", str(path), "--max-degree", "0")
    assert rc == 0
    assert out == "Hochschild cohomology with coefficients in adjoint(A)\n" \
                  "H^0 = 1\n"


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
