"""Command line front end over structure files.

Every subcommand reads one structure file (see fileformat), runs exact
rational computations, and reports in text or JSON form.  A command
returns its result as (ok, fields, lines), or raises _Rejected when a
check on its input or on what it built fails; _run prints either, as
JSON fields or as text lines, and turns it into the exit code.  Exit
codes: 0 when everything checks out, 1 when a declared structure fails
its axioms (or a requested construction rejects its input
mathematically), 2 for input errors such as unparseable files,
unresolved names, or missing declarations.  No command draws random
input, so reports are deterministic for fixed inputs; wall-clock timing
goes to stderr so it never perturbs them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import fileformat as ff
from .algebra import (
    Bimodule, Report, ShapeError, StructuralError, Violation,
    check_associativity, check_bimodule, check_dendriform,
    check_dendriform_representation, hochschild_cohomology_dims,
    hochschild_matrix,
)
from .classification import (
    build_extension, canonical_section, check_abelian_extension,
    check_ainfty_bimodule, check_homotopy_rrb_operator,
    check_two_term_ainfty, extract_cocycle, skeletal_to_triple,
    triple_to_skeletal,
)
from .cohomology import (
    cocycle_report, dendriform_differential_matrix, derivation_basis,
    psi_matrix, rrb_cohomology_dims,
)
from .fileformat import ParseError
from .linalg import format_matrix
from .rrb import (
    aybe_check, check_relative_rb, induced_dendriform, lift_to_rb,
)
from .rrb_modules import (
    adjoint_bimodule, check_laws, check_operator_identities,
    check_rrb_bimodule, dual_rrb_bimodule, induced_dendriform_representation,
    lift_bimodule, mtot_action_bimodule, semidirect_rrb,
)


# --------------------------------------------------------------- rendering


def _matrix_text(m):
    return "[" + ", ".join("[" + ", ".join(row) + "]"
                           for row in format_matrix(m)) + "]"


def _emit(args, payload, lines):
    if args.format == "json":
        print(ff.render_json(payload))
    else:
        for ln in lines:
            print(ln)


class _Rejected(Exception):
    """A failed check: carries the fields and lines that report it."""


def _checks(pairs):
    """The result reporting every (label, Report) pair; ok when all pass."""
    return (all(rep.ok for _, rep in pairs),
            {"checks": [rep.to_json(label) for label, rep in pairs]},
            [rep.describe(label) for label, rep in pairs])


def _require(pairs):
    """Raise _Rejected with every pair unless all of them pass."""
    if not all(rep.ok for _, rep in pairs):
        _, fields, lines = _checks(pairs)
        raise _Rejected(fields, lines)


def _construct(build, *inputs, prefix="", laws=None):
    """build(*inputs), with a StructuralError it raises turned into a
    rejection that reports its message.  Given laws, a function returning
    (label, Report) pairs of the input's laws, the build's own check
    decides and the laws are read only when it fails: any that fail are
    reported in place of its message, in the terms of the input."""
    try:
        return build(*inputs)
    except StructuralError as err:
        if laws is not None:
            _require(laws())
        message = prefix + str(err)
        raise _Rejected({"error": message}, [message]) from None


def _sweep(dims, *inputs):
    """dims(*inputs), the cohomology dimensions.  The sweep checks that its
    maps compose to zero, which every law of its input implies; a
    ValueError it raises all the same becomes an input error."""
    try:
        return dims(*inputs)
    except ValueError as err:
        raise ParseError(f"the differentials do not form a complex: {err}") \
            from None


def _wrote(args, doc, fields, lines):
    """Write doc to the -o file: the result, with the file it wrote."""
    ff.write_path(doc, args.output)
    return (True, {**fields, "output": args.output},
            [*lines, f"wrote {args.output}"])


def _run(args):
    """Print the command's result, or the check that rejected it, and
    return the exit code."""
    try:
        ok, fields, lines = args.func(args)
    except _Rejected as rejected:
        ok, (fields, lines) = False, rejected.args
    _emit(args, {**fields, "command": args.command, "ok": ok}, lines)
    return 0 if ok else 1


# ----------------------------------------------------- declaration lookup


def _need(sf, kind, what):
    d = sf.find(kind)
    if d is None:
        raise ParseError(f"no {kind} declared; {what} needs one")
    return d


def _bimodule_over(sf, xname):
    for d in sf.find_all("rrb_bimodule"):
        if d.refs["over"] == xname:
            return d
    return None


def _laws(x_d, b_d=None, kind="rrb_bimodule"):
    """The input check of the commands that read an rrb_algebra: a
    (label, Report) pair of every law of its declaration x_d and, unless
    b_d is None, of the rrb_bimodule declaration b_d over it, labelled as
    a kind; check_laws reads each law once."""
    pairs = [(f"{x_d.name} (rrb_algebra)", check_laws(x_d.obj))]
    if b_d is not None:
        pairs.append((f"{b_d.name} ({kind})", check_laws(b_d.obj)))
    return pairs


def _coefficients(sf, what):
    """First rrb_algebra plus its first declared rrb_bimodule, or the
    adjoint coefficients when the file declares none, once every law of
    both passes; the laws of the adjoint but its eight identities are
    those of the algebra."""
    x_d = _need(sf, "rrb_algebra", what)
    b_d = _bimodule_over(sf, x_d.name)
    if b_d is not None:
        _require(_laws(x_d, b_d, "coefficients"))
        return x_d.name, x_d.obj, b_d.name, b_d.obj
    b = adjoint_bimodule(x_d.obj)
    _require([*_laws(x_d), ("adjoint (coefficients)", check_rrb_bimodule(b))])
    return x_d.name, x_d.obj, "adjoint", b


def _check_declaration(sf, d):
    kind = d.kind
    if kind == "assoc_algebra":
        return check_associativity(d.obj)
    if kind == "bimodule":
        return check_bimodule(d.obj)
    if kind == "rrb_algebra":
        return check_relative_rb(d.obj)
    if kind == "rrb_bimodule":
        return check_rrb_bimodule(d.obj)
    if kind == "dendriform":
        return check_dendriform(d.obj)
    if kind == "dendriform_rep":
        return check_dendriform_representation(d.obj)
    if kind == "r_matrix":
        return aybe_check(d.obj)
    if kind == "two_term_ainfty":
        return check_two_term_ainfty(d.obj)
    if kind == "ainfty_bimodule":
        return check_ainfty_bimodule(sf.by_name[d.refs["over"]].obj, d.obj)
    if kind == "homotopy_rrb":
        return check_homotopy_rrb_operator(
            sf.by_name[d.refs["algebra"]].obj,
            sf.by_name[d.refs["module"]].obj, d.obj)
    if kind == "extension":
        rep = check_abelian_extension(d.obj)
        for sname in sorted(d.refs["sections"]):
            try:
                d.refs["sections"][sname].validate(d.obj)
            except StructuralError as err:
                rep.violations.append(
                    Violation(f"section[{sname}]", (), str(err),
                              "a splitting of both projections"))
        return rep
    if kind == "cocycle":
        return cocycle_report(sf.by_name[d.refs["over"]].obj,
                              sf.by_name[d.refs["coefficients"]].obj, d.obj)
    raise ParseError(f"no check for declaration kind '{kind}'")


# ----------------------------------------------------------- subcommands


def cmd_validate(args):
    sf = ff.parse_path(args.file)
    ok, fields, lines = _checks([(f"{d.name} ({d.kind})",
                                  _check_declaration(sf, d))
                                 for d in sf.declarations])
    for entry, d in zip(fields["checks"], sf.declarations):
        entry["kind"] = d.kind
    lines.append(f"validate: {'pass' if ok else 'FAIL'}")
    return ok, fields, lines


def cmd_cohomology(args):
    if args.max_degree < 1:
        raise ParseError("--max-degree must be at least 1 for cohomology")
    sf = ff.parse_path(args.file)
    xname, x, bname, b = _coefficients(sf, "cohomology")
    dims = _sweep(rrb_cohomology_dims, x, b, args.max_degree)
    lines = [f"cohomology of {xname} with coefficients in {bname}"]
    lines.extend(f"H^{k} = {h}" for k, h in enumerate(dims, 1))
    return True, {"over": xname, "coefficients": bname,
                  "dims": {str(k): h for k, h in enumerate(dims, 1)}}, lines


def cmd_hochschild(args):
    sf = ff.parse_path(args.file)
    mods = [(d.name, d.obj, check_bimodule(d.obj))
            for d in sf.find_all("bimodule")]
    if not mods:
        algs = sf.find_all("assoc_algebra")
        if not algs:
            raise ParseError("no bimodule or assoc_algebra declared; "
                             "hochschild needs one")
        # the bimodule laws of an algebra on itself are its associativity
        mods = [(f"adjoint({d.name})", Bimodule.adjoint(d.obj),
                 Report("bimodule")) for d in algs]
    checked = set()
    for _, mod, rep in mods:
        if id(mod.over) not in checked:
            checked.add(id(mod.over))
            rep.merge(check_associativity(mod.over))
    _require([(name, rep) for name, _, rep in mods])
    lines, table = [], {}
    for name, mod, _ in mods:
        lines.append(f"Hochschild cohomology with coefficients in {name}")
        dims = _sweep(hochschild_cohomology_dims, mod, args.max_degree)
        lines.extend(f"H^{k} = {h}" for k, h in enumerate(dims))
        table[name] = {str(k): h for k, h in enumerate(dims)}
    return True, {"modules": table}, lines


def cmd_derivations(args):
    sf = ff.parse_path(args.file)
    xname, x, bname, b = _coefficients(sf, "derivations")
    basis = derivation_basis(x, b)
    lines = [f"derivations of {xname} with coefficients in {bname}: "
             f"dimension {len(basis)}"]
    elems = []
    for n, c in enumerate(basis):
        lines.append(f"derivation {n + 1}:")
        lines.append(f"  alpha = {_matrix_text(c.alpha)}")
        lines.append(f"  beta = {_matrix_text(c.beta[0])}")
        elems.append({"alpha": format_matrix(c.alpha),
                      "beta": format_matrix(c.beta[0])})
    return True, {"over": xname, "coefficients": bname,
                  "dimension": len(basis), "basis": elems}, lines


def cmd_semidirect(args):
    sf = ff.parse_path(args.file)
    b_d = _need(sf, "rrb_bimodule", "semidirect")
    _require(_laws(sf.by_name[b_d.refs["over"]], b_d))
    y = semidirect_rrb(b_d.obj)
    _require([("semidirect product", check_relative_rb(y))])
    doc = ff.new_document()
    ff.declare_rrb_algebra(doc, f"{b_d.name}.semidirect", y)
    return _wrote(args, doc,
                  {"algebra_dim": y.algebra.dim, "module_dim": y.module.dim},
                  [f"semidirect product: algebra dimension {y.algebra.dim}, "
                   f"module dimension {y.module.dim}"])


def cmd_dual(args):
    sf = ff.parse_path(args.file)
    b_d = _need(sf, "rrb_bimodule", "dual")
    _require(_laws(sf.by_name[b_d.refs["over"]], b_d))
    b, xname = b_d.obj, b_d.refs["over"]
    dual = dual_rrb_bimodule(b)
    _require([("dual bimodule", check_rrb_bimodule(dual))])
    doc = ff.new_document()
    _, asp, msp = ff.declare_rrb_algebra(doc, xname, b.over)
    ff.declare_rrb_bimodule(doc, f"{b_d.name}.dual", dual, xname, asp, msp)
    return _wrote(args, doc,
                  {"base_dim": dual.base.dim, "fiber_dim": dual.fiber.dim},
                  [f"dual bimodule: base dimension {dual.base.dim}, "
                   f"fiber dimension {dual.fiber.dim}"])


def cmd_lift(args):
    sf = ff.parse_path(args.file)
    x_d = _need(sf, "rrb_algebra", "lift")
    b_d = _bimodule_over(sf, x_d.name)
    _require(_laws(x_d, b_d))
    # the lifted bimodule is over the lifted algebra: build that once
    if b_d is not None:
        bhat = _construct(lift_bimodule, b_d.obj)
        xhat = bhat.over
    else:
        xhat = lift_to_rb(x_d.obj)
    pairs = [("lifted Rota-Baxter identity", check_relative_rb(xhat))]
    doc = ff.new_document()
    xhat_name = f"{x_d.name}.lift"
    _, asp, msp = ff.declare_rrb_algebra(doc, xhat_name, xhat)
    lines = [f"lifted algebra dimension {xhat.algebra.dim}"]
    fields = {"algebra_dim": xhat.algebra.dim}
    if b_d is not None:
        pairs.append(("lifted module pair", check_operator_identities(bhat)))
        ff.declare_rrb_bimodule(doc, f"{b_d.name}.lift", bhat, xhat_name,
                                asp, msp)
        lines.append(f"lifted module dimension {bhat.base.dim}")
        fields["module_dim"] = bhat.base.dim
    _require(pairs)
    lines.extend(f"{label}: pass" for label, _ in pairs)
    return _wrote(args, doc, fields, lines)


def cmd_dendriform(args):
    sf = ff.parse_path(args.file)
    x_d = _need(sf, "rrb_algebra", "dendriform")
    b_d = _bimodule_over(sf, x_d.name)
    _require(_laws(x_d, b_d))
    den, mtot, morph = induced_dendriform(x_d.obj)
    pairs = [("dendriform axioms", check_dendriform(den)),
             ("total product associativity", check_associativity(mtot)),
             ("operator is a morphism on the total algebra", morph)]
    if b_d is not None:
        b = b_d.obj
        pairs.append(("dendriform representation",
                      check_dendriform_representation(
                          induced_dendriform_representation(b))))
        pairs.append(("total product bimodule",
                      check_bimodule(mtot_action_bimodule(b))))
    return _checks(pairs)


def cmd_extend(args):
    sf = ff.parse_path(args.file)
    d = sf.by_name.get(args.cocycle)
    if d is None or d.kind != "cocycle":
        raise ParseError(f"no cocycle named '{args.cocycle}' declared")
    c = d.obj
    if c.degree != 2:
        raise ParseError(
            f"extension building needs a degree-2 cochain, "
            f"'{args.cocycle}' has degree {c.degree}")
    x_d, b_d = (sf.by_name[d.refs[f]] for f in ("over", "coefficients"))
    # the glued total is valid exactly when the algebra, the coefficients
    # and the cocycle condition are: its check decides
    e = _construct(build_extension, x_d.obj, b_d.obj, c,
                   laws=lambda: _laws(x_d, b_d))
    doc = ff.new_document()
    ff.declare(doc, "extension", f"{args.cocycle}.extension", e,
               sections={"canonical": canonical_section(e)})
    return _wrote(args, doc,
                  {"total_algebra_dim": e.total.algebra.dim,
                   "total_module_dim": e.total.module.dim},
                  [f"total algebra dimension {e.total.algebra.dim}, "
                   f"total module dimension {e.total.module.dim}",
                   "extension checks: pass"])


def cmd_extract_cocycle(args):
    sf = ff.parse_path(args.file)
    e_d = _need(sf, "extension", "extract-cocycle")
    e = e_d.obj
    _require([(f"{e_d.name} (extension)", check_abelian_extension(e))])
    if args.section is not None:
        sec = e_d.refs["sections"].get(args.section)
        if sec is None:
            raise ParseError(f"extension '{e_d.name}' declares no section "
                             f"named '{args.section}'")
        sec_name = args.section
        _construct(sec.validate, e, prefix=f"section '{args.section}': ")
    else:
        sec = canonical_section(e)
        sec_name = "canonical"
    # any section of a valid extension extracts a cocycle for the fiber
    # bimodule it induces, so the extension check above decides
    c = extract_cocycle(e, sec)
    blob = {"degree": c.degree,
            "alpha": format_matrix(c.alpha),
            "beta": [format_matrix(s) for s in c.beta],
            "gamma": format_matrix(c.gamma)}
    lines = [f"degree 2 cocycle extracted with section '{sec_name}'",
             f"alpha = {_matrix_text(c.alpha)}"]
    for s, slot in enumerate(c.beta):
        lines.append(f"beta {s + 1} = {_matrix_text(slot)}")
    lines.append(f"gamma = {_matrix_text(c.gamma)}")
    lines.append("cocycle condition: pass")
    return True, {"section": sec_name, "cocycle": blob}, lines


def cmd_skeletal_to_triple(args):
    sf = ff.parse_path(args.file)
    r_d = _need(sf, "homotopy_rrb", "skeletal-to-triple")
    a = sf.by_name[r_d.refs["algebra"]].obj
    m = sf.by_name[r_d.refs["module"]].obj
    r = r_d.obj
    # the flattening's check decides
    x, b, c = _construct(skeletal_to_triple, a, m, r, laws=lambda: [
        (f"{r_d.refs['algebra']} (two_term_ainfty)",
         check_two_term_ainfty(a)),
        (f"{r_d.refs['module']} (ainfty_bimodule)",
         check_ainfty_bimodule(a, m)),
        (f"{r_d.name} (homotopy_rrb)",
         check_homotopy_rrb_operator(a, m, r))])
    doc = ff.new_document()
    xname, asp, msp = ff.declare_rrb_algebra(doc, "triple", x)
    bname, bsp, fsp = ff.declare_rrb_bimodule(doc, "triple.coefficients", b,
                                              xname, asp, msp)
    ff.declare_cocycle(doc, "triple.cocycle", c, xname, bname, asp, msp,
                       bsp, fsp)
    return _wrote(args, doc,
                  {"algebra_dim": x.algebra.dim, "module_dim": x.module.dim,
                   "base_dim": b.base.dim, "fiber_dim": b.fiber.dim},
                  [f"algebra dimension {x.algebra.dim}, "
                   f"module dimension {x.module.dim}",
                   f"coefficient dimensions {b.base.dim} and {b.fiber.dim}",
                   "degree-3 cocycle recorded"])


def cmd_triple_to_skeletal(args):
    sf = ff.parse_path(args.file)
    c_d = None
    for d in sf.find_all("cocycle"):
        if d.obj.degree == 3:
            c_d = d
            break
    if c_d is None:
        raise ParseError("no degree-3 cocycle declared; "
                         "triple-to-skeletal needs one")
    x_d, b_d = (sf.by_name[c_d.refs[f]] for f in ("over", "coefficients"))
    x, b = x_d.obj, b_d.obj
    _require([*_laws(x_d, b_d),
              (f"{c_d.name} (cocycle)", cocycle_report(x, b, c_d.obj))])
    a, m, r = _construct(functools.partial(triple_to_skeletal, verify=False),
                         x, b, c_d.obj)
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "skeletal.algebra", a)
    ff.declare(doc, "ainfty_bimodule", "skeletal.module", m,
               over="skeletal.algebra")
    ff.declare(doc, "homotopy_rrb", "skeletal.operator", r,
               algebra="skeletal.algebra", module="skeletal.module")
    return _wrote(args, doc,
                  {"algebra_dims": [a.dim0, a.dim1],
                   "module_dims": [m.dim0, m.dim1]},
                  [f"degree-0 dimensions {a.dim0} and {m.dim0}",
                   f"degree-1 dimensions {a.dim1} and {m.dim1}"])


def cmd_chainmap_check(args):
    if args.degree < 1:
        raise ParseError("--degree must be at least 1")
    sf = ff.parse_path(args.file)
    _, x, _, b = _coefficients(sf, "chainmap-check")
    den, _, morph = induced_dendriform(x)
    _require([("operator is a morphism on the total algebra", morph)])
    k = args.degree
    dend = dendriform_differential_matrix(
        den, induced_dendriform_representation(b), k + 1)
    diff = dend * psi_matrix(x, b, k) - psi_matrix(x, b, k + 1) * \
        hochschild_matrix(mtot_action_bimodule(b), k)
    # the rows are k + 2 labels of fiber (x) module^(k+2) coordinates
    size = b.fiber.dim * x.module.dim ** (k + 2)
    labels = sorted({i // size + 1 for i, _, _ in diff.nonzero_items()})
    if labels:
        raise _Rejected({"degree": k, "labels": labels}, [
            f"chain map at degree {k}: FAIL",
            f"D.Psi_{k} and Psi_{k + 1}.delta_{k} differ at labels "
            + ", ".join(map(str, labels))])
    return True, {"degree": k}, [f"chain map at degree {k}: pass"]


# ------------------------------------------------------------ entry point


@functools.cache
def build_parser():
    """The argument parser, built on first use and kept for the process:
    parse_args keeps no state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    p = argparse.ArgumentParser(
        prog="rotabaxter",
        description="exact computations on relative Rota-Baxter structure "
                    "files")
    sub = p.add_subparsers(dest="command", required=True)

    def degree(text):
        k = int(text)
        if k < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
        return k

    def add(name, func, help_text, output=False):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("file", help="structure file to read")
        if output:
            sp.add_argument("-o", "--output", required=True,
                            help="structure file to write")
        sp.set_defaults(func=func)
        return sp

    add("validate", cmd_validate,
        "check every declared structure against its axioms")
    sp = add("cohomology", cmd_cohomology,
             "cohomology dimensions of the first declared operator algebra")
    sp.add_argument("--max-degree", type=degree, default=3)
    sp = add("hochschild", cmd_hochschild,
             "Hochschild cohomology dimensions of the declared bimodules")
    sp.add_argument("--max-degree", type=degree, default=3)
    add("derivations", cmd_derivations,
        "basis of the degree-1 cocycles (derivation pairs)")
    add("semidirect", cmd_semidirect,
        "semidirect product along the first declared coefficient bimodule",
        output=True)
    add("dual", cmd_dual,
        "dual of the first declared coefficient bimodule", output=True)
    add("lift", cmd_lift,
        "lift the operator to a Rota-Baxter operator on the semidirect "
        "algebra", output=True)
    add("dendriform", cmd_dendriform,
        "induced dendriform structures and their axioms")
    sp = add("extend", cmd_extend,
             "build the abelian extension classified by a degree-2 cocycle",
             output=True)
    sp.add_argument("--cocycle", required=True,
                    help="name of the declared cocycle")
    sp = add("extract-cocycle", cmd_extract_cocycle,
             "read a degree-2 cocycle off the first declared extension")
    sp.add_argument("--section", default=None,
                    help="named section from the extension declaration "
                         "(default: solve for one)")
    add("skeletal-to-triple", cmd_skeletal_to_triple,
        "flatten skeletal homotopy data to an operator triple with a "
        "degree-3 cocycle", output=True)
    add("triple-to-skeletal", cmd_triple_to_skeletal,
        "rebuild skeletal homotopy data from a degree-3 cocycle",
        output=True)
    sp = add("chainmap-check", cmd_chainmap_check,
             "exact check that the comparison map intertwines the "
             "differentials on all cochains of one degree")
    sp.add_argument("--degree", type=int, default=1)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        return _run(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ShapeError as err:
        print(f"error: shape mismatch: {err}", file=sys.stderr)
        return 2
    except StructuralError as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
