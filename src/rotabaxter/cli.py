"""Command line front end over structure files.

Every subcommand reads one structure file (see fileformat), runs exact
rational computations, and reports in text or JSON form.  Exit codes:
0 when everything checks out, 1 when a declared structure fails its
axioms (or a requested construction rejects its input mathematically),
2 for input errors such as unparseable files, unresolved names, or
missing declarations.  No command draws random input, so reports are
deterministic for fixed inputs; wall-clock timing goes to stderr so it
never perturbs them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import fileformat as ff
from .algebra import (
    Bimodule, ShapeError, StructuralError, Violation,
    check_associativity, check_bimodule, check_dendriform,
    check_dendriform_representation, hochschild_cohomology_dims,
    hochschild_matrix,
)
from .classification import (
    build_extension, canonical_section, check_abelian_extension,
    check_ainfty_bimodule, check_homotopy_rrb_operator,
    check_two_term_ainfty, extract_cocycle, induced_fiber_bimodule,
    skeletal_to_triple, triple_to_skeletal,
)
from .cohomology import (
    cocycle_report, dendriform_differential_matrix, derivation_basis,
    psi_matrix, rrb_cohomology_dims,
)
from .fileformat import ParseError
from .linalg import format_matrix
from .rrb import (
    RBBimodulePair, RelativeRBAlgebra, aybe_check, check_rb_bimodule,
    check_relative_rb, induced_dendriform, lift_to_rb,
)
from .rrb_modules import (
    RRBBimodule, adjoint_bimodule, check_rrb_bimodule, dual_rrb_bimodule,
    induced_dendriform_representation, lift_bimodule, mtot_action_bimodule,
    semidirect_rrb,
)


# --------------------------------------------------------------- rendering


def _matrix_text(m):
    return "[" + ", ".join("[" + ", ".join(row) + "]"
                           for row in format_matrix(m)) + "]"


def _emit(args, payload, lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for ln in lines:
            print(ln)


def _fail(args, pairs):
    """Emit the failing reports and return exit code 1."""
    _emit(args, {"command": args.command, "ok": False,
                 "checks": [rep.to_json(label) for label, rep in pairs]},
          [rep.describe(label) for label, rep in pairs])
    return 1


def _guard(args, pairs):
    """Exit code 1 with a report when any input structure fails, else None."""
    if all(rep.ok for _, rep in pairs):
        return None
    return _fail(args, pairs)


def _fail_message(args, message):
    _emit(args, {"command": args.command, "ok": False, "error": message},
          [message])
    return 1


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


def _coefficients(sf, args, what):
    """First rrb_algebra plus its first declared rrb_bimodule, or the
    adjoint coefficients when the file declares none."""
    x_d = _need(sf, "rrb_algebra", what)
    b_d = _bimodule_over(sf, x_d.name)
    if b_d is not None:
        return x_d.name, x_d.obj, b_d.name, b_d.obj
    return x_d.name, x_d.obj, "adjoint", adjoint_bimodule(x_d.obj)


def _coefficient_guard(args, xname, x, bname, b):
    """_guard on the algebra and the coefficients _coefficients returned."""
    return _guard(args, [(f"{xname} (rrb_algebra)", check_relative_rb(x)),
                         (f"{bname} (coefficients)", check_rrb_bimodule(b))])


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
    lines, checks, ok = [], [], True
    for d in sf.declarations:
        rep = _check_declaration(sf, d)
        label = f"{d.name} ({d.kind})"
        lines.append(rep.describe(label))
        entry = rep.to_json(label)
        entry["kind"] = d.kind
        checks.append(entry)
        ok = ok and rep.ok
    lines.append(f"validate: {'pass' if ok else 'FAIL'}")
    _emit(args, {"command": "validate", "ok": ok, "checks": checks}, lines)
    return 0 if ok else 1


def cmd_cohomology(args):
    if args.max_degree < 1:
        raise ParseError("--max-degree must be at least 1 for cohomology")
    sf = ff.parse_path(args.file)
    xname, x, bname, b = _coefficients(sf, args, "cohomology")
    rc = _coefficient_guard(args, xname, x, bname, b)
    if rc:
        return rc
    dims = rrb_cohomology_dims(x, b, args.max_degree)
    lines = [f"cohomology of {xname} with coefficients in {bname}"]
    lines.extend(f"H^{k} = {h}" for k, h in enumerate(dims, 1))
    _emit(args, {"command": "cohomology", "ok": True, "over": xname,
                 "coefficients": bname,
                 "dims": {str(k): h for k, h in enumerate(dims, 1)}}, lines)
    return 0


def cmd_hochschild(args):
    sf = ff.parse_path(args.file)
    mods = [(d.name, d.obj) for d in sf.find_all("bimodule")]
    if not mods:
        algs = sf.find_all("assoc_algebra")
        if not algs:
            raise ParseError("no bimodule or assoc_algebra declared; "
                             "hochschild needs one")
        mods = [(f"adjoint({d.name})", Bimodule.adjoint(d.obj))
                for d in algs]
    rc = _guard(args, [(name, check_bimodule(mod)) for name, mod in mods])
    if rc:
        return rc
    lines, table = [], {}
    for name, mod in mods:
        lines.append(f"Hochschild cohomology with coefficients in {name}")
        dims = hochschild_cohomology_dims(mod, args.max_degree)
        lines.extend(f"H^{k} = {h}" for k, h in enumerate(dims))
        table[name] = {str(k): h for k, h in enumerate(dims)}
    _emit(args, {"command": "hochschild", "ok": True, "modules": table},
          lines)
    return 0


def cmd_derivations(args):
    sf = ff.parse_path(args.file)
    xname, x, bname, b = _coefficients(sf, args, "derivations")
    rc = _coefficient_guard(args, xname, x, bname, b)
    if rc:
        return rc
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
    _emit(args, {"command": "derivations", "ok": True, "over": xname,
                 "coefficients": bname, "dimension": len(basis),
                 "basis": elems}, lines)
    return 0


def cmd_semidirect(args):
    sf = ff.parse_path(args.file)
    b_d = _need(sf, "rrb_bimodule", "semidirect")
    b = b_d.obj
    x = b.over
    rc = _guard(args, [
        (f"{b_d.refs['over']} (rrb_algebra)", check_relative_rb(x)),
        (f"{b_d.name} (rrb_bimodule)", check_rrb_bimodule(b))])
    if rc:
        return rc
    y = semidirect_rrb(b)
    rep = check_relative_rb(y)
    if not rep.ok:
        return _fail(args, [("semidirect product", rep)])
    doc = ff.new_document()
    ff.declare_rrb_algebra(doc, f"{b_d.name}.semidirect", y)
    ff.write_path(doc, args.output)
    lines = [f"semidirect product: algebra dimension {y.algebra.dim}, "
             f"module dimension {y.module.dim}",
             f"wrote {args.output}"]
    _emit(args, {"command": "semidirect", "ok": True,
                 "algebra_dim": y.algebra.dim, "module_dim": y.module.dim,
                 "output": args.output}, lines)
    return 0


def cmd_dual(args):
    sf = ff.parse_path(args.file)
    b_d = _need(sf, "rrb_bimodule", "dual")
    b = b_d.obj
    xname = b_d.refs["over"]
    rc = _guard(args, [(f"{xname} (rrb_algebra)", check_relative_rb(b.over)),
                       (f"{b_d.name} (rrb_bimodule)", check_rrb_bimodule(b))])
    if rc:
        return rc
    dual = dual_rrb_bimodule(b)
    rep = check_rrb_bimodule(dual)
    if not rep.ok:
        return _fail(args, [("dual bimodule", rep)])
    doc = ff.new_document()
    _, asp, msp = ff.declare_rrb_algebra(doc, xname, b.over)
    ff.declare_rrb_bimodule(doc, f"{b_d.name}.dual", dual, xname, asp, msp)
    ff.write_path(doc, args.output)
    lines = [f"dual bimodule: base dimension {dual.base.dim}, "
             f"fiber dimension {dual.fiber.dim}",
             f"wrote {args.output}"]
    _emit(args, {"command": "dual", "ok": True, "base_dim": dual.base.dim,
                 "fiber_dim": dual.fiber.dim, "output": args.output}, lines)
    return 0


def cmd_lift(args):
    sf = ff.parse_path(args.file)
    x_d = _need(sf, "rrb_algebra", "lift")
    x = x_d.obj
    rc = _guard(args, [(f"{x_d.name} (rrb_algebra)", check_relative_rb(x))])
    if rc:
        return rc
    total, rhat = lift_to_rb(x)
    xhat = RelativeRBAlgebra(total, Bimodule.adjoint(total), rhat)
    pairs = [("lifted Rota-Baxter identity", check_relative_rb(xhat))]
    doc = ff.new_document()
    xhat_name = f"{x_d.name}.lift"
    _, asp, msp = ff.declare_rrb_algebra(doc, xhat_name, xhat)
    lines = [f"lifted algebra dimension {total.dim}"]
    payload = {"command": "lift", "ok": True, "algebra_dim": total.dim,
               "output": args.output}
    b_d = _bimodule_over(sf, x_d.name)
    if b_d is not None:
        b = b_d.obj
        rc = _guard(args, [(f"{b_d.name} (rrb_bimodule)",
                            check_rrb_bimodule(b))])
        if rc:
            return rc
        try:
            lifted, shat = lift_bimodule(b)
        except StructuralError as err:
            return _fail_message(args, str(err))
        hosted = Bimodule(total, lifted.dim, lifted.left, lifted.right,
                          lifted.basis_names)
        pairs.append(("lifted module pair",
                      check_rb_bimodule(RBBimodulePair(total, rhat, hosted,
                                                       shat))))
        bhat = RRBBimodule(xhat, hosted, hosted, shat, hosted.left,
                           hosted.right)
        ff.declare_rrb_bimodule(doc, f"{b_d.name}.lift", bhat, xhat_name,
                                asp, msp)
        lines.append(f"lifted module dimension {lifted.dim}")
        payload["module_dim"] = lifted.dim
    rc = _guard(args, pairs)
    if rc:
        return rc
    for label, _ in pairs:
        lines.append(f"{label}: pass")
    ff.write_path(doc, args.output)
    lines.append(f"wrote {args.output}")
    _emit(args, payload, lines)
    return 0


def cmd_dendriform(args):
    sf = ff.parse_path(args.file)
    x_d = _need(sf, "rrb_algebra", "dendriform")
    x = x_d.obj
    rc = _guard(args, [(f"{x_d.name} (rrb_algebra)", check_relative_rb(x))])
    if rc:
        return rc
    den, mtot, morph = induced_dendriform(x)
    pairs = [("dendriform axioms", check_dendriform(den)),
             ("total product associativity", check_associativity(mtot)),
             ("operator is a morphism on the total algebra", morph)]
    b_d = _bimodule_over(sf, x_d.name)
    if b_d is not None:
        b = b_d.obj
        rc = _guard(args, [(f"{b_d.name} (rrb_bimodule)",
                            check_rrb_bimodule(b))])
        if rc:
            return rc
        rep = induced_dendriform_representation(b)
        pairs.append(("dendriform representation",
                      check_dendriform_representation(rep)))
        pairs.append(("total product bimodule",
                      check_bimodule(mtot_action_bimodule(b).actions)))
    lines, checks, ok = [], [], True
    for label, rep in pairs:
        lines.append(rep.describe(label))
        checks.append(rep.to_json(label))
        ok = ok and rep.ok
    _emit(args, {"command": "dendriform", "ok": ok, "checks": checks},
          lines)
    return 0 if ok else 1


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
    x = sf.by_name[d.refs["over"]].obj
    b = sf.by_name[d.refs["coefficients"]].obj
    rc = _guard(args, [
        (f"{d.refs['over']} (rrb_algebra)", check_relative_rb(x)),
        (f"{d.refs['coefficients']} (rrb_bimodule)", check_rrb_bimodule(b))])
    if rc:
        return rc
    try:
        e = build_extension(x, b, c)
    except StructuralError as err:
        return _fail_message(args, str(err))
    rep = check_abelian_extension(e)
    if not rep.ok:
        return _fail(args, [("built extension", rep)])
    doc = ff.new_document()
    ff.declare_extension(doc, f"{args.cocycle}.extension", e,
                         sections={"canonical": canonical_section(e)})
    ff.write_path(doc, args.output)
    lines = [f"total algebra dimension {e.total.algebra.dim}, "
             f"total module dimension {e.total.module.dim}",
             "extension checks: pass",
             f"wrote {args.output}"]
    _emit(args, {"command": "extend", "ok": True,
                 "total_algebra_dim": e.total.algebra.dim,
                 "total_module_dim": e.total.module.dim,
                 "output": args.output}, lines)
    return 0


def cmd_extract_cocycle(args):
    sf = ff.parse_path(args.file)
    e_d = _need(sf, "extension", "extract-cocycle")
    e = e_d.obj
    rep = check_abelian_extension(e)
    if not rep.ok:
        return _fail(args, [(f"{e_d.name} (extension)", rep)])
    if args.section is not None:
        sec = e_d.refs["sections"].get(args.section)
        if sec is None:
            raise ParseError(f"extension '{e_d.name}' declares no section "
                             f"named '{args.section}'")
        sec_name = args.section
        try:
            sec.validate(e)
        except StructuralError as err:
            return _fail_message(args, f"section '{args.section}': {err}")
    else:
        sec = canonical_section(e)
        sec_name = "canonical"
    c = extract_cocycle(e, sec)
    crep = cocycle_report(e.base, induced_fiber_bimodule(e, sec), c)
    if not crep.ok:
        return _fail(args, [("extracted cochain", crep)])
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
    _emit(args, {"command": "extract-cocycle", "ok": True,
                 "section": sec_name, "cocycle": blob}, lines)
    return 0


def cmd_skeletal_to_triple(args):
    sf = ff.parse_path(args.file)
    r_d = _need(sf, "homotopy_rrb", "skeletal-to-triple")
    a = sf.by_name[r_d.refs["algebra"]].obj
    m = sf.by_name[r_d.refs["module"]].obj
    r = r_d.obj
    rc = _guard(args, [
        (f"{r_d.refs['algebra']} (two_term_ainfty)", check_two_term_ainfty(a)),
        (f"{r_d.refs['module']} (ainfty_bimodule)",
         check_ainfty_bimodule(a, m)),
        (f"{r_d.name} (homotopy_rrb)", check_homotopy_rrb_operator(a, m, r))])
    if rc:
        return rc
    try:
        x, b, c = skeletal_to_triple(a, m, r)
    except StructuralError as err:
        return _fail_message(args, str(err))
    doc = ff.new_document()
    xname, asp, msp = ff.declare_rrb_algebra(doc, "triple", x)
    bname, bsp, fsp = ff.declare_rrb_bimodule(doc, "triple.coefficients", b,
                                              xname, asp, msp)
    ff.declare_cocycle(doc, "triple.cocycle", c, xname, bname, asp, msp,
                       bsp, fsp)
    ff.write_path(doc, args.output)
    lines = [f"algebra dimension {x.algebra.dim}, "
             f"module dimension {x.module.dim}",
             f"coefficient dimensions {b.base.dim} and {b.fiber.dim}",
             "degree-3 cocycle recorded",
             f"wrote {args.output}"]
    _emit(args, {"command": "skeletal-to-triple", "ok": True,
                 "algebra_dim": x.algebra.dim, "module_dim": x.module.dim,
                 "base_dim": b.base.dim, "fiber_dim": b.fiber.dim,
                 "output": args.output}, lines)
    return 0


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
    x = sf.by_name[c_d.refs["over"]].obj
    b = sf.by_name[c_d.refs["coefficients"]].obj
    rc = _guard(args, [
        (f"{c_d.refs['over']} (rrb_algebra)", check_relative_rb(x)),
        (f"{c_d.refs['coefficients']} (rrb_bimodule)",
         check_rrb_bimodule(b)),
        (f"{c_d.name} (cocycle)", cocycle_report(x, b, c_d.obj))])
    if rc:
        return rc
    try:
        a, m, r = triple_to_skeletal(x, b, c_d.obj, verify=False)
    except StructuralError as err:
        return _fail_message(args, str(err))
    doc = ff.new_document()
    aname, a0, a1 = ff.declare_two_term(doc, "skeletal.algebra", a)
    mname, m0, m1 = ff.declare_ainfty_bimodule(doc, "skeletal.module", m,
                                               aname, a0, a1)
    ff.declare_homotopy_rrb(doc, "skeletal.operator", r, aname, mname,
                            a0, a1, m0, m1)
    ff.write_path(doc, args.output)
    lines = [f"degree-0 dimensions {a.dim0} and {m.dim0}",
             f"degree-1 dimensions {a.dim1} and {m.dim1}",
             f"wrote {args.output}"]
    _emit(args, {"command": "triple-to-skeletal", "ok": True,
                 "algebra_dims": [a.dim0, a.dim1],
                 "module_dims": [m.dim0, m.dim1],
                 "output": args.output}, lines)
    return 0


def cmd_chainmap_check(args):
    if args.degree < 1:
        raise ParseError("--degree must be at least 1")
    sf = ff.parse_path(args.file)
    xname, x, bname, b = _coefficients(sf, args, "chainmap-check")
    rc = _coefficient_guard(args, xname, x, bname, b)
    if rc:
        return rc
    den, _, morph = induced_dendriform(x)
    rc = _guard(args, [("operator is a morphism on the total algebra",
                        morph)])
    if rc:
        return rc
    k = args.degree
    dend = dendriform_differential_matrix(
        den, induced_dendriform_representation(b), k + 1)
    ok = dend * psi_matrix(x, b, k) == psi_matrix(x, b, k + 1) * \
        hochschild_matrix(mtot_action_bimodule(b).actions, k)
    _emit(args, {"command": "chainmap-check", "ok": ok, "degree": k},
          [f"chain map at degree {k}: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


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
        return args.func(args)
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
