"""Command line front end.

One subcommand per decision or construction, plus `verify` for the
randomized suites.  Exit codes: 0 when the answer was computed, 1 when the
mathematical answer is negative (no extension, not CR, no counterexample,
not applicable), 2 for unusable input, 3 when an internal invariant failed
(a RuntimeError, reported without a traceback).  With --json the output is
a single object {"command", "ok", "result", "certificate"} with sorted
keys, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import List, Optional

from .algebra import Poly
from .classify import (
    check_first_integral,
    classify_cr_image,
    classify_quadric,
    flatten_from_first_integral,
)
from .errors import (
    ConstantTermInSubstitution,
    CrsingError,
    DegenerateQuadric,
    DimensionMismatch,
    FirstIntegralError,
    IndexOutOfRange,
    ManifoldSpecError,
    NoExtension,
    NotCR,
    PolyParseError,
    RankTooLow,
    RequiresNGe2,
    UnknownVariable,
    WVariablePresent,
)
from .extend import (
    cr_equation_matrix,
    counterexample_linear,
    dump_matrix_csv,
    extend_polynomial,
)
from .formal import formal_extend
from .manifold import Manifold, dot_zbar, is_cr, rank_condition
from .odecrit import ODEParams, brute_force_ode, decide
from .polyio import format_coeff, format_poly, load_manifold, parse_coeff, parse_poly
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (
    ManifoldSpecError,
    PolyParseError,
    UnknownVariable,
    IndexOutOfRange,
    DimensionMismatch,
    WVariablePresent,
    ConstantTermInSubstitution,
    RequiresNGe2,
    ValueError,
)


def _load_manifold(args) -> Manifold:
    if args.manifold == "-":
        return load_manifold(sys.stdin.read())
    try:
        with open(args.manifold, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ManifoldSpecError("cannot read %s: %s" % (args.manifold, e))
    return load_manifold(text)


def _parse_f(args, m: Manifold) -> Poly:
    return parse_poly(args.f, m.n)


def _emit(args, command: str, ok: bool, result, certificate, lines: List[str]):
    if args.json:
        payload = {
            "command": command,
            "ok": ok,
            "result": result,
            "certificate": certificate,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _matrix_json(M) -> List[List[str]]:
    return [[format_coeff(c) for c in row] for row in M]


def _render_eta(p: Optional[Poly]) -> Optional[str]:
    if p is None:
        return None
    return format_poly(p).replace("z1", "eta")


# -- subcommands ------------------------------------------------------


def cmd_rank(args) -> int:
    m = _load_manifold(args)
    r = rank_condition(m.quadric)
    result = {"n": m.n, "rank": r, "extension_theorem_applies": r >= 2}
    certificate = {"stacked": _matrix_json(m.quadric.stacked())}
    lines = [
        "rank: %d" % r,
        "extension theorem applies: %s" % ("yes" if r >= 2 else "no"),
    ]
    _emit(args, "rank", True, result, certificate, lines)
    return EXIT_OK


def cmd_classify(args) -> int:
    m = _load_manifold(args)
    label = classify_quadric(m.quadric)
    result = {
        "kind": label.kind.value,
        "a_squared": None if label.a_squared is None else str(label.a_squared),
        "description": label.describe(),
    }
    lines = ["class: %s" % label.describe()]
    _emit(args, "classify", True, result, None, lines)
    return EXIT_OK


def cmd_cr_basis(args) -> int:
    m = _load_manifold(args)
    d = args.degree
    mat = cr_equation_matrix(m.quadric, d)
    basis = mat.kernel_polys()
    lines = ["degree %d CR space has dimension %d" % (d, len(basis))]
    lines.extend("  %s" % format_poly(b) for b in basis)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8", newline="") as fh:
            dump_matrix_csv(mat, fh)
        lines.append("matrix written to %s" % args.dump_matrix)
    result = {
        "degree": d,
        "dimension": len(basis),
        "basis": [format_poly(b) for b in basis],
        # rank-nullity: the kernel above already fixes the rank
        "matrix_rank": len(mat.columns) - len(basis),
        "matrix_shape": [len(mat.rows), len(mat.columns)],
    }
    _emit(args, "cr-basis", True, result, None, lines)
    return EXIT_OK


def cmd_check_cr(args) -> int:
    m = _load_manifold(args)
    f = _parse_f(args, m)
    chk = is_cr(m, f)
    failures = [
        {"pair": [k, l], "image": format_poly(g)} for (k, l), g in chk.failures
    ]
    result = {"holds": chk.holds, "vacuous": chk.vacuous}
    certificate = {"failures": failures} if failures else None
    if chk.holds:
        lines = ["CR: yes" + (" (vacuously: no CR equations)" if chk.vacuous else "")]
    else:
        lines = ["CR: no"]
        lines.extend(
            "  L(%d,%d) f = %s" % (k, l, format_poly(g)) for (k, l), g in chk.failures
        )
    _emit(args, "check-cr", chk.holds, result, certificate, lines)
    return EXIT_OK if chk.holds else EXIT_NEGATIVE


def cmd_extend(args) -> int:
    m = _load_manifold(args)
    f = _parse_f(args, m)
    q = m.quadric
    try:
        ext = extend_polynomial(q, f)
    except NoExtension as e:
        certificate = None
        try:
            v = counterexample_linear(q)
        except DegenerateQuadric:
            v = None
        if v is not None:
            certificate = {"counterexample": [format_coeff(c) for c in v]}
        result = {"reason": str(e), "degree": e.degree}
        lines = ["no extension: %s" % e]
        if v is not None:
            lines.append(
                "certificate: v = (%s)" % ", ".join(format_coeff(c) for c in v)
            )
        _emit(args, "extend", False, result, certificate, lines)
        return EXIT_NEGATIVE
    except NotCR as e:
        result = {"reason": str(e), "degree": e.degree}
        _emit(args, "extend", False, result, None, ["not CR: %s" % e])
        return EXIT_NEGATIVE
    result = {"F": format_poly(ext.F), "unique": ext.unique}
    certificate = {"residual": format_poly(ext.residual)}
    lines = ["F = %s" % format_poly(ext.F), "unique: %s" % ("yes" if ext.unique else "no")]
    _emit(args, "extend", True, result, certificate, lines)
    return EXIT_OK


def cmd_formal_extend(args) -> int:
    m = _load_manifold(args)
    f = _parse_f(args, m)
    try:
        ext = formal_extend(m, f, args.order)
    except (NotCR, NoExtension, DegenerateQuadric) as e:
        result = {"reason": str(e), "degree": getattr(e, "degree", None)}
        _emit(args, "formal-extend", False, result, None, ["failed: %s" % e])
        return EXIT_NEGATIVE
    result = {
        "F": format_poly(ext.F),
        "order": ext.order,
        "residual_order": ext.residual_order,
        "certified": ext.certified,
        "unique": ext.unique,
    }
    certificate = {"residual": format_poly(ext.residual)}
    lines = [
        "F = %s" % format_poly(ext.F),
        "residual order: %s"
        % ("none (exact)" if ext.residual_order is None else ext.residual_order),
        "unique: %s" % ("yes" if ext.unique else "no"),
    ]
    _emit(args, "formal-extend", True, result, certificate, lines)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    m = _load_manifold(args)
    try:
        v = counterexample_linear(m.quadric)
    except DegenerateQuadric as e:
        result = {"reason": str(e)}
        _emit(args, "counterexample", False, result, None, ["degenerate: %s" % e])
        return EXIT_NEGATIVE
    if v is None:
        result = {"reason": "stacked rank is at least two; every CR polynomial extends"}
        _emit(
            args,
            "counterexample",
            False,
            result,
            None,
            ["no linear counterexample: extension holds"],
        )
        return EXIT_NEGATIVE
    fstr = format_poly(dot_zbar(v))
    result = {"vector": [format_coeff(c) for c in v], "cr_function": fstr}
    lines = ["counterexample: f = %s is CR but has no extension" % fstr]
    _emit(args, "counterexample", True, result, None, lines)
    return EXIT_OK


def cmd_cr_image(args) -> int:
    m = _load_manifold(args)
    img = classify_cr_image(m)
    applicable = img.form.value != "not_applicable"
    result = {"form": img.form.value, "description": img.describe()}
    lines = ["CR image: %s" % img.describe()]
    _emit(args, "cr-image", applicable, result, None, lines)
    return EXIT_OK if applicable else EXIT_NEGATIVE


def cmd_flatten_check(args) -> int:
    m = _load_manifold(args)
    g = parse_poly(args.g, m.n)
    try:
        report = check_first_integral(m, g, args.order)
    except RankTooLow as e:
        _emit(args, "flatten-check", False, {"reason": str(e)}, None, ["failed: %s" % e])
        return EXIT_NEGATIVE
    result = {
        "real_valued": report.real_valued,
        "cr_to_order": report.cr_to_order,
        "quadratic_matches": report.quadratic_matches,
        "alpha": None if report.alpha is None else format_coeff(report.alpha),
        "normalization_required": report.normalization_required,
        "order": report.order,
    }
    lines = [
        "real-valued: %s" % ("yes" if report.real_valued else "no"),
        "CR to order %d: %s" % (report.order, "yes" if report.cr_to_order else "no"),
    ]
    if report.normalization_required:
        lines.append("quadratic part: skipped (Q is not real-valued; normalize first)")
    else:
        lines.append(
            "quadratic part is alpha*Q: %s"
            % ("yes, alpha = %s" % format_coeff(report.alpha) if report.quadratic_matches else "no")
        )
    if not report.ok:
        _emit(args, "flatten-check", False, result, None, lines + ["not a first integral"])
        return EXIT_NEGATIVE
    try:
        ext = flatten_from_first_integral(m, g, args.order)
    except (FirstIntegralError, NotCR, NoExtension) as e:
        result["reason"] = str(e)
        _emit(args, "flatten-check", False, result, None, lines + ["failed: %s" % e])
        return EXIT_NEGATIVE
    result["F"] = format_poly(ext.F)
    result["residual_order"] = ext.residual_order
    certificate = {"residual": format_poly(ext.residual)}
    lines.append("flattening function F = %s" % format_poly(ext.F))
    lines.append(
        "residual order: %s"
        % ("none (exact)" if ext.residual_order is None else ext.residual_order)
    )
    _emit(args, "flatten-check", True, result, certificate, lines)
    return EXIT_OK


def cmd_ode(args) -> int:
    coeffs = {}
    for name in ("p", "q", "r", "s", "t"):
        coeffs[name] = parse_coeff(getattr(args, name))
    xi = None if args.xi is None else parse_coeff(args.xi)
    if args.case == "c" and xi is None:
        raise ValueError("case c needs --xi (the double root)")
    params = ODEParams(
        p=coeffs["p"], q=coeffs["q"], r=coeffs["r"], s=coeffs["s"], t=coeffs["t"], xi=xi
    )
    decision = decide(args.case, params)
    result = {
        "case": args.case,
        "verdict": decision.verdict.value,
        "witness": _render_eta(decision.witness),
    }
    lines = ["verdict: %s" % decision.verdict.value]
    if decision.witness is not None:
        lines.append("witness: zeta = %s" % _render_eta(decision.witness))
    if args.brute_bound is not None:
        brute = brute_force_ode(args.case, params, args.brute_bound)
        agree = brute.verdict == decision.verdict
        result["brute_force"] = {
            "bound": args.brute_bound,
            "verdict": brute.verdict.value,
            "witness": _render_eta(brute.witness),
            "agrees": agree,
        }
        lines.append(
            "brute force (degree <= %d): %s%s"
            % (args.brute_bound, brute.verdict.value, "" if agree else "  DISAGREES")
        )
    _emit(args, "ode", True, result, None, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else list(SUITES)
    overrides = {}
    # smallest value of each suite parameter; every suite is skipped if one
    # is out of range, since a suite given none of its samples passes vacuously
    minimum = {"samples": 1, "dmax": 1, "order": 0, "bound": 0, "seed": None}
    for key, low in minimum.items():
        val = getattr(args, key)
        if val is None:
            continue
        if low is not None and val < low:
            raise ValueError("--%s must be at least %d, got %d" % (key, low, val))
        overrides[key] = val
    results = []
    for name in names:
        fn = SUITES[name]
        accepted = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in overrides.items() if k in accepted}
        results.append(run_suite(name, **kwargs))
    all_ok = all(r.passed for r in results)
    result = [
        {
            "suite": r.name,
            "passed": r.passed,
            "elapsed_seconds": round(r.elapsed, 2),
            "rows": [
                {"label": row.label, "ok": row.ok, "detail": row.detail}
                for row in r.rows
            ],
        }
        for r in results
    ]
    lines = []
    for r in results:
        lines.append(
            "suite %-16s %s  (%.1fs)" % (r.name, "pass" if r.passed else "FAIL", r.elapsed)
        )
        for row in r.rows:
            mark = "ok " if row.ok else "FAIL"
            detail = "  [%s]" % row.detail if row.detail else ""
            lines.append("  [%s] %s%s" % (mark, row.label, detail))
    _emit(args, "verify", all_ok, result, None, lines)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


# -- parser -----------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """Reads a token such as -3i, -1/2 or -z1 as a value, as in --p=-3i;
    plain argparse lets only negative numbers through.  Tokens starting
    with "--", and -h, stay options."""

    def _parse_optional(self, arg_string):
        if (
            arg_string.startswith("-")
            and not arg_string.startswith("--")
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crsing",
        description="Decide and construct holomorphic extensions of CR "
        "functions on quadratic CR singular models w = Q(z, zbar) + E.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    def add(name, func, help_text, manifold=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if manifold:
            p.add_argument(
                "--manifold",
                required=True,
                metavar="FILE",
                help="manifold description in JSON ('-' reads stdin)",
            )
        p.set_defaults(func=func)
        return p

    add("rank", cmd_rank, "stacked-matrix rank of the quadric part")
    add("classify", cmd_classify, "exceptional-class label of the quadric part")

    p = add("cr-basis", cmd_cr_basis, "basis of homogeneous CR polynomials")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--dump-matrix", metavar="PATH", help="write the CR equation matrix as CSV")

    p = add("check-cr", cmd_check_cr, "test a polynomial against the CR equations")
    p.add_argument("--f", required=True, metavar="POLY")

    p = add("extend", cmd_extend, "holomorphic polynomial extension on the quadric")
    p.add_argument("--f", required=True, metavar="POLY")

    p = add("formal-extend", cmd_formal_extend, "order-by-order extension on w = Q + E")
    p.add_argument("--f", required=True, metavar="POLY")
    p.add_argument("--order", type=int, default=8, metavar="N")

    add("counterexample", cmd_counterexample, "linear CR function with no extension")
    add("cr-image", cmd_cr_image, "normal form of the image of all CR functions")

    p = add("flatten-check", cmd_flatten_check, "first-integral test and flattening")
    p.add_argument("--g", required=True, metavar="POLY")
    p.add_argument("--order", type=int, default=8, metavar="N")

    p = add("ode", cmd_ode, "polynomial solutions of the model ODE", manifold=False)
    p.add_argument("--case", choices=("a", "b", "c"), required=True)
    for name in ("p", "q", "r", "s", "t"):
        p.add_argument("--%s" % name, default="0", metavar="COEFF")
    p.add_argument("--xi", metavar="COEFF", help="double root (case c)")
    p.add_argument(
        "--brute-bound",
        type=int,
        metavar="D",
        help="also search coefficients up to degree D and compare",
    )

    p = add("verify", cmd_verify, "run the randomized verification suites", manifold=False)
    p.add_argument("--suite", choices=sorted(SUITES), help="run one suite (default: all)")
    p.add_argument("--samples", type=int)
    p.add_argument("--dmax", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except CrsingError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_NEGATIVE
    except RuntimeError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
