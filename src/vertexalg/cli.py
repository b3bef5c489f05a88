"""Command-line surface.

Exit codes: 0 all checks pass, 1 a check or computation reports failure,
2 usage or input errors.

The cost of a solve grows steeply with its weight and its basis, so the
weight of commutant and nongeneric (--weight) and of the find-relation
target is at most MAX_SOLVE_WEIGHT.  A commutant or nongeneric solve
enumerates at most MAX_WEIGHT_BASIS monomials, counted by basis_size first,
and runs on at most MAX_SOLVE_COLUMNS of them, the charge-0 solve_basis of
linear.  A find-relation solve likewise enumerates at most MAX_WEIGHT_BASIS
words in its generators, counted by basis_size before any is built.  Over
any limit the command exits 2 with a message.
Since a_(-k-1) b = :(D^k a / k!) b:, the --n of nproduct is at least
-(MAX_DERIVATIVE_ORDER + 1), the bound on D^k in expressions, and the
operands of nproduct and bracket have longest monomials of at most
expressions.MAX_MONOMIAL_LENGTH generators together.
A constructor spec has at most deffiles.MAX_FACTORS tensor factors, and
input nested too deeply for the parsers exits 2 as well.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .coefficients import CoefficientError, LimitExceeded
from .deffiles import CONSTRUCTOR_SPECS, DefinitionError, build_algebra, load_definition
from .expressions import (MAX_DERIVATIVE_ORDER, check_product_length, format_element,
                          parse_element)
from .lie import builtin_names
from .linear import (
    basis_size,
    commutant_basis,
    find_relation,
    nongeneric_levels,
    Obstruction,
    solve_basis,
)
from .suites import SUITES, run_suite


# largest weight of a commutant, nongeneric or find-relation solve
MAX_SOLVE_WEIGHT = 12
# largest weight basis of a commutant or nongeneric solve, enumerated or not,
# and most words in the generators of a find-relation solve
MAX_WEIGHT_BASIS = 20000
# most columns a commutant or nongeneric solve runs on
MAX_SOLVE_COLUMNS = 500


def _solve_weight(w):
    """The weight of a solve, a number or the text of one, within the limit."""
    try:
        w = Fraction(w)
    except ZeroDivisionError:
        raise ValueError(f"weight {w!r} divides by zero") from None
    if w > MAX_SOLVE_WEIGHT:
        raise LimitExceeded(f"weight {w} exceeds the solve-weight limit {MAX_SOLVE_WEIGHT}")
    return w


def _parsing(fn):
    """fn, with input nested too deeply for its parser as an input error."""
    @functools.wraps(fn)
    def wrapped(*args):
        try:
            return fn(*args)
        except RecursionError:
            raise ValueError("input is nested too deeply") from None
    return wrapped


_load_definition = _parsing(load_definition)


@_parsing
def _load_algebra(spec: str):
    if spec.endswith(".json"):
        definition = load_definition(spec)
        return definition.algebra, definition
    return build_algebra(spec), None


@_parsing
def _resolve(pres, definition, text):
    if definition is not None:
        hit = definition.lookup(text.strip())
        if hit is not None:
            return hit
    return parse_element(pres, text)


def _emit(args, payload, pretty_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in pretty_lines:
            print(line)


def cmd_define(args) -> int:
    definition = _load_definition(args.file)
    P = definition.algebra
    payload = {
        "name": P.name,
        "parameter": P.param,
        "generators": [
            {
                "name": g.name,
                "parity": "odd" if g.parity else "even",
                "weight": str(g.weight),
            }
            for g in P.generators
        ],
        "currents": sorted(definition.currents),
        "elements": sorted(definition.elements),
    }
    lines = [f"algebra {P.name} over Q({P.param})"]
    for g in P.generators:
        lines.append(
            f"  {g.name}: weight {g.weight}, {'odd' if g.parity else 'even'}"
        )
    if definition.currents:
        lines.append("currents: " + ", ".join(sorted(definition.currents)))
    if definition.elements:
        lines.append("elements: " + ", ".join(sorted(definition.elements)))
    _emit(args, payload, lines)
    return 0


def cmd_bracket(args) -> int:
    P, definition = _load_algebra(args.algebra)
    left = _resolve(P, definition, args.left)
    right = _resolve(P, definition, args.right)
    check_product_length(left, right)
    br = P.lambda_bracket(left, right)
    payload = {
        "coefficients": [format_element(c) for c in br.coeffs],
    }
    lines = []
    if br.is_zero():
        lines.append("[left_lambda right] = 0")
    else:
        for n, c in enumerate(br.coeffs):
            if not c.is_zero():
                lines.append(f"lambda^{n}/{n}!:  {format_element(c)}")
    _emit(args, payload, lines)
    return 0


def cmd_nproduct(args) -> int:
    if args.n < -(MAX_DERIVATIVE_ORDER + 1):
        raise LimitExceeded(
            f"--n {args.n} is below -{MAX_DERIVATIVE_ORDER + 1}: a_(-k-1) b takes D^k a, "
            f"and the derivative order limit is {MAX_DERIVATIVE_ORDER}"
        )
    P, definition = _load_algebra(args.algebra)
    left = _resolve(P, definition, args.left)
    right = _resolve(P, definition, args.right)
    check_product_length(left, right)
    out = P.nprod(left, right, args.n)
    _emit(args, {"result": format_element(out)}, [format_element(out)])
    return 0


def cmd_normal_form(args) -> int:
    P, definition = _load_algebra(args.algebra)
    out = _resolve(P, definition, args.expr)
    _emit(args, {"result": format_element(out)}, [format_element(out)])
    return 0


def _parse_actions(P, definition, text):
    actions = []
    for part in text.split(","):
        part = part.strip()
        if part:
            actions.append(_resolve(P, definition, part))
    if not actions:
        raise DefinitionError("no currents given")
    return actions


def _commutant_solve(args):
    """The commutant solve of commutant and nongeneric, within the limits."""
    weight = _solve_weight(args.weight)
    P, definition = _load_algebra(args.algebra)
    currents = _parse_actions(P, definition, args.currents)
    size = basis_size([(g.weight, g.parity) for g in P.generators], weight)
    if size > MAX_WEIGHT_BASIS:
        raise LimitExceeded(f"the weight-{weight} basis has {size} monomials, more "
                            f"than the weight-basis limit {MAX_WEIGHT_BASIS}")
    basis = solve_basis(P, currents, weight)
    if len(basis) > MAX_SOLVE_COLUMNS:
        raise LimitExceeded(f"the weight-{weight} solve has {len(basis)} columns, more "
                            f"than the solve-column limit {MAX_SOLVE_COLUMNS}")
    return commutant_basis(P, currents, weight, basis)


def cmd_commutant(args) -> int:
    report = _commutant_solve(args)
    payload = report.serialize()
    payload["kernel_elements"] = [format_element(v) for v in report.kernel_elements()]
    lines = [
        f"weight {args.weight}: basis {len(report.basis)}, "
        f"generic kernel dimension {report.kernel_dim}"
    ]
    for v in report.kernel_elements():
        lines.append("  " + format_element(v))
    _emit(args, payload, lines)
    return 0


def cmd_find_relation(args) -> int:
    P, definition = _load_algebra(args.algebra)
    target = _resolve(P, definition, args.target)
    weight = _solve_weight(P.weight_of(target))
    gens = [
        _resolve(P, definition, part)
        for part in args.generators.split(";")
        if part.strip()
    ]
    size = basis_size([(P.weight_of(g), P.parity_of(g)) for g in gens], weight)
    if size > MAX_WEIGHT_BASIS:
        raise LimitExceeded(f"the generators have {size} words of weight {weight}, more "
                            f"than the weight-basis limit {MAX_WEIGHT_BASIS}")
    rel = find_relation(P, target, gens)
    if isinstance(rel, Obstruction):
        _emit(
            args,
            {"obstruction": rel.serialize()},
            [
                "target is not in the span of the words: "
                f"ranks {rel.words_rank} vs {rel.combined_rank}"
            ],
        )
        return 1
    payload = rel.serialize()
    roots, _ = rel.multiplier_roots()
    payload["multiplier_roots"] = sorted(str(r) for r in roots)
    lines = [
        f"multiplier: {rel.multiplier}",
        f"multiplier roots: {sorted(str(r) for r in roots)}",
        f"combination: {format_element(rel.combination)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_nongeneric(args) -> int:
    ng = nongeneric_levels(_commutant_solve(args))
    payload = ng.serialize()
    lines = [
        f"certified nongeneric levels: {sorted(str(r) for r in ng.certified)}",
        f"candidates: {sorted(str(r) for r in ng.candidates)}",
        f"poles: {sorted(str(r) for r in ng.poles)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_suite(args) -> int:
    report = run_suite(args.name)
    if args.format == "json":
        print(json.dumps(report.serialize(), indent=2, sort_keys=True))
    else:
        print(report.pretty())
    return 0 if report.passed else 1


def cmd_list(args) -> int:
    payload = {
        "suites": sorted(SUITES),
        "constructors": list(CONSTRUCTOR_SPECS),
        "builtin_lie": builtin_names(),
    }
    lines = ["suites: " + ", ".join(sorted(SUITES))]
    lines.append("constructors: " + ", ".join(payload["constructors"]))
    lines.append("built-in Lie algebras: " + ", ".join(payload["builtin_lie"]))
    _emit(args, payload, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="vertexalg",
        description="Exact symbolic calculus for vertex superalgebras over Q(k).",
    )
    parser.add_argument(
        "--format", choices=["pretty", "json"], default="pretty",
        help="output format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("define", help="validate and summarize a definition file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_define)

    p = sub.add_parser("bracket", help="lambda bracket of two expressions")
    p.add_argument("--algebra", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("nproduct", help="n-th product of two expressions")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_nproduct)

    p = sub.add_parser("normal-form", help="canonical form of an expression")
    p.add_argument("--algebra", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("commutant", help="weight-graded commutant solve")
    p.add_argument("--algebra", required=True)
    p.add_argument("--currents", required=True, help="comma-separated expressions")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_commutant)

    p = sub.add_parser("find-relation", help="express a target through words")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--generators", required=True, help="semicolon-separated expressions")
    p.set_defaults(func=cmd_find_relation)

    p = sub.add_parser("nongeneric", help="nongeneric levels of a commutant solve")
    p.add_argument("--algebra", required=True)
    p.add_argument("--currents", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_nongeneric)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("list", help="list suites and constructors")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoefficientError, KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
