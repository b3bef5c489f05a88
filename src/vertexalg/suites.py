"""Named verification suites.

Each suite is a catalog of (check name, thunk) pairs; a thunk returns a
detail string on success and raises CheckFailure (or any exception) on
failure.  Reports are deterministic apart from the timing fields.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

from .coefficients import RF_ONE, RatFunc, parse_ratfunc
from .constructions import (
    a_orbifold_w,
    affine,
    as_diagonal_sp_action,
    as_mixed_generators,
    bc_system,
    deformable_form,
    free_field_conformal,
    heisenberg_pairs,
    limit_element,
    limit_presentation,
    n2_coset_generators,
    odd_pair_shape,
    osp_coset_virasoro,
    parafermion_sl3_generators,
    primary_test,
    s_orbifold_w,
    sugawara,
    sugawara_central_charge,
    symplectic_fermion,
    tau_embedding,
    virasoro_test,
)
from .lie import builtin_lie
from .linear import (
    commutant_basis,
    decoupling_multiplier,
    graded_dimensions,
    invariant_basis,
    nongeneric_levels,
    solve_span,
    verify_commutant,
    verify_invariant,
    weight_basis,
)


class CheckFailure(AssertionError):
    pass


def _expect(cond, detail):
    if not cond:
        raise CheckFailure(detail)
    return detail


def _numbers(values) -> str:
    """Sorted exact numbers as text, e.g. "[-4, -8/3]"."""
    return "[" + ", ".join(str(v) for v in sorted(values)) + "]"


class SuiteReport:
    def __init__(self, name):
        self.name = name
        self.checks = []  # (name, status, detail, seconds)

    @property
    def passed(self) -> bool:
        return all(s in ("pass", "skipped") for _, s, _, _ in self.checks)

    def run_check(self, name, thunk):
        t0 = time.perf_counter()
        try:
            detail = thunk()
            status = "pass"
        except CheckFailure as exc:
            detail = str(exc)
            status = "fail"
        except Exception as exc:  # report, do not crash the suite
            detail = f"{type(exc).__name__}: {exc}"
            status = "fail"
        self.checks.append((name, status, detail or "", time.perf_counter() - t0))

    def serialize(self, with_timing=True):
        out = {
            "suite": self.name,
            "passed": self.passed,
            "checks": [
                {
                    "name": n,
                    "status": s,
                    "detail": d,
                    **({"seconds": round(t, 3)} if with_timing else {}),
                }
                for n, s, d, t in self.checks
            ],
        }
        return out

    def pretty(self) -> str:
        lines = [f"suite {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for n, s, d, t in self.checks:
            lines.append(f"  [{s.upper():4s}] {n} ({t:.2f}s)" + (f" — {d}" if d else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------


def suite_sugawara() -> SuiteReport:
    rep = SuiteReport("sugawara")
    k = RatFunc.param()
    cases = [
        ("sl2", "(3*k)/(k + 2)"),
        ("osp(1|2)", "(2*k)/(2*k + 3)"),
        ("sl3", "(8*k)/(k + 3)"),
    ]
    for lie_name, c_text in cases:
        def check(lie_name=lie_name, c_text=c_text):
            P = affine(builtin_lie(lie_name), k)
            L = sugawara(P)
            ok, c = virasoro_test(L)
            want = parse_ratfunc(c_text)
            _expect(ok, f"{lie_name}: not a Virasoro vector")
            _expect(c == want, f"{lie_name}: c = {c}, want {want}")
            _expect(sugawara_central_charge(P) == c,
                    f"{lie_name}: k sdim(g)/(k + h) = {sugawara_central_charge(P)}")
            for i in range(P.ngen):
                okp, d = primary_test(L, P.gen(i))
                _expect(okp and d == RF_ONE,
                        f"{lie_name}: generator {P.generators[i].name} not primary weight 1")
            return f"c = {c}; all {P.ngen} generators primary of weight 1"
        rep.run_check(f"sugawara[{lie_name}]", check)
    return rep


def suite_n2_universal() -> SuiteReport:
    rep = SuiteReport("n2-universal")
    k = RatFunc.param()
    P = affine(builtin_lie("sl2"), k).tensor(bc_system(1))
    gens = n2_coset_generators(P)
    J, F, L, Gp, Gm = gens["J"], gens["F"], gens["L"], gens["Gp"], gens["Gm"]
    H, Xp, Xm, b, c = (P.gen(n) for n in ["H", "Xp", "Xm", "b", "c"])

    def rel1(i):
        # the k-term carries (-1)^i as well; the displayed flat sign only
        # matches at odd i (see the decisions ledger)
        lhs = (P.gen("Xp", i).no(b)).no(Xm.no(c))
        rhs = (
            H.no(P.gen("b", i + 1).no(c)) * RatFunc.const(Fraction(2 * (-1) ** i, i + 1))
            + P.gen("Xp", i).no(Xm.no(b.no(c)))
            + P.gen("Xp", i + 1).no(Xm)
            + P.gen("b", i + 2).no(c) * (k * RatFunc.const(Fraction((-1) ** i, i + 2)))
        )
        _expect((lhs - rhs).is_zero(), f"i={i}: relation fails")
        return f"i={i}: coefficients (-1)^i 2/(i+1) and (-1)^i k/(i+2)"

    def rel2(i):
        lhs = (P.gen("Xp", i).no(b)).no(b.no(c))
        _expect((lhs + P.gen("Xp", i + 1).no(b)).is_zero(), f"i={i}")
        return f"i={i}: equals -:d^{i+1}(Xp) b:"

    def rel3(i):
        lhs = (P.gen("Xm", i).no(c)).no(b.no(c))
        _expect((lhs - P.gen("Xm", i + 1).no(c)).is_zero(), f"i={i}")
        return f"i={i}: equals :d^{i+1}(Xm) c:"

    def rel4(i):
        # :(:d^i b c:)(:bc:): = ((i+2)/(i+1)) :(d^{i+1} b) c:  modulo d-image
        lhs = (P.gen("b", i).no(c)).no(b.no(c))
        lhs = lhs - P.gen("b", i + 1).no(c) * RatFunc.const(Fraction(i + 2, i + 1))
        cols = [P.derivative(P.element({M: 1})) for M in weight_basis(P, Fraction(i + 1))]
        _expect(solve_span(cols, lhs)[0] is not None, f"i={i}: residue not a total derivative")
        return f"i={i}: coefficient (i+2)/(i+1) modulo derivatives"

    for i in range(3):
        rep.run_check(f"relation-XpXm[i={i}]", lambda i=i: rel1(i))
        rep.run_check(f"relation-Xpbc[i={i}]", lambda i=i: rel2(i))
        rep.run_check(f"relation-Xmbc[i={i}]", lambda i=i: rel3(i))
        rep.run_check(f"relation-bcbc[i={i}]", lambda i=i: rel4(i))

    def commutes():
        for name, el in [("F", F), ("L", L), ("Gp", Gp), ("Gm", Gm)]:
            _expect(P.lambda_bracket(J, el).is_zero(), f"[J, {name}] != 0")
        return "J = H - :bc: commutes with F, L, G+, G-"

    rep.run_check("J-commutant", commutes)

    def conformal():
        ok, cc = virasoro_test(L)
        _expect(ok and cc == parse_ratfunc("(3*k)/(k + 2)"), f"c = {cc}")
        return f"virasoro_test(L): c = {cc}"

    rep.run_check("virasoro-L", conformal)

    def primaries():
        for name, el, want in [("F", F, "1"), ("Gp", Gp, "3/2"), ("Gm", Gm, "3/2")]:
            ok, d = primary_test(L, el)
            _expect(ok and d == parse_ratfunc(want), f"{name}: weight {d}")
        return "F primary 1; G+ and G- primary 3/2"

    rep.run_check("primaries", primaries)
    return rep


def suite_osp_coset() -> SuiteReport:
    rep = SuiteReport("osp-coset")
    k = RatFunc.param()
    P = affine(builtin_lie("osp(1|2)"), k)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    L = osp_coset_virasoro(P)

    def weight2():
        solve = commutant_basis(P, currents, 2)
        _expect(solve.kernel_dim == 1, f"dim {solve.kernel_dim}")
        _expect(verify_commutant(P, L, currents), "L not in commutant")
        ok, c = virasoro_test(L)
        want = parse_ratfunc("(-4*k^2 - 5*k)/(2*k^2 + 7*k + 6)")
        _expect(ok and c == want, f"c = {c}")
        return f"dim 1; c = {c} = -k(4k+5)/((k+2)(2k+3))"

    rep.run_check("weight-2-virasoro", weight2)

    def decouple(w, m, want_roots):
        report = decoupling_multiplier(
            P, currents, [L], w,
            target_shape=odd_pair_shape(P, "phip", "phim", m),
        )
        roots = set(report.roots)
        want = {Fraction(r) for r in want_roots}
        _expect(roots == want, f"roots {_numbers(roots)}, want {_numbers(want)}")
        _expect(report.poles == {Fraction(-2), Fraction(-3, 2)},
                f"poles {_numbers(report.poles)}")
        _expect(report.relation.verify(), "relation does not verify")
        return (f"multiplier {report.multiplier}; roots {_numbers(roots)}; "
                f"poles {_numbers(report.poles)} reported separately")

    rep.run_check("weight-4-decoupling", lambda: decouple(4, 1, ["-4"]))
    rep.run_check("weight-6-decoupling", lambda: decouple(6, 2, ["-4", "-8/3"]))
    rep.run_check("weight-8-decoupling",
                  lambda: decouple(8, 3, ["-4", "-8/3", "-12/5"]))
    return rep


def suite_sl3_limit() -> SuiteReport:
    rep = SuiteReport("sl3-limit")
    H6 = heisenberg_pairs(3, names=[
        "a12", "a23", "a13", "a21", "a32", "a31",
    ])
    fns = parafermion_sl3_generators(H6)
    q, qbar, c, cbar = fns["q"], fns["qbar"], fns["c"], fns["cbar"]

    def family(label, build_lhs, build_rhs, idx):
        lhs = build_lhs(idx)
        rhs = build_rhs(idx)
        _expect((lhs - rhs).is_zero(), f"{label} index {idx}")
        return f"{label} at index {idx}: coefficient -{idx}/(2*{idx}+4)"

    checks = [
        ("c-raise-i", lambda i: q(0, 0, 0).no(c(i, 0, 0)) - q(0, i, 0).no(c(0, 0, 0)),
         lambda i: c(i + 2, 0, 0) * RatFunc.const(Fraction(-i, 2 * i + 4))),
        ("c-raise-j", lambda j: q(1, 0, 0).no(c(0, j, 0)) - q(1, j, 0).no(c(0, 0, 0)),
         lambda j: c(0, j + 2, 0) * RatFunc.const(Fraction(-j, 2 * j + 4))),
        ("c-raise-k", lambda kk: qbar(2, 0, 0).no(c(0, 0, kk)) - qbar(2, kk, 0).no(c(0, 0, 0)),
         lambda kk: c(0, 0, kk + 2) * RatFunc.const(Fraction(-kk, 2 * kk + 4))),
        ("cbar-raise-i", lambda i: qbar(0, 0, 0).no(cbar(i, 0, 0)) - qbar(0, i, 0).no(cbar(0, 0, 0)),
         lambda i: cbar(i + 2, 0, 0) * RatFunc.const(Fraction(-i, 2 * i + 4))),
        ("cbar-raise-j", lambda j: qbar(1, 0, 0).no(cbar(0, j, 0)) - qbar(1, j, 0).no(cbar(0, 0, 0)),
         lambda j: cbar(0, j + 2, 0) * RatFunc.const(Fraction(-j, 2 * j + 4))),
        ("cbar-raise-k", lambda kk: q(2, 0, 0).no(cbar(0, 0, kk)) - q(2, kk, 0).no(cbar(0, 0, 0)),
         lambda kk: cbar(0, 0, kk + 2) * RatFunc.const(Fraction(-kk, 2 * kk + 4))),
    ]
    for label, lhs_f, rhs_f in checks:
        for idx in (1, 2):
            rep.run_check(
                f"{label}[{idx}]",
                lambda label=label, lhs_f=lhs_f, rhs_f=rhs_f, idx=idx: family(
                    label, lhs_f, rhs_f, idx
                ),
            )

    def derivative_identity():
        lhs = H6.derivative(c(0, 0, 0))
        rhs = c(1, 0, 0) + c(0, 1, 0) + c(0, 0, 1)
        _expect((lhs - rhs).is_zero(), "derivative identity fails")
        return "d c_{0,0,0} = c_{1,0,0} + c_{0,1,0} + c_{0,0,1}"

    rep.run_check("derivative-identity", derivative_identity)
    return rep


def suite_free_orbifolds() -> SuiteReport:
    rep = SuiteReport("free-orbifolds")
    tau = tau_embedding(1)
    S1 = tau.target

    def s_orbifold(kk):
        w = s_orbifold_w(S1, 1, kk)
        _expect(S1.weight_of(w) == 2 * kk + 2, "wrong weight")
        _expect(verify_invariant(S1, w, tau.images),
                f"w~^{2*kk+1} not invariant")
        return f"w~^{2*kk+1} of weight {2*kk+2} is Sp(2)-invariant"

    for kk in (0, 1, 2):
        rep.run_check(f"S(1)-orbifold[w~^{2*kk+1}]", lambda kk=kk: s_orbifold(kk))

    def s_dimensions():
        # the trivial sl2 multiplicity [z^0]f - [z^2]f of the S(1) character,
        # beta of charge -1 and gamma of charge 1, read off the weight basis
        dims = {}
        for w in (Fraction(n, 2) for n in range(1, 13)):
            charges = Counter(sum(1 if g else -1 for g, _ in M) for M in weight_basis(S1, w))
            dims[w] = invariant_basis(S1, tau.images, w).kernel_dim
            _expect(dims[w] == charges[0] - charges[2],
                    f"weight {w}: dimension {dims[w]}, character {charges[0] - charges[2]}")
        return ("S(1)^Sp(2) graded dimensions {"
                + ", ".join(f"{w}: {d}" for w, d in dims.items())
                + "} equal [z^0]f - [z^2]f of the S(1) character")

    rep.run_check("S(1)-invariant-dimensions", s_dimensions)

    def a_virasoro():
        A1 = symplectic_fermion(1)
        w0 = a_orbifold_w(A1, 1, 0)
        ok, c = virasoro_test(-w0)
        _expect(ok and c == RatFunc.const(-2), f"c = {c}")
        _expect(free_field_conformal(A1) == -w0, "-w^0 is not the free-field conformal vector")
        return "-w^0 = -:ef: is a Virasoro vector of central charge -2"

    rep.run_check("A(1)-w0-virasoro", a_virasoro)

    AS, actions, _ = as_diagonal_sp_action(1)
    gens = as_mixed_generators(AS, 1)

    def mixed(name, el, weight):
        _expect(AS.weight_of(el) == Fraction(weight), "wrong weight")
        _expect(verify_invariant(AS, el, actions), f"{name} not invariant")
        return f"{name} (weight {weight}) killed by the diagonal sp2 action"

    rep.run_check("AS-mixed[mu0]", lambda: mixed("mu^0", gens["mu"][0], "3/2"))
    rep.run_check("AS-mixed[mu1]", lambda: mixed("mu^1", gens["mu"][1], "5/2"))
    rep.run_check("AS-mixed[j0]", lambda: mixed("j^0", gens["j"][0], 2))
    rep.run_check("AS-mixed[w1]", lambda: mixed("w^1", gens["w"][0], 2))

    def n1_virasoro():
        L = -gens["j"][0] + gens["w"][0]
        ok, c = virasoro_test(L)
        _expect(ok and c == RatFunc.const(-3), f"c = {c}")
        _expect(free_field_conformal(AS) == L, "L is not the free-field conformal vector")
        return "L = -j^0 + w^1 has central charge -3 (= -3n at n = 1)"

    rep.run_check("AS-virasoro", n1_virasoro)
    return rep


def suite_deformable_limit() -> SuiteReport:
    rep = SuiteReport("deformable-limit")
    k = RatFunc.param()

    def limits(lie_name):
        P = affine(builtin_lie(lie_name), k)
        D = deformable_form(P)
        Lm = limit_presentation(D)
        res = Lm.check()
        _expect(res.ok, "limit fails skew/Jacobi checks")
        lie = P.metadata["lie"]
        for i in range(lie.dim):
            for j in range(lie.dim):
                br = Lm.lambda_bracket(Lm.gen(i), Lm.gen(j))
                want = (
                    Lm.vacuum(RatFunc.const(lie.form[i][j]))
                    if lie.form[i][j]
                    else Lm.zero()
                )
                _expect(br.c(0).is_zero() and br.c(1) == want and br.order() <= 2,
                        f"bracket ({lie.names[i]}, {lie.names[j]}) not Gram form")
        return f"limit of deformable {lie_name}: free brackets match the Gram matrix"

    rep.run_check("limit[sl2]", lambda: limits("sl2"))
    rep.run_check("limit[osp(1|2)]", lambda: limits("osp(1|2)"))

    def psi_homomorphism():
        rng = random.Random(20240517)
        P = affine(builtin_lie("sl2"), k)
        D = deformable_form(P)
        Lm = limit_presentation(D)

        def rand_elem():
            out = D.zero()
            for _ in range(rng.randint(1, 3)):
                wt = rng.randint(1, 4)
                basis = weight_basis(D, wt).monomials
                M = basis[rng.randrange(len(basis))]
                out = out + D.element({M: rng.randint(-3, 3)})
            return out

        for trial in range(20):
            x, y = rand_elem(), rand_elem()
            n = rng.randint(-1, 2)
            lhs = limit_element(D.nprod(x, y, n), Lm)
            rhs = Lm.nprod(limit_element(x, Lm), limit_element(y, Lm), n)
            _expect(lhs == rhs, f"trial {trial}: psi(x o_{n} y) != psi(x) o_{n} psi(y)")
        return "psi respects n-th products on 20 random pairs (weights <= 4)"

    rep.run_check("psi-homomorphism", psi_homomorphism)
    return rep


def suite_parafermion_sl2() -> SuiteReport:
    rep = SuiteReport("parafermion-sl2")
    k = RatFunc.param()
    P = affine(builtin_lie("sl2"), k)
    H = P.gen("H")

    def dims():
        table = graded_dimensions(P, [H], 5, w_min=2)
        want = {Fraction(2): 1, Fraction(3): 2, Fraction(4): 4, Fraction(5): 6}
        _expect(table == want,
                "dims {" + ", ".join(f"{w}: {d}" for w, d in table.items()) + "}")
        return "Com(H, V_k(sl2)) has generic graded dimensions (1, 2, 4, 6) at weights (2, 3, 4, 5)"

    rep.run_check("graded-dimensions", dims)

    def nongeneric():
        solve = commutant_basis(P, [H], 2)
        ng = nongeneric_levels(solve)
        _expect(set(ng.certified) == {Fraction(0)},
                f"certified {_numbers(ng.certified)}")
        _expect(not ng.candidates, f"uncertified candidates {_numbers(ng.candidates)}")
        gen, at = ng.certified[Fraction(0)]
        return f"weight-2 nongeneric set {{0}}: kernel dimension jumps {gen} -> {at}"

    rep.run_check("weight-2-nongeneric", nongeneric)
    return rep


SUITES = {
    "sugawara": suite_sugawara,
    "n2-universal": suite_n2_universal,
    "osp-coset": suite_osp_coset,
    "sl3-limit": suite_sl3_limit,
    "free-orbifolds": suite_free_orbifolds,
    "deformable-limit": suite_deformable_limit,
    "parafermion-sl2": suite_parafermion_sl2,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name]()
