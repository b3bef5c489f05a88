"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them).
Criterion 2's last coefficient is implemented as (-1)^i k/(i+2): the flat
sign only matches at odd i, and the even-i sign is forced by the stated
generator brackets (see the decisions ledger for the hand derivation).
Criterion 7 tests orbifold membership, i.e. annihilation by the combined
zero modes that implement the group action; the tau embedding is conformal,
so annihilation by all nonnegative modes would leave only the vacuum line.
"""

import random
import time
from fractions import Fraction

import pytest

from vertexalg.coefficients import RF_ONE, RF_ZERO, RatFunc, parse_ratfunc
from vertexalg.constructions import (
    a_orbifold_w,
    affine,
    as_diagonal_sp_action,
    as_mixed_generators,
    bc_system,
    beta_gamma,
    deformable_form,
    heisenberg,
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
    symplectic_fermion,
    tau_embedding,
    virasoro_test,
)
from vertexalg.fock import FockOracle
from vertexalg.lie import builtin_lie
from vertexalg.linear import (
    commutant_basis,
    decoupling_multiplier,
    graded_dimensions,
    nongeneric_levels,
    solve,
    verify_commutant,
    verify_invariant,
    weight_basis,
)

K = RatFunc.param()


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_sugawara_central_charges():
    t0 = time.time()
    details = []
    ok = True
    for name, c_text in [
        ("sl2", "(3*k)/(k + 2)"),
        ("osp(1|2)", "(2*k)/(2*k + 3)"),
        ("sl3", "(8*k)/(k + 3)"),
    ]:
        start = time.time()
        P = affine(builtin_lie(name), K)
        L = sugawara(P)
        good, c = virasoro_test(L)
        good = good and c == parse_ratfunc(c_text)
        elapsed = time.time() - start
        good = good and elapsed < 10
        ok = ok and good
        details.append(f"{name}: c = {c} [{elapsed:.2f}s]")
    report(1, ok, "; ".join(details))


def test_criterion_2_section8_relations():
    t0 = time.time()
    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    H, Xp, Xm, b, c = (P.gen(n) for n in ["H", "Xp", "Xm", "b", "c"])
    ok = True
    for i in range(3):
        lhs = (P.gen("Xp", i).no(b)).no(Xm.no(c))
        rhs = (
            H.no(P.gen("b", i + 1).no(c)) * RatFunc.const(Fraction(2 * (-1) ** i, i + 1))
            + P.gen("Xp", i).no(Xm.no(b.no(c)))
            + P.gen("Xp", i + 1).no(Xm)
            + P.gen("b", i + 2).no(c) * (K * RatFunc.const(Fraction((-1) ** i, i + 2)))
        )
        ok = ok and (lhs - rhs).is_zero()
        ok = ok and ((P.gen("Xp", i).no(b)).no(b.no(c)) + P.gen("Xp", i + 1).no(b)).is_zero()
        ok = ok and ((P.gen("Xm", i).no(c)).no(b.no(c)) - P.gen("Xm", i + 1).no(c)).is_zero()
        # :(:d^i b c:)(:bc:): = ((i+2)/(i+1)) :(d^{i+1} b) c: modulo the image of d
        resid = (P.gen("b", i).no(c)).no(b.no(c)) - P.gen("b", i + 1).no(c) * RatFunc.const(
            Fraction(i + 2, i + 1)
        )
        wb = weight_basis(P, Fraction(i + 1))
        cols = [P.derivative(P.element({M: 1})) for M in wb.monomials]
        rows = {}
        for ci, el in enumerate(cols):
            for M, cc in el.data.items():
                rows.setdefault(M, {})[ci] = cc
        for M in resid.data:
            rows.setdefault(M, {})
        mat, rhs_v = [], []
        for M in sorted(rows):
            mat.append(rows[M])
            rhs_v.append(resid.data.get(M, RF_ZERO))
        ok = ok and solve(mat, rhs_v, len(cols))[0] is not None
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(2, ok, f"four relation families hold exactly for i = 0, 1, 2; "
                  f"k-term sign is (-1)^i k/(i+2) [{elapsed:.1f}s]")


def test_criterion_3_n2_structure():
    t0 = time.time()
    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    g = n2_coset_generators(P)
    ok = True
    for el in [g["F"], g["L"], g["Gp"], g["Gm"]]:
        ok = ok and P.lambda_bracket(g["J"], el).is_zero()
    good, c = virasoro_test(g["L"])
    ok = ok and good and c == parse_ratfunc("(3*k)/(k + 2)")
    for el, want in [(g["F"], "1"), (g["Gp"], "3/2"), (g["Gm"], "3/2")]:
        okp, d = primary_test(g["L"], el)
        ok = ok and okp and d == parse_ratfunc(want)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(3, ok, f"[J, {{F, L, G+, G-}}] = 0; c(L) = {c}; "
                  f"primary weights (1, 3/2, 3/2) [{elapsed:.1f}s]")


def test_criterion_4_osp_coset():
    t0 = time.time()
    P = affine(builtin_lie("osp(1|2)"), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    solve = commutant_basis(P, currents, 2)
    ok = solve.kernel_dim == 1
    L = osp_coset_virasoro(P)
    ok = ok and verify_commutant(P, L, currents)
    good, c = virasoro_test(L)
    ok = ok and good and c == parse_ratfunc("(-4*k^2 - 5*k)/(2*k^2 + 7*k + 6)")
    rep4 = decoupling_multiplier(
        P, currents, [L], 4, target_shape=odd_pair_shape(P, "phip", "phim", 1)
    )
    ok = ok and set(rep4.roots) == {Fraction(-4)} and rep4.relation.verify()
    rep6 = decoupling_multiplier(
        P, currents, [L], 6, target_shape=odd_pair_shape(P, "phip", "phim", 2)
    )
    ok = ok and set(rep6.roots) == {Fraction(-4), Fraction(-8, 3)}
    ok = ok and rep6.relation.verify()
    ok = ok and rep4.poles == {Fraction(-2), Fraction(-3, 2)}
    ok = ok and rep6.poles == {Fraction(-2), Fraction(-3, 2)}
    elapsed = time.time() - t0
    ok = ok and elapsed < 1800
    report(4, ok, f"weight-2 dim 1 with c = {c}; weight-4 roots {sorted(rep4.roots)}; "
                  f"weight-6 roots {sorted(rep6.roots)}; poles {sorted(rep6.poles)} "
                  f"[{elapsed:.1f}s]")


def test_criterion_5_sl3_parafermion_limit():
    t0 = time.time()
    H6 = heisenberg_pairs(3)
    fns = parafermion_sl3_generators(H6)
    q, qbar, c, cbar = fns["q"], fns["qbar"], fns["c"], fns["cbar"]
    ok = True
    for idx in (1, 2):
        coeff = RatFunc.const(Fraction(-idx, 2 * idx + 4))
        ok = ok and (q(0, 0, 0).no(c(idx, 0, 0)) - q(0, idx, 0).no(c(0, 0, 0))
                     - c(idx + 2, 0, 0) * coeff).is_zero()
        ok = ok and (q(1, 0, 0).no(c(0, idx, 0)) - q(1, idx, 0).no(c(0, 0, 0))
                     - c(0, idx + 2, 0) * coeff).is_zero()
        ok = ok and (qbar(2, 0, 0).no(c(0, 0, idx)) - qbar(2, idx, 0).no(c(0, 0, 0))
                     - c(0, 0, idx + 2) * coeff).is_zero()
        ok = ok and (qbar(0, 0, 0).no(cbar(idx, 0, 0)) - qbar(0, idx, 0).no(cbar(0, 0, 0))
                     - cbar(idx + 2, 0, 0) * coeff).is_zero()
        ok = ok and (qbar(1, 0, 0).no(cbar(0, idx, 0)) - qbar(1, idx, 0).no(cbar(0, 0, 0))
                     - cbar(0, idx + 2, 0) * coeff).is_zero()
        ok = ok and (q(2, 0, 0).no(cbar(0, 0, idx)) - q(2, idx, 0).no(cbar(0, 0, 0))
                     - cbar(0, 0, idx + 2) * coeff).is_zero()
    ok = ok and (H6.derivative(c(0, 0, 0)) - c(1, 0, 0) - c(0, 1, 0) - c(0, 0, 1)).is_zero()
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(5, ok, f"six decoupling families at indices 1, 2 with coefficient "
                  f"-i/(2i+4); derivative identity [{elapsed:.1f}s]")


def test_criterion_6_parafermion_sl2():
    t0 = time.time()
    P = affine(builtin_lie("sl2"), K)
    H = P.gen("H")
    table = graded_dimensions(P, [H], 5, w_min=2)
    want = {Fraction(2): 1, Fraction(3): 2, Fraction(4): 4, Fraction(5): 6}
    ok = table == want
    ng = nongeneric_levels(commutant_basis(P, [H], 2))
    ok = ok and set(ng.certified) == {Fraction(0)} and not ng.candidates
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    report(6, ok, f"graded dimensions {tuple(table[Fraction(w)] for w in (2, 3, 4, 5))} "
                  f"at weights (2, 3, 4, 5); weight-2 nongeneric set {{0}} [{elapsed:.1f}s]")


def test_criterion_7_free_orbifold_membership():
    t0 = time.time()
    tau = tau_embedding(1)
    S1 = tau.target
    ok = True
    for kk in (0, 1, 2):
        ok = ok and verify_invariant(S1, s_orbifold_w(S1, 1, kk), tau.images)
    AS = symplectic_fermion(1).tensor(beta_gamma(1))
    actions, _ = as_diagonal_sp_action(AS, 1)
    gens = as_mixed_generators(AS, 1)
    for el in [gens["mu"][0], gens["j"][0], gens["w"][0]]:
        ok = ok and verify_invariant(AS, el, actions)
    good, c = virasoro_test(-gens["j"][0] + gens["w"][0])
    ok = ok and good and c == RatFunc.const(-3)
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    report(7, ok, f"w~^1,3,5 and mu^0, j^0, w^1 are invariants; "
                  f"virasoro(-j0 + w1) c = {c} [{elapsed:.1f}s]")


def test_criterion_8_deformable_limits():
    t0 = time.time()
    ok = True
    for name in ("sl2", "osp(1|2)"):
        P = affine(builtin_lie(name), K)
        D = deformable_form(P)
        Lm = limit_presentation(D)
        ok = ok and Lm.check().ok
        lie = P.metadata["lie"]
        for i in range(lie.dim):
            for j in range(lie.dim):
                br = Lm.lambda_bracket(Lm.gen(i), Lm.gen(j))
                want = Lm.vacuum(RatFunc.const(lie.form[i][j])) if lie.form[i][j] else Lm.zero()
                ok = ok and br.c(0).is_zero() and br.c(1) == want and br.order() <= 2
    rng = random.Random(20240517)
    D = deformable_form(affine(builtin_lie("sl2"), K))
    Lm = limit_presentation(D)

    def rand_elem():
        out = D.zero()
        for _ in range(rng.randint(1, 3)):
            w = rng.randint(1, 4)
            basis = weight_basis(D, w).monomials
            out = out + D.element({basis[rng.randrange(len(basis))]: rng.randint(-3, 3)})
        return out

    for _ in range(20):
        x, y = rand_elem(), rand_elem()
        n = rng.randint(-1, 2)
        lhs = limit_element(D.nprod(x, y, n), Lm)
        rhs = Lm.nprod(limit_element(x, Lm), limit_element(y, Lm), n)
        ok = ok and lhs == rhs
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(8, ok, f"limits pass presentation checks with Gram-matrix brackets; "
                  f"psi respects products on 20 random pairs [{elapsed:.1f}s]")


def test_criterion_9_property_suites():
    t0 = time.time()
    ok = True
    k = K
    catalog = [
        heisenberg(1), heisenberg(2), bc_system(1), beta_gamma(1),
        symplectic_fermion(1), heisenberg_pairs(1),
        affine(builtin_lie("sl2"), k), affine(builtin_lie("sp2"), k),
        affine(builtin_lie("osp(1|2)"), k), affine(builtin_lie("sl3"), k),
        affine(builtin_lie("gl(1)"), k),
        affine(builtin_lie("sl2"), k).tensor(bc_system(1)),
        deformable_form(affine(builtin_lie("sl2"), k)),
        limit_presentation(deformable_form(affine(builtin_lie("osp(1|2)"), k))),
    ]
    failed = [P.name for P in catalog if not P.check().ok]
    ok = ok and not failed
    # Fock oracle on products with total weight up to 6 runs in test_fock.py;
    # spot-check a weight-6 slice here so this criterion stays self-contained
    for build in (heisenberg, bc_system, beta_gamma, symplectic_fermion):
        P = build(1)
        oracle = FockOracle(P)
        step = P.weight_step()
        monos3 = weight_basis(P, 3).monomials
        for M in monos3[:6]:
            for N in monos3[:6]:
                for n in range(-1, 7):
                    ok = ok and oracle.check_product(M, N, n)
    # solver determinism and evaluation consistency at 3 random levels
    P = affine(builtin_lie("sl2"), k)
    s1 = commutant_basis(P, [P.gen("H")], 3).serialize()
    s2 = commutant_basis(P, [P.gen("H")], 3).serialize()
    ok = ok and s1 == s2
    solve = commutant_basis(P, [P.gen("H")], 3)
    ng = nongeneric_levels(solve)
    excluded = set(ng.certified) | ng.candidates | ng.poles
    rng = random.Random(77)
    found = 0
    while found < 3:
        k0 = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        if k0 in excluded:
            continue
        ok = ok and solve.kernel_dim_at(k0) == solve.kernel_dim
        found += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 900
    detail = "skew/Jacobi pass on all builtin presentations"
    if failed:
        detail = f"presentation checks failed: {failed}"
    report(9, ok, f"{detail}; Fock oracle agrees; solver deterministic; "
                  f"evaluation consistent at 3 random levels [{elapsed:.1f}s]")
