"""The rewriting engine: products, brackets, gradings, presentation checks."""

import copy
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from vertexalg.coefficients import RF_ONE, RatFunc
from vertexalg.constructions import (
    affine,
    bc_system,
    beta_gamma,
    heisenberg,
    heisenberg_pairs,
    parafermion_sl3_generators,
    sugawara,
    symplectic_fermion,
)
from vertexalg.core import (
    Generator,
    MixedPresentationError,
    NotHomogeneousError,
    VAPresentation,
)
from vertexalg.lie import builtin_lie
from vertexalg.linear import commutant_basis, find_relation, weight_basis

K = RatFunc.param()


def test_derivative_vacuum():
    H = heisenberg(1)
    assert H.derivative(H.vacuum()).is_zero()


def test_derivative_leibniz_bc():
    E = bc_system(1)
    b, c = E.gen("b"), E.gen("c")
    lhs = E.derivative(b.no(c))
    rhs = E.gen("b", 1).no(c) + b.no(E.gen("c", 1))
    assert lhs == rhs


def test_derivative_cubic_heisenberg_pairs():
    # d c_{0,0,0} = c_{1,0,0} + c_{0,1,0} + c_{0,0,1} in the sl3 limit algebra
    H6 = heisenberg_pairs(3)
    fns = parafermion_sl3_generators(H6)
    c = fns["c"]
    assert H6.derivative(c(0, 0, 0)) == c(1, 0, 0) + c(0, 1, 0) + c(0, 0, 1)


def test_heisenberg_products():
    H = heisenberg(1)
    a = H.gen(0)
    assert H.nprod(a, a, 1) == H.vacuum()
    assert H.nprod(a, a, 0).is_zero()


def test_bc_products():
    E = bc_system(1)
    b, c = E.gen("b"), E.gen("c")
    assert E.nprod(b, c, 0) == E.vacuum()
    assert E.nprod(b, c, 1).is_zero()
    assert (b.no(c) + c.no(b)).is_zero()


def test_cross_factor_products_vanish():
    P = heisenberg(1).tensor(bc_system(1))
    a = P.gen(0)
    b = P.gen(1)
    for n in range(0, 4):
        assert P.nprod(a, b, n).is_zero()


def test_negative_products_are_derivatives():
    H = heisenberg(1)
    a = H.gen(0)
    # a_(-k-1) vacuum-side: :(d^k a / k!) b:
    lhs = H.nprod(a, a, -3)
    rhs = H.gen(0, 2).no(a) * RatFunc.const(Fraction(1, 2))
    assert lhs == rhs


def test_deep_negative_product_needs_no_deep_recursion():
    # (D^d a)_(n) b is reduced to a_(n-d) b in one step, not d nested calls
    H = heisenberg(1)
    a = H.gen(0)
    assert H.nprod(a, a, -1000).data == {
        ((0, 0), (0, 999)): RatFunc.const(Fraction(1, factorial(999)))
    }


def test_lambda_bracket_heisenberg():
    H = heisenberg(1)
    br = H.lambda_bracket(H.gen(0), H.gen(0))
    assert br.c(0).is_zero() and br.c(1) == H.vacuum() and br.order() == 2


def test_sugawara_primary_bracket():
    P = affine(builtin_lie("sl2"), K)
    L = sugawara(P)
    Xp = P.gen("Xp")
    br = P.lambda_bracket(L, Xp)
    assert br.c(0) == P.derivative(Xp)
    assert br.c(1) == Xp
    assert br.order() == 2


def test_commuting_subalgebras_zero_bracket():
    P = heisenberg(1).tensor(heisenberg(1))
    assert P.lambda_bracket(P.gen(0), P.gen(1)).is_zero()


def test_normal_order_examples():
    H = heisenberg(1)
    a = H.gen(0)
    aa = a.no(a)
    assert set(aa.data) == {((0, 0), (0, 0))}
    E = bc_system(1)
    assert E.gen("b").no(E.gen("b")).is_zero()


def test_odd_square_is_half_the_derivative_of_the_bracket():
    # :aa: = (1/2) D(a_(0) a) for an odd a; in a free field algebra a_(0) a
    # vanishes, so only a non-abelian odd bracket sees the 1/2 in _insert
    P = affine(builtin_lie("osp(1|2)"), K)
    half = RatFunc.const(Fraction(1, 2))
    for odd, even, quarter in (("phip", "Xp", Fraction(1, 4)), ("phim", "Xm", Fraction(-1, 4))):
        a = P.gen(odd)
        square = P.nprod(a, a, -1)
        assert square == P.derivative(P.nprod(a, a, 0)) * half
        assert square == P.gen(even, 1) * RatFunc.const(quarter)


def test_section8_i1_relation():
    # :(:dXp b:)(:bc:): = -:d^2 Xp b:
    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    b, c = P.gen("b"), P.gen("c")
    lhs = (P.gen("Xp", 1).no(b)).no(b.no(c))
    assert lhs == -(P.gen("Xp", 2).no(b))


def test_weights_and_parities():
    P = affine(builtin_lie("sl2"), K)
    x = P.gen("Xp").no(P.gen("Xm")) + P.derivative(P.gen("H"))
    assert P.weight_of(x) == 2
    with pytest.raises(NotHomogeneousError):
        P.weight_of(P.gen("H") + x)
    S = beta_gamma(1)
    assert S.weight_of(S.gen("beta")) == Fraction(1, 2)
    w3 = S.gen("beta").no(S.gen("gamma", 3)) - S.gen("beta", 3).no(S.gen("gamma"))
    assert S.weight_of(w3) == 4


def _at_level(P0, x, k0):
    """x with k specialized to k0, as an element of P0 = the algebra at level k0."""
    return P0.element({M: c.evaluate(k0) for M, c in x.data.items()})


def test_evaluate_level_commutes_with_products():
    rng = random.Random(41)
    k0 = Fraction(3, 2)
    P = affine(builtin_lie("sl2"), K)
    P0 = affine(builtin_lie("sl2"), RatFunc.const(k0))
    for _ in range(10):
        x = _random_element(P, rng, max_weight=3)
        y = _random_element(P, rng, max_weight=3)
        n = rng.randint(-1, 2)
        lhs = _at_level(P0, P.nprod(x, y, n), k0)
        rhs = P0.nprod(_at_level(P0, x, k0), _at_level(P0, y, k0), n)
        assert lhs == rhs


def test_tensor_of_heisenbergs_is_h2():
    P = heisenberg(1).tensor(heisenberg(1))
    Q = heisenberg(2)
    assert P.ngen == Q.ngen
    for i in range(2):
        for j in range(2):
            assert P.table.get((i, j)) == Q.table.get((i, j))


def test_tensor_with_trivial_identity():
    P = heisenberg(2)
    T = P.tensor(VAPresentation([], {}))
    assert T.ngen == P.ngen and T.table == P.table


def test_tensor_tag_mismatch():
    P = heisenberg(1)
    Q = VAPresentation(P.generators, P.table, param="kappa")
    with pytest.raises(Exception, match="tag"):
        P.tensor(Q)


def test_mixed_presentation_error():
    P = heisenberg(1)
    Q = heisenberg(1)
    with pytest.raises(MixedPresentationError):
        P.nprod(P.gen(0), Q.gen(0), 0)


def test_check_presentation_builtins():
    for P in [heisenberg(2), bc_system(1), beta_gamma(1), symplectic_fermion(1)]:
        assert P.check().ok
    assert affine(builtin_lie("sl2"), K).check().ok


def test_check_presentation_odd_odd_jacobi():
    assert affine(builtin_lie("osp(1|2)"), K).check().ok


def test_check_presentation_detects_sign_error():
    # beta-gamma with both first-order brackets +1 breaks skew-symmetry
    gens = [Generator(0, "beta", 0, Fraction(1, 2)), Generator(1, "gamma", 0, Fraction(1, 2))]
    table = {(0, 1): ({(): RF_ONE},), (1, 0): ({(): RF_ONE},)}
    bad = VAPresentation(gens, table, name="bad-bg")
    assert bad.check().failures == [("skew", ("beta", "gamma")), ("skew", ("gamma", "beta"))]


def test_check_presentation_detects_jacobi_error():
    # [Xp_lambda Xm] = 3H + lambda k and [Xm_lambda Xp] = -3H + lambda k keep
    # skew-symmetry but break Jacobi on every triple of distinct generators
    P = affine(builtin_lie("sl2"), K)
    table = dict(P.table)
    table[(1, 2)] = ({((0, 0),): RatFunc.const(3)}, {(): K})
    table[(2, 1)] = ({((0, 0),): RatFunc.const(-3)}, {(): K})
    bad = VAPresentation(P.generators, table, name="bad-sl2")
    assert bad.check().failures == [
        ("jacobi", ("H", "Xp", "Xm", 1, 0)),
        ("jacobi", ("H", "Xm", "Xp", 1, 0)),
        ("jacobi", ("Xp", "H", "Xm", 0, 1)),
        ("jacobi", ("Xp", "Xm", "H", 0, 1)),
        ("jacobi", ("Xm", "H", "Xp", 0, 1)),
        ("jacobi", ("Xm", "Xp", "H", 0, 1)),
    ]


def test_check_presentation_detects_ungraded_entries():
    # [Xp_lambda Xm] = H + k at lambda^0 mixes weights 1 and 0; a lambda^2
    # term of a Heisenberg bracket would need weight -2
    P = affine(builtin_lie("sl2"), K)
    table = dict(P.table)
    table[(1, 2)] = ({((0, 0),): RF_ONE, (): K},) + P.table[(1, 2)][1:]
    failures = VAPresentation(P.generators, table, name="ungraded-sl2").check().failures
    assert failures[0] == ("grading", ("Xp", "Xm", 0))
    assert [f for f in failures if f[0] == "grading"] == [failures[0]]
    P = heisenberg(1)
    table = {(0, 0): P.table[(0, 0)] + ({(): RF_ONE},)}
    failures = VAPresentation(P.generators, table, name="ungraded-h").check().failures
    assert failures == [("grading", ("a1", "a1", 2))]


def _reference_check_failures(P):
    """Skew-symmetry and Jacobi as check() once did them, on Elements.

    Jacobi tries every (m, n) in [0, floor(wa + wb + wc)]^2, with no grading
    argument, so it is an independent reference for the restricted range.
    """
    ids = range(P.ngen)
    gens = [P.gen(i) for i in ids]
    names = [g.name for g in P.generators]
    br = {(i, j): P.lambda_bracket(gens[i], gens[j]) for i in ids for j in ids}
    failures = []
    for i in ids:
        for j in ids:
            ab, ba = br[i, j], br[j, i]
            sign = -1 if (P.gen_parity(i) and P.gen_parity(j)) else 1
            for n in range(max(ab.order(), ba.order())):
                expected = P.zero()
                for t in range(ab.order() - n):
                    term = P.nprod(ab.c(n + t), P.vacuum(), -t - 1)
                    expected = expected + term * ((-1) ** (n + t) * -sign)
                if ba.c(n) != expected:
                    failures.append(("skew", (names[i], names[j])))
                    break
    for i in ids:
        for j in ids:
            for k in ids:
                a, b, c = gens[i], gens[j], gens[k]
                ab, ac, bc = br[i, j], br[i, k], br[j, k]
                sign = -1 if (P.gen_parity(i) and P.gen_parity(j)) else 1
                top = int(P.gen_weight(i) + P.gen_weight(j) + P.gen_weight(k))
                bad = next(
                    ((m, n) for m in range(top + 1) for n in range(top + 1)
                     if P.nprod(a, bc.c(n), m) - P.nprod(b, ac.c(m), n) * sign
                     != sum((P.nprod(ab.c(t), c, m + n - t) * comb(m, t)
                             for t in range(m + 1)), P.zero())),
                    None)
                if bad is not None:
                    failures.append(("jacobi", (names[i], names[j], names[k]) + bad))
    return failures


def test_check_matches_full_range_reference_on_tampered_tables():
    # one coefficient of a graded table shifted by +-1 or +-2 keeps the
    # grading, so check() must report exactly what the full (m, n) range finds
    rng = random.Random(59)
    broken = 0
    for t in range(24):
        P = affine(builtin_lie(("sl2", "osp(1|2)", "sl3")[t % 3]), K)
        table = {key: [dict(cn) for cn in cs] for key, cs in P.table.items()}
        key = rng.choice(sorted(table))
        n = rng.choice([n for n, cn in enumerate(table[key]) if cn])
        M = rng.choice(sorted(table[key][n]))
        table[key][n][M] += rng.choice((-2, -1, 1, 2))
        if not table[key][n][M]:
            del table[key][n][M]
        failures = VAPresentation(P.generators, table, name="tampered").check().failures
        reference = _reference_check_failures(VAPresentation(P.generators, table))
        assert failures == reference, (key, n, M)
        broken += bool(failures)
    assert broken >= 20


def test_divided_powers():
    # one call to derivative(x, t) is t single derivatives
    for P in (affine(builtin_lie("sl2"), K), affine(builtin_lie("osp(1|2)"), K),
              beta_gamma(1)):
        rng = random.Random(41)
        for _ in range(6):
            x = _random_element(P, rng, max_weight=2)
            t = rng.randint(0, 6)
            step = x
            for _ in range(t):
                step = P.derivative(step)
            assert P.derivative(x, t) == step == x.deriv(t)
            assert x.deriv(0) == x
    # the powers are built bottom-up, so a high order needs no deep recursion
    assert heisenberg(1).gen(0).deriv(1000).data == {((0, 1000),): RF_ONE}


def test_derivation_rule():
    # (da)_(n) b = -n a_(n-1) b for 0 <= n <= 5
    P = affine(builtin_lie("sl2"), K)
    rng = random.Random(17)
    for _ in range(8):
        a = _random_element(P, rng, max_weight=2)
        b = _random_element(P, rng, max_weight=2)
        da = P.derivative(a)
        for n in range(0, 6):
            lhs = P.nprod(da, b, n)
            rhs = P.nprod(a, b, n - 1) * RatFunc.const(-n)
            assert lhs == rhs


def test_weight_additivity():
    P = affine(builtin_lie("osp(1|2)"), K)
    rng = random.Random(23)
    for _ in range(10):
        wa = rng.randint(1, 3)
        wb = rng.randint(1, 3)
        Ma = rng.choice(weight_basis(P, wa).monomials)
        Mb = rng.choice(weight_basis(P, wb).monomials)
        a, b = P.element({Ma: 1}), P.element({Mb: 1})
        for n in range(-1, wa + wb):
            out = P.nprod(a, b, n)
            if not out.is_zero():
                assert P.weight_of(out) == wa + wb - n - 1


def test_canonicality_fixed_point():
    # re-parsing the printed canonical form reproduces the element, and all
    # monomials in any product are canonically sorted
    from vertexalg.expressions import format_element, parse_element

    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    rng = random.Random(29)
    for _ in range(10):
        x = _random_element(P, rng, max_weight=3)
        y = _random_element(P, rng, max_weight=2)
        out = x.no(y)
        for M in out.data:
            assert list(M) == sorted(M)
        assert parse_element(P, format_element(out)) == out


def test_bilinearity():
    P = beta_gamma(1)
    rng = random.Random(31)
    a = _random_element(P, rng, max_weight=2)
    b = _random_element(P, rng, max_weight=2)
    c = _random_element(P, rng, max_weight=2)
    s = RatFunc.const(Fraction(3, 7))
    for n in (-1, 0, 1):
        assert P.nprod(a + b * s, c, n) == P.nprod(a, c, n) + P.nprod(b, c, n) * s
        assert P.nprod(c, a + b * s, n) == P.nprod(c, a, n) + P.nprod(c, b, n) * s


def test_skew_symmetry_on_random_elements():
    P = affine(builtin_lie("sl2"), K)
    rng = random.Random(37)
    from math import factorial

    for _ in range(6):
        a = _random_element(P, rng, max_weight=2)
        b = _random_element(P, rng, max_weight=2)
        if a.is_zero() or b.is_zero():
            continue
        wa, wb = P.weight_of(a), P.weight_of(b)
        pa, pb = P.parity_of(a), P.parity_of(b)
        sign = -1 if (pa and pb) else 1
        for n in range(0, int(wa + wb) + 1):
            expected = P.zero()
            jj = 0
            while wa + wb - (n + jj) - 1 >= 0:
                term = P.nprod(a, b, n + jj)
                for _ in range(jj):
                    term = P.derivative(term)
                expected = expected + term * RatFunc.const(
                    Fraction((-1) ** (n + jj), factorial(jj)) * (-sign)
                )
                jj += 1
            assert P.nprod(b, a, n) == expected


def test_jacobi_on_random_triples():
    # commutator formula a_(m)(b_(n)c) - (-1)^{pq} b_(n)(a_(m)c)
    #   = sum_i C(m,i) (a_(i)b)_(m+n-i) c
    for P, trials, max_w in [
        (beta_gamma(1), 50, Fraction(5, 2)),
        (affine(builtin_lie("sl2"), K), 50, 2),
    ]:
        rng = random.Random(43)
        done = 0
        while done < trials:
            a = _random_element(P, rng, max_weight=max_w, max_len=2)
            b = _random_element(P, rng, max_weight=max_w, max_len=2)
            c = _random_element(P, rng, max_weight=max_w, max_len=2)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            pa, pb = P.parity_of(a), P.parity_of(b)
            sign = -1 if (pa and pb) else 1
            for m in range(0, 3):
                for n in range(0, 3):
                    lhs = P.nprod(a, P.nprod(b, c, n), m) - P.nprod(
                        b, P.nprod(a, c, m), n
                    ) * RatFunc.const(sign)
                    rhs = P.zero()
                    for i in range(m + 1):
                        rhs = rhs + P.nprod(P.nprod(a, b, i), c, m + n - i) * RatFunc.const(
                            comb(m, i)
                        )
                    assert lhs == rhs
            done += 1


def test_scalars_are_exact():
    # the one coercion into Q(k) takes int, Fraction and RatFunc, never floats
    P = heisenberg(1)
    a1 = ((0, 0),)
    for make in (
        lambda: RatFunc.const(0.1),
        lambda: RatFunc.const(1) + 0.1,
        lambda: P.gen(0) * 0.1,
        lambda: P.element({a1: 0.1}),
        lambda: P.vacuum(0.5),
        lambda: affine(builtin_lie("sl2"), 0.1),
    ):
        with pytest.raises(TypeError):
            make()
    half = Fraction(1, 2)
    assert P.gen(0) * half == P.element({a1: half}) == P.element({a1: RatFunc.const(half)})
    assert P.vacuum(2) == P.vacuum(RatFunc.const(2)) == P.element({(): 2})
    assert affine(builtin_lie("sl2"), 2).metadata["level"] == RatFunc.const(2)


def test_memoized_products_are_never_mutated():
    # _prod hands out its memo entries without copying them
    for name, cartan in (("sl3", "H1"), ("osp(1|2)", "H")):
        P = affine(builtin_lie(name), K)
        gens = [P.gen(i) for i in range(P.ngen)]
        L = sugawara(P)
        composite = gens[0].no(gens[1].no(gens[-1]))
        for x in gens + [L]:
            for y in gens:
                P.lambda_bracket(x, y)
                P.normal_order(y, x)
        L.deriv(4)
        composite.deriv(4)
        assert P.check().ok
        before = copy.deepcopy(P._memo)
        H = P.gen(cartan)
        assert commutant_basis(P, [H], 3).kernel_dim > 0
        assert find_relation(P, P.derivative(L).no(H), [L, H]).verify()
        rng = random.Random(3)
        monos = weight_basis(P, 2).monomials
        for _ in range(30):
            x = P.element({rng.choice(monos): 1})
            P.lambda_bracket(x, P.element({rng.choice(monos): K}))
        assert L.deriv(4) == L.deriv(2).deriv(2)
        assert composite.deriv(5) == composite.deriv(4).deriv()
        assert len(P._memo) > len(before)
        assert all(P._memo[key] == value for key, value in before.items())
        assert all(type(value) is tuple and all(len(pair) == 2 for pair in value)
                   for value in P._memo.values())


def test_memo_coefficients_are_interned():
    # one coefficient object per distinct value across the whole memo, and
    # every zero product is the shared empty tuple
    P = affine(builtin_lie("osp(1|2)"), K)
    commutant_basis(P, [P.gen("H"), P.gen("Xp"), P.gen("Xm")], 4)
    coeffs = [c for value in P._memo.values() for _, c in value]
    distinct = set(coeffs)
    assert len(coeffs) > len(distinct) > 1
    assert len({id(c) for c in coeffs}) == len(distinct)
    assert all(coeffs)
    zeros = [value for value in P._memo.values() if not value]
    assert zeros and all(type(value) is tuple for value in zeros)
    assert len({id(value) for value in zeros}) == 1


def _random_element(P, rng, max_weight=3, max_len=None):
    """Random weight- and parity-homogeneous element (possibly zero)."""
    steps = int(Fraction(max_weight) / P.weight_step())
    w = P.weight_step() * rng.randint(1, steps)
    monos = weight_basis(P, w).monomials
    if max_len is not None:
        monos = [M for M in monos if len(M) <= max_len]
    if not monos:
        return P.zero()
    parity = P.mono_parity(monos[rng.randrange(len(monos))])
    monos = [M for M in monos if P.mono_parity(M) == parity]
    out = P.zero()
    for _ in range(rng.randint(1, 2)):
        M = monos[rng.randrange(len(monos))]
        out = out + P.element({M: rng.randint(-2, 2)})
    return out
