"""Field arithmetic in Q(k): canonical forms, evaluation, limits, roots."""

import copy
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from vertexalg import coefficients
from vertexalg.coefficients import (
    RF_ONE,
    DivergesAtInfinity,
    EvaluationAtPole,
    RatFunc,
    ZeroDenominator,
    format_ratfunc,
    padd,
    parse_ratfunc,
    pgcd,
    pmul,
    pneg,
    qsolve,
    rank_mod_p,
    rational_roots,
    zgcd,
)

K = RatFunc.param()


def rf(text):
    return parse_ratfunc(text)


def parse_poly(text):
    """A polynomial's Fraction coefficients, low degree first."""
    return parse_ratfunc(text).num


def test_lambda2_literal():
    # the weight-4 decoupling multiplier of the osp coset, used as a literal
    lam2 = -(K + 4) / (K + RatFunc.const(Fraction(3, 2)))
    assert str(lam2) == "(-1*k - 4)/(k + 3/2)"
    assert lam2 == rf("(-1*k - 4)/(k + 3/2)")


def test_sub_self_is_zero():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_ratfunc(rng)
        assert not (f - f)


def test_gcd_canonicalization():
    f = (K * K - 4) / (K + 2)
    assert f == K - 2
    assert str(f) == "(k - 2)"
    # denominators sharing k: the sum's numerator cancels k as well
    one = RatFunc.const(1)
    g = one / (K * (K + 1)) - RatFunc.const(2) / (K * (K + 2))
    assert g == -one / ((K + 1) * (K + 2))
    _assert_canonical(g)


def test_division_by_zero():
    with pytest.raises(ZeroDenominator):
        K / RatFunc.const(0)


def test_constructor_strips_trailing_zeros():
    zero = RatFunc((Fraction(0), Fraction(0)))
    assert not zero and zero == RatFunc.const(0)
    one = RatFunc((Fraction(1), Fraction(0)))
    assert one == RF_ONE and one.is_constant()
    assert RatFunc((Fraction(1),), (Fraction(2), Fraction(0))) == RatFunc.const(Fraction(1, 2))
    with pytest.raises(ZeroDenominator):
        RatFunc((Fraction(1),), (Fraction(0), Fraction(0)))


def test_evaluate():
    c = (3 * K) / (K + 2)
    assert c.evaluate(1) == 1
    assert RatFunc.const(0).evaluate(Fraction(7, 3)) == 0
    lam2 = rf("(-1*k - 4)/(k + 3/2)")
    assert lam2.evaluate(-4) == 0
    with pytest.raises(EvaluationAtPole) as err:
        c.evaluate(-2)
    assert err.value.root == -2


def test_limit_at_infinity():
    lam2 = rf("(-1*k - 4)/(k + 3/2)")
    assert lam2.limit_at_infinity() == -1
    assert (RatFunc.const(1) / (K + 2)).limit_at_infinity() == 0
    f = rf("(2*k^2 + 4*k)/(2*k^2 + 7*k + 6)")
    assert f.limit_at_infinity() == 1
    with pytest.raises(DivergesAtInfinity):
        (K * K / (K + 1)).limit_at_infinity()


def test_rational_roots():
    roots, cofactor = rational_roots(parse_poly("(k+4)*(k+8/3)"))
    assert roots == {Fraction(-4): 1, Fraction(-8, 3): 1}
    assert cofactor == (Fraction(1),)
    roots, _ = rational_roots(parse_poly("k"))
    assert roots == {Fraction(0): 1}
    roots, cofactor = rational_roots(parse_poly("k^2 - 2"))
    assert roots == {}
    assert cofactor == parse_poly("k^2 - 2")
    with pytest.raises(Exception):
        rational_roots(())


def test_rational_roots_large_constant_term():
    # trial division of the constant term would take hours at 21 digits
    cases = [
        ("7*k^3 + k + 300000000000000000000", {},
         "k^3 + 1/7*k + 300000000000000000000/7"),
        ("(3*k - 100000000000000000007)*(k^2 + 1)",
         {Fraction(100000000000000000007, 3): 1}, "k^2 + 1"),
        ("(k - 10000000000)^2*(2*k + 3)",
         {Fraction(10000000000): 2, Fraction(-3, 2): 1}, "1"),
    ]
    for text, want_roots, want_cofactor in cases:
        t0 = time.perf_counter()
        roots, cofactor = rational_roots(parse_poly(text))
        assert time.perf_counter() - t0 < 1, text
        assert roots == want_roots, text
        assert cofactor == parse_poly(want_cofactor), text


@pytest.mark.parametrize("seed", range(4))
def test_rational_roots_planted(seed):
    # products of (b*k - a), a/b not reduced, times a root-free cofactor and
    # a rational scale; the same polynomial also as an int tuple
    rng = random.Random(seed)
    cofactors = [parse_poly("k^2 + 1"), parse_poly("k^2 - 2"), (Fraction(1),)]
    for _ in range(6):
        want, p = {}, (Fraction(1),)
        for _ in range(rng.randint(1, 3)):
            bound = 10 ** rng.choice((1, 3, 30))
            a, b = rng.randint(-bound, bound), rng.randint(1, bound)
            mult = rng.randint(1, 3)
            want[Fraction(a, b)] = want.get(Fraction(a, b), 0) + mult
            for _ in range(mult):
                p = pmul(p, (Fraction(-a), Fraction(b)))
        cofactor = rng.choice(cofactors)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        p = tuple(c * scale for c in pmul(p, cofactor))
        den = lcm(*(c.denominator for c in p))
        ints = tuple(int(c * den) for c in p)
        for q in (p, ints):
            t0 = time.perf_counter()
            roots, got = rational_roots(q)
            assert time.perf_counter() - t0 < 1, q
            assert roots == want, q
            assert got == cofactor and all(type(c) is Fraction for c in got), q


def test_round_trip_printing():
    rng = random.Random(5)
    for _ in range(40):
        f = _random_ratfunc(rng)
        assert parse_ratfunc(str(f)) == f
        # printing is deterministic
        assert str(f) == str(parse_ratfunc(format_ratfunc(f)))


def test_field_axioms_random():
    rng = random.Random(3)
    for _ in range(20):
        f, g = _random_ratfunc(rng), _random_ratfunc(rng)
        assert (f + g) - g == f
        assert f * g == g * f
        if g:
            assert (f / g) * g == f


def test_evaluate_is_homomorphism():
    rng = random.Random(9)
    for _ in range(20):
        f, g = _random_ratfunc(rng), _random_ratfunc(rng)
        for k0 in (Fraction(1), Fraction(5, 2), Fraction(-7, 3)):
            try:
                lhs = (f * g).evaluate(k0)
                assert lhs == f.evaluate(k0) * g.evaluate(k0)
                assert (f + g).evaluate(k0) == f.evaluate(k0) + g.evaluate(k0)
            except EvaluationAtPole:
                pass


def test_limit_is_multiplicative():
    rng = random.Random(13)
    for _ in range(20):
        f, g = _random_ratfunc(rng), _random_ratfunc(rng)
        try:
            lf, lg = f.limit_at_infinity(), g.limit_at_infinity()
        except DivergesAtInfinity:
            continue
        fg = f * g
        assert fg.limit_at_infinity() == lf * lg


def _random_ratfunc(rng):
    def rand_poly():
        deg = rng.randint(0, 3)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg + 1)]
        return coeffs

    num = rand_poly()
    den = rand_poly()
    while all(c == 0 for c in den):
        den = rand_poly()
    out = RatFunc.const(0)
    for i, c in enumerate(num):
        out = out + RatFunc.const(c) * _power(K, i)
    den_rf = RatFunc.const(0)
    for i, c in enumerate(den):
        den_rf = den_rf + RatFunc.const(c) * _power(K, i)
    return out / den_rf


def _power(x, n):
    out = RatFunc.const(1)
    for _ in range(n):
        out = out * x
    return out


# ---------------------------------------------------------------------------
# gcd over Z[k] against a test-local Euclid over Q


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        c = Fraction(p[-1]) / q[-1]
        for i, b in enumerate(q):
            p[len(p) - len(q) + i] -= c * b
        p = list(_trim(p))
    return tuple(p)


def _quo(p, q):
    """p / q over Q when q divides p."""
    p, out = list(p), [Fraction(0)] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = Fraction(p[i + len(q) - 1]) / q[-1]
        for j, b in enumerate(q):
            p[i + j] -= out[i] * b
    assert not any(p)
    return _trim(out)


def _monic(p):
    return tuple(Fraction(c) / p[-1] for c in p) if p else ()


def euclid_gcd(p, q):
    """Monic gcd over Q by Euclid's algorithm."""
    while q:
        p, q = q, _rem(p, q)
    return _monic(p)


def _random_factor(rng, big):
    deg = rng.randint(0, 3)
    bound = 10 ** 40 if big else 6
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    coeffs[-1] = coeffs[-1] or 1
    if not big and rng.random() < 0.5:
        coeffs = [Fraction(c, rng.randint(1, 5)) for c in coeffs]
    return tuple(Fraction(c) for c in coeffs)


def _gcd_pairs(seed, count=150):
    """Seeded pairs (g*a, g*b): Fraction and huge integer coefficients,
    repeated factors, negative leading coefficients, constants and zeros."""
    rng = random.Random(seed)
    for _ in range(count):
        big = rng.random() < 0.3
        g = _random_factor(rng, big)
        if rng.random() < 0.3:
            g = pmul(g, g)  # a repeated factor
        a, b = _random_factor(rng, big), _random_factor(rng, big)
        if rng.random() < 0.3:
            b = pmul(b, a)  # a divides b
        p, q = pmul(g, a), pmul(g, b)
        pick = rng.random()
        if pick < 0.05:
            p = ()
        elif pick < 0.1:
            p = (Fraction(rng.choice((-3, 7))),)
        yield p, q


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pgcd_matches_euclid(seed):
    for p, q in _gcd_pairs(seed):
        assert pgcd(p, q) == euclid_gcd(p, q), (p, q)
        assert pgcd(q, p) == euclid_gcd(p, q), (p, q)


@pytest.mark.parametrize("seed", [1, 2])
def test_pgcd_fallback_matches_euclid(seed, monkeypatch):
    # the heuristic gives up every time: the Euclid fallback answers alone
    monkeypatch.setattr(coefficients, "_heuristic_gcd", lambda a, b: None)
    for p, q in _gcd_pairs(seed):
        assert pgcd(p, q) == euclid_gcd(p, q), (p, q)


def test_zgcd_cofactors_and_heuristic_rate():
    answered = total = 0
    for p, q in _gcd_pairs(4):
        if len(p) < 2 or len(q) < 2:
            continue
        a, b = (coefficients.zprimitive(x)[0] for x in (p, q))
        a = tuple(-3 * x for x in a)  # a content and a negative sign
        g, qa, qb = zgcd(a, b)
        assert g[-1] > 0 and _monic(g) == euclid_gcd(p, q)
        assert pmul(g, qa) == a and pmul(g, qb) == b
        total += 1
        answered += coefficients._heuristic_gcd(*(coefficients.zprimitive(x)[0]
                                                  for x in (p, q))) is not None
    # the heuristic gcd is the fast path, not an occasional one
    assert answered >= 0.9 * total


def _reference(num, den):
    """num/den reduced by the test-local Euclid, denominator monic."""
    if not num:
        return (), (Fraction(1),)
    g = euclid_gcd(num, den)
    num, den = _quo(num, g), _quo(den, g)
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


# factors shared by the operands of a chain, so that reductions cancel
_POOL = [
    (Fraction(1), Fraction(1)), (Fraction(-2), Fraction(1)), (Fraction(3), Fraction(2)),
    (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(1)),
    (Fraction(3), Fraction(10 ** 40)), (Fraction(1, 3), Fraction(-5, 7)),
]


def _pool_product(rng):
    out = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.choice((1, 40))),
                    rng.randint(1, 9)),)
    for _ in range(rng.randint(0, 2)):
        out = pmul(out, rng.choice(_POOL))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_ratfunc_chains_match_reference(seed):
    # seeded + - * / chains; the reference combines num and den unreduced,
    # then reduces by the test-local Euclid
    rng = random.Random(seed)
    one = ((Fraction(1),), (Fraction(1),))
    value, ref = RatFunc.const(1), one
    for _ in range(60):
        num, den = _pool_product(rng), _pool_product(rng)
        operand = RatFunc(num, den)
        assert (operand.num, operand.den) == _reference(num, den)
        n1, d1 = ref
        op = rng.choice("+-*/")
        if op == "+":
            value = value + operand
            ref = padd(pmul(n1, den), pmul(num, d1)), pmul(d1, den)
        elif op == "-":
            value = value - operand
            ref = padd(pmul(n1, den), pneg(pmul(num, d1))), pmul(d1, den)
        elif op == "*":
            value = value * operand
            ref = pmul(n1, num), pmul(d1, den)
        else:
            value = value / operand
            ref = pmul(n1, den), pmul(d1, num)
        ref = _reference(*ref)
        assert (value.num, value.den) == ref
        assert all(type(c) is Fraction for c in value.num + value.den)
        _assert_canonical(operand)
        _assert_canonical(value)
        if not value or len(value.num) + len(value.den) > 10:
            value, ref = RatFunc.const(1), one


def _assert_canonical(value):
    """znum/zden: coprime over Z[k], content included, zden[-1] > 0, zero
    as 0/1; the same value from Fraction tuples, int tuples and its text."""
    n, d = value.znum, value.zden
    assert all(type(c) is int for c in n + d)
    assert d[-1] > 0
    assert gcd(*n, *d) == 1
    assert len(euclid_gcd(n, d)) == 1
    if not value:
        assert (n, d) == ((), (1,))
    for other in (RatFunc(value.num, value.den), RatFunc(n, d),
                  RatFunc.over_z(n, d), parse_ratfunc(str(value))):
        assert other == value and hash(other) == hash(value)
        assert (other.znum, other.zden) == (n, d)


def _dense_rank(rows, ncols):
    """Reference rank of the first ncols columns: dense Gauss-Jordan over Q."""
    m = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _random_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _sparse_rows(rng, nrows, ncols):
    """Random sparse rows, some of them combinations of two earlier rows;
    returns the rows and the indices of the combinations."""
    rows, dependent = [], []
    for j in range(nrows):
        if j >= 2 and rng.random() < 0.3:
            row = {}
            for i in rng.sample(range(j), 2):
                c = _random_fraction(rng)
                for col, v in rows[i].items():
                    row[col] = row.get(col, 0) + c * v
            dependent.append(j)
        else:
            row = {c: _random_fraction(rng) for c in rng.sample(range(ncols), rng.randint(1, min(3, ncols)))}
        rows.append({c: v for c, v in row.items() if v})
    return rows, dependent


@pytest.mark.parametrize("seed", range(40))
def test_qsolve_planted_systems(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    rows, dependent = _sparse_rows(rng, rng.randint(1, 9), ncols)
    rank = _dense_rank(rows, ncols)
    assert qsolve(rows, ncols) == (rank, {})
    # right-hand sides b = A x0 are consistent; adding 1 to b at a row that
    # is a combination of other rows makes the system inconsistent
    rhs = range(ncols, ncols + 4)
    inconsistent = set()
    for b in rhs:
        x0 = [_random_fraction(rng) for _ in range(ncols)]
        for row in rows:
            row[b] = sum(v * x0[c] for c, v in row.items() if c < ncols)
        if dependent and rng.random() < 0.5:
            rows[rng.choice(dependent)][b] += 1
            inconsistent.add(b)
    before = copy.deepcopy(rows)
    got, solutions = qsolve(rows, ncols)
    assert rows == before and got == rank
    pivots = {c for c in range(ncols) if _dense_rank(rows, c + 1) > _dense_rank(rows, c)}
    for b in rhs:
        if b in inconsistent:
            assert solutions[b] is None
            continue
        x = solutions.get(b, [0] * ncols)
        assert all(sum(v * x[c] for c, v in row.items() if c < ncols) == row[b]
                   for row in rows)
        assert all(x[c] == 0 for c in range(ncols) if c not in pivots)
    assert set(solutions) <= set(rhs)


def test_qsolve_is_exact_on_int_rows():
    # int / int would be a float: 2x + 1 = 0 must give x = -1/2 exactly
    rank, solutions = qsolve([{0: 2, 1: 1}], 1)
    assert (rank, solutions) == (1, {1: [Fraction(1, 2)]})
    assert type(solutions[1][0]) is Fraction
    for bad in (2.0, 0.0):
        with pytest.raises(TypeError, match="not an exact scalar"):
            qsolve([{0: 1, 1: bad}], 1)


@pytest.mark.parametrize("seed", range(12))
def test_rank_mod_p_planted_systems(seed):
    # each row times a RatFunc that is a nonzero constant at k0, plus
    # entries in a right-hand-side column, which do not count
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    rows, _ = _sparse_rows(rng, rng.randint(1, 9), ncols)
    scaled = []
    for row in rows:
        g = (K + RatFunc.const(rng.randint(1, 9))) / (K - RatFunc.const(rng.randint(1, 9)))
        out = {c: g * RatFunc.const(v) for c, v in row.items()}
        out[ncols] = K
        scaled.append(out)
    before = copy.deepcopy(scaled)
    assert rank_mod_p(scaled, ncols, Fraction(1, 2)) == _dense_rank(rows, ncols)
    assert scaled == before


def test_rank_mod_p_pivots_on_the_sparsest_row():
    # column 0 has entries in rows 0, 1 and 2: the first row with one is the
    # dense row 0, the sparsest is row 2, and after it the sparsest with an
    # entry in column 1 is row 1, not row 0; rows 3 and 5 are combinations
    # of rows 0, 1 and 2
    ints = [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 2, 1: 1, 3: 1}, {0: 3}, {1: 1, 2: 1, 3: 1},
            {1: 2, 2: 3, 3: 4}, {1: 1, 3: 1}]
    hits = [i for i, row in enumerate(ints) if 0 in row]
    assert min(hits) != min(hits, key=lambda i: len(ints[i]))
    rows = [{c: RatFunc.const(v) * (K + RF_ONE) for c, v in row.items()} for row in ints]
    assert rank_mod_p(rows, 4, 3) == qsolve(ints, 4)[0] == 4
