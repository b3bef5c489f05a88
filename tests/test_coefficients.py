"""Field arithmetic in Q(k): canonical forms, evaluation, limits, roots."""

import random
import time
from fractions import Fraction

import pytest

from vertexalg.coefficients import (
    DivergesAtInfinity,
    EvaluationAtPole,
    RatFunc,
    ZeroDenominator,
    format_ratfunc,
    parse_poly,
    parse_ratfunc,
    rational_roots,
)

K = RatFunc.param()


def rf(text):
    return parse_ratfunc(text)


def test_lambda2_literal():
    # the weight-4 decoupling multiplier of the osp coset, used as a literal
    lam2 = -(K + 4) / (K + RatFunc.const(Fraction(3, 2)))
    assert str(lam2) == "(-1*k - 4)/(k + 3/2)"
    assert lam2 == rf("(-1*k - 4)/(k + 3/2)")


def test_sub_self_is_zero():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_ratfunc(rng)
        assert (f - f).is_zero()


def test_gcd_canonicalization():
    f = (K * K - 4) / (K + 2)
    assert f == K - 2
    assert str(f) == "(k - 2)"


def test_division_by_zero():
    with pytest.raises(ZeroDenominator):
        K / RatFunc.const(0)


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
        if not g.is_zero():
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
