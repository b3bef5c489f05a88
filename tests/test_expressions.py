"""Expression grammar: parsing, printing, round trips, error positions."""

import random
from fractions import Fraction

import pytest

from vertexalg.coefficients import LimitExceeded, RatFunc
from vertexalg.constructions import affine, bc_system, heisenberg, n2_coset_generators
from vertexalg.expressions import ExprError, format_element, parse_element
from vertexalg.lie import builtin_lie
from vertexalg.linear import weight_basis

K = RatFunc.param()


def _n2_presentation():
    return affine(builtin_lie("sl2"), K).tensor(bc_system(1))


def test_nested_normal_order():
    P = _n2_presentation()
    x = parse_element(P, ":H :b c::")
    assert x == P.gen("H").no(P.gen("b").no(P.gen("c")))


def test_right_nesting_of_flat_words():
    P = _n2_presentation()
    assert parse_element(P, ":H b c:") == parse_element(P, ":H :b c::")


def test_derivative_syntax():
    P = _n2_presentation()
    assert parse_element(P, "D^1(H)") == P.derivative(P.gen("H"))
    assert parse_element(P, "D^2(H)") == P.gen("H", 2)


def test_odd_square_parses_to_zero():
    E = bc_system(1)
    assert parse_element(E, ":b b:").is_zero()


def test_coefficients_and_sums():
    P = _n2_presentation()
    x = parse_element(P, "(k + 2)*:H H: - (1/2)*D^1(H) + Xp")
    want = (
        P.gen("H").no(P.gen("H")) * (K + RatFunc.const(2))
        - P.derivative(P.gen("H")) * RatFunc.const(Fraction(1, 2))
        + P.gen("Xp")
    )
    assert x == want


def test_rational_function_coefficient():
    P = _n2_presentation()
    x = parse_element(P, "(-1*k - 4)/(k + 3/2)*H")
    assert x == P.gen("H") * ((-K - RatFunc.const(4)) / (K + RatFunc.const(Fraction(3, 2))))


def test_vacuum_literal():
    P = heisenberg(1)
    x = parse_element(P, "(3/2)*1")
    assert x == P.vacuum(RatFunc.const(Fraction(3, 2)))
    assert parse_element(P, "0").is_zero()


def test_unknown_generator_reports_position():
    P = heisenberg(1)
    with pytest.raises(ExprError) as err:
        parse_element(P, "a1 + nope")
    assert err.value.pos == 5


def test_malformed_coefficient_reports_itself():
    # a coefficient is read from the element's own tokens, so its error is
    # the coefficient's, at its position, not "unknown generator 'k'"
    P = heisenberg(1)
    with pytest.raises(ExprError) as err:
        parse_element(P, "(k+)*a1")
    assert err.value.pos == 3 and "unknown generator" not in str(err.value)
    with pytest.raises(ExprError) as err:
        parse_element(P, "(1)/(0)*a1")
    assert "zero denominator" in str(err.value)
    with pytest.raises(LimitExceeded, match="limit"):
        parse_element(P, "(k^201)*a1")


def test_coefficient_grammar_is_whitespace_insensitive():
    P = heisenberg(1)
    want = P.gen("a1") * (K * K / 3)
    assert parse_element(P, "(k^2/3)*a1") == parse_element(P, "(k^2 / 3)*a1") == want
    assert parse_element(P, "(k/2/3)*a1") == P.gen("a1") * (K / 6)
    assert parse_element(P, "1/2*a1") == parse_element(P, "(1)/(2)*a1")


def test_unbalanced_colon():
    P = _n2_presentation()
    with pytest.raises(ExprError):
        parse_element(P, ":H b")


def test_round_trip_random_elements():
    rng = random.Random(99)
    P = _n2_presentation()
    for _ in range(25):
        x = P.zero()
        for _ in range(rng.randint(1, 4)):
            w = Fraction(rng.randint(1, 6), 2)
            monos = weight_basis(P, w).monomials
            M = monos[rng.randrange(len(monos))]
            coeff = (K + RatFunc.const(rng.randint(-2, 2))) if rng.random() < 0.4 \
                else RatFunc.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            x = x + P.element({M: coeff})
        assert parse_element(P, format_element(x)) == x


def test_round_trip_suite_elements():
    P = _n2_presentation()
    gens = n2_coset_generators(P)
    for el in gens.values():
        assert parse_element(P, format_element(el)) == el
    from vertexalg.constructions import (
        as_mixed_generators,
        beta_gamma,
        osp_coset_virasoro,
        s_orbifold_w,
        sugawara,
        symplectic_fermion,
    )

    Po = affine(builtin_lie("osp(1|2)"), K)
    for el in [osp_coset_virasoro(Po), sugawara(Po)]:
        assert parse_element(Po, format_element(el)) == el
    S = beta_gamma(1)
    w3 = s_orbifold_w(S, 1, 1)
    assert parse_element(S, format_element(w3)) == w3
    AS = symplectic_fermion(1).tensor(beta_gamma(1))
    for el in as_mixed_generators(AS, 1)["mu"]:
        assert parse_element(AS, format_element(el)) == el


def test_threefold_tensor_names_are_distinct_and_parse_back():
    from vertexalg.constructions import beta_gamma

    P = beta_gamma(1).tensor(beta_gamma(1)).tensor(beta_gamma(1))
    names = [g.name for g in P.generators]
    assert names == ["beta", "gamma", "beta'", "gamma'", "beta''", "gamma''"]
    gens = [P.gen(name) for name in names]
    for name, g in zip(names, gens):
        assert format_element(g) == name
        assert parse_element(P, name) == g
    product = gens[-1]
    for g in reversed(gens[:-1]):
        product = g.no(product)
    assert parse_element(P, format_element(product)) == product


def test_deterministic_printing():
    P = _n2_presentation()
    gens = n2_coset_generators(P)
    assert format_element(gens["L"]) == format_element(n2_coset_generators(P)["L"])
