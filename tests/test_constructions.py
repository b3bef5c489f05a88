"""Builders: free fields, affine algebras, embeddings, deformable limits."""

import gc
import weakref
from fractions import Fraction

import pytest

from vertexalg.coefficients import RF_ONE, RatFunc, parse_ratfunc
from vertexalg.constructions import (
    ConstructionError,
    CriticalLevelError,
    a_orbifold_w,
    affine,
    as_diagonal_sp_action,
    as_mixed_generators,
    bc_system,
    beta_gamma,
    deformable_form,
    diagonal_current,
    EmbeddingImage,
    embed_image,
    free_fermion,
    free_field_conformal,
    heisenberg,
    heisenberg_pairs,
    limit_element,
    limit_presentation,
    n2_coset_generators,
    osp_coset_virasoro,
    primary_test,
    s_orbifold_w,
    sigma_embedding,
    sugawara,
    sugawara_central_charge,
    symplectic_fermion,
    tau_embedding,
    virasoro_test,
)
from vertexalg.core import VAPresentation
from vertexalg.fock import FockOracle
from vertexalg.lie import builtin_lie
from vertexalg.linear import _diagonal_charges, verify_commutant, verify_invariant

K = RatFunc.param()


def test_free_field_central_charges():
    cases = [
        (heisenberg(1), 1, "a1", 1),
        (free_fermion(2), 1, "phi1", Fraction(1, 2)),
        (bc_system(1), 1, "b", Fraction(1, 2)),
        (beta_gamma(1), -1, "beta", Fraction(1, 2)),
        (symplectic_fermion(1), -2, "e", 1),
        (heisenberg_pairs(2), 4, "abar2", 1),
        (beta_gamma(2), -2, "gamma2", Fraction(1, 2)),
    ]
    for P, c_want, gen_name, delta_want in cases:
        L = free_field_conformal(P)
        ok, c = virasoro_test(L)
        assert ok and c == RatFunc.const(c_want), P.name
        okp, d = primary_test(L, P.gen(gen_name))
        assert okp and d == RatFunc.const(delta_want), P.name


def test_tensor_conformal_is_the_sum_of_the_factors():
    A, S = symplectic_fermion(1), beta_gamma(1)
    AS = A.tensor(S)
    L = free_field_conformal(AS)
    parts = AS.embed_from_factor(free_field_conformal(A), 0)
    parts = parts + AS.embed_from_factor(free_field_conformal(S), 1)
    assert L == parts
    ok, c = virasoro_test(L)
    assert ok and c == RatFunc.const(-3)


def test_tensor_with_trivial_keeps_a_conformal_vector():
    P = heisenberg(2).tensor(VAPresentation([], {}))
    ok, c = virasoro_test(free_field_conformal(P))
    assert ok and c == RatFunc.const(2)


def test_free_field_conformal_rejects_affine():
    with pytest.raises(ConstructionError):
        free_field_conformal(affine(builtin_lie("sl2"), K))


def _free_field_used(P):
    assert virasoro_test(free_field_conformal(P))[0]
    return P


def _affine_used(P):
    assert virasoro_test(sugawara(P))[0]
    return P


def _oracle_used(P):
    oracle = FockOracle(P)
    assert oracle.check_product(((0, 0), (1, 0)), ((0, 0), (1, 1)), 1)
    return oracle


@pytest.mark.parametrize(
    "make",
    [
        lambda: _free_field_used(heisenberg(1)),
        lambda: _free_field_used(heisenberg_pairs(1)),
        lambda: _free_field_used(free_fermion(1)),
        lambda: _free_field_used(bc_system(1)),
        lambda: _free_field_used(beta_gamma(1)),
        lambda: _free_field_used(symplectic_fermion(1)),
        lambda: _free_field_used(symplectic_fermion(1).tensor(beta_gamma(1))),
        lambda: _affine_used(affine(builtin_lie("sl2"), K)),
        lambda: _oracle_used(beta_gamma(1)),
    ],
    ids=["H", "Hpair", "F", "E", "S", "A", "A(x)S", "affine-sl2", "fock-oracle"],
)
def test_dropped_presentation_is_freed_at_once(make):
    # a presentation holds no element of itself, so it and its product memo
    # go with the last reference, without waiting for a cyclic collection
    gc.disable()
    try:
        holder = make()
        ref = weakref.ref(getattr(holder, "pres", holder))
        del holder
        assert ref() is None
    finally:
        gc.enable()


def test_negative_rank_rejected():
    with pytest.raises(ConstructionError):
        heisenberg(-1)


def test_symplectic_fermion_bracket():
    A = symplectic_fermion(1)
    br = A.lambda_bracket(A.gen("e"), A.gen("f"))
    assert br.c(0).is_zero() and br.c(1) == A.vacuum()


def test_beta_gamma_brackets():
    S = beta_gamma(1)
    assert S.nprod(S.gen("beta"), S.gen("gamma"), 0) == S.vacuum()
    assert S.nprod(S.gen("gamma"), S.gen("beta"), 0) == -S.vacuum()


def test_affine_sl2_opes_verbatim():
    P = affine(builtin_lie("sl2"), K)
    H, Xp, Xm = P.gen("H"), P.gen("Xp"), P.gen("Xm")
    br = P.lambda_bracket(H, Xp)
    assert br.c(0) == Xp and br.order() == 1
    br = P.lambda_bracket(H, H)
    assert br.c(0).is_zero() and br.c(1) == P.vacuum(K / RatFunc.const(2))
    br = P.lambda_bracket(Xp, Xm)
    assert br.c(0) == H * RatFunc.const(2) and br.c(1) == P.vacuum(K)


def test_affine_osp_opes_verbatim():
    P = affine(builtin_lie("osp(1|2)"), K)
    fp, fm = P.gen("phip"), P.gen("phim")
    br = P.lambda_bracket(fp, fm)
    assert br.c(0) == P.gen("H") * RatFunc.const(Fraction(1, 2))
    assert br.c(1) == P.vacuum(K / RatFunc.const(2))
    br = P.lambda_bracket(fp, fp)
    assert br.c(0) == P.gen("Xp") * RatFunc.const(Fraction(1, 2)) and br.order() == 1
    br = P.lambda_bracket(P.gen("H"), fp)
    assert br.c(0) == fp * RatFunc.const(Fraction(1, 2)) and br.order() == 1
    br = P.lambda_bracket(P.gen("Xp"), fm)
    assert br.c(0) == -fp and br.order() == 1


def test_affine_abelian_is_heisenberg():
    P = affine(builtin_lie("gl(1)"), K)
    br = P.lambda_bracket(P.gen(0), P.gen(0))
    assert br.c(1) == P.vacuum(K)


def test_sugawara_values():
    for name, c_text in [("sl2", "(3*k)/(k+2)"), ("osp(1|2)", "(2*k)/(2*k+3)"),
                         ("sl3", "(8*k)/(k+3)"), ("sp2", "(3*k)/(k+2)")]:
        P = affine(builtin_lie(name), K)
        L = sugawara(P)
        ok, c = virasoro_test(L)
        assert ok and c == parse_ratfunc(c_text)
        assert sugawara_central_charge(P) == parse_ratfunc(c_text)


def test_sugawara_abelian_level_one():
    P = affine(builtin_lie("gl(1)"), RatFunc.const(1))
    L = sugawara(P)
    assert L == P.gen(0).no(P.gen(0)) * RatFunc.const(Fraction(1, 2))
    ok, c = virasoro_test(L)
    assert ok and c == RF_ONE


def test_sugawara_critical_level():
    with pytest.raises(CriticalLevelError):
        sugawara(affine(builtin_lie("sl2"), RatFunc.const(-2)))


def test_embedding_sugawara_critical_level():
    # h = 2 for the sl2 inside osp(1|2) at level -2, but 3/2 for osp(1|2)
    P = affine(builtin_lie("osp(1|2)"), -2)
    sl2 = EmbeddingImage(builtin_lie("sl2"), P, [P.gen("H"), P.gen("Xp"), P.gen("Xm")])
    with pytest.raises(CriticalLevelError):
        sl2.sugawara()
    assert virasoro_test(sugawara(P))[0]


def test_virasoro_test_rejects_spoiled():
    H = heisenberg(1)
    L = free_field_conformal(H)
    spoiled = L + H.gen(0).no(H.gen(0))
    ok, _ = virasoro_test(spoiled)
    assert not ok


def test_tau_embedding_examples():
    tau = tau_embedding(1)
    assert tau.level == RatFunc.const(Fraction(-1, 2))
    S = tau.target
    lie = tau.source
    # X^{2 e12} -> :gamma gamma:
    i = lie.names.index("S11")
    assert tau.images[i] == S.gen("gamma").no(S.gen("gamma"))
    # the Cartan image :gamma beta: gives charges -1, +1 on beta, gamma
    u = lie.names.index("U11")
    charges = _diagonal_charges(S, tau.images[u])
    assert charges[S.by_name["beta"]] == -1
    assert charges[S.by_name["gamma"]] == 1


def test_tau_embedding_rank2():
    tau = tau_embedding(2)
    assert tau.level == RatFunc.const(Fraction(-1, 2))
    assert tau.source.dim == 10


def test_tau_rejects_bad_rank():
    with pytest.raises(ConstructionError):
        tau_embedding(3)


def test_sigma_embeddings():
    for m in (1, 2, 3):
        sig = sigma_embedding(m)
        assert sig.level == RF_ONE
    assert sigma_embedding(1).source.dim == 0


def test_embedding_image_of_non_basis_vector():
    tau = tau_embedding(1)
    with pytest.raises(Exception):
        tau.image_of({99: Fraction(1)})


def test_diagonal_gl1_current():
    # J = H - :bc: as the diagonal gl(1) current in V_k(sl2) (x) E(1)
    gl1 = builtin_lie("gl(1)")
    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    im1 = EmbeddingImage(gl1, P, [P.gen("H")])
    im2 = EmbeddingImage(gl1, P, [-(P.gen("b").no(P.gen("c")))])
    diag = diagonal_current([im1, im2])
    assert diag.images[0] == P.gen("H") - P.gen("b").no(P.gen("c"))
    assert diag.level == im1.level + im2.level


def test_diagonal_tau_affine_sp2():
    # diagonal sp2 in V_k(sp2) (x) S(1) has level k - 1/2
    sp2 = builtin_lie("sp2")
    tau = tau_embedding(1)
    P = affine(sp2, K).tensor(tau.target)
    aff = EmbeddingImage(sp2, P, [P.gen(i) for i in range(3)])
    assert aff.level == aff.verify() == K
    tau_in = embed_image(tau, P, 1)
    diag = diagonal_current([aff, tau_in])
    assert diag.level == K - RatFunc.const(Fraction(1, 2))


def test_diagonal_sl2_coset_virasoro():
    # V_k(sl2) (x) V_1(sl2): the diagonal sl2 has level k + 1, and L_A - L_diag
    # is the Goddard-Kent-Olive coset Virasoro vector
    sl2 = builtin_lie("sl2")
    left, right = affine(sl2, K), affine(sl2, 1)
    P = left.tensor(right)
    diag = diagonal_current([
        EmbeddingImage(sl2, P, [P.gen(i) for i in range(3)]),
        EmbeddingImage(sl2, P, [P.gen(i) for i in range(3, 6)]),
    ])
    assert diag.level == K + RF_ONE
    L = (
        P.embed_from_factor(sugawara(left), 0)
        + P.embed_from_factor(sugawara(right), 1)
        - diag.sugawara()
    )
    ok, c = virasoro_test(L)
    assert ok and c == parse_ratfunc("(k^2 + 5*k)/(k^2 + 5*k + 6)")
    assert verify_commutant(P, L, diag.images)


def test_every_construction_gives_its_embedding_a_level(monkeypatch):
    # pushed into a tensor, the sugawara identity embedding and the empty
    # so_1 take a given level, trusted without verify()
    tau = tau_embedding(1)
    P = affine(builtin_lie("sp2"), K).tensor(tau.target)
    levels = []
    real = EmbeddingImage.sugawara
    monkeypatch.setattr(EmbeddingImage, "sugawara",
                        lambda self: levels.append(self.level) or real(self))
    monkeypatch.setattr(EmbeddingImage, "verify", lambda self: pytest.fail("verified"))
    assert embed_image(tau, P, 1).level == RatFunc.const(Fraction(-1, 2))
    assert sigma_embedding(1).level == RF_ONE
    sugawara(affine(builtin_lie("sl2"), K))
    assert levels == [K]


def test_verify_returns_the_level_and_sets_nothing():
    sl2 = builtin_lie("sl2")
    P = affine(sl2, K)
    emb = EmbeddingImage(sl2, P, [P.gen(i) for i in range(3)], RF_ONE)
    assert emb.verify() == K
    assert emb.level == RF_ONE
    assert EmbeddingImage(sl2, P, emb.images).level == K


def test_embedding_built_without_a_level_is_verified():
    sl2 = builtin_lie("sl2")
    P = affine(sl2, K)
    with pytest.raises(ConstructionError, match="homomorphism fails"):
        EmbeddingImage(sl2, P, [P.gen("H"), P.gen("Xm"), P.gen("Xp")])


def test_diagonal_of_single_image_is_identity():
    tau = tau_embedding(1)
    assert diagonal_current([tau]) is tau


def test_deformable_form_brackets():
    P = affine(builtin_lie("sl2"), K)
    D = deformable_form(P)
    assert D.param == "kappa"
    aH = D.gen("a_H")
    br = D.lambda_bracket(aH, aH)
    assert br.c(0).is_zero()
    assert br.c(1) == D.vacuum(RatFunc.const(Fraction(1, 2)))
    br = D.lambda_bracket(D.gen("a_Xp"), D.gen("a_Xm"))
    kap = RatFunc.param()
    assert br.c(0) == D.gen("a_H") * (RatFunc.const(2) / kap)
    assert br.c(1) == D.vacuum()


def test_deformable_rejects_numeric_level():
    with pytest.raises(ConstructionError):
        deformable_form(affine(builtin_lie("sl2"), RatFunc.const(3)))


def test_deformable_odd_generators_first_order_only():
    D = deformable_form(affine(builtin_lie("osp(1|2)"), K))
    br = D.lambda_bracket(D.gen("a_Xp"), D.gen("a_phim"))
    kap = RatFunc.param()
    assert br.c(0) == D.gen("a_phip") * (RatFunc.const(-1) / kap) and br.order() == 1


def test_limit_presentation_and_elements():
    D = deformable_form(affine(builtin_lie("sl2"), K))
    Lm = limit_presentation(D)
    assert Lm.check().ok
    kap = RatFunc.param()
    x = D.gen("a_H").no(D.gen("a_H")) * (RF_ONE / kap)
    assert limit_element(x, Lm).is_zero()
    y = D.gen("a_Xp").no(D.gen("a_Xm"))
    lim = limit_element(y, Lm)
    assert lim == Lm.gen("a_Xp").no(Lm.gen("a_Xm"))


def test_limit_element_diverges():
    D = deformable_form(affine(builtin_lie("sl2"), K))
    Lm = limit_presentation(D)
    kap = RatFunc.param()
    with pytest.raises(ConstructionError, match="diverges"):
        limit_element(D.gen("a_H") * kap, Lm)


def test_named_generator_weights():
    S = beta_gamma(1)
    w1 = s_orbifold_w(S, 1, 0)
    assert S.weight_of(w1) == 2
    assert w1 == (
        S.gen("beta").no(S.gen("gamma", 1)) - S.gen("beta", 1).no(S.gen("gamma"))
    ) * RatFunc.const(Fraction(1, 2))
    A = symplectic_fermion(1)
    assert A.weight_of(a_orbifold_w(A, 1, 0)) == 2


def test_as_mixed_mu0():
    AS = symplectic_fermion(1).tensor(beta_gamma(1))
    gens = as_mixed_generators(AS, 1)
    mu0 = gens["mu"][0]
    assert AS.weight_of(mu0) == Fraction(3, 2)
    beta, gamma = AS.gen("beta"), AS.gen("gamma")
    e, f = AS.gen("e"), AS.gen("f")
    assert mu0 == (beta.no(f) - gamma.no(e)) * RatFunc.const(Fraction(1, 2))


def test_as_mixed_invariant_at_rank_two():
    # the outer sp4 action on A(2) is read off the tau zero modes on S(2);
    # every mixed generator is killed by the whole diagonal action
    AS, actions, lie = as_diagonal_sp_action(2)
    assert lie.same_structure(builtin_lie("sp4")) and len(actions) == lie.dim
    for name, elems in as_mixed_generators(AS, 2).items():
        for el in elems:
            assert verify_invariant(AS, el, actions), name
    assert not verify_invariant(AS, AS.gen("e1").no(AS.gen("f2")), actions)


def test_n2_l_formula_display():
    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    gens = n2_coset_generators(P)
    inv = RF_ONE / (K + RatFunc.const(2))
    half = RatFunc.const(Fraction(1, 2))
    L = (
        P.gen("Xp").no(P.gen("Xm")) * inv
        + P.gen("H").no(P.gen("b").no(P.gen("c"))) * (RatFunc.const(2) * inv)
        - P.gen("b").no(P.gen("c", 1)) * (K * inv * half)
        + P.gen("b", 1).no(P.gen("c")) * (K * inv * half)
        - P.derivative(P.gen("H")) * inv
    )
    assert gens["L"] == L


def test_osp_coset_virasoro_formula():
    P = affine(builtin_lie("osp(1|2)"), K)
    two = RatFunc.const(2)
    d1 = RF_ONE / (two * K + RatFunc.const(3))
    d2 = RF_ONE / ((K + two) * (two * K + RatFunc.const(3)))
    L = (
        P.gen("phip").no(P.gen("phim")) * (RatFunc.const(-4) * d1)
        + (P.gen("Xp").no(P.gen("Xm")) + P.gen("H").no(P.gen("H"))) * d2
        + P.derivative(P.gen("H")) * ((RF_ONE + K) * d2)
    )
    assert osp_coset_virasoro(P) == L

