"""Builders for the free-field and affine algebras and their named elements.

The free field algebras share one builder, and `free_field_conformal` derives
their standard conformal vector from the pairing.  The affine and deformable
current tables share one builder, each quadratic orbifold invariant is one
pair sum, and the outer sp_2n action on A(n) (x) S(n) is read off the zero
modes of the tau currents.  The embedding constructors return images that
carry a machine-checked homomorphism certificate, and a coset Virasoro
vector is L_A - L_g, a difference of Sugawara vectors of embeddings.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import (
    DivergesAtInfinity,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    as_ratfunc,
    parse_ratfunc,
    qsolve,
)
from .core import EVEN, ODD, Element, Generator, VAError, VAPresentation
from .lie import LiePresentation, builtin_lie


class ConstructionError(VAError):
    pass


class CriticalLevelError(ConstructionError):
    pass


def _check_rank(n: int):
    if n < 0:
        raise ConstructionError(f"rank must be nonnegative, got {n}")


def _vac(c) -> dict:
    c = as_ratfunc(c)
    return {(): c} if c else {}


# ---------------------------------------------------------------------------
# Free field algebras


def _free_field(name, names, parity, weight, pairing) -> VAPresentation:
    """Generators of one parity and weight with [x_i lambda x_j] =
    lambda^(2 wt - 1) s for each (i, j): s of the pairing, all others zero."""
    gens = [Generator(i, x, parity, weight) for i, x in enumerate(names)]
    lower = ({},) * (int(2 * Fraction(weight)) - 1)
    table = {key: lower + (_vac(s),) for key, s in pairing.items()}
    return VAPresentation(gens, table, name=name)


def _pair_names(n: int, x: str, y: str) -> list:
    """x1..xn, y1..yn, or just x, y at rank one."""
    if n == 1:
        return [x, y]
    return [f"{x}{i+1}" for i in range(n)] + [f"{y}{i+1}" for i in range(n)]


def _paired(n: int, s, t) -> dict:
    """The pairing of x_i with y_i: (x_i, y_i) -> s and (y_i, x_i) -> t."""
    pairing = {}
    for i in range(n):
        pairing[(i, n + i)] = s
        pairing[(n + i, i)] = t
    return pairing


def heisenberg(n: int) -> VAPresentation:
    """H(n): even weight-1 generators with [a^i_lambda a^j] = delta_ij lambda."""
    _check_rank(n)
    names = [f"a{i+1}" for i in range(n)]
    return _free_field(f"H({n})", names, EVEN, 1, {(i, i): 1 for i in range(n)})


def heisenberg_pairs(n: int, names=None) -> VAPresentation:
    """Rank-2n Heisenberg in paired form: [a^i_lambda abar^j] = delta_ij lambda."""
    _check_rank(n)
    if names is None:
        names = [f"a{i+1}" for i in range(n)] + [f"abar{i+1}" for i in range(n)]
    names = [names[i] for i in range(2 * n)]
    return _free_field(f"Hpair({n})", names, EVEN, 1, _paired(n, 1, 1))


def free_fermion(n: int) -> VAPresentation:
    """F(n): odd weight-1/2 generators with [phi^i_lambda phi^j] = delta_ij."""
    _check_rank(n)
    names = [f"phi{i+1}" for i in range(n)]
    pairing = {(i, i): 1 for i in range(n)}
    return _free_field(f"F({n})", names, ODD, Fraction(1, 2), pairing)


def bc_system(n: int) -> VAPresentation:
    """E(n): odd b^i, c^i of weight 1/2 with first-order pairing."""
    _check_rank(n)
    names = _pair_names(n, "b", "c")
    return _free_field(f"E({n})", names, ODD, Fraction(1, 2), _paired(n, 1, 1))


def beta_gamma(n: int) -> VAPresentation:
    """S(n): even beta^i, gamma^i of weight 1/2, [beta_l gamma] = 1 = -[gamma_l beta]."""
    _check_rank(n)
    names = _pair_names(n, "beta", "gamma")
    return _free_field(f"S({n})", names, EVEN, Fraction(1, 2), _paired(n, 1, -1))


def symplectic_fermion(n: int) -> VAPresentation:
    """A(n): odd e^i, f^i of weight 1 with second-order pairing."""
    _check_rank(n)
    names = _pair_names(n, "e", "f")
    return _free_field(f"A({n})", names, ODD, 1, _paired(n, 1, -1))


def free_field_conformal(P: VAPresentation) -> Element:
    """L = 1/2 sum_ij C_ij :(D^(2 - 2 wt) x_i) x_j: with C the inverse pairing.

    P must have a central table: [x_i lambda x_j] = lambda^(2 wt - 1) s_ij with
    constant s_ij on generators of weight 1/2 or 1, and s invertible.  This
    covers the free field algebras and their tensor products.
    """
    n = P.ngen
    rows = [{n + i: Fraction(1)} for i in range(n)]
    for (i, j), cs in P.table.items():
        wt = P.gen_weight(i)
        top = cs[-1]
        if (
            wt not in (Fraction(1, 2), 1)
            or P.gen_weight(j) != wt
            or len(cs) != 2 * wt
            or any(cs[:-1])
            or set(top) != {()}
            or not top[()].is_constant()
        ):
            pair = (P.generators[i].name, P.generators[j].name)
            raise ConstructionError(f"{P.name} is not a free field algebra at {pair}")
        rows[i][j] = top[()].constant_value()
    # C solves S C = I, so the solution for right-hand side n + j is column j
    rank, solutions = qsolve(rows, n)
    if rank < n:
        raise ConstructionError(f"{P.name} has a degenerate pairing")
    L = P.zero()
    for i in range(n):
        d = int(2 - 2 * P.gen_weight(i))
        for j in range(n):
            c = solutions[n + j][i]
            if c:
                L = L + P.gen(i, d).no(P.gen(j)) * RatFunc.const(c / 2)
    return L


# ---------------------------------------------------------------------------
# Affine vertex superalgebras


def _current_table(lie: LiePresentation, prefix: str, bracket_scale, level):
    """Weight-1 generators prefix + name, one per basis vector of g, and the
    table [x_i lambda x_j] = bracket_scale [x_i, x_j] + lambda level B(x_i, x_j)."""
    gens = [Generator(i, prefix + x, lie.parities[i], 1) for i, x in enumerate(lie.names)]
    table = {}
    for i in range(lie.dim):
        for j in range(lie.dim):
            c0 = {((m, 0),): RatFunc.const(c) * bracket_scale
                  for m, c in lie.bracket(i, j).items()}
            central = level * RatFunc.const(lie.form[i][j])
            c1 = {(): central} if central else {}
            if c0 or c1:
                table[(i, j)] = (c0, c1)
    return gens, table


def affine(lie: LiePresentation, level) -> VAPresentation:
    """V_level(g, B): one weight-1 generator per basis vector of g."""
    if isinstance(level, str):
        level = parse_ratfunc(level)
    else:
        level = as_ratfunc(level)
    gens, table = _current_table(lie, "", RF_ONE, level)
    P = VAPresentation(gens, table, name=f"V({lie.name};{level})")
    P.metadata["lie"] = lie
    P.metadata["level"] = level
    return P


def sugawara(P: VAPresentation) -> Element:
    """Sugawara conformal vector of an affine presentation: the Sugawara
    vector of its generators as the identity embedding at its level."""
    lie = P.metadata.get("lie")
    level = P.metadata.get("level")
    if lie is None or level is None:
        raise ConstructionError("sugawara requires an affine presentation")
    return EmbeddingImage(lie, P, [P.gen(i) for i in range(lie.dim)], level).sugawara()


def sugawara_central_charge(P: VAPresentation) -> RatFunc:
    lie = P.metadata["lie"]
    level = P.metadata["level"]
    hv = lie.dual_coxeter()
    return (
        level
        * RatFunc.const(lie.sdim())
        / (level + RatFunc.const(hv))
    )


# ---------------------------------------------------------------------------
# Conformal structure testers


def virasoro_test(L: Element):
    """Check [L_l L] = dL + 2 lambda L + lambda^3/12 c; return (ok, c)."""
    P = L.pres
    br = P.lambda_bracket(L, L)
    ok = True
    if br.c(0) != P.derivative(L):
        ok = False
    if br.c(1) != L * RatFunc.const(2):
        ok = False
    if not br.c(2).is_zero():
        ok = False
    c3 = br.c(3)
    charge = RF_ZERO
    if set(c3.data) - {()}:
        ok = False
    else:
        # c_3 = c/2 vacuum since lambda^3/3! * (c/2) = lambda^3/12 c
        charge = c3.coeff(()) * RatFunc.const(2)
    if br.order() > 4:
        ok = False
    return ok, charge


def primary_test(L: Element, a: Element):
    """Check [L_l a] = da + Delta lambda a exactly; return (ok, Delta)."""
    P = L.pres
    br = P.lambda_bracket(L, a)
    if br.c(0) != P.derivative(a):
        return False, RF_ZERO
    if br.order() > 2:
        return False, RF_ZERO
    c1 = br.c(1)
    if c1.is_zero():
        return True, RF_ZERO
    # c1 must be a scalar multiple of a
    ks = set(c1.data)
    if ks != set(a.data):
        return False, RF_ZERO
    mono = next(iter(ks))
    delta = c1.data[mono] / a.data[mono]
    if c1 != a * delta:
        return False, RF_ZERO
    return True, delta


# ---------------------------------------------------------------------------
# Embeddings


class EmbeddingImage:
    """Images of a Lie algebra's basis as weight-1 elements of a target, at
    a level: the given one, trusted, or else the one verify() reads."""

    def __init__(self, source: LiePresentation, target: VAPresentation, images,
                 level=None):
        self.source = source
        self.target = target
        self.images = list(images)
        if len(self.images) != source.dim:
            raise ConstructionError("one image per basis vector required")
        self.level = self.verify() if level is None else level

    def image_of(self, vec: dict) -> Element:
        out = self.target.zero()
        for i, c in vec.items():
            out = out + self.images[i] * RatFunc.const(c)
        return out

    def verify(self) -> RatFunc:
        """Check the homomorphism property on all basis pairs; return the level.

        [tau(x)_lambda tau(y)] must equal tau([x,y]) + lambda level B(x,y).
        """
        lie = self.source
        level = None
        P = self.target
        for i in range(lie.dim):
            for j in range(lie.dim):
                br = P.lambda_bracket(self.images[i], self.images[j])
                expected0 = self.image_of(lie.bracket(i, j))
                if br.c(0) != expected0:
                    raise ConstructionError(
                        f"homomorphism fails at c0 for pair "
                        f"({lie.names[i]}, {lie.names[j]})"
                    )
                c1 = br.c(1)
                if set(c1.data) - {()}:
                    raise ConstructionError(
                        f"non-central second-order term for pair "
                        f"({lie.names[i]}, {lie.names[j]})"
                    )
                if br.order() > 2:
                    raise ConstructionError("bracket order exceeds two")
                central = c1.coeff(())
                b = lie.form[i][j]
                if b == 0:
                    if central:
                        raise ConstructionError(
                            f"unexpected central term at "
                            f"({lie.names[i]}, {lie.names[j]})"
                        )
                    continue
                this_level = central / RatFunc.const(b)
                if level is None:
                    level = this_level
                elif level != this_level:
                    raise ConstructionError("inconsistent level across pairs")
        return level if level is not None else RF_ZERO

    def sugawara(self) -> Element:
        """(1/(2(level + h))) sum_i :tau(x_i) tau(x'_i): over the source basis
        x_i and its dual basis x'_i, h the dual Coxeter number.  For gl(1),
        h = 0 and this is :JJ:/(2 level)."""
        lie = self.source
        hv = lie.dual_coxeter()
        shifted = self.level + RatFunc.const(hv)
        if not shifted:
            raise CriticalLevelError(f"critical level: {lie.name} at level {-hv}")
        duals = lie.dual_basis()
        L = self.target.zero()
        for i in range(lie.dim):
            L = L + self.images[i].no(self.image_of(duals[i]))
        return L * (RF_ONE / (RatFunc.const(2) * shifted))


def tau_embedding(n: int) -> EmbeddingImage:
    """sp_2n into the beta-gamma system S(n) at level -1/2."""
    if n < 1 or n > 2:
        raise ConstructionError("tau_embedding implemented for n = 1, 2")
    lie = builtin_lie(f"sp{2*n}")
    S = beta_gamma(n)

    def beta(i):
        return S.gen(i)

    def gamma(i):
        return S.gen(n + i)

    images = []
    for name in lie.names:
        kind, j, k = name[0], int(name[1]) - 1, int(name[2]) - 1
        if kind == "S":
            images.append(gamma(j).no(gamma(k)))
        elif kind == "T":
            images.append(beta(j).no(beta(k)))
        else:
            images.append(gamma(j).no(beta(k)))
    emb = EmbeddingImage(lie, S, images)
    if emb.level != RatFunc.const(Fraction(-1, 2)):
        raise ConstructionError(f"tau embedding level check failed: {emb.level}")
    return emb


def sigma_embedding(m: int) -> EmbeddingImage:
    """so_m into the free fermion algebra F(m) at level 1."""
    if m < 1 or m > 3:
        raise ConstructionError("sigma_embedding implemented for m = 1, 2, 3")
    lie = builtin_lie(f"so{m}")
    F = free_fermion(m)
    images = []
    for name in lie.names:
        i, j = int(name[1]) - 1, int(name[2]) - 1
        images.append(F.gen(i).no(F.gen(j)))
    # so_1 = 0 has no pair to read a level from, so its level 1 is given
    emb = EmbeddingImage(lie, F, images, None if lie.dim else RF_ONE)
    if emb.level != RF_ONE:
        raise ConstructionError(f"sigma embedding level check failed: {emb.level}")
    return emb


def diagonal_current(images) -> EmbeddingImage:
    """Sum of several embeddings of one Lie algebra into one presentation."""
    if not images:
        raise ConstructionError("need at least one embedding")
    first = images[0]
    for other in images[1:]:
        if other.source is not first.source and not other.source.same_structure(
            first.source
        ):
            raise ConstructionError("sources differ")
        if other.target is not first.target:
            raise ConstructionError("targets differ; embed into the tensor first")
    if len(images) == 1:
        return first
    summed = []
    for i in range(first.source.dim):
        total = first.images[i]
        for other in images[1:]:
            total = total + other.images[i]
        summed.append(total)
    out = EmbeddingImage(first.source, first.target, summed)
    expected = RF_ZERO
    for e in images:
        expected = expected + e.level
    if out.level != expected:
        raise ConstructionError(
            f"diagonal level {out.level} differs from sum of levels {expected}"
        )
    return out


def embed_image(emb: EmbeddingImage, tensor: VAPresentation, factor: int) -> EmbeddingImage:
    """Push an embedding into a tensor product containing its target."""
    images = [tensor.embed_from_factor(x, factor) for x in emb.images]
    return EmbeddingImage(emb.source, tensor, images, emb.level)


# ---------------------------------------------------------------------------
# Deformable families and their limits


def deformable_form(P: VAPresentation) -> VAPresentation:
    """Rescaled form of an affine presentation over the kappa field, k = kappa^2.

    Generators a^xi = X^xi / kappa satisfy
    [a^xi_lambda a^eta] = B(xi, eta) lambda + (1/kappa) a^[xi, eta].
    """
    lie = P.metadata.get("lie")
    level = P.metadata.get("level")
    if lie is None or level is None:
        raise ConstructionError("deformable_form requires an affine presentation")
    if level != RatFunc.param():
        raise ConstructionError("deformable_form requires the symbolic level k")
    gens, table = _current_table(lie, "a_", RF_ONE / RatFunc.param(), RF_ONE)
    return VAPresentation(gens, table, param="kappa", name=f"def({P.name})")


def limit_presentation(P: VAPresentation) -> VAPresentation:
    """Termwise kappa -> infinity limit of a deformable presentation."""
    gens = [
        Generator(g.index, g.name, g.parity, g.weight) for g in P.generators
    ]
    table = {}
    for key, cs in P.table.items():
        new_cs = []
        for cn in cs:
            lim = {}
            for M, c in cn.items():
                try:
                    v = c.limit_at_infinity()
                except DivergesAtInfinity:
                    raise ConstructionError(
                        f"bracket coefficient diverges at infinity: {c}"
                    ) from None
                if v:
                    lim[M] = RatFunc.const(v)
            new_cs.append(lim)
        table[key] = tuple(new_cs)
    out = VAPresentation(gens, table, param=P.param, name=f"lim({P.name})")
    out.metadata["limit_of"] = P
    return out


def limit_element(x: Element, target: VAPresentation) -> Element:
    """Termwise limit of an element of a deformable presentation."""
    if target.metadata.get("limit_of") is not x.pres:
        raise ConstructionError("target is not the limit of the element's family")
    out = {}
    for M, c in x.data.items():
        try:
            v = c.limit_at_infinity()
        except DivergesAtInfinity:
            from .expressions import format_monomial

            raise ConstructionError(
                f"coefficient of {format_monomial(x.pres, M)} diverges at infinity"
            ) from None
        if v:
            out[M] = RatFunc.const(v)
    return Element(target, out)


# ---------------------------------------------------------------------------
# Named generator families from the orbifold constructions


def _pair_sum(P: VAPresentation, pairs, d: int, mirror, scale) -> Element:
    """scale * sum over the id pairs (x, y) of :x D^d y: + mirror :(D^d x) y:."""
    out = P.zero()
    for x, y in pairs:
        out = out + P.gen(x).no(P.gen(y, d))
        if mirror:
            out = out + P.gen(x, d).no(P.gen(y)) * mirror
    return out * scale


def s_orbifold_w(S: VAPresentation, r: int, k: int) -> Element:
    """w-tilde of weight 2k+2 in the beta-gamma system of rank r."""
    return _pair_sum(S, [(i, r + i) for i in range(r)], 2 * k + 1, -1, Fraction(1, 2))


def a_orbifold_w(A: VAPresentation, s: int, k: int) -> Element:
    """w of weight 2k+2 in the symplectic fermion algebra of rank s."""
    return _pair_sum(A, [(i, s + i) for i in range(s)], 2 * k, 1, Fraction(1, 2))


def as_mixed_generators(AS: VAPresentation, n: int):
    """The mixed invariants of A(n) (x) S(n): j^{2k}, w^{2k+1}, mu^k.

    AS must be symplectic_fermion(n).tensor(beta_gamma(n)); generator order is
    e_i, f_i, beta_i, gamma_i, so e_i and f_i have their ids in A(n).
    """
    e, f, beta, gamma = (range(m * n, m * n + n) for m in range(4))
    half = Fraction(1, 2)
    return {
        "j": [a_orbifold_w(AS, n, k) for k in range(n)],
        "w": [_pair_sum(AS, zip(beta, gamma), 2 * k + 1, -1, half) for k in range(n)],
        "mu": [
            _pair_sum(AS, zip(beta, f), k, 0, half)
            + _pair_sum(AS, zip(gamma, e), k, 0, -half)
            for k in range(2 * n)
        ],
    }


def as_diagonal_sp_action(n: int):
    """Diagonal sp_2n action on AS = A(n) (x) S(n): tau currents plus an outer part.

    Returns AS, a list of (current, derivation) pairs, one per sp_2n basis
    vector, and sp_2n; the derivation maps generator ids to element data and
    covers the symplectic fermion factor, where the action is not inner.
    """
    tau = tau_embedding(n)
    S = tau.target
    AS = symplectic_fermion(n).tensor(S)
    currents = embed_image(tau, AS, 1).images
    # the outer action is the zero-mode action of each tau current on S(n),
    # read on A(n) through beta_i -> e_i, gamma_i -> f_i (the same ids)
    derivations = []
    for J in tau.images:
        images = {g: S.nprod(J, S.gen(g), 0).data for g in range(S.ngen)}
        derivations.append({g: data for g, data in images.items() if data})
    return AS, list(zip(currents, derivations)), tau.source


def parafermion_sl3_generators(H6: VAPresentation):
    """Quadratic and cubic invariants of the paired rank-3 Heisenberg algebra.

    H6 must be heisenberg_pairs(3) with pairs (a1, abar1), (a2, abar2),
    (a3, abar3) standing for (alpha12, alpha21), (alpha23, alpha32),
    (alpha13, alpha31).
    """

    def alpha(pair, barred, d=0):
        return H6.gen(pair + (3 if barred else 0), d)

    def q(pair, i, j):
        return alpha(pair, False, i).no(alpha(pair, True, j))

    def qbar(pair, i, j):
        return alpha(pair, True, i).no(alpha(pair, False, j))

    def c(i, j, k):
        # :d^i alpha12 d^j alpha23 d^k alpha31:
        return alpha(0, False, i).no(alpha(1, False, j).no(alpha(2, True, k)))

    def cbar(i, j, k):
        # :d^i alpha21 d^j alpha32 d^k alpha13:
        return alpha(0, True, i).no(alpha(1, True, j).no(alpha(2, False, k)))

    return {"q": q, "qbar": qbar, "c": c, "cbar": cbar}


def n2_coset_generators(P: VAPresentation):
    """J, F, L, G+, G- inside V_k(sl2) (x) E(1).

    P must be affine(sl2, k).tensor(bc_system(1)); generators H, Xp, Xm, b, c.
    """
    k = RatFunc.param()
    H = P.gen("H")
    Xp = P.gen("Xp")
    Xm = P.gen("Xm")
    b = P.gen("b")
    c = P.gen("c")
    bc = b.no(c)
    J = H - bc
    F = H + bc * (k / RatFunc.const(2))
    # L_A - L_J, with L_A the sl2 Sugawara vector plus the bc conformal vector
    sl2, bc_factor, _ = P.metadata["tensor_factors"]
    L = (
        P.embed_from_factor(sugawara(sl2), 0)
        + P.embed_from_factor(free_field_conformal(bc_factor), 1)
        - EmbeddingImage(builtin_lie("gl(1)"), P, [J]).sugawara()
    )
    Gp = Xp.no(b)
    Gm = Xm.no(c)
    return {"J": J, "F": F, "L": L, "Gp": Gp, "Gm": Gm}


def odd_pair_shape(P: VAPresentation, plus: str, minus: str, m: int) -> dict:
    """Shape of the weight-(2m+2) symplectic-fermion-type generator
    (1/2)(:x d^{2m} y: + :(d^{2m} x) y:) on the odd quadratic monomials,
    used to pin its deformation inside a commutant kernel.
    """
    ip = P.by_name[plus]
    im = P.by_name[minus]
    half = RatFunc.const(Fraction(1, 2))
    shape = {}
    for a in range(2 * m + 1):
        b = 2 * m - a
        shape[((ip, a), (im, b))] = half if a in (0, 2 * m) else RF_ZERO
    return shape


def osp_coset_virasoro(P: VAPresentation) -> Element:
    """The commutant Virasoro element of V_k(osp(1|2)) by V_k(sp_2): the
    difference of the two Sugawara vectors."""
    sp2 = EmbeddingImage(builtin_lie("sl2"), P, [P.gen("H"), P.gen("Xp"), P.gen("Xm")])
    return sugawara(P) - sp2.sugawara()
