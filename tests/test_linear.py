"""Weight bases, charge filters, exact solves, relations, nongeneric levels."""

import copy
import random
from fractions import Fraction
from math import ceil

import pytest

from vertexalg import linear
from vertexalg.coefficients import (
    RANK_PRIME,
    RF_ONE,
    RF_ZERO,
    EvaluationAtPole,
    RatFunc,
    pdivmod,
    pmul,
    pprimitive,
    qsolve,
    rank_mod_p,
    rational_roots,
)
from vertexalg.constructions import (
    affine,
    as_diagonal_sp_action,
    beta_gamma,
    bc_system,
    heisenberg,
    heisenberg_pairs,
    n2_coset_generators,
    odd_pair_shape,
    osp_coset_virasoro,
    parafermion_sl3_generators,
    symplectic_fermion,
    tau_embedding,
)
from vertexalg.lie import builtin_lie
from vertexalg.linear import (
    LinearError,
    NotTorusDiagonal,
    Obstruction,
    PolySystem,
    Relation,
    SolveReport,
    apply_derivation,
    basis_size,
    charge_filter,
    commutant_basis,
    commutant_system,
    decoupling_multiplier,
    enumerate_words,
    find_relation,
    graded_dimensions,
    invariant_basis,
    nongeneric_levels,
    pin_commutant_element,
    solve,
    verify_commutant,
    verify_invariant,
    weight_basis,
)

K = RatFunc.param()


def test_weight_basis_examples():
    H = heisenberg(1)
    basis = weight_basis(H, 2)
    assert set(basis.monomials) == {((0, 0), (0, 0)), ((0, 1),)}
    E = bc_system(1)
    basis = weight_basis(E, 1)
    assert basis.monomials == (((0, 0), (1, 0)),)
    P = affine(builtin_lie("sl2"), K)
    assert len(weight_basis(P, 2)) == 9


def test_weight_basis_excludes_odd_squares():
    A = symplectic_fermion(1)
    for M in weight_basis(A, 4):
        for x, y in zip(M, M[1:]):
            assert x != y or not A.gen_parity(x[0])


def test_weight_basis_deterministic_order():
    P = affine(builtin_lie("sl2"), K)
    assert weight_basis(P, 3).monomials == weight_basis(P, 3).monomials
    assert list(weight_basis(P, 3).monomials) == sorted(weight_basis(P, 3).monomials)


def _bases(P):
    return [(g.weight, g.parity) for g in P.generators]


def test_basis_size_counts_the_weight_basis():
    # the count that bounds a CLI solve, against the enumeration, at integer,
    # half-integer and other weights
    for P in (heisenberg(2), bc_system(2), beta_gamma(2), symplectic_fermion(1),
              affine(builtin_lie("osp(1|2)"), K),
              affine(builtin_lie("sl2"), K).tensor(bc_system(1))):
        for w in [Fraction(n, 2) for n in range(9)] + [Fraction(1, 3)]:
            assert basis_size(_bases(P), w) == len(weight_basis(P, w)), (P.name, w)
    assert basis_size(_bases(heisenberg(61)), 2) == len(weight_basis(heisenberg(61), 2)) == 1952
    with pytest.raises(LinearError):
        basis_size(_bases(heisenberg(1)), -1)


def test_basis_size_counts_the_words_in_generators():
    # the count that bounds a CLI find-relation, against enumerate_words
    P = heisenberg(3)
    a1, a2, a3 = (P.gen(i) for i in range(3))
    gens = [a1, a1.no(a2), P.derivative(a3)]
    bases = [(P.weight_of(g), P.parity_of(g)) for g in gens]
    # the empty word of weight 0 is counted but not returned
    for w in range(1, 7):
        assert basis_size(bases, w) == len(enumerate_words(P, gens, w)), w


def test_words_need_generators_of_positive_weight():
    # a weight-0 generator such as the vacuum fits into words of any length
    P = heisenberg(1)
    gens = [P.vacuum(RF_ONE), P.gen(0)]
    with pytest.raises(LinearError, match="generator 1 of 2 has weight 0"):
        enumerate_words(P, gens, 2)
    with pytest.raises(LinearError, match="generator 1 of 2 has weight 0"):
        basis_size([(P.weight_of(g), P.parity_of(g)) for g in gens], 2)


def test_charge_filter_n2():
    P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
    J = n2_coset_generators(P)["J"]
    basis = weight_basis(P, Fraction(3, 2))
    filtered = charge_filter(basis, [J])
    xpb = ((P.by_name["Xp"], 0), (P.by_name["b"], 0))
    assert xpb in filtered.monomials
    xpc = ((P.by_name["Xp"], 0), (P.by_name["c"], 0))
    assert xpc not in filtered.monomials


def test_charge_filter_is_joint():
    # a monomial stays when its charge is 0 under every current: :E13 E23:
    # has H1-charge 0 but not H2-charge 0
    P = affine(builtin_lie("sl3"), K)
    basis = weight_basis(P, 2)
    by_h1 = charge_filter(basis, [P.gen("H1")]).monomials
    by_h2 = charge_filter(basis, [P.gen("H2")]).monomials
    joint = charge_filter(basis, [P.gen("H1"), P.gen("H2")]).monomials
    assert set(joint) == set(by_h1) & set(by_h2) and len(joint) == 8
    e13e23 = ((P.by_name["E13"], 0), (P.by_name["E23"], 0))
    assert e13e23 in by_h1 and e13e23 not in joint


def test_charge_filter_identity_when_empty():
    H = heisenberg(1)
    basis = weight_basis(H, 2)
    assert charge_filter(basis, []).monomials == basis.monomials


def test_charge_filter_rejects_nondiagonal():
    P = affine(builtin_lie("sl2"), K)
    basis = weight_basis(P, 2)
    with pytest.raises(NotTorusDiagonal):
        charge_filter(basis, [P.gen("Xp")])


def test_commutant_orthogonal_heisenberg():
    H2 = heisenberg(2)
    diag = H2.gen(0) + H2.gen(1)
    report = commutant_basis(H2, [diag], 1)
    assert report.kernel_dim == 1
    (v,) = report.kernel_elements()
    anti = H2.gen(0) - H2.gen(1)
    # the kernel line is spanned by a1 - a2
    scale = v.coeff(((0, 0),))
    assert scale and v == anti * scale
    assert verify_commutant(H2, anti, [diag])


def test_commutant_parafermion_weight2():
    P = affine(builtin_lie("sl2"), K)
    report = commutant_basis(P, [P.gen("H")], 2)
    assert report.kernel_dim == 1


def test_commutant_osp_weight2():
    P = affine(builtin_lie("osp(1|2)"), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    report = commutant_basis(P, currents, 2)
    assert report.kernel_dim == 1
    L = osp_coset_virasoro(P)
    assert verify_commutant(P, L, currents)


def test_commutant_kernel_reverified_independently():
    P = affine(builtin_lie("sl2"), K)
    report = commutant_basis(P, [P.gen("H")], 3)
    for v in report.kernel_elements():
        assert verify_commutant(P, v, [P.gen("H")])


def test_graded_dimensions_parafermion():
    P = affine(builtin_lie("sl2"), K)
    table = graded_dimensions(P, [P.gen("H")], 5, w_min=2)
    assert table == {
        Fraction(2): 1,
        Fraction(3): 2,
        Fraction(4): 4,
        Fraction(5): 6,
    }


def test_graded_dimensions_trivial_currents():
    H = heisenberg(1)
    table = graded_dimensions(H, [], 4, w_min=1)
    assert table == {
        Fraction(w): len(weight_basis(H, w)) for w in range(1, 5)
    }


def test_s1_orbifold_dimensions_match_character_count():
    tau = tau_embedding(1)
    S1 = tau.target
    for w in [2, Fraction(5, 2), 3, 4]:
        rep = invariant_basis(S1, tau.images, w)
        full = weight_basis(S1, w)
        charge = lambda M: sum(1 if g >= 1 else -1 for g, _ in M)
        count = sum(1 for M in full if charge(M) == 0) - sum(
            1 for M in full if charge(M) == 2
        )
        assert rep.kernel_dim == count


def test_solver_determinism():
    P = affine(builtin_lie("sl2"), K)
    r1 = commutant_basis(P, [P.gen("H")], 4).serialize()
    r2 = commutant_basis(P, [P.gen("H")], 4).serialize()
    assert r1 == r2


def test_evaluation_consistency():
    # kernel evaluated at non-excluded rational levels spans the evaluated kernel
    P = affine(builtin_lie("sl2"), K)
    report = commutant_basis(P, [P.gen("H")], 3)
    ng = nongeneric_levels(report)
    rng = random.Random(2024)
    excluded = set(ng.certified) | ng.candidates | ng.poles
    tried = 0
    while tried < 3:
        k0 = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        if k0 in excluded:
            continue
        assert report.kernel_dim_at(k0) == report.kernel_dim
        tried += 1


def test_pivot_divides_maximal_minor():
    # fraction-free spot check: each pivot of a small system divides the
    # determinant of some maximal minor, computed by an independent oracle
    sys_ = PolySystem(3)
    rows = [
        {0: RatFunc.const(1), 1: K, 2: RatFunc.const(2)},
        {0: K, 1: RatFunc.const(1), 2: K * K},
        {1: RatFunc.const(3), 2: K + RatFunc.const(1)},
    ]
    dense = []
    for r in rows:
        sys_.add_row(r)
        dense.append([r.get(c, RF_ZERO) for c in range(3)])
    rank, pivots, _ = sys_.eliminate()
    assert rank == 3
    det = _det(dense).num
    for p in pivots:
        quot, rem = pdivmod(pprimitive(det), pprimitive(p))
        assert rem == ()


@pytest.fixture(scope="module")
def osp_weight4_system():
    P = affine(builtin_lie("osp(1|2)"), K)
    return commutant_system(P, [P.gen("H"), P.gen("Xp"), P.gen("Xm")], 4,
                            weight_basis(P, 4))


def test_engine_coefficients_stay_over_z():
    # every coefficient the engine memoizes and every kernel coordinate
    # holds ints in znum/zden: no Fraction leaks into the integer form
    P = affine(builtin_lie("osp(1|2)"), K)
    report = commutant_basis(P, [P.gen("H"), P.gen("Xp"), P.gen("Xm")], 4)
    coeffs = [c for out in P._memo.values() for _, c in out]
    coeffs += [c for vec in report.kernel_vectors for c in vec]
    assert len(coeffs) > 100
    assert all(type(x) is int for c in coeffs for x in c.znum + c.zden)


def test_eliminate_leaves_input_rows_intact(osp_weight4_system):
    system = osp_weight4_system
    rows = copy.deepcopy(system.rows)
    first = system.eliminate()
    second = system.eliminate()
    assert system.rows == rows
    assert first[:2] == second[:2]  # rank and pivot polynomials
    assert [c for c, _ in first[2]] == [c for c, _ in second[2]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_independent_of_row_order(osp_weight4_system, seed):
    # the pivot rows depend on the row order, the pivot columns and the
    # kernel vectors (one per free column) do not
    system = osp_weight4_system
    rank, _, pivot_rows = system.eliminate()
    shuffled = PolySystem(system.ncols)
    rows = system.original_rows
    for row in random.Random(seed).sample(rows, len(rows)):
        shuffled.add_row(row)
    shuffled_rank, _, shuffled_pivot_rows = shuffled.eliminate()
    assert shuffled_rank == rank
    assert shuffled.kernel(shuffled_pivot_rows) == system.kernel(pivot_rows)


def _random_poly(rng):
    """A polynomial of degree at most 2 in k with small integer coefficients,
    mostly constant so that pivot degrees tie."""
    p = RF_ZERO
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        p = p * K + RatFunc.const(rng.randint(-3, 3))
    return p


def _random_rows(rng):
    """Up to 6x6 sparse rows of differing sparsity, some of them dependent."""
    nrows, ncols = rng.randint(2, 6), rng.randint(1, 6)
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            ca, cb = _random_poly(rng), _random_poly(rng)
            row = {c: a.get(c, RF_ZERO) * ca + b.get(c, RF_ZERO) * cb for c in a.keys() | b.keys()}
        else:
            row = {c: _random_poly(rng) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    return rows, ncols


def _reference_kernel(system, pivot_rows):
    """Back-substitution over Q(k) in RatFunc arithmetic, the kernel's former
    implementation, kept as a reference for the one over Z[k]."""
    rows = [(col, {c: RatFunc(tuple(map(Fraction, v))) for c, v in row.items()})
            for col, row in pivot_rows]
    pivot_set = {col for col, _ in rows}
    out = []
    for free_col in range(system.ncols):
        if free_col in pivot_set:
            continue
        x = [RF_ZERO] * system.ncols
        x[free_col] = RF_ONE
        for col, row in reversed(rows):
            total = RF_ZERO
            for c, v in row.items():
                if c > col and x[c]:
                    total = total + v * x[c]
            if total:
                x[col] = -total / row[col]
        out.append(x)
    return out


def _check_kernel(system, pivots, pivot_rows, kernel):
    """The kernel equals the reference, and every coordinate's denominator
    divides the product of the pivot polynomials."""
    assert kernel == _reference_kernel(system, pivot_rows)
    product = (Fraction(1),)
    for p in pivots:
        product = pmul(product, p)
    for x in kernel:
        for c in x:
            assert pdivmod(product, c.den)[1] == ()


def test_kernel_matches_reference(osp_weight4_system):
    system = osp_weight4_system
    _, pivots, pivot_rows = system.eliminate()
    kernel = system.kernel(pivot_rows)
    _check_kernel(system, pivots, pivot_rows, kernel)
    # no int or float reaches a result
    polys = pivots + [p for vec in kernel for c in vec for p in (c.num, c.den)]
    assert all(type(x) is Fraction for p in polys for x in p)


@pytest.mark.parametrize("seed", range(50))
def test_random_sparse_systems(seed):
    rng = random.Random(seed)
    rows, ncols = _random_rows(rng)
    system = PolySystem(ncols)
    for row in rows:
        system.add_row(row)
    assert system.original_rows == rows
    rank, pivots, pivot_rows = system.eliminate()
    kernel = system.kernel(pivot_rows)
    assert rank + len(kernel) == ncols
    _check_kernel(system, pivots, pivot_rows, kernel)
    for x in kernel:
        for row in rows:
            assert sum((v * x[c] for c, v in row.items()), RF_ZERO) == RF_ZERO
    report = SolveReport(None, 0, None, rank, pivots, kernel, system)
    ng = nongeneric_levels(report)
    excluded = set(ng.certified) | ng.candidates | ng.poles
    levels = []
    while len(levels) < 3:
        k0 = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        if k0 not in excluded:
            levels.append(k0)
    assert [report.rank_at(k0) for k0 in levels] == [rank] * 3


@pytest.mark.parametrize("lie, currents, weight, certified", [
    ("sl2", ["H"], 2, {Fraction(0): (1, 2)}),
    ("sl2", ["H"], 3, {Fraction(0): (2, 3)}),
    ("sl2", ["H"], 4, {Fraction(0): (4, 5)}),
    ("osp(1|2)", ["H", "Xp", "Xm"], 3, {}),
    ("osp(1|2)", ["H", "Xp", "Xm"], 4, {}),
])
def test_certified_nongeneric_levels(lie, currents, weight, certified):
    # the pivot order may change the pivot polynomials and so the candidate
    # levels, but never the certified ones
    P = affine(builtin_lie(lie), K)
    report = commutant_basis(P, [P.gen(name) for name in currents], weight)
    ng = nongeneric_levels(report)
    assert ng.certified == certified
    assert (ng.certified, ng.candidates) == _qsolve_levels(report)


def _qsolve_levels(report):
    """The certified levels and candidates of nongeneric_levels, from qsolve
    alone: every rational root of a pivot or a stripped factor that is not
    a pole, decided by the rank over Q of the rows evaluated there."""
    system = report.system

    def roots(polys):
        return set().union(*(rational_roots(p)[0] for p in polys if len(p) > 1))

    levels = (roots(report.pivot_polys + list(system.stripped_factors))
              - roots(system.cleared_factors))
    certified, candidates = {}, set()
    for k0 in levels:
        rows = [{c: v.evaluate(k0) for c, v in row.items()}
                for row in system.original_rows]
        dim = system.ncols - qsolve(rows, system.ncols)[0]
        if dim != report.kernel_dim:
            certified[k0] = (report.kernel_dim, dim)
        else:
            candidates.add(k0)
    return certified, candidates


def _report(rows, ncols):
    system = PolySystem(ncols)
    for row in rows:
        system.add_row(row)
    rank, pivots, pivot_rows = system.eliminate()
    return SolveReport(None, 0, None, rank, pivots, system.kernel(pivot_rows), system)


@pytest.mark.parametrize("rows, ncols, certified", [
    # rows {0: 1, 1: 1} and {0: 1, 1: 1 + k}: k is stripped during eliminate
    ([{0: RF_ONE, 1: RF_ONE}, {0: RF_ONE, 1: K + RF_ONE}], 2, {Fraction(0): (0, 1)}),
    # the single row {0: k, 1: k}: k is stripped in add_row
    ([{0: K, 1: K}], 2, {Fraction(0): (1, 2)}),
])
def test_stripped_factors_are_certified(rows, ncols, certified):
    report = _report(rows, ncols)
    assert report.system.stripped_factors == {(0, 1)}
    assert nongeneric_levels(report).certified == certified


def _rank_at(monkeypatch, report, k0):
    """report.rank_at(k0), and whether it called qsolve."""
    calls = []

    def counted(rows, ncols):
        calls.append(k0)
        return qsolve(rows, ncols)

    monkeypatch.setattr(linear, "qsolve", counted)
    return report.rank_at(k0), bool(calls)


P61 = RatFunc.const(RANK_PRIME)


@pytest.mark.parametrize("rows, k0, mod_p", [
    # an entry equal to p: the rows are proportional mod p but not over Q
    ([{0: K, 1: P61}, {0: RF_ONE}], 3, 1),
    # an entry whose denominator k - p vanishes mod p at k = 0, but not over Q
    ([{0: RF_ONE / (K - P61)}, {1: RF_ONE}], 0, None),
    # a coefficient 1/p
    ([{0: K / P61}, {1: RF_ONE}], 1, None),
    # a level whose denominator is p
    ([{0: K + RF_ONE}, {1: RF_ONE}], Fraction(1, RANK_PRIME), None),
])
def test_rank_at_falls_back_to_qsolve(monkeypatch, rows, k0, mod_p):
    report = _report(rows, 2)
    assert report.generic_rank == 2
    assert rank_mod_p(report.system.original_rows, 2, k0) == mod_p
    assert _rank_at(monkeypatch, report, k0) == (2, True)


def test_rank_at_generic_level_skips_qsolve(monkeypatch, osp_weight4_system):
    report = _solve(osp_weight4_system, None, 4, None)
    assert _rank_at(monkeypatch, report, Fraction(345678, 543)) == (report.generic_rank, False)


def test_rank_at_pole_still_raises():
    # 1/(k + 1) at k = -1 cannot be evaluated mod p either; qsolve raises
    report = _report([{0: RF_ONE / (K + RF_ONE)}, {1: RF_ONE}], 2)
    assert rank_mod_p(report.system.original_rows, 2, -1) is None
    with pytest.raises(EvaluationAtPole):
        report.rank_at(-1)


def test_rank_at_above_generic_rank_is_a_contradiction():
    report = _report([{0: RF_ONE, 1: K}, {1: RF_ONE}], 2)
    assert report.rank_at(5) == 2
    report.generic_rank = 1
    with pytest.raises(LinearError, match="exceeds the generic rank"):
        report.rank_at(5)


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = RF_ZERO
    for j, entry in enumerate(m[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = total + (entry if j % 2 == 0 else -entry) * _det(minor)
    return total


def _minor_gcd_roots(dense):
    """Rational roots of the gcd of the nonzero maximal minors: exactly the
    levels where the rank of a polynomial matrix drops."""
    from itertools import combinations

    from test_coefficients import euclid_gcd

    nrows, ncols = len(dense), len(dense[0])
    for size in range(min(nrows, ncols), 0, -1):
        g = ()
        for rs in combinations(range(nrows), size):
            for cs in combinations(range(ncols), size):
                d = _det([[dense[r][c] for c in cs] for r in rs])
                g = euclid_gcd(g, d.num) if g else d.num
        if g:
            return set(rational_roots(g)[0]) if len(g) > 1 else set()
    return set()


@pytest.mark.parametrize("seed", range(30))
def test_certificate_matches_minor_gcd(seed):
    # rows g(k)*row with g a product of linear factors, so that gcds are
    # stripped; some rows are combinations of earlier ones
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
    dense = []
    for _ in range(nrows):
        if len(dense) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(dense, 2)
            row = [x + y * RatFunc.const(rng.randint(-2, 2)) for x, y in zip(a, b)]
        else:
            row = [RF_ZERO] * ncols
            for c in rng.sample(range(ncols), rng.randint(1, ncols)):
                row[c] = K * RatFunc.const(rng.randint(-2, 2)) + RatFunc.const(rng.randint(-2, 2))
        g = RF_ONE
        for _ in range(rng.randint(0, 2)):
            g = g * (K - RatFunc.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        row = [x * g for x in row]
        if any(row):
            dense.append(row)
    if not dense:
        return
    report = _report([{c: v for c, v in enumerate(row) if v} for row in dense], ncols)
    assert set(nongeneric_levels(report).certified) == _minor_gcd_roots(dense)


def test_levels_and_weights_are_exact():
    P = affine(builtin_lie("sl2"), K)
    H = P.gen("H")
    report = commutant_basis(P, [H], 2)
    for call in (
        lambda: (K + RF_ONE).evaluate(0.1),
        lambda: report.rank_at(0.1),
        lambda: report.kernel_dim_at(0.5),
        lambda: weight_basis(P, 2.0),
        lambda: basis_size(_bases(P), 2.0),
    ):
        with pytest.raises(TypeError):
            call()
    assert (K + RF_ONE).evaluate(Fraction(1, 10)) == Fraction(11, 10)
    assert report.kernel_dim_at(1) == report.kernel_dim_at(Fraction(1)) == 1
    assert len(weight_basis(P, 2)) == len(weight_basis(P, Fraction(2)))


def test_find_relation_sl3_family():
    # :q12_{0,0} c_{1,0,0}: - :q12_{1,0} c_{0,0,0}: = -(1/6) c_{3,0,0}
    H6 = heisenberg_pairs(3)
    fns = parafermion_sl3_generators(H6)
    q, c = fns["q"], fns["c"]
    target = c(3, 0, 0)
    gens = [q(0, 0, 0), q(0, 1, 0), c(1, 0, 0), c(0, 0, 0)]
    rel = find_relation(H6, target, gens)
    assert isinstance(rel, Relation)
    assert rel.verify()
    lhs = q(0, 0, 0).no(c(1, 0, 0)) - q(0, 1, 0).no(c(0, 0, 0))
    assert lhs == target * RatFunc.const(Fraction(-1, 6))


def test_find_relation_trivial_target():
    H = heisenberg(1)
    a = H.gen(0)
    rel = find_relation(H, a, [a])
    assert isinstance(rel, Relation)
    assert rel.multiplier == RF_ONE
    assert rel.combination == a


def test_find_relation_obstruction():
    H = heisenberg(1)
    target = H.gen(0, 1)  # d(a) is not a word in :aa:
    rel = find_relation(H, target, [H.gen(0).no(H.gen(0))])
    assert isinstance(rel, Obstruction)
    assert (rel.words_rank, rel.combined_rank) == (1, 2)


def test_find_relation_dependent_word_columns():
    # repeating L doubles every word, so half the word columns are free;
    # the relation must be the one found without the repeat
    P = affine(builtin_lie("osp(1|2)"), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    L = osp_coset_virasoro(P)
    target = pin_commutant_element(
        commutant_basis(P, currents, 4), odd_pair_shape(P, "phip", "phim", 1)
    )
    single = find_relation(P, target, [L])
    double = find_relation(P, target, [L, L])
    assert isinstance(double, Relation) and double.verify()
    assert double.multiplier == single.multiplier == K + 4
    assert double.word_coeffs == single.word_coeffs


def test_solve_free_column_and_inconsistency():
    # x0 + k x1 = k + 1 with x1 free: x = (k + 1, 0), ranks 1 and 1
    x, rank, combined = solve([{0: RF_ONE, 1: K}], [K + 1], 2)
    assert x == [K + 1, RatFunc.const(0)] and (rank, combined) == (1, 1)
    # x0 = 1 and k x0 = 1 disagree for generic k
    x, rank, combined = solve([{0: RF_ONE}, {0: K}], [RF_ONE, RF_ONE], 1)
    assert x is None and (rank, combined) == (1, 2)


def test_nongeneric_parafermion():
    P = affine(builtin_lie("sl2"), K)
    report = commutant_basis(P, [P.gen("H")], 2)
    ng = nongeneric_levels(report)
    assert set(ng.certified) == {Fraction(0)}
    assert not ng.candidates


def test_nongeneric_constant_system():
    H2 = heisenberg(2)
    report = commutant_basis(H2, [H2.gen(0) + H2.gen(1)], 1)
    ng = nongeneric_levels(report)
    assert not ng.certified and not ng.candidates and not ng.poles


def test_closure_of_commutant_brackets():
    # products of low-weight commutant elements stay in the commutant span
    P = affine(builtin_lie("sl2"), K)
    H = P.gen("H")
    w2 = commutant_basis(P, [H], 2).kernel_elements()[0]
    for w in (3, 4):
        kernel = commutant_basis(P, [H], w).kernel_elements()
        for v in commutant_basis(P, [H], w - 2).kernel_elements():
            out = P.nprod(w2, v, 0)  # weight (2 + (w-2) - 1) = w - 1 ... use n = -1 for weight w
            out = P.normal_order(w2, v)
            assert verify_commutant(P, out, [H])
            rel = find_relation(P, out, kernel)
            assert isinstance(rel, Relation) and rel.verify()


def test_decoupling_free_case_constant_multiplier():
    # A(1)^{Sp2}: w^2 decouples through w^0 with a constant multiplier
    A1 = symplectic_fermion(1)
    acts = [
        (None, {0: {((1, 0),): RatFunc.const(-2)}}),
        (None, {1: {((0, 0),): RatFunc.const(2)}}),
        (None, {0: {((0, 0),): RatFunc.const(-1)}, 1: {((1, 0),): RatFunc.const(1)}}),
    ]
    from vertexalg.constructions import a_orbifold_w

    w0 = a_orbifold_w(A1, 1, 0)
    w2 = a_orbifold_w(A1, 1, 1)
    report = decoupling_multiplier(A1, acts, [w0], 4, target=w2)
    assert report.multiplier == RF_ONE
    assert not report.roots and not report.poles
    assert report.relation.verify()


def test_decoupling_dimension_hypothesis_error():
    # no words of weight 3 exist in a weight-2 generator against a
    # 2-dimensional commutant: the dimension hypothesis fails
    P = affine(builtin_lie("sl2"), K)
    H = P.gen("H")
    w2 = commutant_basis(P, [H], 2).kernel_elements()[0]
    with pytest.raises(LinearError):
        decoupling_multiplier(P, [H], [w2], 3, target=commutant_basis(P, [H], 3).kernel_elements()[0])


def test_decoupling_charge_filter_is_exact():
    # kernel elements have H-charge 0, so restricting the weight-4 solve to
    # that subspace by charge_currents gives the report of the default
    # solve_basis, the basis the osp-coset suite solves on
    P = affine(builtin_lie("osp(1|2)"), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    L = osp_coset_virasoro(P)
    shape = odd_pair_shape(P, "phip", "phim", 1)
    full = decoupling_multiplier(P, currents, [L], 4, target_shape=shape)
    filtered = decoupling_multiplier(P, currents, [L], 4, target_shape=shape,
                                     charge_currents=[P.gen("H")])
    assert filtered.serialize() == full.serialize()
    assert full.serialize()["multiplier_roots"] == {"-4": 1}


def test_enumerate_words_weight6_virasoro():
    P = affine(builtin_lie("osp(1|2)"), K)
    L = osp_coset_virasoro(P)
    words = enumerate_words(P, [L], 6)
    assert len(words) == 4  # :LLL:, :L d^2 L:, :dL dL:, d^4 L


def test_invariant_basis_rejects_empty_action():
    with pytest.raises(LinearError):
        invariant_basis(heisenberg(1), [(None, None)], 2)


def test_zero_current_is_rejected():
    # a zero current has no weight, and it would annihilate everything
    P = affine(builtin_lie("sl2"), K)
    H = P.gen("H")
    for check in (
        lambda: commutant_basis(P, [H, H - H], 2),
        lambda: verify_commutant(P, H.no(H), [P.zero()]),
        lambda: invariant_basis(P, [(P.zero(), {})], 2),
    ):
        with pytest.raises(LinearError, match="current [12] of [12] is zero"):
            check()


def test_invariance_vs_commutant():
    tau = tau_embedding(1)
    S1 = tau.target
    from vertexalg.constructions import s_orbifold_w

    w1 = s_orbifold_w(S1, 1, 0)
    assert verify_invariant(S1, w1, tau.images)
    # the tau embedding is conformal, so the coset condition fails at n = 1
    assert not verify_commutant(S1, w1, tau.images)


def test_verify_commutant_on_the_cleared_element():
    # the weight-6 deformation of the osp(1|2)/sp2 coset, pinned as the
    # osp-coset suite pins it, has poles at -2, -3/2, -4 and -8/3; both
    # checks clear its denominators first, so a multiple by a nonconstant
    # RatFunc passes and a changed coefficient fails
    P = affine(builtin_lie("osp(1|2)"), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    basis = charge_filter(weight_basis(P, 6), [P.gen("H")])
    com = commutant_basis(P, currents, 6, basis=basis)
    target = pin_commutant_element(com, odd_pair_shape(P, "phip", "phim", 2))
    assert any(len(c.den) > 1 for c in target.data.values())
    assert verify_commutant(P, target, currents)
    assert verify_commutant(P, target * ((K + RatFunc.const(3)) / (K - RatFunc.const(5))),
                            currents)
    first, last = min(target.data), max(target.data)
    for M, change in ((first, RF_ONE), (last, RF_ONE / (K + RatFunc.const(7)))):
        changed = P.element({**target.data, M: target.data[M] + change})
        assert not verify_invariant(P, changed, currents)
        assert not verify_commutant(P, changed, currents)


# ---------------------------------------------------------------------------
# Commutant rows from a generating set of the current modes


def _mode_rows(P, actions, basis, modes):
    """A PolySystem with the rows of the given current modes n, written here
    from P.nprod and apply_derivation alone: actions are (current,
    derivation) pairs, and each mode n of each action gives one row per
    target monomial, actions first, then n."""
    system = PolySystem(len(basis))
    for current, derivation in actions:
        for n in modes:
            rows = {}
            for col, M in enumerate(basis.monomials):
                x = P.element({M: 1})
                image = P.nprod(current, x, n) if current is not None else P.zero()
                if n == 0 and derivation is not None:
                    image = image + apply_derivation(P, derivation, x)
                for T, c in image.data.items():
                    rows.setdefault(T, {})[col] = c
            for T in sorted(rows):
                system.add_row(rows[T])
    return system


def _all_modes(P, actions, basis):
    """The rows of every mode n = 0..ceil(w) of every action."""
    return _mode_rows(P, actions, basis, range(ceil(basis.weight) + 1))


def _solve(system, P, w, basis):
    rank, pivots, pivot_rows = system.eliminate()
    return SolveReport(P, w, basis, rank, pivots, system.kernel(pivot_rows), system)


@pytest.mark.parametrize("lie, weight, charge0, certified", [
    ("osp(1|2)", 2, False, {}),
    ("osp(1|2)", 3, False, {}),
    ("osp(1|2)", 4, False, {}),
    ("osp(1|2)", 4, True, {}),
    ("osp(1|2)", 6, True, {}),
    ("sl2", 2, False, {Fraction(-2): (0, 1)}),
    ("sl2", 3, False, {Fraction(-2): (0, 1)}),
])
def test_reduced_system_equals_all_mode_system(lie, weight, charge0, certified):
    # rows from a generating set of the modes have the kernel of the rows
    # from every mode, at the generic level and at every level tried
    P = affine(builtin_lie(lie), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    basis = weight_basis(P, weight)
    if charge0:
        basis = charge_filter(basis, [P.gen("H")])
    reduced = commutant_basis(P, currents, weight, basis=basis)
    full = _solve(_all_modes(P, [(J, None) for J in currents], basis), P, weight, basis)
    full_rows = full.system.original_rows
    assert len(reduced.system.original_rows) < len(full_rows)
    # each reduced row is a full row, so at every level the full kernel lies
    # in the reduced one, and neither is smaller than the generic kernel:
    # the full kernel dimension can jump only where the reduced one does
    assert all(row in full_rows for row in reduced.system.original_rows)
    assert reduced.generic_rank == full.generic_rank
    assert reduced.kernel_vectors == full.kernel_vectors
    assert nongeneric_levels(reduced).certified == certified
    assert nongeneric_levels(full).certified == certified
    rng = random.Random(weight)
    levels = list(certified) + [Fraction(rng.randint(1, 30), rng.randint(1, 5))
                                for _ in range(3)]
    for k0 in levels:
        assert reduced.kernel_dim_at(k0) == full.kernel_dim_at(k0)


def test_reduced_rows_osp_weight4(osp_weight4_system):
    # the zero modes and H(1) in place of the modes 0..4 of H, Xp and Xm
    P = affine(builtin_lie("osp(1|2)"), K)
    basis = weight_basis(P, 4)
    actions = [(P.gen(name), None) for name in ("H", "Xp", "Xm")]
    assert len(_all_modes(P, actions, basis).original_rows) == 641
    assert len(osp_weight4_system.original_rows) == 459
    expected = (_mode_rows(P, actions[:1], basis, [0, 1]).original_rows
                + _mode_rows(P, actions[1:], basis, [0]).original_rows)
    assert osp_weight4_system.original_rows == expected


def _sl2_without_h():
    # [Xp, Xm] = H leaves the span of the currents
    P = affine(builtin_lie("sl2"), K)
    return P, [P.gen("Xp"), P.gen("Xm")], 2


def _outer_derivation():
    AS, actions, _ = as_diagonal_sp_action(1)
    return AS, actions, 2


def _parafermion():
    # one abelian current: its positive modes commute, none is generated
    P = affine(builtin_lie("sl2"), K)
    return P, [P.gen("H")], 3


def _two_heisenberg():
    # two commuting currents: the abelian case of the bracket closure
    P = heisenberg(2)
    return P, [P.gen("a1"), P.gen("a2")], 3


@pytest.mark.parametrize("case", [_sl2_without_h, _outer_derivation, _parafermion,
                                  _two_heisenberg])
def test_commutant_rows_keep_every_mode(case):
    P, actions, weight = case()
    basis = weight_basis(P, weight)
    pairs = [a if isinstance(a, tuple) else (a, None) for a in actions]
    expected = _all_modes(P, pairs, basis).original_rows
    assert commutant_system(P, actions, weight, basis).original_rows == expected


def test_zero_mode_rows_alone_miss_the_commutant():
    # without a mode of degree one the kernel is too large: at weight 2 on
    # osp(1|2) it holds sp2-invariants that a positive mode does not kill
    P = affine(builtin_lie("osp(1|2)"), K)
    currents = [P.gen("H"), P.gen("Xp"), P.gen("Xm")]
    basis = weight_basis(P, 2)
    zero_modes = _solve(_mode_rows(P, [(J, None) for J in currents], basis, [0]),
                        P, 2, basis)
    rejected = [v for v in zero_modes.kernel_elements()
                if not verify_commutant(P, v, currents)]
    assert rejected
    assert commutant_basis(P, currents, 2).kernel_dim < zero_modes.kernel_dim


# ---------------------------------------------------------------------------
# Commutant solves on the charge-0 sub-basis


def _currents(algebra, names):
    """The algebra, its currents and the diagonal ones among them: the
    Cartan currents of an affine algebra, or J = H - :b c: on sl2 (x) bc."""
    if algebra == "sl2*bc":
        P = affine(builtin_lie("sl2"), K).tensor(bc_system(1))
        J = P.gen("H") - P.gen("b").no(P.gen("c"))
        return P, [J], [J]
    P = affine(builtin_lie(algebra), K)
    names = names.split(",")
    return (P, [P.gen(name) for name in names],
            [P.gen(name) for name in names if name.startswith("H")])


@pytest.mark.parametrize("algebra, names, weight, columns", [
    ("sl2", "H", 2, (9, 3)),
    ("sl2", "H", 3, (22, 6)),
    ("sl2", "H", 4, (51, 13)),
    ("sl3", "H1,H2", 3, (192, 24)),
    ("osp(1|2)", "H,Xp,Xm", 4, (149, 23)),
    ("sl2*bc", "H - :b c:", 2, (16, 6)),
])
def test_default_solve_is_the_full_basis_solve(algebra, names, weight, columns):
    # a diagonal zero mode forces every coordinate of nonzero charge to 0,
    # so the charge-0 solve has the kernel, the kernel vectors and the jump
    # levels of the solve on the whole weight basis
    P, currents, diagonal = _currents(algebra, names)
    full_basis = weight_basis(P, weight)
    full = commutant_basis(P, currents, weight, basis=full_basis)
    default = commutant_basis(P, currents, weight)
    assert default.basis.monomials == charge_filter(full_basis, diagonal).monomials
    assert (len(full.basis), len(default.basis)) == columns
    assert default.kernel_elements() == full.kernel_elements()
    ng_full, ng_default = nongeneric_levels(full), nongeneric_levels(default)
    assert ng_default.serialize() == ng_full.serialize()
    for k0 in set(ng_full.certified) | {Fraction(1), Fraction(7, 3)}:
        assert default.kernel_dim_at(k0) == full.kernel_dim_at(k0), k0


def _xp_alone():
    P = affine(builtin_lie("sl2"), K)
    return P, [P.gen("Xp")], 2


@pytest.mark.parametrize("case, kernel_dim", [(_xp_alone, 2), (_outer_derivation, 1)])
def test_default_solve_keeps_the_full_basis_without_a_diagonal_current(case, kernel_dim):
    # Xp does not act diagonally, and the zero mode of an action with an
    # outer derivation is current(0) + derivation, not current(0): neither
    # gives a charge to filter by
    P, actions, weight = case()
    report = commutant_basis(P, actions, weight)
    assert len(report.basis) == basis_size(_bases(P), weight)
    assert report.kernel_dim == kernel_dim


def test_non_constant_charges_get_no_filter():
    # the charge of (k)*H vanishes at k = 0, so solve_basis keeps every
    # monomial; the kernel is still that of H, whose filter drops 6 of 9
    P = affine(builtin_lie("sl2"), K)
    H = P.gen("H")
    scaled = commutant_basis(P, [H * K], 2)
    plain = commutant_basis(P, [H], 2)
    assert (len(scaled.basis), len(plain.basis)) == (9, 3)
    assert scaled.kernel_dim == plain.kernel_dim
    assert all(verify_commutant(P, v, [H]) for v in scaled.kernel_elements())
