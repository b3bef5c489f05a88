"""Lie presentations: validation, built-ins, dual bases, Casimir data."""

import copy
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from vertexalg.lie import (
    LieError,
    LiePresentation,
    NotSimpleError,
    builtin_lie,
    builtin_names,
    lie_from_constants,
    lie_from_matrices,
)


def test_sl2_from_constants():
    half = Fraction(1, 2)
    L = lie_from_constants(
        [("H", "even"), ("Xp", "even"), ("Xm", "even")],
        {
            (0, 1): {1: 1}, (1, 0): {1: -1},
            (0, 2): {2: -1}, (2, 0): {2: 1},
            (1, 2): {0: 2}, (2, 1): {0: -2},
        },
        [[half, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
    assert L.dual_coxeter() == 2


def test_invariance_failure_detected():
    # B(Xp, Xm) = B(H, H) = 1 is not invariant for [Xp, Xm] = 2H:
    # B([H, Xp], Xm) = 1 but B(H, [Xp, Xm]) = 2
    with pytest.raises(LieError, match="invariant"):
        lie_from_constants(
            [("H", "even"), ("Xp", "even"), ("Xm", "even")],
            {
                (0, 1): {1: 1}, (1, 0): {1: -1},
                (0, 2): {2: -1}, (2, 0): {2: 1},
                (1, 2): {0: 2}, (2, 1): {0: -2},
            },
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        )


def test_jacobi_failure_names_triple():
    with pytest.raises(LieError, match="Jacobi"):
        lie_from_constants(
            [("a", "even"), ("b", "even"), ("c", "even")],
            {
                (0, 1): {2: 1}, (1, 0): {2: -1},
                (1, 2): {0: 1}, (2, 1): {0: -1},
                (0, 2): {2: 1}, (2, 0): {2: -1},
            },
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        )


def _dense_validation_message(names, parities, brackets, form):
    """The first Jacobi or invariance failure, over every triple.

    Brackets of unit vectors are expanded in full, whether or not they
    vanish, so this is an independent reference for the sparse checks.
    """
    def bracket(x, y):
        out = {}
        for (i, a), (j, b) in product(x.items(), y.items()):
            for m, c in brackets.get((i, j), {}).items():
                out[m] = out.get(m, 0) + a * b * c
        return {m: c for m, c in out.items() if c}

    def pair(x, y):
        return sum(a * b * form[i][j] for (i, a), (j, b) in product(x.items(), y.items()))

    unit = [{i: Fraction(1)} for i in range(len(names))]
    triples = list(product(range(len(names)), repeat=3))
    for i, j, m in triples:
        sign = -1 if (parities[i] and parities[j]) else 1
        rhs = bracket(bracket(unit[i], unit[j]), unit[m])
        for t, c in bracket(unit[j], bracket(unit[i], unit[m])).items():
            rhs[t] = rhs.get(t, 0) + sign * c
        if bracket(unit[i], bracket(unit[j], unit[m])) != {t: c for t, c in rhs.items() if c}:
            return f"Jacobi identity fails on triple ({names[i]}, {names[j]}, {names[m]})"
    for i, j, m in triples:
        if pair(bracket(unit[i], unit[j]), unit[m]) != pair(unit[i], bracket(unit[j], unit[m])):
            return f"form not invariant on triple ({names[i]}, {names[j]}, {names[m]})"
    return None


def _shifted(L, brackets, form, rng, shift, in_form):
    """Copies of the tables with one structure constant (and its
    super-antisymmetric partner) or one form entry (and its supersymmetric
    partner) shifted."""
    brackets = {key: dict(comp) for key, comp in brackets.items()}
    form = [list(row) for row in form]
    if not in_form:
        i, j = rng.choice([(i, j) for i, j in sorted(brackets) if i != j])
        m = rng.choice(sorted(brackets[i, j]))
        brackets[i, j][m] += shift
        brackets[j, i][m] -= (-1 if (L.parities[i] and L.parities[j]) else 1) * shift
    else:
        i, j = rng.choice([(i, j) for i, j in product(range(L.dim), repeat=2)
                           if form[i][j] and i <= j])
        form[i][j] += shift
        if i != j:
            form[j][i] += (-1 if (L.parities[i] and L.parities[j]) else 1) * shift
    return brackets, form


def _assert_fails_as_dense_reference(L, brackets, form):
    want = _dense_validation_message(L.names, L.parities, brackets, form)
    assert want is not None
    with pytest.raises(LieError) as err:
        LiePresentation(L.names, L.parities, brackets, form)
    assert str(err.value) == want


def test_sparse_checks_match_dense_reference():
    # integer and fractional shifts: the checks run on tables scaled by the
    # lcm of their denominators, which a shift by 1/3 or 3/2 changes
    rng = random.Random(61)
    shifts = (-2, -1, 1, 2, Fraction(-1, 3), Fraction(1, 3), Fraction(-3, 2), Fraction(3, 2))
    for name in ("sl3", "osp(1|2)"):
        L = builtin_lie(name)
        for t in range(12):
            brackets, form = _shifted(L, L.brackets, L.form, rng, rng.choice(shifts), t % 2)
            _assert_fails_as_dense_reference(L, brackets, form)


def _rescaled(L, lam):
    """The tables of L in the basis y_i = lam_i x_i."""
    brackets = {(i, j): {m: c * lam[i] * lam[j] / lam[m] for m, c in comp.items()}
                for (i, j), comp in L.brackets.items()}
    form = [[c * lam[i] * lam[j] for j, c in enumerate(row)] for i, row in enumerate(L.form)]
    return brackets, form


@pytest.mark.parametrize("name, digits", [("sl3", 40), ("sp4", 300)])
def test_rescaled_algebras_match_dense_reference(name, digits):
    # distinct large rationals make the lcm of the denominators, and so the
    # integer tables, large; validation must stay exact and fast
    rng = random.Random(digits)
    L = builtin_lie(name)
    big = lambda: rng.randrange(10 ** (digits - 1), 10 ** digits)
    brackets, form = _rescaled(L, [Fraction(big(), big()) for _ in range(L.dim)])
    start = time.perf_counter()
    LiePresentation(L.names, L.parities, brackets, form)
    assert time.perf_counter() - start < 2
    for in_form in (0, 1):
        shift = Fraction(big(), big())
        _assert_fails_as_dense_reference(L, *_shifted(L, brackets, form, rng, shift, in_form))


def test_builtin_lie_returns_fresh_objects():
    # no cache: each call builds its own tables, and mutating one result
    # does not reach the next
    first, second = builtin_lie("sl2"), builtin_lie("sl2")
    assert first is not second
    want = copy.deepcopy((first.brackets, first.form))
    first.brackets[(0, 1)][1] += 1
    del first.brackets[(1, 2)]
    first.form = ((1,),)
    for L in (second, builtin_lie("sl2")):
        assert (L.brackets, L.form) == want


def test_matrix_brackets_expand_both_orders(monkeypatch):
    built = []

    def recording(names, matrices, **kwargs):
        built.append((real(names, matrices, **kwargs), matrices, kwargs))
        return built[-1][0]

    real = lie_from_matrices
    monkeypatch.setattr("vertexalg.lie.lie_from_matrices", recording)
    for name in builtin_names():
        builtin_lie(name)
    assert {L.name for L, _, _ in built} == {
        "sl2", "sl3", "sp2", "sp4", "so1", "so2", "so3", "osp(1|2)", "gl1", "gl2", "gl3"}

    def mul(a, b):
        return [[sum(a[r][t] * b[t][s] for t in range(len(b))) for s in range(len(b[0]))]
                for r in range(len(a))]

    for L, mats, kwargs in built:
        scale = kwargs.get("form_scale", 1)
        grade = lambda r: int(r in kwargs.get("odd_rows", ()))
        for i, mat in enumerate(mats):
            assert {(grade(r) + grade(s)) % 2 for r, row in enumerate(mat)
                    for s, v in enumerate(row) if v} == {L.parities[i]}
        for i, j in product(range(L.dim), repeat=2):
            sign = -1 if L.parities[i] and L.parities[j] else 1
            ab, ba = mul(mats[i], mats[j]), mul(mats[j], mats[i])
            comm = [[x - sign * y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            expanded = [[sum(c * mats[m][r][s] for m, c in L.bracket(i, j).items())
                         for s in range(len(comm))] for r in range(len(comm))]
            assert expanded == comm, (L.name, L.names[i], L.names[j])
            supertrace = sum((-1) ** grade(r) * ab[r][r] for r in range(len(ab)))
            assert L.form[i][j] == scale * supertrace, (L.name, L.names[i], L.names[j])


# osp(1|2) as the table of brackets and form read off the affine OPE display
# (both orders of every bracket)
OSP12_TABLE = (
    ("H", "Xp", "Xm", "phip", "phim"),
    (0, 0, 0, 1, 1),
    {
        (0, 1): {1: 1}, (1, 0): {1: -1},
        (0, 2): {2: -1}, (2, 0): {2: 1},
        (1, 2): {0: 2}, (2, 1): {0: -2},
        (0, 3): {3: Fraction(1, 2)}, (3, 0): {3: Fraction(-1, 2)},
        (0, 4): {4: Fraction(-1, 2)}, (4, 0): {4: Fraction(1, 2)},
        (1, 4): {3: -1}, (4, 1): {3: 1},
        (2, 3): {4: -1}, (3, 2): {4: 1},
        (3, 3): {1: Fraction(1, 2)},
        (4, 4): {2: Fraction(-1, 2)},
        (3, 4): {0: Fraction(1, 2)}, (4, 3): {0: Fraction(1, 2)},
    },
    (
        (Fraction(1, 2), 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 0, 0, Fraction(1, 2)),
        (0, 0, 0, Fraction(-1, 2), 0),
    ),
)


def test_osp12_supermatrices_give_the_keyed_table():
    L = builtin_lie("osp(1|2)")
    names, parities, brackets, form = OSP12_TABLE
    assert (L.names, L.parities, L.brackets, L.form) == (names, parities, brackets, form)
    assert L.same_structure(LiePresentation(names, parities, brackets, form))


def test_matrix_mixing_parities_is_rejected():
    # in gl(1|1) with the second row odd, E11 is even and E12 odd
    mixed = [[1, 1], [0, 0]]
    with pytest.raises(LieError, match="mixes even and odd"):
        lie_from_matrices(["X"], [mixed], odd_rows={1})


def test_builtin_catalog_validates():
    for name in ["sl2", "sl3", "sp2", "sp4", "osp(1|2)", "gl(1)", "gl(2)", "so2", "so3"]:
        L = builtin_lie(name)
        assert L.dim >= 0  # constructor runs the full validation


def test_unknown_builtin():
    with pytest.raises(LieError):
        builtin_lie("e8")


def test_abelian_heisenberg_source():
    L = builtin_lie("gl(1)")
    assert L.dim == 1 and L.form[0][0] == 1 and not L.brackets


def test_dual_basis_sl2():
    L = builtin_lie("sl2")
    duals = L.dual_basis()
    by_name = lambda vec: {L.names[m]: c for m, c in vec.items()}
    assert by_name(duals[L.names.index("H")]) == {"H": 2}
    assert by_name(duals[L.names.index("Xp")]) == {"Xm": 1}
    assert by_name(duals[L.names.index("Xm")]) == {"Xp": 1}


def test_dual_basis_pairing_property():
    for name in ["sl2", "sl3", "sp4", "osp(1|2)"]:
        L = builtin_lie(name)
        duals = L.dual_basis()
        for i in range(L.dim):
            for j in range(L.dim):
                want = Fraction(1 if i == j else 0)
                assert L.form_vectors(duals[i], {j: Fraction(1)}) == want


def test_dual_basis_orthonormal_abelian():
    L = builtin_lie("gl(1)")
    assert L.dual_basis() == [{0: Fraction(1)}]


def test_osp12_matches_papers_opes():
    L = builtin_lie("osp(1|2)")
    fp, fm = L.names.index("phip"), L.names.index("phim")
    xp = L.names.index("Xp")
    assert L.bracket(fp, fp) == {xp: Fraction(1, 2)}
    assert L.form[fp][fm] == Fraction(1, 2)
    assert L.form[fm][fp] == Fraction(-1, 2)
    assert L.dual_coxeter() == Fraction(3, 2)
    assert L.sdim() == 1


def test_dual_coxeter_values():
    assert builtin_lie("sl2").dual_coxeter() == 2
    assert builtin_lie("sl3").dual_coxeter() == 3
    assert builtin_lie("sp2").dual_coxeter() == 2
    assert builtin_lie("sp4").dual_coxeter() == 3


def test_casimir_not_scalar_on_gl2():
    with pytest.raises(NotSimpleError):
        builtin_lie("gl(2)").dual_coxeter()


def _unit(i, j):
    return [[Fraction(int((r, c) == (i, j))) for c in range(2)] for r in range(2)]


def test_matrices_not_closed():
    # [E12, E21] = E11 - E22 is not in the span of E12 and E21
    with pytest.raises(LieError, match="not in the span"):
        lie_from_matrices(["E12", "E21"], [_unit(0, 1), _unit(1, 0)])


def test_matrices_linearly_dependent():
    twice = [[2 * c for c in row] for row in _unit(0, 1)]
    with pytest.raises(LieError, match="linearly dependent"):
        lie_from_matrices(["E12", "F"], [_unit(0, 1), twice])


def test_degenerate_form():
    # abelian with the zero form: valid, but it has no dual basis
    L = lie_from_constants([("a", "even"), ("b", "even")], {}, [[0, 0], [0, 0]])
    with pytest.raises(LieError, match="form is degenerate"):
        L.dual_basis()
