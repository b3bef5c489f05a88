"""Finite-dimensional Lie (super)algebras given by structure constants.

A presentation stores a basis with parities, sparse structure constants
f_{ij}^m over Q, and an invariant bilinear form.  Validation checks
super-antisymmetry, the super Jacobi identity on all triples, and
invariance/supersymmetry of the form.  Every built-in is built from
explicit supermatrices in its defining representation, so its constants are
computed, not keyed in: the classical families from even matrices with the
trace form, and osp(1|2) from matrices in gl(2|1) with the supertrace form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .coefficients import Rational, qsolve


class LieError(ValueError):
    pass


class NotSimpleError(LieError):
    pass


EVEN, ODD = 0, 1


class LiePresentation:
    """Validated structure-constant presentation with invariant form."""

    def __init__(self, names, parities, brackets, form, name="lie"):
        self.name = name
        self.names = tuple(names)
        self.parities = tuple(parities)
        self.dim = len(self.names)
        # brackets: dict (i, j) -> dict m -> Fraction, sparse, both orders stored
        self.brackets = {k: dict(v) for k, v in brackets.items() if v}
        self.form = tuple(tuple(Fraction(c) for c in row) for row in form)
        self._validate()

    # -- accessors ----------------------------------------------------------

    def bracket(self, i: int, j: int) -> dict:
        return self.brackets.get((i, j), {})

    def sdim(self) -> int:
        return sum(1 if p == EVEN else -1 for p in self.parities)

    def same_structure(self, other) -> bool:
        return (
            isinstance(other, LiePresentation)
            and self.names == other.names
            and self.parities == other.parities
            and self.brackets == other.brackets
            and self.form == other.form
        )

    def bracket_vectors(self, x: dict, y: dict) -> dict:
        """Bracket of two coordinate vectors (dicts index -> Fraction)."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for m, c in self.bracket(i, j).items():
                    out[m] = out.get(m, Fraction(0)) + a * b * c
        return {m: c for m, c in out.items() if c}

    def form_vectors(self, x: dict, y: dict) -> Fraction:
        total = Fraction(0)
        for i, a in x.items():
            for j, b in y.items():
                total += a * b * self.form[i][j]
        return total

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Check the axioms on integer tables: the constants times the lcm
        of their denominators, and the form times the lcm of its own.
        Antisymmetry and supersymmetry are linear, Jacobi is homogeneous of
        degree 2 in the constants and invariance is bilinear in (constants,
        form), so the scaled tables pass exactly when these do."""
        n = self.dim
        if len(self.form) != n or any(len(row) != n for row in self.form):
            raise LieError("form matrix has wrong shape")
        for (i, j) in self.brackets:
            if not (0 <= i < n and 0 <= j < n):
                raise LieError(f"bracket index out of range: ({i}, {j})")
        brackets = _cleared(self.brackets)
        form = _cleared({i: dict(enumerate(row)) for i, row in enumerate(self.form)})
        for i in range(n):
            for j in range(n):
                pi, pj = self.parities[i], self.parities[j]
                sign = -1 if (pi and pj) else 1
                # parity of the bracket
                for m in self.bracket(i, j):
                    if self.parities[m] != (pi + pj) % 2:
                        raise LieError(
                            f"bracket [{self.names[i]},{self.names[j]}] "
                            f"has wrong parity component {self.names[m]}"
                        )
                # super-antisymmetry: [x,y] = -(-1)^{p(x)p(y)} [y,x]
                lhs = brackets.get((i, j), {})
                rhs = brackets.get((j, i), {})
                for m in set(lhs) | set(rhs):
                    if lhs.get(m, 0) != -sign * rhs.get(m, 0):
                        raise LieError(
                            f"antisymmetry fails on ({self.names[i]}, {self.names[j]})"
                        )
                # supersymmetry of B; odd-even pairing vanishes
                if form[i][j] != sign * form[j][i]:
                    raise LieError(
                        f"form not supersymmetric at ({self.names[i]}, {self.names[j]})"
                    )
                if pi != pj and form[i][j]:
                    raise LieError("form pairs opposite parities")
        # partners[a]: the m with [x_a, x_m] != 0, ascending
        partners = [[] for _ in range(n)]
        for a, m in sorted(brackets):
            partners[a].append(m)
        self._check_jacobi(brackets, partners)
        self._check_invariance(brackets, partners, form)

    def _check_jacobi(self, brackets, partners):
        """[x_i, [x_j, x_m]] = [[x_i, x_j], x_m] + (-1)^{p_i p_j} [x_j, [x_i, x_m]].

        Both sides are summed from the structure constants.  A triple whose
        brackets [x_i, x_j], [x_j, x_m] and [x_i, x_m] all vanish satisfies
        it trivially and is not visited; the first failing triple is still
        the first in (i, j, m) order.
        """
        n = self.dim
        empty = {}
        bracket = lambda i, j: brackets.get((i, j), empty)
        for i in range(n):
            for j in range(n):
                sign = -1 if (self.parities[i] and self.parities[j]) else 1
                bij = bracket(i, j)
                for m in range(n) if bij else sorted({*partners[i], *partners[j]}):
                    bjm, bim = bracket(j, m), bracket(i, m)
                    diff = {}
                    # [x_i, [x_j, x_m]] - (-1)^{p_i p_j} [x_j, [x_i, x_m]]
                    for scale, outer, inner in ((1, i, bjm), (-sign, j, bim)):
                        for t, c in inner.items():
                            for s, d in bracket(outer, t).items():
                                diff[s] = diff.get(s, 0) + scale * c * d
                    # - [[x_i, x_j], x_m]
                    for t, c in bij.items():
                        for s, d in bracket(t, m).items():
                            diff[s] = diff.get(s, 0) - c * d
                    if any(diff.values()):
                        raise LieError(
                            "Jacobi identity fails on triple "
                            f"({self.names[i]}, {self.names[j]}, {self.names[m]})"
                        )

    def _check_invariance(self, brackets, partners, form):
        # B([x,y], z) = B(x, [y,z]); both sides vanish when [x_i, x_j] and
        # [x_j, x_m] do
        n = self.dim
        empty = {}
        for i in range(n):
            for j in range(n):
                bij = brackets.get((i, j), empty)
                for m in range(n) if bij else partners[j]:
                    bjm = brackets.get((j, m), empty)
                    lhs = sum(c * form[t][m] for t, c in bij.items())
                    rhs = sum(c * form[i][t] for t, c in bjm.items())
                    if lhs != rhs:
                        raise LieError(
                            "form not invariant on triple "
                            f"({self.names[i]}, {self.names[j]}, {self.names[m]})"
                        )

    # -- derived data -------------------------------------------------------

    def gram_inverse(self):
        """Inverse of the Gram matrix G[i][j] = B(xi_i, xi_j), from G X = I."""
        n = self.dim
        rows = [{**dict(enumerate(self.form[i])), n + i: Fraction(1)} for i in range(n)]
        rank, solutions = qsolve(rows, n)
        if rank < n:
            raise LieError("form is degenerate")
        # the solution for right-hand side n + j is column j of the inverse
        return [[solutions[n + j][i] for j in range(n)] for i in range(n)]

    def dual_basis(self):
        """Coordinate vectors xi'_i with B(xi'_i, xi_j) = delta_{ij}."""
        ginv = self.gram_inverse()
        # xi'_i = sum_m c_{im} xi_m with sum_m c_{im} B(xi_m, xi_j) = delta_{ij},
        # i.e. C = G^{-1} with G the Gram matrix B(xi_i, xi_j) (G need not be
        # symmetric: odd-odd blocks are antisymmetric).
        n = self.dim
        duals = []
        for i in range(n):
            vec = {m: ginv[i][m] for m in range(n) if ginv[i][m]}
            duals.append(vec)
        for i in range(n):
            for j in range(n):
                val = self.form_vectors(duals[i], {j: Fraction(1)})
                if val != (1 if i == j else 0):
                    raise LieError("dual basis construction failed")
        return duals

    def dual_coxeter(self) -> Rational:
        """Half the adjoint Casimir eigenvalue; errors if not scalar."""
        duals = self.dual_basis()
        eig = None
        for x in range(self.dim):
            acc = {}
            for i in range(self.dim):
                inner = self.bracket_vectors(duals[i], {x: Fraction(1)})
                outer = self.bracket_vectors({i: Fraction(1)}, inner)
                for m, c in outer.items():
                    acc[m] = acc.get(m, Fraction(0)) + c
            acc = {m: c for m, c in acc.items() if c}
            if set(acc) - {x} or (x not in acc and acc):
                raise NotSimpleError("adjoint Casimir is not scalar")
            val = acc.get(x, Fraction(0))
            if eig is None:
                eig = val
            elif eig != val:
                raise NotSimpleError("adjoint Casimir is not scalar")
        if eig is None:
            raise NotSimpleError("zero-dimensional algebra")
        return eig / 2


def lie_from_constants(basis, constants, form, name="lie") -> LiePresentation:
    """Build and validate a presentation.

    basis: list of (name, parity) with parity "even"/"odd" or 0/1.
    constants: mapping (i, j) -> {m: value} or list of [i, j, [(m, value), ...]].
    form: dense matrix.
    Values are ints, Fractions or "p/q" strings; anything else (floats
    included) raises LieError, as do unknown parities and bad indices.
    """
    names = []
    parities = []
    for n, p in basis:
        p = {"even": EVEN, "odd": ODD}.get(p, p) if isinstance(p, str) else p
        if not isinstance(n, str) or type(p) is not int or p not in (EVEN, ODD):
            raise LieError(f"basis entry ({n!r}, {p!r}) needs a name and even or odd")
        names.append(n)
        parities.append(p)

    def index(i):
        if type(i) is not int or not 0 <= i < len(names):
            raise LieError(f"structure constant index {i!r} is not a basis index")
        return i

    if isinstance(constants, dict):
        constants = [(i, j, comp.items()) for (i, j), comp in constants.items()]
    brackets = {}
    for i, j, pairs in constants:
        key = (index(i), index(j))
        comp = {index(m): _exact(c, "structure constant") for m, c in pairs}
        comp = {m: c for m, c in comp.items() if c}
        if comp:
            brackets[key] = comp
    form = [[_exact(c, "form entry") for c in row] for row in form]
    return LiePresentation(names, parities, brackets, form, name=name)


def _cleared(table):
    """A table of dicts, every value times the lcm of their denominators."""
    d = lcm(*(c.denominator for comp in table.values() for c in comp.values()))
    return {key: {m: c.numerator * (d // c.denominator) for m, c in comp.items()}
            for key, comp in table.items()}


def _exact(value, what) -> Fraction:
    """An exact number from an int, a Fraction or a "p/q" string."""
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise LieError(f"{what} {value!r} is not an exact number (int or \"p/q\")")


# ---------------------------------------------------------------------------
# Built-ins from supermatrices in the defining representation


def _matrix(n, *terms):
    """The n x n matrix sum of c E_rs over the terms (r, s, c)."""
    out = [[0] * n for _ in range(n)]
    for r, s, c in terms:
        out[r][s] += c
    return out


def lie_from_matrices(names, matrices, form_scale=Fraction(1), name="lie", odd_rows=()):
    """Lie superalgebra spanned by supermatrices, supertrace form times form_scale.

    The matrices act on a graded space whose odd basis vectors are the
    indices in odd_rows (none for an even Lie algebra).  Entry (r, s) has
    parity p(r) + p(s), and each matrix takes its parity from its nonzero
    entries; a matrix that mixes parities raises LieError.  The matrices (int
    or Fraction entries) are scaled once to integer matrices D x_i, D the lcm
    of their denominators.  Structure constants come from expanding every
    supercommutator [D x_i, D x_j] = D x_i D x_j - (-1)^{p_i p_j} D x_j D x_i
    = D^2 [x_i, x_j] with i < j, or i = j for odd x_i, in the span of the
    D x_m, all in one elimination over Q, and dividing the coordinates by D;
    [x_j, x_i] is -(-1)^{p_i p_j} times that expansion.  The matrices must be
    linearly independent and closed under supercommutator; LieError says
    which fails.
    """
    dim = len(matrices)
    size = len(matrices[0]) if matrices else 0
    grade = [int(r in odd_rows) for r in range(size)]
    d = lcm(*(x.denominator for mat in matrices for row in mat for x in row))
    mats = [[[x.numerator * (d // x.denominator) for x in row] for row in mat]
            for mat in matrices]
    entries = [[(r, s, v) for r, row in enumerate(mat) for s, v in enumerate(row) if v]
               for mat in mats]
    parities = []
    for x, ents in zip(names, entries):
        kinds = {(grade[r] + grade[s]) % 2 for r, s, _ in ents}
        if len(kinds) > 1:
            raise LieError(f"matrix {x} mixes even and odd entries")
        parities.append(kinds.pop() if kinds else EVEN)
    sign = lambda i, j: -1 if parities[i] and parities[j] else 1
    # one row per matrix entry (r, s), row r * size + s; the unknowns are
    # coordinates in the basis, and the supercommutator [x_i, x_j], i <= j,
    # is right-hand side dim * (i + 1) + j
    rows = [{m: mat[r][s] for m, mat in enumerate(mats)} for r in range(size) for s in range(size)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1 - parities[i], dim)]
    for i, j in pairs:
        col = dim * (i + 1) + j
        for scale, a, b in ((1, i, j), (-sign(i, j), j, i)):
            for r, t, v in entries[a]:
                for s, w in enumerate(mats[b][t]):
                    if w:
                        row = rows[r * size + s]
                        row[col] = row.get(col, 0) + scale * v * w
    rank, solutions = qsolve(rows, dim)
    if rank < dim:
        raise LieError("matrices are linearly dependent")
    brackets = {}
    for i, j in pairs:
        # a zero supercommutator occurs in no row, so solutions has no entry
        coords = solutions.get(dim * (i + 1) + j, ())
        if coords is None:
            raise LieError("commutator not in the span of the basis")
        comp = {m: c / d for m, c in enumerate(coords) if c}
        if comp:
            brackets[(i, j)] = comp
            brackets[(j, i)] = {m: -sign(i, j) * c for m, c in comp.items()}
    # B(x_i, x_j) = form_scale * sum_{r,s} (-1)^{p(r)} x_i[r][s] x_j[s][r] is
    # (-1)^{p_i p_j} B(x_j, x_i), and the integer matrices give that sum times D^2
    form = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            b = sum((-1) ** grade[r] * v * mats[j][s][r] for r, s, v in entries[i])
            form[i][j] = form_scale * Fraction(b, d * d)
            form[j][i] = sign(i, j) * form[i][j]
    return LiePresentation(names, parities, brackets, form, name=name)


def _sl2() -> LiePresentation:
    # H = diag(1/2, -1/2), Xp = e12, Xm = e21; B = trace form on C^2,
    # so B(H,H) = 1/2 and B(Xp,Xm) = 1, matching the affine OPE displays.
    h = _matrix(2, (0, 0, Fraction(1, 2)), (1, 1, Fraction(-1, 2)))
    return lie_from_matrices(["H", "Xp", "Xm"], [h, _matrix(2, (0, 1, 1)), _matrix(2, (1, 0, 1))],
                             name="sl2")


def _sl3() -> LiePresentation:
    mats = []
    names = []
    for i in range(3):
        for j in range(3):
            if i != j:
                names.append(f"E{i+1}{j+1}")
                mats.append(_matrix(3, (i, j, 1)))
    for i in range(2):
        names.append(f"H{i+1}")
        mats.append(_matrix(3, (i, i, 1), (i + 1, i + 1, -1)))
    return lie_from_matrices(names, mats, name="sl3")


def _gl(n: int) -> LiePresentation:
    mats = []
    names = []
    for i in range(n):
        for j in range(n):
            names.append(f"E{i+1}{j+1}")
            mats.append(_matrix(n, (i, j, 1)))
    return lie_from_matrices(names, mats, name=f"gl{n}")


def _sp(n: int) -> LiePresentation:
    """sp_{2n} in the basis used by the beta-gamma embedding; trace form."""
    mats = []
    names = []
    for j in range(n):
        for k in range(j, n):
            names.append(f"S{j+1}{k+1}")
            mats.append(_matrix(2 * n, (j, k + n, 1), (k, j + n, 1)))
    for j in range(n):
        for k in range(j, n):
            names.append(f"T{j+1}{k+1}")
            mats.append(_matrix(2 * n, (j + n, k, -1), (k + n, j, -1)))
    for j in range(n):
        for k in range(n):
            names.append(f"U{j+1}{k+1}")
            mats.append(_matrix(2 * n, (j, k, 1), (n + k, n + j, -1)))
    return lie_from_matrices(names, mats, name=f"sp{2*n}")


def _so(m: int) -> LiePresentation:
    """so_m with basis M_ij = E_ij - E_ji (i < j); half the trace form."""
    mats = []
    names = []
    for i in range(m):
        for j in range(i + 1, m):
            names.append(f"M{i+1}{j+1}")
            mats.append(_matrix(m, (i, j, 1), (j, i, -1)))
    return lie_from_matrices(names, mats, form_scale=Fraction(1, 2), name=f"so{m}")


def _osp12() -> LiePresentation:
    """osp(1|2) in gl(2|1), the third row and column odd; the supertrace form
    gives B(H, H) = 1/2, B(Xp, Xm) = 1 and B(phip, phim) = 1/2, matching the
    affine OPE display."""
    half = Fraction(1, 2)
    mats = [_matrix(3, (0, 0, half), (1, 1, -half)), _matrix(3, (0, 1, 1)),
            _matrix(3, (1, 0, 1)), _matrix(3, (0, 2, half), (2, 1, half)),
            _matrix(3, (1, 2, -half), (2, 0, half))]
    return lie_from_matrices(["H", "Xp", "Xm", "phip", "phim"], mats, odd_rows={2},
                             name="osp(1|2)")


_BUILTINS = {
    "sl2": _sl2,
    "sl3": _sl3,
    "sp2": lambda: _sp(1),
    "sp4": lambda: _sp(2),
    "so1": lambda: _so(1),
    "so2": lambda: _so(2),
    "so3": lambda: _so(3),
    "osp(1|2)": _osp12,
    "gl(1)": lambda: _gl(1),
    "gl(2)": lambda: _gl(2),
    "gl(3)": lambda: _gl(3),
    "gl1": lambda: _gl(1),
    "gl2": lambda: _gl(2),
    "gl3": lambda: _gl(3),
    "osp12": _osp12,
}


def builtin_lie(name: str) -> LiePresentation:
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise LieError(f"unknown built-in Lie algebra {name!r}") from None
    return builder()


def builtin_names():
    return sorted(set(_BUILTINS))
