"""Exact linear algebra over the rational-function field.

Weight-graded basis enumeration, torus-charge-graded solve bases, commutant
solves, relation finding, and decoupling analysis.

One fraction-free elimination, PolySystem.eliminate, serves every
parametric solve over Q(k): the commutant kernel, and through solve() the
relation, pin and span solves, where the right-hand side is one extra
column.  Rows have their denominators cleared and live in Z[k] as
primitive rows of integer tuples: every new row is divided by the gcd of
its entries, taken in Z[k] by coefficients.zgcd, and by its integer
content, not by the previous pivot.  In each column the pivot is the entry
of lowest degree, ties going to the sparsest row (Markowitz 1957,
Management Science 3) and then to the first one.  Elimination works on a
copy, so the input rows stay as built.  The pivot polynomials are reported over Q.  The
kernel is back-substituted over Z[k] too, with one denominator per kernel
vector, and its coordinates come back as RatFuncs.

Nongeneric levels: away from the roots of the pivots, of the factors
stripped from rows and of the cleared denominators, every elimination step
stays valid at k = k0, so the rank can drop only at those roots.  A kernel
coordinate's denominator divides a product of pivot entries, so it adds no
candidate.
SolveReport.rank_at decides each candidate.  It first takes
coefficients.rank_mod_p, the rank of the rows evaluated at k = k0 in F_p
for the prime p = 2^61 - 1.  The evaluated entries are p-integral, so

    rank mod p <= rank over Q at k0 <= generic rank,

and a rank mod p that reaches the generic rank proves k0 generic, with no
probabilistic step.  Otherwise, or when an entry at k0 is not p-integral,
coefficients.qsolve, the one elimination over Q, takes the rank of the
evaluated rows: every certified drop and every pole comes from it.
Neither routine shares code with PolySystem.eliminate or the Z[k] helpers,
so both ranks are independent certificates.

Commutant conditions accept "actions": either a weight-one current (all its
nonnegative modes must kill the element) or a pair (current, derivation)
where the derivation is an outer even derivation given on generators; the
combined zero mode is current_(0) + derivation, and higher modes come from
the current alone.  The second form realizes diagonal group actions whose
restriction to a free tensor factor is not inner.  Unless it is given a
basis, commutant_basis solves on solve_basis, the joint charge-0 monomials
of the currents that act diagonally; the kernel is the same at every level.

Commutant rows come from a generating set of the current modes, not from
every mode.  For m, n >= 0, [J_a(m), J_b(n)] = (J_a(0) J_b)(m + n): the
cocycle term m delta(m+n, 0) J_a(1) J_b vanishes there, so these modes span
a copy of g (x) C[t] that does not depend on the level.  An element killed
by some modes is killed by the Lie algebra they generate, and modes above
ceil(w) vanish on weight w.  So the rows of a set of modes that generates
span{J_a(n) : 0 <= n <= ceil(w)} cut out the whole commutant at every
level: every zero mode, then in each degree d >= 1 the d-modes, in order,
that the brackets of lower degrees leave out of g (_generating_modes).
For simple g one mode of degree one is enough, since g (x) t C[t] is
generated by g and f_theta(1) (Kac, Infinite-dimensional Lie algebras,
ch. 7); an abelian current keeps every mode.  A zero mode that the others
generate (H(0) for {H, Xp, Xm}) still gives rows: on a charge-0 basis it
gives none, and on a full basis its one-entry rows cost no measurable time.
When an action carries an outer derivation, or the currents' 0-products
are not constant combinations of the currents or their 1-products not
multiples of the vacuum, every mode gives rows.  verify_commutant stays
the independent check: it applies every mode of every current.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import ceil, comb, gcd, lcm
from operator import add

from .coefficients import (
    RF_ZERO,
    RatFunc,
    as_ratfunc,
    exact_scalar,
    format_poly,
    format_ratfunc,
    integer_row,
    pdeg,
    pmul,
    pprimitive,
    qsolve,
    rank_mod_p,
    rational_roots,
    zcombine,
    zgcd,
    zlcm,
    zprimitive,
    zquo,
)
from .core import Element, VAError, VAPresentation


class LinearError(VAError):
    pass


class NotTorusDiagonal(LinearError):
    pass


# ---------------------------------------------------------------------------
# Weight bases


class WeightBasis:
    def __init__(self, pres: VAPresentation, weight, monomials):
        self.pres = pres
        self.weight = Fraction(weight)
        self.monomials = tuple(monomials)

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def _pbw_words(bases, w, charges=None):
    """Sorted words of total weight w in the bases and their derivatives.

    bases is a list of (weight, parity); a word is a sorted tuple of
    (base index, derivative order) slots in which an even slot may repeat
    and an odd slot appears at most once.  charges, when given, holds an
    integer vector per base, and only the words of total charge 0 are kept.
    """
    _check_bases(bases)
    charges = charges or [()] * len(bases)
    slots = sorted(
        ((i, d), wt + d, parity, charges[i])
        for i, (wt, parity) in enumerate(bases)
        for d in range(int(w - wt) + 1 if wt <= w else 0)
    )

    def recurse(start, remaining, charge):
        if remaining == 0:
            if not any(charge):
                yield ()
            return
        for idx in range(start, len(slots)):
            slot, fw, odd, q = slots[idx]
            if fw <= remaining:
                for rest in recurse(idx + 1 if odd else idx, remaining - fw,
                                    tuple(map(add, charge, q))):
                    yield (slot,) + rest

    return sorted(recurse(0, w, (0,) * len(charges[0]) if charges else ()))


def _check_bases(bases):
    """A base of weight <= 0 would give words of every length; refuse it."""
    for i, (wt, _) in enumerate(bases):
        if wt <= 0:
            raise LinearError(f"generator {i + 1} of {len(bases)} has weight {wt}; "
                              "words need positive weights")


def weight_basis(P: VAPresentation, w) -> WeightBasis:
    """All canonical monomials of the given weight, in lexicographic order."""
    return _charge0_basis(P, w, [])


def solve_basis(P: VAPresentation, actions, w) -> WeightBasis:
    """The basis a commutant solve runs on: the weight-w monomials of joint
    charge 0 under the currents that _torus_currents accepts, or all of
    them when no action qualifies.  Every kernel element lies there.

    A current with non-constant charges, such as (k)*H, gets no charge
    filter: its zero mode writes the row k q(T) v_T, which vanishes at
    k = 0, so a filter that drops the monomials T of charge q(T) != 0 would
    not hold at every level.  On affine sl2 at weight 2, [(k)*H] solves on
    all 9 monomials and [H] on the 3 of charge 0.
    """
    return _charge0_basis(P, w, _torus_currents(P, actions))


def _charge0_basis(P: VAPresentation, w, currents) -> WeightBasis:
    """The weight-w monomials of joint charge 0 under the currents, each
    current's _diagonal_charges scaled to integers by their lcm denominator."""
    w = exact_scalar(w)
    if w < 0:
        raise LinearError("weight must be nonnegative")
    columns = []
    for J in currents:
        charges = _diagonal_charges(P, J).values()
        scale = lcm(1, *(q.denominator for q in charges))
        columns.append([int(q * scale) for q in charges])
    bases = [(g.weight, g.parity) for g in P.generators]
    return WeightBasis(P, w, _pbw_words(bases, w, list(zip(*columns))))


def basis_size(bases, w) -> int:
    """The number of words _pbw_words(bases, w) gives, counted without
    enumerating them; bases is a list of (weight, parity), and for the
    generators of P the count is len(weight_basis(P, w)).

    The count is the coefficient of q^w in the product over the slots
    (base, derivative order) of 1/(1 - q^s) for an even slot of weight s
    and 1 + q^s for an odd one; the slots of one weight and parity are taken
    together.  Weights are counted in units of the lcm of the bases' weight
    denominators; a weight that is no multiple of that unit has none.
    """
    w = exact_scalar(w)
    if w < 0:
        raise LinearError("weight must be nonnegative")
    _check_bases(bases)
    unit = lcm(1, *(wt.denominator for wt, _ in bases))
    if (w * unit).denominator != 1:
        return 0
    top = int(w * unit)
    slots = Counter()
    for wt, parity in bases:
        for s in range(int(wt * unit), top + 1, unit):
            slots[s, parity] += 1
    counts = [1] + [0] * top
    for (s, odd), m in slots.items():
        # (1 + q^s)^m or (1 - q^s)^-m, up to q^top
        series = [comb(m, j) if odd else comb(m + j - 1, j) for j in range(top // s + 1)]
        counts = [sum(c * counts[i - s * j] for j, c in enumerate(series[: i // s + 1]))
                  for i in range(top + 1)]
    return counts[top]


def charge_filter(basis: WeightBasis, currents) -> WeightBasis:
    """Sub-basis of joint charge-0 eigenvectors of the currents' zero modes.

    The currents have weight one and act diagonally on the generators.
    """
    keep = set(_charge0_basis(basis.pres, basis.weight, currents))
    return WeightBasis(basis.pres, basis.weight, [M for M in basis if M in keep])


def _diagonal_charges(P: VAPresentation, J: Element) -> dict:
    if P.weight_of(J) != 1:
        raise NotTorusDiagonal("charge currents must have weight one")
    out = {}
    for g in range(P.ngen):
        image = P.nprod(J, P.gen(g), 0).data
        if set(image) - {((g, 0),)}:
            raise NotTorusDiagonal(f"current does not act diagonally on {P.generators[g].name}")
        c = image.get(((g, 0),), RF_ZERO)
        if not c.is_constant():
            raise NotTorusDiagonal("charge is not a constant")
        out[g] = c.constant_value()
    return out


# ---------------------------------------------------------------------------
# Fraction-free elimination over Z[k] with pivot polynomials


class PolySystem:
    """A sparse linear system over Q(k) kept as primitive rows over Z[k]."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # list of dict col -> integer polynomial (tuple of int)
        self.original_rows = []  # the rows as given, col -> RatFunc
        self.cleared_factors = []  # denominators cleared while building rows
        # primitive gcds of positive degree divided out of a row, in add_row
        # or during eliminate: the rank may drop at their roots
        self.stripped_factors = set()

    def add_row(self, entries: dict):
        """entries: col -> RatFunc; the common denominator is cleared."""
        entries = {c: v for c, v in entries.items() if v}
        if not entries:
            return
        self.original_rows.append(entries)
        den, row = integer_row(entries)
        if pdeg(den) > 0:
            self.cleared_factors.append(den)
        self.rows.append(self._strip_row(row))

    def eliminate(self):
        """Column-ordered echelon form; returns (rank, pivots, pivot data).

        The pivot in each column is the entry of lowest degree, ties going
        to the row with fewest nonzeros, then to the first such row.  Rows
        are replaced, never changed in place, so self.rows stays as built.
        """
        active = list(self.rows)
        pivot_polys = []
        pivot_rows = []  # (col, row dict)
        for col in range(self.ncols):
            best = min(
                ((len(row[col]), len(row), i) for i, row in enumerate(active) if col in row),
                default=None,
            )
            if best is None:
                continue
            prow = active.pop(best[2])
            pentry = prow[col]
            pivot_polys.append(pprimitive(pentry))
            pivot_rows.append((col, prow))
            active = [
                self._strip_row(_combine_rows(pentry, row, row[col], prow))
                if col in row else row
                for row in active
            ]
        return len(pivot_rows), pivot_polys, pivot_rows

    def _strip_row(self, row: dict) -> dict:
        """Primitive part of a row over Z[k]: the row divided by the gcd of
        its entries and by its positive integer content.  The gcd can have
        positive degree only when no entry is a constant; it is recorded in
        stripped_factors."""
        if not row:
            return row
        if all(len(v) > 1 for v in row.values()):
            g = None
            for v in row.values():
                g = v if g is None else zgcd(g, v)[0]
                if len(g) == 1:
                    break
            if len(g) > 1:
                self.stripped_factors.add(zprimitive(g)[0])
                row = {c: zquo(v, g) for c, v in row.items()}
        cont = gcd(*(x for v in row.values() for x in v))
        if cont == 1:
            return row
        return {c: tuple(x // cont for x in v) for c, v in row.items()}

    def kernel(self, pivot_rows):
        """Kernel basis as RatFunc coordinate vectors, one per free column."""
        pivot_set = {c for c, _ in pivot_rows}
        return [
            self._kernel_vector(pivot_rows, fc)
            for fc in range(self.ncols)
            if fc not in pivot_set
        ]

    def _kernel_vector(self, pivot_rows, free_col):
        """Back-substitution in the Z[k] pivot rows: the kernel vector that is
        one at free_col and zero at every other free column.  Coordinates are
        integer numerators over one denominator, the product of the pivot
        cofactors, and each becomes a RatFunc once, at the end."""
        num = [()] * self.ncols
        num[free_col] = (1,)
        den = (1,)
        for col, row in reversed(pivot_rows):
            total = ()
            for c, v in row.items():
                if c > col and num[c]:
                    total = zcombine(v, num[c], (-1,), total)
            if total:
                # x[col] = -total / (den * row[col]) = -t / (den * p)
                _, p, t = zgcd(row[col], total)
                if p != (1,):
                    num = [pmul(p, x) for x in num]
                    den = pmul(p, den)
                num[col] = tuple(-x for x in t)
        return [RatFunc.over_z(x, den) for x in num]


def solve(rows, rhs, ncols):
    """Solve rows * x = rhs over the function field by one elimination.

    rows are dicts col -> RatFunc and rhs is a list of RatFunc, one per row.
    The right-hand side enters as the extra column -rhs, so x is the kernel
    vector that is one at that column.  Returns (x, rank of rows, rank of
    [rows | rhs]); x is None when the system is inconsistent, and zero at
    the free columns otherwise.
    """
    system = PolySystem(ncols + 1)
    for row, b in zip(rows, rhs):
        entries = dict(row)
        if b:
            entries[ncols] = -b
        system.add_row(entries)
    rank, _, pivot_rows = system.eliminate()
    if pivot_rows and pivot_rows[-1][0] == ncols:
        return None, rank - 1, rank
    return system._kernel_vector(pivot_rows, ncols)[:ncols], rank, rank


def solve_span(columns, target):
    """Solve sum_i x_i columns[i] = target for elements over the function field.

    One row per monomial of the columns and the target, in sorted order;
    returns solve()'s (x, rank of the columns, rank with the target).
    """
    rows = {}
    for ci, elem in enumerate(columns):
        for M, c in elem.data.items():
            rows.setdefault(M, {})[ci] = c
    for M in target.data:
        rows.setdefault(M, {})
    ordered = sorted(rows)
    rhs = [target.data.get(M, RF_ZERO) for M in ordered]
    return solve([rows[M] for M in ordered], rhs, len(columns))


def _combine_rows(a, row: dict, b, prow: dict) -> dict:
    """The row a*row - b*prow over Z[k], without its zero entries."""
    out = {}
    for c in row.keys() | prow.keys():
        p = zcombine(a, row.get(c, ()), b, prow.get(c, ()))
        if p:
            out[c] = p
    return out


# ---------------------------------------------------------------------------
# Commutant computation


def _normalize_actions(actions):
    out = []
    for i, a in enumerate(actions, 1):
        current, derivation = (a, None) if isinstance(a, Element) else a
        if current is None and derivation is None:
            raise LinearError("empty action")
        if current is not None and current.is_zero():
            raise LinearError(f"current {i} of {len(actions)} is zero")
        out.append((current, derivation))
    return out


def apply_derivation(P: VAPresentation, derivation: dict, x: Element) -> Element:
    """Even derivation given on generators, extended by the Leibniz rule."""
    out = {}
    for M, coeff in x.data.items():
        for slot in range(len(M)):
            g, d = M[slot]
            image = derivation.get(g)
            if not image:
                continue
            img = Element(P, dict(image))
            img = img.deriv(d)
            for N, c2 in img.data.items():
                word = M[:slot] + tuple(N) + M[slot + 1 :]
                for W, c3 in P.canon_factors(word).items():
                    key = W
                    val = coeff * c2 * c3
                    out[key] = out.get(key, RF_ZERO) + val
    return Element(P, {M: c for M, c in out.items() if c})


class SolveReport:
    def __init__(self, pres, weight, basis, rank, pivot_polys, kernel_vectors,
                 system):
        self.pres = pres
        self.weight = weight
        self.basis = basis
        self.generic_rank = rank
        self.pivot_polys = list(pivot_polys)
        self.kernel_vectors = kernel_vectors
        self.system = system

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_vectors)

    def kernel_elements(self):
        out = []
        for x in self.kernel_vectors:
            data = {}
            for i, c in enumerate(x):
                if c:
                    data[self.basis.monomials[i]] = c
            out.append(Element(self.pres, data))
        return out

    def rank_at(self, k0) -> int:
        """Rank of the original rows at k = k0.

        rank mod p <= rank over Q at k0 <= generic rank, so a rank mod p
        that reaches the generic rank proves k0 generic.  Otherwise, and
        when rank_mod_p cannot evaluate the rows, qsolve decides over Q;
        every drop and every pole comes from it.
        """
        k0 = exact_scalar(k0)
        rows, ncols = self.system.original_rows, self.system.ncols
        rank = rank_mod_p(rows, ncols, k0)
        if rank == self.generic_rank:
            return rank
        if rank is not None and rank > self.generic_rank:
            raise LinearError(f"rank {rank} mod p at k = {k0} exceeds the "
                              f"generic rank {self.generic_rank}")
        rows = [{col: v.evaluate(k0) for col, v in row.items()} for row in rows]
        return qsolve(rows, ncols)[0]

    def kernel_dim_at(self, k0) -> int:
        return self.system.ncols - self.rank_at(k0)

    def serialize(self):
        return {
            "weight": str(self.weight),
            "basis_size": len(self.basis),
            "monomials": [list(M) for M in self.basis.monomials],
            "generic_rank": self.generic_rank,
            "kernel_dim": self.kernel_dim,
            "pivot_polynomials": [
                f"({format_poly(p, self.pres.param)})" for p in self.pivot_polys
            ],
            "kernel": [
                [format_ratfunc(c, self.pres.param) for c in vec]
                for vec in self.kernel_vectors
            ],
        }


def commutant_system(P: VAPresentation, actions, w, basis) -> "PolySystem":
    """The commutant conditions on the given weight-w basis as a PolySystem.

    One row block per mode that _generating_modes selects, one row per
    target monomial.  Those modes generate span{J_a(n) : 0 <= n <= ceil(w)}
    as a Lie algebra at every level, since the cocycle of [J_a(m), J_b(n)]
    vanishes for m, n >= 0, so their rows have the commutant as kernel.
    With an outer derivation, or currents that do not close into a
    level-free g (x) C[t], every mode n = 0..ceil(w) of every action gives
    rows.
    """
    w = exact_scalar(w)
    actions = _normalize_actions(actions)
    for current, _ in actions:
        if current is not None and P.weight_of(current) != 1:
            raise LinearError("commutant currents must have weight one")
    system = PolySystem(len(basis))
    nmax = int(ceil(w)) if w > 0 else 0
    # rows are indexed by (action, n, target monomial)
    for a_idx, n in _generating_modes(P, actions, nmax):
        current, derivation = actions[a_idx]
        rows = {}
        for col, M in enumerate(basis.monomials):
            image = _action_image(P, current, derivation, P.element({M: 1}), n)
            for T, c in image.data.items():
                rows.setdefault(T, {})[col] = c
        for T in sorted(rows):
            system.add_row(rows[T])
    return system


def _generating_modes(P: VAPresentation, actions, nmax):
    """The modes (action index, n), sorted, whose rows commutant_system writes.

    Every mode n = 0..nmax of each current (n = 0 alone for an action
    without one) when there is one action, when an action carries a
    derivation or when _current_brackets finds no structure constants.
    Otherwise a generating set of
    span{J_a(n) : 0 <= n <= nmax}: every zero mode, then for d >= 1 the
    d-modes, in order, that the degree-d part leaves out of the span g of
    the currents.  That part is spanned by the brackets of the parts of
    degrees i, j >= 1 with i + j = d and the d-modes added, closed under
    ad g.
    """
    every = [(a, n) for a, (current, _) in enumerate(actions)
             for n in range(nmax + 1 if current is not None else 1)]
    # one current's 0-product with itself is zero or leaves its span, so a
    # single current keeps every mode without computing its brackets
    if len(actions) == 1 or any(derivation is not None for _, derivation in actions):
        return every
    brackets = _current_brackets(P, [current for current, _ in actions])
    if brackets is None:
        return every
    dim = len(actions)

    def bracket(u, v):
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                for c, s in brackets[a][b].items():
                    out[c] = out.get(c, 0) + x * y * s
        return {c: s for c, s in out.items() if s}

    def close(span, new, ops):
        """span, a list of independent vectors, grown in place by the vectors
        new and closed under bracket(x, .) for x in ops."""
        queue = list(new)
        while queue:
            v = queue.pop()
            if qsolve(span + [v], dim)[0] > len(span):
                span.append(v)
                queue += [bracket(x, v) for x in ops]
        return span

    unit = [{a: Fraction(1)} for a in range(dim)]
    modes = [(a, 0) for a in range(dim)]
    graded = {}
    for d in range(1, nmax + 1):
        span = close([], [bracket(u, v) for i in range(1, d // 2 + 1)
                          for u in graded[i] for v in graded[d - i]], unit)
        for a in range(dim):
            size = len(span)
            if size < dim and len(close(span, [unit[a]], unit)) > size:
                modes.append((a, d))
        graded[d] = span
    return sorted(modes)


def _current_brackets(P: VAPresentation, currents):
    """The structure constants of the currents, or None.

    brackets[a][b] maps c to the coordinate of J_a(0) J_b on J_c.  They are
    returned only when every current has a parity, every J_a(0) J_b is a
    combination of the currents with constant coefficients and every
    J_a(1) J_b is a multiple of the vacuum.  Then [J_a(m), J_b(n)] =
    (J_a(0) J_b)(m + n) for all m, n >= 0 at every level.
    """
    if any(len({P.mono_parity(M) for M in J.data}) > 1 for J in currents):
        return None
    brackets = []
    for Ja in currents:
        row = []
        for Jb in currents:
            br = P.lambda_bracket(Ja, Jb)
            x = solve_span(currents, br.c(0))[0]
            if (set(br.c(1).data) - {()} or x is None
                    or not all(c.is_constant() for c in x)):
                return None
            row.append({c: v.constant_value() for c, v in enumerate(x) if v})
        brackets.append(row)
    return brackets


def commutant_basis(P: VAPresentation, actions, w, basis=None) -> SolveReport:
    """The commutant at weight w over Q(k), solved on the given basis.

    Without a basis the solve runs on solve_basis.  That loses no kernel
    element at any level: the zero mode of a diagonal current writes the
    one-entry row charge(T) * v_T for each monomial T of nonzero charge, so
    every kernel vector of the full system vanishes there, and the rank of
    those rows does not depend on k.  The kernel,
    the kernel dimension at every level and the kernel vectors of the
    back-substitution are those of the full weight basis.
    """
    w = exact_scalar(w)
    if basis is None:
        basis = solve_basis(P, actions, w)
    system = commutant_system(P, actions, w, basis)
    rank, pivots, pivot_rows = system.eliminate()
    kernel = system.kernel(pivot_rows)
    return SolveReport(P, w, basis, rank, pivots, kernel, system)


def _torus_currents(P: VAPresentation, actions):
    """The currents of the actions without a derivation that have weight
    one, act diagonally on the generators and have constant charges."""
    out = []
    for current, derivation in _normalize_actions(actions):
        if current is None or derivation is not None:
            continue
        try:
            _diagonal_charges(P, current)
        except NotTorusDiagonal:
            continue
        out.append(current)
    return out


def verify_commutant(P: VAPresentation, v: Element, actions) -> bool:
    """Re-check the commutant conditions directly on an assembled element:
    the zero-mode conditions of verify_invariant, and every mode n >= 1 of
    each current kills v.  Like verify_invariant it works on v times the
    lcm of its coefficient denominators."""
    v = _denominators_cleared(v)
    if not verify_invariant(P, v, actions):
        return False
    if v.is_zero():
        return True
    w = P.weight_of(v)
    nmax = int(ceil(w)) if w > 0 else 0
    for current, derivation in _normalize_actions(actions):
        for n in range(1, nmax + 2):
            if not _action_image(P, current, derivation, v, n).is_zero():
                return False
    return True


def verify_invariant(P: VAPresentation, v: Element, actions) -> bool:
    """Group-invariance check: the combined zero modes annihilate v.

    This is orbifold membership.  It is weaker than verify_commutant, which
    also requires the higher current modes to act by zero (the coset
    condition); for free-field orbifolds only the zero modes implement the
    group action.

    The modes act on v * D, D the lcm of v's coefficient denominators: D is
    a nonzero element of Q(k), so v * D is killed exactly when v is, and
    its polynomial coefficients add without a gcd.
    """
    v = _denominators_cleared(v)
    if v.is_zero():
        return True
    for current, derivation in _normalize_actions(actions):
        if not _action_image(P, current, derivation, v, 0).is_zero():
            return False
    return True


def _denominators_cleared(v: Element) -> Element:
    """v times the lcm over Z[k] of its coefficient denominators."""
    den = zlcm(c.zden for c in v.data.values())
    return v if den == (1,) else v * RatFunc.over_z(den, (1,))


def _action_image(P, current, derivation, v, n):
    """current_(n) v, plus derivation(v) when n = 0."""
    image = P.nprod(current, v, n) if current is not None else P.zero()
    if n == 0 and derivation is not None:
        image = image + apply_derivation(P, derivation, v)
    return image


def invariant_basis(P: VAPresentation, actions, w) -> SolveReport:
    """Kernel of the combined zero modes on the weight-w space."""
    zero_mode_actions = [
        (None, _zero_mode_as_derivation(P, current, derivation))
        for current, derivation in _normalize_actions(actions)
    ]
    return commutant_basis(P, zero_mode_actions, w)


def _zero_mode_as_derivation(P, current, derivation):
    """Fold a current's zero-mode action on generators into a derivation map.

    Valid because weight-one current zero modes act by derivations; the
    result can be combined with an outer derivation acting on other factors.
    """
    out = {g: dict(data) for g, data in (derivation or {}).items()}
    if current is not None:
        for g in range(P.ngen):
            image = P.nprod(current, P.gen(g), 0)
            if image.is_zero():
                continue
            slot = out.setdefault(g, {})
            for M, c in image.data.items():
                slot[M] = slot.get(M, RF_ZERO) + c
    return {g: data for g, data in out.items() if data}


def graded_dimensions(P: VAPresentation, actions, w_max, w_min=None) -> dict:
    step = P.weight_step()
    w = exact_scalar(w_min) if w_min is not None else step
    out = {}
    while w <= exact_scalar(w_max):
        out[w] = commutant_basis(P, actions, w).kernel_dim
        w += step
    return out


# ---------------------------------------------------------------------------
# Nongeneric-level reporting


class NongenericReport:
    def __init__(self, certified, candidates, poles, factors):
        self.certified = certified      # dict Fraction -> (generic_dim, dim_at)
        self.candidates = set(candidates)
        self.poles = set(poles)
        self.factors = list(factors)    # rational-root-free pivot factors

    def serialize(self):
        return {
            "certified": {str(k): list(v) for k, v in sorted(self.certified.items())},
            "candidates": sorted(str(c) for c in self.candidates),
            "poles": sorted(str(p) for p in self.poles),
            "irrational_factors": [f"({format_poly(f)})" for f in self.factors],
        }


def nongeneric_levels(report: SolveReport) -> NongenericReport:
    """Rational roots of the pivot polynomials and of the factors stripped
    from rows.

    Away from these roots and the poles (roots of cleared denominators)
    every elimination step stays valid at k = k0, so the rank cannot drop
    there.  The kernel coordinates need no roots of their own: each
    denominator divides a product of pivot entries.  Each root is certified
    when the kernel dimension provably changes at that level (by an exact
    rank computation), otherwise listed as a candidate.
    """
    stripped = sorted(report.system.stripped_factors)
    candidates, factors = _distinct_roots(report.pivot_polys + stripped)
    poles, _ = _distinct_roots(report.system.cleared_factors)
    certified = {}
    remaining = set()
    generic = report.kernel_dim
    for k0 in candidates:
        if k0 in poles:
            continue
        dim_at = report.kernel_dim_at(k0)
        if dim_at != generic:
            certified[k0] = (generic, dim_at)
        else:
            remaining.add(k0)
    return NongenericReport(certified, remaining, poles, factors)


def _distinct_roots(polys):
    """Rational roots of the nonconstant polynomials, found once for each
    distinct one up to a scalar factor.

    Returns (roots, cofactors): the set of all the roots, and the distinct
    root-free cofactors of positive degree in the order first found.
    """
    roots = set()
    cofactors = []
    for p in dict.fromkeys(zprimitive(p)[0] for p in polys if pdeg(p) > 0):
        found, cofactor = rational_roots(p)
        roots.update(found)
        if pdeg(cofactor) > 0 and cofactor not in cofactors:
            cofactors.append(cofactor)
    return roots, cofactors


# ---------------------------------------------------------------------------
# Normally ordered words and relations


def enumerate_words(P: VAPresentation, gens, w):
    """Right-nested normally ordered words of weight w in gens and derivatives.

    Returns a list of (label, Element); labels are tuples of
    (generator position, derivative order).  Repeated equal odd factors are
    skipped, as in the PBW spanning convention; odd squares reduce to
    brackets and so to other words whenever the generator set is closed.
    """
    w = exact_scalar(w)
    bases = [(P.weight_of(g), P.parity_of(g)) for g in gens]
    out = []
    for word in _pbw_words(bases, w):
        elem = None
        for pos, d in reversed(word):
            piece = gens[pos].deriv(d)
            elem = piece if elem is None else piece.no(elem)
        if elem is not None and not elem.is_zero():
            out.append((word, elem))
    return out


class Relation:
    """multiplier * target = combination, identically over the function field."""

    def __init__(self, target, multiplier: RatFunc, combination: Element, word_coeffs):
        self.target = target
        self.multiplier = multiplier
        self.combination = combination
        self.word_coeffs = word_coeffs

    def verify(self) -> bool:
        return (self.target * self.multiplier - self.combination).is_zero()

    def multiplier_roots(self):
        roots, cofactor = rational_roots(self.multiplier.znum)
        return roots, cofactor

    def serialize(self):
        return {
            "multiplier": str(self.multiplier),
            "word_coefficients": {
                str(label): str(c) for label, c in self.word_coeffs.items()
            },
        }


class Obstruction:
    """Certificate that the target is not in the span of the words."""

    def __init__(self, weight, words_rank, combined_rank):
        self.weight = weight
        self.words_rank = words_rank
        self.combined_rank = combined_rank

    def serialize(self):
        return {
            "weight": str(self.weight),
            "words_rank": self.words_rank,
            "combined_rank": self.combined_rank,
        }


def find_relation(P: VAPresentation, target: Element, gens):
    """Express the target through normally ordered words in the generators.

    Solves multiplier * target = combination over the function field; the
    multiplier is the cleared common denominator (a primitive polynomial).
    Returns a Relation, or an Obstruction if the target is not in the span.
    """
    w = P.weight_of(target)
    return _relation(P, target, enumerate_words(P, gens, w), w)


def _relation(P: VAPresentation, target: Element, words, w):
    """find_relation on the already enumerated weight-w words."""
    w = exact_scalar(w)
    if P.weight_of(target) != w:
        raise LinearError("target weight mismatch")
    sol, words_rank, combined_rank = solve_span([e for _, e in words], target)
    if sol is None:
        return Obstruction(w, words_rank, combined_rank)
    # clear denominators into a primitive polynomial multiplier
    multiplier = RatFunc.over_z(zlcm(c.zden for c in sol if c), (1,))
    scale = multiplier
    combination = P.zero()
    word_coeffs = {}
    for ci, (label, elem) in enumerate(words):
        c = sol[ci] * scale
        if c:
            combination = combination + elem * c
            word_coeffs[label] = c
    return Relation(target, multiplier, combination, word_coeffs)


# ---------------------------------------------------------------------------
# Decoupling analysis


class DecouplingReport:
    def __init__(self, weight, commutant_dim, words_count, target, relation,
                 roots, poles):
        self.weight = weight
        self.commutant_dim = commutant_dim
        self.words_count = words_count
        self.target = target
        self.relation = relation
        self.roots = dict(roots)          # root -> multiplicity
        # the pinned target has poles exactly at the multiplier roots; the
        # remaining poles come from the generators' own normalization
        self.poles = set(poles) - set(self.roots)

    @property
    def multiplier(self) -> RatFunc:
        return self.relation.multiplier

    def serialize(self):
        return {
            "weight": str(self.weight),
            "commutant_dim": self.commutant_dim,
            "words": self.words_count,
            "multiplier": str(self.multiplier),
            "multiplier_roots": {str(r): m for r, m in sorted(self.roots.items())},
            "poles": sorted(str(p) for p in self.poles),
        }


def pin_commutant_element(report: SolveReport, shape: dict) -> Element:
    """The kernel element whose coefficients on the given monomials are as
    prescribed; used to normalize a deformation by its free-field limit shape.

    shape maps monomials to coefficients and must determine the element
    uniquely; every shape entry is verified on the result.
    """
    kers = report.kernel_elements()
    if not kers:
        raise LinearError("empty kernel; nothing to pin")
    shape = {tuple(M): as_ratfunc(value) for M, value in shape.items()}
    rows = [{i: v.coeff(M) for i, v in enumerate(kers)} for M in shape]
    sol = solve(rows, list(shape.values()), len(kers))[0]
    if sol is None:
        raise LinearError("shape constraints are inconsistent with the kernel")
    out = report.pres.zero()
    for i, c in enumerate(sol):
        if c:
            out = out + kers[i] * c
    for M, value in shape.items():
        if out.coeff(M) != value:
            raise LinearError("shape constraints do not pin a kernel element")
    return out


def decoupling_multiplier(P: VAPresentation, actions, gens, w,
                          target_shape=None, target=None,
                          charge_currents=None) -> DecouplingReport:
    """Decoupling relation for the weight-w deformation pinned by its shape.

    The commutant at weight w is solved over the function field; the target
    is the unique kernel element matching target_shape (or is given
    directly), and the relation multiplier * target = combination of
    normally ordered words in gens is computed.  The multiplier's rational
    roots are the levels where the pinned deformation fails to decouple;
    denominators of the ambient coefficients of the target and words are
    reported separately as poles.

    charge_currents, when given, replace the currents of solve_basis: the
    solve runs on the joint charge-0 monomials of their zero modes, where
    every kernel element lies.  For the osp(1|2)/sp2 coset [H] gives
    solve_basis itself.
    """
    w = exact_scalar(w)
    basis = _charge0_basis(P, w, charge_currents) if charge_currents else None
    com = commutant_basis(P, actions, w, basis=basis)
    if target is None:
        if target_shape is None:
            raise LinearError("either a target or a target shape is required")
        target = pin_commutant_element(com, target_shape)
    if not verify_commutant(P, target, actions):
        raise LinearError("target is not in the commutant")
    words = enumerate_words(P, gens, w)
    expected = len(words)
    if com.kernel_dim > expected:
        # more commutant directions than words: a genuinely new generator
        raise LinearError(
            f"commutant dimension {com.kernel_dim} exceeds word count "
            f"{expected}; no decoupling relation can exist"
        )
    rel = _relation(P, target, words, w)
    if isinstance(rel, Obstruction):
        raise LinearError(
            f"target not in the span of words: ranks {rel.words_rank} vs "
            f"{rel.combined_rank}"
        )
    roots, _ = rel.multiplier_roots()
    poles, _ = _distinct_roots(
        c.zden for elem in [target] + [e for _, e in words] for c in elem.data.values()
    )
    return DecouplingReport(
        w, com.kernel_dim, len(words), target, rel, roots, poles
    )
