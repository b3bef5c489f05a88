"""Exact linear algebra over the rational-function field.

Weight-graded basis enumeration, torus-charge filtering, commutant solves,
relation finding, and decoupling analysis.

One fraction-free elimination, PolySystem.eliminate (after Bareiss 1968,
Math. Comp. 22), serves every parametric solve over Q(k): the commutant
kernel, and through solve() the relation, pin and span solves, where the
right-hand side is one extra column.  Rows have their denominators cleared
and live in Z[k] as primitive rows of integer tuples: every new row is
divided by the gcd of its entries, taken in Z[k] by coefficients.zgcd, and
by its integer content.  In each column the pivot is the entry of lowest
degree, ties going to the sparsest row (Markowitz 1957, Management
Science 3) and then to the first one.  Elimination works on a copy, so the
input rows stay as built.  The pivot polynomials are reported over Q.  The
kernel is back-substituted over Z[k] too, with one denominator per kernel
vector, and its coordinates come back as RatFuncs.

Nongeneric levels: away from the roots of the pivots, of the factors
stripped from rows and of the cleared denominators, every elimination step
stays valid at k = k0, so the rank can drop only at those roots.  A kernel
coordinate's denominator divides a product of pivot entries, so it adds no
candidate.
SolveReport.rank_at decides each candidate with coefficients.qsolve, the
one elimination over Q, on the rows evaluated at k = k0.  qsolve shares no
code with PolySystem.eliminate or the Z[k] helpers, so its rank is an
independent certificate.

Commutant conditions accept "actions": either a weight-one current (all its
nonnegative modes must kill the element) or a pair (current, derivation)
where the derivation is an outer even derivation given on generators; the
combined zero mode is current_(0) + derivation, and higher modes come from
the current alone.  The second form realizes diagonal group actions whose
restriction to a free tensor factor is not inner.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd

from .coefficients import (
    PONE,
    RF_ZERO,
    RatFunc,
    as_ratfunc,
    exact_scalar,
    format_poly,
    format_ratfunc,
    integer_row,
    pdeg,
    plcm,
    pmonic,
    pprimitive,
    qsolve,
    rational_roots,
    zcombine,
    zgcd,
    zmul,
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
        self.index = {M: i for i, M in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def _pbw_words(bases, w):
    """Sorted words of total weight w in the bases and their derivatives.

    bases is a list of (weight, parity); a word is a sorted tuple of
    (base index, derivative order) slots in which an even slot may repeat
    and an odd slot appears at most once.
    """
    slots = sorted(
        ((i, d), wt + d, parity)
        for i, (wt, parity) in enumerate(bases)
        for d in range(int(w - wt) + 1 if wt <= w else 0)
    )

    def recurse(start, remaining):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(slots)):
            slot, fw, odd = slots[idx]
            if fw <= remaining:
                for rest in recurse(idx + 1 if odd else idx, remaining - fw):
                    yield (slot,) + rest

    return sorted(recurse(0, w))


def weight_basis(P: VAPresentation, w) -> WeightBasis:
    """All canonical monomials of the given weight, in lexicographic order."""
    w = exact_scalar(w)
    if w < 0:
        raise LinearError("weight must be nonnegative")
    bases = [(g.weight, g.parity) for g in P.generators]
    return WeightBasis(P, w, _pbw_words(bases, w))


def charge_filter(basis: WeightBasis, currents=None, charges=None, charge_maps=None):
    """Sub-basis of simultaneous torus eigenvectors with the given charges.

    Either currents (weight-one, acting diagonally through their zero modes)
    or explicit charge_maps (dicts generator id -> Fraction) may be given.
    """
    P = basis.pres
    maps = []
    if charge_maps is not None:
        maps = [dict(m) for m in charge_maps]
    else:
        for J in currents or []:
            maps.append(_diagonal_charges(P, J))
    if charges is None:
        charges = [Fraction(0)] * len(maps)
    charges = [exact_scalar(c) for c in charges]
    if len(charges) != len(maps):
        raise LinearError("one charge per current required")
    if not maps:
        return basis
    keep = []
    for M in basis.monomials:
        ok = True
        for cm, q in zip(maps, charges):
            total = sum((cm.get(g, Fraction(0)) for g, _ in M), Fraction(0))
            if total != q:
                ok = False
                break
        if ok:
            keep.append(M)
    return WeightBasis(P, basis.weight, keep)


def _diagonal_charges(P: VAPresentation, J: Element) -> dict:
    if P.weight_of(J) != 1:
        raise NotTorusDiagonal("charge currents must have weight one")
    out = {}
    for g in range(P.ngen):
        image = P.nprod(J, P.gen(g), 0)
        if image.is_zero():
            out[g] = Fraction(0)
            continue
        if set(image.data) != {((g, 0),)}:
            raise NotTorusDiagonal(
                f"current does not act diagonally on {P.generators[g].name}"
            )
        c = image.data[((g, 0),)]
        if not c.is_constant():
            raise NotTorusDiagonal("charge is not a constant")
        out[g] = c.constant_value()
    return out


# ---------------------------------------------------------------------------
# Fraction-free elimination over Z[k] with pivot polynomials


class PolySystem:
    """A sparse linear system over Q(param) kept as primitive rows over Z[param]."""

    def __init__(self, ncols, param="k"):
        self.ncols = ncols
        self.param = param
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
                    num = [zmul(p, x) for x in num]
                    den = zmul(p, den)
                num[col] = tuple(-x for x in t)
        den = tuple(map(Fraction, den))
        return [RatFunc(tuple(map(Fraction, x)), den) if x else RF_ZERO for x in num]


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
    for a in actions:
        if isinstance(a, Element):
            out.append((a, None))
        else:
            current, derivation = a
            if current is None and derivation is None:
                raise LinearError("empty action")
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
        k0 = exact_scalar(k0)
        rows = [{col: v.evaluate(k0) for col, v in row.items()}
                for row in self.system.original_rows]
        return qsolve(rows, self.system.ncols)[0]

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


def commutant_system(P: VAPresentation, actions, w, basis=None) -> "PolySystem":
    w = exact_scalar(w)
    if basis is None:
        basis = weight_basis(P, w)
    actions = _normalize_actions(actions)
    for current, _ in actions:
        if current is not None and P.weight_of(current) != 1:
            raise LinearError("commutant currents must have weight one")
    system = PolySystem(len(basis), param=P.param)
    nmax = int(ceil(w)) if w > 0 else 0
    # rows are indexed by (action, n, target monomial)
    for a_idx, (current, derivation) in enumerate(actions):
        top = nmax if current is not None else 0
        for n in range(top + 1):
            rows = {}
            for col, M in enumerate(basis.monomials):
                image = _action_image(P, current, derivation, P.element({M: 1}), n)
                for T, c in image.data.items():
                    rows.setdefault(T, {})[col] = c
            for T in sorted(rows):
                system.add_row(rows[T])
    return system


def commutant_basis(P: VAPresentation, actions, w, basis=None) -> SolveReport:
    w = exact_scalar(w)
    if basis is None:
        basis = weight_basis(P, w)
    system = commutant_system(P, actions, w, basis)
    rank, pivots, pivot_rows = system.eliminate()
    kernel = system.kernel(pivot_rows)
    return SolveReport(P, w, basis, rank, pivots, kernel, system)


def verify_commutant(P: VAPresentation, v: Element, actions) -> bool:
    """Re-check the commutant conditions directly on an assembled element:
    the zero-mode conditions of verify_invariant, and every mode n >= 1 of
    each current kills v."""
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
    """
    if v.is_zero():
        return True
    for current, derivation in _normalize_actions(actions):
        if not _action_image(P, current, derivation, v, 0).is_zero():
            return False
    return True


def _action_image(P, current, derivation, v, n):
    """current_(n) v, plus derivation(v) when n = 0."""
    image = P.nprod(current, v, n) if current is not None else P.zero()
    if n == 0 and derivation is not None:
        image = image + apply_derivation(P, derivation, v)
    return image


def invariant_basis(P: VAPresentation, actions, w, basis=None) -> SolveReport:
    """Kernel of the combined zero modes on the weight-w space."""
    w = exact_scalar(w)
    if basis is None:
        basis = weight_basis(P, w)
    zero_mode_actions = [
        (None, _zero_mode_as_derivation(P, current, derivation))
        for current, derivation in _normalize_actions(actions)
    ]
    return commutant_basis(P, zero_mode_actions, w, basis)


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
        if actions:
            out[w] = commutant_basis(P, actions, w).kernel_dim
        else:
            out[w] = len(weight_basis(P, w))
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

    @property
    def levels(self):
        return set(self.certified)

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
    stripped = [pprimitive(f) for f in sorted(report.system.stripped_factors)]
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
    for p in dict.fromkeys(pmonic(p) for p in polys if pdeg(p) > 0):
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
        roots, cofactor = rational_roots(self.multiplier.num)
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


def find_relation(P: VAPresentation, target: Element, gens, w=None):
    """Express the target through normally ordered words in the generators.

    Solves multiplier * target = combination over the function field; the
    multiplier is the cleared common denominator (a primitive polynomial).
    Returns a Relation, or an Obstruction if the target is not in the span.
    """
    if w is None:
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
    multiplier = RatFunc(pprimitive(plcm(c.den for c in sol if c)), PONE)
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
                 roots, root_cofactor, poles):
        self.weight = weight
        self.commutant_dim = commutant_dim
        self.words_count = words_count
        self.target = target
        self.relation = relation
        self.roots = dict(roots)          # root -> multiplicity
        self.root_cofactor = root_cofactor
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

    charge_currents, when given, restricts the solve to the joint charge-0
    eigenspace of their zero modes; kernel elements always lie there, so
    this only shrinks the system.
    """
    w = exact_scalar(w)
    basis = None
    if charge_currents:
        basis = charge_filter(
            weight_basis(P, w), currents=charge_currents,
            charges=[Fraction(0)] * len(charge_currents),
        )
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
    roots, cofactor = rel.multiplier_roots()
    poles, _ = _distinct_roots(
        c.den for elem in [target] + [e for _, e in words] for c in elem.data.values()
    )
    return DecouplingReport(
        w, com.kernel_dim, len(words), target, rel, roots, cofactor, poles
    )
