"""Exact arithmetic in Q(t): rational functions in one formal parameter.

The parameter is written abstractly; presentations decide whether it means
the level k or the square root kappa (with k = kappa^2).  A RatFunc is
kept over Z[k] as two int tuples, znum and zden, in canonical form at all
times: coprime in Z[k], integer content included, zden with a positive
leading coefficient, zero as ()/(1,).  The form is unique, so equality and
hashing are structural, and the operators work on ints alone.  The num
and den properties give the same value over Q with a monic denominator,
the form that printing uses; the constructor RatFunc(num, den) is the one
place that takes Fraction coefficients.

TokenReader is the package's one tokenizer and its coefficient grammar;
parse_ratfunc and the element parser of vertexalg.expressions both read
text with it.  Parsed polynomials are bounded: an exponent, and the degree
of every product formed while parsing, is at most MAX_PARSED_DEGREE; over
it the reader raises LimitExceeded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Rational = Fraction


class CoefficientError(ArithmeticError):
    pass


class ZeroDenominator(CoefficientError):
    pass


class EvaluationAtPole(CoefficientError):
    def __init__(self, root):
        super().__init__(f"evaluation at pole {root}")
        self.root = root


class DivergesAtInfinity(CoefficientError):
    pass


class LimitExceeded(CoefficientError):
    """Parsed input over a documented size limit."""


# largest exponent, and largest degree of any product, in parsed text
MAX_PARSED_DEGREE = 200


# ---------------------------------------------------------------------------
# Dense univariate polynomials as tuples (low degree first) with int or
# Fraction coefficients, one type per polynomial; one set of helpers serves
# both.  The zero polynomial is the empty tuple.  Int tuples are Z[k]:
# RatFunc keeps its numerator and denominator there, every polynomial gcd
# is taken there, and so are the rows of the fraction-free elimination in
# linear.

Poly = tuple

PZERO: Poly = ()
PONE: Poly = (Fraction(1),)


def pnormalize(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def pconst(c) -> Poly:
    c = exact_scalar(c)
    return (c,) if c else PZERO


def pdeg(p: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def padd(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return pnormalize(out)


def pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def pmul(p: Poly, q: Poly) -> Poly:
    """p*q; a coefficient that no term reaches is a zero of p's type."""
    if not p or not q:
        return PZERO
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        a = p[0]
        return tuple([a * b for b in q])
    out = [p[-1] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def pdivmod(p: Poly, q: Poly):
    """Quotient and remainder over Q; p has Fraction coefficients."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for i in range(len(p) - len(q), -1, -1):
        c = rem[i + len(q) - 1] / lead
        if c:
            quo[i] = c
            for j, b in enumerate(q):
                rem[i + j] -= c * b
    return pnormalize(quo), pnormalize(rem)


def pgcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q, computed over Z[k] by zgcd."""
    if not p or not q:
        return pmonic(p or q)
    g = zgcd(zprimitive(p)[0], zprimitive(q)[0])[0]
    return PONE if len(g) == 1 else pmonic(tuple(map(Fraction, g)))


def pmonic(p: Poly) -> Poly:
    if not p:
        return PZERO
    lead = p[-1]
    if lead == 1:
        return p
    return tuple(c / lead for c in p)


def peval(p: Poly, x):
    """p(x); an int polynomial at an int x gives an int."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def zprimitive(p):
    """(z, s) with p = s*z for a nonzero polynomial p over Q (int or
    Fraction coefficients): z primitive over Z with a positive leading
    coefficient, s an int when p is over Z and a Fraction otherwise."""
    if type(p[-1]) is int:  # over Z; a Fraction among ints makes gcd raise
        ints, den = p, 1
    else:
        den = lcm(*[c.denominator for c in p])
        ints = [c.numerator * (den // c.denominator) for c in p]
    cont = gcd(*ints)
    if ints[-1] < 0:
        cont = -cont
    z = tuple(ints) if cont == 1 else tuple([x // cont for x in ints])
    return z, cont if den == 1 else Fraction(cont, den)


def pprimitive(p: Poly) -> Poly:
    """zprimitive's primitive part with Fraction coefficients; zero for zero."""
    return tuple(map(Fraction, zprimitive(p)[0])) if p else PZERO


def zlcm(polys):
    """Primitive least common multiple over Z[k] of nonzero polynomials
    over Q; the lcm of no polynomials is 1."""
    out = (1,)
    for p in polys:
        if len(p) > 1:
            out = pmul(out, zgcd(out, zprimitive(p)[0])[2])
    return out


def rational_roots(p: Poly):
    """All rational roots with multiplicity, plus the root-free cofactor.

    p has int or Fraction coefficients.  Returns (roots, cofactor) where
    roots is a dict Fraction -> multiplicity and cofactor is the monic
    Fraction polynomial left after dividing the roots out.  The cofactor has
    no rational roots; no further factorization over Q is attempted.  The
    cost is polynomial in the degree and in the bit length of the
    coefficients (see _rational_real_roots).
    """
    if not p:
        raise CoefficientError("rational_roots of the zero polynomial")
    roots = {}
    # strip powers of t
    low = 0
    while p[low] == 0:
        low += 1
    if low:
        roots[Fraction(0)] = low
        p = p[low:]
    ip = zprimitive(p)[0]
    if len(ip) > 1:
        for root in _rational_real_roots(ip):
            # ip is primitive, so den*t - num divides it over Z[t] exactly
            # when root is a root (Gauss's lemma)
            factor = (-root.numerator, root.denominator)
            while (quo := zquo(ip, factor)) is not None:
                roots[root] = roots.get(root, 0) + 1
                ip = quo
    return roots, pmonic(tuple(map(Fraction, ip)))


def _rational_real_roots(p):
    """Distinct rational roots of a nonconstant primitive polynomial over Z.

    Exact real-root isolation of the squarefree part f by bisection with a
    Sturm sequence (as Collins and Akritas 1976 bisect with Descartes' rule):
    V(a) - V(b) sign changes count the roots in (a, b].  A rational root r/s
    of f has s dividing its leading coefficient a, and two such fractions lie
    at least 1/a^2 apart, so once an interval holding one root is narrower
    than 1/(2 a^2) the root is its midpoint's nearest fraction with
    denominator at most |a|.  Each candidate is kept only if f vanishes on it
    exactly.
    """
    f = zgcd(p, tuple(i * c for i, c in enumerate(p))[1:])[1]
    lead = f[-1]
    sturm = [f, tuple(i * c for i, c in enumerate(f))[1:]]
    while pdeg(sturm[-1]) > 0:
        # the negated remainder, divided by a positive constant
        z, s = zprimitive(pdivmod(tuple(map(Fraction, sturm[-2])), sturm[-1])[1])
        sturm.append(tuple(-c for c in z) if s > 0 else z)

    def changes(x):
        signs = [v > 0 for v in (peval(q, x) for q in sturm) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # every root lies in (-bound, bound)
    bound = 1 + Fraction(max(abs(c) for c in f), lead)
    width = Fraction(1, 2 * lead * lead)
    found = []
    intervals = [(-bound, bound, changes(-bound), changes(bound))]
    while intervals:
        a, b, va, vb = intervals.pop()
        if va == vb:
            continue
        mid = (a + b) / 2
        if va - vb == 1 and b - a < width:
            candidate = mid.limit_denominator(lead)
            if peval(f, candidate) == 0:
                found.append(candidate)
            continue
        vm = changes(mid)
        intervals += [(a, mid, va, vm), (mid, b, vm, vb)]
    return sorted(found)


# ---------------------------------------------------------------------------
# Sparse linear systems over Q: the package's one Gaussian elimination over
# Q.  It shares no code with the elimination over Z[k] in linear, whose rank
# it checks at chosen levels.


def qsolve(rows, ncols):
    """Rank of sparse rows over Q, and a solution for each right-hand side.

    rows are dicts col -> int or Fraction, left unchanged; any other entry,
    a float included, raises TypeError.  Columns below ncols are
    the unknowns and every other column is a right-hand side.  Returns
    (rank, solutions): solutions maps each right-hand side that occurs in a
    row (one that occurs in none is zero) to a solution, ncols Fractions
    that are zero at the free unknowns, or to None if its system is
    inconsistent.  Each column's pivot is the first remaining row with an
    entry there; without right-hand sides only this forward elimination runs.
    """
    active = [{c: exact_scalar(v) for c, v in row.items()} for row in rows]
    active = [row for row in ({c: v for c, v in r.items() if v} for r in active) if row]
    pivots = []
    for col in range(ncols):
        i = next((i for i, row in enumerate(active) if col in row), None)
        if i is None:
            continue
        prow = active.pop(i)
        pivots.append((col, prow))
        pval = prow[col]
        for row in active:
            if col in row:
                f = row[col] / pval
                for c, v in prow.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
    # the rows left are zero on the unknowns, so each right-hand side in them
    # is inconsistent; every other one that occurs in the input occurs in a
    # pivot row, as row operations are invertible
    solutions = dict.fromkeys(c for row in active for c in row)
    rhs = sorted({c for _, prow in pivots for c in prow if c >= ncols} - set(solutions))
    if rhs:
        # back-substitution, bottom pivot first, on each pivot row's unknowns
        steps = [(col, prow, [(c, v) for c, v in prow.items() if col < c < ncols])
                 for col, prow in reversed(pivots)]
        for b in rhs:
            x = [Fraction(0)] * ncols
            for col, prow, tail in steps:
                x[col] = (prow.get(b, 0) - sum(v * x[c] for c, v in tail)) / prow[col]
            solutions[b] = x
    return len(pivots), solutions


# the prime of rank_mod_p: 2^61 - 1, a Mersenne prime
RANK_PRIME = 2**61 - 1


def rank_mod_p(rows, ncols, k0):
    """Rank over F_p, p = RANK_PRIME, of sparse rows of RatFuncs at k = k0.

    rows are dicts col -> RatFunc, left unchanged; only the columns below
    ncols count.  An entry N/D, N and D over Z, is evaluated at k0 = a/b:
    when b is a p-unit, N(k0) and D(k0) are p-integral, and when D(k0) is
    a p-unit too the entry is p-integral, with value N(x)/D(x) in F_p for
    x = a/b mod p.  Returns None when b or some D(k0) is 0 mod p.
    Otherwise a minor that is nonzero mod p is nonzero over Q, so the
    result is at most the rank over Q of the rows at k0.  Like qsolve it
    shares no code with the elimination over Z[k].  Each column's pivot is
    the sparsest remaining row with an entry there, ties going to the
    first one (Markowitz 1957): the rank does not depend on the pivot, and
    the sparsest row spreads the least fill-in into the others.
    """
    p = RANK_PRIME
    k0 = Fraction(k0)
    if not k0.denominator % p:
        return None
    x = k0.numerator * pow(k0.denominator, -1, p) % p

    def value(poly):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        return acc

    active = []
    for row in rows:
        out = {}
        for col, v in row.items():
            if col >= ncols:
                continue
            den = value(v.zden)
            if not den:
                return None
            num = value(v.znum)
            if num:
                out[col] = num * pow(den, -1, p) % p
        if out:
            active.append(out)
    # rows_at[c]: the remaining rows, by position, with an entry in column c
    rows_at = {}
    for i, row in enumerate(active):
        for c in row:
            rows_at.setdefault(c, set()).add(i)
    rank = 0
    for col in range(ncols):
        hits = rows_at.pop(col, None)
        if not hits:
            continue
        pivot = min(hits, key=lambda i: (len(active[i]), i))
        hits.remove(pivot)
        prow = active[pivot]
        pinv = pow(prow.pop(col), -1, p)
        for c in prow:
            rows_at[c].discard(pivot)
        rank += 1
        for i in hits:
            row = active[i]
            f = row.pop(col) * pinv % p
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if not nv:
                    del row[c]
                    rows_at[c].discard(i)
                    continue
                if c not in row:
                    rows_at.setdefault(c, set()).add(i)
                row[c] = nv
    return rank


# ---------------------------------------------------------------------------
# Polynomials over Z: gcd, exact quotients and combinations of int tuples.
# The polynomial helpers above serve them too, as one set for both
# coefficient types.

# GCDHEU evaluation points tried before the Euclid fallback
_HEURISTIC_TRIES = 6


def zcombine(a, v, b, w):
    """a*v - b*w for integer polynomials."""
    out = [0] * (max(len(a) + len(v), len(b) + len(w)) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(v):
            out[i + j] += x * y
    for i, x in enumerate(b):
        for j, y in enumerate(w):
            out[i + j] -= x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def zquo(a, b):
    """a/b for integer polynomials when b divides a over Z[k], else None."""
    if not a:
        return ()
    db = len(b) - 1
    if len(a) <= db or (b[0] and a[0] % b[0]) or (a[0] and not b[0]):
        return None
    rem = list(a)
    lead = b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(rem[i + db], lead)
        if r:
            return None
        if c:
            quo[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    return tuple(quo) if not any(rem[:db]) else None


def zgcd(a, b):
    """gcd over Z[k] of two nonzero integer polynomials, with the cofactors:
    (g, a/g, b/g), g primitive with a positive leading coefficient.

    The heuristic gcd answers almost always; when it gives up, Euclid's
    algorithm over Q is the proven fallback."""
    pa, ca = zprimitive(a)
    pb, cb = zprimitive(b)
    if len(pa) == 1 or len(pb) == 1:
        g, qa, qb = (1,), pa, pb
    else:
        g, qa, qb = _heuristic_gcd(pa, pb) or _euclid_gcd(pa, pb)
    if ca != 1:
        qa = tuple(x * ca for x in qa)
    if cb != 1:
        qb = tuple(x * cb for x in qb)
    return g, qa, qb


def _heuristic_gcd(a, b):
    """GCDHEU (Char, Geddes and Gonnet 1989, J. Symbolic Comput. 7) on two
    primitive nonconstant integer polynomials: (g, a/g, b/g), or None.

    Take an integer xi >= 2 min(|a|, |b|) + 2 (max norms) and write
    gamma = gcd(a(xi), b(xi)) in symmetric xi-adic digits, the coefficients
    of h with h(xi) = gamma.  If the primitive part H of h divides a and b,
    it is their gcd G: G = H*Q, and G(xi) | gamma = c*H(xi) gives
    Q(xi) | c, where the content c of h is at most xi/2.  Every root of Q is
    a root of a and of b, so smaller than 1 + min(|a|, |b|) <= xi/2 in
    modulus, and |Q(xi)| > (xi/2)^deg Q; so Q is constant.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEURISTIC_TRIES):
        gamma = gcd(peval(a, xi), peval(b, xi))
        digits = []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        if len(digits) == 1:
            return (1,), a, b
        if digits:
            g = zprimitive(digits)[0]
            qa = zquo(a, g)
            if qa is not None:
                qb = zquo(b, g)
                if qb is not None:
                    return g, qa, qb
        xi = xi * 73794 // 27011  # the next point, about 2.73 times larger
    return None


def _euclid_gcd(a, b):
    """The proven path: Euclid's algorithm over Q, then exact cofactors."""
    p, q = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    while q:
        p, q = q, pdivmod(p, q)[1]
    g = zprimitive(p)[0]
    return g, zquo(a, g), zquo(b, g)


def integer_row(row: dict):
    """Clear the denominators of a row of nonzero RatFunc values.

    Returns (den, out): den is the primitive lcm over Z[k] of the
    denominators, and out maps each column to s*den*row[col] as an integer
    polynomial, s the lcm of the denominators' contents.
    """
    parts = {}
    for c, v in row.items():
        d = v.zden
        e = gcd(*d)
        parts[c] = v.znum, e, (d if e == 1 else tuple([x // e for x in d]))
    den = zlcm(d for _, _, d in parts.values())
    scale = lcm(*[e for _, e, _ in parts.values()])
    out = {}
    for c, (n, e, d) in parts.items():
        if d != den:
            n = pmul(n, zquo(den, d))
        out[c] = n if e == scale else tuple([x * (scale // e) for x in n])
    return den, out


# ---------------------------------------------------------------------------
# Rational functions


def _ratfunc(n, d):
    """The RatFunc n/d of a pair already in canonical form."""
    f = object.__new__(RatFunc)
    f.znum = n
    f.zden = d
    return f


def _lowest(n, d):
    """n/d for nonzero integer polynomials with no common factor of positive
    degree: divided by the gcd of all their coefficients, d[-1] made
    positive."""
    g = gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        n = tuple([x // g for x in n])
        d = tuple([x // g for x in d])
    return _ratfunc(n, d)


def _product(n1, d1, n2, d2):
    """(n1/d1) * (n2/d2) for canonical pairs."""
    if not n1 or not n2:
        return RF_ZERO
    if len(n2) == 1 == len(d2):
        n1, d1, n2, d2 = n2, d2, n1, d1
    if len(d1) == 1 and (len(n1) == 1 or len(d2) == 1):
        # no factor of positive degree cancels: cancel the contents of n1
        # against d2's and of n2 against d1's
        g = gcd(*n1, *d2)
        if g != 1:
            n1 = tuple([x // g for x in n1])
            d2 = tuple([x // g for x in d2])
        g = gcd(d1[0], *n2)
        if g != 1:
            n2 = tuple([x // g for x in n2])
            d1 = (d1[0] // g,)
        return _ratfunc(pmul(n1, n2), d2 if d1 == (1,) else pmul(d1, d2))
    return RatFunc.over_z(pmul(n1, n2), pmul(d1, d2))


class RatFunc:
    """A rational function znum/zden in canonical form over Z[k]."""

    __slots__ = ("znum", "zden")

    def __init__(self, num, den=PONE):
        """num/den for polynomials over Q, tuples of ints or Fractions (low
        degree first), or exact scalars; trailing zeros are ignored."""
        if isinstance(num, (int, Fraction)):
            num = pconst(num)
        if isinstance(den, (int, Fraction)):
            den = pconst(den)
        # num = n/a and den = d/b over Z, so num/den = (b*n)/(a*d)
        a = lcm(*[c.denominator for c in num])
        b = lcm(*[c.denominator for c in den])
        n = pnormalize([c.numerator * (a // c.denominator) * b for c in num])
        d = pnormalize([c.numerator * (b // c.denominator) * a for c in den])
        if not d:
            raise ZeroDenominator("zero denominator polynomial")
        f = RatFunc.over_z(n, d)
        self.znum = f.znum
        self.zden = f.zden

    # -- constructors ------------------------------------------------------

    @staticmethod
    def over_z(n, d) -> "RatFunc":
        """n/d for integer polynomials without trailing zeros, d nonzero."""
        if not n:
            return RF_ZERO
        if len(n) > 1 and len(d) > 1:
            _, n, d = zgcd(n, d)
        return _lowest(n, d)

    @staticmethod
    def const(c) -> "RatFunc":
        if type(c) is not int:
            c = exact_scalar(c)
            if c.denominator != 1:
                return _ratfunc((c.numerator,), (c.denominator,))
            c = c.numerator
        return _ratfunc((c,), (1,)) if c else RF_ZERO

    @staticmethod
    def param() -> "RatFunc":
        return _ratfunc((0, 1), (1,))

    # -- the monic view over Q ---------------------------------------------

    @property
    def num(self) -> Poly:
        """The numerator over Q, for the denominator made monic."""
        lead = self.zden[-1]
        return tuple([Fraction(x, lead) for x in self.znum])

    @property
    def den(self) -> Poly:
        """The monic denominator over Q."""
        lead = self.zden[-1]
        return tuple([Fraction(x, lead) for x in self.zden])

    # -- predicates --------------------------------------------------------

    def is_constant(self) -> bool:
        return len(self.znum) <= 1 and len(self.zden) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise CoefficientError("not a constant")
        return Fraction(self.znum[0], self.zden[0]) if self.znum else Fraction(0)

    def __bool__(self):
        return bool(self.znum)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = as_ratfunc(other)
        n1, d1 = self.znum, self.zden
        n2, d2 = other.znum, other.zden
        if not n2:
            return self
        if not n1:
            return other
        if d1 == d2:
            n = padd(n1, n2)
            if not n:
                return RF_ZERO
            if len(d1) > 1:
                return RatFunc.over_z(n, d1)
            return _ratfunc(n, d1) if d1 == (1,) else _lowest(n, d1)
        # the denominators differ, so the sum is not zero
        if len(d2) == 1:
            n1, d1, n2, d2 = n2, d2, n1, d1
        if len(d1) == 1:
            b = d1[0]
            if len(d2) == 1:
                # as Fraction adds: only a factor of gcd(b, c) can cancel
                c = d2[0]
                g = gcd(b, c)
                n = zcombine((c // g,), n1, (-b // g,), n2)
                return _ratfunc(n, (b * c,)) if g == 1 else _lowest(n, (b // g * c,))
            # n1/b + n2/d2 = (n1*d2 + b*n2)/(b*d2): no factor of d2 divides
            # the numerator, so only an integer can cancel
            n = zcombine(n1, d2, (-b,), n2)
            return _ratfunc(n, d2) if b == 1 else _lowest(n, tuple([b * x for x in d2]))
        # with g = gcd(d1, d2) the sum is (n1*(d2/g) + n2*(d1/g)) / (d1*(d2/g))
        _, e1, e2 = zgcd(d1, d2)
        return RatFunc.over_z(zcombine(n1, e2, pneg(n2), e1), pmul(d1, e2))

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(tuple([-x for x in self.znum]), self.zden)

    def __sub__(self, other):
        return self + (-as_ratfunc(other))

    def __rsub__(self, other):
        return as_ratfunc(other) + (-self)

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = as_ratfunc(other)
        return _product(self.znum, self.zden, other.znum, other.zden)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RatFunc:
            other = as_ratfunc(other)
        n, d = other.znum, other.zden
        if not n:
            raise ZeroDenominator("division by zero rational function")
        if n[-1] < 0:
            n, d = pneg(n), pneg(d)
        return _product(self.znum, self.zden, d, n)

    def __rtruediv__(self, other):
        return as_ratfunc(other) / self

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RatFunc.const(other)
        return self.znum == other.znum and self.zden == other.zden

    def __hash__(self):
        return hash((self.znum, self.zden))

    # -- analysis ----------------------------------------------------------

    def evaluate(self, x) -> Fraction:
        x = exact_scalar(x)
        d = peval(self.zden, x)
        if d == 0:
            raise EvaluationAtPole(x)
        return peval(self.znum, x) / d

    def limit_at_infinity(self) -> Fraction:
        n, d = self.znum, self.zden
        if len(n) > len(d):
            raise DivergesAtInfinity(str(self))
        if len(n) < len(d):
            return Fraction(0)
        return Fraction(n[-1], d[-1])

    def __str__(self):
        return format_ratfunc(self)

    __repr__ = __str__


def exact_scalar(x) -> Fraction:
    """The one exact scalar check: an int or Fraction as a Fraction.
    Anything else, floats included, raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {x!r}")
    return Fraction(x)


def as_ratfunc(x) -> RatFunc:
    """The one scalar coercion into Q(t): a RatFunc, or an exact int or
    Fraction constant.  Anything else, floats included, raises TypeError."""
    if isinstance(x, RatFunc):
        return x
    return RatFunc.const(x)


RF_ZERO = _ratfunc((), (1,))
RF_ONE = _ratfunc((1,), (1,))


# ---------------------------------------------------------------------------
# Textual form: "(p)" or "(p)/(q)" with polynomials printed in descending
# degree.  Printing and parsing round-trip bit-exactly.


def format_poly(p: Poly, var: str = "k") -> str:
    if not p:
        return "0"
    parts = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        if d == 0:
            body = str(c if parts == [] else abs(c))
        else:
            mag = c if not parts else abs(c)
            if mag == 1:
                head = var
            else:
                head = f"{mag}*{var}"
            body = head if d == 1 else f"{head}^{d}"
        if not parts:
            parts.append(body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def format_ratfunc(f: RatFunc, var: str = "k") -> str:
    num = f"({format_poly(f.num, var)})"
    if len(f.zden) == 1:
        return num
    return f"{num}/({format_poly(f.den, var)})"


# One tokenizer for coefficients and elements: numbers, names (letters,
# digits, "_" and primes "'") and the symbols of both grammars.
TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[:()+\-*/^]))"
)


class TokenReader:
    """A token stream over text, and the coefficient grammar read from it
    and evaluated directly in RatFunc (whitespace-insensitive; VAR is the
    parameter name):

        ratfunc := p ["/" "(" p ")"]
        coeff   := "(" p ")" ["/" "(" p ")"] | INT ["/" INT]
        p       := ["+" | "-"] pterm (("+" | "-") pterm)*
        pterm   := pfactor ("*" pfactor | "/" INT)*
        pfactor := "-" pfactor | (INT | VAR | "(" p ")") ["^" INT]

    Inside p a "/" divides by a number only; a "/" before "(" ends p and is
    the fraction bar.  parse_ratfunc reads a ratfunc; the element parser of
    vertexalg.expressions subclasses this reader and reads a coeff at the
    start of a term.  Errors are made by error(), which a subclass overrides
    with its own type; LimitExceeded is raised as it is.
    """

    def __init__(self, text: str, var: str):
        self.var = var
        self.pos = 0
        self.toks = []
        at = 0
        while True:
            m = TOKEN.match(text, at)
            if m is None:
                rest = text[at:].lstrip()
                if rest:
                    raise self.error(f"unexpected character {rest[0]!r}", len(text) - len(rest))
                break
            self.toks.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            at = m.end()
        self.toks.append(("end", "", len(text)))

    def error(self, message: str, pos: int) -> Exception:
        return CoefficientError(f"{message} (at position {pos})")

    # -- the token stream ----------------------------------------------------

    def peek(self, ahead: int = 0):
        """A token (kind, text, position); the end token is last and is
        never taken, so the current one and the one after a symbol exist."""
        return self.toks[self.pos + ahead]

    def take(self):
        tok = self.peek()
        if tok[0] != "end":
            self.pos += 1
        return tok

    def at(self, sym: str) -> bool:
        # no name or number is spelled like a symbol
        return self.toks[self.pos][1] == sym

    def expect(self, sym: str):
        tok = self.take()
        if tok[1] != sym:
            raise self.error(f"expected {sym!r}, got {tok[1]!r}", tok[2])
        return tok

    def integer(self) -> int:
        tok = self.take()
        if tok[0] != "int":
            raise self.error(f"expected a number, got {tok[1]!r}", tok[2])
        return int(tok[1])

    def finish(self):
        kind, val, start = self.peek()
        if kind != "end":
            raise self.error(f"trailing input {val!r}", start)

    def sum_of(self, term):
        """["+" | "-"] term (("+" | "-") term)*, with term() reading a term."""
        negate = self.at("-")
        if negate or self.at("+"):
            self.take()
        acc = -term() if negate else term()
        while self.at("+") or self.at("-"):
            if self.take()[1] == "+":
                acc = acc + term()
            else:
                acc = acc - term()
        return acc

    # -- the coefficient grammar ---------------------------------------------

    def ratfunc(self) -> RatFunc:
        return self._over(self.polynomial())

    def coefficient(self) -> RatFunc:
        if self.peek()[0] == "int":
            num = RatFunc.const(self.integer())
            return num / self._divisor() if self.at("/") else num
        self.expect("(")
        num = self.polynomial()
        self.expect(")")
        return self._over(num)

    def polynomial(self) -> RatFunc:
        return self.sum_of(self._poly_term)

    def _over(self, num: RatFunc) -> RatFunc:
        """num, divided by a following "/" "(" p ")" if there is one."""
        if not self.at("/"):
            return num
        self.take()
        start = self.expect("(")[2]
        den = self.polynomial()
        self.expect(")")
        if not den:
            raise self.error("zero denominator", start)
        return num / den

    def _divisor(self) -> int:
        """The nonzero number after a "/"."""
        self.take()
        start = self.peek()[2]
        d = self.integer()
        if not d:
            raise self.error("zero denominator", start)
        return d

    def _poly_term(self) -> RatFunc:
        acc = self._poly_factor()
        while True:
            if self.at("*"):
                self.take()
                right = self._poly_factor()
                if len(acc.znum) + len(right.znum) - 2 > MAX_PARSED_DEGREE:
                    raise LimitExceeded(
                        f"a product exceeds the degree limit {MAX_PARSED_DEGREE}"
                    )
                acc = acc * right
            elif self.at("/") and self.peek(1)[1] != "(":
                acc = acc / self._divisor()
            else:
                return acc

    def _poly_factor(self) -> RatFunc:
        kind, val, start = self.take()
        if val == "-":
            return -self._poly_factor()
        if kind == "int":
            base = RatFunc.const(int(val))
        elif kind == "name":
            if val != self.var:
                raise self.error(f"unknown symbol {val!r}; parameter is {self.var!r}", start)
            base = RatFunc.param()
        elif val == "(":
            base = self.polynomial()
            self.expect(")")
        else:
            raise self.error(f"unexpected token {val!r} in a coefficient", start)
        if not self.at("^"):
            return base
        self.take()
        n = self.integer()
        if n > MAX_PARSED_DEGREE or (len(base.znum) - 1) * n > MAX_PARSED_DEGREE:
            raise LimitExceeded(f"exponent {n} exceeds the degree limit {MAX_PARSED_DEGREE}")
        out = RF_ONE
        for _ in range(n):
            out = out * base
        return out


def parse_ratfunc(text: str, var: str = "k") -> RatFunc:
    """Parse "(p)", "(p)/(q)" or a bare polynomial: the ratfunc rule of
    TokenReader."""
    reader = TokenReader(text, var)
    out = reader.ratfunc()
    reader.finish()
    return out
