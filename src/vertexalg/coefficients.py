"""Exact arithmetic in Q(t): rational functions in one formal parameter.

The parameter is written abstractly; presentations decide whether it means
the level k or the square root kappa (with k = kappa^2).  Values are kept
in canonical form at all times: numerator and denominator coprime, the
denominator monic, zero represented as 0/1.  Equality is therefore plain
structural comparison.
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


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Fraction, as tuples (low degree first).
# The zero polynomial is the empty tuple.

Poly = tuple

PZERO: Poly = ()
PONE: Poly = (Fraction(1),)
PVAR: Poly = (Fraction(0), Fraction(1))


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


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pneg(q))


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return PZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return pnormalize(out)


def pscale(p: Poly, c) -> Poly:
    if not c:
        return PZERO
    return tuple(a * c for a in p)


def pdivmod(p: Poly, q: Poly):
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
    """Monic gcd by Euclid's algorithm."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    return pmonic(p)


def pmonic(p: Poly) -> Poly:
    if not p:
        return PZERO
    lead = p[-1]
    if lead == 1:
        return p
    return tuple(c / lead for c in p)


def peval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pcontent(coeffs) -> Fraction:
    """Positive rational content of a polynomial, or of any iterable of
    coefficients (such as all entries of a row); content of zero is 0."""
    num = 0
    den = 1
    for c in coeffs:
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    return Fraction(num, den)


def plcm(polys) -> Poly:
    """Monic least common multiple; the lcm of no polynomials is 1."""
    out = PONE
    for p in polys:
        out = pdivmod(pmul(out, p), pgcd(out, p))[0]
    return out


def pprimitive(p: Poly) -> Poly:
    """Primitive part: content removed, leading coefficient positive."""
    if not p:
        return PZERO
    cont = pcontent(p)
    if p[-1] < 0:
        cont = -cont
    return tuple(c / cont for c in p)


def rational_roots(p: Poly):
    """All rational roots with multiplicity, plus the root-free cofactor.

    Returns (roots, cofactor) where roots is a dict Fraction -> multiplicity
    and cofactor is the monic polynomial left after dividing the roots out.
    The cofactor has no rational roots; no further factorization over Q is
    attempted.  The cost is polynomial in the degree and in the bit length
    of the coefficients (see _rational_real_roots).
    """
    if not p:
        raise CoefficientError("rational_roots of the zero polynomial")
    roots = {}
    # strip powers of t
    low = 0
    while low < len(p) and p[low] == 0:
        low += 1
    if low:
        roots[Fraction(0)] = low
        p = p[low:]
    # clear to integer coefficients, kept as Fractions so division stays exact
    den = lcm(*(c.denominator for c in p))
    ip = tuple(c * den for c in p)
    if len(ip) > 1:
        for root in _rational_real_roots(ip):
            while len(ip) > 1 and peval(ip, root) == 0:
                roots[root] = roots.get(root, 0) + 1
                ip = pdivmod(ip, (-root, Fraction(1)))[0]
    return roots, pmonic(ip)


def _rational_real_roots(p):
    """Distinct rational roots of a nonconstant polynomial with integer
    (Fraction) coefficients.

    Exact real-root isolation of the squarefree part f by bisection with a
    Sturm sequence (as Collins and Akritas 1976 bisect with Descartes' rule):
    V(a) - V(b) sign changes count the roots in (a, b].  A rational root r/s
    of f has s dividing its leading coefficient a, and two such fractions lie
    at least 1/a^2 apart, so once an interval holding one root is narrower
    than 1/(2 a^2) the root is its midpoint's nearest fraction with
    denominator at most |a|.  Each candidate is kept only if f vanishes on it
    exactly.
    """
    deriv = tuple(i * c for i, c in enumerate(p))[1:]
    f = pprimitive(pdivmod(p, pgcd(p, deriv))[0])
    lead = int(f[-1])
    sturm = [f, tuple(i * c for i, c in enumerate(f))[1:]]
    while pdeg(sturm[-1]) > 0:
        rem = pdivmod(sturm[-2], sturm[-1])[1]
        cont = pcontent(rem)
        sturm.append(tuple(-c / cont for c in rem))

    def changes(x):
        signs = [v > 0 for v in (peval(q, x) for q in sturm) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in f) / lead  # every root lies in (-bound, bound)
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
# Rational functions


class RatFunc:
    """A reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE, _reduced=False):
        if isinstance(num, (int, Fraction)):
            num = pconst(num)
        if isinstance(den, (int, Fraction)):
            den = pconst(den)
        if not den:
            raise ZeroDenominator("zero denominator polynomial")
        if not _reduced:
            if not num:
                den = PONE
            else:
                g = pgcd(num, den)
                if pdeg(g) > 0:
                    num = pdivmod(num, g)[0]
                    den = pdivmod(den, g)[0]
                lead = den[-1]
                if lead != 1:
                    num = tuple(c / lead for c in num)
                    den = tuple(c / lead for c in den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(pconst(c), PONE, _reduced=True)

    @staticmethod
    def param() -> "RatFunc":
        return RatFunc(PVAR, PONE, _reduced=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == PONE

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise CoefficientError("not a constant")
        return self.num[0] if self.num else Fraction(0)

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_ratfunc(other)
        if self.den == PONE and other.den == PONE:
            return RatFunc(padd(self.num, other.num), PONE)
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return RatFunc(num, pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(pneg(self.num), self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-as_ratfunc(other))

    def __rsub__(self, other):
        return as_ratfunc(other) + (-self)

    def __mul__(self, other):
        other = as_ratfunc(other)
        if not self.num or not other.num:
            return RF_ZERO
        if self.den == PONE and other.den == PONE:
            if len(self.num) == 1 and len(other.num) == 1:
                return RatFunc((self.num[0] * other.num[0],), PONE, _reduced=True)
            return RatFunc(pmul(self.num, other.num), PONE)
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_ratfunc(other)
        if not other.num:
            raise ZeroDenominator("division by zero rational function")
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return as_ratfunc(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- analysis ----------------------------------------------------------

    def evaluate(self, x) -> Fraction:
        x = exact_scalar(x)
        d = peval(self.den, x)
        if d == 0:
            raise EvaluationAtPole(x)
        return peval(self.num, x) / d

    def limit_at_infinity(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        dn, dd = pdeg(self.num), pdeg(self.den)
        if dn > dd:
            raise DivergesAtInfinity(str(self))
        if dn < dd:
            return Fraction(0)
        return self.num[-1] / self.den[-1]

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


RF_ZERO = RatFunc.const(0)
RF_ONE = RatFunc.const(1)


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
    if f.den == PONE:
        return num
    return f"{num}/({format_poly(f.den, var)})"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\^|\*|\+|-|/|\(|\)))"
)


def _tokenize_poly(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise CoefficientError(f"bad polynomial syntax at {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            try:
                out.append(("num", Fraction(m.group("num"))))
            except ZeroDivisionError:
                raise ZeroDenominator(f"zero denominator in {m.group('num')!r}") from None
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


class _PolyParser:
    """Recursive-descent parser for polynomial expressions in one variable."""

    def __init__(self, tokens, var):
        self.toks = tokens
        self.pos = 0
        self.var = var

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        kind, val = self.peek()
        neg = False
        if (kind, val) == ("op", "-"):
            self.take()
            neg = True
        elif (kind, val) == ("op", "+"):
            self.take()
        acc = self.term()
        if neg:
            acc = pneg(acc)
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                acc = padd(acc, self.term())
            elif (kind, val) == ("op", "-"):
                self.take()
                acc = psub(acc, self.term())
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                acc = pmul(acc, self.factor())
            elif (kind, val) == ("op", "/"):
                # division by a rational constant only
                self.take()
                kind2, val2 = self.take()
                if kind2 != "num":
                    raise CoefficientError("polynomial division only by numbers")
                if not val2:
                    raise ZeroDenominator("polynomial division by zero")
                acc = pscale(acc, Fraction(1, 1) / val2)
            else:
                return acc

    def factor(self) -> Poly:
        kind, val = self.take()
        if kind == "num":
            base = pconst(val)
        elif kind == "name":
            if val != self.var:
                raise CoefficientError(f"unknown symbol {val!r}; parameter is {self.var!r}")
            base = PVAR
        elif (kind, val) == ("op", "("):
            base = self.expr()
            kind2, val2 = self.take()
            if (kind2, val2) != ("op", ")"):
                raise CoefficientError("missing closing parenthesis")
        elif (kind, val) == ("op", "-"):
            return pneg(self.factor())
        else:
            raise CoefficientError(f"unexpected token {val!r} in polynomial")
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            self.take()
            kind2, val2 = self.take()
            if kind2 != "num" or val2.denominator != 1:
                raise CoefficientError("exponent must be a nonnegative integer")
            out = PONE
            for _ in range(int(val2)):
                out = pmul(out, base)
            return out
        return base


def parse_poly(text: str, var: str = "k") -> Poly:
    parser = _PolyParser(_tokenize_poly(text), var)
    p = parser.expr()
    if parser.pos != len(parser.toks):
        raise CoefficientError(f"trailing input in polynomial: {text!r}")
    return p


def parse_ratfunc(text: str, var: str = "k") -> RatFunc:
    """Parse "(p)" or "(p)/(q)"; also accepts bare polynomial expressions."""
    text = text.strip()
    split = _split_ratfunc(text)
    if split is None:
        return RatFunc(parse_poly(text, var))
    num_text, den_text = split
    den = parse_poly(den_text, var)
    if not den:
        raise ZeroDenominator(text)
    return RatFunc(parse_poly(num_text, var), den)


def _split_ratfunc(text: str):
    """Split "(p)/(q)" at the top-level slash, or return None."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            left = text[:i].strip()
            right = text[i + 1 :].strip()
            # top-level slash between a ")" and "(" marks the fraction bar;
            # otherwise it is a rational number like 3/2
            if left.endswith(")") and right.startswith("("):
                return left, right
    return None
