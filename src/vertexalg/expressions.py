"""Parsing and printing of elements.

Grammar (whitespace-insensitive):

    element := ["+" | "-"] term (("+" | "-") term)*
    term    := [coeff "*"] factor
    factor  := NAME | "1" | "0" | "D^" INT "(" element ")"
             | ":" factor factor+ ":" | "(" element ")"

coeff is the coefficient grammar of vertexalg.coefficients.TokenReader,
which the parser here subclasses: one tokenizer reads both.  A NAME is a
letter or "_" followed by letters, digits, "_" and primes "'"; a tensor
product primes the names of its right factor that clash.

":a b c:" parses right-nested as :a (:b c:):.  Printing emits canonical
sorted monomials in deterministic order and round-trips through the parser.
A derivative order is at most MAX_DERIVATIVE_ORDER (the cost of D^n on a
product grows like a power of n), a normal-ordered product is formed only
when its factors' longest monomials together have at most
MAX_MONOMIAL_LENGTH generator factors (normal ordering costs grow steeply
with the length, and far longer words overflow the engine's recursion),
and coefficients obey the degree limit of vertexalg.coefficients.
"""

from __future__ import annotations

from .coefficients import RF_ONE, LimitExceeded, TokenReader, format_ratfunc
from .core import Element, VAError, VAPresentation

MAX_DERIVATIVE_ORDER = 32
MAX_MONOMIAL_LENGTH = 32


class ExprError(VAError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


def _packrat(rule):
    """rule, parsed once per token position: its result and end, or its
    ExprError, are kept (packrat parsing), so a reading tried again after
    another one failed costs no re-parse and the parse stays linear."""
    def parse(self):
        key = (rule, self.pos)
        if key not in self.memo:
            try:
                self.memo[key] = (rule(self), self.pos, None)
            except ExprError as exc:
                self.memo[key] = (None, key[1], exc)
        value, self.pos, exc = self.memo[key]
        if exc is not None:
            raise exc.with_traceback(None)
        return value
    return parse


class _Parser(TokenReader):
    """The element grammar; the rules that compete are packrat-parsed."""

    def __init__(self, pres: VAPresentation, text: str):
        self.pres = pres
        self.memo = {}
        super().__init__(text, pres.param)

    def error(self, message, pos):
        return ExprError(message, pos)

    polynomial = _packrat(TokenReader.polynomial)

    # -- grammar ------------------------------------------------------------

    def element(self) -> Element:
        return self.sum_of(self.term)

    def term(self) -> Element:
        """A coeff "*" where one parses, else a factor.  A malformed
        coefficient is reported when its reading got farther than the
        factor reading of the same tokens, which then failed or stopped."""
        start, failure = self.pos, None
        if self.at("(") or self.peek()[0] == "int":
            try:
                coeff = self.coefficient()
                self.expect("*")
            except ExprError as exc:
                failure = exc
            else:
                return self.factor() * coeff
            self.pos = start
        try:
            out = self.factor()
        except ExprError as exc:
            if failure is None or failure.pos <= exc.pos:
                raise
            raise failure from None
        if failure is not None and failure.pos > self.peek()[2]:
            raise failure
        return out

    @_packrat
    def factor(self) -> Element:
        kind, val, start = self.take()
        if kind == "int":
            if val == "1":
                return self.pres.vacuum()
            if val == "0":
                return self.pres.zero()
            raise self.error(f"unexpected number {val!r} as factor", start)
        if kind == "name":
            if val == "D" and self.at("^"):
                self.take()
                at = self.peek()[2]
                order = self.integer()
                if order > MAX_DERIVATIVE_ORDER:
                    raise self.error(
                        f"derivative order {order} exceeds the limit "
                        f"{MAX_DERIVATIVE_ORDER}", at,
                    )
                self.expect("(")
                inner = self.element()
                self.expect(")")
                return inner.deriv(order)
            if val not in self.pres.by_name:
                raise self.error(f"unknown generator {val!r}", start)
            return self.pres.gen(val)
        if val == "(":
            inner = self.element()
            self.expect(")")
            return inner
        if val == ":":
            factors = [self.factor()]
            while True:
                if self.peek()[0] == "end":
                    raise self.error("unterminated normal-ordered product", start)
                if self.at(":") and len(factors) >= 2:
                    # a colon opens a nested product where one parses and
                    # otherwise closes this one
                    try:
                        factors.append(self.factor())
                    except ExprError:
                        self.take()
                        break
                else:
                    factors.append(self.factor())
            acc = factors[-1]
            for f in reversed(factors[:-1]):
                check_product_length(f, acc)
                acc = f.no(acc)
            return acc
        raise self.error(f"unexpected token {val!r}", start)


def check_product_length(a: Element, b: Element):
    """Raise LimitExceeded when the longest monomials of a and b have more
    than MAX_MONOMIAL_LENGTH generator factors together: a product of the
    two has monomials no longer than that."""
    length = sum(max(map(len, x.data), default=0) for x in (a, b))
    if length > MAX_MONOMIAL_LENGTH:
        raise LimitExceeded(f"a product of length {length} "
                            f"exceeds the monomial-length limit {MAX_MONOMIAL_LENGTH}")


def parse_element(pres: VAPresentation, text: str) -> Element:
    parser = _Parser(pres, text)
    out = parser.element()
    parser.finish()
    return out


# ---------------------------------------------------------------------------
# Printing


def format_factor(pres: VAPresentation, factor) -> str:
    g, d = factor
    name = pres.generators[g].name
    if d == 0:
        return name
    return f"D^{d}({name})"


def format_monomial(pres: VAPresentation, M) -> str:
    if not M:
        return "1"
    if len(M) == 1:
        return format_factor(pres, M[0])
    return ":" + " ".join(format_factor(pres, f) for f in M) + ":"


def format_element(x: Element) -> str:
    if x.is_zero():
        return "0"
    pres = x.pres
    parts = []
    for M in sorted(x.data):
        c = x.data[M]
        mono = format_monomial(pres, M)
        if c == RF_ONE and M:
            parts.append(mono)
        else:
            parts.append(f"{format_ratfunc(c, pres.param)}*{mono}")
    return " + ".join(parts)
