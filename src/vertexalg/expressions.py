"""Parsing and printing of elements.

Grammar (whitespace-insensitive):

    element := term (("+" | "-") term)*
    term    := [coeff "*"] factor
    factor  := NAME | "1" | "D^" INT "(" element ")"
             | ":" factor factor+ ":" | "(" element ")"
    coeff   := rational function in parentheses, "(p)" or "(p)/(q)"

A NAME is a letter or "_" followed by letters, digits, "_" and primes "'";
a tensor product primes the names of its right factor that clash.

":a b c:" parses right-nested as :a (:b c:):.  Printing emits canonical
sorted monomials in deterministic order and round-trips through the parser.
A derivative order is at most MAX_DERIVATIVE_ORDER (the cost of D^n on a
product grows like a power of n), and coefficients obey the degree limit of
vertexalg.coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coefficients import (
    RF_ONE,
    CoefficientError,
    LimitExceeded,
    RatFunc,
    format_ratfunc,
    parse_ratfunc,
)
from .core import Element, VAError, VAPresentation

MAX_DERIVATIVE_ORDER = 32


class ExprError(VAError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>[:()+\-*/^]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("int"):
            out.append(("int", m.group("int"), m.start("int"), m.end()))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name"), m.end()))
        else:
            out.append(("sym", m.group("sym"), m.start("sym"), m.end()))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, pres: VAPresentation, text: str):
        self.pres = pres
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        # the index of the ")" that closes each "(" that is closed
        self.closing = {}
        opened = []
        for idx, tok in enumerate(self.toks):
            if tok[:2] == ("sym", "("):
                opened.append(idx)
            elif tok[:2] == ("sym", ")") and opened:
                self.closing[opened.pop()] = idx

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("end", "", len(self.text), len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ExprError(f"expected {value or kind}, got {tok[1]!r}", tok[2])
        return tok

    # -- grammar ------------------------------------------------------------

    def element(self) -> Element:
        kind, val, *_ = self.peek()
        negate = False
        if (kind, val) == ("sym", "-"):
            self.take()
            negate = True
        elif (kind, val) == ("sym", "+"):
            self.take()
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, *_ = self.peek()
            if (kind, val) == ("sym", "+"):
                self.take()
                acc = acc + self.term()
            elif (kind, val) == ("sym", "-"):
                self.take()
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> Element:
        coeff = self._try_coeff()
        factor = self.factor()
        if coeff is not None:
            return factor * coeff
        return factor

    def _try_coeff(self):
        """A coefficient is a parenthesized rational function followed by '*'."""
        kind, val, start, _ = self.peek()
        if (kind, val) == ("sym", "("):
            end = self._match_paren(self.pos)
            after = end + 1
            # optional "/(...)" continuation
            if (
                after < len(self.toks)
                and self.toks[after][:2] == ("sym", "/")
                and after + 1 < len(self.toks)
                and self.toks[after + 1][:2] == ("sym", "(")
            ):
                after = self._match_paren(after + 1) + 1
            if after < len(self.toks) and self.toks[after][:2] == ("sym", "*"):
                text = self.text[start : self.toks[after - 1][3]]
                try:
                    coeff = parse_ratfunc(text, self.pres.param)
                except LimitExceeded:
                    raise
                except CoefficientError:
                    return None
                self.pos = after + 1
                return coeff
            return None
        if kind == "int":
            # bare integer or fraction coefficient followed by '*'
            save = self.pos
            self.take()
            num = Fraction(int(val))
            if self.peek()[:2] == ("sym", "/"):
                self.take()
                den_tok = self.take()
                if den_tok[0] != "int":
                    self.pos = save
                    return None
                if not int(den_tok[1]):
                    raise ExprError("zero denominator", den_tok[2])
                num = num / int(den_tok[1])
            if self.peek()[:2] == ("sym", "*"):
                self.take()
                return RatFunc.const(num)
            self.pos = save
            return None
        return None

    def _match_paren(self, open_idx: int) -> int:
        if open_idx not in self.closing:
            raise ExprError("unbalanced parentheses", self.toks[open_idx][2])
        return self.closing[open_idx]

    def factor(self) -> Element:
        kind, val, start, _ = self.take()
        if kind == "int":
            if val == "1":
                return self.pres.vacuum()
            if val == "0":
                return self.pres.zero()
            raise ExprError(f"unexpected number {val!r} as factor", start)
        if kind == "name":
            if val == "D" and self.peek()[:2] == ("sym", "^"):
                self.take()
                order_tok = self.expect("int")
                order = int(order_tok[1])
                if order > MAX_DERIVATIVE_ORDER:
                    raise ExprError(
                        f"derivative order {order} exceeds the limit "
                        f"{MAX_DERIVATIVE_ORDER}", order_tok[2],
                    )
                self.expect("sym", "(")
                inner = self.element()
                self.expect("sym", ")")
                return inner.deriv(order)
            if val not in self.pres.by_name:
                raise ExprError(f"unknown generator {val!r}", start)
            return self.pres.gen(val)
        if (kind, val) == ("sym", "("):
            inner = self.element()
            self.expect("sym", ")")
            return inner
        if (kind, val) == ("sym", ":"):
            factors = [self.factor()]
            while True:
                nxt = self.peek()
                if nxt[0] == "end":
                    raise ExprError("unterminated normal-ordered product", start)
                if nxt[:2] == ("sym", ":"):
                    # a colon may open a nested product or close this one;
                    # try the nested reading first and backtrack on failure
                    if len(factors) >= 2:
                        save = self.pos
                        try:
                            factors.append(self.factor())
                            continue
                        except ExprError:
                            self.pos = save
                        self.take()
                        break
                    # fewer than two factors: the colon must open a nested one
                    factors.append(self.factor())
                    continue
                factors.append(self.factor())
            if len(factors) < 2:
                raise ExprError("normal ordering needs at least two factors", start)
            acc = factors[-1]
            for f in reversed(factors[:-1]):
                acc = f.no(acc)
            return acc
        raise ExprError(f"unexpected token {val!r}", start)


def parse_element(pres: VAPresentation, text: str) -> Element:
    if text.strip() == "0":
        return pres.zero()
    parser = _Parser(pres, text)
    out = parser.element()
    if parser.pos != len(parser.toks):
        tok = parser.peek()
        raise ExprError(f"trailing input {tok[1]!r}", tok[2])
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
