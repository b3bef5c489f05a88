"""Canonical-form calculus for strongly generated vertex superalgebras.

Elements are finite sums of right-nested normally ordered monomials in the
generators and their derivatives, with rational-function coefficients.  A
monomial is a tuple of (generator id, derivative order) pairs sorted
ascending; the empty tuple is the vacuum.  All n-th products are reduced to
this basis with the standard identities:

  * bracket table on generator pairs, plus the derivative shifts
    (da)_(n) b = -n a_(n-1) b  and  a_(n) db = d(a_(n) b) + n a_(n-1) b,
  * the non-commutative Wick formula for a_(n) :bc: with n >= 0,
  * the iterate expansion (a_(-1) b)_(n) c for composite left factors
    (quasi-associativity is its n = -1 case),
  * the commutator rule :ab: - (-1)^{p(a)p(b)} :ba: = sum of derivative
    corrections, used to sort factors (equal odd factors reduce through the
    same rule; for free fields this gives the square-zero relation).

Sorted monomials form a PBW-type basis, so reduced forms are unique and
equality is structural.

Every product of two monomials is computed once, in the memo of
VAPresentation._prod.  Its entries are frozen: a tuple of (monomial,
coefficient) pairs with no zero coefficient, the empty tuple () for a zero
product, and every coefficient interned in a pool that the presentation
owns (one RatFunc object per distinct value; RatFunc is immutable, with
structural equality and hashing).  The linear-extension helpers read such
pairs, so a caller holding a dict passes its .items().  Derivatives live
there too: the divided power D^k M / k! is the entry M_(-k-1) 1, built from
the entry for k - 1, so `derivative`, `Element.deriv` and the products
a_(-k-1) b all read it.
`check()` computes each lambda-bracket of two generators once and reads it
for both skew-symmetry and Jacobi.  It first checks that the table is
graded: the entry c_n of [a_lambda b] is homogeneous of weight
wa + wb - n - 1, which the negative-weight shortcut of `_prod_raw` assumes.
Every term of Jacobi on generators a, b, c at (m, n) then has weight
wa + wb + wc - m - n - 2, so only m + n <= floor(wa + wb + wc) - 2 can fail,
and only that range is tried.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, floor, perm

from .coefficients import RF_ONE, RF_ZERO, RatFunc, as_ratfunc

EVEN, ODD = 0, 1


class VAError(ValueError):
    pass


class MixedPresentationError(VAError):
    pass


class NotHomogeneousError(VAError):
    def __init__(self, kind, grades):
        super().__init__(f"element not {kind}-homogeneous: grades {sorted(set(grades))}")
        self.grades = grades


class Generator:
    __slots__ = ("index", "name", "parity", "weight")

    def __init__(self, index, name, parity, weight):
        self.index = index
        self.name = name
        self.parity = parity
        self.weight = Fraction(weight)

    def __repr__(self):
        return f"Generator({self.index}, {self.name!r})"


class VAPresentation:
    """Generators plus a lambda-bracket table on ordered generator pairs.

    The table entry for (i, j) is a tuple of element-data dicts
    (c_0, c_1, ...) meaning [g_i lambda g_j] = sum_n lambda^n / n! c_n.
    Nonnegative brackets of generator pairs must have filtration degree at
    most one (true for all affine and free-field constructions); the
    rewriting engine relies on this for termination.
    """

    def __init__(self, generators, table, param="k", name="va"):
        self.name = name
        self.param = param
        self.generators = tuple(generators)
        self.by_name = {g.name: g.index for g in self.generators}
        self.table = {}
        for key, cs in table.items():
            cs = tuple(dict(c) for c in cs)
            while cs and not cs[-1]:
                cs = cs[:-1]
            if cs:
                self.table[key] = cs
        self._memo = {}
        self._coeffs = {}
        self.metadata = {}

    # -- basic data ----------------------------------------------------------

    @property
    def ngen(self) -> int:
        return len(self.generators)

    def gen_weight(self, i: int) -> Fraction:
        return self.generators[i].weight

    def gen_parity(self, i: int) -> int:
        return self.generators[i].parity

    def mono_weight(self, M) -> Fraction:
        return sum((self.generators[g].weight + d for g, d in M), Fraction(0))

    def mono_parity(self, M) -> int:
        return sum(self.generators[g].parity for g, d in M) % 2

    def weight_step(self) -> Fraction:
        """Granularity of the weight grading (1 or 1/2)."""
        if any(g.weight.denominator == 2 for g in self.generators):
            return Fraction(1, 2)
        return Fraction(1)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def vacuum(self, coeff=RF_ONE) -> "Element":
        coeff = as_ratfunc(coeff)
        return Element(self, {(): coeff} if coeff else {})

    def gen(self, name, der=0) -> "Element":
        if isinstance(name, str):
            if name not in self.by_name:
                raise VAError(f"unknown generator {name!r}")
            idx = self.by_name[name]
        else:
            idx = name
        return Element(self, {((idx, der),): RF_ONE})

    def element(self, data) -> "Element":
        out = {}
        for M, c in data.items():
            c = as_ratfunc(c)
            if c:
                out[tuple(M)] = c
        return Element(self, out)

    # -- core monomial products ------------------------------------------------

    def _prod(self, M, N, n) -> tuple:
        key = (M, N, n)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        pool = self._coeffs
        out = tuple([(R, pool.setdefault(c, c))
                     for R, c in self._prod_raw(M, N, n).items() if c])
        self._memo[key] = out
        return out

    def _prod_raw(self, M, N, n) -> dict:
        if not M:
            return {N: RF_ONE} if n == -1 else {}
        if not N:
            if n >= -1:
                return {M: RF_ONE} if n == -1 else {}
            # the divided power D^k M / k! = D(D^(k-1) M / (k-1)!) / k; the
            # missing lower powers are filled in from the highest one in the
            # memo upwards, so the recursion depth does not grow with k
            k = -n - 1
            j = k - 1
            while j and (M, (), -j - 1) not in self._memo:
                j -= 1
            for i in range(j, k):
                prev = self._prod(M, (), -i - 1)
            out = {}
            for R, c in prev:
                for slot in range(len(R)):
                    raised = R[:slot] + ((R[slot][0], R[slot][1] + 1),) + R[slot + 1 :]
                    _add_data(out, self.canon_factors(raised).items(), c)
            return _scaled(out.items(), RatFunc.const(Fraction(1, k)))
        if self.mono_weight(M) + self.mono_weight(N) - n - 1 < 0:
            return {}
        if n <= -2:
            return self._nprod_data_mono(self._prod(M, (), n), N, -1)
        if n >= 0:
            if len(M) == 1:
                return self._prod_single_nonneg(M, N, n)
            return self._prod_iterate(M, N, n)
        # n == -1; for composite M the product (M)_(-1) N is left-grouped and
        # needs the quasi-associativity corrections even when M + N is sorted
        if len(M) == 1:
            return self._insert(M[0], N)
        return self._prod_iterate(M, N, -1)

    def _prod_single_nonneg(self, M, N, n) -> dict:
        (g, d) = M[0]
        if d > 0:
            # (D^d a)_(n) b = (-1)^d n!/(n-d)! a_(n-d) b, zero for d > n
            if d > n:
                return {}
            scale = RatFunc.const((-1) ** d * perm(n, d))
            return _scaled(self._prod(((g, 0),), N, n - d), scale)
        if len(N) == 1:
            (h, e) = N[0]
            if e > 0:
                base = ((h, e - 1),)
                out = self._nprod_data_mono(self._prod(M, base, n), (), -2)
                if n:
                    _add_data(out, self._prod(M, base, n - 1), RatFunc.const(n))
                return out
            cs = self.table.get((g, h))
            if cs is None or n >= len(cs):
                return {}
            return cs[n]
        b = N[:1]
        rest = N[1:]
        sign = -1 if (self.gen_parity(g) and self.mono_parity(b)) else 1
        out = {}
        ab = self._prod(M, b, n)
        if ab:
            _add_data(out, self._nprod_data_mono(ab, rest, -1).items(), RF_ONE)
        arest = self._prod(M, rest, n)
        if arest:
            _add_data(out, self._nprod_mono_data(b, arest, -1).items(), RatFunc.const(sign))
        for m in range(n):
            amb = self._prod(M, b, m)
            if amb:
                corr = self._nprod_data_mono(amb, rest, n - 1 - m)
                _add_data(out, corr.items(), RatFunc.const(comb(n, m)))
        return out

    def _prod_iterate(self, M, N, n) -> dict:
        """(a_(-1) rest)_(n) N by the iterate expansion; any n."""
        a = M[:1]
        rest = M[1:]
        sign = -1 if (self.mono_parity(a) and self.mono_parity(rest)) else 1
        out = {}
        wt_restN = self.mono_weight(rest) + self.mono_weight(N)
        j = 0
        while wt_restN - (n + j) - 1 >= 0:
            inner = self._prod(rest, N, n + j)
            if inner:
                _add_data(out, self._nprod_mono_data(a, inner, -1 - j).items(), RF_ONE)
            j += 1
        wt_aN = self.mono_weight(a) + self.mono_weight(N)
        j = 0
        while wt_aN - j - 1 >= 0:
            inner = self._prod(a, N, j)
            if inner:
                _add_data(out, self._nprod_mono_data(rest, inner, n - 1 - j).items(),
                          RatFunc.const(sign))
            j += 1
        return out

    def _insert(self, a, N) -> dict:
        """a_(-1) N for a single factor a and a canonical monomial N."""
        b = N[0]
        if a < b or (a == b and not self.gen_parity(a[0])):
            return {(a,) + N: RF_ONE}
        rest = N[1:]
        out = {}
        if a == b:
            # both odd: 2 :a(:a rest:): = sum_i (-1)^i (a_(i) a)_(-2-i) rest
            scale = Fraction(1, 2)
        else:
            scale = 1
            sign = -1 if (self.gen_parity(a[0]) and self.gen_parity(b[0])) else 1
            swapped = self._prod((a,), rest, -1)
            if swapped:
                _add_data(out, self._nprod_mono_data((b,), swapped, -1).items(),
                          RatFunc.const(sign))
        wt_ab = self.gen_weight(a[0]) + a[1] + self.gen_weight(b[0]) + b[1]
        i = 0
        while wt_ab - i - 1 >= 0:
            bra = self._prod((a,), (b,), i)
            if bra:
                corr = self._nprod_data_mono(bra, rest, -2 - i)
                _add_data(out, corr.items(), RatFunc.const(scale if i % 2 == 0 else -scale))
            i += 1
        return out

    # -- linear extensions ------------------------------------------------------

    def _nprod_mono_data(self, M, pairs, n) -> dict:
        out = {}
        for N, c in pairs:
            _add_data(out, self._prod(M, N, n), c)
        return _clean(out)

    def _nprod_data_mono(self, pairs, N, n) -> dict:
        out = {}
        for M, c in pairs:
            _add_data(out, self._prod(M, N, n), c)
        return _clean(out)

    # -- public operations -------------------------------------------------------

    def canon_factors(self, factors) -> dict:
        """Canonical form of a right-nested word of single factors."""
        if _is_canonical(factors, self):
            return {tuple(factors): RF_ONE}
        data = {(): RF_ONE}
        for f in reversed(factors):
            data = self._nprod_mono_data((f,), data.items(), -1)
        return data

    def nprod(self, x: "Element", y: "Element", n: int) -> "Element":
        self._require(x, y)
        out = {}
        for M, a in x.data.items():
            for N, b in y.data.items():
                c = a * b
                if c:
                    _add_data(out, self._prod(M, N, n), c)
        return Element(self, _clean(out))

    def normal_order(self, x: "Element", y: "Element") -> "Element":
        return self.nprod(x, y, -1)

    def lambda_bracket(self, x: "Element", y: "Element") -> "LambdaPoly":
        self._require(x, y)
        if x.is_zero() or y.is_zero():
            return LambdaPoly(self, [])
        top = max(
            self.mono_weight(M) + self.mono_weight(N)
            for M in x.data
            for N in y.data
        )
        cs = []
        n = 0
        while top - n - 1 >= 0:
            cs.append(self.nprod(x, y, n))
            n += 1
        while cs and cs[-1].is_zero():
            cs.pop()
        return LambdaPoly(self, cs)

    def derivative(self, x: "Element", times=1) -> "Element":
        """D^times x = times! x_(-times-1) 1, read from the divided powers."""
        return self.nprod(x, self.vacuum(), -times - 1) * factorial(times)

    def _require(self, *elems):
        for e in elems:
            if e.pres is not self:
                raise MixedPresentationError(
                    "element belongs to a different presentation"
                )

    # -- gradings ------------------------------------------------------------------

    def weight_of(self, x: "Element") -> Fraction:
        self._require(x)
        if x.is_zero():
            raise NotHomogeneousError("weight", [])
        wts = {self.mono_weight(M) for M in x.data}
        if len(wts) != 1:
            raise NotHomogeneousError("weight", list(wts))
        return next(iter(wts))

    def parity_of(self, x: "Element") -> int:
        self._require(x)
        if x.is_zero():
            raise NotHomogeneousError("parity", [])
        ps = {self.mono_parity(M) for M in x.data}
        if len(ps) != 1:
            raise NotHomogeneousError("parity", list(ps))
        return next(iter(ps))

    # -- consistency checks -----------------------------------------------------------

    def check(self) -> "PresentationReport":
        """Verify the grading of the table, skew-symmetry and Jacobi.

        Each table entry c_n of [a_lambda b] must be homogeneous of weight
        wa + wb - n - 1; every one that is not is reported first, as
        ("grading", (a, b, n)).  Then skew-symmetry is checked on generator
        pairs and Jacobi on triples, (m, n) in row-major order over
        m + n <= floor(wa + wb + wc) - 2, the only range where a graded
        table can fail.  Each bracket of two generators is computed once and
        read by both.
        """
        ids = range(self.ngen)
        gens = [self.gen(i) for i in ids]
        names = [g.name for g in self.generators]
        failures = []
        for (i, j), cs in sorted(self.table.items()):
            for n, cn in enumerate(cs):
                wt = self.gen_weight(i) + self.gen_weight(j) - n - 1
                if any(self.mono_weight(M) != wt for M in cn):
                    failures.append(("grading", (names[i], names[j], n)))
        br = {(i, j): tuple(cn.data for cn in self.lambda_bracket(gens[i], gens[j]).coeffs)
              for i in ids for j in ids}
        for i in ids:
            for j in ids:
                sign = -1 if (self.gen_parity(i) and self.gen_parity(j)) else 1
                if not self._skew_ok(br[i, j], br[j, i], sign):
                    failures.append(("skew", (names[i], names[j])))
        for i in ids:
            for j in ids:
                for m in ids:
                    bad = self._jacobi_fail(i, j, m, br[i, j], br[i, m], br[j, m])
                    if bad is not None:
                        failures.append(("jacobi", (names[i], names[j], names[m]) + bad))
        return PresentationReport(self, failures)

    def _skew_ok(self, ab, ba, sign) -> bool:
        # b_(n) a = -(-1)^{p(a)p(b)} sum_j (-1)^{n+j} D^j(a_(n+j) b) / j!,
        # where D^j x / j! = x_(-j-1) 1; ab and ba are the lambda-coefficients
        for n in range(max(len(ab), len(ba))):
            diff = dict(ba[n]) if n < len(ba) else {}
            for j in range(len(ab) - n):
                if ab[n + j]:
                    dj = self._nprod_data_mono(ab[n + j].items(), (), -j - 1)
                    _add_data(diff, dj.items(), RatFunc.const((-1) ** (n + j) * sign))
            if _clean(diff):
                return False
        return True

    def _jacobi_fail(self, i, j, k, ab, ac, bc):
        # a_(m)(b_(n) c) - (-1)^{p(a)p(b)} b_(n)(a_(m) c)
        #   = sum_l C(m, l) (a_(l) b)_(m+n-l) c
        # for the generators a, b, c = i, j, k.  Every term has weight
        # wa + wb + wc - m - n - 2, and no monomial has negative weight, so
        # only m + n <= floor(wa + wb + wc) - 2 can fail.  Zero
        # lambda-coefficients are skipped, and each (a_(l) b)_(m+n-l) c is
        # computed once.
        a, b, c = ((i, 0),), ((j, 0),), ((k, 0),)
        minus_sign = RatFunc.const(1 if (self.gen_parity(i) and self.gen_parity(j)) else -1)
        top = floor(self.gen_weight(i) + self.gen_weight(j) + self.gen_weight(k)) - 2
        abc = {}
        for m in range(top + 1):
            for n in range(top + 1 - m):
                diff = {}
                if n < len(bc) and bc[n]:
                    _add_data(diff, self._nprod_mono_data(a, bc[n].items(), m).items(), RF_ONE)
                if m < len(ac) and ac[m]:
                    _add_data(diff, self._nprod_mono_data(b, ac[m].items(), n).items(),
                              minus_sign)
                for l in range(min(m + 1, len(ab))):
                    if not ab[l]:
                        continue
                    if (l, m + n - l) not in abc:
                        abc[l, m + n - l] = self._nprod_data_mono(ab[l].items(), c, m + n - l)
                    _add_data(diff, abc[l, m + n - l].items(), RatFunc.const(-comb(m, l)))
                if _clean(diff):
                    return (m, n)
        return None

    # -- combination -------------------------------------------------------------------

    def tensor(self, other: "VAPresentation") -> "VAPresentation":
        if self.param != other.param:
            raise VAError(
                f"coefficient field tags differ: {self.param!r} vs {other.param!r}"
            )
        offset = self.ngen
        gens = [
            Generator(g.index, g.name, g.parity, g.weight) for g in self.generators
        ]
        names = {g.name for g in gens}
        for g in other.generators:
            new_name = g.name
            while new_name in names:
                new_name += "'"
            names.add(new_name)
            gens.append(Generator(offset + g.index, new_name, g.parity, g.weight))
        table = {k: v for k, v in self.table.items()}
        for (i, j), cs in other.table.items():
            table[(i + offset, j + offset)] = tuple(
                {tuple((g + offset, d) for g, d in M): c for M, c in cn.items()}
                for cn in cs
            )
        out = VAPresentation(
            gens, table, param=self.param, name=f"{self.name}(x){other.name}"
        )
        out.metadata["tensor_factors"] = (self, other, offset)
        return out

    def embed_from_factor(self, x: "Element", factor: int) -> "Element":
        """Map an element of a tensor factor into this tensor presentation."""
        info = self.metadata.get("tensor_factors")
        if info is None:
            raise VAError("presentation is not a tensor product")
        left, right, offset = info
        if factor == 0:
            if x.pres is not left:
                raise MixedPresentationError("element not from the left factor")
            return Element(self, dict(x.data))
        if x.pres is not right:
            raise MixedPresentationError("element not from the right factor")
        data = {
            tuple((g + offset, d) for g, d in M): c for M, c in x.data.items()
        }
        return Element(self, data)


def _is_canonical(factors, pres) -> bool:
    for a, b in zip(factors, factors[1:]):
        if a > b:
            return False
        if a == b and pres.gen_parity(a[0]):
            return False
    return True


def _add_data(acc: dict, pairs, scale: RatFunc):
    """acc += scale * pairs, for (monomial, coefficient) pairs; sums that
    cancel stay in acc as zeros."""
    if not scale:
        return
    if scale == RF_ONE:
        for M, c in pairs:
            prev = acc.get(M)
            acc[M] = c if prev is None else prev + c
        return
    for M, c in pairs:
        term = c * scale
        prev = acc.get(M)
        acc[M] = term if prev is None else prev + term


def _scaled(pairs, scale: RatFunc) -> dict:
    """scale * pairs; a coefficient of it is zero only where one of pairs is."""
    out = {}
    _add_data(out, pairs, scale)
    return out


def _clean(data: dict) -> dict:
    return {M: c for M, c in data.items() if c}


class Element:
    """Linear combination of canonical monomials with RatFunc coefficients."""

    __slots__ = ("pres", "data")

    def __init__(self, pres: VAPresentation, data: dict):
        self.pres = pres
        self.data = data

    def is_zero(self) -> bool:
        return not self.data

    def __bool__(self):
        return bool(self.data)

    def __add__(self, other):
        self.pres._require(other)
        out = dict(self.data)
        _add_data(out, other.data.items(), RF_ONE)
        return Element(self.pres, _clean(out))

    def __sub__(self, other):
        self.pres._require(other)
        out = dict(self.data)
        _add_data(out, other.data.items(), RatFunc.const(-1))
        return Element(self.pres, _clean(out))

    def __neg__(self):
        return Element(self.pres, {M: -c for M, c in self.data.items()})

    def __mul__(self, scalar):
        return Element(self.pres, _scaled(self.data.items(), as_ratfunc(scalar)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres is other.pres and self.data == other.data

    def __hash__(self):
        return hash((id(self.pres), tuple(sorted(self.data.items()))))

    def no(self, other) -> "Element":
        return self.pres.normal_order(self, other)

    def deriv(self, times=1) -> "Element":
        return self.pres.derivative(self, times)

    def coeff(self, M) -> RatFunc:
        return self.data.get(tuple(M), RF_ZERO)

    def __repr__(self):
        from .expressions import format_element

        return format_element(self)


class LambdaPoly:
    """[a_lambda b] = sum_n lambda^n / n! c_n with c_n Elements."""

    __slots__ = ("pres", "coeffs")

    def __init__(self, pres, coeffs):
        self.pres = pres
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def c(self, n: int) -> Element:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.pres.zero()

    def order(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.pres is other.pres and self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "[_lambda_] = 0"
        parts = []
        for n, cn in enumerate(self.coeffs):
            if cn.is_zero():
                continue
            parts.append(f"lambda^{n}/{n}!  {cn!r}")
        return "[_lambda_] = " + "  +  ".join(parts)


class PresentationReport:
    def __init__(self, pres, failures):
        self.pres = pres
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self):
        if self.ok:
            return f"presentation {self.pres.name!r}: skew-symmetry and Jacobi pass"
        lines = [f"presentation {self.pres.name!r}: {len(self.failures)} failure(s)"]
        for kind, where in self.failures[:10]:
            lines.append(f"  {kind} fails at {where}")
        return "\n".join(lines)
