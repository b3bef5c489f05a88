"""Mode-action oracle on the Fock space of a free field algebra.

Used to cross-check the symbolic rewriting engine: states are monomials in
negative generator modes acting on the vacuum, generator modes obey the
(anti)commutation relations read off the bracket table, and modes of
composite fields are expanded with the iterate formula.  Everything here
works with explicit state vectors over Q, independent of the canonical-form
machinery in core.py.
"""

from __future__ import annotations

from math import comb, factorial

from .core import VAError, VAPresentation

# a state is a tuple of (gen_id, mode) pairs applied left-to-right to |0>,
# kept sorted ascending with parity signs tracked during sorting.  A
# coefficient is an int when it is integral and a Fraction otherwise.


class FockOracle:
    def __init__(self, pres: VAPresentation):
        self.pres = pres
        self.parity = [pres.gen_parity(g) for g in range(pres.ngen)]
        self.wt2 = [int(2 * pres.gen_weight(g)) for g in range(pres.ngen)]
        self.pairing = {}
        for (i, j), cs in pres.table.items():
            for n, cn in enumerate(cs):
                if not cn:
                    continue
                if set(cn) != {()}:
                    raise VAError("Fock oracle requires a free (central) table")
                s = cn[()].constant_value()
                self.pairing[(i, j, n)] = s.numerator if s.denominator == 1 else s
        self._memo = {}

    # -- elementary modes ---------------------------------------------------

    def _contraction(self, g, m, h, n):
        """Scalar [g_(m), h_(n)]_{+/-} = C(m, m+n+1) (g_(m+n+1) h)_vac."""
        i = m + n + 1
        s = self.pairing.get((g, h, i)) if i >= 0 else None
        if not s:
            return 0
        # C(m, i) for m < 0 is (-1)^i C(i - m - 1, i)
        return comb(m, i) * s if m >= 0 else (-1) ** i * comb(i - m - 1, i) * s

    def apply_gen_mode(self, g: int, m: int, vec: dict) -> dict:
        out = {}
        for state, coeff in vec.items():
            for st2, c2 in self._apply_one(g, m, state):
                out[st2] = out.get(st2, 0) + coeff * c2
        return {s: c for s, c in out.items() if c}

    def _apply_one(self, g, m, state):
        pg = self.parity[g]
        results = []
        if m < 0:
            # creation: insert into sorted position with parity signs
            sign = 1
            for pos, (h, n) in enumerate(state):
                if (g, m) < (h, n):
                    results.append((state[:pos] + ((g, m),) + state[pos:], sign))
                    return results
                if (g, m) == (h, n) and pg:
                    return results  # odd square of a single mode
                if pg and self.parity[h]:
                    sign = -sign
            results.append((state + ((g, m),), sign))
            return results
        # annihilation-type mode: commute to the right, collect contractions
        sign = 1
        for pos, (h, n) in enumerate(state):
            c = self._contraction(g, m, h, n)
            if c:
                results.append((state[:pos] + state[pos + 1 :], sign * c))
            if pg and self.parity[h]:
                sign = -sign
        # g_(m) |0> = 0 for m >= 0: no terminal term
        return results

    # -- composite field modes ------------------------------------------------
    # weights are kept in half-units, 2*wt, so every weight sum is an int

    def state_weight(self, state) -> int:
        """Twice the conformal weight of a basis state."""
        return sum(self.wt2[g] - 2 * m - 2 for g, m in state)

    def _mono_wt2(self, M) -> int:
        return sum(self.wt2[g] + 2 * d for g, d in M)

    def apply_mono_mode(self, M, n: int, vec: dict) -> dict:
        """M_(n) vec, summed state by state from the per-state action."""
        out = {}
        for state, coeff in vec.items():
            for s, c in self._mono_state(M, n, state).items():
                out[s] = out.get(s, 0) + coeff * c
        return {s: c for s, c in out.items() if c}

    def _mono_state(self, M, n, state) -> dict:
        """M_(n) on one basis state; memoized, and never mutated once stored."""
        key = (M, n, state)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._expand(M, n, state)
        return out

    def _expand(self, M, n, state) -> dict:
        if not M:
            return {state: 1} if n == -1 else {}
        w2 = self.state_weight(state)
        if w2 + self._mono_wt2(M) - 2 * n - 2 < 0:
            return {}
        if len(M) == 1:
            # (D^d g)_(n) = (-1)^d n(n-1)...(n-d+1) g_(n-d)
            g, d = M[0]
            coeff = 1
            for t in range(d):
                coeff *= t - n
            return self.apply_gen_mode(g, n - d, {state: coeff}) if coeff else {}
        # (a_(-1) rest)_(n) by the iterate formula; the sums stop where
        # the inner mode lowers this state's weight below zero
        a = M[:1]
        rest = M[1:]
        odd_rest = sum(self.parity[g] for g, _ in rest) % 2
        sign = -1 if (self.parity[a[0][0]] and odd_rest) else 1
        out = {}
        wt2_rest = self._mono_wt2(rest)
        j = 0
        while wt2_rest + w2 - 2 * (n + j) - 2 >= 0:
            inner = self._mono_state(rest, n + j, state)
            for s, c in self.apply_mono_mode(a, -1 - j, inner).items():
                out[s] = out.get(s, 0) + c
            j += 1
        wt2_a = self._mono_wt2(a)
        j = 0
        while wt2_a + w2 - 2 * j - 2 >= 0:
            inner = self._mono_state(a, j, state)
            for s, c in self.apply_mono_mode(rest, n - 1 - j, inner).items():
                out[s] = out.get(s, 0) + sign * c
            j += 1
        return {s: c for s, c in out.items() if c}

    # -- the state map ----------------------------------------------------------

    def state_of_monomial(self, M) -> dict:
        vec = {(): 1}
        for g, d in reversed(M):
            vec = self.apply_gen_mode(g, -1 - d, vec)
            if d:
                vec = {s: c * factorial(d) for s, c in vec.items()}
        return vec

    def state_of_element(self, x) -> dict:
        out = {}
        for M, c in x.data.items():
            cv = c.constant_value()
            for s, sc in self.state_of_monomial(M).items():
                out[s] = out.get(s, 0) + cv * sc
        return {s: c for s, c in out.items() if c}

    # -- the oracle check ---------------------------------------------------------

    def check_product(self, M, N, n: int) -> bool:
        """Compare engine M_(n) N against the mode action on the Fock space."""
        engine = self.pres.nprod(
            self.pres.element({M: 1}), self.pres.element({N: 1}), n
        )
        lhs = self.state_of_element(engine)
        rhs = self.apply_mono_mode(M, n, self.state_of_monomial(N))
        return lhs == rhs
