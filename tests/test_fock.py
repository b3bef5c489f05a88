"""Mode-action oracle equivalence for the rank-one free field algebras.

Every symbolic product a_(n) b of canonical basis monomials with
wt(a) + wt(b) <= 6 is compared against an explicit mode computation on the
truncated Fock space, for all n from -1 up to where the products vanish.
"""

from fractions import Fraction

import pytest

from vertexalg.constructions import (
    bc_system,
    beta_gamma,
    heisenberg,
    symplectic_fermion,
)
from vertexalg.fock import FockOracle
from vertexalg.linear import weight_basis

CAP = Fraction(6)


@pytest.mark.parametrize(
    "build,name",
    [
        (heisenberg, "H(1)"),
        (bc_system, "E(1)"),
        (beta_gamma, "S(1)"),
        (symplectic_fermion, "A(1)"),
    ],
)
def test_oracle_equivalence(build, name):
    P = build(1)
    oracle = FockOracle(P)
    step = P.weight_step()
    monos = []
    w = step
    while w <= CAP - step:
        monos.extend(weight_basis(P, w).monomials)
        w += step
    weighted = [(M, P.mono_weight(M)) for M in monos]
    checked = 0
    for M, wM in weighted:
        for N, wN in weighted:
            wtot = wM + wN
            if wtot > CAP:
                continue
            for n in range(-1, int(wtot) + 1):
                assert oracle.check_product(M, N, n), (name, M, N, n)
                checked += 1
    assert checked > 0


def test_oracle_catches_a_wrong_product(monkeypatch):
    # one extra term in the engine's answer is a mismatch; with the real
    # product back, the same oracle instance passes the same triple again,
    # so its memo holds mode actions only, never a verdict
    P = beta_gamma(1)
    oracle = FockOracle(P)
    M, N, n = ((0, 0), (1, 0)), ((0, 0), (1, 1)), 1
    assert oracle.check_product(M, N, n)
    real = P.nprod
    extra = P.gen("beta").no(P.gen("gamma"))
    monkeypatch.setattr(P, "nprod", lambda x, y, m: real(x, y, m) + extra)
    assert not oracle.check_product(M, N, n)
    monkeypatch.setattr(P, "nprod", real)
    assert oracle.check_product(M, N, n)


def test_mode_action_results_are_fresh():
    # memoized products are never mutated: changing a returned vector
    # leaves the next answer as it was
    P = beta_gamma(1)
    oracle = FockOracle(P)
    M, n = ((0, 0), (1, 1)), 1
    vec = oracle.state_of_monomial(((0, 1), (1, 0)))
    first = oracle.apply_mono_mode(M, n, vec)
    expected = dict(first)
    assert expected
    for s in first:
        first[s] += 7
    first[()] = 1
    assert oracle.apply_mono_mode(M, n, vec) == expected


def _partitions(w, largest):
    if w == 0:
        yield ()
        return
    for p in range(min(w, largest), 0, -1):
        for rest in _partitions(w - p, p):
            yield (p,) + rest


def test_heisenberg_virasoro_zero_mode():
    # :aa:_(1) = 2 L_0 acts on a_(-p1) ... a_(-pr)|0> as 2 (p1 + ... + pr)
    oracle = FockOracle(heisenberg(1))
    checked = 0
    for w in range(7):
        for parts in _partitions(w, w):
            state = tuple(sorted((0, -p) for p in parts))
            got = oracle.apply_mono_mode(((0, 0), (0, 0)), 1, {state: 1})
            assert got == ({state: 2 * w} if w else {}), state
            checked += 1
    assert checked == 30  # partitions of 0, ..., 6
