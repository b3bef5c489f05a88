"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them).
Criteria 1-8 are the paper's checks, and the named suites of
vertexalg.suites (`vertexalg suite <name>`) are their one catalogue: each
criterion reads its suite's report from the session cache in conftest.py,
asserts that the whole suite passed within the criterion's wall-clock bound
(the suite's setup included), and prints the details of its checks.

Criterion 2's last coefficient is (-1)^i k/(i+2): the flat sign only
matches at odd i, and the even-i sign is forced by the stated generator
brackets.  Criterion 7 tests orbifold membership, i.e. annihilation by the
combined zero modes that implement the group action; the tau embedding is
conformal, so annihilation by all nonnegative modes would leave only the
vacuum line.  Criterion 4's decouplings solve on the H-charge-0 subspace,
linear.solve_basis of H, Xp, Xm; test_default_solve_is_the_full_basis_solve
in test_linear.py checks at weight 4 that it has the full basis's kernel.
"""

import random
import time
from fractions import Fraction

from vertexalg.coefficients import RatFunc
from vertexalg.constructions import (
    affine,
    bc_system,
    beta_gamma,
    deformable_form,
    heisenberg,
    heisenberg_pairs,
    limit_presentation,
    symplectic_fermion,
)
from vertexalg.fock import FockOracle
from vertexalg.lie import builtin_lie
from vertexalg.linear import commutant_basis, nongeneric_levels, weight_basis

K = RatFunc.param()


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def accept(number, suite, timing_ok, timing, checks=("",)):
    """Criterion `number` holds when every check of the suite report passed
    and its timing bound held.  The line gives the details of the checks
    whose names start with one of the `checks` prefixes, each of which must
    name at least one check, and of every failed check."""
    missing = [p for p in checks if not any(n.startswith(p) for n, *_ in suite.checks)]
    details = [f"missing checks {missing}"] if missing else []
    for name, status, detail, _ in suite.checks:
        if status != "pass":
            details.append(f"{name} {status.upper()}: {detail}")
        elif name.startswith(checks):
            details.append(f"{name}: {detail}")
    ok = suite.passed and timing_ok and not missing
    report(number, ok, "; ".join(details) + f" [{timing}]")


def accept_suite(number, suite_report, name, bound, checks):
    suite, seconds = suite_report(name)
    accept(number, suite, seconds < bound, f"{name} {seconds:.1f}s, bound {bound}s", checks)


def test_criterion_1_sugawara_central_charges(suite_report):
    suite, _ = suite_report("sugawara")
    slowest = max(seconds for *_, seconds in suite.checks)
    accept(1, suite, slowest < 10, f"slowest check {slowest:.2f}s, bound 10s per check")


def test_criterion_2_section8_relations(suite_report):
    accept_suite(2, suite_report, "n2-universal", 60, checks=(
        "relation-XpXm", "relation-Xpbc", "relation-Xmbc", "relation-bcbc"))


def test_criterion_3_n2_structure(suite_report):
    accept_suite(3, suite_report, "n2-universal", 60,
                 checks=("J-commutant", "virasoro-L", "primaries"))


def test_criterion_4_osp_coset(suite_report):
    accept_suite(4, suite_report, "osp-coset", 1800, checks=(
        "weight-2-virasoro", "weight-4-decoupling", "weight-6-decoupling",
        "weight-8-decoupling"))


def test_criterion_5_sl3_parafermion_limit(suite_report):
    accept_suite(5, suite_report, "sl3-limit", 300, checks=(
        "c-raise-i", "c-raise-j", "c-raise-k", "cbar-raise-i", "cbar-raise-j",
        "cbar-raise-k", "derivative-identity"))


def test_criterion_6_parafermion_sl2(suite_report):
    accept_suite(6, suite_report, "parafermion-sl2", 600,
                 checks=("graded-dimensions", "weight-2-nongeneric"))


def test_criterion_7_free_orbifold_membership(suite_report):
    accept_suite(7, suite_report, "free-orbifolds", 600,
                 checks=("S(1)-orbifold", "S(1)-invariant-dimensions", "AS-mixed",
                         "AS-virasoro"))


def test_criterion_8_deformable_limits(suite_report):
    accept_suite(8, suite_report, "deformable-limit", 300,
                 checks=("limit[sl2]", "limit[osp(1|2)]", "psi-homomorphism"))


def test_criterion_9_property_suites():
    t0 = time.time()
    ok = True
    k = K
    catalog = [
        heisenberg(1), heisenberg(2), bc_system(1), beta_gamma(1),
        symplectic_fermion(1), heisenberg_pairs(1),
        affine(builtin_lie("sl2"), k), affine(builtin_lie("sp2"), k),
        affine(builtin_lie("osp(1|2)"), k), affine(builtin_lie("sl3"), k),
        affine(builtin_lie("gl(1)"), k),
        affine(builtin_lie("sl2"), k).tensor(bc_system(1)),
        deformable_form(affine(builtin_lie("sl2"), k)),
        limit_presentation(deformable_form(affine(builtin_lie("osp(1|2)"), k))),
    ]
    failed = [P.name for P in catalog if not P.check().ok]
    ok = ok and not failed
    # Fock oracle on products with total weight up to 6 runs in test_fock.py;
    # spot-check a weight-6 slice here so this criterion stays self-contained
    for build in (heisenberg, bc_system, beta_gamma, symplectic_fermion):
        P = build(1)
        oracle = FockOracle(P)
        monos3 = weight_basis(P, 3).monomials
        for M in monos3[:6]:
            for N in monos3[:6]:
                for n in range(-1, 7):
                    ok = ok and oracle.check_product(M, N, n)
    # solver determinism and evaluation consistency at 3 random levels
    P = affine(builtin_lie("sl2"), k)
    first = commutant_basis(P, [P.gen("H")], 3)
    solve = commutant_basis(P, [P.gen("H")], 3)
    ok = ok and first.serialize() == solve.serialize()
    ng = nongeneric_levels(solve)
    excluded = set(ng.certified) | ng.candidates | ng.poles
    rng = random.Random(77)
    found = 0
    while found < 3:
        k0 = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        if k0 in excluded:
            continue
        ok = ok and solve.kernel_dim_at(k0) == solve.kernel_dim
        found += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 900
    detail = "skew/Jacobi pass on all builtin presentations"
    if failed:
        detail = f"presentation checks failed: {failed}"
    report(9, ok, f"{detail}; Fock oracle agrees; solver deterministic; "
                  f"evaluation consistent at 3 random levels [{elapsed:.1f}s]")
