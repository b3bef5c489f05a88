"""The benchmark's workloads.

Each workload turns a seed into a fixed task list (``setup``), builds fresh
per-round state inside the timed round (``new_state``) and runs one task at a
time (``run``), returning an observed value that the harness compares with
the task's expected value.  Expected values never come from the code under
test: they are known answers (the paper, the README, the Virasoro vacuum
character, textbook Sugawara charges) or independent certificates (the Fock
oracle, skew-symmetry, ``Relation.verify``).  Why each workload exists is
written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from math import factorial

Task = namedtuple("Task", "kind args expected")


def virasoro_vacuum_dim(w: int) -> int:
    """Weight-w dimension of the universal Virasoro vacuum module: the
    number of partitions of w into parts >= 2."""
    def count(n, smallest):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(smallest, n + 1))
    return count(w, 2)


# ---------------------------------------------------------------------------
# coset-decoupling


class CosetDecoupling:
    """The osp(1|2)/sp_2 coset, run the way suite_osp_coset runs it."""

    name = "coset-decoupling"
    # c = -k(4k+5)/((k+2)(2k+3)) in canonical form (monic denominator):
    # (-2k^2 - 5/2 k) / (k^2 + 7/2 k + 3); coefficients low degree first
    CENTRAL_CHARGE = (
        (Fraction(0), Fraction(-5, 2), Fraction(-2)),
        (Fraction(3), Fraction(7, 2), Fraction(1)),
    )
    POLES = frozenset({Fraction(-2), Fraction(-3, 2)})
    ROOTS = {4: (Fraction(-4),), 6: (Fraction(-4), Fraction(-8, 3))}
    LEVELS = 12

    def setup(self, va, seed, workdir):
        rng = random.Random(seed)
        k = va.coefficients.RatFunc.param()
        P = va.constructions.affine(va.lie.builtin_lie("osp(1|2)"), k)
        tasks = [Task("virasoro", (2,), (virasoro_vacuum_dim(2), True, True,
                                         self.CENTRAL_CHARGE))]
        for w, m in ((4, 1), (6, 2)):
            shape = va.constructions.odd_pair_shape(P, "phip", "phim", m)
            tasks.append(Task("decoupling", (w, shape),
                              (virasoro_vacuum_dim(w), self.ROOTS[w], self.POLES, True)))
        for w in (3, 4):
            tasks.append(Task("commutant", (w,), virasoro_vacuum_dim(w)))
        # nongeneric levels of this coset are small negative rationals; these
        # levels are generic, so the kernel keeps its generic dimension.  Their
        # numerators and denominators have fixed digit counts, so every rank
        # check does about the same Fraction arithmetic.
        for _ in range(self.LEVELS):
            k0 = Fraction(rng.randint(10**5, 10**6 - 1), rng.randint(100, 999))
            tasks.append(Task("kernel_dim_at", (4, k0), virasoro_vacuum_dim(4)))
        return tasks

    def new_state(self, va):
        k = va.coefficients.RatFunc.param()
        P = va.constructions.affine(va.lie.builtin_lie("osp(1|2)"), k)
        return {
            "P": P,
            "currents": [P.gen("H"), P.gen("Xp"), P.gen("Xm")],
            "L": va.constructions.osp_coset_virasoro(P),
            "reports": {},
        }

    def run(self, va, state, task):
        P, currents, L = state["P"], state["currents"], state["L"]
        lin = va.linear
        if task.kind == "virasoro":
            solve = lin.commutant_basis(P, currents, task.args[0])
            ok, c = va.constructions.virasoro_test(L)
            return (solve.kernel_dim, lin.verify_commutant(P, L, currents), ok,
                    (c.num, c.den))
        if task.kind == "decoupling":
            w, shape = task.args
            report = lin.decoupling_multiplier(
                P, currents, [L], w, target_shape=shape,
                charge_currents=[P.gen("H")],
            )
            return (report.commutant_dim, tuple(sorted(report.roots)),
                    frozenset(report.poles), report.relation.verify())
        if task.kind == "commutant":
            w = task.args[0]
            state["reports"][w] = lin.commutant_basis(P, currents, w)
            return state["reports"][w].kernel_dim
        if task.kind == "kernel_dim_at":
            w, k0 = task.args
            return state["reports"][w].kernel_dim_at(k0)
        raise ValueError(f"unknown task kind {task.kind!r}")


# ---------------------------------------------------------------------------
# ope-composite


class OpeComposite:
    """Lambda-brackets and normally ordered products of composite elements."""

    name = "ope-composite"
    ALGEBRAS = ("sl3", "osp(1|2)")
    # three monomials per element, one of each factor-weight shape
    SHAPES = {
        2: ((1, 1), (1, 1), (2,)),
        3: ((1, 1, 1), (1, 2), (3,)),
        4: ((1, 1, 1, 1), (1, 1, 2), (2, 2)),
    }
    WEIGHT_PAIRS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3))
    # Sugawara c = k sdim(g) / (k + h), with the textbook dual Coxeter numbers
    SUGAWARA = {"sl2": (3, 2), "osp(1|2)": (1, Fraction(3, 2)),
                "sl3": (8, 3), "sp4": (10, 3)}

    def _pool(self, va, P, algebra, w, side):
        """Three monomials of weight w and one parity, one per shape.

        The choice depends only on (algebra, w, side), not on the seed, so
        every seed asks the rewriting engine for the same monomial products
        in the same order; the seed varies the coefficients.
        """
        parity = 0
        if algebra == "osp(1|2)":
            parity = w % 2 if side == "x" else (w + 1) % 2
        pick = random.Random(f"{algebra}/{w}/{side}")
        by_shape = {}
        for M in va.linear.weight_basis(P, w).monomials:
            if P.mono_parity(M) == parity:
                shape = tuple(sorted(d + 1 for _, d in M))
                by_shape.setdefault(shape, []).append(M)
        out = []
        for shape in self.SHAPES[w]:
            choices = [M for M in by_shape[shape] if M not in out]
            out.append(pick.choice(choices))
        return tuple(out)

    def setup(self, va, seed, workdir):
        rng = random.Random(seed)
        tasks = []
        for algebra in self.ALGEBRAS:
            k = va.coefficients.RatFunc.param()
            P = va.constructions.affine(va.lie.builtin_lie(algebra), k)
            pools = {(w, side): self._pool(va, P, algebra, w, side)
                     for w in self.SHAPES for side in "xy"}
            for wx, wy in self.WEIGHT_PAIRS:
                x = tuple((M, self._coeff(rng)) for M in pools[wx, "x"])
                y = tuple((M, self._coeff(rng)) for M in pools[wy, "y"])
                tasks.append(Task("pair", (algebra, x, y), True))
        for name in ("sl3", "sp4"):
            tasks.append(Task("check", (name,), (True, 0)))
        for name, (sdim, h) in self.SUGAWARA.items():
            num = (Fraction(0), Fraction(sdim))
            den = (Fraction(h), Fraction(1))
            tasks.append(Task("sugawara", (name,), (True, num, den)))
        return tasks

    @staticmethod
    def _coeff(rng):
        """a + b k with a nonzero rational a and an integer b."""
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        return a, rng.randint(-3, 3)

    def new_state(self, va):
        k = va.coefficients.RatFunc.param()
        return {name: va.constructions.affine(va.lie.builtin_lie(name), k)
                for name in self.ALGEBRAS}

    def run(self, va, state, task):
        RatFunc = va.coefficients.RatFunc
        if task.kind == "pair":
            algebra, xs, ys = task.args
            P = state[algebra]
            k = RatFunc.param()

            def element(terms):
                return P.element({
                    M: RatFunc.const(a) + k * RatFunc.const(b) for M, (a, b) in terms
                })

            return skew_symmetric(P, element(xs), element(ys), RatFunc)
        k = RatFunc.param()
        P = va.constructions.affine(va.lie.builtin_lie(task.args[0]), k)
        if task.kind == "check":
            report = P.check()
            return report.ok, len(report.failures)
        if task.kind == "sugawara":
            ok, c = va.constructions.virasoro_test(va.constructions.sugawara(P))
            return ok, c.num, c.den
        raise ValueError(f"unknown task kind {task.kind!r}")


def skew_symmetric(P, x, y, RatFunc):
    """Certify [x_l y], [y_l x], :xy: and :yx: against each other.

    Skew-symmetry y_(n) x = p sum_j (-1)^(n+j+1) d^j (x_(n+j) y) / j!, with
    p = -1 when x and y are both odd, holds for every n >= -1; n = -1
    relates :yx: to :xy: and the brackets.
    """
    xy = P.lambda_bracket(x, y).coeffs
    yx = P.lambda_bracket(y, x).coeffs
    prods = {-1: P.nprod(x, y, -1)}
    prods.update(enumerate(xy))
    sign = -1 if (P.parity_of(x) and P.parity_of(y)) else 1
    for n in range(-1, max(len(xy), len(yx))):
        expected = P.zero()
        for j in range(len(xy) - n + 1):
            term = prods.get(n + j)
            if term is None or term.is_zero():
                continue
            for _ in range(j):
                term = P.derivative(term)
            scale = Fraction(sign * (-1) ** (n + j + 1), factorial(j))
            expected = expected + term * RatFunc.const(scale)
        if n == -1:
            lhs = P.nprod(y, x, -1)
        else:
            lhs = yx[n] if n < len(yx) else P.zero()
        if lhs != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# fock-crosscheck


class FockCrosscheck:
    """Engine products checked by the independent Fock-space oracle."""

    name = "fock-crosscheck"
    CAP = Fraction(5)
    # sample size per (algebra, total weight) stratum; weighted toward beta-gamma
    QUOTA = {"H(1)": 40, "E(1)": 40, "S(1)": 200, "A(1)": 40}
    BUILDERS = {"H(1)": "heisenberg", "E(1)": "bc_system",
                "S(1)": "beta_gamma", "A(1)": "symplectic_fermion"}

    def setup(self, va, seed, workdir):
        rng = random.Random(seed)
        tasks = []
        for name, builder in self.BUILDERS.items():
            P = getattr(va.constructions, builder)(1)
            step = P.weight_step()
            monos = []
            w = step
            while w <= self.CAP - step:
                monos.extend(va.linear.weight_basis(P, w).monomials)
                w += step
            weights = [(M, P.mono_weight(M)) for M in monos]
            strata = {}
            for M, wM in weights:
                for N, wN in weights:
                    total = wM + wN
                    if total <= self.CAP:
                        for n in range(-1, int(total) + 1):
                            strata.setdefault(total, []).append((M, N, n))
            for total in sorted(strata):
                triples = strata[total]
                for M, N, n in rng.sample(triples, min(self.QUOTA[name], len(triples))):
                    tasks.append(Task("product", (name, M, N, n), True))
        return tasks

    def new_state(self, va):
        return {name: va.fock.FockOracle(getattr(va.constructions, builder)(1))
                for name, builder in self.BUILDERS.items()}

    def run(self, va, state, task):
        name, M, N, n = task.args
        return state[name].check_product(M, N, n)


# ---------------------------------------------------------------------------
# cli-requests

DEFINITION = {
    "lie": {
        "name": "my_sl2",
        "basis": [["H", "even"], ["Xp", "even"], ["Xm", "even"]],
        "constants": [
            [0, 1, [[1, "1"]]], [1, 0, [[1, "-1"]]],
            [0, 2, [[2, "-1"]]], [2, 0, [[2, "1"]]],
            [1, 2, [[0, "2"]]], [2, 1, [[0, "-2"]]],
        ],
        "form": [["1/2", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
    },
    "algebra": "affine:my_sl2@k * bc:1",
    "currents": {"J": "H - :b c:"},
    "elements": {"Gp": ":Xp b:"},
}


def _pair_names(prefix_a, prefix_b, n, i, j):
    """Generator names of a rank-n pair system (b/c, beta/gamma)."""
    if n == 1:
        return prefix_a, prefix_b
    return f"{prefix_a}{i}", f"{prefix_b}{j}"


def _sl3_bracket(i, j):
    """[E_ij, E_ji] = E_ii - E_jj in the basis H1 = E11 - E22, H2 = E22 - E33."""
    h = {(1, 2): "H1", (2, 3): "H2", (1, 3): "H1 + H2"}
    if (i, j) in h:
        return h[i, j]
    return {"H1": "(-1)*H1", "H2": "(-1)*H2", "H1 + H2": "(-1)*H1 + (-1)*H2"}[h[j, i]]


class CliRequests:
    """A closed loop of one client calling vertexalg.cli.main in-process."""

    name = "cli-requests"

    def setup(self, va, seed, workdir):
        rng = random.Random(seed)
        def_path = str(workdir / "definition.json")
        with open(def_path, "w") as fh:
            json.dump(DEFINITION, fh)
        tasks = []

        def add(count, make):
            tasks.extend(make() for _ in range(count))

        def heisenberg_bracket():
            n = rng.randint(1, 3)
            i, j = rng.randint(1, n), rng.randint(1, n)
            want = ("0", "(1)*1") if i == j else ()
            return Task("bracket", ("bracket", "--algebra", f"heisenberg:{n}",
                                    "--left", f"a{i}", "--right", f"a{j}"), (0, want))

        def betagamma_bracket():
            n = rng.randint(1, 2)
            i, j = rng.randint(1, n), rng.randint(1, n)
            beta, gamma = _pair_names("beta", "gamma", n, i, j)
            want = ("(1)*1",) if i == j else ()
            return Task("bracket", ("bracket", "--algebra", f"betagamma:{n}",
                                    "--left", beta, "--right", gamma), (0, want))

        def bc_product():
            n = rng.randint(1, 2)
            i, j = rng.randint(1, n), rng.randint(1, n)
            b, c = _pair_names("b", "c", n, i, j)
            want = "(1)*1" if i == j else "0"
            return Task("nproduct", ("nproduct", "--algebra", f"bc:{n}", "--n", "0",
                                     "--left", b, "--right", c), (0, want))

        def sl2_level_bracket():
            level = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            return Task("bracket", ("bracket", "--algebra", f"affine:sl2@{level}",
                                    "--left", "Xp", "--right", "Xm"),
                        (0, ("(2)*H", f"({level})*1")))

        def sl2_cartan_bracket():
            right, want = rng.choice((("Xp", "Xp"), ("Xm", "(-1)*Xm")))
            return Task("bracket", ("bracket", "--algebra", "affine:sl2@k",
                                    "--left", "H", "--right", right), (0, (want,)))

        def sl3_bracket():
            i, j = rng.sample((1, 2, 3), 2)
            return Task("bracket", ("bracket", "--algebra", "affine:sl3@k",
                                    "--left", f"E{i}{j}", "--right", f"E{j}{i}"),
                        (0, (_sl3_bracket(i, j), "(k)*1")))

        def heisenberg_normal_form():
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            want = f":a{min(i, j)} a{max(i, j)}:"
            return Task("normal-form", ("normal-form", "--algebra", "heisenberg:3",
                                        "--expr", f":a{i} a{j}:"), (0, want))

        def bc_normal_form():
            return Task("normal-form", ("normal-form", "--algebra", "bc:1",
                                        "--expr", ":c b:"), (0, "(-1)*:b c:"))

        def sl2_commutant(w):
            # graded dimensions 1, 2, 4 of the sl2 parafermion algebra
            return lambda: Task("commutant", (
                "commutant", "--algebra", "affine:sl2@k", "--currents", "H",
                "--weight", str(w)), (0, {2: 1, 3: 2, 4: 4}[w]))

        def sl2_nongeneric(w):
            return lambda: Task("nongeneric", (
                "nongeneric", "--algebra", "affine:sl2@k", "--currents", "H",
                "--weight", str(w)), (0, ("0",)))

        def relation():
            return Task("find-relation", (
                "find-relation", "--algebra", "heisenberg:1", "--target", ":a1 a1:",
                "--generators", ":a1 a1:"), (0, "(1)"))

        def obstruction():
            # D a1 is not a multiple of :a1 a1:; exit code 1 reports it
            return Task("obstruction", (
                "find-relation", "--algebra", "heisenberg:1", "--target", "D^1(a1)",
                "--generators", ":a1 a1:"), (1, 1, 2))

        def define():
            return Task("define", ("define", "--file", def_path),
                        (0, ("H", "Xp", "Xm", "b", "c"), ("J",), ("Gp",)))

        def definition_commutant():
            # F = H + (k/2):bc: spans the weight-1 commutant of J
            return Task("commutant", ("commutant", "--algebra", def_path,
                                      "--currents", "J", "--weight", "1"), (0, 1))

        add(12, heisenberg_bracket)
        add(8, betagamma_bracket)
        add(12, bc_product)
        add(10, sl2_level_bracket)
        add(6, sl2_cartan_bracket)
        add(4, sl3_bracket)
        add(8, heisenberg_normal_form)
        add(6, bc_normal_form)
        for w in (2, 3, 4):
            add(4, sl2_commutant(w))
        for w in (2, 3):
            add(3, sl2_nongeneric(w))
        add(4, relation)
        add(4, obstruction)
        add(6, define)
        add(6, definition_commutant)
        rng.shuffle(tasks)
        return tasks

    def new_state(self, va):
        return None

    def run(self, va, state, task):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = va.cli.main(["--format", "json", *task.args])
            except SystemExit as exc:  # argparse exits on a bad command line
                code = exc.code
        payload = json.loads(out.getvalue()) if out.getvalue() else {}
        kind = task.kind
        if kind == "bracket":
            return code, tuple(payload["coefficients"])
        if kind in ("nproduct", "normal-form"):
            return code, payload["result"]
        if kind == "commutant":
            return code, payload["kernel_dim"]
        if kind == "nongeneric":
            return code, tuple(sorted(payload["certified"]))
        if kind == "find-relation":
            return code, payload["multiplier"]
        if kind == "obstruction":
            ob = payload["obstruction"]
            return code, ob["words_rank"], ob["combined_rank"]
        if kind == "define":
            return (code, tuple(g["name"] for g in payload["generators"]),
                    tuple(payload["currents"]), tuple(payload["elements"]))
        raise ValueError(f"unknown task kind {kind!r}")


WORKLOADS = {w.name: w for w in (CosetDecoupling(), OpeComposite(),
                                 FockCrosscheck(), CliRequests())}
