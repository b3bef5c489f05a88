"""Seeded fuzzing of the CLI inputs: definition files and the expression grammar.

Every call must end with exit code 0, 1 or 2; malformed input ends with 2 and
a message, never with a traceback.  Numbers over the size limits (derivative
order and the n of nproduct, monomial length, exponent and degree, rank,
tensor factors, solve weight and solve columns) and input nested too deeply
end with 2 within a second.
"""

import copy
import json
import random
import re
import time

import pytest

from vertexalg import linear
from vertexalg.cli import main

from test_cli import DEFINITION

VALUES = [
    None, True, 0, 1, -1, 7, 0.5, 0.1, "", "x", "purple", "even", "odd", "1/0",
    "1/2", "H", "k", "bc:1", "affine:sl2@k", ":b c:", [], [0.1], [None],
    [[0.1]], [["H", "even"]], {}, {"a": 1}, {"spec": "bc:1"},
]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(doc, rng):
    """Replace, delete or wrap one node of the document."""
    path = rng.choice(list(_paths(doc)))
    value = rng.choice(VALUES)
    if not path:
        return copy.deepcopy(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = rng.randrange(3)
    if action == 0:
        parent[path[-1]] = copy.deepcopy(value)
    elif action == 1:
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]]
    return doc


def test_definition_mutations_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20240601)
    path = tmp_path / "def.json"
    codes = []
    for _ in range(300):
        doc = _mutate(copy.deepcopy(DEFINITION), rng)
        path.write_text(json.dumps(doc))
        codes.append(main(["define", "--file", str(path)]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert 0 in codes and 2 in codes


def test_float_in_definition_is_rejected(tmp_path, capsys):
    for put in (
        lambda doc: doc["lie"]["form"][0].__setitem__(0, 0.5),
        lambda doc: doc["lie"]["constants"][0][2][0].__setitem__(1, 1.0),
    ):
        doc = copy.deepcopy(DEFINITION)
        put(doc)
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        assert main(["bracket", "--algebra", str(path), "--left", "H", "--right", "H"]) == 2
        assert "not an exact number" in capsys.readouterr().err


ALGEBRAS = {
    "heisenberg:1": ["a1"],
    "bc:1": ["b", "c"],
    "affine:sl2@k": ["H", "Xp", "Xm"],
}
COEFFS = ["(k + 1)*", "(1)/(k - 2)*", "3/4*", "0/0*", "12/0*", "(k/0)*", "(1/0)*", "(k^2)*"]
SYMBOLS = list(":()+-*/^") + ["D^", "k", "kk", "0", "1", "12", " "]


def _expression(names, rng, depth=0):
    pick = rng.randrange(9 if depth < 3 else 3)
    if pick == 0:
        return rng.choice(names)
    if pick == 1:
        return rng.choice(["1", "0", rng.choice(names)])
    if pick == 2:
        return rng.choice(COEFFS) + rng.choice(names)
    sub = [_expression(names, rng, depth + 1) for _ in range(rng.randint(2, 3))]
    if pick == 3:
        return f"D^{rng.randint(0, 3)}({sub[0]})"
    if pick in (4, 5):
        return ":" + " ".join(sub) + ":"
    if pick == 6:
        return f"({sub[0]})"
    return f" {rng.choice('+-')} ".join(sub)


def _corrupt(text, rng):
    """Delete, insert or replace one character; the numbers stay small, since
    the cost of D^n and k^n grows with n."""
    i = rng.randrange(len(text) + 1)
    action = rng.randrange(3)
    if action == 0:
        return text[:i] + text[i + 1:]
    insert = rng.choice(SYMBOLS)
    if action == 1:
        return text[:i] + insert + text[i:]
    return text[:i] + insert + text[i + 1:]


def test_expression_strings_exit_cleanly(capsys):
    rng = random.Random(20240602)
    codes = []
    for _ in range(1000):
        algebra = rng.choice(sorted(ALGEBRAS))
        text = _expression(ALGEBRAS[algebra], rng)
        for _ in range(rng.randrange(3)):
            text = _corrupt(text, rng)
        codes.append(main(["normal-form", "--algebra", algebra, f"--expr={text}"]))
    capsys.readouterr()
    assert set(codes) <= {0, 2}
    assert codes.count(0) > 100 and codes.count(2) > 100


HUGE = ["100000000", "1000000", "10000"]


def _enlarge(text, rng):
    """Put one huge number into an expression: a derivative order, an
    exponent in a coefficient, or a power of a coefficient."""
    huge = rng.choice(HUGE)
    action = rng.randrange(3)
    if action == 0 and re.search(r"D\^\d+", text):
        return re.sub(r"D\^\d+", f"D^{huge}", text, count=1)
    if action == 1:
        return f"(k^{huge})*({text})"
    return f"((k + 1)^{huge})*({text})"


def _timed_main(args):
    t0 = time.perf_counter()
    code = main(args)
    return code, time.perf_counter() - t0


def test_huge_numbers_exit_quickly(capsys):
    rng = random.Random(20240603)
    slow = []
    for _ in range(300):
        algebra = rng.choice(sorted(ALGEBRAS))
        text = _enlarge(_expression(ALGEBRAS[algebra], rng), rng)
        code, seconds = _timed_main(["normal-form", "--algebra", algebra, f"--expr={text}"])
        assert code == 2, text
        if seconds > 1:
            slow.append((text, seconds))
    for spec in ("heisenberg:100000000", "betagamma:1000000", "bc:10000",
                 "affine:sl2@k^1000000", "affine:sl2@(k+1)^10000"):
        code, seconds = _timed_main(["normal-form", "--algebra", spec, "--expr=1"])
        assert code == 2, spec
        if seconds > 1:
            slow.append((spec, seconds))
    solve = ["--algebra", "heisenberg:1", "--currents", "a1", "--weight"]
    for args in (["commutant"] + solve + ["1e3"],
                 ["commutant"] + solve + ["100000000"],
                 ["nongeneric"] + solve + ["60"],
                 ["find-relation", "--algebra", "heisenberg:1",
                  "--target", ":D^16(a1) D^16(a1):", "--generators", "a1"],
                 ["nproduct", "--algebra", "heisenberg:1", "--n=-100000000",
                  "--left", "a1", "--right", "a1"]):
        code, seconds = _timed_main(args)
        assert code == 2, args
        if seconds > 1:
            slow.append((args, seconds))
    assert not slow
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize("args, code", [
    (["normal-form", "--algebra", "heisenberg:1", "--expr=D^33(a1)"], 2),
    (["normal-form", "--algebra", "heisenberg:1", "--expr=D^32(a1)"], 0),
    (["normal-form", "--algebra", "heisenberg:1", "--expr=(k^201)*a1"], 2),
    (["normal-form", "--algebra", "heisenberg:1", "--expr=(k^200)*a1"], 0),
    (["normal-form", "--algebra", "heisenberg:1", "--expr=(k^150*k^51)*a1"], 2),
    (["normal-form", "--algebra", "heisenberg:1", "--expr=((k^2)^101)*a1"], 2),
    (["normal-form", "--algebra", "heisenberg:101", "--expr=1"], 2),
    (["normal-form", "--algebra", "heisenberg:100", "--expr=a100"], 0),
    (["commutant", "--algebra", "heisenberg:1", "--currents", "a1", "--weight", "13"], 2),
    (["commutant", "--algebra", "heisenberg:1", "--currents", "a1", "--weight", "12"], 0),
    (["nongeneric", "--algebra", "heisenberg:1", "--currents", "a1", "--weight", "25/2"], 2),
    (["nongeneric", "--algebra", "heisenberg:1", "--currents", "a1", "--weight", "12"], 0),
    (["find-relation", "--algebra", "heisenberg:1", "--target", ":D^5(a1) D^6(a1):",
      "--generators", "a1"], 2),
    (["find-relation", "--algebra", "heisenberg:1", "--target", ":D^5(a1) D^5(a1):",
      "--generators", "a1"], 0),
    (["nproduct", "--algebra", "heisenberg:1", "--n=-33", "--left", "a1", "--right", "a1"], 0),
    (["nproduct", "--algebra", "heisenberg:1", "--n=-34", "--left", "a1", "--right", "a1"], 2),
    (["normal-form", "--algebra", " * ".join(["betagamma:100"] * 16), "--expr=1"], 0),
    (["normal-form", "--algebra", " * ".join(["betagamma:100"] * 17), "--expr=1"], 2),
    # a Heisenberg current has charge 0 on every generator, so all 2015
    # weight-2 monomials are solve columns (rows at the end: 495 pass, 527 not)
    (["commutant", "--algebra", "heisenberg:62", "--currents", "a1", "--weight", "2"], 2),
    # no monomial has these weights, so the column count is 0 at once
    (["commutant", "--algebra", "heisenberg:1", "--currents", "a1", "--weight", "11.9999999"], 0),
    (["nongeneric", "--algebra", "heisenberg:1", "--currents", "a1",
      "--weight", "1/1000000000"], 0),
    (["normal-form", "--algebra", "heisenberg:1", "--expr", ":" + "a1 " * 32 + ":"], 0),
    (["normal-form", "--algebra", "heisenberg:1", "--expr", ":" + "a1 " * 33 + ":"], 2),
    (["nproduct", "--algebra", "heisenberg:2", "--n=-1", "--left", ":" + "a2 " * 33 + ":",
      "--right", ":" + "a1 " * 33 + ":"], 2),
    # the engine's recursion overflowed on 350 factors before the limit
    (["bracket", "--algebra", "heisenberg:1", "--left", "a1", "--right", ":" + "a1 " * 350 + ":"], 2),
    # each operand is within the monomial-length limit, their product is not
    (["nproduct", "--algebra", "heisenberg:2", "--n=-1", "--left", ":" + "a2 " * 32 + ":",
      "--right", ":" + "a1 " * 32 + ":"], 2),
    (["nproduct", "--algebra", "heisenberg:2", "--n=-1", "--left", ":" + "a2 " * 16 + ":",
      "--right", ":" + "a1 " * 16 + ":"], 0),
    (["bracket", "--algebra", "heisenberg:2", "--left", ":" + "a2 " * 32 + ":",
      "--right", ":" + "a1 " * 32 + ":"], 2),
    # the solve-column limit: 495 weight-2 monomials, then 527
    (["commutant", "--algebra", "heisenberg:30", "--currents", "a1", "--weight", "2"], 0),
    (["commutant", "--algebra", "heisenberg:31", "--currents", "a1", "--weight", "2"], 2),
    # 1620 solve columns out of a weight basis of 16 634
    (["commutant", "--algebra", "affine:osp(1|2)@k", "--currents", "H,Xp,Xm",
      "--weight", "10"], 2),
    # a weight basis of 20 008 monomials, refused before it is enumerated
    (["commutant", "--algebra", "bc:7", "--currents", ":b1 c1:", "--weight", "7/2"], 2),
    # 9 869 990 weight-8 words in 20 currents are counted, not built; 1960 at weight 3
    (["find-relation", "--algebra", "heisenberg:20", "--target", ":" + "a1 " * 8 + ":",
      "--generators", ";".join(f"a{i}" for i in range(1, 21))], 2),
    (["find-relation", "--algebra", "heisenberg:20", "--target", ":a1 a1 a1:",
      "--generators", ";".join(f"a{i}" for i in range(1, 21))], 0),
])
def test_limits_are_exact(args, code, capsys):
    got, seconds = _timed_main(args)
    assert got == code and seconds < 1
    if code == 2:
        assert "limit" in capsys.readouterr().err


def test_solve_limits_name_their_counts(monkeypatch, capsys):
    # the weight basis is counted before anything is enumerated, and the
    # solve columns are counted on the basis the solve would run on
    code, _ = _timed_main(["commutant", "--algebra", "affine:osp(1|2)@k",
                           "--currents", "H,Xp,Xm", "--weight", "10"])
    assert code == 2 and "1620 columns" in capsys.readouterr().err

    def enumerated(*args):
        raise AssertionError("the weight basis was enumerated")

    monkeypatch.setattr(linear, "_pbw_words", enumerated)
    code, _ = _timed_main(["commutant", "--algebra", "bc:7", "--currents", ":b1 c1:",
                           "--weight", "7/2"])
    assert code == 2 and "20008 monomials" in capsys.readouterr().err


def test_huge_numbers_in_definition_files(tmp_path, capsys):
    for put in (
        lambda doc: doc.__setitem__("algebra", "affine:my_sl2@k * heisenberg:100000000"),
        lambda doc: doc["elements"].__setitem__("Gp", "D^100000000(:Xp b:)"),
        lambda doc: doc["currents"].__setitem__("J", "(k^1000000)*H - :b c:"),
        lambda doc: doc.__setitem__("algebra", " * ".join(["affine:my_sl2@k"] + ["bc:1"] * 16)),
    ):
        doc = copy.deepcopy(DEFINITION)
        put(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, seconds = _timed_main(["define", "--file", str(path)])
        assert code == 2 and seconds < 1
        assert "limit" in capsys.readouterr().err


def test_colon_choice_is_linear_time():
    # a colon after two factors opens a nested product where one parses and
    # otherwise closes the current one; re-parsing the nested reading at
    # every colon doubled the work every two colons (11.7 s here), keeping
    # each reading's result per position makes it linear
    text = ":a1 " + "a1 :a1 " * 40 + "nope"
    code, seconds = _timed_main(["normal-form", "--algebra", "heisenberg:1", "--expr", text])
    assert code == 2 and seconds < 1


def test_deeply_nested_input_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    sl2 = "affine:sl2@" + "(" * 3000 + "k" + ")" * 3000
    for args in (
        ["define", "--file", str(path)],
        ["normal-form", "--algebra", "heisenberg:1", "--expr=" + "(" * 3000 + "a1" + ")" * 3000],
        ["normal-form", "--algebra", "heisenberg:1", "--expr=" + "D^1(" * 2000 + "a1" + ")" * 2000],
        ["normal-form", "--algebra", "heisenberg:1", "--expr=" + ":a1 " * 3000 + "a1" + ":" * 3000],
        ["bracket", "--algebra", sl2, "--left", "H", "--right", "H"],
    ):
        code, seconds = _timed_main(args)
        assert code == 2 and seconds < 1, args[:3]
        assert "nested too deeply" in capsys.readouterr().err
