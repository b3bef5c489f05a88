"""CLI surface: subcommands, definition files, exit codes, determinism."""

import argparse
import json

import pytest

from vertexalg import cli
from vertexalg.cli import main
from vertexalg.deffiles import MAX_LIE_DIM, build_algebra, load_definition
from vertexalg.linear import commutant_basis
from vertexalg.suites import run_suite


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


@pytest.fixture
def def_file(tmp_path):
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(DEFINITION))
    return str(path)


def test_build_algebra_spec():
    P = build_algebra("affine:sl2@k * bc:1")
    assert [g.name for g in P.generators] == ["H", "Xp", "Xm", "b", "c"]
    P = build_algebra("betagamma:1")
    assert P.ngen == 2


def test_spec_splits_only_at_top_level_stars(capsys):
    # the "*" of a level in parentheses does not start a tensor factor
    code = main(["bracket", "--algebra", "affine:sl2@(2*k)", "--left", "Xp", "--right", "Xm"])
    assert code == 0 and "(2*k)*1" in capsys.readouterr().out
    P = build_algebra("affine:sl2@(2*k) * bc:1")
    left, right, _ = P.metadata["tensor_factors"]
    assert (left.ngen, right.ngen) == (3, 2)
    assert str(left.metadata["level"]) == "(2*k)"


def test_primed_tensor_names_are_accepted_as_input(capsys):
    args = ["--algebra", "heisenberg:1*heisenberg:1", "--currents", "a1'", "--weight", "1"]
    assert main(["commutant", *args]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[1].strip() == "a1"
    assert main(["commutant", "--algebra", "heisenberg:1*heisenberg:1",
                 "--currents", "a1", "--weight", "1"]) == 0
    assert capsys.readouterr().out.split("\n")[1].strip() == "a1'"


def test_load_definition(def_file):
    definition = load_definition(def_file)
    P = definition.algebra
    assert P.ngen == 5
    J = definition.currents["J"]
    assert J == P.gen("H") - P.gen("b").no(P.gen("c"))


def test_cli_define(def_file, capsys):
    assert main(["define", "--file", def_file]) == 0
    out = capsys.readouterr().out
    assert "H" in out and "currents: J" in out


def test_cli_bracket(capsys):
    code = main(["bracket", "--algebra", "affine:sl2@k", "--left", "Xp", "--right", "Xm"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(2)*H" in out and "(k)*1" in out


def test_cli_bracket_json(capsys):
    code = main(["--format", "json", "bracket", "--algebra", "heisenberg:1",
                 "--left", "a1", "--right", "a1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == ["0", "(1)*1"]


def test_cli_nproduct(capsys):
    code = main(["nproduct", "--algebra", "bc:1", "--n", "0", "--left", "b", "--right", "c"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(1)*1"


def test_cli_normal_form(capsys):
    code = main(["normal-form", "--algebra", "bc:1", "--expr", ":c b:"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(-1)*:b c:"


def test_cli_commutant(def_file, capsys):
    # the weight-1 commutant of J = H - :bc: is spanned by F = H + (k/2):bc:
    code = main(["commutant", "--algebra", def_file, "--currents", "J", "--weight", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel dimension 1" in out
    assert ":b c:" in out


def test_cli_commutant_solves_on_the_charge0_basis(capsys):
    # H1 and H2 act diagonally, so the solve runs on the 24 monomials of
    # charge 0 among the 192 of weight 3
    code = main(["commutant", "--algebra", "affine:sl3@k", "--currents", "H1,H2",
                 "--weight", "3"])
    assert code == 0
    assert "weight 3: basis 24, generic kernel dimension 8" in capsys.readouterr().out


def test_cli_commutant_zero_current(capsys):
    for currents, message in (("0", "current 1 of 1 is zero"),
                              ("H, H - H", "current 2 of 2 is zero")):
        code = main(["commutant", "--algebra", "affine:sl2@k", "--currents", currents,
                     "--weight", "2"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_find_relation(capsys):
    code = main([
        "find-relation", "--algebra", "heisenberg:1",
        "--target", ":a1 a1:", "--generators", ":a1 a1:",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "multiplier: (1)" in out


def test_cli_find_relation_obstruction(capsys):
    code = main([
        "find-relation", "--algebra", "heisenberg:1",
        "--target", "D^1(a1)", "--generators", ":a1 a1:",
    ])
    assert code == 1


def test_cli_find_relation_with_the_vacuum_as_a_generator(capsys):
    code = main(["find-relation", "--algebra", "heisenberg:1", "--target", ":a1 a1:",
                 "--generators", "1;a1"])
    assert code == 2
    assert "generator 1 of 2 has weight 0" in capsys.readouterr().err


def test_cli_nongeneric(capsys):
    code = main(["nongeneric", "--algebra", "affine:sl2@k", "--currents", "H",
                 "--weight", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "['0']" in out


def test_cli_usage_errors():
    assert main(["bracket", "--algebra", "nonsense:1", "--left", "x", "--right", "y"]) == 2
    assert main(["suite", "no-such-suite"]) == 2
    assert main(["normal-form", "--algebra", "bc:1", "--expr", ":b"]) == 2


def test_cli_suite_exit_code(capsys):
    assert main(["suite", "sl3-limit"]) == 0
    capsys.readouterr()


def test_suite_determinism(suite_report):
    a = suite_report("parafermion-sl2")[0].serialize(with_timing=False)
    b = run_suite("parafermion-sl2").serialize(with_timing=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_builds_parser_once(monkeypatch, capsys):
    # main() shares one parser: three calls construct the parsers of one build
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(["list"]) == 0
    assert main(["--format", "json", "list"]) == 0
    assert main(["nproduct", "--algebra", "bc:1", "--n", "0", "--left", "b", "--right", "c"]) == 0
    capsys.readouterr()
    calls = len(built)
    cli.build_parser.cache_clear()
    cli.build_parser()
    assert calls == len(built) - calls > 0


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sugawara" in out and "affine:<lie>@<level>" in out


def test_listed_constructors_build(capsys):
    assert main(["--format", "json", "list"]) == 0
    for spec in json.loads(capsys.readouterr().out)["constructors"]:
        for hole, value in (("<lie>", "sl2"), ("<level>", "k"), ("<n>", "1"), ("<m>", "1")):
            spec = spec.replace(hole, value)
        assert build_algebra(spec).ngen > 0, spec


def test_cli_bad_lie_definition(tmp_path, capsys):
    # an invalid Lie section must fail cleanly with a usage-error exit code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "lie": {
            "name": "x",
            "basis": [["a", "even"], ["b", "even"]],
            "constants": [[0, 1, [[0, "1"]]], [1, 0, [[0, "-1"]]],
                          [0, 0, [[1, "1"]]]],
            "form": [["1", "0"], ["0", "1"]],
        },
        "algebra": "affine:x@k",
    }))
    assert main(["define", "--file", str(bad)]) == 2
    assert "antisymmetry" in capsys.readouterr().err


def test_cli_lie_basis_limit(tmp_path, capsys):
    # validation is cubic in the basis size, so a larger basis is refused
    # before any check runs
    n = MAX_LIE_DIM + 1
    doc = {
        "lie": {
            "name": "big",
            "basis": [[f"a{i}", "even"] for i in range(n)],
            "form": [[int(i == j) for j in range(n)] for i in range(n)],
        },
        "algebra": "affine:big@k",
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["define", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"basis"' in err and str(MAX_LIE_DIM) in err


@pytest.mark.parametrize("field, name, text, message", [
    ("currents", "J", "H - :b q:", '"currents" entry "J": unknown generator \'q\' (at position 7)'),
    ("elements", "Gm", ":Xm q:", '"elements" entry "Gm": unknown generator \'q\' (at position 4)'),
    ("elements", "Gp", "(k+)*Xp", '"elements" entry "Gp": unexpected token'),
])
def test_cli_bad_expression_names_its_entry(tmp_path, capsys, field, name, text, message):
    doc = {**DEFINITION, field: {**DEFINITION[field], name: text}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["define", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def test_cli_commutant_limit_counts_the_solve_columns(capsys):
    # the weight-5 basis of sl3 has 2464 monomials and the solve runs on
    # its 196 of charge 0 under H1 and H2; the commutant of the gl2 they
    # span with E12 and E21 has dimension 6 there
    names = ["H1", "H2", "E12", "E21"]
    code = main(["--format", "json", "commutant", "--algebra", "affine:sl3@k",
                 "--currents", ",".join(names), "--weight", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["basis_size"], payload["kernel_dim"]) == (196, 6)
    P = build_algebra("affine:sl3@k")
    report = commutant_basis(P, [P.gen(name) for name in names], 5)
    assert payload["kernel"] == report.serialize()["kernel"]
