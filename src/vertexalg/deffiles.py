"""Algebra definition files and constructor specs.

A definition file is a single JSON document with optional sections:

    "lie":      one presentation or a list: {"name", "basis", "constants",
                "form"} with basis entries [name, "even"|"odd"], constants
                as triples [i, j, [[m, value], ...]], form a matrix of
                values; a value is an int or a "p/q" string, never a float,
    "algebra":  a constructor spec string (see below),
    "currents": {"name": expression, ...},
    "elements": {"name": expression, ...}.

Constructor specs name built-in families with parameters, e.g.
"affine:sl2@k", "betagamma:1", "tau:1"; "A * B" builds tensor products,
split at each "*" outside parentheses, so "affine:sl2@(2*k)" is one factor.
A spec has at most MAX_FACTORS factors (build time grows faster than
quadratically with their number), a rank n is at most MAX_RANK, a Lie basis
has at most MAX_LIE_DIM vectors (validation is cubic in it), and a level
obeys the degree limit of vertexalg.coefficients.
"""

from __future__ import annotations

import json

from .coefficients import CoefficientError, parse_ratfunc
from .constructions import (
    affine,
    bc_system,
    beta_gamma,
    free_fermion,
    heisenberg,
    heisenberg_pairs,
    symplectic_fermion,
    tau_embedding,
    sigma_embedding,
)
from .core import VAError, VAPresentation
from .expressions import parse_element
from .lie import LieError, LiePresentation, builtin_lie, lie_from_constants


class DefinitionError(VAError):
    pass


# most tensor factors in a constructor spec
MAX_FACTORS = 16
# largest rank n in a "<family>:<n>" constructor spec
MAX_RANK = 100
# largest basis of a "lie" section
MAX_LIE_DIM = 100


def _lists(value, size=None) -> bool:
    """A list of lists, each of the given length when one is given."""
    return isinstance(value, list) and all(
        isinstance(v, list) and size in (None, len(v)) for v in value
    )


def parse_lie_section(doc) -> LiePresentation:
    """One "lie" entry; its shape is checked here, its numbers, parities and
    axioms by lie_from_constants."""
    if not isinstance(doc, dict):
        raise DefinitionError('"lie" must be an object or a list of objects')
    name = doc.get("name", "lie")
    if not isinstance(name, str):
        raise DefinitionError('a lie "name" must be a string')
    constants = doc.get("constants", [])
    if not _lists(doc.get("basis"), 2):
        raise DefinitionError(f'lie {name!r}: "basis" must be a list of [name, parity]')
    if len(doc["basis"]) > MAX_LIE_DIM:
        raise DefinitionError(
            f'lie {name!r}: "basis" has {len(doc["basis"])} vectors, more than {MAX_LIE_DIM}'
        )
    if not (_lists(constants, 3) and all(_lists(c[2], 2) for c in constants)):
        raise DefinitionError(
            f'lie {name!r}: "constants" must be a list of [i, j, [[m, value], ...]]'
        )
    if not _lists(doc.get("form")):
        raise DefinitionError(f'lie {name!r}: "form" must be a list of rows')
    try:
        return lie_from_constants(doc["basis"], constants, doc["form"], name=name)
    except LieError as exc:
        raise DefinitionError(f"lie {name!r}: {exc}") from exc


_RANK_BUILDERS = {
    "heisenberg": heisenberg,
    "freefermion": free_fermion,
    "bc": bc_system,
    "betagamma": beta_gamma,
    "sympfermion": symplectic_fermion,
    "hpairs": heisenberg_pairs,
}

# every constructor spec head that _build_atom dispatches on
CONSTRUCTOR_SPECS = (
    ("affine:<lie>@<level>",)
    + tuple(f"{head}:<n>" for head in _RANK_BUILDERS)
    + ("tau:<n>", "sigma:<m>")
)


def _tensor_factors(spec: str):
    """The parts of a spec between the "*"s outside parentheses, so that a
    level such as (2*k) stays whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        depth += (ch == "(") - (ch == ")")
        if ch == "*" and depth == 0:
            parts.append(spec[start:i])
            start = i + 1
    parts.append(spec[start:])
    return [p.strip() for p in parts if p.strip()]


def build_algebra(spec: str, lie_table=None) -> VAPresentation:
    """Build a presentation from a constructor spec string."""
    parts = _tensor_factors(spec)
    if not parts:
        raise DefinitionError("empty algebra spec")
    if len(parts) > MAX_FACTORS:
        raise DefinitionError(
            f"{len(parts)} tensor factors exceed the limit {MAX_FACTORS}"
        )
    built = [_build_atom(p, lie_table) for p in parts]
    out = built[0]
    for nxt in built[1:]:
        out = out.tensor(nxt)
    return out


def _build_atom(spec: str, lie_table) -> VAPresentation:
    if ":" not in spec:
        raise DefinitionError(f"bad constructor spec {spec!r}")
    head, arg = spec.split(":", 1)
    head = head.strip()
    arg = arg.strip()
    if head == "affine":
        if "@" in arg:
            lie_name, level = arg.split("@", 1)
        else:
            lie_name, level = arg, "k"
        lie = None
        if lie_table and lie_name in lie_table:
            lie = lie_table[lie_name]
        else:
            try:
                lie = builtin_lie(lie_name)
            except LieError as exc:
                raise DefinitionError(str(exc)) from exc
        return affine(lie, parse_ratfunc(level))
    if head not in _RANK_BUILDERS and head not in ("tau", "sigma"):
        raise DefinitionError(f"unknown constructor {head!r}")
    rank = int(arg)
    if rank > MAX_RANK:
        raise DefinitionError(f"rank {rank} in {spec!r} exceeds the limit {MAX_RANK}")
    if head == "tau":
        return tau_embedding(rank).target
    if head == "sigma":
        return sigma_embedding(rank).target
    return _RANK_BUILDERS[head](rank)


class Definition:
    def __init__(self, algebra, currents, elements):
        self.algebra = algebra
        self.currents = currents
        self.elements = elements

    def lookup(self, name):
        if name in self.currents:
            return self.currents[name]
        if name in self.elements:
            return self.elements[name]
        return None


def load_definition(path_or_doc) -> Definition:
    if isinstance(path_or_doc, (str, bytes)):
        with open(path_or_doc) as fh:
            doc = json.load(fh)
    else:
        doc = path_or_doc
    if not isinstance(doc, dict):
        raise DefinitionError("a definition must be a JSON object")
    lie_section = doc.get("lie", [])
    if not isinstance(lie_section, list):
        lie_section = [lie_section]
    lie_table = {}
    for entry in lie_section:
        lp = parse_lie_section(entry)
        lie_table[lp.name] = lp
    spec = doc.get("algebra")
    if isinstance(spec, dict):
        spec = spec.get("spec")
    if not spec or not isinstance(spec, str):
        raise DefinitionError('definition needs an "algebra" constructor spec string')
    algebra = build_algebra(spec, lie_table)
    named = []
    for field in ("currents", "elements"):
        texts = doc.get(field, {})
        if not (isinstance(texts, dict) and all(isinstance(t, str) for t in texts.values())):
            raise DefinitionError(f'"{field}" must be an object of expression strings')
        named.append({name: _parse_entry(algebra, field, name, t) for name, t in texts.items()})
    return Definition(algebra, *named)


def _parse_entry(algebra, field, name, text):
    """One "currents" or "elements" expression; an error names its entry."""
    try:
        return parse_element(algebra, text)
    except (VAError, CoefficientError) as exc:
        raise DefinitionError(f'"{field}" entry {json.dumps(name)}: {exc}') from exc
