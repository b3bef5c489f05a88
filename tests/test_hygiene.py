"""Dead-code guard: an AST scan of the vertexalg package (standard library only).

Every private module-level function and private method must be referenced
somewhere in the package outside its own body.  Every public function,
class, method and property must be too, or be used by bench/ outside its
tests, or be exported in vertexalg.__all__.  Every import must be used
in the module that makes it (names listed in __all__ count as used).  No
module imports a private name from another one or reads a private attribute
that another module defines.  No private function only forwards to a method.
The Fock oracle shares no product logic with the engine it checks,
verify_commutant none of the mode or monomial selection of the rows it
re-checks, and the rank mod p none of the elimination over Z[k] whose rank
it certifies.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexalg"
BENCH = SRC.parent.parent / "bench"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced_names(node):
    """Names a node loads, reads as attributes or imports, with counts."""
    counts = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.alias):
            name = sub.name
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def _private_defs(tree):
    """Private module-level functions and private (non-dunder) methods."""
    for node in tree.body:
        bodies = [node] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            bodies = [n for n in node.body if isinstance(n, ast.FunctionDef)]
        for fn in bodies:
            if fn.name.startswith("_") and not fn.name.endswith("__"):
                yield fn


def test_every_private_function_is_referenced():
    trees = _trees()
    totals = {}
    for tree in trees.values():
        for name, n in _referenced_names(tree).items():
            totals[name] = totals.get(name, 0) + n
    dead = []
    for module, tree in trees.items():
        for fn in _private_defs(tree):
            own = _referenced_names(fn).get(fn.name, 0)
            if totals.get(fn.name, 0) <= own:
                dead.append(f"{module}:{fn.lineno} {fn.name}")
    assert not dead, f"private functions with no reference: {dead}"


def _public_defs(tree):
    """Public module-level functions and classes, and public methods and
    properties of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield fn


def _bench_names():
    """Names bench/ uses outside its own tests: loaded names, attributes,
    imports, and the dotted parts of strings, since bench/tracing.py names
    the functions it wraps by string."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        if path.name == "test_bench.py":
            continue
        tree = ast.parse(path.read_text())
        names.update(_referenced_names(tree))
        names.update(part for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     for part in node.value.split("."))
    return names


def _exported_names(trees):
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_public_name_is_reached():
    # a public function, class, method or property is named in src/ outside
    # its own body, used by bench/, or exported in vertexalg.__all__; a name
    # only the tests reach is dead
    trees = _trees()
    totals = {}
    for tree in trees.values():
        for name, n in _referenced_names(tree).items():
            totals[name] = totals.get(name, 0) + n
    reached = _bench_names() | _exported_names(trees)
    dead = []
    for module, tree in trees.items():
        for node in _public_defs(tree):
            own = _referenced_names(node).get(node.name, 0)
            if totals.get(node.name, 0) <= own and node.name not in reached:
                dead.append(f"{module}:{node.lineno} {node.name}")
    assert not dead, f"public names reached only from tests: {dead}"


def test_no_unused_imports():
    unused = []
    for module, tree in _trees().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [f"{module}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_no_private_imports_across_modules():
    # a helper shared between modules gets a public name
    private = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                private += [f"{module}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert not private, f"private names imported from another module: {private}"


def _private_names_defined(tree):
    """Private names a module defines: functions, methods, classes, and the
    names and attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_private_attributes_across_modules():
    # x._name, for x other than self, where only another module defines _name
    trees = _trees()
    defined = {module: _private_names_defined(tree) for module, tree in trees.items()}
    private = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for m, names in defined.items() if m != module))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in elsewhere
                    and node.attr not in defined[module]
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                private.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert not private, f"private attributes of another module: {private}"


def test_no_private_forwarding_wrappers():
    # a private function whose whole body, docstring aside, is one
    # `return self.<name>(...)`: its callers call the method directly
    wrappers = []
    for module, tree in _trees().items():
        for fn in _private_defs(tree):
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "self"):
                wrappers.append(f"{module}:{fn.lineno} {fn.name}")
    assert not wrappers, f"private functions that only forward: {wrappers}"


def test_fock_oracle_stays_independent_of_the_engine():
    # the oracle checks the rewriting engine, so it shares none of its
    # product logic: from core it takes only the error type and the
    # presentation's data, and it calls nprod only to get the answer it checks
    tree = _trees()["fock.py"]
    imports = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names}
    assert imports == {("core", "VAError"), ("core", "VAPresentation")}
    checks = [fn for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "check_product"]
    assert len(checks) == 1
    inside = _referenced_names(checks[0]).get("nprod", 0)
    assert inside and _referenced_names(tree).get("nprod", 0) == inside
    forbidden = {"_prod", "canon_factors", "derivative", "lambda_bracket",
                 "normal_order", "mono_weight"}
    named = set(_referenced_names(tree)) | {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not named & forbidden, sorted(named & forbidden)


def test_verify_commutant_stays_independent_of_the_mode_selection():
    # commutant_system writes rows for a generating set of the current
    # modes, and commutant_basis solves on the charge-0 monomials of the
    # diagonal currents; verify_commutant re-checks every mode of every
    # current on every monomial of the element, so nothing it calls in
    # linear.py may reach the code that picks those modes or monomials
    functions = {node.name: node for node in _trees()["linear.py"].body
                 if isinstance(node, ast.FunctionDef)}
    selection = {"_generating_modes", "_current_brackets", "charge_filter",
                 "_diagonal_charges", "_torus_currents", "solve_basis",
                 "_charge0_basis"}
    assert selection <= set(functions)
    reached, todo = set(), ["verify_commutant", "_action_image"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _referenced_names(functions[name]) if n in functions]
    assert {"verify_invariant", "_action_image", "apply_derivation"} <= reached
    assert not reached & selection, sorted(reached & selection)


def test_rank_mod_p_stays_independent_of_the_elimination_over_zk():
    # rank_at takes a rank mod p that reaches the generic rank as proof that
    # a level is generic, so, like qsolve, nothing coefficients.rank_mod_p
    # reaches may touch PolySystem or the Z[k] helpers of the elimination
    tree = _trees()["coefficients.py"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    functions = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            functions.setdefault(node.name, []).append(node)
    forbidden = {"PolySystem", "integer_row", "zgcd", "zquo", "zcombine", "zprimitive"}
    assert forbidden - {"PolySystem"} <= set(functions)
    reached, named, todo = set(), set(), ["rank_mod_p"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for fn in functions[name]:
                names = _referenced_names(fn)
                named.update(names)
                todo += [n for n in names if n in functions]
    assert not named & forbidden, sorted(named & forbidden)


def test_one_tokenizer_for_coefficients_and_elements():
    # coefficients and elements are read by one tokenizer and one grammar;
    # a second regular expression here would be a second parser
    trees = _trees()
    compiles = [node for name in ("coefficients.py", "expressions.py")
                for node in ast.walk(trees[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"]
    assert len(compiles) == 1


def _attribute_writers(fields):
    """The scopes in src/ (file, then enclosing classes and functions, dotted)
    that assign or delete an attribute named in fields, directly or through
    setattr or delattr."""
    writes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr in fields
                    and isinstance(child.ctx, (ast.Store, ast.Del))):
                writes.add(".".join(scope))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("setattr", "delattr")
                    and any(isinstance(arg, ast.Constant) and arg.value in fields
                            for arg in child.args)):
                writes.add(".".join(scope))
            visit(child, inner)

    for name, tree in _trees().items():
        visit(tree, (name,))
    return writes


def test_ratfunc_fields_are_set_only_where_a_ratfunc_is_built():
    # the engine memo interns its coefficients, so one RatFunc object is
    # shared by many memo entries and elements; that is sound only while no
    # RatFunc changes after it is built: znum and zden are assigned in
    # coefficients._ratfunc and RatFunc.__init__ and nowhere else
    assert _attribute_writers({"znum", "zden"}) == {
        "coefficients.py._ratfunc", "coefficients.py.RatFunc.__init__"}


def test_embedding_level_is_set_only_when_the_embedding_is_built():
    # an EmbeddingImage has its level from construction, given or read by
    # verify(); no caller fills it in afterwards
    assert _attribute_writers({"level"}) == {"constructions.py.EmbeddingImage.__init__"}
