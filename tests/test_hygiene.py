"""Dead-code guard: an AST scan of the vertexalg package (standard library only).

Every private module-level function and private method must be referenced
somewhere in the package outside its own body, and every import must be used
in the module that makes it (names listed in __all__ count as used).  No
module imports a private name from another one or reads a private attribute
that another module defines.  No private function only forwards to a method.
The Fock oracle shares no product logic with the engine it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexalg"


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
