"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each vertexalg module from the
outside: the package itself is not changed.  A span records (name, start,
end, parent, task); spans stay in memory and are written out once, after
the run.  Hot coefficient arithmetic (RatFunc operators, pgcd, pdivmod) and
memo insertions are counted, not spanned: a span per call would cost more
than the call.  Their time therefore shows up as self time of the span that
called them.

A layer is a vertexalg module; a span's layer is the part of its name
before the first dot.  A span's self time is its duration minus the time
its direct child spans cover, so the self times of all spans add up to the
time covered by top-level spans, and the rest of a round is "unattributed"
(the benchmark's own code: input assembly and answer checks).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

LAYERS = (
    "coefficients", "lie", "core", "constructions", "expressions",
    "linear", "deffiles", "fock", "cli",
)

# (module, attribute path, span name)
SPANS = (
    ("coefficients", "rational_roots", "coefficients.rational_roots"),
    ("lie", "builtin_lie", "lie.builtin_lie"),
    ("lie", "lie_from_constants", "lie.lie_from_constants"),
    ("core", "VAPresentation.nprod", "core.nprod"),
    ("core", "VAPresentation.lambda_bracket", "core.lambda_bracket"),
    ("core", "VAPresentation.derivative", "core.derivative"),
    ("core", "VAPresentation.check", "core.check"),
    ("core", "VAPresentation.tensor", "core.tensor"),
    ("constructions", "affine", "constructions.build"),
    ("constructions", "heisenberg", "constructions.build"),
    ("constructions", "free_fermion", "constructions.build"),
    ("constructions", "bc_system", "constructions.build"),
    ("constructions", "beta_gamma", "constructions.build"),
    ("constructions", "symplectic_fermion", "constructions.build"),
    ("constructions", "heisenberg_pairs", "constructions.build"),
    ("constructions", "tau_embedding", "constructions.build"),
    ("constructions", "sigma_embedding", "constructions.build"),
    ("constructions", "osp_coset_virasoro", "constructions.build"),
    ("constructions", "sugawara", "constructions.sugawara"),
    ("constructions", "virasoro_test", "constructions.virasoro_test"),
    ("expressions", "parse_element", "expressions.parse"),
    ("expressions", "format_element", "expressions.format"),
    ("linear", "weight_basis", "linear.basis"),
    ("linear", "charge_filter", "linear.basis"),
    ("linear", "commutant_system", "linear.rows"),
    ("linear", "PolySystem.eliminate", "linear.eliminate"),
    ("linear", "PolySystem.kernel", "linear.kernel"),
    ("linear", "commutant_basis", "linear.commutant_basis"),
    ("linear", "verify_commutant", "linear.verify"),
    ("linear", "Relation.verify", "linear.verify"),
    ("linear", "enumerate_words", "linear.words"),
    ("linear", "find_relation", "linear.relation"),
    ("linear", "pin_commutant_element", "linear.pin"),
    ("linear", "decoupling_multiplier", "linear.decoupling"),
    ("linear", "SolveReport.rank_at", "linear.rank_at"),
    ("linear", "nongeneric_levels", "linear.nongeneric"),
    ("deffiles", "load_definition", "deffiles.load"),
    ("deffiles", "build_algebra", "deffiles.build_algebra"),
    ("fock", "FockOracle.__init__", "fock.init"),
    ("fock", "FockOracle.check_product", "fock.check_product"),
    ("cli", "main", "cli.main"),
)

# (module, attribute path, counter name)
COUNTS = tuple(
    ("coefficients", f"RatFunc.{op}", "coefficients.ratfunc_ops")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
) + (
    ("coefficients", "pgcd", "coefficients.pgcd_calls"),
    ("coefficients", "pdivmod", "coefficients.pdivmod_calls"),
    # every memo miss of VAPresentation._prod inserts exactly one entry
    ("core", "VAPresentation._prod_raw", "core.memo_entries"),
)

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "coefficients.rational_roots_s": ("coefficients.rational_roots",),
    "core.nprod_s": ("core.nprod",),
    "core.derivative_s": ("core.derivative",),
    "core.check_s": ("core.check",),
    "linear.basis_s": ("linear.basis",),
    "linear.rows_s": ("linear.rows",),
    "linear.eliminate_s": ("linear.eliminate",),
    "linear.kernel_s": ("linear.kernel",),
    "linear.verify_s": ("linear.verify",),
    "linear.words_s": ("linear.words",),
    "linear.relation_s": ("linear.relation",),
    "linear.rank_at_s": ("linear.rank_at",),
    "linear.nongeneric_s": ("linear.nongeneric",),
    "lie.builtin_lie_s": ("lie.builtin_lie",),
    "constructions.build_s": ("constructions.build",),
    "constructions.virasoro_test_s": ("constructions.virasoro_test",),
    "expressions.parse_s": ("expressions.parse",),
    "expressions.format_s": ("expressions.format",),
    "deffiles.load_s": ("deffiles.load",),
    "deffiles.build_algebra_s": ("deffiles.build_algebra",),
    "cli.main_s": ("cli.main",),
}

# per-layer metric -> span name whose call count it is
CALL_COUNT_METRICS = {
    "coefficients.rational_roots_calls": "coefficients.rational_roots",
    "core.nprod_calls": "core.nprod",
    "fock.check_product_calls": "fock.check_product",
}

# counters kept by the hooks in Tracer._hooks; all start at zero
HOOK_COUNTERS = (
    "linear.basis_size", "linear.rows", "linear.nonzeros", "linear.fill_in",
    "linear.max_pivot_degree", "linear.kernel_dim", "fock.mismatches",
    "cli.exit_nonzero",
)


def self_times(spans):
    """Self time of each span: duration minus what its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Collects spans and counters while installed around a vertexalg load."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, task]
        self.counts = Counter({name: 0 for name in HOOK_COUNTERS})
        for _, _, name in COUNTS:
            self.counts[name] = 0
        self.task = None
        self._stack = []
        self._restore = []  # (owner, attribute or key, original)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        """Wrappers that read a layer's inputs and outputs, outside its span."""
        counts = self.counts

        def eliminate(fn):
            @functools.wraps(fn)
            def wrapper(system):
                # eliminate() overwrites system.rows, so count before it runs
                before = [set(row) for row in system.rows]
                counts["linear.basis_size"] += system.ncols
                counts["linear.rows"] += len(before)
                counts["linear.nonzeros"] += sum(map(len, before))
                out = fn(system)
                counts["linear.fill_in"] += sum(
                    len(set(row) - old) for row, old in zip(system.rows, before)
                )
                degree = max((len(p) - 1 for p in out[1]), default=0)
                counts["linear.max_pivot_degree"] = max(
                    counts["linear.max_pivot_degree"], degree
                )
                return out
            return wrapper

        def kernel(fn):
            @functools.wraps(fn)
            def wrapper(system, pivot_rows):
                out = fn(system, pivot_rows)
                counts["linear.kernel_dim"] += len(out)
                return out
            return wrapper

        def count_if(counter, bad):
            def hook(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    if bad(out):
                        counts[counter] += 1
                    return out
                return wrapper
            return hook

        return {
            ("linear", "PolySystem.eliminate"): eliminate,
            ("linear", "PolySystem.kernel"): kernel,
            ("fock", "FockOracle.check_product"):
                count_if("fock.mismatches", lambda ok: not ok),
            ("cli", "main"): count_if("cli.exit_nonzero", lambda code: code != 0),
        }

    # -- installation ----------------------------------------------------

    def install(self, va):
        """Wrap the entry points of the modules in namespace ``va``.

        A function imported by name into another module, or stored in a
        module-level dict, is replaced there too, so every caller goes
        through the wrapper.
        """
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "vertexalg" or name.startswith("vertexalg.")
        ]
        hooks = self._hooks()
        plans = [(mod, path, self._span, name) for mod, path, name in SPANS]
        plans += [(mod, path, self._count, name) for mod, path, name in COUNTS]
        for mod_name, path, make, name in plans:
            owner, attr = _resolve(getattr(va, mod_name), path)
            original = owner.__dict__[attr]
            wrapped = make(name, original)
            hook = hooks.get((mod_name, path))
            if hook is not None:
                wrapped = hook(wrapped)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped, original)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set(value, dkey, wrapped, original)

    def _set(self, owner, key, value, original):
        self._restore.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics and the attribution of ``wall_s`` to layers."""
        selfs = self_times(self.spans)
        by_name = Counter()
        calls = Counter()
        for (name, *_), s in zip(self.spans, selfs):
            by_name[name] += s
            calls[name] += 1
        out = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = (sum(by_name[n] for n in names), "s")
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = (calls[name], "count")
        for name, value in sorted(self.counts.items()):
            out[name] = (value, "count")
        attributed = 0.0
        for layer in LAYERS:
            layer_s = sum(v for n, v in by_name.items() if n.split(".", 1)[0] == layer)
            out[f"self.{layer}_s"] = (layer_s, "s")
            attributed += layer_s
        out["fock.oracle_self_s"] = out["self.fock_s"]
        out["self.unattributed_s"] = (wall_s - attributed, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path):
        """Write every span, gzipped, as one JSON list of
        [name, start, end, parent, task]."""
        with gzip.open(path, "wt") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
