"""Standard-library benchmark for vertexalg.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Imports vertexalg from ``src`` next to this directory, so it measures the
working tree.  Everything runs in this one process, single-threaded.

A run sets the package up six times (import plus the workload's
presentations and inputs), three times before its rounds and three times
after them, and reports the median as ``setup_s``.  In between it runs
rounds of the seeded task list until ``--seconds`` have passed (at least
one round); every round starts from fresh presentations, so caches start
cold.  Every task's answer is checked; a wrong answer or an exception
is a failed task and the run goes on.

``wall_s`` is the median round; the task latency percentiles pool every
task run of every untraced round.

With ``--trace 1`` one more round runs with span wrappers installed (see
tracing.py); its per-layer metrics are printed, and the tracing overhead is
the traced round's wall time minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
every metric, the run's environment and any failures goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MODULES = ("coefficients", "lie", "core", "constructions", "expressions",
           "linear", "deffiles", "fock", "cli")
SETUP_REPEATS = 3  # before the rounds, and again after them

# Metrics in the final JSON line (BENCHMARK.json lists the same names).  Every
# run prints all its metrics above that line and writes them to the results
# file.  The task latency percentiles and failed_ratio stay out of the JSON
# line, and so do per-layer times that some workload leaves at zero
# (README.md explains each).
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER = (
    "coefficients.ratfunc_ops", "coefficients.pgcd_calls",
    "coefficients.pdivmod_calls", "coefficients.rational_roots_calls",
    "core.nprod_calls", "core.memo_entries", "core.nprod_s",
    "linear.basis_size", "linear.rows", "linear.nonzeros", "linear.fill_in",
    "linear.max_pivot_degree", "linear.kernel_dim",
    "fock.check_product_calls", "fock.mismatches", "cli.exit_nonzero",
    "constructions.build_s", "self.core_s", "self.constructions_s",
    "self.unattributed_s", "trace.wall_s", "trace.overhead_s", "trace.spans",
)


def load_vertexalg():
    """Import vertexalg afresh from SRC; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "vertexalg" or m.startswith("vertexalg.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"vertexalg.{m}") for m in MODULES}
    origin = Path(mods["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"vertexalg was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def run_round(workload, va, tasks, tracer=None):
    """Run the task list once from fresh state.

    Returns (wall seconds, per-task seconds, failures).  A failure is
    (task index, kind, description).
    """
    latencies = []
    failures = []
    start = time.perf_counter()
    state = workload.new_state(va)
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            observed = workload.run(va, state, task)
        except Exception:  # a crashing task is a failed task; keep going
            failures.append((i, task.kind, traceback.format_exc(limit=3)))
        else:
            if observed != task.expected:
                failures.append((i, task.kind, f"got {observed!r}, want {task.expected!r}"))
        latencies.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.task = None
    return time.perf_counter() - start, latencies, failures


def quantile_ms(values, q):
    """q-th percentile (q in 1..99) in milliseconds; the median of one value
    is that value."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def source_commit():
    """The checked-out commit, read from .git without running git; None
    when the tree is not a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, task_count):
    return {
        "python": platform.python_version(),
        "commit": source_commit(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "tasks": task_count,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="vertexalg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vertexalg" / "__init__.py").is_file():
        print(f"error: no vertexalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        va = load_vertexalg()
        tasks = workload.setup(va, args.seed, OUT)
        setup_times.append(time.perf_counter() - t0)
        return va, tasks

    # half the set-ups before the rounds and half after, so that setup_s
    # samples the host at two moments of the run
    for _ in range(SETUP_REPEATS):
        va, tasks = set_up()
    walls, latencies, failures = [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        wall, lat, fail = run_round(workload, va, tasks)
        walls.append(wall)
        latencies.extend(lat)
        failures.extend(fail)
    for _ in range(SETUP_REPEATS):
        va, tasks = set_up()
    attempted = len(latencies)
    wall_s = statistics.median(walls)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "task_p50_ms": (quantile_ms(latencies, 50), "ms"),
        "task_p90_ms": (quantile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = END_TO_END
    if args.trace:
        tracer = Tracer()
        tracer.install(va)
        try:
            traced_wall, _, fail = run_round(workload, va, tasks, tracer)
        finally:
            tracer.uninstall()
        attempted += len(tasks)
        failures.extend(fail)
        metrics.update(tracer.metrics(traced_wall))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (wall_s, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        reported = PER_LAYER
    metrics["failed_ratio"] = (len(failures) / attempted, "ratio")

    print(f"workload {args.workload}: seed {args.seed}, {len(tasks)} tasks per round, "
          f"{len(walls)} untraced rounds, {attempted} tasks attempted, "
          f"{len(failures)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:34s} {value:>16d} {unit}")
    for i, kind, why in failures[:10]:
        print(f"FAILED task {i} ({kind}): {why}", file=sys.stderr)

    results = {
        "environment": environment(args, len(tasks)),
        "untraced_rounds": walls,
        "setup_runs_s": setup_times,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [list(f) for f in failures],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
