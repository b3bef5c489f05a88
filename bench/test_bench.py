"""Tests of the benchmark harness itself: task generation, span self times,
attribution, and failure accounting."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracing import LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Task  # noqa: E402


@pytest.fixture(scope="module")
def va():
    # the modules every other test uses; run.load_vertexalg would re-import
    # them and leave earlier importers holding stale classes
    return SimpleNamespace(**{m: importlib.import_module(f"vertexalg.{m}")
                              for m in run.MODULES})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_task_list(name, va, tmp_path):
    workload = WORKLOADS[name]
    first = workload.setup(va, 7, tmp_path)
    assert first == workload.setup(va, 7, tmp_path)
    assert first != workload.setup(va, 8, tmp_path)


def test_self_time_nested_and_back_to_back():
    spans = [
        ["core.a", 0.0, 10.0, -1, 0],   # parent of b and c
        ["core.b", 1.0, 3.0, 0, 0],     # back-to-back with c
        ["linear.c", 3.0, 6.0, 0, 0],   # parent of d
        ["linear.d", 4.0, 5.0, 2, 0],
        ["cli.e", 12.0, 14.0, -1, 1],   # a second top-level span
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 2.0]
    tracer = Tracer()
    tracer.spans = spans
    metrics = tracer.metrics(wall_s=15.0)
    assert metrics["self.core_s"][0] == 7.0
    assert metrics["self.linear_s"][0] == 3.0
    assert metrics["self.cli_s"][0] == 2.0
    assert metrics["self.unattributed_s"][0] == 3.0


def test_wrappers_record_nesting_and_attribution_adds_up():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer._span("core.inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer._span("linear.outer", outer)() == 2
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["linear.outer", "core.inner", "core.inner"]
    assert parents == [-1, 0, 0]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_times(tracer.spans)) == pytest.approx(total, abs=1e-12)


def test_traced_round_attribution_sums_to_wall(va, tmp_path):
    workload = WORKLOADS["cli-requests"]
    tasks = workload.setup(va, 3, tmp_path)[:12]
    original_main = va.cli.main
    tracer = Tracer()
    tracer.install(va)
    try:
        wall, latencies, failures = run.run_round(workload, va, tasks, tracer)
    finally:
        tracer.uninstall()
    assert va.cli.main is original_main
    assert failures == [] and len(latencies) == len(tasks)
    metrics = tracer.metrics(wall)
    attributed = sum(metrics[f"self.{layer}_s"][0] for layer in LAYERS)
    assert attributed + metrics["self.unattributed_s"][0] == pytest.approx(wall, abs=1e-9)
    assert metrics["self.cli_s"][0] > 0
    assert {s[4] for s in tracer.spans} <= set(range(len(tasks)))


def test_wrong_expected_value_and_exception_are_failures(va, tmp_path):
    workload = WORKLOADS["cli-requests"]
    tasks = workload.setup(va, 3, tmp_path)[:6]
    tasks[2] = tasks[2]._replace(expected=("corrupted",))
    tasks.append(Task("no-such-kind", (), None))
    wall, latencies, failures = run.run_round(workload, va, tasks)
    assert len(latencies) == len(tasks)
    assert [f[0] for f in failures] == [2, len(tasks) - 1]
    assert "corrupted" in failures[0][2]
    assert "ValueError" in failures[1][2]
