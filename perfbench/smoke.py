"""Smoke test for the benchmark itself.

    python3 -m pytest perfbench/smoke.py

The file name keeps it out of the package's default pytest collection; it
takes about a minute.  It runs every workload briefly with tracing off and
on, checks that every metric BENCHMARK.json names is printed with its
unit, and checks the tracer: spans nest, self times are never negative,
counts repeat at a fixed seed and the what-if spans see the design loop's
hot path.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import (  # noqa: E402
    END, LAYER_BINDINGS, NAME, OP, PARENT, START, Tracer, layer_metrics, self_times,
    unit_of,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=7, seconds=1, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, json.loads(lines[-2])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(workload, trace):
    result, info = parse(bench(workload, trace))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "blas_threads", "seed"):
        assert key in info["context"]
    if trace:
        assert info["detail"]["missing_bindings"] == []


def test_sweep_counts_phi_lf_zero_as_an_error():
    result, info = parse(bench("sweep", 0, seconds=2))
    assert info["detail"]["error_rate"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1


def test_traced_counts_repeat_at_a_fixed_seed():
    first, _ = parse(bench("fit", 1))
    second, _ = parse(bench("fit", 1))
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert second["metrics"][name]["value"] == m["value"], name


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("fit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def design_trace():
    """Spans of one STATE_A, ppd 7 design operation (pool index 0), twice."""
    eisopt = run.import_eisopt()
    workload = run.Design(eisopt, seed=7)
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 0
            workload.call(0)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    return tracers


def test_spans_nest_and_self_time_is_nonnegative(design_trace):
    spans = design_trace[0].spans
    assert spans
    for s in spans:
        assert s[START] <= s[END]
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            assert p[START] <= s[START] and s[END] <= p[END], s[NAME]
            assert p[OP] == s[OP]
    assert min(self_times(spans)) >= 0.0


def test_design_counts_repeat_and_see_the_hot_path(design_trace):
    first, second = (layer_metrics(t.spans) for t in design_trace)
    for name, value in first.items():
        if unit_of(name) != "s":
            assert second[name] == value, name
    # About 7.9k single-point what-ifs per STATE_A, ppd 7 design run.
    assert 7500 <= first["information.fisher_contributions.calls"] <= 8300
    assert first["design.iterations"] == 60


def test_uninstall_restores_every_binding():
    eisopt = run.import_eisopt()
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in LAYER_BINDINGS}
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    for (m, a), fn in before.items():
        assert getattr(sys.modules[m], a) is fn
    assert eisopt.information.fisher is before[("eisopt.information", "fisher")]
