"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
(about a minute; the package's own suite under tests/ does not collect these).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import references  # noqa: E402
import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tclkraus import DephasingModel, OhmicBath, QuadratureError  # noqa: E402


@pytest.fixture
def work_dir():
    os.makedirs(run_bench.WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run_bench.WORK_ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _counters(summary):
    return {k: v for k, v in summary.items()
            if not k.endswith("_s") and k not in tracing.VARYING}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_is_transparent_and_counters_repeat(name, work_dir):
    wl = workloads.WORKLOADS[name]
    path = wl.generate(3, work_dir)
    out = os.path.join(work_dir, "out")
    plain = wl.digest(wl.collect(wl.solve(path, out), out))

    tracer = tracing.Tracer()
    digests, summaries = [], []
    for _ in range(2):
        tracer.install()
        try:
            result, root = tracer.run(wl.solve, path, out)
        finally:
            tracer.uninstall()
        digests.append(wl.digest(wl.collect(result, out)))
        summaries.append(tracer.summary(root))

    assert tracer.missing == []
    assert digests == [plain, plain]
    assert _counters(summaries[0]) == _counters(summaries[1])
    # the layers' self times account for the traced solve
    assert summaries[0]["trace.layer_share"] > 0.99
    # and nothing is left patched
    assert wl.digest(wl.collect(wl.solve(path, out), out)) == plain


def test_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()
    inner = tracer.timed("quadrature.scalar", lambda: sum(range(20000)))
    outer = tracer.timed("baths.memory_integral", lambda: [inner() for _ in range(3)])
    _, root = tracer.run(lambda: (outer(), inner()))
    spans = tracer.spans[root:]
    assert [s[2] for s in spans] == ["solve", "baths.memory_integral"] + \
        ["quadrature.scalar"] * 4
    assert spans[2][1] == spans[1][0] and spans[5][1] == spans[0][0]
    summary = tracer.summary(root)
    self_sum = sum(v for k, v in summary.items()
                   if k in tracing.LAYER_METRICS and k.endswith("_s"))
    assert self_sum == pytest.approx(summary["trace.solve_s"], rel=1e-9)
    assert summary["quadrature.scalar_calls"] == 4
    assert summary["baths.memory_integral_calls"] == 1


def test_corrupted_output_is_a_failed_operation(work_dir):
    wl = workloads.WORKLOADS["tcl2_transverse"]
    path = wl.generate(0, work_dir)
    run = run_bench.Run(wl, path, wl.reference(path), os.path.join(work_dir, "out"))
    run.attempt(run.solve)
    assert (run.attempted, run.failed) == (1, 0)

    def corrupted():
        result = run.solve()
        csv_path = os.path.join(run.out_dir, "tcl2.csv")
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[-1] = ",".join(cells)
        with open(csv_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return result

    run.attempt(corrupted)
    assert (run.attempted, run.failed) == (2, 1)

    def raising():
        raise QuadratureError("did not converge")

    run.attempt(raising)
    assert (run.attempted, run.failed) == (3, 2)


def test_dephasing_check_catches_a_wrong_memory_integral(work_dir):
    wl = workloads.WORKLOADS["dephasing_ohmic_thermal"]
    path = wl.generate(0, work_dir)
    ref = wl.reference(path)
    outputs = wl.collect(wl.solve(path, work_dir), work_dir)
    assert wl.check(outputs, path, ref) == []
    outputs["kraus.operators"][0] *= 1.0 + 1e-7
    assert any("memory integral" in p for p in wl.check(outputs, path, ref))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_decoherence_function_matches_double_time_integral(t):
    model = DephasingModel(1.0, OhmicBath(0.002, 2.0, 0.5))
    ref = references.decoherence_function(0.002, 2.0, 0.5, t)
    assert abs(model.memory_integral(t) - ref) <= 1e-12 * abs(ref)


def test_seed_draws_the_inputs(work_dir):
    wl = workloads.WORKLOADS["kraus_qutrit"]
    raw = []
    for i, seed in enumerate((5, 5, 6)):
        sub = os.path.join(work_dir, str(i))
        os.makedirs(sub)
        with open(wl.generate(seed, sub)) as fh:
            raw.append(json.load(fh))
    assert raw[0] == raw[1] and raw[0] != raw[2]
    omegas = [m["omega"] for m in raw[2]["bath"]["modes"]]
    nominal = [m["omega"] for m in wl.template()["bath"]["modes"]]
    assert np.allclose(omegas, nominal, rtol=workloads.JITTER)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"][1] == "bench/run_bench.py"
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    expected = {**{k: v[:2] for k, v in tracing.LAYER_METRICS.items()},
                **tracing.RUN_METRICS}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == expected
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mb"}


def _result(cmd_args, cwd):
    proc = subprocess.run([sys.executable, *cmd_args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _result(["bench/run_bench.py", "--workload", "dephasing_ohmic_thermal",
                    "--seed", "4", "--seconds", "0.1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert set(result["metrics"]) == set(names)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_fails_without_the_package_source(work_dir):
    shutil.copytree(HERE, os.path.join(work_dir, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    proc = _result(["bench/run_bench.py", "--workload", "kraus_qutrit", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], work_dir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
