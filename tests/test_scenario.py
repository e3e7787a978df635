"""Scenario parsing, validation, and end-to-end runs."""

import json
import os

import numpy as np
import pytest

from tclkraus import ScenarioError, channel_at, load_scenario, run_scenario
from tclkraus import dephasing
from tclkraus.scenario import _oracle_bath

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scenarios")


def base_scenario():
    return {
        "system": {"preset": "qubit_sigmaz", "epsilon0": 1.0},
        "generators": [{"preset": "sigma_z"}],
        "bath": {"model": "markovian", "gamma": 0.4},
        "grid": {"t_max": 1.0, "n_points": 5},
        "initial_state": {"preset": "plus"},
        "runs": ["tcl2", "lindblad"],
    }


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def load(tmp_path, data):
    return load_scenario(write(tmp_path, data))


# ---------------------------------------------------------------- parsing


def test_minimal_scenario_loads(tmp_path):
    sc = load(tmp_path, base_scenario())
    assert sc.runs == ["tcl2", "lindblad"]
    assert sc.times.shape == (5,)
    assert sc.times[0] == 0.0 and sc.times[-1] == 1.0
    assert sc.system.dim == 2
    assert np.abs(sc.rho0 - 0.5 * np.ones((2, 2))).max() < 1e-15


def test_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/nonexistent/path.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))


def test_unknown_top_level_key(tmp_path):
    data = base_scenario()
    data["extra"] = 1
    with pytest.raises(ScenarioError, match="scenario.extra: unknown field"):
        load(tmp_path, data)


def test_unknown_bath_model(tmp_path):
    data = base_scenario()
    data["bath"] = {"model": "polaron"}
    with pytest.raises(ScenarioError, match="bath"):
        load(tmp_path, data)


def test_unknown_run_and_duplicate(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "magic"]
    with pytest.raises(ScenarioError, match=r"runs\[1\]: unknown run"):
        load(tmp_path, data)
    data["runs"] = ["tcl2", "tcl2"]
    with pytest.raises(ScenarioError, match=r"runs\[1\]: duplicate"):
        load(tmp_path, data)


def test_runs_reordered_to_canonical_order(tmp_path):
    data = base_scenario()
    data["runs"] = ["lindblad", "tcl2"]
    assert load(tmp_path, data).runs == ["tcl2", "lindblad"]


def test_unknown_gate_name(tmp_path):
    data = base_scenario()
    data["tolerances"] = {"tcl2_vs_oracle": 1e-6}  # oracle not in runs
    with pytest.raises(ScenarioError, match="unknown gate"):
        load(tmp_path, data)


def test_nonpositive_tolerance(tmp_path):
    data = base_scenario()
    data["tolerances"] = {"trace_dev": 0.0}
    with pytest.raises(ScenarioError, match="trace_dev"):
        load(tmp_path, data)


def test_grid_validation(tmp_path):
    data = base_scenario()
    data["grid"] = {"t_max": 0.0, "n_points": 5}
    with pytest.raises(ScenarioError, match="t_max"):
        load(tmp_path, data)
    data["grid"] = {"t_max": 1.0, "n_points": 1}
    with pytest.raises(ScenarioError, match="n_points"):
        load(tmp_path, data)
    data["grid"] = {"t_max": 1.0, "n_points": 5, "dt": 0.1}
    with pytest.raises(ScenarioError, match="grid.dt: unknown field"):
        load(tmp_path, data)


def test_state_dimension_mismatch(tmp_path):
    data = base_scenario()
    data["initial_state"] = {
        "matrix": {"dim": [3, 3], "data": [[1, 0]] + [[0, 0]] * 8}
    }
    with pytest.raises(ScenarioError, match="initial_state.*dimension 3"):
        load(tmp_path, data)


def test_explicit_matrices_accepted(tmp_path):
    data = base_scenario()
    # H = 0.5 sigma_z, generator sigma_x, rho = |0><0|
    data["system"] = {"matrix": {"dim": [2, 2],
                                 "data": [[0.5, 0], [0, 0], [0, 0], [-0.5, 0]]}}
    data["generators"] = [{"matrix": {"dim": [2, 2],
                                      "data": [[0, 0], [1, 0], [1, 0], [0, 0]]}}]
    data["initial_state"] = {"matrix": {"dim": [2, 2],
                                        "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}}
    sc = load(tmp_path, data)
    assert np.abs(sc.generators[0] - np.array([[0, 1], [1, 0]])).max() < 1e-15
    assert sc.rho0[0, 0] == 1.0


# ------------------------------------------------- run/bath compatibility


def test_lindblad_requires_markovian(tmp_path):
    data = base_scenario()
    data["bath"] = {"model": "discrete", "modes": [{"g": [0.1, 0.0], "omega": 1.0}],
                    "T": 0.0}
    with pytest.raises(ScenarioError, match="'lindblad' requires"):
        load(tmp_path, data)


def test_oracle_requires_discrete_and_n_max(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "oracle"]
    with pytest.raises(ScenarioError, match="'oracle' requires the discrete"):
        load(tmp_path, data)
    data["bath"] = {"model": "discrete", "modes": [{"g": [0.1, 0.0], "omega": 1.0}],
                    "T": 0.0}
    with pytest.raises(ScenarioError, match="oracle: required"):
        load(tmp_path, data)
    data["oracle"] = {"n_max": 3}
    assert load(tmp_path, data).oracle_n_max == 3


def test_dephasing_needs_sigma_z_setup(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "dephasing"]
    data["generators"] = [{"preset": "sigma_x"}]
    with pytest.raises(ScenarioError, match="sigma_z"):
        load(tmp_path, data)

    data = base_scenario()
    data["runs"] = ["tcl2", "dephasing"]
    data["bath"] = {"model": "markovian",
                    "gamma": {"dim": [2, 2],
                              "data": [[0.4, 0], [0.1, 0], [0.1, 0], [0.4, 0]]}}
    data["generators"] = [{"preset": "sigma_z"}, {"preset": "sigma_x"}]
    with pytest.raises(ScenarioError, match="dephasing"):
        load(tmp_path, data)


def test_generator_gate_requires_markovian(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "kraus"]
    data["bath"] = {"model": "discrete", "modes": [{"g": [0.1, 0.0], "omega": 1.0}],
                    "T": 0.0}
    data["tolerances"] = {"tcl2_vs_lindblad_generator": 1e-8}
    with pytest.raises(ScenarioError, match="tcl2_vs_lindblad_generator"):
        load(tmp_path, data)


def test_oracle_bath_mode_layout(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "oracle"]
    data["generators"] = [{"preset": "sigma_z"}, {"preset": "sigma_x"}]
    data["bath"] = {"model": "discrete", "modes": [{"g": [0.1, 0.0], "omega": 1.5}],
                    "T": 0.0}
    data["oracle"] = {"n_max": 2}
    sc = load(tmp_path, data)
    bath = _oracle_bath(sc)
    # one independent copy of the mode per generator
    assert bath.modes == [(1.5, [(0.1 + 0j), 0j]), (1.5, [0j, (0.1 + 0j)])]


# ----------------------------------------------------------- execution


def test_run_markovian_scenario_passes(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "lindblad", "kraus"]
    data["tolerances"] = {"tcl2_vs_lindblad": 1e-8,
                          "tcl2_vs_lindblad_generator": 1e-10,
                          "completeness_dev": 1e-12,
                          "trace_dev": 1e-9}
    out = tmp_path / "out"
    code, report = run_scenario(load(tmp_path, data), out_dir=str(out), quiet=True)
    assert code == 0
    assert all(g["pass"] for g in report["gates"].values())
    for name in ("tcl2.csv", "lindblad.csv", "kraus.csv", "kraus.json",
                 "report.json", "report.txt"):
        assert (out / name).exists()
    saved = json.loads((out / "report.json").read_text())
    assert saved["metrics"] == report["metrics"]
    assert set(report["invariants"]) == {"tcl2", "lindblad", "kraus"}


def test_kraus_report_takes_cp_budget_from_the_channels(tmp_path):
    # transverse coupling to two modes: the Born truncation leaves small
    # negative channel eigenvalues here, which are clipped within the budget
    data = base_scenario()
    data["system"] = {"preset": "qubit_sigmaz", "epsilon0": 0.5}
    data["generators"] = [{"preset": "sigma_x"}]
    data["bath"] = {"model": "discrete", "T": 0.0,
                    "modes": [{"g": [0.05, 0.0], "omega": 1.0},
                              {"g": [0.05, 0.0], "omega": 1.7}]}
    data["grid"] = {"t_max": 10.0, "n_points": 6}
    data["runs"] = ["kraus"]
    sc = load(tmp_path, data)
    code, report = run_scenario(sc, out_dir=str(tmp_path / "o"), quiet=True)
    assert code == 0
    info = report["kraus"]
    budget = max(channel_at(t, sc.system, sc.generators, sc.bath).cp_budget
                 for t in sc.times)
    assert info["cp_clip_budget"] == budget
    assert info["cp_clip_budget"] == 1e-8 + 10.0 * info["max_damping_norm"] ** 2
    assert info["clipped_eigenvalues"]
    assert all(c >= -budget for c in info["clipped_eigenvalues"])


def test_gate_failure_sets_exit_code(tmp_path):
    data = base_scenario()
    data["grid"] = {"t_max": 2.0, "n_points": 5}
    data["runs"] = ["tcl2", "dephasing"]
    # the white-noise pair and the TCL2 envelope genuinely differ here (~0.085)
    data["tolerances"] = {"tcl2_vs_dephasing": 1e-6}
    code, report = run_scenario(load(tmp_path, data), out_dir=str(tmp_path / "o"),
                                quiet=True)
    assert code == 1
    gate = report["gates"]["tcl2_vs_dephasing"]
    assert not gate["pass"]
    assert gate["value"] > 0.05


def test_only_subset_and_uncomputed_gate(tmp_path):
    data = base_scenario()
    data["tolerances"] = {"tcl2_vs_lindblad": 1e-8}
    sc = load(tmp_path, data)
    code, report = run_scenario(sc, out_dir=str(tmp_path / "o"), only=["tcl2"],
                                quiet=True)
    assert code == 1
    gate = report["gates"]["tcl2_vs_lindblad"]
    assert gate["value"] is None and gate["note"] == "metric not computed"
    assert report["runs"] == ["tcl2"]

    with pytest.raises(ScenarioError, match="--only"):
        run_scenario(sc, out_dir=str(tmp_path / "o2"), only=["oracle"], quiet=True)


def test_dephasing_validity_guard(tmp_path):
    # strong coupling loses pair validity inside the grid -> refused up front
    data = base_scenario()
    data["bath"] = {"model": "discrete", "modes": [{"g": [2.0, 0.0], "omega": 1.0}],
                    "T": 0.0}
    data["grid"] = {"t_max": 3.0, "n_points": 7}
    data["runs"] = ["dephasing"]
    with pytest.raises(ScenarioError, match="validity"):
        run_scenario(load(tmp_path, data), out_dir=str(tmp_path / "o"), quiet=True)


def test_dephasing_run_evaluates_f_once_per_grid_time(tmp_path, monkeypatch):
    # the validity scan takes SCAN_POINTS - 1 values of f; the table and the
    # trajectory then share one evaluation per grid time
    calls = []
    memory_integral = dephasing.double_time_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return memory_integral(*args, **kwargs)

    monkeypatch.setattr(dephasing, "double_time_integral", counted)
    sc = load_scenario(os.path.join(SCENARIO_DIR, "dephasing_singlemode.json"))
    run_scenario(sc, out_dir=str(tmp_path), only=["dephasing"], quiet=True)
    assert len(calls) == dephasing.SCAN_POINTS - 1 + sc.times.size


def test_reports_are_deterministic(tmp_path):
    data = base_scenario()
    data["runs"] = ["tcl2", "lindblad", "kraus"]
    data["tolerances"] = {"trace_dev": 1e-9}
    sc = load(tmp_path, data)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code, _ = run_scenario(sc, out_dir=str(out), quiet=True)
        assert code == 0
        outs.append(out)
    rep = []
    for out in outs:
        d = json.loads((out / "report.json").read_text())
        d.pop("timings_sec")
        rep.append(d)
    assert rep[0] == rep[1]
    for name in ("tcl2.csv", "lindblad.csv", "kraus.csv", "kraus.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_output_dir_fallback(tmp_path, monkeypatch):
    data = base_scenario()
    data["output_dir"] = "from_scenario"
    monkeypatch.chdir(tmp_path)
    sc = load(tmp_path, data)
    code, _ = run_scenario(sc, quiet=True)
    assert code == 0
    assert os.path.exists(os.path.join(str(tmp_path), "from_scenario", "report.json"))
