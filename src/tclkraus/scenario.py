"""Scenario files: strict JSON schema, pipeline execution, comparison report.

A scenario declares the physics (system, generators, bath, grid, initial
state), which pipelines to run, and optional tolerance gates.  Parsing is
strict: unknown fields anywhere are rejected with their JSON path, so a
typo'd tolerance cannot silently pass.

Pipelines and their artifacts (all inside the output directory):

* ``tcl2``      -> tcl2.csv          TCL2 trajectory
* ``lindblad``  -> lindblad.csv      Lindblad trajectory (white-noise bath)
* ``kraus``     -> kraus.json        canonical operator sets per grid time
                   kraus.csv         channel action on the initial state
* ``dephasing`` -> dephasing.csv     closed-form channel trajectory
                   dephasing_table.csv   memory integral / weight table
* ``oracle``    -> oracle.csv        exact reduced trajectory

plus ``report.json`` / ``report.txt``.  Trajectories are emitted in the
Schrodinger picture so any pair can be compared by trace distance.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from .baths import DiscreteBath, MarkovianBath, OhmicBath
from .channel import (
    apply_channel,
    assemble_channel,
    canonical_kraus,
    damping_term,
    jump_term,
    to_schrodinger,
)
from .dephasing import DephasingModel, write_table_csv
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SystemHamiltonian,
    ValidationError,
    check_density_matrix,
    matrix_from_json,
    trace_distance,
)
from .oracle import TotalSystem, TruncatedBath, evolve_exact
from .tcl import Tcl2Generator, Trajectory, integrate, reduce_to_lindblad

GENERATOR_PRESETS = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}

STATE_PRESETS = {
    "plus": 0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
    "minus": 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex),
    "zero": np.array([[1, 0], [0, 0]], dtype=complex),
    "one": np.array([[0, 0], [0, 1]], dtype=complex),
    "mixed": 0.5 * np.eye(2, dtype=complex),
}

#: non-pair gate names a scenario may declare
SCALAR_GATES = {"completeness_dev", "trace_dev", "herm_dev",
                "tcl2_vs_lindblad_generator"}

_GENERATOR_SEED = 7  # random states for the generator-distance metric


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message carries the path."""


def _reject_unknown(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}: unknown field")


def _need(obj, key, path):
    if key not in obj:
        raise ScenarioError(f"{path}: missing required field '{key}'")
    return obj[key]


def _number(x, path, *, minimum=None, strict_min=False):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    x = float(x)
    if minimum is not None:
        if strict_min and x <= minimum:
            raise ScenarioError(f"{path}: must be > {minimum}")
        if not strict_min and x < minimum:
            raise ScenarioError(f"{path}: must be >= {minimum}")
    return x


def _matrix(obj, path):
    try:
        return matrix_from_json(obj)
    except (ValidationError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_system(obj, path):
    _reject_unknown(obj, {"preset", "epsilon0", "matrix"}, path)
    if "preset" in obj:
        if obj["preset"] != "qubit_sigmaz":
            raise ScenarioError(f"{path}.preset: unknown preset {obj['preset']!r}")
        eps0 = _number(_need(obj, "epsilon0", path), f"{path}.epsilon0")
        return SystemHamiltonian(0.5 * eps0 * SIGMA_Z)
    if "matrix" in obj:
        try:
            return SystemHamiltonian(_matrix(obj["matrix"], f"{path}.matrix"))
        except ValidationError as exc:
            raise ScenarioError(f"{path}.matrix: {exc}") from exc
    raise ScenarioError(f"{path}: need 'preset' or 'matrix'")


def _parse_generator(obj, path):
    _reject_unknown(obj, {"preset", "matrix"}, path)
    if "preset" in obj:
        if obj["preset"] not in GENERATOR_PRESETS:
            raise ScenarioError(f"{path}.preset: unknown preset {obj['preset']!r}")
        return GENERATOR_PRESETS[obj["preset"]].copy()
    if "matrix" in obj:
        return _matrix(obj["matrix"], f"{path}.matrix")
    raise ScenarioError(f"{path}: need 'preset' or 'matrix'")


def _parse_bath(obj, path):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    model = _need(obj, "model", path)
    try:
        if model == "discrete":
            _reject_unknown(obj, {"model", "modes", "T"}, path)
            modes_json = _need(obj, "modes", path)
            if not isinstance(modes_json, list) or not modes_json:
                raise ScenarioError(f"{path}.modes: expected a non-empty list")
            modes = []
            for i, mode in enumerate(modes_json):
                mpath = f"{path}.modes[{i}]"
                _reject_unknown(mode, {"g", "omega"}, mpath)
                g = _need(mode, "g", mpath)
                if (not isinstance(g, list)) or len(g) != 2:
                    raise ScenarioError(f"{mpath}.g: expected [re, im]")
                modes.append(
                    (complex(_number(g[0], f"{mpath}.g[0]"),
                             _number(g[1], f"{mpath}.g[1]")),
                     _number(_need(mode, "omega", mpath), f"{mpath}.omega",
                             minimum=0.0, strict_min=True))
                )
            temp = _number(_need(obj, "T", path), f"{path}.T", minimum=0.0)
            return DiscreteBath(modes, temp)
        if model == "ohmic":
            _reject_unknown(obj, {"model", "eta", "omega_c", "T"}, path)
            return OhmicBath(
                _number(_need(obj, "eta", path), f"{path}.eta", minimum=0.0),
                _number(_need(obj, "omega_c", path), f"{path}.omega_c",
                        minimum=0.0, strict_min=True),
                _number(_need(obj, "T", path), f"{path}.T", minimum=0.0),
            )
        if model == "markovian":
            _reject_unknown(obj, {"model", "gamma"}, path)
            gamma = _need(obj, "gamma", path)
            if isinstance(gamma, dict):
                return MarkovianBath(_matrix(gamma, f"{path}.gamma"))
            return MarkovianBath(_number(gamma, f"{path}.gamma", minimum=0.0))
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    raise ScenarioError(f"{path}.model: unknown bath model {model!r}")


def _parse_state(obj, path):
    _reject_unknown(obj, {"preset", "matrix"}, path)
    if "preset" in obj:
        if obj["preset"] not in STATE_PRESETS:
            raise ScenarioError(f"{path}.preset: unknown preset {obj['preset']!r}")
        return STATE_PRESETS[obj["preset"]].copy()
    if "matrix" in obj:
        mat = _matrix(obj["matrix"], f"{path}.matrix")
        try:
            return check_density_matrix(mat, path)
        except ValidationError as exc:
            raise ScenarioError(f"{path}.matrix: {exc}") from exc
    raise ScenarioError(f"{path}: need 'preset' or 'matrix'")


class Scenario:
    """Validated scenario: physics objects plus run list and gates."""

    def __init__(self, *, system, generators, bath, times, rho0, runs,
                 tolerances, output_dir, oracle_n_max, name):
        self.system = system
        self.generators = generators
        self.bath = bath
        self.times = times
        self.rho0 = rho0
        self.runs = runs
        self.tolerances = tolerances
        self.output_dir = output_dir
        self.oracle_n_max = oracle_n_max
        self.name = name

    def gate_names(self):
        """Every metric name this scenario is allowed to gate on."""
        names = set(SCALAR_GATES)
        for i, a in enumerate(self.runs):
            for b in self.runs[i + 1:]:
                names.add(f"{a}_vs_{b}")
        return names


def load_scenario(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc

    top = "scenario"
    _reject_unknown(raw, {"system", "generators", "bath", "grid",
                          "initial_state", "runs", "tolerances",
                          "output_dir", "oracle"}, top)

    system = _parse_system(_need(raw, "system", top), f"{top}.system")

    gens_json = _need(raw, "generators", top)
    if not isinstance(gens_json, list) or not gens_json:
        raise ScenarioError(f"{top}.generators: expected a non-empty list")
    generators = [_parse_generator(g, f"{top}.generators[{i}]")
                  for i, g in enumerate(gens_json)]
    for i, g in enumerate(generators):
        if g.shape[0] != system.dim:
            raise ScenarioError(
                f"{top}.generators[{i}]: dimension {g.shape[0]} != system {system.dim}"
            )

    bath = _parse_bath(_need(raw, "bath", top), f"{top}.bath")

    grid = _need(raw, "grid", top)
    _reject_unknown(grid, {"t_max", "n_points"}, f"{top}.grid")
    t_max = _number(_need(grid, "t_max", f"{top}.grid"), f"{top}.grid.t_max",
                    minimum=0.0, strict_min=True)
    n_points = _need(grid, "n_points", f"{top}.grid")
    if isinstance(n_points, bool) or not isinstance(n_points, int) or n_points < 2:
        raise ScenarioError(f"{top}.grid.n_points: expected an integer >= 2")
    times = np.linspace(0.0, t_max, n_points)

    rho0 = _parse_state(_need(raw, "initial_state", top), f"{top}.initial_state")
    if rho0.shape[0] != system.dim:
        raise ScenarioError(
            f"{top}.initial_state: dimension {rho0.shape[0]} != system {system.dim}"
        )

    runs_json = _need(raw, "runs", top)
    if not isinstance(runs_json, list) or not runs_json:
        raise ScenarioError(f"{top}.runs: expected a non-empty list")
    seen = set()
    for i, r in enumerate(runs_json):
        if r not in RUN_ORDER:
            raise ScenarioError(f"{top}.runs[{i}]: unknown run {r!r}")
        if r in seen:
            raise ScenarioError(f"{top}.runs[{i}]: duplicate run {r!r}")
        seen.add(r)
    runs = [r for r in RUN_ORDER if r in seen]

    oracle_n_max = None
    if "oracle" in raw:
        _reject_unknown(raw["oracle"], {"n_max"}, f"{top}.oracle")
        n_max = _need(raw["oracle"], "n_max", f"{top}.oracle")
        if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
            raise ScenarioError(f"{top}.oracle.n_max: expected an integer >= 1")
        oracle_n_max = n_max

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError(f"{top}.output_dir: expected a string")

    scenario = Scenario(system=system, generators=generators, bath=bath,
                        times=times, rho0=rho0, runs=runs, tolerances={},
                        output_dir=output_dir, oracle_n_max=oracle_n_max,
                        name=os.path.splitext(os.path.basename(path))[0])

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError(f"{top}.tolerances: expected an object")
    allowed_gates = scenario.gate_names()
    for key, val in tolerances.items():
        if key not in allowed_gates:
            raise ScenarioError(
                f"{top}.tolerances.{key}: unknown gate (allowed: "
                f"{', '.join(sorted(allowed_gates))})"
            )
        if key == "tcl2_vs_lindblad_generator" and not isinstance(bath, MarkovianBath):
            raise ScenarioError(f"{top}.tolerances.{key}: requires the markovian bath")
        scenario.tolerances[key] = _number(val, f"{top}.tolerances.{key}",
                                           minimum=0.0, strict_min=True)

    for run in runs:
        RUNS[run][0](scenario)
    return scenario


# -- run prerequisites: each raises ScenarioError when a run cannot go ------


def _no_prerequisite(sc):
    pass


def _check_lindblad(sc):
    if not isinstance(sc.bath, MarkovianBath):
        raise ScenarioError("scenario.runs: 'lindblad' requires the markovian bath model")


def _check_dephasing(sc):
    h = sc.system.matrix
    diag_z = (
        sc.system.dim == 2
        and np.abs(h - np.diag(np.diag(h))).max() < 1e-12
        and abs(h[0, 0] + h[1, 1]) < 1e-12
    )
    if not diag_z:
        raise ScenarioError("scenario.system: 'dephasing' needs H_s = (eps0/2) sigma_z")
    # system and generator dimensions already match, so v[0] is 2 x 2 here
    v = sc.generators
    if len(v) != 1 or not np.abs(v[0] - SIGMA_Z).max() < 1e-12:
        raise ScenarioError(
            "scenario.generators: 'dephasing' needs the single generator sigma_z"
        )
    if isinstance(sc.bath, MarkovianBath) and not sc.bath.is_scalar:
        raise ScenarioError("scenario.bath: 'dephasing' needs a scalar rate")


def _check_oracle(sc):
    if not isinstance(sc.bath, DiscreteBath):
        raise ScenarioError("scenario.runs: 'oracle' requires the discrete bath model")
    if sc.oracle_n_max is None:
        raise ScenarioError("scenario.oracle: required when 'oracle' is in runs")


# -- runners: (scenario, output dir, report) -> Schrodinger-picture trajectory


def _run_tcl2(sc, out_dir, report):
    return integrate(Tcl2Generator(sc.system, sc.generators, sc.bath), sc.rho0, sc.times)


def _run_lindblad(sc, out_dir, report):
    gen = reduce_to_lindblad(Tcl2Generator(sc.system, sc.generators, sc.bath))
    return integrate(gen, sc.rho0, sc.times)


def _run_kraus(sc, out_dir, report):
    """Canonical Kraus sets per grid time plus the induced trajectory."""
    sets = []
    states = np.empty((sc.times.size, sc.system.dim, sc.system.dim), dtype=complex)
    max_b = 0.0
    budget = 0.0
    max_dev = 0.0
    clipped = []
    for i, t in enumerate(sc.times):
        b = damping_term(t, sc.system, sc.generators, sc.bath)
        a = jump_term(t, sc.system, sc.generators, sc.bath)
        ch = assemble_channel(t, b, a, sc.system)
        kset = to_schrodinger(canonical_kraus(ch), sc.system)
        max_b = max(max_b, float(np.abs(b).max()))
        budget = max(budget, ch.cp_budget)
        max_dev = max(max_dev, kset.completeness_dev)
        clipped.extend(kset.clipped)
        states[i] = apply_channel(kset, sc.rho0)
        sets.append(kset.to_json_dict())
    with open(os.path.join(out_dir, "kraus.json"), "w", newline="\n") as fh:
        json.dump(sets, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report["kraus"] = {
        "max_completeness_dev": float(max_dev),
        "max_damping_norm": float(max_b),
        "cp_clip_budget": float(budget),
        "clipped_eigenvalues": sorted(float(c) for c in clipped),
    }
    return Trajectory(sc.times, states)


def _run_dephasing(sc, out_dir, report):
    model = DephasingModel(2.0 * float(sc.system.matrix[0, 0].real), sc.bath)
    crossing = model.first_invalid_time(sc.times[-1])
    if crossing is not None:
        raise ScenarioError(
            f"dephasing validity lost at t ~ {crossing:g} < t_max "
            f"{sc.times[-1]:g}; shrink the grid"
        )
    rows = model.table(sc.times)
    write_table_csv(os.path.join(out_dir, "dephasing_table.csv"), rows)
    return model.trajectory_from_table(rows, sc.rho0, picture="schrodinger")


def _run_oracle(sc, out_dir, report):
    total = TotalSystem(sc.system, sc.generators, _oracle_bath(sc))
    return evolve_exact(total, sc.rho0, sc.times)


def _oracle_bath(sc):
    """Independent mode copies per generator (diagonal correlation structure)."""
    n_gen = len(sc.generators)
    modes = []
    for alpha in range(n_gen):
        for g, w in sc.bath.modes:
            couplings = [0.0] * n_gen
            couplings[alpha] = g
            modes.append((w, couplings))
    return TruncatedBath(modes, sc.oracle_n_max, sc.bath.temperature)


#: run name -> (prerequisite check, runner), in execution order
RUNS = {
    "tcl2": (_no_prerequisite, _run_tcl2),
    "lindblad": (_check_lindblad, _run_lindblad),
    "kraus": (_no_prerequisite, _run_kraus),
    "dephasing": (_check_dephasing, _run_dephasing),
    "oracle": (_check_oracle, _run_oracle),
}
RUN_ORDER = list(RUNS)


def run_scenario(sc, out_dir=None, only=None, quiet=False):
    """Execute the scenario; return (exit_code, report_dict).

    Artifacts land in `out_dir` (fallback: scenario output_dir, then ./out).
    Exit code 0 iff every declared tolerance gate passes, else 1.
    """
    runs = list(sc.runs)
    if only:
        bad = [r for r in only if r not in sc.runs]
        if bad:
            raise ScenarioError(
                f"--only: {', '.join(bad)} not in scenario runs ({', '.join(sc.runs)})"
            )
        runs = [r for r in RUN_ORDER if r in only]

    out_dir = out_dir or sc.output_dir or "out"
    os.makedirs(out_dir, exist_ok=True)

    def say(msg):
        if not quiet:
            print(msg)

    trajectories = {}
    timings = {}
    report = {"report_version": 1, "scenario": sc.name, "runs": runs,
              "metrics": {}, "gates": {}, "invariants": {}}

    for run in runs:
        t0 = time.perf_counter()
        say(f"[{sc.name}] running {run} ...")
        traj = RUNS[run][1](sc, out_dir, report)
        timings[run] = round(time.perf_counter() - t0, 6)

        traj.to_csv(os.path.join(out_dir, f"{run}.csv"))
        trajectories[run] = traj
        report["invariants"][run] = {
            "max_trace_dev": float(traj.trace_dev.max()),
            "min_eigenvalue": float(traj.min_eig.min()),
        }

    # pairwise maximum trace distance over the grid
    for i, a in enumerate(runs):
        for b in runs[i + 1:]:
            ta, tb = trajectories[a], trajectories[b]
            td = max(trace_distance(x, y) for x, y in zip(ta.states, tb.states))
            report["metrics"][f"{a}_vs_{b}"] = float(td)

    if "kraus" in report:
        report["metrics"]["completeness_dev"] = report["kraus"]["max_completeness_dev"]

    all_traces = [report["invariants"][r]["max_trace_dev"] for r in runs]
    report["metrics"]["trace_dev"] = float(max(all_traces))
    report["metrics"]["herm_dev"] = float(
        max(
            np.abs(traj.states - np.conj(np.swapaxes(traj.states, 1, 2))).max()
            for traj in trajectories.values()
        )
    )

    if {"tcl2", "lindblad"} <= set(runs):
        report["metrics"]["tcl2_vs_lindblad_generator"] = _generator_distance(sc)

    exit_code = 0
    for key, tol in sorted(sc.tolerances.items()):
        if key not in report["metrics"]:
            # pair gate whose runs were excluded via --only
            report["gates"][key] = {"tolerance": tol, "value": None, "pass": False,
                                    "note": "metric not computed"}
            exit_code = 1
            continue
        value = report["metrics"][key]
        ok = value <= tol
        report["gates"][key] = {"tolerance": tol, "value": value, "pass": bool(ok)}
        if not ok:
            exit_code = 1

    report["timings_sec"] = timings  # excluded from determinism guarantees
    _write_report(report, out_dir)

    for key, gate in sorted(report["gates"].items()):
        status = "PASS" if gate["pass"] else "FAIL"
        say(f"[{sc.name}] gate {key}: {status} "
            f"(value={gate['value']}, tolerance={gate['tolerance']})")
    say(f"[{sc.name}] artifacts in {out_dir}/ ; exit {exit_code}")
    return exit_code, report


def _generator_distance(sc):
    """max |TCL2-delta action - Lindblad action| over random states and times."""
    gen = Tcl2Generator(sc.system, sc.generators, sc.bath)
    lind = reduce_to_lindblad(gen)
    rng = np.random.default_rng(_GENERATOR_SEED)
    d = sc.system.dim
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        for t in sc.times[1:]:
            diff = gen.dissipator(float(t), rho) - lind.dissipator(rho)
            worst = max(worst, float(np.abs(diff).max()))
    return worst


def _write_report(report, out_dir):
    with open(os.path.join(out_dir, "report.json"), "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [f"scenario: {report['scenario']} (report_version {report['report_version']})",
             f"runs: {', '.join(report['runs'])}", "", "metrics:"]
    for key in sorted(report["metrics"]):
        lines.append(f"  {key} = {report['metrics'][key]:.6e}")
    if report["gates"]:
        lines.append("")
        lines.append("gates:")
        for key in sorted(report["gates"]):
            g = report["gates"][key]
            status = "PASS" if g["pass"] else "FAIL"
            lines.append(f"  {key}: {status} (value={g['value']}, tol={g['tolerance']})")
    lines.append("")
    lines.append("timings_sec:")
    for key, val in report["timings_sec"].items():
        lines.append(f"  {key} = {val}")
    with open(os.path.join(out_dir, "report.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
