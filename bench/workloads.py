"""The benchmark's workloads: seeded inputs, one solve, and its output checks.

Each workload starts from a template in ``inputs/`` and draws, from the seed,
the initial state and a small jitter of the bath frequencies (rates for the
white-noise bath).  The package only ever sees the generated file.  Three
workloads go through ``load_scenario`` -> ``run_scenario``, the calls the
``tclkraus`` CLI makes; the thermal ohmic dephasing workload calls the library
directly, because the scenario route's 512-point validity scan does not finish
in minutes on that bath.

A solve is timed by the caller; :meth:`Workload.collect` reads the outputs
back afterwards, and :meth:`Workload.check` compares them with independent
references from ``references.py``.  Every problem it returns makes the solve
a failed operation.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os

import numpy as np

import references
import tclkraus.scenario as scenario_mod
from tclkraus import DephasingModel, OhmicBath
from tclkraus.linalg import check_density_matrix, matrix_from_json

INPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

#: relative half-width of the seeded jitter of bath frequencies and rates
JITTER = 0.01

#: trajectory agreement with a closed-form or expm reference; the package's
#: RK45 at rtol 1e-10 lands near 1e-10, a loosened integrator does not
TRAJECTORY_TOL = 1e-8

#: relative agreement of the memory integral with the spectral-integral form
MEMORY_INTEGRAL_RTOL = 1e-9

#: completeness of the closed-form dephasing pair (an algebraic identity)
PAIR_COMPLETENESS_TOL = 1e-12


def _matrix_json(m):
    m = np.asarray(m, dtype=complex)
    return {"dim": list(m.shape),
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def _random_state(rng, d):
    """Full-rank density matrix from a complex Ginibre draw."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _jitter(rng):
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0)


def _read_csv_states(path):
    """tcl2.csv-style artifact -> (times, states)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    n_elem = (len(header) - 3) // 2
    d = int(round(np.sqrt(n_elem)))
    z = body[:, 1:1 + 2 * n_elem:2] + 1j * body[:, 2:2 + 2 * n_elem:2]
    return body[:, 0], z.reshape(-1, d, d)


class Workload:
    name = ""
    why = ""
    #: calibration kernel whose speed this workload's solve time follows
    calibration = "python"

    @staticmethod
    def digest(outputs):
        """Stable hash of a solve's outputs, to compare solves bit for bit."""
        h = hashlib.sha256()
        for key in sorted(outputs):
            h.update(key.encode())
            val = outputs[key]
            if isinstance(val, np.ndarray):
                h.update(np.ascontiguousarray(val).tobytes())
            else:
                h.update(json.dumps(val, sort_keys=True).encode())
        return h.hexdigest()

    def template(self):
        with open(os.path.join(INPUT_DIR, f"{self.name}.json")) as fh:
            return json.load(fh)

    def generate(self, seed, work_dir):
        """Write this seed's input file into work_dir; return its path."""
        raw = self.perturb(self.template(), np.random.default_rng(seed))
        path = os.path.join(work_dir, f"{self.name}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)
        return path


class ScenarioWorkload(Workload):
    """A scenario file run through load_scenario -> run_scenario."""

    #: gates the template must declare, so a dropped gate shows as a failure
    gates = ()

    def perturb(self, raw, rng):
        raw = copy.deepcopy(raw)
        d = raw["system"]["matrix"]["dim"][0]
        for mode in raw["bath"].get("modes", []):
            mode["omega"] *= _jitter(rng)
        if raw["bath"]["model"] == "markovian":
            scale = _jitter(rng)
            for entry in raw["bath"]["gamma"]["data"]:
                entry[0] *= scale
                entry[1] *= scale
        raw["initial_state"] = {"matrix": _matrix_json(_random_state(rng, d))}
        return raw

    def load(self, path):
        return scenario_mod.load_scenario(path)

    def solve(self, path, out_dir):
        sc = scenario_mod.load_scenario(path)
        return scenario_mod.run_scenario(sc, out_dir=out_dir, quiet=True)

    def collect(self, result, out_dir):
        code, report = result
        outputs = {"exit_code": code,
                   "report": {k: v for k, v in report.items() if k != "timings_sec"}}
        for run in report["runs"]:
            times, states = _read_csv_states(os.path.join(out_dir, f"{run}.csv"))
            outputs[f"{run}.times"] = times
            outputs[f"{run}.states"] = states
        if "kraus" in report["runs"]:
            with open(os.path.join(out_dir, "kraus.json")) as fh:
                outputs["kraus.json"] = json.load(fh)
        return outputs

    def reference(self, path):
        return None

    def check(self, outputs, path, ref):
        problems = []
        report = outputs["report"]
        if outputs["exit_code"] != 0:
            problems.append(f"scenario exit code {outputs['exit_code']}")
        for gate in self.gates:
            entry = report["gates"].get(gate)
            if entry is None or not entry["pass"]:
                problems.append(f"gate {gate}: {entry}")
        return problems


class Tcl2Transverse(ScenarioWorkload):
    name = "tcl2_transverse"
    why = ("stresses tcl and array quadrature: every RHS call re-integrates the "
           "memory operator from 0, so cost grows faster than the horizon")
    gates = ("tcl2_vs_oracle", "trace_dev")

    def reference(self, path):
        sc = scenario_mod.load_scenario(path)
        return references.tcl2_discrete_trajectory(
            sc.system.matrix, sc.generators[0], sc.bath.modes,
            sc.bath.temperature, sc.rho0, sc.times)

    def check(self, outputs, path, ref):
        problems = super().check(outputs, path, ref)
        dev = float(np.abs(outputs["tcl2.states"] - ref).max())
        if not dev <= TRAJECTORY_TOL:
            problems.append(f"tcl2 trajectory off the closed-form-kernel "
                            f"reference by {dev:.3e} > {TRAJECTORY_TOL:g}")
        return problems


class KrausQutrit(ScenarioWorkload):
    name = "kraus_qutrit"
    why = ("stresses channel (nested B/A quadrature) and the dense 768-dim "
           "exact oracle; qutrit with two generators, no ODE")
    gates = ("kraus_vs_oracle",)
    # the 768-dim oracle's dense products take most of a solve; over 100 s
    # of alternating solves the BLAS kernel tracked its time (coefficient of
    # variation 12.8 % -> 10.6 %) while the interpreter-bound kernel did not
    calibration = "blas"

    def check(self, outputs, path, ref):
        problems = super().check(outputs, path, ref)
        sets = outputs["kraus.json"]
        if len(sets) != outputs["kraus.times"].size:
            problems.append(f"{len(sets)} Kraus sets for "
                            f"{outputs['kraus.times'].size} grid times")
        info = outputs["report"]["kraus"]
        if not info["max_completeness_dev"] <= info["cp_clip_budget"]:
            problems.append(f"completeness deviation {info['max_completeness_dev']:.3e} "
                            f"outside the CP clip budget {info['cp_clip_budget']:.3e}")
        return problems


class LindbladQutrit(ScenarioWorkload):
    name = "lindblad_qutrit"
    why = ("stresses ODE integration and RHS overhead in tcl/linalg with no "
           "quadrature: white-noise TCL2 against Lindblad on a qutrit")
    gates = ("tcl2_vs_lindblad", "tcl2_vs_lindblad_generator")

    def reference(self, path):
        sc = scenario_mod.load_scenario(path)
        gamma = sc.bath.rate_matrix(len(sc.generators))
        return references.lindblad_trajectory(sc.system.matrix, sc.generators,
                                              gamma, sc.rho0, sc.times)

    def check(self, outputs, path, ref):
        problems = super().check(outputs, path, ref)
        for run in ("tcl2", "lindblad"):
            dev = float(np.abs(outputs[f"{run}.states"] - ref).max())
            if not dev <= TRAJECTORY_TOL:
                problems.append(f"{run} trajectory off the expm reference by "
                                f"{dev:.3e} > {TRAJECTORY_TOL:g}")
        return problems


class DephasingOhmicThermal(Workload):
    """Library calls on the closed-form pair with a thermal ohmic bath."""

    name = "dephasing_ohmic_thermal"
    why = ("stresses baths and scalar quadrature only: nested ohmic correlation "
           "integrals inside f(t); bypasses tcl and channel")

    def perturb(self, raw, rng):
        raw = copy.deepcopy(raw)
        raw["bath"]["omega_c"] *= _jitter(rng)
        raw["initial_state"] = {"matrix": _matrix_json(_random_state(rng, 2))}
        return raw

    def load(self, path):
        with open(path) as fh:
            raw = json.load(fh)
        bath = raw["bath"]
        if bath.get("model") != "ohmic":
            raise ValueError(f"{path}: bath.model must be 'ohmic'")
        model = DephasingModel(raw["epsilon0"],
                               OhmicBath(bath["eta"], bath["omega_c"], bath["T"]))
        times = np.asarray(raw["times"], dtype=float)
        if times.ndim != 1 or times.size == 0 or not np.all(times > 0):
            raise ValueError(f"{path}: times must be a non-empty list of t > 0")
        rho0 = check_density_matrix(matrix_from_json(raw["initial_state"]["matrix"]))
        return model, times, rho0

    def solve(self, path, out_dir):
        model, times, rho0 = self.load(path)
        pairs = [model.kraus(float(t)) for t in times]
        traj = model.trajectory(times, rho0)
        return pairs, traj

    def collect(self, result, out_dir):
        pairs, traj = result
        return {"kraus.operators": np.array([k.operators for k in pairs]),
                "kraus.completeness_dev": np.array([k.completeness_dev for k in pairs]),
                "trajectory.times": traj.times,
                "trajectory.states": traj.states}

    def reference(self, path):
        model, times, _ = self.load(path)
        b = model.bath
        return np.array([references.decoherence_function(b.eta, b.omega_c,
                                                         b.temperature, t)
                         for t in times])

    def check(self, outputs, path, ref):
        model, times, rho0 = self.load(path)
        problems = []
        f_pkg = 1.0 - outputs["kraus.operators"][:, 0, 0, 0]
        rel = np.abs(f_pkg - ref) / np.abs(ref)
        if not rel.max() <= MEMORY_INTEGRAL_RTOL:
            problems.append(f"memory integral off the decoherence function by "
                            f"{rel.max():.3e} (relative) > {MEMORY_INTEGRAL_RTOL:g}")
        worst = float(outputs["kraus.completeness_dev"].max())
        if not worst <= PAIR_COMPLETENESS_TOL:
            problems.append(f"pair completeness {worst:.3e} > {PAIR_COMPLETENESS_TOL:g}")
        p = 2.0 * ref.real - np.abs(ref) ** 2
        expect = np.repeat(rho0[None], times.size, axis=0)
        expect[:, 0, 1] *= (1.0 - 2.0 * p) * np.exp(-1j * model.epsilon0 * times)
        expect[:, 1, 0] = expect[:, 0, 1].conj()
        dev = float(np.abs(outputs["trajectory.states"] - expect).max())
        if not dev <= TRAJECTORY_TOL:
            problems.append(f"dephasing trajectory off the closed form by "
                            f"{dev:.3e} > {TRAJECTORY_TOL:g}")
        return problems


WORKLOADS = {w.name: w for w in (Tcl2Transverse(), KrausQutrit(),
                                 DephasingOhmicThermal(), LindbladQutrit())}
