"""Master-equation generators and trajectory integration.

Two generators for the reduced dynamics d rho/dt = -i [H_s, rho] + D(t) rho:

* :class:`Tcl2Generator` -- second-order time-convolutionless dissipator.
  For every bath model the action on rho is

      D(t) rho = sum_a ( [L_a(t) rho, v_a] + [v_a, rho L_a(t)^dag] ),
      L_a(t)   = int_0^t chi_a(u) v_a(-u) du,

  where v_a(s) is the interaction-picture generator and chi_a(u) is the
  correlation at positive lag (later bath operator on the left).  This is an
  exact restructuring of the defining double-commutator form and is
  manifestly trace-free and Hermiticity-preserving.  In the H_s eigenbasis
  v_a(-u) = v_eig o exp(-i Delta u), so L_a(t) = v_eig o Gamma_a(t) with
  one scalar kernel Gamma_a(Delta, t) = int_0^t chi_a(u) exp(-i Delta u) du
  per Bohr frequency Delta.  A discrete bath gives Gamma in closed form;
  other finite-memory baths take one matrix quadrature per generator per
  right-hand-side call.  The Born-order channel of :mod:`tclkraus.channel`
  takes its inner moment from this same memory operator.

  White-noise convention: chi_ab(u) = conj(gamma_ab) delta(u) / 2 sits at the
  endpoint u = 0 of every one-sided memory integral and counts with full
  weight there, so the memory integral is L_a = (1/2) sum_b conj(gamma_ab)
  v_b for t > 0 (0 at t = 0).  The same formula then gives the Lindblad
  dissipator exactly, and the Born-order channel and the iterated integral
  f(t) = gamma t / 2 follow from it.

* :class:`LindbladGenerator` -- Markovian dissipator
  (1/2) sum_ab gamma_ab ( [v_a rho, v_b] + [v_a, rho v_b] ).

:func:`integrate` drives either generator with adaptive RK45 at 1e-10
local tolerance and interpolates onto the requested grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .baths import DiscreteBath, MarkovianBath
from .linalg import (
    ValidationError,
    as_hamiltonian,
    check_density_matrix,
    check_generator_set,
    commutator,
)
from .quadrature import integrate_array

#: trajectory-level hard limits
TRACE_DRIFT_ABORT = 1e-8


class IntegrationError(RuntimeError):
    """Trajectory integration failed or violated an invariant."""


def _system_and_generators(h_s, generators):
    """Coerce H_s and validate the generators against its dimension."""
    h_s = as_hamiltonian(h_s)
    generators = check_generator_set(generators)
    for v in generators:
        if v.shape[0] != h_s.dim:
            raise ValidationError(
                f"generator dimension {v.shape[0]} != system dimension {h_s.dim}"
            )
    return h_s, generators


def _delta_memory(op, t):
    # op is read-only, so every call can hand out the same array
    return op if t > 0 else np.zeros_like(op)


def _kernel_memory(h_s, kernel, v_eig, t):
    return h_s.from_eigenbasis(v_eig * kernel(t))


class Tcl2Generator:
    """Second-order TCL dissipator for a set of Hermitian generators.

    Parameters
    ----------
    h_s : SystemHamiltonian or matrix
    generators : sequence of Hermitian matrices v_a
    bath : a finite-memory correlation model, of which each generator sees
        its own copy (diagonal coupling), or a
        :class:`~tclkraus.baths.MarkovianBath` (possibly with a full rate
        matrix over generator pairs).
    """

    def __init__(self, h_s, generators, bath):
        self.h_s, self.generators = _system_and_generators(h_s, generators)
        self.bath = bath
        vs = self.generators
        if isinstance(bath, MarkovianBath):
            # the white-noise convention of the module docstring
            g = bath.rate_matrix(len(vs))
            self._memory = []
            for a in range(len(vs)):
                op = 0.5 * sum(np.conj(g[a, b]) * v for b, v in enumerate(vs))
                op.flags.writeable = False
                self._memory.append(partial(_delta_memory, op))
        else:
            if isinstance(bath, DiscreteBath):
                kernel = bath.bohr_kernel(self.h_s.gaps)
                memory = partial(_kernel_memory, self.h_s, kernel)
            else:
                memory = partial(self._memory_quadrature, bath.correlation)
            # generators in the H_s eigenbasis, where v(-u) = v_eig o exp(-i Delta u)
            self._memory = [partial(memory, self.h_s.to_eigenbasis(v)) for v in vs]

    @property
    def dim(self):
        return self.h_s.dim

    def memory_operator(self, t, alpha):
        """L_a(t) = int_0^t chi_a(u) v_a(-u) du in the computational basis.

        The kernel carries the correlation at positive lag: u steps back into
        the memory, and the later bath operator always sits on the left.
        For the pure-dephasing case only Re chi survives in the dissipator, so
        that case cannot distinguish chi(u) from chi(-u); the exact-reference
        comparison with a non-commuting generator does, and fixes this form.

        In the H_s eigenbasis this is v_eig o Gamma(t), Gamma the bath's
        Bohr-frequency kernel: closed form for a discrete bath, one matrix
        quadrature otherwise.  White noise follows the module's convention.
        """
        return self._memory[alpha](t)

    def _memory_quadrature(self, chi, v_eig, t):
        def integrand(u):
            return chi(u) * (v_eig * self.h_s.phase_matrix(-u))

        # default quadrature tolerances: 1e-10 relative, 1e-13 absolute
        return self.h_s.from_eigenbasis(integrate_array(integrand, 0.0, t))

    def dissipator(self, t, rho):
        """D(t) rho.  t = 0 gives the zero matrix (empty memory integral)."""
        if t < 0:
            raise ValidationError(f"t must be >= 0, got {t}")
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for alpha, v in enumerate(self.generators):
            lam = self.memory_operator(t, alpha)
            out += commutator(lam @ rho, v) + commutator(v, rho @ lam.conj().T)
        return out

    def rhs(self, t, rho):
        """Full right-hand side -i[H_s, rho] + D(t) rho."""
        return -1j * commutator(self.h_s.matrix, rho) + self.dissipator(t, rho)


class LindbladGenerator:
    """Markovian dissipator with a scalar rate or Hermitian PSD rate matrix gamma."""

    def __init__(self, h_s, generators, gamma):
        self.h_s, self.generators = _system_and_generators(h_s, generators)
        self.gamma = MarkovianBath(gamma).rate_matrix(len(self.generators))

    @property
    def dim(self):
        return self.h_s.dim

    def dissipator(self, rho):
        """(1/2) sum_ab gamma_ab ( [v_a rho, v_b] + [v_a, rho v_b] )."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        vs = self.generators
        for a in range(len(vs)):
            for b in range(len(vs)):
                if self.gamma[a, b] == 0:
                    continue
                out += 0.5 * self.gamma[a, b] * (
                    commutator(vs[a] @ rho, vs[b])
                    + commutator(vs[a], rho @ vs[b])
                )
        return out

    def rhs(self, t, rho):
        return -1j * commutator(self.h_s.matrix, rho) + self.dissipator(rho)


def reduce_to_lindblad(gen):
    """Collapse a white-noise Tcl2Generator to its Lindblad form.

    The two act identically on states (an operator identity for any
    Hermitian PSD rate matrix; tested to 1e-12), so this is bookkeeping, not
    an approximation.
    """
    if not isinstance(gen, Tcl2Generator) or not isinstance(gen.bath, MarkovianBath):
        raise ValidationError("reduce_to_lindblad needs a white-noise Tcl2Generator")
    return LindbladGenerator(gen.h_s, gen.generators, gen.bath.gamma)


@dataclass
class Trajectory:
    """Time grid, state snapshots, and per-snapshot diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (n, d, d) complex
    trace_dev: np.ndarray = field(init=False)
    min_eig: np.ndarray = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValidationError(
                f"{self.states.shape[0]} snapshots for {self.times.shape[0]} grid points"
            )
        self.trace_dev = np.array(
            [abs(complex(np.trace(s)) - 1.0) for s in self.states]
        )
        self.min_eig = np.array(
            [float(np.linalg.eigvalsh(0.5 * (s + s.conj().T)).min())
             for s in self.states]
        )

    @property
    def dim(self):
        return self.states.shape[1]

    def to_csv(self, path):
        """Columns: t, Re/Im of each state element (row-major), trace_dev, min_eig."""
        d = self.dim
        cols = ["t"]
        for a in range(d):
            for b in range(d):
                cols += [f"re_{a}{b}", f"im_{a}{b}"]
        cols += ["trace_dev", "min_eig"]
        lines = [",".join(cols)]
        for i, t in enumerate(self.times):
            row = [f"{t:.17e}"]
            for z in self.states[i].reshape(-1):
                row += [f"{z.real:.17e}", f"{z.imag:.17e}"]
            row += [f"{self.trace_dev[i]:.17e}", f"{self.min_eig[i]:.17e}"]
            lines.append(",".join(row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _check_grid(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("time grid must be a 1-D array")
    if times[0] != 0.0:
        raise ValidationError(f"time grid must start at 0, got {times[0]}")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValidationError("time grid must be strictly increasing")
    return times


def integrate(gen, rho0, times):
    """Integrate d rho/dt = gen.rhs(t, rho) and sample on `times`.

    Parameters
    ----------
    gen : Tcl2Generator or LindbladGenerator
    rho0 : density matrix at t = 0
    times : strictly increasing grid starting at 0

    Aborts with :class:`IntegrationError` if the trace drifts by more than
    1e-8 at any snapshot.
    """
    times = _check_grid(times)
    rho0 = check_density_matrix(rho0, "rho0")
    d = gen.dim
    if rho0.shape[0] != d:
        raise ValidationError(f"state dimension {rho0.shape[0]} != generator {d}")

    states = np.empty((times.size, d, d), dtype=complex)
    states[0] = rho0
    if times.size > 1:

        def rhs_flat(t, yv):
            return gen.rhs(t, yv.reshape(d, d)).reshape(-1)

        sol = solve_ivp(rhs_flat, (0.0, times[-1]), rho0.reshape(-1).astype(complex),
                        method="RK45", rtol=1e-10, atol=1e-12, t_eval=times[1:])
        if not sol.success:
            raise IntegrationError(
                f"integrator failed on [0, {times[-1]}]: {sol.message}"
            )
        states[1:] = sol.y.T.reshape(-1, d, d)

    traj = Trajectory(times, states)
    worst = int(np.argmax(traj.trace_dev))
    if traj.trace_dev[worst] > TRACE_DRIFT_ABORT:
        raise IntegrationError(
            f"trace drifted by {traj.trace_dev[worst]:.3e} at t = {times[worst]:g} "
            f"(limit {TRACE_DRIFT_ABORT:g})"
        )
    return traj
