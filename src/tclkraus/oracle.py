"""Brute-force exact evolution of system (x) truncated bosonic bath.

Ground truth for everything else: build the full Hamiltonian

    H = H_s (x) I + I (x) sum_k w_k a_k^dag a_k + sum_g v_g (x) b_g,
    b_g = sum_k ( g_{gk} a_k^dag + conj(g_{gk}) a_k ),

diagonalize it once (dense), propagate the initial product state exactly
to each snapshot, and partial-trace the bath.  No integrator error enters
the physics comparisons.

Real generators and couplings make H exactly real; it is then stored as a
real array, so ``eigh`` runs the real-symmetric driver.  The snapshots never
form a total-space density matrix: rho_s0 (x) rho_B is a sum over the
populated Fock configurations c of p_c rho_s0 (x) |c><c|, so only the d*r
propagator columns on those configurations are needed (r = 1 at T = 0).

Also evaluates the bath two-point function Tr_b[ b(t) b rho_b ] directly
in the truncated Fock space, which cross-validates the closed-form
discrete-mode correlation.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .linalg import (
    ValidationError,
    as_hamiltonian,
    check_density_matrix,
    check_generator_set,
    check_hermitian,
)
from .tcl import Trajectory

#: desk-scale guard on the total Hilbert-space dimension
MAX_TOTAL_DIM = 4096

#: per-mode relative thermal weight that may be lost to truncation
MAX_DISCARDED_WEIGHT = 1e-8


class TruncationError(ValueError):
    """Fock truncation is insufficient for the requested accuracy."""


def _lowering(n_levels):
    return np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1)


def _kron_chain(ops):
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


class TruncatedBath:
    """Finitely many bosonic modes, each truncated at n_max Fock levels.

    Parameters
    ----------
    modes : sequence of (omega, couplings)
        couplings is one complex g per generator.
    n_max : highest retained Fock level per mode
    temperature : float, >= 0
    """

    def __init__(self, modes, n_max, temperature=0.0):
        if len(modes) == 0:
            raise ValidationError("truncated bath needs at least one mode")
        if n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {n_max}")
        if temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {temperature}")
        self.n_max = int(n_max)
        self.temperature = float(temperature)
        self.modes = []
        for omega, gs in modes:
            if omega <= 0:
                raise ValidationError(f"mode frequency must be > 0, got {omega}")
            gs = [complex(g) for g in gs]
            self.modes.append((float(omega), gs))
        self.n_gen = len(self.modes[0][1])
        if any(len(gs) != self.n_gen for _, gs in self.modes):
            raise ValidationError("all modes must couple to the same generator count")

        levels = self.n_max + 1
        self.dim = levels ** len(self.modes)

        # per-mode thermal weights; refuse truncations that drop real weight
        self._weights = []
        for omega, _ in self.modes:
            if self.temperature == 0.0:
                w = np.zeros(levels)
                w[0] = 1.0
                discarded = 0.0
            else:
                q = np.exp(-omega / self.temperature)
                w = q ** np.arange(levels)
                discarded = q ** levels  # geometric tail relative to full Z
                w = w / w.sum()
            if discarded >= MAX_DISCARDED_WEIGHT:
                raise TruncationError(
                    f"mode omega={omega:g}: discarded thermal weight "
                    f"{discarded:.3e} >= {MAX_DISCARDED_WEIGHT:g}; raise n_max"
                )
            self._weights.append(w)

        # diagonal bath energies sum_k w_k n_k; the occupation of mode k is
        # the k-th base-`levels` digit of the composite index, so no
        # operators are needed here (keeps oversized baths cheap to reject)
        idx = np.arange(self.dim)
        energy = np.zeros(self.dim)
        for k, (omega, _) in enumerate(self.modes):
            digit = (idx // levels ** (len(self.modes) - 1 - k)) % levels
            energy += omega * digit
        self.energies = energy
        self._lowerings_cache = None

    @property
    def _lowerings(self):
        if self._lowerings_cache is None:
            levels = self.n_max + 1
            eye = np.eye(levels)
            low = _lowering(levels)
            chains = []
            for k in range(len(self.modes)):
                chain = [low if j == k else eye for j in range(len(self.modes))]
                chains.append(_kron_chain(chain))
            self._lowerings_cache = chains
        return self._lowerings_cache

    @classmethod
    def from_discrete(cls, bath, n_max):
        """Single-generator bath from a DiscreteBath model."""
        return cls([(w, [g]) for g, w in bath.modes], n_max, bath.temperature)

    def with_n_max(self, n_max):
        modes = [(w, list(gs)) for w, gs in self.modes]
        return TruncatedBath(modes, n_max, self.temperature)

    def hamiltonian(self):
        return np.diag(self.energies.astype(complex))

    def thermal_populations(self):
        """Diagonal of the thermal state, one weight per Fock configuration."""
        return reduce(np.kron, self._weights, np.ones(1))

    def thermal_state(self):
        return np.diag(self.thermal_populations().astype(complex))

    def coupling_field(self, alpha):
        """b_alpha = sum_k ( g_k a_k^dag + conj(g_k) a_k )."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k, (_, gs) in enumerate(self.modes):
            g = gs[alpha]
            out += g * self._lowerings[k].conj().T + np.conj(g) * self._lowerings[k]
        return out


def bath_correlation_exact(bath, t, *, check=False):
    """Tr_b[ b(t) b rho_b ] of the first generator's field, in the truncated space.

    rho_b is diagonal and b Hermitian, so the trace is the O(dim^2) sum
    sum_mn p_m |b_mn|^2 exp(i (E_m - E_n) t).  With check=True the same
    value is recomputed at doubled n_max and a deviation above 1e-9 raises
    TruncationError.
    """
    b2 = np.abs(bath.coupling_field(0)) ** 2
    phases = np.exp(1j * bath.energies * t)
    val = complex((bath.thermal_populations() * phases) @ (b2 @ phases.conj()))
    if check:
        ref = bath_correlation_exact(bath.with_n_max(2 * bath.n_max), t)
        if abs(val - ref) > 1e-9:
            raise TruncationError(
                f"doubling n_max moves chi({t:g}) by {abs(val - ref):.3e} > 1e-9"
            )
    return val


class TotalSystem:
    """System plus truncated bath under the full interacting Hamiltonian."""

    def __init__(self, h_s, generators, bath):
        self.h_s = as_hamiltonian(h_s)
        self.generators = check_generator_set(generators)
        if len(self.generators) != bath.n_gen:
            raise ValidationError(
                f"{len(self.generators)} generators but bath couples {bath.n_gen}"
            )
        self.bath = bath
        d, db = self.h_s.dim, bath.dim
        self.dim = d * db
        if self.dim > MAX_TOTAL_DIM:
            raise ValidationError(
                f"total dimension {self.dim} exceeds guard {MAX_TOTAL_DIM}"
            )
        h = np.kron(self.h_s.matrix, np.eye(db)) + np.kron(
            np.eye(d), bath.hamiltonian()
        )
        for alpha, v in enumerate(self.generators):
            h += np.kron(v, bath.coupling_field(alpha))
        check_hermitian(h, "H_total")
        # real generators and couplings make H_total exactly real; eigh then
        # takes the real-symmetric driver, several times faster
        self.h_total = h if h.imag.any() else h.real.copy()
        self._eig = None

    def _diagonalize(self):
        if self._eig is None:
            self._eig = np.linalg.eigh(self.h_total)
        return self._eig

    def total_state(self, rho_total0, t):
        """Exact rho_total(t) = e^{-iHt} rho_total(0) e^{+iHt}, formed densely."""
        energies, u = self._diagonalize()
        ph = np.exp(-1j * energies * t)
        r_eig = u.conj().T @ rho_total0 @ u
        return u @ (np.outer(ph, ph.conj()) * r_eig) @ u.conj().T


def evolve_exact(total, rho_s0, times):
    """Reduced trajectory of the exact total evolution from rho_s0 (x) thermal.

    rho_total(0) = sum_c p_c rho_s0 (x) |c><c| over the populated Fock
    configurations c.  With F = [sqrt(p_c) |c>] (db x r) only the d*r
    columns Psi(t) = e^{-iHt} (I (x) F) = U (e^{-iEt} o G), G = U^dag (I (x) F),
    are propagated, and rho_s(t) = Tr_B[ Psi (rho_s0 (x) I_r) Psi^dag ].
    Neither rho_total(0) nor rho_total(t) is formed.
    """
    rho_s0 = check_density_matrix(np.asarray(rho_s0, dtype=complex), "rho_s0")
    if rho_s0.shape[0] != total.h_s.dim:
        raise ValidationError(
            f"state dimension {rho_s0.shape[0]} != system dimension {total.h_s.dim}"
        )
    times = np.asarray(times, dtype=float)
    d, db = total.h_s.dim, total.bath.dim
    energies, u = total._diagonalize()
    pops = total.bath.thermal_populations()
    occupied = np.flatnonzero(pops > 0)
    r = occupied.size
    rows = (np.arange(d)[:, None] * db + occupied).ravel()
    g = u[rows].conj().T * np.tile(np.sqrt(pops[occupied]), d)
    states = np.empty((times.size, d, d), dtype=complex)
    for k, t in enumerate(times):
        psi = (u @ (np.exp(-1j * energies * t)[:, None] * g)).reshape(d, db, d, r)
        y = np.einsum("jbic,il->jblc", psi, rho_s0)
        states[k] = np.tensordot(y, psi.conj(), axes=([1, 2, 3], [1, 2, 3]))
    traj = Trajectory(times, states)
    if traj.trace_dev.max() > 1e-10:
        raise ValidationError(
            f"reduced trace drifted by {traj.trace_dev.max():.3e} (unitarity bug?)"
        )
    return traj
