"""Born-order evolution superoperator and canonical Kraus extraction.

The second-order (Born) evolution superoperator in the interaction picture
has the matrix form, over composite indices (a, n) -> a*d + n in the H_s
eigenbasis,

    E[(a,n),(b,m)] = delta_an delta_bm - B[a,n] delta_bm
                     - delta_an conj(B[b,m]) + A[(a,n),(b,m)]

with the two double-time moments of the coupling

    B[a,n]        = sum_g int_0^t ds int_0^s dtau conj(chi(tau-s))
                    <a| v(s) v(tau) |n>                        (triangle)
    A[(a,n),(b,m)] = T + T^dag,
    T[(a,n),(b,m)] = sum_g int_0^t ds int_0^s dtau chi(tau-s)
                    <a| v(s) |n> conj(<b| v(tau) |m>)          (triangle)

The inner tau-integral of both is the TCL2 memory operator of
:mod:`tclkraus.tcl` in the interaction picture, under that module's
white-noise convention; for white noise B = (t/2) sum_ab conj(gamma_ab)
v_a v_b and A = t sum_ab gamma_ab vec v_a vec v_b^dag at H_s = 0.

A is the full-square two-sided moment written as triangle + Hermitian
transpose; this makes E exactly Hermitian under the (a,n)/(b,m) pairing and
exactly trace-preserving (sum_a E[(a,n),(a,m)] = delta_nm), which the tests
assert against a direct quadrature of the underlying evolution expression.

Diagonalizing the Hermitian E gives the canonical Kraus set
K_k = sqrt(d_k) * unvec(u_k); operators are returned in the computational
basis.  Small negative eigenvalues (Born truncation artifacts of order
|B|^2) are clipped and logged; large ones are errors.

For pure dephasing (v = sigma_z) this map equals the channel of the
closed-form pair in :mod:`tclkraus.dephasing` without that pair's
|m|^2 (rho - sigma_z rho sigma_z) term.  The paper's abstract alone does not
settle which of the two is its operator-sum form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError, as_hamiltonian, hermitize
from .quadrature import integrate_array
from .tcl import Tcl2Generator

#: base absolute tolerance for the complete-positivity clip window
CP_BASE_TOL = 1e-8

#: quadrature tolerances of the outer s-integrals of B and A
_RTOL = 1e-11
_ATOL = 1e-12

#: channel-matrix distance within which :func:`kraus_equivalent` sees one channel
EQUIVALENCE_TOL = 1e-10


class CPViolationError(RuntimeError):
    """Channel matrix is not completely positive beyond the Born budget."""


@dataclass
class ChannelMatrix:
    """Interaction-picture evolution superoperator in composite-index form.

    Row/column indices are (a, n) -> a*d + n in the eigenbasis of `basis`
    (columns = H_s eigenvectors).  `herm_dev` is the pairing-Hermiticity
    deviation of the raw assembly; `cp_budget` is the clip window for
    slightly negative eigenvalues, 1e-8 + 10 * max|B|^2.
    """

    t: float
    dim: int
    matrix: np.ndarray
    basis: np.ndarray
    herm_dev: float = 0.0
    cp_budget: float = CP_BASE_TOL

    def in_computational_basis(self):
        """The same superoperator over computational-basis composite indices."""
        w = np.kron(self.basis, self.basis.conj())
        return w @ self.matrix @ w.conj().T

    def apply(self, rho):
        """Act on a computational-basis density matrix."""
        rho = np.asarray(rho, dtype=complex)
        rho_eig = self.basis.conj().T @ rho @ self.basis
        m4 = self.matrix.reshape(self.dim, self.dim, self.dim, self.dim)
        out_eig = np.einsum("anbm,nm->ab", m4, rho_eig)
        return self.basis @ out_eig @ self.basis.conj().T


@dataclass
class KrausSet:
    """Operator-sum representation: operators in the computational basis."""

    operators: list
    eigenvalues: list
    picture: str
    t: float
    clipped: list = field(default_factory=list)
    completeness_dev: float = field(init=False)

    def __post_init__(self):
        self.completeness_dev = self.completeness()

    @property
    def dim(self):
        return self.operators[0].shape[0]

    def completeness(self):
        """max |sum_k K_k^dag K_k - I|."""
        d = self.dim
        s = sum((k.conj().T @ k for k in self.operators), np.zeros((d, d), complex))
        return float(np.abs(s - np.eye(d)).max())

    def to_json_dict(self):
        from .linalg import matrix_to_json

        return {
            "t": float(self.t),
            "picture": self.picture,
            "completeness_dev": float(self.completeness_dev),
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "operators": [matrix_to_json(k) for k in self.operators],
        }


def _check_time(t):
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    return float(t)


def _moment_integral(t, h_s, generators, bath, pair):
    """sum_a int_0^t pair(v_a(s), I_a(s)) ds, both factors in the H_s eigenbasis.

    I_a(s) = int_0^s conj(chi_a(tau - s)) v_a(tau) dtau is, with u = s - tau
    and conj(chi(-u)) = chi(u), the TCL2 memory operator in the interaction
    picture, exp(i H_s s) L_a(s) exp(-i H_s s), taken from the one
    :class:`~tclkraus.tcl.Tcl2Generator` that holds every bath's memory.
    """
    t = _check_time(t)
    h_s = as_hamiltonian(h_s)
    gen = Tcl2Generator(h_s, generators, bath)
    total = 0
    for alpha, v in enumerate(generators):
        v_eig = h_s.to_eigenbasis(v)

        def integrand(s):
            phase = h_s.phase_matrix(s)
            return pair(v_eig * phase,
                        h_s.to_eigenbasis(gen.memory_operator(s, alpha)) * phase)

        total += integrate_array(integrand, 0.0, t, rtol=_RTOL, atol=_ATOL)
    return total


def _vec_outer(v, inner):
    # conj(inner) carries chi(tau-s) * conj(<b|v(tau)|m>) exactly
    return np.outer(v.reshape(-1), inner.reshape(-1).conj())


def damping_term(t, h_s, generators, bath):
    """B(t) = sum_a int_0^t v_a(s) I_a(s) ds (d x d, H_s eigenbasis); B(0) = 0."""
    return _moment_integral(t, h_s, generators, bath, np.matmul)


def jump_term(t, h_s, generators, bath):
    """A(t) = T + T^dag (d^2 x d^2, H_s eigenbasis); A(0) = 0.

    T = sum_a int_0^t vec v_a(s) vec I_a(s)^dag ds.
    """
    tri = _moment_integral(t, h_s, generators, bath, _vec_outer)
    return tri + tri.conj().T


def assemble_channel(t, b, a, h_s):
    """E = 1 - B - B* + A over composite indices from B(t) and A(t)."""
    t = _check_time(t)
    h_s = as_hamiltonian(h_s)
    d = h_s.dim
    if b.shape != (d, d) or a.shape != (d * d, d * d):
        raise ValidationError("term dimensions do not match the Hamiltonian")
    vec_i = np.eye(d, dtype=complex).reshape(-1)
    vec_b = b.reshape(-1)
    m = (
        np.outer(vec_i, vec_i)
        - np.outer(vec_b, vec_i)
        - np.outer(vec_i, vec_b.conj())
        + a
    )
    _, dev = hermitize(m)
    budget = CP_BASE_TOL + 10.0 * float(np.abs(b).max()) ** 2
    return ChannelMatrix(t=t, dim=d, matrix=m, basis=h_s.vectors.copy(),
                         herm_dev=dev, cp_budget=budget)


def channel_at(t, h_s, generators, bath):
    """Convenience: assemble the channel matrix at time t from scratch."""
    h_s = as_hamiltonian(h_s)
    b = damping_term(t, h_s, generators, bath)
    a = jump_term(t, h_s, generators, bath)
    return assemble_channel(t, b, a, h_s)


def _fix_phase(k):
    idx = int(np.argmax(np.abs(k.reshape(-1))))
    z = k.reshape(-1)[idx]
    if abs(z) == 0.0:
        return k
    return k * (abs(z) / z)


def canonical_kraus(channel):
    """Extract the canonical Kraus set from a channel matrix.

    Eigen-decomposes the Hermitized matrix, keeps positive eigenvalues in
    descending order, clips negatives within the CP budget (logged), and
    errors on anything below -channel.cp_budget.  Operators come out in the
    computational basis with the global phase of each fixed so its
    largest-magnitude entry is real positive.
    """
    eps = channel.cp_budget
    m_h, _ = hermitize(channel.matrix)
    evals, evecs = np.linalg.eigh(m_h)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]

    bad = evals[evals < -eps]
    if bad.size:
        raise CPViolationError(
            f"channel at t={channel.t:g} is not completely positive at this "
            f"order: eigenvalue {bad.min():.3e} below -{eps:.3e}"
        )
    clipped = [float(x) for x in evals[(evals < 0.0)]]
    keep = evals > 0.0
    evals, evecs = evals[keep], evecs[:, keep]

    d = channel.dim
    w = channel.basis
    ops, eigs = [], []
    for lam, col in zip(evals, evecs.T):
        kappa = np.sqrt(lam) * col.reshape(d, d)
        ops.append(_fix_phase(w @ kappa @ w.conj().T))
        eigs.append(float(lam))

    return KrausSet(operators=ops, eigenvalues=eigs, picture="interaction",
                    t=channel.t, clipped=clipped)


def to_schrodinger(kset, h_s):
    """Left-multiply by the free propagator at the set's time: K -> e^{-i H_s t} K."""
    if kset.picture != "interaction":
        raise ValidationError(f"expected an interaction-picture set, got {kset.picture}")
    u = as_hamiltonian(h_s).propagator(kset.t)
    return KrausSet(operators=[u @ k for k in kset.operators],
                    eigenvalues=list(kset.eigenvalues), picture="schrodinger",
                    t=kset.t, clipped=list(kset.clipped))


def apply_channel(kset, rho):
    """rho -> sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kset.dim, kset.dim):
        raise ValidationError(
            f"state shape {rho.shape} does not match Kraus dimension {kset.dim}"
        )
    out = np.zeros_like(rho)
    for k in kset.operators:
        out += k @ rho @ k.conj().T
    return out


def channel_matrix_from_kraus(kset):
    """Composite-index matrix sum_k vec(K_k) vec(K_k)^dag (computational basis)."""
    vecs = [k.reshape(-1) for k in kset.operators]
    d2 = kset.dim ** 2
    out = np.zeros((d2, d2), complex)
    for v in vecs:
        out += np.outer(v, v.conj())
    return out


def kraus_equivalent(k1, k2):
    """True iff the two sets induce the same channel within EQUIVALENCE_TOL.

    Compares reconstructed channel matrices, so sets of different
    cardinality (remixed / zero-padded) compare equal when they should.
    """
    if k1.dim != k2.dim:
        raise ValidationError(f"dimension mismatch {k1.dim} vs {k2.dim}")
    if k1.picture != k2.picture:
        raise ValidationError(
            f"picture mismatch {k1.picture} vs {k2.picture}; convert first"
        )
    m1 = channel_matrix_from_kraus(k1)
    m2 = channel_matrix_from_kraus(k2)
    return bool(np.abs(m1 - m2).max() <= EQUIVALENCE_TOL)
