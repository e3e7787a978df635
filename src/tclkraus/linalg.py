"""Dense operator primitives shared by the rest of the package.

Everything works on plain complex ndarrays.  States and Hamiltonians are
validated at API boundaries with the checkers below instead of being wrapped
in dedicated classes; the only stateful object here is ``SystemHamiltonian``,
which caches an eigendecomposition so interaction-picture rotations and
propagators are cheap.
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: validation thresholds used at API boundaries
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-12
POSITIVITY_FLOOR = -1e-10


class ValidationError(ValueError):
    """An operator failed a structural check (shape, hermiticity, trace, ...)."""


def _as_square(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def hermiticity_deviation(a):
    """Max-norm distance from the Hermitian part, ``max |A - A^dag|``."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max())


def hermitize(a):
    """Return ``((A + A^dag)/2, max |A - A^dag|)``.

    The deviation is returned so callers can log how non-Hermitian the
    input was instead of silently discarding that information.
    """
    a = _as_square(a)
    dev = hermiticity_deviation(a)
    return 0.5 * (a + a.conj().T), dev


def check_hermitian(a, name="operator"):
    """Validate hermiticity relative to the matrix scale; return the array."""
    a = _as_square(a, name)
    allowed = HERMITICITY_RTOL * max(float(np.abs(a).max()), 1.0)
    dev = hermiticity_deviation(a)
    if dev > allowed:
        raise ValidationError(
            f"{name} is not Hermitian: max|A - A^dag| = {dev:.3e} "
            f"(allowed {allowed:.3e})"
        )
    return a


def check_density_matrix(rho, name="rho"):
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite.

    Bounds: hermiticity 1e-12 relative, trace within 1e-12 of 1, smallest
    eigenvalue >= -1e-10.  Violations raise; nothing is clipped.
    """
    rho = check_hermitian(rho, name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValidationError(f"{name} trace deviates from 1 by {abs(tr - 1.0):.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < POSITIVITY_FLOOR:
        raise ValidationError(f"{name} has negative eigenvalue {min_eig:.3e}")
    return rho


def check_generator_set(generators):
    """Validate a list of Hermitian coupling generators of a common dimension."""
    if len(generators) == 0:
        raise ValidationError("generator set must not be empty")
    out = [check_hermitian(v, f"generator[{i}]") for i, v in enumerate(generators)]
    d = out[0].shape[0]
    for i, v in enumerate(out):
        if v.shape[0] != d:
            raise ValidationError(
                f"generator[{i}] has dimension {v.shape[0]}, expected {d}"
            )
    return out


def commutator(a, b):
    """[A, B] = AB - BA."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a


def partial_trace_bath(rho_total, dim_s, dim_b):
    """Trace out the bath factor of a system (x) bath density matrix.

    The total space is ordered system-leading: row index = s*dim_b + b.
    """
    rho_total = _as_square(rho_total, "rho_total")
    if rho_total.shape[0] != dim_s * dim_b:
        raise ValidationError(
            f"total dimension {rho_total.shape[0]} != {dim_s} * {dim_b}"
        )
    r = rho_total.reshape(dim_s, dim_b, dim_s, dim_b)
    return np.einsum("ibjb->ij", r)


def trace_distance(rho1, rho2):
    """Trace distance (1/2) ||rho1 - rho2||_1 for Hermitian arguments."""
    rho1 = _as_square(rho1, "rho1")
    rho2 = _as_square(rho2, "rho2")
    if rho1.shape != rho2.shape:
        raise ValidationError(f"dimension mismatch {rho1.shape} vs {rho2.shape}")
    delta, _ = hermitize(rho1 - rho2)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())


class SystemHamiltonian:
    """Hermitian system Hamiltonian with a cached eigendecomposition.

    Attributes
    ----------
    matrix : (d, d) complex ndarray
    energies : (d,) real ndarray, ascending
    vectors : (d, d) complex ndarray, columns are the eigenvectors
    gaps : (d, d) real ndarray, Bohr frequencies e_j - e_k
    """

    def __init__(self, matrix):
        self.matrix = check_hermitian(matrix, "H_s")
        self.dim = self.matrix.shape[0]
        self.energies, self.vectors = np.linalg.eigh(self.matrix)
        self.gaps = self.energies[:, None] - self.energies[None, :]

    def to_eigenbasis(self, op):
        """W^dag op W."""
        return self.vectors.conj().T @ np.asarray(op, dtype=complex) @ self.vectors

    def from_eigenbasis(self, op):
        """W op W^dag."""
        return self.vectors @ np.asarray(op, dtype=complex) @ self.vectors.conj().T

    def phase_matrix(self, t):
        """exp(i (e_j - e_k) t), the eigenbasis phase factors at time t."""
        return np.exp(1j * self.gaps * t)

    def interaction_picture(self, v, t):
        """Rotate v into the interaction picture: e^{+iHt} v e^{-iHt}."""
        v = _as_square(v, "v")
        if v.shape[0] != self.dim:
            raise ValidationError(
                f"operator dimension {v.shape[0]} != system dimension {self.dim}"
            )
        v_eig = self.to_eigenbasis(v)
        return self.from_eigenbasis(v_eig * self.phase_matrix(t))

    def propagator(self, t):
        """Free propagator e^{-iHt}."""
        return self.vectors @ (
            np.exp(-1j * self.energies * t)[:, None] * self.vectors.conj().T
        )


def as_hamiltonian(h_s):
    """h_s itself if it is a :class:`SystemHamiltonian`, else one built from it."""
    return h_s if isinstance(h_s, SystemHamiltonian) else SystemHamiltonian(h_s)


def matrix_to_json(a):
    """Serialize a complex matrix as row-major [re, im] pairs.

    Format: {"dim": [rows, cols], "data": [[re, im], ...]}.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    flat = a.reshape(-1)
    return {
        "dim": [int(a.shape[0]), int(a.shape[1])],
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json` with shape/length validation."""
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise ValidationError("matrix JSON must have 'dim' and 'data' fields")
    rows, cols = (int(x) for x in obj["dim"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix JSON data length {len(data)} != {rows}*{cols}"
        )
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape(rows, cols)
