"""Basis machinery, invariant checks, and serialization round-trips."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_density, random_hermitian
from tclkraus import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SystemHamiltonian,
    ValidationError,
    check_density_matrix,
    commutator,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    partial_trace_bath,
    trace_distance,
)


def slow_matmul(a, b):
    """Triple-loop product, independent of the @ operator."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def test_eigendecomposition_reconstructs(rng):
    h = random_hermitian(rng, 4)
    sh = SystemHamiltonian(h)
    rebuilt = slow_matmul(
        slow_matmul(sh.vectors, np.diag(sh.energies).astype(complex)),
        sh.vectors.conj().T,
    )
    assert np.abs(rebuilt - h).max() < 1e-12


def test_basis_round_trip(rng):
    h = random_hermitian(rng, 5)
    sh = SystemHamiltonian(h)
    op = random_hermitian(rng, 5)
    assert np.abs(sh.from_eigenbasis(sh.to_eigenbasis(op)) - op).max() < 1e-12


def test_interaction_picture_matches_expm(rng):
    h = random_hermitian(rng, 3)
    v = random_hermitian(rng, 3)
    sh = SystemHamiltonian(h)
    for t in (0.0, 0.3, 1.7, -0.9):
        u = expm(1j * h * t)
        expected = u @ v @ u.conj().T
        assert np.abs(sh.interaction_picture(v, t) - expected).max() < 1e-11


def test_sigma_x_rotation_closed_form():
    # H = (w/2) sigma_z rotates sigma_x in the equatorial plane
    w = 1.3
    sh = SystemHamiltonian(0.5 * w * SIGMA_Z)
    for t in (0.2, 1.0, 4.5):
        got = sh.interaction_picture(SIGMA_X, t)
        expected = np.cos(w * t) * SIGMA_X - np.sin(w * t) * SIGMA_Y
        assert np.abs(got - expected).max() < 1e-12


def test_propagator_unitary_and_diagonalizes(rng):
    h = random_hermitian(rng, 3)
    sh = SystemHamiltonian(h)
    u = sh.propagator(0.8)
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12
    assert np.abs(u - expm(-1j * h * 0.8)).max() < 1e-11


def test_commutator_and_hs_inner(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    assert np.abs(commutator(a, b) + commutator(b, a)).max() < 1e-13


def test_partial_trace_against_loops(rng):
    ds, db = 2, 3
    rho = random_density(rng, ds * db)
    got = partial_trace_bath(rho, ds, db)
    expected = np.zeros((ds, ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            for b in range(db):
                expected[i, j] += rho[i * db + b, j * db + b]
    assert np.abs(got - expected).max() < 1e-14
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_trace_distance_against_svd(rng):
    r1 = random_density(rng, 4)
    r2 = random_density(rng, 4)
    # for Hermitian delta the trace norm is the sum of singular values
    expected = 0.5 * np.linalg.svd(r1 - r2, compute_uv=False).sum()
    assert abs(trace_distance(r1, r2) - expected) < 1e-12
    assert trace_distance(r1, r1) < 1e-14


def test_trace_distance_orthogonal_pure_states():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(zero, one) - 1.0) < 1e-14


def test_hermitize_reports_deviation(rng):
    a = random_hermitian(rng, 3)
    sym, dev = hermitize(a)
    assert dev < 1e-15
    bumped = a.copy()
    bumped[0, 1] += 1e-3
    sym, dev = hermitize(bumped)
    assert np.abs(sym - sym.conj().T).max() < 1e-15
    # dev is max|A - A^dag|, here exactly the injected asymmetry
    assert abs(dev - 1e-3) < 1e-6


def test_check_density_matrix_rejects_bad_inputs(rng):
    with pytest.raises(ValidationError):
        check_density_matrix(np.diag([0.6, 0.6]).astype(complex))  # trace 1.2
    with pytest.raises(ValidationError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative
    bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)  # non-Hermitian
    with pytest.raises(ValidationError):
        check_density_matrix(bad)


def test_system_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        SystemHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_json_round_trip(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obj = matrix_to_json(a)
    assert obj["dim"] == [3, 3]
    back = matrix_from_json(obj)
    assert np.abs(back - a).max() == 0.0


def test_json_rejects_malformed():
    with pytest.raises((ValidationError, ValueError)):
        matrix_from_json({"dim": [2, 2], "data": [[1.0, 0.0]]})
