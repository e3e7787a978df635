"""Exact system-plus-truncated-bath reference dynamics."""

import numpy as np
import pytest

from conftest import random_density
from tclkraus import (
    DiscreteBath,
    SIGMA_X,
    SIGMA_Z,
    SystemHamiltonian,
    TotalSystem,
    TruncatedBath,
    TruncationError,
    ValidationError,
    bath_correlation_exact,
    double_time_integral,
    evolve_exact,
)
from tclkraus.linalg import partial_trace_bath

EPS0 = 1.0
H_QUBIT = SystemHamiltonian(0.5 * EPS0 * SIGMA_Z)
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def test_dimension_guard():
    # 2 * 9^4 = 13122 > 4096
    bath = TruncatedBath([(1.0, [0.1])] * 4, 8, 0.0)
    with pytest.raises(ValidationError):
        TotalSystem(H_QUBIT, [SIGMA_Z], bath)


def test_discarded_thermal_weight_guard():
    # at T = 2 a 2-level truncation of an omega = 1 mode drops ~22% weight
    with pytest.raises(TruncationError):
        TruncatedBath([(1.0, [0.1])], 1, 2.0)
    # plenty of levels is fine
    TruncatedBath([(1.0, [0.1])], 40, 2.0)


def test_thermal_state_boltzmann():
    bath = TruncatedBath([(1.0, [0.1])], 30, 1.0)
    rho_b = bath.thermal_state()
    w = np.real(np.diag(rho_b))
    assert abs(w.sum() - 1.0) < 1e-12
    # successive level ratios follow exp(-omega/T)
    ratios = w[1:6] / w[:5]
    assert np.abs(ratios - np.exp(-1.0)).max() < 1e-12


def test_zero_coupling_reduces_to_unitary(rng):
    bath = TruncatedBath([(1.0, [0.0])], 2, 0.0)
    total = TotalSystem(H_QUBIT, [SIGMA_Z], bath)
    rho0 = random_density(rng, 2)
    times = np.linspace(0.0, 3.0, 7)
    traj = evolve_exact(total, rho0, times)
    for i, t in enumerate(times):
        u = H_QUBIT.propagator(float(t))
        assert np.abs(traj.states[i] - u @ rho0 @ u.conj().T).max() < 1e-10


def test_exact_dephasing_populations_and_envelope():
    g, omega = 0.05, 1.0
    bath = TruncatedBath([(omega, [g])], 7, 0.0)
    total = TotalSystem(H_QUBIT, [SIGMA_Z], bath)
    times = np.linspace(0.0, 5.0, 11)
    traj = evolve_exact(total, PLUS, times)
    discrete = DiscreteBath([(g, omega)], 0.0)
    for i, t in enumerate(times):
        # populations frozen
        assert abs(traj.states[i][0, 0] - 0.5) < 1e-12
        # coherence follows the exact envelope e^{-4 Re m} e^{-i eps t}
        m = double_time_integral(discrete, float(t))
        expected = 0.5 * np.exp(-4.0 * m.real) * np.exp(-1j * EPS0 * t)
        assert abs(traj.states[i][0, 1] - expected) < 1e-9


def test_total_purity_preserved():
    bath = TruncatedBath([(1.3, [0.2])], 5, 0.0)
    total = TotalSystem(H_QUBIT, [SIGMA_X], bath)
    rho_total0 = np.kron(PLUS, bath.thermal_state())
    out = total.total_state(rho_total0, 2.2)
    # T = 0 thermal state is pure, so the total state stays pure
    assert abs(np.trace(out @ out).real - np.trace(rho_total0 @ rho_total0).real) < 1e-10
    assert abs(np.trace(out) - 1.0) < 1e-12


H_QUTRIT = SystemHamiltonian(np.diag([0.0, 1.0, 2.3]).astype(complex))
J_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
J_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

#: (system, generators, bath): thermal qubit; T = 0 qutrit with two
#: generators; complex couplings, which keep H_total complex
EVOLVE_CASES = [
    (H_QUBIT, [SIGMA_X], TruncatedBath([(1.0, [0.08]), (1.7, [0.05])], 3, 0.15)),
    (H_QUTRIT, [J_X, J_Z],
     TruncatedBath([(1.0, [0.08, 0.0]), (1.6, [0.0, 0.06])], 3, 0.0)),
    (H_QUBIT, [SIGMA_X],
     TruncatedBath([(1.0, [0.05 + 0.06j]), (1.7, [-0.04j])], 3, 0.0)),
]


def test_evolve_exact_snapshots_equal_fresh_total_states(rng):
    # evolve_exact propagates only the rho_s0 (x) rho_B factor; each snapshot
    # must agree with the partial trace of the dense total state, up to the
    # round-off of the different summation order
    for h_s, gens, bath in EVOLVE_CASES:
        total = TotalSystem(h_s, gens, bath)
        d = h_s.dim
        rho0 = random_density(rng, d)
        times = np.linspace(0.0, 3.0, 5)
        traj = evolve_exact(total, rho0, times)
        rho_total0 = np.kron(rho0, bath.thermal_state())
        for i, t in enumerate(times):
            dense = partial_trace_bath(total.total_state(rho_total0, t), d, bath.dim)
            assert np.abs(traj.states[i] - dense).max() <= 1e-12


def test_evolve_exact_never_forms_the_total_state(monkeypatch, rng):
    def refuse(*_):
        raise AssertionError("evolve_exact formed a total-space state")

    monkeypatch.setattr(TotalSystem, "total_state", refuse)
    for h_s, gens, bath in EVOLVE_CASES:
        total = TotalSystem(h_s, gens, bath)
        traj = evolve_exact(total, random_density(rng, h_s.dim), np.linspace(0.0, 2.0, 3))
        assert traj.trace_dev.max() < 1e-12


def test_h_total_real_exactly_when_couplings_are_real():
    real = TotalSystem(*EVOLVE_CASES[1])
    cplx = TotalSystem(*EVOLVE_CASES[2])
    assert real.h_total.dtype == np.float64
    assert cplx.h_total.dtype == np.complex128
    ref = np.linalg.eigvalsh(real.h_total.astype(complex))
    assert np.abs(real._diagonalize()[0] - ref).max() < 1e-12


def test_correlation_exact_vacuum_value():
    g, omega = 0.12, 1.4
    bath = TruncatedBath([(omega, [g])], 6, 0.0)
    # <b(t) b> at T = 0 is |g|^2 e^{-i omega t}
    for t in (0.0, 0.7, 2.1):
        val = bath_correlation_exact(bath, t)
        assert abs(val - abs(g) ** 2 * np.exp(-1j * omega * t)) < 1e-12


def test_correlation_exact_matches_discrete_model():
    modes = [(0.1, 1.0), (0.06, 1.9)]
    discrete = DiscreteBath(modes, 1.0)
    truncated = TruncatedBath.from_discrete(discrete, 25)
    for t in (0.0, 0.5, 1.7, 3.0):
        exact = bath_correlation_exact(truncated, t)
        model = discrete.correlation(t)
        assert abs(exact - model) < 1e-8


def test_correlation_symmetry_and_check_path():
    bath = TruncatedBath([(1.0, [0.1])], 12, 0.5)
    t = 1.3
    forward = bath_correlation_exact(bath, t, check=True)
    backward = bath_correlation_exact(bath, -t)
    assert abs(backward - np.conj(forward)) < 1e-12


def test_check_path_flags_bad_truncation():
    # this bath scrapes past the discarded-weight guard (tail ~ 8.6e-9) yet
    # its correlation still moves by ~4e-6 under doubling, which the
    # consistency check must catch
    bath = TruncatedBath([(1.0, [3.0])], 12, 0.7)
    with pytest.raises(TruncationError):
        bath_correlation_exact(bath, 1.0, check=True)


def test_from_discrete_round_trip():
    discrete = DiscreteBath([(0.1 + 0.2j, 1.5)], 0.7)
    tb = TruncatedBath.from_discrete(discrete, 12)
    assert tb.modes == [(1.5, [0.1 + 0.2j])]
    assert tb.temperature == 0.7
    assert tb.n_gen == 1


def test_generator_count_mismatch():
    bath = TruncatedBath([(1.0, [0.1, 0.05])], 3, 0.0)
    with pytest.raises(ValidationError):
        TotalSystem(H_QUBIT, [SIGMA_Z], bath)


def test_trajectory_trace_clean(rng):
    bath = TruncatedBath([(1.0, [0.08]), (1.7, [0.08])], 3, 0.0)
    total = TotalSystem(H_QUBIT, [SIGMA_X], bath)
    traj = evolve_exact(total, random_density(rng, 2), np.linspace(0.0, 4.0, 9))
    assert traj.trace_dev.max() < 1e-12
    assert traj.min_eig.min() > -1e-12
