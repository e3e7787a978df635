"""Second-order channel assembly and canonical operator extraction."""

import numpy as np
import pytest

import tclkraus.channel as channel
from conftest import random_density, random_hermitian
from tclkraus import (
    CPViolationError,
    ChannelMatrix,
    DiscreteBath,
    LindbladGenerator,
    MarkovianBath,
    SIGMA_X,
    SIGMA_Z,
    SystemHamiltonian,
    ValidationError,
    apply_channel,
    assemble_channel,
    canonical_kraus,
    channel_at,
    channel_matrix_from_kraus,
    damping_term,
    double_time_integral,
    jump_term,
    kraus_equivalent,
    to_schrodinger,
)
from tclkraus.quadrature import integrate_array

EPS0 = 1.0
H_QUBIT = SystemHamiltonian(0.5 * EPS0 * SIGMA_Z)
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def midpoint_terms(h_s, v, chi, t, n=300):
    """Midpoint-rule evaluation of both double-time integrals (eigenbasis).

    The inner triangle 0 <= tau <= s is mapped to the unit square via
    tau = s * x, which keeps the midpoint rule second order.
    """
    v_eig = h_s.to_eigenbasis(v)
    d = h_s.dim
    hs_, hx = t / n, 1.0 / n
    s = (np.arange(n) + 0.5) * hs_
    tau = s[:, None] * ((np.arange(n) + 0.5) * hx)[None, :]
    v_s = v_eig * np.exp(1j * h_s.gaps * s[:, None, None])
    v_tau = v_eig * np.exp(1j * h_s.gaps * tau[..., None, None])
    weights = (s * hs_ * hx)[:, None] * np.asarray(chi(s[:, None] - tau))
    # per outer node, the inner sum of w chi(s - tau) v(tau)
    inner = np.einsum("ij,ijkl->ikl", weights, v_tau)
    b = np.einsum("ikl,ilm->km", v_s, inner)
    tri = v_s.reshape(n, d * d).T @ inner.reshape(n, d * d).conj()
    return b, tri


def test_terms_vanish_at_time_zero():
    bath = DiscreteBath([(0.1, 1.0)], 0.0)
    assert np.abs(damping_term(0.0, H_QUBIT, [SIGMA_Z], bath)).max() == 0.0
    assert np.abs(jump_term(0.0, H_QUBIT, [SIGMA_Z], bath)).max() == 0.0


def test_dephasing_damping_term_is_scalar():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    for t in (0.5, 2.0):
        m = double_time_integral(bath, t)
        b = damping_term(t, H_QUBIT, [SIGMA_Z], bath)
        assert np.abs(b - m * np.eye(2)).max() < 1e-10


def test_dephasing_jump_term_structure():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    lam = np.diag(H_QUBIT.to_eigenbasis(SIGMA_Z)).real  # +-1, eigen order
    t = 1.7
    m = double_time_integral(bath, t)
    a = jump_term(t, H_QUBIT, [SIGMA_Z], bath)
    expected = np.zeros((4, 4), complex)
    for an in range(4):
        aa, nn = divmod(an, 2)
        for bm in range(4):
            bb, mm = divmod(bm, 2)
            if aa == nn and bb == mm:
                expected[an, bm] = 2.0 * m.real * lam[aa] * lam[bb]
    assert np.abs(a - expected).max() < 1e-10


def test_damping_term_against_midpoint_rule():
    bath = DiscreteBath([(0.05, 1.3)], 0.0)
    t = 0.9
    b = damping_term(t, H_QUBIT, [SIGMA_X], bath)
    b_mid, _ = midpoint_terms(H_QUBIT, SIGMA_X, bath.correlation, t)
    assert np.abs(b - b_mid).max() < 1e-7


def test_jump_term_against_midpoint_rule():
    bath = DiscreteBath([(0.05, 1.3)], 0.0)
    t = 0.9
    a = jump_term(t, H_QUBIT, [SIGMA_X], bath)
    _, tri = midpoint_terms(H_QUBIT, SIGMA_X, bath.correlation, t)
    assert np.abs(a - (tri + tri.conj().T)).max() < 1e-7


class _CorrelationOnly:
    """A bath that exposes only chi(u), so its memory goes by quadrature."""

    def __init__(self, bath):
        self.correlation = bath.correlation


def test_closed_form_terms_match_quadrature_path(rng):
    # complex couplings, T > 0, two generators on a random qutrit
    bath = DiscreteBath([(0.1 + 0.05j, 1.1), (0.07 - 0.02j, 2.3)], 0.8)
    h_s = SystemHamiltonian(random_hermitian(rng, 3))
    vs = [random_hermitian(rng, 3), random_hermitian(rng, 3)]
    t = 2.0
    b = damping_term(t, h_s, vs, bath)
    a = jump_term(t, h_s, vs, bath)
    b_quad = damping_term(t, h_s, vs, _CorrelationOnly(bath))
    a_quad = jump_term(t, h_s, vs, _CorrelationOnly(bath))
    # the outer quadrature's own tolerance, 1e-11 relative / 1e-12 absolute
    assert np.abs(b - b_quad).max() <= max(1e-11 * np.abs(b_quad).max(), 1e-12)
    assert np.abs(a - a_quad).max() <= max(1e-11 * np.abs(a_quad).max(), 1e-12)


def test_channel_at_takes_one_outer_quadrature_per_term_and_generator(monkeypatch):
    calls = []

    def counting(f, a, b, **kwargs):
        calls.append((a, b))
        return integrate_array(f, a, b, **kwargs)

    monkeypatch.setattr(channel, "integrate_array", counting)
    bath = DiscreteBath([(0.05, 1.1), (0.03, 2.3)], 0.5)
    vs = [SIGMA_X, SIGMA_Z]
    channel_at(2.0, H_QUBIT, vs, bath)
    # B and A each take one s-integral per generator, and no inner ones
    assert len(calls) == 2 * len(vs)


def test_white_noise_terms_closed_form():
    gamma, t = 0.4, 1.5
    bath = MarkovianBath(gamma)
    b = damping_term(t, H_QUBIT, [SIGMA_Z], bath)
    assert np.abs(b - 0.5 * gamma * t * np.eye(2)).max() < 1e-12
    a = jump_term(t, H_QUBIT, [SIGMA_Z], bath)
    lam = np.diag(H_QUBIT.to_eigenbasis(SIGMA_Z)).real
    vec_l = np.diag(lam).reshape(-1)
    assert np.abs(a - gamma * t * np.outer(vec_l, vec_l)).max() < 1e-12

    # two generators and a complex rate; H_s = 0 freezes v(s) = v
    rates = np.array([[0.5, 0.2j], [-0.2j, 0.3]])
    h0 = SystemHamiltonian(np.zeros((2, 2), dtype=complex))
    vs = [h0.to_eigenbasis(v) for v in (SIGMA_Z, SIGMA_X)]
    bath = MarkovianBath(rates)
    b = damping_term(t, h0, [SIGMA_Z, SIGMA_X], bath)
    a = jump_term(t, h0, [SIGMA_Z, SIGMA_X], bath)
    b_exp = sum(np.conj(rates[i, j]) * vs[i] @ vs[j]
                for i in range(2) for j in range(2))
    a_exp = sum(rates[i, j] * np.outer(vs[i].reshape(-1), vs[j].reshape(-1).conj())
                for i in range(2) for j in range(2))
    assert np.abs(b - 0.5 * t * b_exp).max() < 1e-12
    assert np.abs(a - t * a_exp).max() < 1e-12


def test_white_noise_channel_is_first_order_lindblad_step(rng):
    # H_s = 0 makes the Born map exactly rho + t D rho, D the Lindblad
    # dissipator at the same rates; a half-weight inner moment is off by 2
    rates = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    h0 = np.zeros((2, 2), dtype=complex)
    vs = [SIGMA_Z, SIGMA_X]
    lindblad = LindbladGenerator(h0, vs, rates)
    for t in (0.3, 1.7):
        ch = channel_at(t, h0, vs, MarkovianBath(rates))
        for _ in range(3):
            rho = random_density(rng, 2)
            expected = rho + t * lindblad.dissipator(rho)
            assert np.abs(ch.apply(rho) - expected).max() < 1e-12


def test_channel_action_matches_midpoint_assembly(rng):
    bath = DiscreteBath([(0.05, 1.3)], 0.0)
    t = 0.9
    ch = channel_at(t, H_QUBIT, [SIGMA_X], bath)
    b_mid, tri = midpoint_terms(H_QUBIT, SIGMA_X, bath.correlation, t)
    rho = random_density(rng, 2)
    rho_eig = H_QUBIT.to_eigenbasis(rho)
    sandwich = np.einsum("anbm,nm->ab", (tri + tri.conj().T).reshape(2, 2, 2, 2),
                         rho_eig)
    expected_eig = rho_eig - b_mid @ rho_eig - rho_eig @ b_mid.conj().T + sandwich
    expected = H_QUBIT.from_eigenbasis(expected_eig)
    assert np.abs(ch.apply(rho) - expected).max() < 1e-6


def test_assembled_channel_exactly_trace_preserving(rng):
    bath = DiscreteBath([(0.07, 1.1), (0.04, 2.3)], 0.6)
    ch = channel_at(1.3, H_QUBIT, [SIGMA_X], bath)
    d = ch.dim
    m = ch.matrix.reshape(d, d, d, d)
    # sum over the left output index must give the identity on (n, m)
    tp = np.einsum("anam->nm", m)
    assert np.abs(tp - np.eye(d)).max() < 1e-12
    rho = random_density(rng, 2)
    assert abs(np.trace(ch.apply(rho)) - 1.0) < 1e-12


def test_assembled_channel_hermitian_pairing():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    ch = channel_at(1.0, H_QUBIT, [SIGMA_Z], bath)
    assert ch.herm_dev < 1e-12
    assert np.abs(ch.matrix - ch.matrix.conj().T).max() < 1e-12


def test_identity_channel_at_zero_coupling(rng):
    bath = DiscreteBath([(0.0, 1.0)], 0.0)
    ch = channel_at(1.2, H_QUBIT, [SIGMA_Z], bath)
    rho = random_density(rng, 2)
    assert np.abs(ch.apply(rho) - rho).max() < 1e-13
    ks = canonical_kraus(ch)
    assert len(ks.operators) == 1
    assert abs(ks.eigenvalues[0] - 2.0) < 1e-13
    assert np.abs(ks.operators[0] - np.eye(2)).max() < 1e-13
    assert ks.completeness_dev < 1e-13


def test_dephasing_canonical_set():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    t = 2.0
    m = double_time_integral(bath, t)
    ch = channel_at(t, H_QUBIT, [SIGMA_Z], bath)
    ks = canonical_kraus(ch)
    assert len(ks.operators) == 2
    assert abs(ks.eigenvalues[0] - (2.0 - 4.0 * m.real)) < 1e-12
    assert abs(ks.eigenvalues[1] - 4.0 * m.real) < 1e-12
    k0, k1 = ks.operators
    assert np.abs(k0 - np.sqrt(1.0 - 2.0 * m.real) * np.eye(2)).max() < 1e-10
    # k1 is sqrt(2 Re m) sigma_z up to the fixed phase
    assert np.abs(k1 - np.sqrt(2.0 * m.real) * SIGMA_Z).max() < 1e-10
    assert ks.completeness_dev < 1e-13


def test_reconstruction_round_trip():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    ch = channel_at(1.5, H_QUBIT, [SIGMA_Z], bath)
    ks = canonical_kraus(ch)
    rebuilt = channel_matrix_from_kraus(ks)
    assert np.abs(rebuilt - ch.in_computational_basis()).max() < 1e-10


def test_random_remixes_preserve_channel(rng):
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    ch = channel_at(1.5, H_QUBIT, [SIGMA_Z], bath)
    ks = canonical_kraus(ch)
    n = len(ks.operators)
    for _ in range(10):
        # unitary remix, with one zero row to exercise different cardinality
        q, _ = np.linalg.qr(
            rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        )
        padded = ks.operators + [np.zeros((2, 2), complex)]
        remixed = type(ks)(
            operators=[
                sum(q[i, j] * padded[j] for j in range(n + 1)) for i in range(n + 1)
            ],
            eigenvalues=list(ks.eigenvalues) + [0.0],
            picture=ks.picture,
            t=ks.t,
        )
        assert kraus_equivalent(ks, remixed)


def test_kraus_equivalent_distinguishes_channels():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    k1 = canonical_kraus(channel_at(1.0, H_QUBIT, [SIGMA_Z], bath))
    k2 = canonical_kraus(channel_at(2.0, H_QUBIT, [SIGMA_Z], bath))
    assert not kraus_equivalent(k1, k2)
    k_s = to_schrodinger(k1, H_QUBIT)
    with pytest.raises(ValidationError):
        kraus_equivalent(k1, k_s)


def test_to_schrodinger_phases():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    t = 1.8
    m = double_time_integral(bath, t)
    ks = to_schrodinger(canonical_kraus(channel_at(t, H_QUBIT, [SIGMA_Z], bath)),
                        H_QUBIT)
    assert ks.picture == "schrodinger"
    assert ks.completeness_dev < 1e-13
    out = apply_channel(ks, PLUS)
    expected_coherence = 0.5 * (1.0 - 4.0 * m.real) * np.exp(-1j * EPS0 * t)
    assert abs(out[0, 1] - expected_coherence) < 1e-10
    # at t = 0 the rotation is the identity
    ks0 = canonical_kraus(channel_at(0.0, H_QUBIT, [SIGMA_Z], bath))
    ks0_s = to_schrodinger(ks0, H_QUBIT)
    assert np.abs(ks0_s.operators[0] - ks0.operators[0]).max() < 1e-14


def test_clipping_logged_within_budget():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    ch = channel_at(1.0, H_QUBIT, [SIGMA_Z], bath)
    # nudge one eigenvalue slightly negative, well inside the budget
    evals, evecs = np.linalg.eigh(ch.matrix)
    bumped = ch.matrix - (evals[0] + 5e-10) * np.outer(evecs[:, 0], evecs[:, 0].conj())
    ch2 = ChannelMatrix(t=ch.t, dim=ch.dim, matrix=bumped, basis=ch.basis,
                        herm_dev=0.0, cp_budget=ch.cp_budget)
    ks = canonical_kraus(ch2)
    assert len(ks.clipped) == 1
    assert -1e-9 < ks.clipped[0] < 0.0
    assert len(ks.operators) == len(ks.eigenvalues)


def test_cp_violation_raises():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    ch = channel_at(1.0, H_QUBIT, [SIGMA_Z], bath)
    evals, evecs = np.linalg.eigh(ch.matrix)
    broken = ch.matrix - (evals[0] + 1e-3) * np.outer(evecs[:, 0], evecs[:, 0].conj())
    ch2 = ChannelMatrix(t=ch.t, dim=ch.dim, matrix=broken, basis=ch.basis,
                        herm_dev=0.0, cp_budget=ch.cp_budget)
    with pytest.raises(CPViolationError):
        canonical_kraus(ch2)


def test_composite_index_pairing(rng):
    # the stored matrix pairs (out-left, in-left) x (out-right, in-right);
    # regrouping to (out-left, out-right) x (in-left, in-right) must give the
    # standard row-vec superoperator
    bath = DiscreteBath([(0.05, 1.3)], 0.0)
    ch = channel_at(0.8, H_QUBIT, [SIGMA_X], bath)
    rho = random_density(rng, 2)
    rho_eig = H_QUBIT.to_eigenbasis(rho)
    super_op = ch.matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    out_vec = super_op @ rho_eig.reshape(-1)
    expected = H_QUBIT.from_eigenbasis(out_vec.reshape(2, 2))
    assert np.abs(ch.apply(rho) - expected).max() < 1e-13


def test_mismatched_term_shapes_rejected():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    b = damping_term(1.0, H_QUBIT, [SIGMA_Z], bath)
    a = jump_term(1.0, H_QUBIT, [SIGMA_Z], bath)
    h_qutrit = SystemHamiltonian(np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(ValidationError):
        assemble_channel(1.0, b, a, h_qutrit)
    with pytest.raises(ValidationError):
        assemble_channel(1.0, a, b, H_QUBIT)
