"""Master-equation generators and trajectory integration."""

import numpy as np
import pytest

from conftest import random_density, random_hermitian
from tclkraus import (
    DiscreteBath,
    DephasingModel,
    LindbladGenerator,
    MarkovianBath,
    OhmicBath,
    SIGMA_X,
    SIGMA_Z,
    SystemHamiltonian,
    Tcl2Generator,
    Trajectory,
    ValidationError,
    double_time_integral,
    integrate,
    reduce_to_lindblad,
)
import tclkraus.tcl as tcl
from tclkraus.quadrature import integrate_scalar

EPS0 = 1.0
H_QUBIT = SystemHamiltonian(0.5 * EPS0 * SIGMA_Z)
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def dephasing_generator(g=0.05, omega=1.0, temperature=0.0):
    bath = DiscreteBath([(g, omega)], temperature)
    return Tcl2Generator(H_QUBIT, [SIGMA_Z], bath), bath


def test_dissipator_vanishes_at_time_zero(rng):
    gen, _ = dephasing_generator()
    rho = random_density(rng, 2)
    assert np.abs(gen.dissipator(0.0, rho)).max() == 0.0


def test_dephasing_dissipator_leaves_populations(rng):
    gen, _ = dephasing_generator()
    rho = random_density(rng, 2)
    d = gen.dissipator(1.3, rho)
    assert abs(d[0, 0]) < 1e-14 and abs(d[1, 1]) < 1e-14
    diag = np.diag([0.3, 0.7]).astype(complex)
    assert np.abs(gen.dissipator(1.3, diag)).max() < 1e-14


def test_dissipator_trace_free_and_hermiticity_preserving(rng):
    h = random_hermitian(rng, 3)
    v1 = random_hermitian(rng, 3)
    v2 = random_hermitian(rng, 3)
    bath = DiscreteBath([(0.1, 1.0), (0.05, 2.2)], 0.5)
    gen = Tcl2Generator(h, [v1, v2], bath)
    rho = random_density(rng, 3)
    d = gen.dissipator(0.9, rho)
    assert abs(np.trace(d)) < 1e-13
    assert np.abs(d - d.conj().T).max() < 1e-13


def test_dissipator_linear(rng):
    gen, _ = dephasing_generator()
    r1 = random_density(rng, 2)
    r2 = random_density(rng, 2)
    lhs = gen.dissipator(0.7, 0.3 * r1 + 0.7 * r2)
    rhs = 0.3 * gen.dissipator(0.7, r1) + 0.7 * gen.dissipator(0.7, r2)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_dephasing_rhs_closed_form(rng):
    # for v = sigma_z the memory operator reduces to (int_0^t chi(u) du) sigma_z
    # and the coherence obeys rho_01' = (-i eps0 - 4 Re int_0^t chi) rho_01
    gen, bath = dephasing_generator(g=0.05)
    rho = random_density(rng, 2)
    for t in (0.3, 1.0, 2.4):
        kernel = integrate_scalar(bath.correlation, 0.0, t)
        got = gen.rhs(t, rho)
        expected = np.array(
            [
                [0.0, (-1j * EPS0 - 4.0 * kernel.real) * rho[0, 1]],
                [(1j * EPS0 - 4.0 * kernel.real) * rho[1, 0], 0.0],
            ]
        )
        assert np.abs(got - expected).max() < 1e-10


def test_memory_operator_matches_direct_quadrature():
    g, omega = 0.08, 1.4
    bath = DiscreteBath([(g, omega)], 0.0)
    gen = Tcl2Generator(H_QUBIT, [SIGMA_X], bath)
    t = 1.1
    lam = gen.memory_operator(t, 0)
    # direct: int_0^t chi(u) e^{-iHu} sigma_x e^{+iHu} du, element-wise
    expected = np.zeros((2, 2), dtype=complex)
    h = H_QUBIT.matrix
    from scipy.integrate import quad
    from scipy.linalg import expm

    def element(i, j):
        def f_re(u):
            m = expm(-1j * h * u) @ SIGMA_X @ expm(1j * h * u)
            return (bath.correlation(u) * m[i, j]).real

        def f_im(u):
            m = expm(-1j * h * u) @ SIGMA_X @ expm(1j * h * u)
            return (bath.correlation(u) * m[i, j]).imag

        re, _ = quad(f_re, 0.0, t, limit=200)
        im, _ = quad(f_im, 0.0, t, limit=200)
        return re + 1j * im

    for i in range(2):
        for j in range(2):
            expected[i, j] = element(i, j)
    assert np.abs(lam - expected).max() < 1e-9


def test_memory_operator_closed_form_matches_quadrature_path(rng):
    # complex couplings, T > 0, two generators on a random qutrit
    bath = DiscreteBath([(0.1 + 0.05j, 1.1), (0.07 - 0.02j, 2.3)], 0.8)
    gen = Tcl2Generator(random_hermitian(rng, 3),
                        [random_hermitian(rng, 3), random_hermitian(rng, 3)], bath)
    for alpha, v in enumerate(gen.generators):
        v_eig = gen.h_s.to_eigenbasis(v)
        for t in (0.0, 1e-9, 0.7, 5.0, 40.0):
            ref = gen._memory_quadrature(bath.correlation, v_eig, t)
            # the quadrature's own max-norm tolerance: 1e-10 relative, 1e-13 absolute
            bound = max(1e-10 * np.abs(ref).max(), 1e-13)
            assert np.abs(gen.memory_operator(t, alpha) - ref).max() <= bound


@pytest.mark.parametrize("generator, temperature",
                         [(SIGMA_Z, 0.0), (SIGMA_Z, 0.4), (SIGMA_X, 0.4)])
def test_memory_operator_long_time_single_mode_closed_form(generator, temperature):
    # at t = 5000 the quadrature path raised QuadratureError for sigma_z
    g, omega, t = 0.05, 1.0, 5000.0
    gen = Tcl2Generator(H_QUBIT, [generator], DiscreteBath([(g, omega)], temperature))
    lam = gen.memory_operator(t, 0)
    assert np.all(np.isfinite(lam))

    def e(a):
        return t if a == 0.0 else (1.0 - np.exp(-1j * a * t)) / (1j * a)

    def kernel(delta):
        nbar = 0.0 if temperature == 0.0 else 1.0 / np.expm1(omega / temperature)
        return g**2 * ((nbar + 1.0) * e(delta + omega) + nbar * e(delta - omega))

    # H = (EPS0/2) sigma_z: sigma_z(-u) = sigma_z, while sigma_x(-u) has
    # e^{-i EPS0 u} at (0,1) and e^{+i EPS0 u} at (1,0); omega = EPS0 makes
    # the (1,0) entry resonant, E(0, t) = t
    if generator is SIGMA_Z:
        expected = np.diag([kernel(0.0), -kernel(0.0)])
    else:
        expected = np.array([[0.0, kernel(EPS0)], [kernel(-EPS0), 0.0]])
    assert np.abs(lam - expected).max() <= 1e-12 * np.abs(expected).max()


def test_discrete_bath_trajectory_runs_without_array_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("array quadrature on a discrete-bath TCL2 path")

    monkeypatch.setattr(tcl, "integrate_array", no_quadrature)
    with pytest.raises(AssertionError):  # the patch reaches the quadrature path
        Tcl2Generator(H_QUBIT, [SIGMA_X], OhmicBath(0.05, 2.0)).memory_operator(1.0, 0)
    bath = DiscreteBath([(0.05, 1.0), (0.05, 1.7)], 0.3)
    traj = integrate(Tcl2Generator(H_QUBIT, [SIGMA_X], bath), PLUS,
                     np.linspace(0.0, 3.0, 7))
    assert traj.trace_dev.max() < 1e-10


def test_white_noise_dissipator_equals_lindblad(rng):
    bath = MarkovianBath(0.4)
    gen = Tcl2Generator(H_QUBIT, [SIGMA_Z], bath)
    lind = reduce_to_lindblad(gen)
    for _ in range(20):
        rho = random_density(rng, 2)
        for t in (0.5, 1.0, 2.0):
            diff = gen.dissipator(t, rho) - lind.dissipator(rho)
            assert np.abs(diff).max() < 1e-12


def test_white_noise_matrix_rate_termwise(rng):
    gamma = np.array([[0.5, 0.2], [0.2, 0.3]], dtype=complex)
    bath = MarkovianBath(gamma)
    h = random_hermitian(rng, 2)
    vs = [SIGMA_Z, SIGMA_X]
    gen = Tcl2Generator(h, vs, bath)
    lind = LindbladGenerator(h, vs, gamma)
    rho = random_density(rng, 2)
    got = gen.dissipator(1.0, rho)
    # hand-expanded double sum
    expected = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            va, vb = vs[a], vs[b]
            expected += 0.5 * gamma[a, b] * (
                (vb @ rho @ va - va @ vb @ rho) + (va @ rho @ vb - rho @ vb @ va)
            )
    assert np.abs(got - expected).max() < 1e-14
    assert np.abs(lind.dissipator(rho) - expected).max() < 1e-14


def test_white_noise_complex_rate_matrix_is_kossakowski_form(rng):
    # a complex Hermitian PSD rate matrix over non-commuting generators: the
    # dissipator must be Hermitian and equal the Kossakowski double sum
    for d, n in ((2, 2), (3, 3)):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gamma = x @ x.conj().T
        assert np.abs(gamma.imag).max() > 0.1
        vs = [random_hermitian(rng, d) for _ in range(n)]
        gen = Tcl2Generator(random_hermitian(rng, d), vs, MarkovianBath(gamma))
        rho = random_density(rng, d)
        got = gen.dissipator(1.0, rho)
        expected = np.zeros((d, d), dtype=complex)
        for a in range(n):
            for b in range(n):
                va, vb = vs[a], vs[b]
                expected += gamma[a, b] * (
                    va @ rho @ vb - 0.5 * (vb @ va @ rho + rho @ vb @ va)
                )
        assert np.abs(got - got.conj().T).max() < 1e-12
        assert np.abs(got - expected).max() < 1e-12


def test_white_noise_memory_operator_is_built_once():
    rates = np.array([[0.5, 0.2j], [-0.2j, 0.3]])
    gen = Tcl2Generator(H_QUBIT, [SIGMA_Z, SIGMA_X], MarkovianBath(rates))
    first = gen.memory_operator(0.5, 0)
    # one read-only array per generator, handed out by every call at t > 0
    assert gen.memory_operator(3.0, 0) is first
    assert not first.flags.writeable
    expected = 0.5 * (np.conj(rates[0, 0]) * SIGMA_Z + np.conj(rates[0, 1]) * SIGMA_X)
    assert np.abs(first - expected).max() < 1e-15
    assert np.abs(gen.memory_operator(0.0, 0)).max() == 0.0


def test_lindblad_dephasing_rate(rng):
    # scalar rate gamma with v = sigma_z damps coherences at 2 gamma
    gamma = 0.3
    lind = LindbladGenerator(H_QUBIT, [SIGMA_Z], gamma)
    rho = random_density(rng, 2)
    d = lind.dissipator(rho)
    assert abs(d[0, 1] + 2.0 * gamma * rho[0, 1]) < 1e-14
    assert abs(d[0, 0]) < 1e-14


def test_lindblad_trajectory_closed_form():
    gamma = 0.3
    lind = LindbladGenerator(H_QUBIT, [SIGMA_Z], gamma)
    times = np.linspace(0.0, 2.0, 9)
    traj = integrate(lind, PLUS, times)
    expected = 0.5 * np.exp(-2.0 * gamma * times) * np.exp(-1j * EPS0 * times)
    assert np.abs(traj.states[:, 0, 1] - expected).max() < 1e-8


def test_tcl2_dephasing_trajectory_matches_memory_envelope():
    gen, bath = dephasing_generator(g=0.05)
    times = np.linspace(0.0, 5.0, 11)
    traj = integrate(gen, PLUS, times)
    for i, t in enumerate(times):
        m = double_time_integral(bath, float(t))
        expected = 0.5 * np.exp(-4.0 * m.real) * np.exp(-1j * EPS0 * t)
        assert abs(traj.states[i][0, 1] - expected) < 1e-9


def test_tcl2_close_to_two_sided_closed_form():
    # the closed-form channel pair and the master equation are different
    # truncations of the same expansion; at g = 0.05 they sit within 5e-3
    gen, bath = dephasing_generator(g=0.05)
    model = DephasingModel(EPS0, bath)
    times = np.linspace(0.0, 5.0, 11)
    traj = integrate(gen, PLUS, times)
    closed = model.trajectory(times, PLUS, picture="schrodinger")
    worst = np.abs(traj.states - closed.states).max()
    assert worst < 5e-3
    assert worst > 1e-8  # genuinely different truncations at finite coupling


def test_zero_coupling_is_unitary():
    bath = DiscreteBath([(0.0, 1.0)], 0.0)
    gen = Tcl2Generator(H_QUBIT, [SIGMA_Z], bath)
    times = np.linspace(0.0, 2.0, 9)
    traj = integrate(gen, PLUS, times)
    for i, t in enumerate(times):
        u = H_QUBIT.propagator(float(t))
        assert np.abs(traj.states[i] - u @ PLUS @ u.conj().T).max() < 1e-9


def test_integrate_rejects_bad_grids():
    gen, _ = dephasing_generator()
    with pytest.raises(ValidationError):
        integrate(gen, PLUS, np.array([0.5, 1.0]))
    with pytest.raises(ValidationError):
        integrate(gen, PLUS, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        integrate(gen, PLUS, np.array([[0.0, 1.0]]))


def test_integrate_rejects_bad_state():
    gen, _ = dephasing_generator()
    with pytest.raises(ValidationError):
        integrate(gen, np.diag([0.6, 0.6]).astype(complex), np.array([0.0, 1.0]))


def test_reduce_to_lindblad_requires_white_noise():
    gen, _ = dephasing_generator()
    with pytest.raises(ValidationError):
        reduce_to_lindblad(gen)


def test_trajectory_diagnostics_and_csv(tmp_path):
    gen, _ = dephasing_generator()
    times = np.linspace(0.0, 1.0, 5)
    traj = integrate(gen, PLUS, times)
    assert traj.trace_dev.max() < 1e-10
    assert traj.min_eig.min() > -1e-10
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11,trace_dev,min_eig"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5, 11)
    rebuilt = data[:, 1:9:2] + 1j * data[:, 2:9:2]
    assert np.abs(rebuilt.reshape(-1, 2, 2) - traj.states).max() < 1e-16


def test_generator_dimension_mismatch():
    with pytest.raises(ValidationError):
        Tcl2Generator(H_QUBIT, [np.eye(3, dtype=complex)], MarkovianBath(0.1))
