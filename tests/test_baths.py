"""Correlation models and the iterated double-time integral."""

import numpy as np
import pytest
from scipy.integrate import quad

from tclkraus import (
    DiscreteBath,
    MarkovianBath,
    OhmicBath,
    ValidationError,
    double_time_integral,
    thermal_occupation,
)


def single_mode_f(g, omega, t):
    """Frozen closed form for one T=0 mode, cross-checked by 2-D quadrature."""
    return abs(g) ** 2 * (1.0 - 1j * omega * t - np.exp(-1j * omega * t)) / omega**2


def f_by_nested_quadrature(chi, t):
    """Direct 2-D evaluation of int_0^t ds int_0^s dtau conj(chi(tau - s))."""

    def inner(s, part):
        val, _ = quad(lambda tau: part(np.conj(chi(tau - s))), 0.0, s, limit=300)
        return val

    re, _ = quad(lambda s: inner(s, np.real), 0.0, t, limit=300)
    im, _ = quad(lambda s: inner(s, np.imag), 0.0, t, limit=300)
    return re + 1j * im


def test_thermal_occupation():
    assert thermal_occupation(1.0, 0.0) == 0.0
    # direct Bose factor at omega = 1, T = 1
    assert abs(thermal_occupation(1.0, 1.0) - 1.0 / (np.e - 1.0)) < 1e-14
    # huge ratio must underflow to zero, not overflow
    assert thermal_occupation(1e4, 1.0) == 0.0


def test_discrete_correlation_closed_form():
    modes = [(0.1 + 0.05j, 1.0), (0.03, 2.5)]
    bath = DiscreteBath(modes, temperature=0.7)
    ts = np.linspace(-3.0, 3.0, 41)
    expected = np.zeros(ts.shape, dtype=complex)
    for g, w in modes:
        nbar = 1.0 / np.expm1(w / 0.7)
        expected += abs(g) ** 2 * (
            (nbar + 1.0) * np.exp(-1j * w * ts) + nbar * np.exp(1j * w * ts)
        )
    assert np.abs(bath.correlation(ts) - expected).max() < 1e-13


@pytest.mark.parametrize(
    "bath",
    [
        DiscreteBath([(0.2, 1.3)], 0.0),
        DiscreteBath([(0.2, 1.3), (0.1j, 0.4)], 2.0),
        OhmicBath(0.5, 2.0, 0.0),
        OhmicBath(0.5, 2.0, 1.5),
    ],
)
def test_correlation_symmetry(bath):
    ts = np.linspace(0.05, 4.0, 17)
    for t in ts:
        assert abs(bath.correlation(-t) - np.conj(bath.correlation(t))) < 1e-14


@pytest.mark.parametrize(
    "modes, temperature, energies",
    [
        # complex couplings, thermal; degenerate d = 3 spectrum whose gaps
        # +-1.2 hit the first mode in both the emission and absorption terms
        # and sit 2e-6 from the last one
        ([(0.2 + 0.1j, 1.2), (0.05j, 0.7), (0.1 - 0.03j, 2.0), (0.08, 1.2 + 2e-6)],
         0.9, [0.3, 0.3, -0.9]),
        # zero temperature, one resonance Delta = -omega
        ([(0.15 - 0.05j, 1.0)], 0.0, [0.5, -0.5]),
    ],
)
@pytest.mark.parametrize("t", [0.0, 1e-9, 0.7, 40.0])
def test_bohr_kernel_matches_scalar_quadrature(modes, temperature, energies, t):
    bath = DiscreteBath(modes, temperature)
    e = np.asarray(energies)
    freqs = e[:, None] - e[None, :]
    got = bath.bohr_kernel(freqs)(t)
    assert got.shape == freqs.shape
    for idx in np.ndindex(freqs.shape):
        delta = freqs[idx]
        ref, _ = quad(lambda u: bath.correlation(u) * np.exp(-1j * delta * u),
                      0.0, t, complex_func=True, limit=2000,
                      epsabs=1e-13, epsrel=1e-13)
        assert abs(got[idx] - ref) < 1e-12, (idx, delta, got[idx], ref)


def test_ohmic_zero_temperature_closed_form_vs_quadrature():
    bath = OhmicBath(0.8, 1.7, 0.0)
    for t in (0.0, 0.1, 0.9, 3.0):
        fast = bath.correlation(t)
        slow = bath.correlation_quadrature(t)
        assert abs(fast - slow) < 1e-8


def test_ohmic_finite_temperature_t0_value():
    # chi(0) = int J(w) coth(w/2T) dw, here against a plain fixed-grid sum
    bath = OhmicBath(0.3, 1.0, 1.0)
    w = np.linspace(1e-8, 45.0, 400001)
    integrand = bath.spectral_density(w) / np.tanh(w / 2.0)
    expected = np.trapezoid(integrand, w)
    assert abs(bath.correlation(0.0) - expected) < 1e-6


def test_ohmic_spectral_density_peak():
    bath = OhmicBath(1.0, 2.0, 0.0)
    w = np.linspace(0.0, 20.0, 2001)
    j = bath.spectral_density(w)
    # eta * w * exp(-w/wc) peaks at w = wc
    assert abs(w[np.argmax(j)] - 2.0) < 0.02
    assert j[0] == 0.0


def test_double_time_integral_single_mode_closed_form():
    g, omega = 0.05, 1.3
    bath = DiscreteBath([(g, omega)], 0.0)
    for t in (0.0, 0.4, 1.0, 2.7, 5.0):
        got = double_time_integral(bath, t)
        assert abs(got - single_mode_f(g, omega, t)) < 1e-10


def test_double_time_integral_reduction_vs_nested_2d():
    cases = [
        (DiscreteBath([(0.1, 0.9), (0.05j, 2.0)], 0.0), 1.7),
        (DiscreteBath([(0.08, 1.1)], 1.0), 2.3),
        (OhmicBath(0.4, 1.5, 0.0), 1.1),
    ]
    for bath, t in cases:
        direct = f_by_nested_quadrature(bath.correlation, t)
        reduced = double_time_integral(bath, t)
        assert abs(direct - reduced) < 1e-8


def test_double_time_integral_thermal_ohmic_vs_grid_sum():
    # the thermal chi is itself a quadrature, so the nested 2-D reference is
    # too slow here; after swapping the integration order the triangle
    # collapses to int_0^t (t - u) chi(u) du, summed on a fixed Simpson grid
    from scipy.integrate import simpson

    bath = OhmicBath(0.3, 2.0, 1.3)
    t = 1.2
    u = np.linspace(0.0, t, 241)
    chi = np.array([bath.correlation(float(x)) for x in u])
    ref = simpson((t - u) * chi, x=u)
    assert abs(double_time_integral(bath, t) - ref) < 1e-6


def test_double_time_integral_markovian_closed_form():
    bath = MarkovianBath(0.4)
    for t in (0.0, 0.5, 2.0):
        assert abs(double_time_integral(bath, t) - 0.5 * 0.4 * t) < 1e-15


class _MollifiedWhiteNoise:
    """Narrow symmetric Gaussian of total mass gamma / 2 about t = 0."""

    def __init__(self, gamma, sigma):
        self.gamma = gamma
        self.sigma = sigma

    def correlation(self, t):
        s = self.sigma
        return (
            0.5 * self.gamma * np.exp(-np.asarray(t) ** 2 / (2 * s**2))
            / (s * np.sqrt(2 * np.pi))
        ) + 0.0j


def test_mollified_white_noise_approaches_quarter_gamma_t():
    # a symmetric peak keeps half its mass inside the one-sided inner range,
    # f -> gamma t / 4, which is the white-noise f of MarkovianBath(gamma / 2)
    gamma, t = 0.4, 1.3
    bath = _MollifiedWhiteNoise(gamma, sigma=0.002)
    f = double_time_integral(bath, t)
    assert abs(f - 0.25 * gamma * t) < 1e-3
    # and the deficit shrinks linearly with the width
    wider = double_time_integral(_MollifiedWhiteNoise(gamma, 0.004), t)
    assert abs(wider - 0.25 * gamma * t) > abs(f - 0.25 * gamma * t)


def test_coupling_scaling_is_quadratic():
    t = 1.9
    base = DiscreteBath([(0.04, 1.2)], 0.0)
    scaled = DiscreteBath([(3.0 * 0.04, 1.2)], 0.0)
    assert abs(double_time_integral(scaled, t) - 9.0 * double_time_integral(base, t)) < 1e-12
    eta_base = OhmicBath(0.2, 1.0, 0.0)
    eta_scaled = OhmicBath(0.6, 1.0, 0.0)
    assert abs(
        double_time_integral(eta_scaled, t) - 3.0 * double_time_integral(eta_base, t)
    ) < 1e-10


def test_real_part_of_f_nonnegative():
    baths = [
        DiscreteBath([(0.1, 1.0), (0.07, 1.9)], 0.0),
        DiscreteBath([(0.1, 1.0)], 1.3),
        OhmicBath(0.5, 1.2, 0.0),
    ]
    for bath in baths:
        for t in np.linspace(0.0, 6.0, 13):
            assert double_time_integral(bath, t).real >= -1e-12


def test_markovian_bath_validation():
    with pytest.raises(ValidationError):
        MarkovianBath(-0.1)
    with pytest.raises(ValidationError):
        MarkovianBath(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        MarkovianBath(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    bath = MarkovianBath(0.3)
    with pytest.raises(ValidationError):
        bath.correlation(0.1)
    with pytest.raises(ValidationError):
        bath.rate_matrix(2)  # scalar rate cannot serve two generators


def test_markovian_rate_matrix_shapes():
    g = np.array([[0.4, 0.1], [0.1, 0.4]], dtype=complex)
    bath = MarkovianBath(g)
    assert np.abs(bath.rate_matrix(2) - g).max() == 0.0
    with pytest.raises(ValidationError):
        bath.rate_matrix(3)


def test_discrete_bath_validation():
    with pytest.raises(ValidationError):
        DiscreteBath([(0.1, -1.0)], 0.0)
    with pytest.raises(ValidationError):
        DiscreteBath([(0.1, 0.0)], 0.0)
    with pytest.raises(ValidationError):
        DiscreteBath([(0.1, 1.0)], -0.5)


def test_negative_time_rejected():
    bath = DiscreteBath([(0.1, 1.0)], 0.0)
    with pytest.raises(ValidationError):
        double_time_integral(bath, -0.1)
