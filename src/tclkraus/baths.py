"""Bath correlation models.

Three models of the two-point bath correlation chi(t) = <b(t) b(0)>_thermal:

* :class:`DiscreteBath` -- a finite set of harmonic modes, closed form,
  including its Bohr-frequency memory kernel (:meth:`DiscreteBath.bohr_kernel`).
* :class:`OhmicBath` -- ohmic spectral density with exponential cutoff,
  evaluated by adaptive quadrature (closed form at T = 0).
* :class:`MarkovianBath` -- white noise, chi(t) = (gamma/2) delta(t).  The
  delta never gets pointwise values; downstream code consumes the rate
  matrix directly, under the endpoint convention of :mod:`tclkraus.tcl`.

All finite-memory models satisfy chi(t) = conj(chi(-t)).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .linalg import ValidationError, check_hermitian
from .quadrature import integrate_scalar

#: frequency cutoff multiplier for ohmic quadrature; exp(-45) ~ 3e-20
_OHMIC_TAIL = 45.0

#: below this |a t| the exponential integral uses its Taylor series, whose
#: truncation error there is below (1e-3)^5 / 720 ~ 1e-18 relative
_SERIES_CUT = 1e-3


def thermal_occupation(omega, temperature):
    """Bose occupation 1/(exp(omega/T) - 1); zero at T = 0."""
    if temperature < 0:
        raise ValidationError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / np.expm1(x)


class DiscreteBath:
    """Finite collection of thermal harmonic modes.

    Parameters
    ----------
    modes : sequence of (g, omega)
        Complex coupling and positive frequency per mode.
    temperature : float, >= 0

    The correlation is
    chi(t) = sum_k |g_k|^2 [(nbar_k + 1) exp(-i w_k t) + nbar_k exp(+i w_k t)].
    """

    def __init__(self, modes, temperature=0.0):
        if len(modes) == 0:
            raise ValidationError("discrete bath needs at least one mode")
        self.modes = [(complex(g), float(w)) for g, w in modes]
        for i, (_, w) in enumerate(self.modes):
            if w <= 0:
                raise ValidationError(f"mode {i}: frequency must be > 0, got {w}")
        if temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {temperature}")
        self.temperature = float(temperature)
        self._g2 = np.array([abs(g) ** 2 for g, _ in self.modes])
        self._w = np.array([w for _, w in self.modes])
        self._nbar = np.array(
            [thermal_occupation(w, self.temperature) for w in self._w]
        )

    def correlation(self, t):
        t = np.asarray(t, dtype=float)
        phase = np.exp(-1j * np.multiply.outer(t, self._w))
        terms = self._g2 * ((self._nbar + 1.0) * phase + self._nbar / phase)
        out = terms.sum(axis=-1)
        return complex(out) if out.ndim == 0 else out

    def bohr_kernel(self, freqs):
        """Memory kernel Gamma(Delta, t) = int_0^t chi(u) exp(-i Delta u) du.

        Returns a function of t that evaluates Gamma elementwise over the
        array `freqs` of Bohr frequencies Delta:

        Gamma(Delta, t) = sum_k |g_k|^2 [(nbar_k + 1) E(Delta + w_k, t)
                                         + nbar_k E(Delta - w_k, t)],
        E(a, t) = (1 - exp(-i a t)) / (i a),

        exact up to round-off for every t >= 0, the resonances a = 0
        included.  The shifted frequencies and their weights are built here
        once, so a call is one vectorised exponential and one sum.
        """
        freqs = np.asarray(freqs, dtype=float)
        shifts = np.concatenate([self._w, -self._w])
        weights = np.concatenate([self._g2 * (self._nbar + 1.0), self._g2 * self._nbar])
        keep = weights != 0.0  # T = 0 drops every absorption term
        return partial(_kernel_sum, np.add.outer(freqs, shifts[keep]), weights[keep])


def _exp_integral(a, t):
    """E(a, t) = int_0^t exp(-i a u) du, elementwise in a."""
    x = a * t
    small = np.abs(x) < _SERIES_CUT
    # (1 - e^{-ix}) / (ix) by expm1, which keeps full relative accuracy for
    # small x; its Taylor series near x = 0, where the quotient is 0/0
    safe = np.where(small, 1.0, x)
    ratio = np.where(small,
                     1.0 + x * (-0.5j + x * (-1.0 / 6.0 + x * (1j / 24.0 + x / 120.0))),
                     np.expm1(-1j * safe) / (-1j * safe))
    return t * ratio


def _kernel_sum(shifts, weights, t):
    return _exp_integral(shifts, t) @ weights


class OhmicBath:
    """Ohmic spectral density J(w) = eta * w * exp(-w / omega_c).

    chi(t) = int_0^inf J(w) [coth(w / 2T) cos(w t) - i sin(w t)] dw,
    done by adaptive quadrature on [0, 45 * omega_c] (the integrand's
    exponential envelope makes the discarded tail ~1e-20 of the total).
    At T = 0 the integral has the closed form eta * omega_c^2 /
    (1 + i * omega_c * t)^2, which is used as a fast path; the quadrature
    route stays available through :meth:`correlation_quadrature` and the two
    agree to 1e-8 (asserted in the tests).
    """

    def __init__(self, eta, omega_c, temperature=0.0):
        if eta < 0:
            raise ValidationError(f"eta must be >= 0, got {eta}")
        if omega_c <= 0:
            raise ValidationError(f"omega_c must be > 0, got {omega_c}")
        if temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {temperature}")
        self.eta = float(eta)
        self.omega_c = float(omega_c)
        self.temperature = float(temperature)

    def spectral_density(self, omega):
        omega = np.asarray(omega, dtype=float)
        return self.eta * omega * np.exp(-omega / self.omega_c)

    def correlation_quadrature(self, t):
        """chi(t) by adaptive quadrature of the spectral integral."""
        t = float(t)
        T = self.temperature

        def integrand(w):
            if w == 0.0:
                # limit of J(w) coth(w/2T) as w -> 0 is 2 eta T
                return 2.0 * self.eta * T if T > 0 else 0.0
            therm = 1.0 / np.tanh(w / (2.0 * T)) if T > 0 else 1.0
            return self.spectral_density(w) * (
                therm * np.cos(w * t) - 1j * np.sin(w * t)
            )

        upper = _OHMIC_TAIL * self.omega_c
        return integrate_scalar(integrand, 0.0, upper, rtol=1e-11, limit=800)

    def correlation(self, t):
        if self.temperature == 0.0:
            t = np.asarray(t, dtype=float)
            out = self.eta * self.omega_c**2 / (1.0 + 1j * self.omega_c * t) ** 2
            return complex(out) if out.ndim == 0 else out
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self.correlation_quadrature(float(t))
        return np.array([self.correlation_quadrature(x) for x in t.reshape(-1)
                         ]).reshape(t.shape)


class MarkovianBath:
    """White-noise bath with rate gamma_ab over generator pairs.

    gamma is a scalar rate (single generator) or a Hermitian positive
    semidefinite matrix over generator pairs.  The index convention is the
    one :class:`~tclkraus.tcl.Tcl2Generator` implements: the memory
    integral of generator a is L_a = (1/2) sum_b conj(gamma_ab) v_b for
    t > 0, i.e. chi_ab(u) = (conj(gamma_ab) / 2) delta(u) = (gamma_ba / 2)
    delta(u) with the delta counted fully at the endpoint u = 0.  The TCL2
    dissipator sum_a ([L_a rho, v_a] + [v_a, rho L_a^dag]) then equals the
    Lindblad form (1/2) sum_ab gamma_ab ([v_a rho, v_b] + [v_a, rho v_b]).
    """

    def __init__(self, gamma):
        g = np.asarray(gamma, dtype=complex)
        if g.ndim == 0:
            if g.real < 0 or abs(g.imag) > 0:
                raise ValidationError(f"scalar rate must be real >= 0, got {gamma}")
            self.gamma = float(g.real)
        elif g.ndim == 2:
            g = check_hermitian(g, "gamma")
            min_eig = float(np.linalg.eigvalsh(g).min())
            scale = max(float(np.abs(g).max()), 1.0)
            if min_eig < -1e-12 * scale:
                raise ValidationError(
                    f"gamma must be positive semidefinite, min eigenvalue {min_eig:.3e}"
                )
            self.gamma = g
        else:
            raise ValidationError(f"gamma must be scalar or matrix, got ndim {g.ndim}")

    @property
    def is_scalar(self):
        return np.isscalar(self.gamma) or np.ndim(self.gamma) == 0

    def rate_matrix(self, n_gen):
        """gamma as an (n_gen, n_gen) matrix."""
        if self.is_scalar:
            if n_gen != 1:
                raise ValidationError(
                    f"scalar rate given but {n_gen} generators present"
                )
            return np.array([[self.gamma]], dtype=complex)
        g = np.asarray(self.gamma)
        if g.shape[0] != n_gen:
            raise ValidationError(
                f"rate matrix is {g.shape[0]}x{g.shape[0]} but {n_gen} generators present"
            )
        return g

    def correlation(self, t):
        raise ValidationError(
            "the white-noise correlation is a delta distribution and has no "
            "pointwise values; use the rate matrix"
        )


def double_time_integral(bath, t):
    """Iterated correlation integral f(t) = int_0^t ds int_0^s dtau conj(chi(tau - s)).

    Evaluated through the single-integral reduction
    f(t) = int_0^t (t - u) conj(chi(-u)) du.  For the white-noise model the
    delta sits at the endpoint of the inner integral and counts with full
    weight there (the convention of :mod:`tclkraus.tcl`), giving
    f(t) = gamma t / 2.
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if isinstance(bath, MarkovianBath):
        g = bath.gamma if bath.is_scalar else np.asarray(bath.gamma)
        return 0.5 * g * t
    if t == 0.0:
        return 0.0 + 0.0j
    return integrate_scalar(
        lambda u: (t - u) * np.conj(bath.correlation(-u)), 0.0, t
    )
