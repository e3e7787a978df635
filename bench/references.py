"""Independent references the benchmark checks the package's outputs against.

None of these goes through the package's quadrature, ODE integration or
channel code; each is a closed form, a plain single `scipy.integrate.quad`,
or a matrix exponential of a superoperator built here.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

#: ohmic spectral integrals are cut at this multiple of omega_c (exp(-45) ~ 3e-20)
OHMIC_TAIL = 45.0


def _bose(omega, temperature):
    return 0.0 if temperature == 0.0 else 1.0 / np.expm1(omega / temperature)


def _exp_integral(a, t):
    """int_0^t exp(-i a u) du, elementwise in a."""
    a = np.asarray(a, dtype=float)
    small = np.abs(a * t) < 1e-8
    safe = np.where(small, 1.0, a)
    return np.where(small, t + 0.0j, (1.0 - np.exp(-1j * safe * t)) / (1j * safe))


def tcl2_discrete_trajectory(h, v, modes, temperature, rho0, times):
    """TCL2 trajectory for one generator and a discrete bath, closed-form kernel.

    The memory operator L(t) = int_0^t chi(u) v(-u) du is summed in closed
    form over the Bohr frequencies of h, then
    d rho/dt = -i[h, rho] + [L rho, v] + [v, rho L^dag]
    is integrated with DOP853 at rtol 1e-12 / atol 1e-14.
    """
    h = np.asarray(h, dtype=complex)
    v = np.asarray(v, dtype=complex)
    energies, w = np.linalg.eigh(h)
    gaps = energies[:, None] - energies[None, :]
    v_eig = w.conj().T @ v @ w
    d = h.shape[0]

    def memory(t):
        gamma = np.zeros((d, d), dtype=complex)
        for g, omega in modes:
            nbar = _bose(omega, temperature)
            gamma += abs(g) ** 2 * ((nbar + 1.0) * _exp_integral(omega + gaps, t)
                                    + nbar * _exp_integral(gaps - omega, t))
        return w @ (v_eig * gamma) @ w.conj().T

    def rhs(t, y):
        rho = y.reshape(d, d)
        lam = memory(t)
        lam_rho = lam @ rho
        rho_lam = rho @ lam.conj().T
        out = (-1j * (h @ rho - rho @ h)
               + lam_rho @ v - v @ lam_rho + v @ rho_lam - rho_lam @ v)
        return out.reshape(-1)

    sol = solve_ivp(rhs, (0.0, float(times[-1])),
                    np.asarray(rho0, dtype=complex).reshape(-1), method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=np.asarray(times, dtype=float))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(-1, d, d)


def lindblad_trajectory(h, generators, gamma, rho0, times):
    """exp(t L) rho0 for the Lindblad generator, by dense matrix exponential.

    L rho = -i[h, rho] + (1/2) sum_ab gamma_ab ([v_a rho, v_b] + [v_a, rho v_b]).
    """
    h = np.asarray(h, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex)
    d = h.shape[0]

    def action(rho):
        out = -1j * (h @ rho - rho @ h)
        for a, va in enumerate(generators):
            for b, vb in enumerate(generators):
                out += 0.5 * gamma[a, b] * (va @ rho @ vb - vb @ va @ rho
                                            + va @ rho @ vb - rho @ vb @ va)
        return out

    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    superop = np.stack([action(e).reshape(-1) for e in units], axis=1)
    y0 = np.asarray(rho0, dtype=complex).reshape(-1)
    return np.array([(expm(superop * t) @ y0).reshape(d, d) for t in times])


def decoherence_function(eta, omega_c, temperature, t):
    """Ohmic memory integral f(t) as one spectral integral per time.

    f(t) = int J(w)/w^2 [coth(w/2T)(1 - cos wt) + i(sin wt - wt)] dw with
    J(w) = eta w exp(-w/omega_c) (Palma, Suominen & Ekert, Proc. R. Soc. A
    452, 567 (1996)); 1 - cos wt is written 2 sin^2(wt/2) to keep the small-w
    end free of cancellation.
    """
    def integrand(omega):
        if omega == 0.0:
            return eta * temperature * t * t if temperature > 0 else 0.0
        j_over_w2 = eta * np.exp(-omega / omega_c) / omega
        therm = 1.0 / np.tanh(omega / (2.0 * temperature)) if temperature > 0 else 1.0
        return j_over_w2 * (therm * 2.0 * np.sin(0.5 * omega * t) ** 2
                            + 1j * (np.sin(omega * t) - omega * t))

    val, _ = quad(integrand, 0.0, OHMIC_TAIL * omega_c, epsabs=1e-15,
                  epsrel=1e-12, limit=800, complex_func=True)
    return complex(val)
