"""Adaptive quadrature helpers.

Wraps scipy's Gauss-Kronrod machinery (`quad` for scalars, `quad_vec` for
array-valued integrands) with hard failure on non-convergence: a quadrature
that does not reach its tolerance raises instead of returning a silently
degraded value.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, quad_vec

#: default tolerances for correlation-function and double-time integrals
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-13


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def integrate_scalar(f, a, b, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, limit=500):
    """Integrate a complex scalar function over [a, b]."""
    val, err = quad(f, a, b, epsabs=atol, epsrel=rtol, limit=limit,
                    complex_func=True)
    # complex_func=True integrates parts separately; err comes back complex
    err = max(abs(np.real(err)), abs(np.imag(err)))
    bound = max(atol, rtol * abs(val)) * 10.0
    if err > bound:
        raise QuadratureError(
            f"scalar quadrature on [{a}, {b}] reached error {err:.3e} "
            f"(target {bound:.3e})"
        )
    return val


def integrate_array(f, a, b, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate an array-valued function over [a, b] (max-norm control)."""
    if b == a:
        return np.zeros_like(np.asarray(f(b), dtype=complex))
    val, err, info = quad_vec(f, a, b, epsabs=atol, epsrel=rtol, norm="max",
                              full_output=True)
    if not info.success:
        raise QuadratureError(
            f"array quadrature on [{a}, {b}] did not converge: "
            f"error estimate {err:.3e} after {info.neval} evaluations"
        )
    return np.asarray(val, dtype=complex)

