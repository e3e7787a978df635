"""Closed-form single-qubit dephasing channel.

System H_s = (eps0/2) sigma_z coupled through sigma_z to a scalar bath.
With the iterated correlation integral m(t) (:func:`~tclkraus.baths.double_time_integral`)
the closed-form operator pair in the interaction picture is

    K0 = (1 - m) I,      K1 = sqrt(2 Re m - |m|^2) sigma_z,

whose completeness |1-m|^2 + 2 Re m - |m|^2 = 1 is an exact algebraic
identity.  The channel action multiplies off-diagonals by 1 - 2 p with
p = 2 Re m - |m|^2 and leaves populations untouched.  This is the golden
analytic reference the rest of the package is validated against.

The pair's channel is exactly polynomial in m: it equals the Born-order map
of :mod:`tclkraus.channel` for v = sigma_z, rho -> (1 - 2 Re m) rho
+ 2 Re m sigma_z rho sigma_z, plus the fourth-order term
|m|^2 (rho - sigma_z rho sigma_z).  The paper's abstract alone does not
settle which of the two is its operator-sum form.

For a white-noise bath m(t) = gamma t / 2 under the endpoint convention of
:mod:`tclkraus.tcl`, so the coherence 1 - 2 gamma t + (gamma t)^2 / 2
matches the Lindblad factor exp(-2 gamma t) through first order.
"""

from __future__ import annotations

import numpy as np

from .baths import double_time_integral
from .channel import KrausSet
from .linalg import (
    SIGMA_Z,
    SystemHamiltonian,
    ValidationError,
    check_density_matrix,
)
from .tcl import Trajectory

#: roundoff guard for p slightly below 0 at tiny times (not a physics clip)
_P_ROUNDOFF = 1e-12

#: grid points of the validity scan in :meth:`DephasingModel.first_invalid_time`
SCAN_POINTS = 512


class BornValidityError(ValueError):
    """The dephasing weight left [0, 1]: outside Born validity."""


def pair_weight(memory_value, t=None):
    """p = 2 Re m - |m|^2 for a memory value m; raises outside [0, 1]."""
    m = complex(memory_value)
    p = 2.0 * m.real - abs(m) ** 2
    where = "" if t is None else f" at t = {t:g}"
    if p > 1.0:
        raise BornValidityError(
            f"dephasing weight p = {p:.6g} > 1{where}: outside Born validity"
        )
    if p < 0.0:
        if p < -_P_ROUNDOFF:
            raise BornValidityError(
                f"dephasing weight p = {p:.6g} < 0{where}: outside Born validity"
            )
        p = 0.0
    return float(p)


def kraus_pair(memory_value, t=0.0):
    """Closed-form interaction-picture pair for a given memory value.

    K0 = (1 - m) I and K1 = sqrt(2 Re m - |m|^2) sigma_z; their completeness
    sum is the identity exactly, for any complex m inside validity.
    """
    m = complex(memory_value)
    p = pair_weight(m)
    k0 = (1.0 - m) * np.eye(2, dtype=complex)
    k1 = np.sqrt(p) * SIGMA_Z
    return KrausSet(operators=[k0, k1], eigenvalues=[],
                    picture="interaction", t=float(t))


def _scale_coherence(rho, c):
    out = rho.copy()
    out[0, 1] *= c
    out[1, 0] *= c
    return out


class DephasingModel:
    """Level splitting eps0 plus a scalar bath correlation model."""

    def __init__(self, epsilon0, bath):
        self.epsilon0 = float(epsilon0)
        self.bath = bath
        self.h_s = SystemHamiltonian(0.5 * self.epsilon0 * SIGMA_Z)

    def memory_integral(self, t):
        """The iterated bath-correlation integral at time t."""
        return complex(double_time_integral(self.bath, t))

    def dephasing_probability(self, t):
        """p(t) = 2 Re m - |m|^2; raises outside [0, 1]."""
        return pair_weight(self.memory_integral(t), t)

    def coherence_factor(self, t):
        """1 - 2 p(t), the off-diagonal multiplier (interaction picture)."""
        return 1.0 - 2.0 * self.dephasing_probability(t)

    def first_invalid_time(self, t_max):
        """First time of a SCAN_POINTS grid on [0, t_max] where the weight leaves [0, 1].

        Algebraically p = 1 - |1 - m|^2 can never exceed 1, so invalidity
        always shows up as p dropping below zero (|1 - m| > 1).  Returns None
        when the whole grid is valid.
        """
        for t in np.linspace(0.0, float(t_max), SCAN_POINTS)[1:]:
            try:
                pair_weight(self.memory_integral(t))
            except BornValidityError:
                return float(t)
        return None

    def kraus(self, t):
        return kraus_pair(self.memory_integral(t), t)

    def apply(self, t, rho0):
        rho0 = check_density_matrix(np.asarray(rho0, dtype=complex), "rho0")
        return _scale_coherence(rho0, self.coherence_factor(t))

    def trajectory(self, times, rho0, picture="schrodinger"):
        """Channel action sampled on a grid.

        In the Schrodinger picture the interaction-picture output is
        conjugated by the free propagator, which multiplies the coherence
        by exp(-i eps0 t).
        """
        return self.trajectory_from_table(self.table(times), rho0, picture)

    def trajectory_from_table(self, rows, rho0, picture="schrodinger"):
        """:meth:`trajectory` on the times and coherences of :meth:`table` rows."""
        rho0 = check_density_matrix(np.asarray(rho0, dtype=complex), "rho0")
        if picture not in ("schrodinger", "interaction"):
            raise ValidationError(f"unknown picture {picture!r}")
        states = []
        for t, c in rows[:, [0, 4]]:
            s = _scale_coherence(rho0, c)
            if picture == "schrodinger":
                u = self.h_s.propagator(t)
                s = u @ s @ u.conj().T
            states.append(s)
        return Trajectory(rows[:, 0], np.array(states))

    def table(self, times):
        """Rows of (t, Re m, Im m, p, 1 - 2p)."""
        rows = []
        for t in np.asarray(times, dtype=float):
            m = self.memory_integral(t)
            p = pair_weight(m, t)
            rows.append([t, m.real, m.imag, p, 1.0 - 2.0 * p])
        return np.array(rows)


def write_table_csv(path, rows):
    """Write :meth:`DephasingModel.table` rows as CSV."""
    lines = ["t,re_f,im_f,p,coherence"]
    for row in rows:
        lines.append(",".join(f"{x:.17e}" for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
