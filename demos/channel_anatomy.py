"""From two-time moments to a canonical operator set, step by step.

The second-order evolution map at time t is assembled from two moments of the
interaction: a damping term B (one-sided, contracted) and a jump term A
(two-sided). Arranged with the composite-index pairing (a,n),(b,m), the map
becomes a Hermitian matrix; its eigendecomposition gives the canonical
operator set, one operator per nonzero eigenvalue. This script prints each
stage for the single-mode dephasing bath, then shows the two policing
mechanisms: unitary remixes (same channel, different sets) and clipping of
the tiny negative eigenvalues that a truncated expansion can produce.
"""

import numpy as np

from tclkraus import (
    DiscreteBath,
    SIGMA_X,
    SIGMA_Z,
    SystemHamiltonian,
    apply_channel,
    assemble_channel,
    canonical_kraus,
    channel_matrix_from_kraus,
    damping_term,
    double_time_integral,
    jump_term,
    kraus_equivalent,
    to_schrodinger,
)

EPS0 = 1.0
h_s = SystemHamiltonian(0.5 * EPS0 * SIGMA_Z)
bath = DiscreteBath([(0.05, 1.0)], 0.0)
T = 2.0

print(f"=== moments at t = {T} (dephasing: both are multiples of closed forms) ===")
f = double_time_integral(bath, T)
b = damping_term(T, h_s, [SIGMA_Z], bath)
a = jump_term(T, h_s, [SIGMA_Z], bath)
print(f"f(t)              = {f:.6e}")
print(f"B (should be f*I):\n{np.array_str(b, precision=3)}")
print(f"||A||_max         = {np.abs(a).max():.4e}  (2 Re f = {2 * f.real:.4e})")

print()
print("=== assembled channel matrix ===")
ch = assemble_channel(T, b, a, h_s)
evals = np.linalg.eigvalsh(ch.matrix)
print(f"hermiticity deviation: {ch.herm_dev:.2e}")
print(f"eigenvalues: {np.array_str(evals, precision=6)}")
print("(2 - 4 Re f and 4 Re f up to O(f^2); two exact zeros)")

print()
print("=== canonical operator set ===")
kset = canonical_kraus(ch)
for lam, k in zip(kset.eigenvalues, kset.operators):
    print(f"eigenvalue {lam:.6f}:\n{np.array_str(k, precision=4)}")
print(f"completeness deviation: {kset.completeness_dev:.2e}")

print()
print("=== same channel, remixed set ===")
n = len(kset.operators)
rng = np.random.default_rng(7)
q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
remixed = type(kset)(
    operators=[sum(q[i, j] * kset.operators[j] for j in range(n))
               for i in range(n)],
    eigenvalues=list(kset.eigenvalues),
    picture=kset.picture,
    t=kset.t,
)
print(f"operators differ:   "
      f"{np.abs(remixed.operators[0] - kset.operators[0]).max():.3f}")
print(f"channels equal:     {kraus_equivalent(kset, remixed)}")
recon = np.abs(channel_matrix_from_kraus(kset) - ch.in_computational_basis()).max()
print(f"reconstruction dev: {recon:.2e}")

print()
print("=== clipping: transverse coupling has a genuine O(g^4) negative ===")
h_x = SystemHamiltonian(0.25 * SIGMA_Z)
bath2 = DiscreteBath([(0.05, 1.0), (0.05, 1.7)], 0.0)
b2 = damping_term(6.0, h_x, [SIGMA_X], bath2)
a2 = jump_term(6.0, h_x, [SIGMA_X], bath2)
ch2 = assemble_channel(6.0, b2, a2, h_x)
k2 = canonical_kraus(ch2)
print(f"clipped eigenvalues: {[f'{c:.2e}' for c in k2.clipped]}")
print(f"CP budget 1e-8 + 10 ||B||_max^2 = {ch2.cp_budget:.2e}")
print("(anything more negative than the budget raises CPViolationError)")

print()
print("=== lab frame ===")
plus = 0.5 * np.ones((2, 2), dtype=complex)
lab = to_schrodinger(kset, h_s)
out = apply_channel(lab, plus)
print(f"coherence after the channel: {out[0, 1]:.6f}")
print(f"expected (1 - 4 Re f)/2 * exp(-i eps0 t): "
      f"{0.5 * (1 - 4 * f.real) * np.exp(-1j * EPS0 * T):.6f}")
