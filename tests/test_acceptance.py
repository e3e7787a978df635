"""Acceptance gates: one verdict line per numbered criterion.

Each criterion test prints "[criterion-N] ...: PASS/FAIL (metric=...)" and the
collected lines are echoed after the run summary (conftest hook).

Criterion 2 checks the general pipeline against the closed-form dephasing pair
through second order, the order the pipeline claims. The assembled channel is
the Born-order map, the pair's channel is exactly polynomial in m, and the two
differ by the fourth-order term |m|^2 (rho - sigma_z rho sigma_z). The gate
removes that term from the pair's superoperator algebraically and compares
the whole 4x4 superoperator, both as assembled and as rebuilt from its
canonical Kraus set, at 1e-8. The two companion tests right after it pin the
pipeline's coherence factor and its full gap to the pair, |f(t)|^2.
"""

import time

import numpy as np

from conftest import random_density
from tclkraus import (
    DephasingModel,
    DiscreteBath,
    MarkovianBath,
    OhmicBath,
    SIGMA_X,
    SIGMA_Z,
    SystemHamiltonian,
    Tcl2Generator,
    TotalSystem,
    TruncatedBath,
    apply_channel,
    assemble_channel,
    bath_correlation_exact,
    canonical_kraus,
    channel_at,
    channel_matrix_from_kraus,
    damping_term,
    double_time_integral,
    evolve_exact,
    integrate,
    jump_term,
    kraus_equivalent,
    kraus_pair,
    reduce_to_lindblad,
    to_schrodinger,
    trace_distance,
)
from test_baths import f_by_nested_quadrature

PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)

_LINES = []


def criterion_lines():
    return list(_LINES)


def _record(num, label, ok, detail):
    line = f"[criterion-{num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    _LINES.append(line)
    print(line)
    return ok


# --------------------------------------------------------------- criterion 1


def test_criterion_1_pair_completeness(rng):
    worst = 0.0
    drawn = 0
    while drawn < 100:
        m = complex(rng.uniform(-0.2, 1.2), rng.uniform(-0.7, 0.7))
        if abs(1.0 - m) > 1.0:  # weight would be negative
            continue
        k0, k1 = kraus_pair(m).operators
        dev = np.abs(k0.conj().T @ k0 + k1.conj().T @ k1 - np.eye(2)).max()
        worst = max(worst, dev)
        drawn += 1
    ok = _record(1, "dephasing pair completeness, 100 random memory values",
                 worst <= 1e-13, f"metric={worst:.3e}")
    assert ok


# --------------------------------------------------------------- criterion 2


def _criterion_2_setup():
    bath = DiscreteBath([(0.05, 1.0)], 0.0)
    h = SystemHamiltonian(0.5 * SIGMA_Z)  # eps0 = 1
    model = DephasingModel(1.0, bath)
    times = np.linspace(0.0, 5.0, 20)
    return bath, h, model, times


def test_criterion_2_pipeline_vs_closed_pair():
    t0 = time.perf_counter()
    bath, h, _, times = _criterion_2_setup()
    vec_i = np.eye(2, dtype=complex).reshape(-1)
    vec_z = SIGMA_Z.reshape(-1)
    fourth_order = np.outer(vec_i, vec_i.conj()) - np.outer(vec_z, vec_z.conj())
    worst = 0.0
    for t in times:
        m = double_time_integral(bath, float(t))
        # the pair's channel without its |m|^2 (rho - Z rho Z) term
        reference = (channel_matrix_from_kraus(kraus_pair(m, float(t)))
                     - abs(m) ** 2 * fourth_order)
        ch = channel_at(float(t), h, [SIGMA_Z], bath)
        for pipeline in (ch.in_computational_basis(),
                         channel_matrix_from_kraus(canonical_kraus(ch))):
            worst = max(worst, float(np.abs(pipeline - reference).max()))
    runtime = time.perf_counter() - t0
    ok = _record(2, "assembled channel vs closed-form pair through second "
                    "order, 20 times in [0,5]",
                 worst <= 1e-8 and runtime <= 30.0,
                 f"metric={worst:.3e}, runtime={runtime:.1f}s")
    assert ok, (
        f"the assembled channel or its canonical Kraus set departs from the "
        f"closed-form pair's second-order part by {worst:.3e} (bound 1e-8), "
        f"or the check took {runtime:.1f}s (bound 30s)"
    )


def test_companion_pipeline_coherence_is_second_order_exact():
    # the assembled channel multiplies the coherence by exactly 1 - 4 Re f
    bath, h, model, times = _criterion_2_setup()
    for t in (0.7, 2.0, 4.6):
        f = double_time_integral(bath, t)
        kset = canonical_kraus(channel_at(t, h, [SIGMA_Z], bath))
        out = apply_channel(kset, PLUS)
        assert abs(out[0, 1] - 0.5 * (1.0 - 4.0 * f.real)) < 1e-9


def test_companion_pipeline_pair_gap_is_f_squared():
    # ... so its distance to the pair (weight 2 Re f - |f|^2) is |f|^2
    bath, h, model, times = _criterion_2_setup()
    for t in times[1:]:
        f = double_time_integral(bath, float(t))
        kset = canonical_kraus(channel_at(float(t), h, [SIGMA_Z], bath))
        gap = trace_distance(apply_channel(kset, PLUS),
                             model.apply(float(t), PLUS))
        assert abs(gap - abs(f) ** 2) < 1e-10


# --------------------------------------------------------------- criterion 3


def test_criterion_3_delta_collapses_to_lindblad(rng):
    gen = Tcl2Generator(SystemHamiltonian(0.5 * SIGMA_Z), [SIGMA_Z],
                        MarkovianBath(0.4))
    lind = reduce_to_lindblad(gen)
    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, 2)
        for t in (0.5, 1.0, 2.0):
            diff = gen.dissipator(t, rho) - lind.dissipator(rho)
            worst = max(worst, float(np.abs(diff).max()))
    ok = _record(3, "white-noise dissipator vs Lindblad, 20 random states",
                 worst <= 1e-10, f"metric={worst:.3e}")
    assert ok


# --------------------------------------------------------------- criterion 4


def test_criterion_4_exact_oracle_weak_coupling():
    t0 = time.perf_counter()
    h = SystemHamiltonian(0.25 * SIGMA_Z)
    times = np.linspace(0.0, 10.0, 21)

    def max_td(g, n_max=7):
        bath = DiscreteBath([(g, 1.0), (g, 1.7)], 0.0)
        traj = integrate(Tcl2Generator(h, [SIGMA_X], bath), PLUS, times)
        total = TotalSystem(h, [SIGMA_X], TruncatedBath.from_discrete(bath, n_max))
        exact = evolve_exact(total, PLUS, times)
        return max(trace_distance(a, b)
                   for a, b in zip(traj.states, exact.states))

    err = max_td(0.05)
    ratio = err / max_td(0.025)

    # reference-trajectory truncation sensitivity at the working coupling
    bath = DiscreteBath([(0.05, 1.0), (0.05, 1.7)], 0.0)
    ex = [evolve_exact(
            TotalSystem(h, [SIGMA_X], TruncatedBath.from_discrete(bath, n)),
            PLUS, times)
          for n in (7, 9)]
    shift = max(trace_distance(a, b) for a, b in zip(ex[0].states, ex[1].states))

    runtime = time.perf_counter() - t0
    ok = _record(
        4, "TCL2 vs exact reduced dynamics, transverse coupling, 2 modes",
        err <= 5e-3 and ratio >= 8.0 and shift <= 1e-8 and runtime <= 60.0,
        f"metric={err:.3e}, halving_ratio={ratio:.1f}, "
        f"truncation_shift={shift:.1e}, runtime={runtime:.1f}s",
    )
    assert ok


# --------------------------------------------------------------- criterion 5


def test_criterion_5_correlation_cross_validation():
    bath = DiscreteBath([(0.1, 1.0), (0.08 + 0.03j, 1.6)], 1.0)
    truncated = TruncatedBath.from_discrete(bath, 30)
    times = np.linspace(0.0, 5.0, 50)
    worst = max(abs(bath.correlation(float(t))
                    - bath_correlation_exact(truncated, float(t)))
                for t in times)
    ok = _record(5, "thermal correlation, model vs truncated-ladder trace",
                 worst <= 1e-8, f"metric={worst:.3e}")
    assert ok


# --------------------------------------------------------------- criterion 6


def test_criterion_6_single_vs_nested_quadrature(rng):
    worst = 0.0
    for k in range(10):
        kind = k % 3
        if kind == 0:
            g = complex(rng.uniform(0.05, 0.3), rng.uniform(-0.2, 0.2))
            bath = DiscreteBath([(g, rng.uniform(0.6, 2.2))], 0.0)
        elif kind == 1:
            modes = [(complex(rng.uniform(0.05, 0.2), rng.uniform(-0.1, 0.1)),
                      rng.uniform(0.6, 2.2)) for _ in range(2)]
            bath = DiscreteBath(modes, rng.uniform(0.5, 1.5))
        else:
            # T = 0 keeps the correlation closed-form, so the nested
            # reference stays a plain 2-D quadrature
            bath = OhmicBath(rng.uniform(0.1, 0.5), rng.uniform(1.0, 3.0), 0.0)
        t = rng.uniform(0.3, 3.0)
        dev = abs(double_time_integral(bath, t)
                  - f_by_nested_quadrature(bath.correlation, t))
        worst = max(worst, dev)
    ok = _record(6, "memory integral, 1-D reduction vs nested 2-D quadrature",
                 worst <= 1e-8, f"metric={worst:.3e}")
    assert ok


# --------------------------------------------------------------- criterion 7


def test_criterion_7_invariant_suite(rng):
    # channels weak enough to be completely positive up to roundoff; the
    # genuinely negative O(g^4) eigenvalue of stronger transverse channels
    # is the clipping path, which criterion 8 bounds instead
    setups = [
        (SystemHamiltonian(0.5 * SIGMA_Z), [SIGMA_Z],
         DiscreteBath([(0.05, 1.0)], 0.0), 2.5),
        (SystemHamiltonian(0.25 * SIGMA_Z), [SIGMA_X],
         DiscreteBath([(0.002, 1.0), (0.002, 1.7)], 0.0), 2.0),
        (SystemHamiltonian(0.5 * SIGMA_Z), [SIGMA_Z],
         OhmicBath(0.02, 2.0, 0.0), 1.5),
    ]
    trace_dev = herm_dev = recon_dev = 0.0
    first_set = None
    for h, gens, bath, t in setups:
        ch = channel_at(t, h, gens, bath)
        kset = canonical_kraus(ch)
        if first_set is None:
            first_set = kset
        recon_dev = max(recon_dev, float(np.abs(
            channel_matrix_from_kraus(kset) - ch.in_computational_basis()
        ).max()))
        for _ in range(5):
            out = apply_channel(kset, random_density(rng, 2))
            trace_dev = max(trace_dev, abs(float(np.trace(out).real) - 1.0)
                            + abs(float(np.trace(out).imag)))
            herm_dev = max(herm_dev, float(np.abs(out - out.conj().T).max()))

    remix_ok = True
    n = len(first_set.operators)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(n + 1, n + 1))
                            + 1j * rng.normal(size=(n + 1, n + 1)))
        padded = first_set.operators + [np.zeros((2, 2), complex)]
        remixed = type(first_set)(
            operators=[sum(q[i, j] * padded[j] for j in range(n + 1))
                       for i in range(n + 1)],
            eigenvalues=list(first_set.eigenvalues) + [0.0],
            picture=first_set.picture,
            t=first_set.t,
        )
        remix_ok = remix_ok and kraus_equivalent(first_set, remixed)

    sym_dev = 0.0
    for bath in (DiscreteBath([(0.1, 1.0), (0.06 + 0.04j, 1.9)], 1.0),
                 OhmicBath(0.3, 2.0, 1.3), OhmicBath(0.3, 2.0, 0.0)):
        for t in np.linspace(0.1, 4.0, 9):
            sym_dev = max(sym_dev, abs(bath.correlation(-t)
                                       - np.conj(bath.correlation(t))))

    ok = _record(
        7, "invariants: trace, hermiticity, reconstruction, remix, symmetry",
        (trace_dev <= 1e-9 and herm_dev <= 1e-9 and recon_dev <= 1e-10
         and remix_ok and sym_dev <= 1e-14),
        f"metric={max(trace_dev, herm_dev, recon_dev, sym_dev):.3e}, "
        f"remixes={'ok' if remix_ok else 'BROKEN'}",
    )
    assert ok


# --------------------------------------------------------------- criterion 8


def test_criterion_8_cp_clip_policy():
    clips = []
    max_b = 0.0

    def scan(h, gens, bath, times):
        nonlocal max_b
        for t in times:
            b = damping_term(float(t), h, gens, bath)
            a = jump_term(float(t), h, gens, bath)
            kset = canonical_kraus(assemble_channel(float(t), b, a, h))
            clips.extend(kset.clipped)
            max_b = max(max_b, float(np.abs(b).max()))

    # the channel grids exercised across the acceptance scenarios
    scan(SystemHamiltonian(0.5 * SIGMA_Z), [SIGMA_Z],
         DiscreteBath([(0.05, 1.0)], 0.0), np.linspace(0.0, 5.0, 20))
    scan(SystemHamiltonian(0.25 * SIGMA_Z), [SIGMA_X],
         DiscreteBath([(0.05, 1.0), (0.05, 1.7)], 0.0), (2.0, 6.0, 10.0))
    scan(SystemHamiltonian(0.5 * SIGMA_Z), [SIGMA_Z],
         DiscreteBath([(0.0, 1.0)], 0.0), (1.0, 2.0))

    bound = 10.0 * max_b**2
    worst = max((abs(c) for c in clips), default=0.0)
    ok = _record(8, "every clipped channel eigenvalue within the CP budget",
                 worst <= bound,
                 f"metric={worst:.3e}, budget={bound:.3e}, n_clipped={len(clips)}")
    assert ok
