"""Closed-form dephasing channel: completeness, action, validity."""

import numpy as np
import pytest

from conftest import random_density
from tclkraus import (
    BornValidityError,
    DephasingModel,
    DiscreteBath,
    MarkovianBath,
    OhmicBath,
    apply_channel,
    kraus_pair,
    pair_weight,
)
from tclkraus.dephasing import write_table_csv

EPS0 = 1.0


def make_model(g=0.05, omega=1.0):
    return DephasingModel(EPS0, DiscreteBath([(g, omega)], 0.0))


def test_completeness_identity_for_random_memory_values(rng):
    # |1 - m|^2 + 2 Re m - |m|^2 = 1 is exact for any complex m in validity
    for _ in range(100):
        m = rng.normal(scale=0.2) ** 2 + 1j * rng.normal(scale=0.1)
        if 2.0 * m.real - abs(m) ** 2 < 0:
            m = abs(m.real) + 1j * m.imag * 0.01
        try:
            kset = kraus_pair(m)
        except BornValidityError:
            continue
        assert kset.completeness_dev < 1e-13


def test_pair_weight_formula():
    m = 0.1 + 0.05j
    assert abs(pair_weight(m) - (2 * 0.1 - abs(m) ** 2)) < 1e-15
    assert pair_weight(0.0) == 0.0


def test_pair_weight_validity_guards():
    # p = 1 - |1 - m|^2 <= 1 always, so invalidity is always p < 0
    with pytest.raises(BornValidityError):
        pair_weight(3.0)  # p = -3
    with pytest.raises(BornValidityError):
        pair_weight(0.5j)  # p = -0.25
    # roundoff-negative is clamped, not raised
    assert pair_weight(1e-8j) == 0.0
    assert pair_weight(1.0) == 1.0  # the algebraic maximum


def test_apply_matches_operator_sum(rng):
    model = make_model()
    for t in (0.3, 1.0, 2.5):
        rho = random_density(rng, 2)
        direct = model.apply(t, rho)
        summed = apply_channel(model.kraus(t), rho)
        assert np.abs(direct - summed).max() < 1e-12


def test_populations_and_hermiticity_preserved(rng):
    model = make_model()
    rho = random_density(rng, 2)
    out = model.apply(1.7, rho)
    assert abs(out[0, 0] - rho[0, 0]) < 1e-15
    assert abs(out[1, 1] - rho[1, 1]) < 1e-15
    assert np.abs(out - out.conj().T).max() < 1e-15
    assert abs(np.trace(out) - 1.0) < 1e-14


def test_kraus_shapes_and_picture():
    model = make_model()
    kset = model.kraus(1.2)
    assert kset.picture == "interaction"
    assert len(kset.operators) == 2
    m = model.memory_integral(1.2)
    assert np.abs(kset.operators[0] - (1.0 - m) * np.eye(2)).max() < 1e-15


def test_memory_integral_uses_bath():
    model = make_model(g=0.04, omega=1.3)
    m = model.memory_integral(2.0)
    g, w = 0.04, 1.3
    expected = g**2 * (1.0 - 1j * w * 2.0 - np.exp(-1j * w * 2.0)) / w**2
    assert abs(m - expected) < 1e-10


def test_white_noise_model_weight_grows_linearly():
    model = DephasingModel(EPS0, MarkovianBath(0.2))
    # m = gamma t / 2 -> p = gamma t - (gamma t / 2)^2
    t = 0.8
    m = 0.2 * t / 2.0
    assert abs(model.dephasing_probability(t) - (2 * m - m**2)) < 1e-14


def test_white_noise_coherence_matches_lindblad():
    # Lindblad dephasing through sigma_z at rate gamma: coherence exp(-2 gamma t)
    gamma, t = 0.5, 2e-3
    model = DephasingModel(EPS0, MarkovianBath(gamma))
    gt = gamma * t
    assert abs(model.coherence_factor(t) - np.exp(-2.0 * gt)) < 10.0 * gt**2


def test_strong_coupling_goes_invalid():
    model = make_model(g=2.0)
    t_bad = model.first_invalid_time(6.0)
    assert t_bad is not None
    with pytest.raises(BornValidityError):
        model.apply(6.0, 0.5 * np.array([[1, 1], [1, 1]], dtype=complex))


def test_weak_coupling_validity_window():
    model = make_model(g=0.05)
    # valid through t = 5 ...
    assert model.first_invalid_time(5.0) is None
    # ... but near the recurrence node omega t = 2 pi the oscillatory part of
    # Re m collapses while the secular |m|^2 term does not, so p dips below 0
    t_bad = model.first_invalid_time(10.0)
    assert t_bad is not None
    assert 5.5 < t_bad < 2.0 * np.pi


def test_trajectory_pictures():
    model = make_model()
    times = np.linspace(0.0, 3.0, 7)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    inter = model.trajectory(times, plus, picture="interaction")
    schro = model.trajectory(times, plus, picture="schrodinger")
    for i, t in enumerate(times):
        c = model.coherence_factor(float(t))
        assert abs(inter.states[i][0, 1] - 0.5 * c) < 1e-14
        assert abs(schro.states[i][0, 1] - 0.5 * c * np.exp(-1j * EPS0 * t)) < 1e-13


def test_table_csv_round_trip(tmp_path):
    model = make_model()
    times = np.linspace(0.0, 2.0, 5)
    path = tmp_path / "table.csv"
    write_table_csv(path, model.table(times))
    text = path.read_text().splitlines()
    assert text[0] == "t,re_f,im_f,p,coherence"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5, 5)
    table = model.table(times)
    assert np.abs(data - table).max() < 1e-16
    # column identity: coherence = 1 - 2p
    assert np.abs(data[:, 4] - (1.0 - 2.0 * data[:, 3])).max() < 1e-15


def test_ohmic_bath_also_works():
    model = DephasingModel(EPS0, OhmicBath(0.01, 1.0, 0.0))
    p = model.dephasing_probability(1.0)
    assert 0.0 < p < 1.0
