import numpy as np
import pytest

from tlbt.synthetic import make_synthetic
from tlbt.systems import GeneralizedSystem, spectral_abscissa


def test_weakly_damped_abscissa_matches_damping():
    s = make_synthetic("weakly_damped", 40, 1, 1, seed=0, damping=0.05)
    assert abs(spectral_abscissa(s) - (-0.05)) < 1e-12
    # odd n: the last state is the real mode -damping, at the abscissa
    s = make_synthetic("weakly_damped", 41, 1, 1, seed=0, damping=0.03)
    assert s.A[-1, -1] == -0.03
    assert abs(spectral_abscissa(s) - (-0.03)) < 1e-12


def test_weakly_damped_underdamped_pairs():
    s = make_synthetic("weakly_damped", 30, 1, 1, seed=1)
    vals = np.linalg.eigvals(np.asarray(s.A))
    complex_modes = vals[np.abs(vals.imag) > 1e-12]
    assert complex_modes.size == 30 - (30 % 2)
    assert np.all(np.abs(complex_modes.imag) > np.abs(complex_modes.real))


def test_heat_like_definiteness():
    g = make_synthetic("heat_like", 50, 1, 1, seed=0)
    assert isinstance(g, GeneralizedSystem)
    a = g.A.toarray()
    m = g.M.toarray()
    assert np.allclose(a, a.T) and np.allclose(m, m.T)
    assert np.max(np.linalg.eigvalsh(a)) < 0
    assert np.min(np.linalg.eigvalsh(m)) > 0


def test_random_stable_is_stable():
    for seed in range(5):
        s = make_synthetic("random_stable", 25, 2, 2, seed=seed)
        assert spectral_abscissa(s) < 0


def test_seed_reproducibility():
    a = make_synthetic("weakly_damped", 20, 2, 2, seed=9)
    b = make_synthetic("weakly_damped", 20, 2, 2, seed=9)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)
    c = make_synthetic("weakly_damped", 20, 2, 2, seed=10)
    assert not np.array_equal(a.B, c.B)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_synthetic("bogus", 10)
    with pytest.raises(ValueError):
        make_synthetic("heat_like", 1)
