"""Deterministic desk-scale test systems.

Three families stand in for the usual large benchmark classes:
`weakly_damped` (clustered lightly damped oscillator pairs, the regime
where time-limited reduction pays off), `heat_like` (symmetric negative
definite stiffness with an SPD mass matrix), and `random_stable`
(shifted dense random matrix). All generators are pure functions of
their arguments including the seed.
"""

import numpy as np
import scipy.sparse as sp

from .systems import GeneralizedSystem, StandardSystem

__all__ = ["make_synthetic", "KINDS"]

KINDS = ("weakly_damped", "heat_like", "random_stable")


def _weakly_damped(n, m, p, rng, damping):
    npairs = n // 2
    betas = np.geomspace(1.0, 10.0, npairs)
    # dampings spread upward from the nominal value so the spectral
    # abscissa is exactly -damping while mode lifetimes differ
    alphas = np.geomspace(damping, damping * 10.0, npairs)
    weights = 0.93 ** np.arange(npairs)
    a = np.zeros((n, n))
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    for j, (alpha, beta) in enumerate(zip(alphas, betas)):
        i = 2 * j
        a[i, i] = a[i + 1, i + 1] = -alpha
        a[i, i + 1] = beta
        a[i + 1, i] = -beta
        b[i : i + 2, :] *= weights[j]
        c[:, i : i + 2] *= weights[j]
    if n % 2:
        a[-1, -1] = -damping
    return StandardSystem(a, b, c)


def _heat_like(n, m, p, rng):
    scale = (n + 1) ** 2 / np.pi**2
    main = -2.0 * scale * np.ones(n)
    off = scale * np.ones(n - 1)
    a = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    mass = sp.diags(
        [np.ones(n - 1) / 6.0, 4.0 * np.ones(n) / 6.0, np.ones(n - 1) / 6.0],
        [-1, 0, 1],
        format="csc",
    )
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return GeneralizedSystem(mass, a, b, c)


def _random_stable(n, m, p, rng):
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    shift = np.max(np.linalg.eigvals(g).real) + 0.5
    a = g - shift * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return StandardSystem(a, b, c)


def make_synthetic(kind, n, m=1, p=1, seed=0, damping=0.05):
    """Build a deterministic synthetic system of the requested family.

    ``weakly_damped`` places underdamped eigenvalue pairs
    -alpha_j +/- i*beta_j with beta_j log-spaced over [1, 10] and alpha_j
    log-spaced over [damping, 10*damping] (spectral abscissa = -damping);
    input/output couplings decay geometrically by 0.93 per pair so the
    Hankel values fall off. ``heat_like`` returns
    a generalized system with A < 0 and M > 0; ``random_stable`` a
    shifted random dense system.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    if kind == "weakly_damped":
        return _weakly_damped(n, m, p, rng, damping)
    if kind == "heat_like":
        return _heat_like(n, m, p, rng)
    if kind == "random_stable":
        return _random_stable(n, m, p, rng)
    raise ValueError(f"unknown synthetic kind {kind!r}; choose from {KINDS}")
