import numpy as np
import pytest
import scipy.sparse as sp

from solve_fingerprint import random_descriptor  # noqa: F401  (one copy, shared with the tool)
from tlbt.synthetic import make_synthetic
from tlbt.systems import DescriptorIndex1


def random_stable_matrix(n, rng, margin=0.5):
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    return g - (np.max(np.linalg.eigvals(g).real) + margin) * np.eye(n)


def banded_descriptor(nf, na, m, p, seed):
    """Sparse index-1 descriptor whose eliminated pencil is symmetric negative definite.

    M1, A1 come from heat_like; A4 = -diag(2 + U[0,1)); A2 couples each
    algebraic state to its own band of nf / na differential states and
    A3 = -A2^T, so the block pencil's LU stays banded.
    """
    heat = make_synthetic("heat_like", nf, m, p, seed=seed)
    rng = np.random.default_rng([seed, 1])
    a2 = sp.kron(sp.identity(na), rng.standard_normal((nf // na, 1)), format="csc")
    return DescriptorIndex1(
        M1=heat.M, A1=heat.A, A2=a2, A3=(-a2.T).tocsc(),
        A4=sp.diags(-(2.0 + rng.random(na)), format="csc"),
        B1=heat.B, B2=rng.standard_normal((na, m)),
        C1=heat.C, C2=rng.standard_normal((p, na)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
