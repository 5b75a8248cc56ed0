import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla

from tlbt import linalg
from tlbt.errors import OverflowRangeError, SingularMatrixError, SpectrumConflictError
from tlbt.systems import _factor


def lu_solve(a, rhs):
    """The dense LU solve behind every shifted solve and integrator step."""
    return _factor(a, err=SingularMatrixError)(rhs)


def test_lu_solve_identity():
    b = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(lu_solve(np.eye(3), b), b)


def test_lu_solve_diagonal():
    x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_lu_solve_residual_oracle(rng):
    a = rng.standard_normal((8, 8)) + 4 * np.eye(8)
    b = rng.standard_normal(8)
    x = lu_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_lu_solve_complex(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 4 * np.eye(5)
    b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    x = lu_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_lu_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.ones(2))


def test_lu_solve_residual_bound_100_systems():
    # kappa up to 1e6 via constructed singular values
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    for trial in range(100):
        n = int(rng.integers(2, 12))
        kappa = 10.0 ** rng.uniform(0, 6)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.geomspace(1.0, 1.0 / kappa, n)
        a = u @ np.diag(s) @ v.T
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 100 * eps * kappa * np.linalg.norm(b)


def _extend(q, v):
    """Basis ``q`` extended in place by the columns of ``v`` that were kept."""
    v = v.reshape(q.shape[0], -1)
    buf = np.zeros((q.shape[0], q.shape[1] + v.shape[1]), order="F")
    buf[:, : q.shape[1]] = q
    return buf[:, : q.shape[1] + linalg.orthonormal_extend(buf, q.shape[1], v)]


def test_orthonormal_extend_already_orthogonal():
    q = np.eye(3)[:, :1]
    out = _extend(q, np.eye(3)[:, 1])
    assert out.shape == (3, 2)
    assert np.allclose(out.T @ out, np.eye(2), atol=1e-12)
    assert abs(abs(out[1, 1]) - 1.0) < 1e-12


def test_orthonormal_extend_deflates_dependent():
    q = np.eye(3)[:, :1]
    out = _extend(q, np.eye(3)[:, 0])
    assert out.shape == (3, 1)


def test_orthonormal_extend_hand_gram_schmidt():
    # (1,1,0) against e1 leaves (0,1,0): new column is +-e2
    q = np.eye(3)[:, :1]
    out = _extend(q, np.array([1.0, 1.0, 0.0]))
    assert out.shape == (3, 2)
    assert abs(abs(out[1, 1]) - 1.0) < 1e-12
    assert abs(out[0, 1]) < 1e-12 and abs(out[2, 1]) < 1e-12


def test_orthonormal_extend_block_orthogonality(rng):
    q = np.zeros((20, 0))
    for _ in range(4):
        q = _extend(q, rng.standard_normal((20, 3)))
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) < 1e-12


def test_svd_diagonal():
    u, s, v = linalg.svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])


def test_svd_zero():
    _, s, _ = linalg.svd(np.zeros((3, 2)))
    assert np.allclose(s, 0.0)


def test_svd_reconstruction(rng):
    a = rng.standard_normal((6, 4))
    u, s, v = linalg.svd(a)
    assert np.linalg.norm(a - u @ np.diag(s) @ v.T) <= 1e-12 * s[0]
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)


def test_sym_eig_sorted():
    values, _ = linalg.sym_eig(np.diag([-1.0, 2.0]))
    assert np.allclose(values, [2.0, -1.0])


def test_sym_eig_identity():
    values, _ = linalg.sym_eig(np.eye(4))
    assert np.allclose(values, 1.0)


def test_sym_eig_residual(rng):
    a = rng.standard_normal((10, 10))
    a = a + a.T
    values, vectors = linalg.sym_eig(a)
    res = a @ vectors - vectors @ np.diag(values)
    assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(a)


def test_sym_eig_psd_nonnegative(rng):
    for _ in range(10):
        z = rng.standard_normal((8, 5))
        values, _ = linalg.sym_eig(z @ z.T)
        assert np.all(values >= -1e-12 * values[0])


def test_gen_eig_rotation():
    vals = linalg.gen_eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(vals.real, 0.0, atol=1e-12)


def test_gen_eig_triangular():
    vals = linalg.gen_eig(np.array([[-1.0, 5.0], [0.0, -2.0]]))
    assert np.allclose(sorted(vals.real), [-2.0, -1.0])


def test_gen_eig_companion_root_oracle():
    # companion of s^2 + 3 s + 2 = (s + 1)(s + 2): roots -1, -2
    comp = np.array([[0.0, 1.0], [-2.0, -3.0]])
    vals = linalg.gen_eig(comp)
    assert np.allclose(sorted(vals.real), [-2.0, -1.0], atol=1e-12)
    assert np.allclose(vals.imag, 0.0, atol=1e-12)


def test_gen_eig_residual(rng):
    # every value makes A - lambda I singular, and they come sorted by real part
    a = rng.standard_normal((9, 9))
    vals = linalg.gen_eig(a)
    for lam in vals:
        smallest = np.linalg.svd(a - lam * np.eye(9), compute_uv=False)[-1]
        assert smallest <= 1e-11 * np.linalg.norm(a)
    assert np.all(np.diff(vals.real) <= 0)


def test_expm_zero():
    assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_of_an_empty_matrix():
    e = linalg.expm(np.zeros((0, 0)))
    assert e.shape == (0, 0) and e.dtype == float


@pytest.mark.parametrize(
    "call, message",
    [(lambda: linalg.gen_eig(np.ones((2, 3))), "A must be square"),
     (lambda: linalg.expm(np.ones((3, 2))), "A must be square"),
     (lambda: linalg.lyap_dense(np.ones((2, 3)), np.eye(2)), "A and W must be square"),
     (lambda: linalg.lyap_dense(-np.eye(2), np.eye(3)), "A and W must be square")],
    ids=["gen_eig", "expm", "lyap-non-square", "lyap-mismatched"],
)
def test_dense_kernels_refuse_non_square_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_expm_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(linalg.expm(a), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_diagonal_analytic():
    e = linalg.expm(np.diag([-1.0, -2.0]))
    assert abs(e[0, 0] - 0.36787944117144233) < 1e-15
    assert abs(e[1, 1] - 0.13533528323661270) < 1e-15
    assert abs(e[0, 1]) == 0.0


def test_expm_overflow():
    with pytest.raises(OverflowRangeError):
        linalg.expm(np.diag([1000.0, 1000.0]))


def test_expm_group_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        a *= 5.0 / np.linalg.norm(a, 2) * rng.uniform(0.2, 1.0)
        err = np.linalg.norm(linalg.expm(a) @ linalg.expm(-a) - np.eye(6), 2)
        assert err <= 1e-10


def test_expm_semigroup_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        a *= 2.0 / np.linalg.norm(a, 2)
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        whole = linalg.expm(a * (t1 + t2))
        parts = linalg.expm(a * t1) @ linalg.expm(a * t2)
        assert np.linalg.norm(whole - parts, 2) <= 1e-9 * np.linalg.norm(whole, 2)


def test_lyap_scaled_identity():
    w = np.ones((2, 2))
    x = linalg.lyap_dense(-0.5 * np.eye(2), w)
    assert np.allclose(x, w, atol=1e-13)


def test_lyap_scalar():
    x = linalg.lyap_dense(np.array([[-1.0]]), np.array([[2.0]]))
    assert abs(x[0, 0] - 1.0) < 1e-14


def test_lyap_kronecker_oracle(rng):
    n = 12
    from conftest import random_stable_matrix

    a = random_stable_matrix(n, rng)
    w = rng.standard_normal((n, n))
    w = w @ w.T
    x = linalg.lyap_dense(a, w)
    # independent route: vectorized Kronecker solve
    k = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    x_ref = np.linalg.solve(k, -w.reshape(-1, order="F")).reshape((n, n), order="F")
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_lyap_quadrature_oracle(rng):
    # X = int_0^inf e^{At} W e^{A^T t} dt by adaptive quadrature on 3x3
    from conftest import random_stable_matrix

    a = random_stable_matrix(3, rng, margin=0.8)
    w = rng.standard_normal((3, 3))
    w = w @ w.T
    x = linalg.lyap_dense(a, w)
    abscissa = np.max(np.linalg.eigvals(a).real)
    horizon = 40.0 / abs(abscissa)

    def integrand(t):
        e = linalg.expm(a * t)
        return (e @ w @ e.T).reshape(-1)

    quad, _ = scipy.integrate.quad_vec(integrand, 0.0, horizon, epsabs=1e-12, epsrel=1e-10)
    assert np.linalg.norm(x.reshape(-1) - quad) <= 1e-6 * np.linalg.norm(quad)


def test_lyap_residual_contract(rng):
    from conftest import random_stable_matrix

    a = random_stable_matrix(12, rng)
    w = rng.standard_normal((12, 12))
    w = w @ w.T
    x = linalg.lyap_dense(a, w)
    res = np.linalg.norm(a @ x + x @ a.T + w, 2)
    bound = 1e-10 * (2 * np.linalg.norm(a, 2) * np.linalg.norm(x, 2) + np.linalg.norm(w, 2))
    assert res <= bound
    assert np.allclose(x, x.T)


@pytest.mark.parametrize("n", [20, 120])
def test_lyap_one_schur_form_matches_scipy(rng, monkeypatch, n):
    from conftest import random_stable_matrix

    a = random_stable_matrix(n, rng)
    b = rng.standard_normal((n, 3))
    ref = sla.solve_continuous_lyapunov(a, -(b @ b.T))
    monkeypatch.setattr(linalg, "gen_eig", None)  # the conflict check reads the Schur form
    x = linalg.lyap_dense(a, b @ b.T)
    assert np.array_equal(x, 0.5 * (ref + ref.T))


def test_schur_eigenvalues_complex_pairs(rng):
    from conftest import random_stable_matrix

    a = random_stable_matrix(15, rng)
    vals = linalg._schur_eigenvalues(sla.schur(a, output="real")[0])
    ref = np.linalg.eigvals(a)
    assert np.any(ref.imag != 0)
    assert np.allclose(np.sort_complex(vals), np.sort_complex(ref), atol=1e-12)


def test_lyap_spectrum_conflict():
    a = np.diag([1.0, -1.0])  # lambda_1 + lambda_2 = 0
    with pytest.raises(SpectrumConflictError):
        linalg.lyap_dense(a, np.eye(2))
    rotation = np.array([[0.0, 2.0], [-2.0, 0.0]])  # +-2i, read off one 2x2 Schur block
    with pytest.raises(SpectrumConflictError):
        linalg.lyap_dense(rotation, np.eye(2))
