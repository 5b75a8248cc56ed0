"""Dense numerical kernels with explicit accuracy contracts.

Thin, contract-checked wrappers around LAPACK-backed routines (LU, SVD,
eigensolvers, matrix exponential, Bartels-Stewart Lyapunov solve) plus a
hand-rolled re-orthogonalized Gram-Schmidt used for incremental basis
growth. Everything operates on plain ndarrays; callers are expected to
pass finite data (see :func:`check_finite`).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    NoConvergenceError,
    OverflowRangeError,
    SingularMatrixError,
    SpectrumConflictError,
)

__all__ = [
    "EigDecomposition",
    "check_finite",
    "lu_solve",
    "orthonormal_extend",
    "svd",
    "sym_eig",
    "gen_eig",
    "expm",
    "lyap_dense",
]

#: deflation threshold for dependent directions in Gram-Schmidt
DEFLATION_TOL = 1e-12


@dataclass
class EigDecomposition:
    """Eigenvalues and (optionally) eigenvectors, ``A X = X diag(values)``."""

    values: np.ndarray
    vectors: np.ndarray | None = None


def check_finite(a, name="matrix"):
    """Return ``a`` as an ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def lu_solve(a, rhs):
    """Solve ``A X = RHS`` by LU with partial pivoting.

    Works for real and complex data. Raises :class:`SingularMatrixError`
    when a pivot falls below ``eps * ||A||``.
    """
    a = np.asarray(a)
    rhs = np.asarray(rhs)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError("RHS row count must match A")
    if a.size == 0:
        return np.zeros_like(rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = np.linalg.norm(a, 1)
    if scale == 0.0 or np.min(pivots) <= np.finfo(float).eps * scale:
        raise SingularMatrixError(
            f"matrix is numerically singular (min pivot {pivots.min():.3e})"
        )
    return sla.lu_solve((lu, piv), rhs, check_finite=False)


def orthonormal_extend(q, v, tol=DEFLATION_TOL):
    """Extend an orthonormal basis ``q`` by the columns of ``v``.

    Two-pass Gram-Schmidt; columns of ``v`` that are numerically in
    ``range(q)`` (remaining norm below ``tol`` times the original column
    norm) are dropped. Returns the extended basis; the number of accepted
    columns is ``result.shape[1] - q.shape[1]``.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if q.size == 0:
        q = np.zeros((v.shape[0], 0))
    if v.shape[0] != q.shape[0]:
        raise ValueError("V rows must match Q rows")
    cols = [q]
    ncols = q.shape[1]
    basis = q
    for j in range(v.shape[1]):
        w = v[:, j].copy()
        nrm0 = np.linalg.norm(w)
        if nrm0 == 0.0:
            continue
        for _ in range(2):
            if basis.shape[1]:
                w -= basis @ (basis.T @ w)
        nrm = np.linalg.norm(w)
        if nrm <= tol * nrm0:
            continue
        cols.append((w / nrm)[:, None])
        ncols += 1
        basis = np.column_stack(cols)
    return basis


def svd(a):
    """Thin SVD ``A = U diag(s) V^T`` with ``s`` non-increasing.

    Returns ``(U, s, V)`` where the *columns* of ``V`` are right singular
    vectors.
    """
    a = np.asarray(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD did not converge: {exc}") from exc
    return u, s, vh.conj().T


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix, values non-increasing.

    The input is symmetrized; gross asymmetry (> 1e-8 relative) is
    rejected.
    """
    s = np.asarray(s, dtype=float)
    scale = np.linalg.norm(s, "fro")
    if scale > 0 and np.linalg.norm(s - s.T, "fro") > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    s = 0.5 * (s + s.T)
    try:
        w, x = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eig did not converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return EigDecomposition(values=w[order], vectors=x[:, order])


def gen_eig(a, vectors=True):
    """Eigendecomposition of a general square matrix.

    Eigenvalues are sorted by non-increasing real part (ties by imaginary
    part) so that ``values[0].real`` is the spectral abscissa.
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    try:
        if vectors:
            w, x = np.linalg.eig(a)
        else:
            w = np.linalg.eigvals(a)
            x = None
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eig did not converge: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real))
    return EigDecomposition(values=w[order], vectors=None if x is None else x[:, order])


def expm(a):
    """Matrix exponential via scaling-and-squaring with diagonal Pade."""
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if a.size == 0:
        return np.zeros_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        e = sla.expm(a)
    if not np.all(np.isfinite(e)):
        raise OverflowRangeError("expm(A) exceeds the representable range")
    return e


def _spectrum_conflict(values, scale):
    """True when some eigenvalue pair satisfies lambda_i + lambda_j ~ 0."""
    s = values[:, None] + values[None, :]
    return np.min(np.abs(s)) <= 1e-12 * max(scale, 1e-300)


def _schur_eigenvalues(r):
    """Eigenvalues of a real quasi-triangular Schur factor, from its diagonal blocks."""
    vals = r.diagonal().astype(complex)
    i = np.flatnonzero(r.diagonal(-1))  # first rows of the 2x2 blocks
    a, b, c, d = r[i, i], r[i, i + 1], r[i + 1, i], r[i + 1, i + 1]
    mean = 0.5 * (a + d)
    root = np.sqrt((0.25 * (a - d) ** 2 + b * c).astype(complex))
    vals[i], vals[i + 1] = mean + root, mean - root
    return vals


def lyap_dense(a, w):
    """Solve ``A X + X A^T = -W`` for symmetric ``W`` (Bartels-Stewart).

    Requires ``Lambda(A)`` and ``Lambda(-A)`` disjoint; raises
    :class:`SpectrumConflictError` otherwise. One real Schur form serves
    both the check and the solve, which is the sequence of
    ``scipy.linalg.solve_continuous_lyapunov`` (same result bit for bit).
    The result is symmetrized.
    """
    a = np.asarray(a, dtype=float)
    w = check_finite(np.asarray(w, dtype=float), "W")
    if a.shape[0] != a.shape[1] or w.shape != a.shape:
        raise ValueError("A and W must be square of equal size")
    r, u = sla.schur(a, output="real")
    vals = _schur_eigenvalues(r)
    if _spectrum_conflict(vals, np.max(np.abs(vals)) if vals.size else 0.0):
        raise SpectrumConflictError(
            "Lambda(A) and Lambda(-A) intersect; Lyapunov equation is singular"
        )
    f = u.T @ (-w @ u)
    trsyl, = sla.get_lapack_funcs(("trsyl",), (r, f))
    y, scale, info = trsyl(r, r, f, tranb="T")
    if info < 0:
        raise ValueError(f"?TRSYL: illegal value in argument {-info}")
    if info == 1:
        warnings.warn("Lambda(A) and Lambda(-A) nearly intersect; perturbed solve",
                      RuntimeWarning, stacklevel=2)
    y *= scale
    x = u @ y @ u.T
    return 0.5 * (x + x.T)
