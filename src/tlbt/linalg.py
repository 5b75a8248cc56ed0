"""Dense numerical kernels with explicit accuracy contracts.

Thin, contract-checked wrappers around LAPACK-backed routines (SVD,
eigensolvers, matrix exponential, Bartels-Stewart Lyapunov solve) plus a
block Gram-Schmidt with reorthogonalization used for incremental basis
growth. The factorizations behind shifted solves (a cached complex Schur
form for dense standard systems, LU otherwise) live in :mod:`tlbt.systems`.
Everything operates on plain ndarrays; callers are expected to pass finite
data (see :func:`check_finite`).
"""

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import (
    NoConvergenceError,
    OverflowRangeError,
    SpectrumConflictError,
)

__all__ = [
    "check_finite",
    "orthonormal_extend",
    "svd",
    "sym_eig",
    "gen_eig",
    "expm",
    "lyap_dense",
]

#: deflation threshold for dependent directions in Gram-Schmidt
DEFLATION_TOL = 1e-12


def check_finite(a, name="matrix"):
    """Return ``a`` as an ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def orthonormal_extend(buf, d, v):
    """Orthonormalize the columns of ``v`` against ``buf[:, :d]``, in place into ``buf[:, d:]``.

    Block CGS2: two BLAS-3 passes against the basis, then two passes column
    by column within the block. A column whose remaining norm is at most
    ``DEFLATION_TOL`` times its original norm is dropped. Returns the number kept.
    """
    q, w = buf[:, :d], buf[:, d : d + v.shape[1]]
    w[...] = v
    nrm0 = np.linalg.norm(w, axis=0)
    for _ in range(2):
        w -= q @ (q.T @ w)
    kept = 0
    for j in range(v.shape[1]):
        col, new = w[:, j], buf[:, d : d + kept]
        for _ in range(2 if kept else 0):
            col -= new @ (new.T @ col)
        nrm = np.linalg.norm(col)
        if nrm > DEFLATION_TOL * nrm0[j]:
            buf[:, d + kept] = col / nrm
            kept += 1
    return kept


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
    """Eigendecomposition ``(values, vectors)`` of a symmetric matrix, values non-increasing.

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
    return w[order], x[:, order]


def gen_eig(a):
    """Eigenvalues of a general square matrix.

    Eigenvalues are sorted by non-increasing real part (ties by imaginary
    part) so that ``gen_eig(a)[0].real`` is the spectral abscissa.
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eig did not converge: {exc}") from exc
    return w[np.lexsort((-w.imag, -w.real))]


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


def _real_schur(a):
    """Real Schur form ``a = u r u^T`` and the eigenvalues read off ``r``, sorted as by gen_eig."""
    r, u = sla.schur(a, output="real")
    w = _schur_eigenvalues(r)
    return r, u, w[np.lexsort((-w.imag, -w.real))]


def lyap_dense(a, w, schur=None):
    """Solve ``A X + X A^T = -W`` for symmetric ``W`` (Bartels-Stewart).

    Requires ``Lambda(A)`` and ``Lambda(-A)`` disjoint; raises
    :class:`SpectrumConflictError` otherwise. One real Schur form serves
    both the check and the solve, which is the sequence of
    ``scipy.linalg.solve_continuous_lyapunov`` (same result bit for bit):
    ``schur``, A's ``(R, U, Lambda(A))`` as :func:`_real_schur` gives it,
    or computed here when None. The result is symmetrized.
    """
    a = np.asarray(a, dtype=float)
    w = check_finite(np.asarray(w, dtype=float), "W")
    if a.shape[0] != a.shape[1] or w.shape != a.shape:
        raise ValueError("A and W must be square of equal size")
    r, u, vals = _real_schur(a) if schur is None else schur
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
