"""Reference computations the tests check the library against.

- ``residual_norm``: the explicit factored Lyapunov residual. It forms
  ``A Q`` and ``M Q`` from the system's matrices (for a descriptor, the
  Schur complement ``A1 - A2 A4^{-1} A3`` through a dense solve with A4)
  and takes one QR of ``[A Q, M Q]``, with no use of the rational Arnoldi
  relation; the solver's residual ``mu`` is checked against it.
- ``diagonalize`` and ``gramian_timelimited_cauchy``: the time-limited
  Gramian of a diagonalizable SISO system from its eigencoordinates and a
  Cauchy matrix, independent of any Lyapunov solver.
- ``similarity_transform``: a change of state coordinates, under which
  transfer functions and Hankel singular values are invariant.

They use numpy and scipy directly, not the kernels they check.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tlbt.errors import SpectrumConflictError, TlbtError
from tlbt.systems import StandardSystem


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


class NearDefectiveError(TlbtError):
    """An eigenvector basis is too ill-conditioned to be trusted."""


class SingularTransformError(TlbtError):
    """A state-space transformation matrix is numerically singular."""


@dataclass
class DiagonalizedSystem:
    """Eigencoordinate form of a SISO system: ``A = X diag(lam) X^{-1}``.

    ``w = X^{-1} B`` and ``X_B = X diag(w)``; every ``w_i`` must be nonzero
    (controllability in eigencoordinates).
    """

    eigenvalues: np.ndarray
    X: np.ndarray
    w: np.ndarray
    X_B: np.ndarray

    @property
    def cond_X(self):
        return np.linalg.cond(self.X)


def diagonalize(sys):
    """Eigencoordinate form of a SISO :class:`StandardSystem`."""
    if sys.m != 1:
        raise ValueError("diagonalization path requires m = 1")
    lam, x = np.linalg.eig(_dense(sys.A))
    order = np.lexsort((-lam.imag, -lam.real))
    lam, x = lam[order], x[:, order]
    w = np.linalg.solve(x, _dense(sys.B)[:, 0].astype(complex))
    if np.min(np.abs(w)) <= 1e-14 * np.max(np.abs(w)):
        raise ValueError("system is numerically uncontrollable in eigencoordinates")
    return DiagonalizedSystem(eigenvalues=lam, X=x, w=w, X_B=x * w[None, :])


def gramian_timelimited_cauchy(diag, t_e):
    """Time-limited reachability Gramian from the eigencoordinate factorization.

    For a controllable, diagonalizable SISO system the Gramian is
    X_B (C - e^{L t} C e^{L^H t}) X_B^H with the Cauchy matrix
    C_ij = -1/(lam_i + conj(lam_j)). Rejects near-defective eigenbases.
    """
    if diag.cond_X > 1e8:
        raise NearDefectiveError(
            f"eigenvector condition {diag.cond_X:.2e} too large for the Cauchy route"
        )
    lam = diag.eigenvalues
    denom = lam[:, None] + np.conj(lam)[None, :]
    if np.min(np.abs(denom)) == 0.0:
        raise SpectrumConflictError("lambda_i + conj(lambda_j) = 0 in Cauchy matrix")
    cau = -1.0 / denom
    e = np.exp(lam * t_e)
    middle = cau - e[:, None] * cau * np.conj(e)[None, :]
    p = diag.X_B @ middle @ diag.X_B.conj().T
    scale = np.linalg.norm(p, "fro")
    if scale > 0 and np.linalg.norm(p.imag, "fro") > 1e-10 * scale:
        raise NearDefectiveError("Cauchy-route Gramian has a non-negligible imaginary part")
    p = p.real
    return 0.5 * (p + p.T)


def similarity_transform(sys, t):
    """Change of state coordinates: (T^{-1} A T, T^{-1} B, C T)."""
    t = np.asarray(t, dtype=float)
    if np.linalg.cond(t) > 1.0 / np.finfo(float).eps:
        raise SingularTransformError("transformation is singular")
    a = np.linalg.solve(t, _dense(sys.A) @ t)
    b = np.linalg.solve(t, _dense(sys.B))
    return StandardSystem(a, b, _dense(sys.C) @ t, sys.D)


def _pencil_images(sys, q):
    """(A Q, M Q) of the pencil the solver works on, from the system's blocks."""
    if hasattr(sys, "A4"):  # descriptor: Schur complement, mass M1
        a4_inv_a3q = np.linalg.solve(_dense(sys.A4), _dense(sys.A3 @ q))
        return sys.A1 @ q - sys.A2 @ a4_inv_a3q, sys.M1 @ q
    return sys.A @ q, (sys.M @ q if hasattr(sys, "M") else q)


def residual_norm(sys, ws, y, rhs_factors):
    """Scaled Lyapunov residual of the lifted candidate solution.

    ``rhs_factors`` is a list of (coefficient_factor, sign) pairs in
    workspace coordinates; the right-hand side of the equation is
    -(sum sign * (Q F)(Q F)^T) mapped to original coordinates, so
    ``G = M Q W Q^T M^T`` with ``W = sum sign * F F^T``. Returns
    ``mu = ||A X M^T + M X A^T + G|| / ||G||`` for ``X = Q Y Q^T``, in the
    spectral norm, from the R factor of ``[A Q, M Q]`` (never n x n).
    """
    q, d = ws.q, ws.dim
    w_proj = sum(sign * (f @ f.T) for f, sign in rhs_factors)
    aq, mq = _pencil_images(sys, q)
    ru = np.linalg.qr(np.hstack([np.asarray(aq), np.asarray(mq)]), mode="r")
    k = np.zeros((2 * d, 2 * d))
    k[:d, d:] = y
    k[d:, :d] = y
    k[d:, d:] = w_proj
    core = ru @ k @ ru.T
    num = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (core + core.T)))))
    rhs_core = ru[:, d:] @ w_proj @ ru[:, d:].T
    den = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (rhs_core + rhs_core.T)))))
    if den == 0.0:
        return num
    return num / den
