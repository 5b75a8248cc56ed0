"""Reference computations the tests check the library against.

- ``residual_norm``: the explicit factored Lyapunov residual. It forms
  ``A Q`` and ``M Q`` from the system's matrices (for a descriptor, the
  Schur complement ``A1 - A2 A4^{-1} A3`` through a dense solve with A4)
  and takes one QR of ``[A Q, M Q]``, with no use of the rational Arnoldi
  relation; the solver's residual ``mu`` is checked against it.
- ``diagonalize`` and ``gramian_timelimited_cauchy``: the time-limited
  Gramian of a diagonalizable SISO system from its eigencoordinates and a
  Cauchy matrix, independent of any Lyapunov solver.
- ``gramian_timelimited_difference``: the time-limited Gramian of a stable
  standard system from the infinite one,
  ``e^{A t_s} P e^{A^T t_s} - e^{A t_e} P e^{A^T t_e}``, an identity the
  library's single Lyapunov equation does not use.
- ``similarity_transform``: a change of state coordinates, under which
  transfer functions and Hankel singular values are invariant.
- ``numerical_rank``: the count of a Gramian's eigenvalues above a
  fraction of the largest, from a dense Gramian or a low-rank factor.
- ``transfer_at``: the transfer function at one complex point, by a dense
  solve, or for a descriptor by ``splu`` of its block pencil.
- ``eliminate_descriptor``: a descriptor's algebraic states eliminated
  densely, as a generalized system ``(M1, A1 - A2 A4^{-1} A3, ...)`` and
  its feedthrough ``-C2 A4^{-1} B2``.
- ``hull_boundary_linspace`` and ``select_shift_broadcast``: the adaptive
  shift rule on qhull's convex hull (``scipy.spatial``, which the library
  does not import), its vertices rotated to start at the lexicographically
  smallest as the solver's monotone chain does, with one ``np.linspace``
  per hull edge and the objective as a complex broadcast,
  ``log|(s - p)(s - conj(p))|``, ranked by a stable sort; the solver's
  hull must give the same bytes and its real-arithmetic pass the same
  shift.

They use numpy and scipy directly, not the kernels they check.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import ConvexHull, QhullError

from tlbt.errors import SpectrumConflictError, TlbtError
from tlbt.gramians import LowRankGramian
from tlbt.systems import GeneralizedSystem, StandardSystem


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


def gramian_timelimited_difference(sys, window):
    """Time-limited reachability Gramian of a stable standard system over ``window``.

    ``P_T = e^{A t_s} P e^{A^T t_s} - e^{A t_e} P e^{A^T t_e}`` with the
    infinite Gramian ``A P + P A^T = -B B^T``.
    """
    a, b = _dense(sys.A), _dense(sys.B)
    p = sla.solve_continuous_lyapunov(a, -b @ b.T)

    def pushed(t):
        e = sla.expm(a * t)
        return e @ p @ e.T

    p_t = (pushed(window.t_s) if window.t_s > 0 else p) - pushed(window.t_e)
    return 0.5 * (p_t + p_t.T)


def similarity_transform(sys, t):
    """Change of state coordinates: (T^{-1} A T, T^{-1} B, C T)."""
    t = np.asarray(t, dtype=float)
    if np.linalg.cond(t) > 1.0 / np.finfo(float).eps:
        raise SingularTransformError("transformation is singular")
    a = np.linalg.solve(t, _dense(sys.A) @ t)
    b = np.linalg.solve(t, _dense(sys.B))
    return StandardSystem(a, b, _dense(sys.C) @ t, sys.D)


def numerical_rank(obj, eps):
    """Count of eigenvalues above eps times the largest one."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if isinstance(obj, LowRankGramian):
        lam = np.linalg.svd(obj.z, compute_uv=False) ** 2
    else:
        p = np.asarray(obj, dtype=float)
        lam = np.linalg.eigh(0.5 * (p + p.T))[0][::-1]
    if lam.size == 0 or lam[0] <= 0:
        return 0
    return int(np.count_nonzero(lam > eps * lam[0]))


def transfer_at(obj, s):
    """Transfer function ``C (s M - A)^{-1} B + D`` at a complex point s.

    A descriptor takes ``splu`` of its block pencil (the algebraic part
    carries its feedthrough); any other system, a reduced model included, a
    dense solve.
    """
    if hasattr(obj, "A4"):
        m_full, a_full = obj.pencil()
        b_full = np.vstack([_dense(obj.B1), _dense(obj.B2)])
        c_full = np.hstack([_dense(obj.C1), _dense(obj.C2)])
        return c_full @ spla.splu(sp.csc_matrix(s * m_full - a_full)).solve(b_full.astype(complex))
    mass = np.eye(obj.n) if obj.mass is None else _dense(obj.mass)
    sol = np.linalg.solve(s * mass - _dense(obj.A), _dense(obj.B).astype(complex))
    return _dense(obj.C) @ sol + obj.D


def eliminate_descriptor(d):
    """Eliminate a descriptor's algebraic states densely: returns (GeneralizedSystem, D)."""
    a2, c2, a4 = _dense(d.A2), _dense(d.C2), _dense(d.A4)
    a4_inv_a3 = np.linalg.solve(a4, _dense(d.A3))
    a4_inv_b2 = np.linalg.solve(a4, _dense(d.B2))
    feed = -c2 @ a4_inv_b2
    gen = GeneralizedSystem(
        _dense(d.M1), _dense(d.A1) - a2 @ a4_inv_a3, _dense(d.B1) - a2 @ a4_inv_b2,
        _dense(d.C1) - c2 @ a4_inv_a3, D=feed,
    )
    return gen, feed


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
    q, d = ws.q, ws.q.shape[1]
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


def hull_boundary_linspace(points, npts):
    """``npts`` points on the convex hull boundary of complex points, one linspace per edge.

    The hull is qhull's, its counterclockwise vertices rotated to start at
    the lexicographically smallest one (real, then imaginary part).
    """
    try:
        hull = ConvexHull(np.column_stack([points.real, points.imag]))
    except QhullError:
        d0 = np.argmax(np.abs(points - points[0]))
        d1 = np.argmax(np.abs(points - points[d0]))
        return np.linspace(points[d0], points[d1], npts)
    verts = points[hull.vertices]
    verts = np.roll(verts, -np.lexsort((verts.imag, verts.real))[0])
    edges = np.abs(np.roll(verts, -1) - verts)
    perim = edges.sum()
    out = []
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        cnt = max(int(round(npts * edges[i] / perim)), 2)
        out.append(np.linspace(v, w, cnt, endpoint=False))
    return np.concatenate(out)


def select_shift_broadcast(ritz, shifts, m, npts=2000):
    """The Druskin-Simoncini shift over the same candidates as the solver.

    For Ritz values that are not all equal; returns None when every
    candidate is excluded.
    """
    ritz = np.asarray(ritz, dtype=complex)
    scale = float(np.max(np.abs(ritz))) or 1.0
    mirrored = -np.conj(ritz)
    if np.all(np.abs(mirrored.imag) <= 1e-12 * scale):
        lo, hi = mirrored.real.min(), mirrored.real.max()
        cand = np.maximum((np.geomspace if lo > 0 else np.linspace)(lo, hi, npts), 0.0)
    else:
        cand = hull_boundary_linspace(mirrored, npts)
        cand = cand[cand.imag >= 0]
        cand = np.where(cand.real < 0, 1j * cand.imag, cand)
    finite = np.array([s for s in shifts if np.isfinite(s)], dtype=complex)
    upper = [p[p.imag >= 0] for p in (finite, mirrored, ritz)]
    poles = np.concatenate([upper[0], upper[2]])
    weight = np.repeat([float(m), -1.0], [upper[0].size, upper[2].size])
    weight = np.where(poles.imag > 0, weight, 0.5 * weight)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.abs((cand[:, None] - poles) * (cand[:, None] - np.conj(poles)))
        obj = np.log(f) @ weight
    near = np.concatenate(upper[:2])
    rel = np.repeat([1e-8, 1e-12], [upper[0].size, upper[1].size])
    for i in np.argsort(-obj, kind="stable"):
        s = cand[i]
        if np.all(np.abs(s - near) > rel * np.maximum(abs(s), np.abs(near))):
            if abs(s.imag) <= 1e-12 * max(abs(s), scale):
                return float(s.real)
            return complex(s.real, abs(s.imag))
    return None
