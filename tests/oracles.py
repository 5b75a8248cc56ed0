"""Reference computations the tests check the library against.

- ``residual_norm``: the explicit factored Lyapunov residual. It applies
  the pencil to every basis column and takes one QR of ``[A Q, M Q]``,
  with no use of the rational Arnoldi relation; the solver's residual
  ``mu`` is checked against it.
"""

import numpy as np

from tlbt.gramians import _Pencil, _rhs_core


def residual_norm(sys, ws, y, rhs_factors):
    """Scaled Lyapunov residual of the lifted candidate solution.

    ``rhs_factors`` is a list of (coefficient_factor, sign) pairs in
    workspace coordinates; the right-hand side of the equation is
    -(sum sign * (Q F)(Q F)^T) mapped to original coordinates. Computed
    from a thin factored representation (one A-application per basis
    column), spectral norm, scaled by the right-hand-side norm.
    """
    return factored_residual(_Pencil(sys), ws.q, y, _rhs_core(rhs_factors, ws.dim))


def factored_residual(op, q, y, w_proj):
    """mu = ||A X M^T + M X A^T + G||/||G|| with X = q Y q^T, G = M q W q^T M^T."""
    at, mt = op.apply_a(q), op.mass_apply(q)
    d = q.shape[1]
    u = np.hstack([np.asarray(at), np.asarray(mt)])
    ru = np.linalg.qr(u, mode="r")
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
