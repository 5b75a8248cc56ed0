"""Square-root balanced truncation: standard, time-limited, and modified.

Projectors are built from Gramian factors via the thin SVD of
Z_Q^T M Z_P; the retained singular values are the (time-limited) Hankel
singular values, computed once per mode and reused at every order.
Works with exact dense factors and with the low-rank factors produced by
the rational Krylov solver. The reduced model is a standard system, so
the integrator, the Gramian solvers and the reduction itself take it as
they take the system it came from.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import RankDeficientError
from .gramians import MODES, SIDES, TimeWindow, factor_psd, mode_gramian
from .systems import StandardSystem

__all__ = [
    "ReducedModel",
    "Balancing",
    "balance",
    "square_root_reduce",
    "reduce",
    "MODES",
]


@dataclass(kw_only=True)
class ReducedModel(StandardSystem):
    """A reduced model: the projected standard system, with the projectors that built it."""

    T: np.ndarray
    S: np.ndarray
    hsv: np.ndarray
    stable: bool
    mode: str
    window: TimeWindow | None = None
    info: dict = field(default_factory=dict)

    def to_system(self):
        """A plain StandardSystem copy, kept only for the benchmark tracer's ``hasattr`` test."""
        return StandardSystem(self.A, self.B, self.C, self.D)


@dataclass
class Balancing:
    """Gramian factors of one mode and the SVD of Z_Q^T M Z_P, truncated on demand.

    ``Z_Q^T M Z_P = u diag(hsv) v^T``; ``hsv`` holds every (time-limited)
    Hankel singular value. ``system`` is the balanced system, on which the
    projection runs; ``t_svd`` the seconds the SVD took.
    """

    system: object
    z_p: np.ndarray
    z_q: np.ndarray
    u: np.ndarray
    hsv: np.ndarray
    v: np.ndarray
    mode: str
    window: TimeWindow | None
    info: dict
    t_svd: float

    def truncate(self, r):
        """Reduced model of order r (see :func:`square_root_reduce`)."""
        t0 = time.perf_counter()
        rom = square_root_reduce(
            self.system, self.z_p, self.z_q, r, svd=(self.u, self.hsv, self.v)
        )
        t_mor = self.info["t_gramians"] + self.t_svd + time.perf_counter() - t0
        rom.mode, rom.window = self.mode, self.window
        rom.info = dict(self.info, hsv_all=self.hsv, t_mor=t_mor)
        return rom


def square_root_reduce(sys, z_p, z_q, r, svd=None):
    """Balance-and-truncate to order r from Gramian factors.

    Builds T = Z_P Y_1 S_1^{-1/2}, S = Z_Q X_1 S_1^{-1/2} from the thin
    SVD of Z_Q^T M Z_P and projects with ``apply_a``, B, C and D (no
    n x n matrix); ``svd`` passes that SVD in when it is already known
    (:func:`balance` computes it once for every order). Raises
    RankDeficientError when the r-th singular value is below 1e-14 of
    the largest.
    """
    u, sig, v = svd if svd is not None else linalg.svd(z_q.T @ sys.mass_apply(z_p))
    if r < 1 or r > sig.size:
        raise RankDeficientError(f"order {r} out of range for factor rank {sig.size}")
    if sig[r - 1] <= 1e-14 * sig[0]:
        raise RankDeficientError(
            f"sigma_{r} = {sig[r - 1]:.3e} is numerically zero relative to sigma_1"
        )
    if r < sig.size and sig[r] > (1 - 1e-10) * sig[r - 1]:
        warnings.warn(
            f"singular value tie at the truncation order (sigma_{r} ~ sigma_{r + 1})",
            stacklevel=2,
        )
    scale = 1.0 / np.sqrt(sig[:r])
    t = z_p @ (v[:, :r] * scale[None, :])
    s = z_q @ (u[:, :r] * scale[None, :])
    a_r = s.T @ sys.apply_a(t)
    b_r = s.T @ sys.B
    c_r = sys.C @ t
    d_r = np.array(sys.D, copy=True)
    ab = float(np.max(linalg.gen_eig(a_r).real))
    stable = ab < -1e-12 * max(np.linalg.norm(a_r, 2), 1e-300)
    return ReducedModel(
        A=a_r, B=b_r, C=c_r, D=d_r, T=t, S=s,
        hsv=sig[:r].copy(), stable=bool(stable), mode="", window=None,
    )


def balance(sys, mode, window=None, cfg=None, method="krylov"):
    """Gramian factors of a balanced-truncation mode, balanced once.

    ``method="krylov"`` uses the low-rank rational Krylov solver,
    ``"dense"`` exact dense Gramians (desk-scale systems, unstable
    admissible). Every system, a descriptor included, is balanced through
    its pencil interface. What the Gramians derive from ``sys`` is cached
    on it (see :mod:`tlbt.systems`), so balancing several modes of one
    system builds each of those once.
    """
    t0 = time.perf_counter()
    gp, gq = (mode_gramian(sys, mode, window, cfg, side, method) for side in SIDES)
    info = {}
    if method == "dense":
        z_p, z_q = factor_psd(gp), factor_psd(gq)
    else:
        z_p, z_q = gp.z, gq.z
        info.update(mu_p=gp.residual, mu_q=gq.residual)
    info["t_gramians"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    u, hsv, v = linalg.svd(z_q.T @ sys.mass_apply(z_p))
    return Balancing(sys, z_p, z_q, u, hsv, v, mode, window, info, time.perf_counter() - t0)


def reduce(sys, mode, window=None, r=None, cfg=None, method="krylov", tol=None):
    """Run the requested balanced-truncation variant to order r.

    ``tol`` picks the smallest order whose tail 2*sum(sigma_tail) is below
    it (capped by ``r`` when both are given). For ``bt`` that tail is the
    proven H-infinity error bound; for ``tlbt`` and ``mtlbt`` it is only a
    heuristic order selector, not a proven bound (Redmann & Kürschner
    (2018) give a tlbt output error bound of a different form).
    ``method="dense"`` uses exact dense Gramians (desk-scale systems,
    unstable admissible).
    """
    if r is None and tol is None:
        raise ValueError("either r or tol must be given")
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    bal = balance(sys, mode, window, cfg, method)
    if tol is not None:
        sig = bal.hsv
        bounds = 2.0 * np.append(np.cumsum(sig[::-1])[::-1], 0.0)  # bound at order r
        r_tol = max(int(np.argmax(bounds <= tol)), 1)
        r = min(r, r_tol) if r is not None else r_tol
    return bal.truncate(r)
