"""Square-root balanced truncation: standard, time-limited, and modified.

Projectors are built from Gramian factors via the thin SVD of
Z_Q^T M Z_P; the retained singular values are the (time-limited) Hankel
singular values, computed once per mode and reused at every order.
Works with exact dense factors and with the low-rank factors produced by
the rational Krylov solver.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import RankDeficientError, SingularShiftError
from .gramians import MODES, LowRankGramian, TimeWindow, factor_psd, mode_gramians
from .systems import DescriptorIndex1, StandardSystem, _dense, _factor

__all__ = [
    "ReducedModel",
    "Balancing",
    "balance",
    "balance_modes",
    "square_root_reduce",
    "reduce",
    "hinf_error_bound",
    "transfer_eval",
    "transfer_at",
    "numerical_rank",
    "MODES",
]


@dataclass
class ReducedModel:
    """Projected model (A, B, C, D) with the projectors that built it."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    T: np.ndarray
    S: np.ndarray
    hsv: np.ndarray
    stable: bool
    mode: str
    window: TimeWindow | None = None
    info: dict = field(default_factory=dict)

    @property
    def order(self):
        return self.A.shape[0]

    def to_system(self):
        return StandardSystem(self.A, self.B, self.C, self.D)


@dataclass
class Balancing:
    """Gramian factors of one mode and the SVD of Z_Q^T M Z_P, truncated on demand.

    ``Z_Q^T M Z_P = u diag(hsv) v^T``; ``hsv`` holds every (time-limited)
    Hankel singular value. ``system`` is the system the projection runs
    on (a descriptor comes eliminated); ``t_svd`` the seconds the SVD took.
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
        t_reduce = self.t_svd + time.perf_counter() - t0
        rom.mode, rom.window = self.mode, self.window
        rom.info = dict(
            self.info, hsv_all=self.hsv, t_reduce=t_reduce,
            t_mor=self.info["t_gramians"] + t_reduce,
        )
        return rom


def square_root_reduce(sys, z_p, z_q, r, svd=None):
    """Balance-and-truncate to order r from Gramian factors.

    Builds T = Z_P Y_1 S_1^{-1/2}, S = Z_Q X_1 S_1^{-1/2} from the thin
    SVD of Z_Q^T M Z_P and projects; ``svd`` passes that SVD in when it
    is already known (:func:`balance` computes it once for every order).
    Raises RankDeficientError when the r-th singular value is below
    1e-14 of the largest.
    """
    if isinstance(sys, DescriptorIndex1):
        raise TypeError("reduce descriptor systems through their eliminated form")
    z_p = np.atleast_2d(z_p)
    z_q = np.atleast_2d(z_q)
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
    a_r = s.T @ (sys.A @ t)
    b_r = s.T @ _dense(sys.B)
    c_r = _dense(sys.C) @ t
    d_r = np.array(sys.D, copy=True)
    ab = float(np.max(linalg.gen_eig(a_r, vectors=False).values.real))
    stable = ab < -1e-12 * max(np.linalg.norm(a_r, 2), 1e-300)
    return ReducedModel(
        A=a_r, B=b_r, C=c_r, D=d_r, T=t, S=s,
        hsv=sig[:r].copy(), stable=bool(stable), mode="", window=None,
    )


def balance(sys, mode, window=None, cfg=None, method="krylov"):
    """Gramian factors of a balanced-truncation mode, balanced once.

    ``method="krylov"`` uses the low-rank rational Krylov solver,
    ``"dense"`` exact dense Gramians (desk-scale systems, unstable
    admissible). Descriptor factors come from the implicit descriptor
    path; the projection runs on the first-order form, for a descriptor
    its cached dense eliminated form (desk scale).
    """
    return next(balance_modes(sys, [mode], window, cfg, method))


def balance_modes(sys, modes, window=None, cfg=None, method="krylov"):
    """Yield ``balance(sys, mode, ...)`` for each mode, picking each side's poles once.

    The Gramians come from :func:`~tlbt.gramians.mode_gramians`, which
    replays each side's Krylov shifts into the later modes; the stability
    verdict is computed once and cached on ``sys``. The results equal
    separate :func:`balance` calls.
    """
    modes = [mode.lower() for mode in modes]
    gramians = mode_gramians(sys, modes, window, cfg, method)
    work = sys.first_order()
    for mode in modes:
        t0 = time.perf_counter()
        sides = next(gramians)
        gp, gq = sides["reachability"], sides["observability"]
        info = {}
        if method == "dense":
            z_p, z_q = factor_psd(gp), factor_psd(gq)
        else:
            z_p, z_q = gp.z, gq.z
            info.update(
                mu_p=gp.residual, mu_q=gq.residual,
                dim_p=gp.subspace_dim, dim_q=gq.subspace_dim,
                rank_p=gp.rank, rank_q=gq.rank,
            )
        info["t_gramians"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        u, hsv, v = linalg.svd(z_q.T @ work.mass_apply(z_p))
        yield Balancing(
            work, z_p, z_q, u, hsv, v, mode, window, info, time.perf_counter() - t0
        )


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
    bal = balance(sys, mode, window, cfg, method)
    if tol is not None:
        sig = bal.hsv
        bounds = 2.0 * np.append(np.cumsum(sig[::-1])[::-1], 0.0)  # bound at order r
        r_tol = max(int(np.argmax(bounds <= tol)), 1)
        r = min(r, r_tol) if r is not None else r_tol
    return bal.truncate(r)


def hinf_error_bound(hsv, r):
    """Balanced-truncation error bound 2 * sum of truncated singular values.

    A proven H-infinity bound for ``bt`` Hankel singular values only; from
    time-limited (``tlbt``/``mtlbt``) values it is a heuristic (see
    :func:`reduce`).
    """
    hsv = np.asarray(hsv, dtype=float)
    if r < 0:
        raise ValueError("r must be >= 0")
    return float(2.0 * hsv[r:].sum())


def transfer_at(obj, s):
    """Transfer function C (s M - A)^{-1} B + D at a complex point s."""
    if isinstance(obj, ReducedModel):
        obj = obj.to_system()
    if isinstance(obj, DescriptorIndex1):
        m_full, a_full, b_full, c_full = obj.assemble()
        sol = _factor((s * m_full - a_full).tocsc())(b_full.astype(complex))
        return c_full @ sol
    if obj.n == 0:
        return obj.D.astype(complex)
    mass = np.eye(obj.n) if obj.mass is None else _dense(obj.mass)
    lhs = s * mass - _dense(obj.A)
    sol = _factor(lhs.astype(complex), err=SingularShiftError)(_dense(obj.B).astype(complex))
    return _dense(obj.C) @ sol + obj.D


def transfer_eval(obj, omega):
    """Frequency response H(i*omega)."""
    return transfer_at(obj, 1j * float(omega))


def numerical_rank(obj, eps):
    """Count of eigenvalues above eps times the largest one."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if isinstance(obj, LowRankGramian):
        lam = np.linalg.svd(obj.z, compute_uv=False) ** 2
    else:
        lam = linalg.sym_eig(np.asarray(obj)).values
    if lam.size == 0 or lam[0] <= 0:
        return 0
    return int(np.count_nonzero(lam > eps * lam[0]))
