"""Infinite and time-limited Gramians: dense oracles and the low-rank solver.

The dense routes solve the Lyapunov equations directly (or use the
exponential-difference identity for the time-limited Gramian of a stable
system). The large-scale route is a rational Krylov subspace method with
adaptive shift selection: the basis is grown by shifted solves until the
subspace approximation of exp(A t) B stops changing, then the projected
(time-limited) Lyapunov equation is solved and a factored residual norm
decides termination. The basis, its image and the projected matrix grow in
place (block CGS2, bordering); the residual comes from the rational Arnoldi
relation, whose rank-m premise holds only while the start block is the
only pole at infinity. The modes differ only in the Lyapunov right-hand
side W, built by one map (``_rhs``) for the Krylov check and the dense
routes; mtlbt replaces the possibly indefinite time-limited W by its
absolute-eigenvalue surrogate.
"""

import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import linalg
from .errors import (
    DegenerateHullError,
    MaxDimExceededError,
    NoConvergenceError,
    OverflowRangeError,
    SingularShiftError,
    SpectrumConflictError,
    UnstableSystemError,
)
from .systems import _dense, _dense_standard, shifted_solve, spectral_abscissa

__all__ = [
    "TimeWindow",
    "SolverConfig",
    "KrylovWorkspace",
    "LowRankGramian",
    "dense_threshold",
    "gramian_infinite_dense",
    "gramian_timelimited_dense",
    "adaptive_shift",
    "expm_action_approx",
    "solve_infinite_lowrank",
    "solve_timelimited_lowrank",
    "solve_modified_lowrank",
    "factor_psd",
    "MODES",
    "SIDES",
    "mode_gramian",
    "mode_gramians",
]

#: balanced-truncation modes: bt balances the infinite Gramians, tlbt the
#: time-limited ones, mtlbt the stability-preserving modified ones
MODES = ("bt", "tlbt", "mtlbt")
#: the two Gramians of a mode, in the order every balancing route takes them
SIDES = ("reachability", "observability")
_TRUNC_TOL = 1e-12  # relative eigenvalue cutoff of the Gramian factors (factor_psd)


def dense_threshold():
    """Dimension cutoff for dense Gramian paths (TLBT_DENSE_THRESHOLD overrides)."""
    return int(os.environ.get("TLBT_DENSE_THRESHOLD", "1000"))


@dataclass
class TimeWindow:
    """Time interval [t_s, t_e] with 0 <= t_s < t_e < inf."""

    t_e: float
    t_s: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.t_s < self.t_e < np.inf):
            raise ValueError(f"need 0 <= t_s < t_e < inf, got [{self.t_s}, {self.t_e}]")


@dataclass
class SolverConfig:
    """Tolerances and limits for the low-rank Gramian solver.

    tol_f gates the matrix-exponential action (relative change between
    checks, Frobenius), tol_p the scaled Lyapunov residual (spectral).
    Projected quantities are only evaluated every ``cadence`` iterations.
    """

    tol_f: float = 1e-8
    tol_p: float = 1e-8
    cadence: int = 5
    max_dim: int | None = None

    def __post_init__(self):
        if not (0 < self.tol_f < 1 and 0 < self.tol_p < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")


@dataclass
class KrylovWorkspace:
    """Snapshot of the rational Arnoldi state.

    q: orthonormal basis (n x d); h: projection q^T A q; b_proj: q^T B
    with leading block beta; shifts: used shifts starting with inf;
    ritz: eigenvalues of h.
    """

    q: np.ndarray
    h: np.ndarray
    b_proj: np.ndarray
    shifts: list
    ritz: np.ndarray = None

    @property
    def m(self):
        return self.b_proj.shape[1]

    @property
    def dim(self):
        return self.q.shape[1]

    def ritz_values(self):
        if self.ritz is None or len(self.ritz) != self.h.shape[0]:
            self.ritz = linalg.gen_eig(self.h, vectors=False).values
        return self.ritz


@dataclass
class LowRankGramian:
    """Low-rank factor Z with Z Z^T approximating a Gramian.

    ``stop``: "converged", or "exact_space" when the basis reached dimension n.
    """

    z: np.ndarray
    residual: float
    subspace_dim: int
    rank: int
    wall_time: float
    stop: str
    trace: list = field(default=None, repr=False)
    workspace: KrylovWorkspace = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# dense paths


def _reach_form(sys, side):
    """System whose reachability Gramian is the requested one (the cached dual)."""
    if side == "reachability":
        return sys
    if side == "observability":
        return sys.transposed()
    raise ValueError(f"side must be reachability|observability, got {side!r}")


def _dense_state_input(sys):
    """Dense (M^{-1} A, M^{-1} B) of the first-order form; refused above the threshold."""
    n, lim = sys.order, dense_threshold()
    if n > lim:
        raise ValueError(f"dense Gramian path refused for n={n} > threshold {lim}")
    sys = sys.first_order()
    if sys.mass is None:
        return _dense(sys.A), _dense(sys.B)
    m = _dense(sys.mass)
    return np.linalg.solve(m, _dense(sys.A)), np.linalg.solve(m, _dense(sys.B))


def _dense_rhs(mode, a, b, window):
    """W of a mode's dense equation, from e^{A t} B at the ends of ``window`` (None for bt)."""
    if window is None:
        return _rhs(mode, b, None, None)
    b_s = linalg.expm(a * window.t_s) @ b if window.t_s > 0 else b
    return _rhs(mode, b, b_s, linalg.expm(a * window.t_e) @ b)


def gramian_infinite_dense(sys, side="reachability"):
    """Solve A P + P A^T = -B B^T densely (observability via duality)."""
    a, b = _dense_state_input(_reach_form(sys, side))
    return linalg.lyap_dense(a, _dense_rhs("bt", a, b, None))


def gramian_timelimited_dense(sys, window, side="reachability", route="auto"):
    """Dense time-limited Gramian over [t_s, t_e].

    route="difference" uses the stable-system identity
    P_T = e^{A t_s} P_inf e^{A^T t_s} - e^{A t_e} P_inf e^{A^T t_e};
    route="lyapunov" solves A P + P A^T = -B_s B_s^T + B_e B_e^T with
    B_t = e^{A t} B (valid for admissible unstable A as well);
    route="auto" picks by the stability verdict cached on ``sys``.
    """
    a, b = _dense_state_input(_reach_form(sys, side))
    if route == "auto":
        route = "difference" if spectral_abscissa(sys) < 0 else "lyapunov"
    if route == "difference":
        p_inf = linalg.lyap_dense(a, b @ b.T)
        e_e = linalg.expm(a * window.t_e)
        p_e = e_e @ p_inf @ e_e.T
        if window.t_s > 0:
            e_s = linalg.expm(a * window.t_s)
            p = e_s @ p_inf @ e_s.T - p_e
        else:
            p = p_inf - p_e
    elif route == "lyapunov":
        p = linalg.lyap_dense(a, _dense_rhs("tlbt", a, b, window))
    else:
        raise ValueError(f"unknown route {route!r}")
    return 0.5 * (p + p.T)


def _dense_modified(sys, window, side="reachability"):
    """Dense modified time-limited Gramian (absolute-value surrogate right-hand side)."""
    a, b = _dense_state_input(_reach_form(sys, side))
    return linalg.lyap_dense(a, _dense_rhs("mtlbt", a, b, window))


def factor_psd(p, trunc_tol=_TRUNC_TOL):
    """Cholesky-like factor Z of a symmetric PSD matrix: Z Z^T ~= P."""
    eig = linalg.sym_eig(p)
    lam, vec = eig.values, eig.vectors
    if lam.size == 0:
        return np.zeros((p.shape[0], 0))
    keep = lam > trunc_tol * max(lam[0], 0.0)
    return vec[:, keep] * np.sqrt(lam[keep])[None, :]


# ---------------------------------------------------------------------------
# the rational Arnoldi basis


def _widen(a, rows, cols):
    """``a`` in the leading block of a zero (rows x cols) array."""
    out = np.zeros((rows, cols), order="F")
    out[: a.shape[0], : a.shape[1]] = a
    return out


class _Basis(KrylovWorkspace):
    """The rational Arnoldi state of a solve, grown in place.

    Q, M^{-1} A Q, H = Q^T M^{-1} A Q and b_proj live in buffers that
    double when full, so they never hold more than twice the columns in
    use; ``q``, ``h`` and ``b_proj`` are views of the leading blocks. New
    columns are orthogonalized by block CGS2, H is bordered with their rows
    and columns, and b_proj with zero rows (B lies in the start block).
    With a mass matrix the QR factors Q_M R_M of M Q are bordered with the
    columns added since the previous residual evaluation. ``sys`` supplies
    the pencil (A, M) through the system interface (``apply_a``, ``mass``).
    """

    def __init__(self, sys, b):
        super().__init__(np.zeros((sys.order, 0)), np.zeros((0, 0)), np.zeros((0, sys.m)), [np.inf])
        self.sys, self._bp, self._qr_dim = sys, self.b_proj, 0
        self._q = self._aq = self._qm = self.q
        self._h = self._rm = self.h
        self.extend(b)
        if self.dim == 0:
            raise ValueError("input factor B is numerically zero")
        self.m0 = self.dim
        self._bp[: self.m0] = self.q.T @ b

    def extend(self, v):
        """Append the part of ``v`` outside ``range(Q)``; returns the columns added."""
        d, n = self.dim, self.sys.order
        if d + v.shape[1] > self._q.shape[1]:
            cap = max(d + v.shape[1], min(2 * self._q.shape[1], n))
            self._q, self._aq = _widen(self._q, n, cap), _widen(self._aq, n, cap)
            self._h, self._bp = _widen(self._h, cap, cap), _widen(self._bp, cap, self.m)
            if self.sys.mass is not None:
                self._qm, self._rm = _widen(self._qm, n, cap), _widen(self._rm, cap, cap)
        e = d + linalg.orthonormal_extend(self._q, d, v)
        if e == d:
            return 0
        aq, new = self._aq, self._q[:, d:e]
        aq[:, d:e] = self.sys.mass_solve(self.sys.apply_a(new))
        self._h[:e, d:e] = self._q[:, :e].T @ aq[:, d:e]
        self._h[d:e, :d] = new.T @ aq[:, :d]
        self.q, self.h, self.b_proj = self._q[:, :e], self._h[:e, :e], self._bp[:e]
        return e - d

    def _mass_qr_columns(self, v, d):
        """Columns of Q_M and R_M that append M v to the QR factors of M Q[:, :d] (CGS2)."""
        qm, w, c = self._qm[:, :d], np.asarray(self.sys.mass_apply(v)), 0.0
        for _ in range(2):
            step = qm.T @ w
            w, c = w - qm @ step, c + step
        q_new, t = np.linalg.qr(w)
        return q_new, np.vstack([c, t])

    def residual(self, y, w):
        """Scaled residual of the Lyapunov equation for X = Q Y Q^T, spectral norm.

        ``mu = ||A X M^T + M X A^T + M Q W Q^T M^T|| / ||M Q W Q^T M^T||``.
        Every pole after the start block is finite, so ``M^{-1} A`` maps the
        space into itself plus ``range(M^{-1} A Q_start)``: the rational
        Arnoldi relation reads ``M^{-1} A Q = Q H + U_F C`` with ``U_F``
        (n x m) spanning ``(I - Q Q^T) M^{-1} A Q_start`` and
        ``C = U_F^T (M^{-1} A Q - Q H)``. With ``H Y + Y H^T + W = 0`` the
        residual is ``M U_F (C Y) (M Q)^T`` plus its transpose: of norm
        ``||C Y||`` when ``M = I``, else read off the R factor of
        ``[M Q, M U_F]``, which borders the stored R_M.
        """
        q, h, d, aq = self.q, self.h, self.dim, self._aq[:, : self.dim]
        f = aq[:, : self.m0] - q @ h[:, : self.m0]
        u = np.linalg.qr(f - q @ (q.T @ f))[0]
        cy = (u.T @ aq - (u.T @ q) @ h) @ y
        if self.sys.mass is None:
            num, den = np.linalg.norm(cy, 2), np.linalg.norm(w, 2)
        else:
            k, self._qr_dim = self._qr_dim, d
            self._qm[:, k:d], self._rm[:d, k:d] = self._mass_qr_columns(q[:, k:], k)
            rm, p = self._rm[:d, :d], np.zeros((d + u.shape[1],) * 2)
            p[:, :d] = self._mass_qr_columns(u, d)[1] @ cy @ rm.T
            num = np.max(np.abs(np.linalg.eigvalsh(p + p.T)))
            den = np.max(np.abs(np.linalg.eigvalsh(rm @ w @ rm.T)))
        return float(num) if den == 0.0 else float(num / den)


# ---------------------------------------------------------------------------
# adaptive shift selection


def _perturbed(point, scale):
    """Deterministic fallback shift near a degenerate candidate region."""
    s = point + 0.05 * max(abs(point), 0.1 * scale, 1e-8)
    return complex(max(s.real, 0.0), abs(s.imag))


def _hull_boundary(points, npts):
    """Sample npts points from the boundary of the convex hull of complex points."""
    xy = np.column_stack([points.real, points.imag])
    try:
        hull = ConvexHull(xy)
    except QhullError:
        # collinear: sample the segment between the two most distant points
        d0 = np.argmax(np.abs(points - points[0]))
        d1 = np.argmax(np.abs(points - points[d0]))
        return np.linspace(points[d0], points[d1], npts)
    verts = points[hull.vertices]
    edges = np.abs(np.roll(verts, -1) - verts)
    perim = edges.sum()
    out = []
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        cnt = max(int(round(npts * edges[i] / perim)), 2)
        out.append(np.linspace(v, w, cnt, endpoint=False))
    return np.concatenate(out)


def _select_shift(ritz, shifts, m, symmetric=False, npts=2000):
    """Next pole for the rational Krylov basis.

    Druskin & Simoncini (2011, "Adaptive rational Krylov subspaces for
    large-scale dynamical systems"): maximizes
    prod|s - s_j|^m / prod|s - z_j|, with s_j the previous finite shifts
    and z_j the Ritz values, over a discretized boundary of the convex
    hull of the mirrored Ritz values {-conj(z)}. The next pole thus goes
    where the rational function with the Ritz values as zeros and the
    shifts as poles is smallest, i.e. where the current space resolves
    the spectrum worst. Real spectra spanning a positive interval are
    sampled on a geometric grid, so stiff spectra get candidates in
    every decade. Both point sets are closed under conjugation, so the
    objective is too: only candidates in the upper half-plane are
    evaluated, and each conjugate pair enters as one factor.
    Points too close to previous shifts (1e-8 relative) or to mirrored
    Ritz values (1e-12 relative) are excluded. Complex results come back
    as the upper-half-plane representative of the conjugate pair.
    """
    ritz = np.asarray(ritz, dtype=complex)
    if ritz.size == 0:
        raise DegenerateHullError("no Ritz values available")
    scale = float(np.max(np.abs(ritz)))
    if scale == 0.0:
        scale = 1.0
    mirrored = -np.conj(ritz)
    uniq = np.unique(np.round(mirrored / scale, 14))
    if uniq.size == 1:
        return _perturbed(mirrored[0], scale)
    if symmetric or np.all(np.abs(mirrored.imag) <= 1e-12 * scale):
        lo, hi = mirrored.real.min(), mirrored.real.max()
        grid = np.geomspace if lo > 0 else np.linspace
        cand = np.maximum(grid(lo, hi, npts), 0.0)
    else:
        cand = _hull_boundary(mirrored, npts)
        cand = cand[cand.imag >= 0]
        cand = np.where(cand.real < 0, 1j * cand.imag, cand)
    finite = np.array([s for s in shifts if np.isfinite(s)], dtype=complex)
    upper = [p[p.imag >= 0] for p in (finite, mirrored, ritz)]
    # objective: one factor |(s - p)(s - conj(p))| per conjugate pair, and
    # |s - p|^2 at half weight per real point
    poles = _real_if_real(np.concatenate([upper[0], upper[2]]))
    weight = np.repeat([float(m), -1.0], [upper[0].size, upper[2].size])
    weight = np.where(poles.imag > 0, weight, 0.5 * weight)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = cand[:, None] - poles
        f *= cand[:, None] - np.conj(poles)
        f = np.abs(f)  # at most two (candidates x poles) arrays alive at once
        obj = np.log(f, out=f) @ weight
    # exclusions, tested on the best candidates first (the argmax over the
    # admissible ones is the first admissible one in that order); a candidate
    # in the upper half-plane is nearer to p than to conj(p) whenever p is
    # there too, so the upper representatives decide
    near = _real_if_real(np.concatenate(upper[:2]))
    rel = np.repeat([1e-8, 1e-12], [upper[0].size, upper[1].size])
    order = np.argsort(-obj, kind="stable")
    for start in range(0, order.size, 64):
        top = cand[order[start : start + 64]]
        far = np.abs(top[:, None] - near) > rel * np.maximum(np.abs(top)[:, None], np.abs(near))
        admissible = np.all(far, axis=1)
        if admissible.any():
            s = top[np.argmax(admissible)]
            break
    else:
        raise DegenerateHullError("all shift candidates excluded")
    if abs(s.imag) <= 1e-12 * max(abs(s), scale):
        return float(s.real)
    return complex(s.real, abs(s.imag))


def _real_if_real(points):
    return points if points.imag.any() else points.real.copy()


def adaptive_shift(ws):
    """Select the next shift for a workspace (see :func:`_select_shift`)."""
    h = ws.h
    symmetric = np.linalg.norm(h - h.T, "fro") <= 1e-12 * max(np.linalg.norm(h, "fro"), 1e-300)
    try:
        return _select_shift(ws.ritz_values(), ws.shifts, ws.m, symmetric=symmetric)
    except DegenerateHullError:
        mirrored = -np.conj(ws.ritz_values()[0])
        return _perturbed(mirrored, max(float(np.max(np.abs(ws.ritz_values()))), 1.0))


# ---------------------------------------------------------------------------
# projected quantities


def expm_action_approx(ws, t):
    """Galerkin approximation of e^{A t} B from the workspace.

    Returns (coefficients e^{H t} q^T B, lifted n x m approximation).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    coeff = linalg.expm(ws.h * t) @ ws.b_proj if t > 0 else ws.b_proj.copy()
    return coeff, ws.q @ coeff


def _abs_eig_factor(w_sym, tol=1e-12):
    """Factor F with F F^T = sum |lambda_i| v_i v_i^T of a symmetric matrix."""
    eig = linalg.sym_eig(w_sym)
    lam, vec = eig.values, eig.vectors
    if lam.size == 0:
        return np.zeros((w_sym.shape[0], 0))
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0:
        return np.zeros((w_sym.shape[0], 0))
    keep = np.abs(lam) > tol * scale
    return vec[:, keep] * np.sqrt(np.abs(lam[keep]))[None, :]


def _surrogate_factor(b_s, b_e):
    """Factor of |b_s b_s^T - b_e b_e^T|, the stability-preserving right-hand side."""
    w = _rhs("tlbt", None, b_s, b_e)
    return _abs_eig_factor(0.5 * (w + w.T))


def _rhs(mode, b, b_s, b_e):
    """W of a mode's Lyapunov equation H P + P H^T + W = 0.

    From the input block ``b`` and e^{H t} b at the window ends (``b_s``,
    ``b_e``; unused by bt): bt takes b b^T, tlbt b_s b_s^T - b_e b_e^T
    (Gawronski & Juang 1990), mtlbt its absolute-eigenvalue surrogate.
    """
    if mode == "bt":
        return b @ b.T
    if mode == "tlbt":
        return b_s @ b_s.T - b_e @ b_e.T
    f = _surrogate_factor(b_s, b_e)
    return f @ f.T


# ---------------------------------------------------------------------------
# the rational Krylov solver


def _require_stable(sys):
    """Raise UnstableSystemError unless the abscissa cached on ``sys`` proves it stable.

    A dense standard system is verified at any size from the Schur form its
    shifted solves need anyway; other systems only up to the dense threshold.
    """
    if sys.order > dense_threshold() and not _dense_standard(sys):
        warnings.warn("system too large for dense stability verification; "
                      "proceeding unverified", stacklevel=3)
        return
    ab = spectral_abscissa(sys)
    if ab >= 0:
        warnings.warn(f"system is not asymptotically stable (spectral abscissa {ab:.3e})",
                      stacklevel=3)
        raise UnstableSystemError(
            "low-rank Krylov path requires a stable system; use the dense route"
        )


def _solve_lowrank(sys, window, cfg, mode, side, poles=None):
    """Shared driver behind the three low-rank Gramian solvers.

    ``poles`` replays the ``workspace.shifts`` (``inf`` first) of an
    earlier solve of the same system and side: each growth step takes
    ``poles[len(shifts)]`` while the list has an entry there and picks
    adaptively after that; a complex pole still adds its conjugate, which
    is the next entry. The shifts depend on the pencil and the start block,
    never on the mode, so the result is bit-identical to a fresh solve.
    """
    cfg = cfg or SolverConfig()
    poles = poles or ()
    _require_stable(sys)
    t0 = time.perf_counter()
    form = _reach_form(sys, side)
    n, m = form.order, form.m
    b = np.atleast_2d(form.mass_solve(form.start_block()).astype(float))
    ws = _Basis(form, b)
    max_dim = min(n, cfg.max_dim or 600)
    times = [("e", window.t_e)] + [("s", window.t_s)] * (window.t_s > 0) if window else []
    bnorm = np.linalg.norm(b)
    trace, prev_lift = [], {}
    since_check = stagnant = 0
    force_check = False
    mu = np.inf

    def run_check(exact):
        """(converged, y, f_change, mu); ``exact`` (d = n) skips the tol_f gate."""
        f_changes, coeffs = [0.0], {}
        for key, t in times:
            try:
                coeffs[key], lifted = expm_action_approx(ws, t)
            except OverflowRangeError:
                return False, None, np.inf, np.inf
            cur = np.linalg.norm(lifted)
            diff = np.linalg.norm(lifted - prev_lift[key]) if key in prev_lift else np.inf
            prev_lift[key] = lifted
            small = cur <= 1e-14 * bnorm and (diff <= 1e-14 * bnorm or not np.isfinite(diff))
            f_changes.append(0.0 if small else diff / max(cur, 1e-300))
        fch = max(f_changes)
        if not exact and fch >= cfg.tol_f:
            return False, None, fch, np.inf
        w_proj = _rhs(mode, ws.b_proj, coeffs.get("s", ws.b_proj), coeffs.get("e"))
        try:
            y, ws.ritz = linalg.lyap_dense(ws.h, w_proj, eigenvalues=True)
        except SpectrumConflictError:
            return False, None, fch, np.inf
        mu_k = ws.residual(y, w_proj)
        return mu_k < cfg.tol_p, y, fch, mu_k

    while True:
        d = ws.dim
        if since_check >= cfg.cadence or force_check or d >= max_dim:
            ws.ritz = None
            converged, y, f_change, mu = run_check(d >= n)
            since_check, force_check = 0, False
            trace.append({"k": len(ws.shifts) - 1, "shift": ws.shifts[-1], "dim": d,
                          "f_change": f_change, "mu": mu})
            if converged:
                break
            if d >= max_dim:
                raise MaxDimExceededError(
                    f"subspace cap {max_dim} reached (dim {d}, mu {mu:.3e}, "
                    f"expm change {f_change:.3e})"
                )
            if ws.ritz is None and len(ws.shifts) >= len(poles):
                # after a check the Ritz values come from the Schur form of H, solved
                # or not: then the shifts never depend on the mode (see poles=)
                ws.ritz = linalg._real_schur(ws.h)[2]
        # grow the basis by (M^{-1} A - s I)^{-1} v = (A - s M)^{-1} M v, so the
        # basis, and with it the Gramian factor, lives in the original coordinates
        s = poles[len(ws.shifts)] if len(ws.shifts) < len(poles) else adaptive_shift(ws)
        mv = form.mass_apply(ws.q[:, -m:])
        try:
            g = shifted_solve(form, s, mv)
        except SingularShiftError:
            s = _perturbed(complex(s), max(abs(complex(s)), 1.0))
            g = shifted_solve(form, s, mv)  # second failure propagates
        g = np.asarray(g)
        if np.iscomplexobj(g) and abs(np.imag(complex(s))) > 0:
            new = [complex(s), np.conj(complex(s))]
            g = np.hstack([g.real, g.imag])
        else:
            new, g = [float(np.real(s))], g.real
        ws.shifts += new
        since_check += len(new)
        if ws.extend(g):
            stagnant = 0
        else:
            stagnant += 1
            force_check = True
            if stagnant > 2:
                raise NoConvergenceError(
                    f"rational Krylov basis stagnated at dim {d} (mu {mu:.3e})"
                )

    z = ws.q @ factor_psd(y)
    return LowRankGramian(
        z=z, residual=float(mu), subspace_dim=int(d), rank=int(z.shape[1]),
        wall_time=time.perf_counter() - t0, stop="exact_space" if d >= n else "converged",
        trace=trace,
        workspace=KrylovWorkspace(ws.q.copy(), ws.h.copy(), ws.b_proj.copy(), ws.shifts),
    )


def solve_infinite_lowrank(sys, cfg=None, side="reachability", poles=None):
    """Low-rank factor of the infinite Gramian by the rational Krylov method."""
    return _solve_lowrank(sys, None, cfg, "bt", side, poles)


def solve_timelimited_lowrank(sys, window, cfg=None, side="reachability", poles=None):
    """Low-rank factor of the time-limited Gramian over [t_s, t_e]."""
    return _solve_lowrank(sys, window, cfg, "tlbt", side, poles)


def solve_modified_lowrank(sys, window, cfg=None, side="reachability", poles=None):
    """Low-rank factor of the stability-preserving modified Gramian."""
    return _solve_lowrank(sys, window, cfg, "mtlbt", side, poles)


def mode_gramian(
    sys, mode, window=None, cfg=None, side="reachability", method="krylov", poles=None
):
    """One side's Gramian of a balanced-truncation mode (see :data:`MODES`).

    ``method="krylov"`` returns a :class:`LowRankGramian` (``poles``
    replays the shifts of an earlier solve of this side, see
    :func:`_solve_lowrank`), ``"dense"`` the dense Gramian. The table is
    built at call time from the module attributes, so a rebound
    ``solve_*_lowrank`` (a tracer, a test spy) sees every call.
    """
    routes = {
        "bt": (solve_infinite_lowrank, gramian_infinite_dense),
        "tlbt": (solve_timelimited_lowrank, gramian_timelimited_dense),
        "mtlbt": (solve_modified_lowrank, _dense_modified),
    }
    if mode not in routes:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode != "bt" and window is None:
        raise ValueError(f"mode {mode!r} needs a time window")
    lowrank, dense = routes[mode]
    args = (sys,) if mode == "bt" else (sys, window)
    if method == "krylov":
        return lowrank(*args, cfg=cfg, side=side, poles=poles)
    if method == "dense":
        return dense(*args, side=side)
    raise ValueError(f"method must be dense|krylov, got {method!r}")


def mode_gramians(sys, modes, window=None, cfg=None, method="krylov", sides=SIDES):
    """Yield ``{side: mode_gramian(sys, mode, ...)}`` for each of ``modes``.

    Krylov solves verify ``sys`` from the spectral abscissa it caches. The
    adaptive shifts depend on the system and the side, never on the mode,
    so every mode replays the longest shift list of each side so far
    (``poles=``) and picks new shifts only where it needs a larger basis:
    the results equal separate :func:`mode_gramian` calls.
    """
    poles = {}
    for mode in modes:
        out = {side: mode_gramian(sys, mode, window, cfg, side, method, poles.get(side))
               for side in sides}
        if method == "krylov":
            for side, g in out.items():
                poles[side] = max(poles.get(side, []), g.workspace.shifts, key=len)
        yield out
