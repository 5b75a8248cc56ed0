"""Infinite and time-limited Gramians: the dense route and the low-rank solver.

Every mode's Gramian solves one Lyapunov equation A P + P A^T + W = 0.
``_window_ends`` forms e^{A t} B at the window ends, and ``_rhs`` maps a
mode and those ends to W = F J F^T, F of at most 2m columns (Gawronski &
Juang): bt takes B B^T, tlbt B_s B_s^T - B_e B_e^T, mtlbt the
absolute-eigenvalue surrogate of that possibly indefinite W. The dense
route (``_dense_gramian``) is both and a Bartels-Stewart solve on
(M^{-1} A, M^{-1} B). The large-scale route is a rational Krylov method
with adaptive shifts (``_solve_lowrank``): its basis (``_Basis``) grows by
shifted solves until the window ends of the projected (H, b_proj) stop
changing, then the projected equation is solved with ``_rhs``'s W and a
residual bound from the rational Arnoldi relation decides termination.
The trimmed basis is the result's ``workspace``; a solve replays what
earlier solves of its side formed (``_Replay``). Each adaptive shift is
sampled from the convex hull of the mirrored Ritz values, a monotone
chain on numpy (no qhull) that merges vertices within roundoff of a
chord, as qhull does.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg, systems
from .errors import (
    MaxDimExceededError,
    NoConvergenceError,
    OverflowRangeError,
    SingularShiftError,
    SpectrumConflictError,
    UnstableSystemError,
)
from .systems import _verifiable, shifted_solve, spectral_abscissa

__all__ = [
    "TimeWindow",
    "SolverConfig",
    "LowRankGramian",
    "solve_infinite_lowrank",
    "solve_timelimited_lowrank",
    "solve_modified_lowrank",
    "factor_psd",
    "MODES",
    "SIDES",
    "mode_gramian",
]

#: balanced-truncation modes: bt balances the infinite Gramians, tlbt the
#: time-limited ones, mtlbt the stability-preserving modified ones
MODES = ("bt", "tlbt", "mtlbt")
#: the two Gramians of a mode, in the order every balancing route takes them
SIDES = ("reachability", "observability")
_TRUNC_TOL = 1e-12  # relative eigenvalue cutoff of the PSD factors (_scaled_columns)
_NPTS = 2000  # shift candidates sampled from the mirrored Ritz values (_select_shift)
_HULL_TOL = 2e-15  # hull vertices this near a chord, times the largest coordinate, merge
_CADENCE = 5  # shifts added between the projected checks of a low-rank solve


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

    tol_f bounds the change of W's factor F = [B_s, B_e] between checks
    (Frobenius, relative to F's largest block, the scale of mu's ||G||),
    tol_p the scaled Lyapunov residual (spectral) of the equation with the
    projected right-hand side, so tol_f alone controls the error in B_s
    and B_e. Projected quantities are only evaluated every ``_CADENCE`` shifts.
    """

    tol_f: float = 1e-8
    tol_p: float = 1e-8
    max_dim: int | None = None

    def __post_init__(self):
        if not (0 < self.tol_f < 1 and 0 < self.tol_p < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_dim is not None and self.max_dim < 1:
            raise ValueError("max_dim must be >= 1")


@dataclass
class LowRankGramian:
    """Low-rank factor Z with Z Z^T approximating a Gramian.

    ``stop``: "converged", or "exact_space" when the basis reached dimension n.
    ``residual`` (mu) bounds the residual of Q Y Q^T for the projected
    right-hand side (``_Basis.residual``), not of Z Z^T for the true one.
    """

    z: np.ndarray
    residual: float
    subspace_dim: int
    rank: int
    wall_time: float
    stop: str
    trace: list = field(default=None, repr=False)
    workspace: "_Basis" = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# dense paths


def _reach_form(sys, side):
    """System whose reachability Gramian is the requested one (the cached dual)."""
    if side not in SIDES:
        raise ValueError(f"side must be reachability|observability, got {side!r}")
    return sys if side == "reachability" else sys.transposed()


def _dense_gramian(sys, mode, window, side):
    """Dense Gramian of a mode: :func:`_rhs` on ``(M^{-1} A, M^{-1} B)``, then Bartels-Stewart.

    The equation M^{-1} A P + P (M^{-1} A)^T + W = 0 holds for an unstable
    A whose spectrum is disjoint from its mirror as well. Refused above
    ``systems._DENSE_MAX``.
    """
    if sys.order > systems._DENSE_MAX:
        raise ValueError(
            f"dense Gramian path refused for n={sys.order} > threshold {systems._DENSE_MAX}"
        )
    a, b = _reach_form(sys, side).dense_state_input()
    f, j = _rhs(mode, window, b, _window_ends(window, a, b))
    return linalg.lyap_dense(a, f @ j @ f.T)


def factor_psd(p):
    """Cholesky-like factor Z of a symmetric PSD matrix: Z Z^T ~= P (see _scaled_columns)."""
    return _scaled_columns(*linalg.sym_eig(p))


def _scaled_columns(lam, vec):
    """``vec[:, k] sqrt(lam[k])`` over the ``lam`` above 1e-12 of the largest, in their order."""
    keep = lam > _TRUNC_TOL * lam.max(initial=0.0)
    return vec[:, keep] * np.sqrt(lam[keep])


def _sym_lowrank(f, j):
    """``(U, lam)`` with ``F J F^T = U diag(lam) U^T`` and U orthonormal.

    From a thin QR ``F = Q R`` and an eigendecomposition of the core
    ``R J R^T``, whose order is at most the column count of F (2m here).
    """
    q, r = np.linalg.qr(f)
    lam, v = np.linalg.eigh(r @ j @ r.T)
    return q @ v, lam


# ---------------------------------------------------------------------------
# the rational Arnoldi basis


def _widen(a, rows, cols):
    """``a`` in the leading block of a zero (rows x cols) array."""
    out = np.zeros((rows, cols), order="F")
    out[: a.shape[0], : a.shape[1]] = a
    return out


class _Basis:
    """The rational Arnoldi state of a solve, grown in place; a result's ``workspace``.

    Q, M^{-1} A Q and H = Q^T M^{-1} A Q live in buffers that double when
    full, so they never hold more than twice the columns in use; ``q`` and
    ``h`` are views of the leading blocks. New columns are orthogonalized
    by block CGS2 and H is bordered with their rows and columns. B lies in
    the start block, so ``b_proj = Q^T b`` is ``Q_start^T b`` over zero rows.
    ``sys`` supplies the pencil (A, M) through the system interface
    (``apply_a``, ``mass_apply``, ``mass_solve``). ``shifts`` lists the
    poles used, ``inf`` first. ``trim`` ends the solve.
    """

    def __init__(self, sys, b):
        self.sys, self.m, self.shifts = sys, sys.m, [np.inf]
        self.q = self._q = self._aq = np.zeros((sys.order, 0))
        self.h = self._h = np.zeros((0, 0))
        self.extend(b)
        if self.dim == 0:
            raise ValueError("input factor B is numerically zero")
        self.m0 = self.dim
        self._beta = self.q.T @ b
        mass = np.ones((1, 1)) if sys.mass is None else abs(sys.mass)
        self._mass_sq = float(mass.sum(0).max() * mass.sum(1).max())  # >= ||M||_2^2

    @property
    def dim(self):
        return self.q.shape[1]

    @property
    def b_proj(self):
        return _widen(self._beta, self.dim, self.m)

    def extend(self, v):
        """Append the part of ``v`` outside ``range(Q)``; returns the columns added."""
        d, n = self.dim, self.sys.order
        if d + v.shape[1] > self._q.shape[1]:
            cap = max(d + v.shape[1], min(2 * self._q.shape[1], n))
            self._q, self._aq = _widen(self._q, n, cap), _widen(self._aq, n, cap)
            self._h = _widen(self._h, cap, cap)
        e = d + linalg.orthonormal_extend(self._q, d, v)
        if e == d:
            return 0
        aq, new = self._aq, self._q[:, d:e]
        aq[:, d:e] = self.sys.mass_solve(self.sys.apply_a(new))
        self._h[:e, d:e] = self._q[:, :e].T @ aq[:, d:e]
        self._h[d:e, :d] = new.T @ aq[:, :d]
        self.q, self.h = self._q[:, :e], self._h[:e, :e]
        return e - d

    def trim(self):
        """Keep owned copies of ``q`` and ``h`` at their used size only.

        Drops the doubling buffers, the image M^{-1} A Q and the system, so
        a returned workspace holds the basis once; it can no longer grow.
        """
        self.q, self.h = self.q.copy(), self.h.copy()
        del self.sys, self._q, self._aq, self._h

    def residual(self, y, f, j):
        """Upper bound on the scaled residual for X = Q Y Q^T, spectral norm.

        ``mu >= ||A X M^T + M X A^T + G|| / ||G||`` with ``G = (M Q F) J (M Q F)^T``
        for the ``W = F J F^T`` of :func:`_rhs`: the projected right-hand side
        and the full Y, not the truncated factor. Every pole after the start
        block is finite, so ``M^{-1} A`` maps the space into itself plus
        ``range(M^{-1} A Q_start)``: the rational Arnoldi relation reads
        ``M^{-1} A Q = Q H + U_F C`` with ``U_F`` (n x m) spanning
        ``(I - Q Q^T) M^{-1} A Q_start`` and ``C = U_F^T (M^{-1} A Q - Q H)``.
        The residual is then ``V [[0, I], [I, 0]] V^T + M Q R_p Q^T M^T``
        with ``V = [M U_F, M Q (C Y)^T]`` and ``R_p = H Y + Y H^T + W``, the
        projected equation's own residual. The first term's norm and
        ``||G||`` are read off n x 2m factors (:func:`_sym_lowrank`), with or
        without a mass matrix; the second is bounded by ``||M||_2^2 ||R_p||_2``.
        """
        q, h, aq = self.q, self.h, self._aq[:, : self.dim]
        g = aq[:, : self.m0] - q @ h[:, : self.m0]
        u = np.linalg.qr(g - q @ (q.T @ g))[0]
        cy = (u.T @ aq - (u.T @ q) @ h) @ y
        swap = np.roll(np.eye(2 * self.m0), self.m0, axis=1)
        num = np.abs(_sym_lowrank(self.sys.mass_apply(np.hstack([u, q @ cy.T])), swap)[1]).max()
        num += self._mass_sq * np.linalg.norm(h @ y + y @ h.T + f @ j @ f.T, 2)
        den = np.abs(_sym_lowrank(self.sys.mass_apply(q @ f), j)[1]).max(initial=0.0)
        return float(num) if den == 0.0 else float(num / den)


# ---------------------------------------------------------------------------
# adaptive shift selection


def _perturbed(point, scale):
    """Deterministic fallback shift near a degenerate candidate region."""
    s = point + 0.05 * max(abs(point), 0.1 * scale, 1e-8)
    return complex(max(s.real, 0.0), abs(s.imag))


def _chain(sweep, xs, ys, tol2):
    """Vertices of the convex chain through the points ``sweep`` indexes, in sweep order.

    Andrew's monotone chain: a point stays while it lies more than
    ``sqrt(tol2)`` outside the chord from its predecessor to the next point
    (a strict left turn; compared squared). The last point is left off, as
    it starts the next chain.
    """
    n = len(sweep)
    kx, ky, keep = [0.0] * n, [0.0] * n, [0] * n
    k = 0
    for i in sweep:
        x, y = xs[i], ys[i]
        while k >= 2:
            ax, ay = kx[k - 2], ky[k - 2]
            wx, wy = x - ax, y - ay
            c = (kx[k - 1] - ax) * wy - (ky[k - 1] - ay) * wx  # |chord| * distance
            if c > 0.0 and c * c > tol2 * (wx * wx + wy * wy):
                break
            k -= 1
        kx[k], ky[k], keep[k] = x, y, i
        k += 1
    return keep[: k - 1]


def _hull_boundary(points, npts):
    """npts points on the convex hull boundary of complex points, spaced by linspace per edge.

    The vertices run counterclockwise from the lexicographically smallest
    point: Andrew's monotone chain (1979), lower and upper chains split by
    the line from the first to the last sorted point (points within the
    tolerance of it take part in both). A vertex within ``_HULL_TOL`` times
    the largest coordinate of the chord through its neighbours is merged,
    as qhull merges it: the Ritz values of weakly damped modes lie on rays.
    With fewer than three vertices the segment between the two most
    distant points is sampled.
    """
    p = points[np.lexsort((points.imag, points.real))]
    x, y = p.real, p.imag
    xs, ys = x.tolist(), y.tolist()
    tol = _HULL_TOL * float(np.abs(p.view(x.dtype)).max())
    span = p[-1] - p[0]
    side = span.real * (y - ys[0]) - span.imag * (x - xs[0])
    near = tol * abs(span)
    lower = np.flatnonzero(side <= near).tolist()
    upper = np.flatnonzero(side >= -near)[::-1].tolist()
    v = _chain(lower, xs, ys, tol * tol) + _chain(upper, xs, ys, tol * tol)
    if len(v) < 3:
        d0 = np.argmax(np.abs(points - points[0]))
        d1 = np.argmax(np.abs(points - points[d0]))
        return np.linspace(points[d0], points[d1], npts)
    verts = p[v]
    step = p[v[1:] + v[:1]] - verts
    edges = np.abs(step)
    cnt = np.maximum(np.rint(npts * edges / edges.sum()).astype(int), 2)
    k = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return k.astype(complex) * np.repeat(step / cnt, cnt) + np.repeat(verts, cnt)


def _select_shift(ritz, shifts, m):
    """Next pole for the rational Krylov basis.

    Druskin & Simoncini (2011, "Adaptive rational Krylov subspaces for
    large-scale dynamical systems"): maximizes prod|s - s_j|^m / prod|s - z_j|,
    with s_j the previous finite shifts and z_j the Ritz values, over the
    boundary of the convex hull of the mirrored Ritz values {-conj(z)}
    (``_hull_boundary``), i.e. where the current space resolves the
    spectrum worst. Ritz values real within 1e-12 of the largest modulus
    are sampled on their interval instead, geometrically when it is
    positive, so stiff spectra get candidates in every decade. Both point
    sets are closed under conjugation: only candidates ``x + iy`` in the
    upper half-plane are evaluated, a pair ``a +/- ib`` as one real factor
    ``((x - a)^2 + b^2 - y^2)^2 + (2y(x - a))^2`` (its root on real
    candidates) of the points divided by the largest Ritz modulus. Points
    within 1e-8 (relative) of previous shifts or 1e-12 of mirrored Ritz
    values are excluded; when every candidate is, or the mirrored Ritz
    values coincide, ``_perturbed`` gives a point next to the first one.
    A complex result is the upper-half-plane member of its pair.
    """
    ritz = np.asarray(ritz, dtype=complex)
    scale = float(np.max(np.abs(ritz))) or 1.0
    mirrored = -np.conj(ritz)
    rounded = np.round(mirrored / scale, 14)
    if np.all(rounded == rounded[0]):
        return _perturbed(mirrored[0], scale)
    if np.all(np.abs(mirrored.imag) <= 1e-12 * scale):
        lo, hi = mirrored.real.min(), mirrored.real.max()
        grid = np.geomspace if lo > 0 else np.linspace
        cand = np.maximum(grid(lo, hi, _NPTS), 0.0)
    else:
        cand = _hull_boundary(mirrored, _NPTS)
        cand = cand[cand.imag >= 0]
        cand = np.where(cand.real < 0, 1j * cand.imag, cand)
    shifts = np.asarray(shifts, dtype=complex)
    upper = [p[p.imag >= 0] for p in (shifts[np.isfinite(shifts)], mirrored, ritz)]
    # objective: log|(s - p)(s - conj(p))| per pair, at half weight per real point
    poles = np.concatenate([upper[0], upper[2]])
    weight = np.repeat([float(m), -1.0], [upper[0].size, upper[2].size])
    weight = np.where(poles.imag > 0, weight, 0.5 * weight)
    y, b2 = cand.imag / scale, ((poles.imag / scale) ** 2)[:, None]
    f = cand.real / scale - (poles.real / scale)[:, None]  # x - a, poles x candidates
    # in place: a fresh (poles x candidates) array costs more than the arithmetic
    with np.errstate(divide="ignore", invalid="ignore"):
        if y.any():  # |(s - p)(s - conj(p))|^2, hence half the weight
            g = f * f
            g -= y * y
            g += b2
            g *= g
            f *= 2.0 * y
            f *= f
            f += g
            weight = 0.5 * weight
        else:
            f *= f
            if b2.any():
                f += b2
        obj = weight @ np.log(f, out=f)
    # exclusions: the argmax if finite and admissible, else the first admissible
    # candidate in stable order; the upper representatives decide, as a candidate
    # in the upper half-plane is nearer to p than to conj(p) whenever p is there too
    near = np.concatenate(upper[:2])
    rel = np.repeat([1e-8, 1e-12], [upper[0].size, upper[1].size])

    def admissible(top):
        far = np.abs(top[:, None] - near) > rel * np.maximum(np.abs(top)[:, None], np.abs(near))
        return np.all(far, axis=1)

    best = np.argmax(obj)
    if np.isfinite(obj[best]) and admissible(cand[best : best + 1])[0]:
        s = cand[best]
    else:
        order = np.argsort(-obj, kind="stable")
        for start in range(0, order.size, 64):
            top = cand[order[start : start + 64]]
            ok = admissible(top)
            if ok.any():
                s = top[np.argmax(ok)]
                break
        else:  # every candidate excluded
            return _perturbed(mirrored[0], max(scale, 1.0))
    if abs(s.imag) <= 1e-12 * max(abs(s), scale):
        return float(s.real)
    return complex(s.real, abs(s.imag))


# ---------------------------------------------------------------------------
# projected quantities


def _window_ends(window, h, b, known=None):
    """``e^{h t} b`` at the window ends t > 0, t_s first; none without a window (bt).

    ``linalg.expm`` raises OverflowRangeError out of range. ``known`` maps
    ``(order of h, t)`` to an end formed before; it is read first, and
    filled, read-only, once every end is formed. A Krylov check passes
    (H, b_proj) and its replayed ends, the dense route (M^{-1} A, M^{-1} B).
    """
    if window is None:
        return []
    known = {} if known is None else known
    keys = [(len(h), t) for t in (window.t_s, window.t_e) if t > 0]
    ends = [known[k] if k in known else linalg.expm(h * k[1]) @ b for k in keys]
    for k, end in zip(keys, ends):
        end.flags.writeable = False
        known[k] = end
    return ends


def _blocks(window, b, ends):
    """The blocks ``[b_s, b_e]`` of the time-limited F, b_s being b when t_s = 0."""
    return ends if window.t_s > 0 else [b, *ends]


def _rhs(mode, window, b, ends):
    """``(F, J)`` with W = F J F^T, the right-hand side of a mode's equation H P + P H^T + W = 0.

    ``ends`` are :func:`_window_ends` of ``(h, b)``, and b_s is b when t_s = 0.
    bt takes (b, I), tlbt ([b_s, b_e], diag(I, -I)) for b_s b_s^T - b_e b_e^T
    (Gawronski & Juang 1990), mtlbt that W's absolute-eigenvalue surrogate
    (U |lambda|^{1/2}, I) without the eigenvalues at most 1e-12 of the largest.
    """
    if mode == "bt":
        return b, np.eye(b.shape[1])
    f = np.hstack(_blocks(window, b, ends))
    j = np.diag(np.repeat([1.0, -1.0], b.shape[1]))
    if mode == "tlbt":
        return f, j
    u, lam = _sym_lowrank(f, j)
    f = _scaled_columns(np.abs(lam), u)
    return f, np.eye(f.shape[1])


# ---------------------------------------------------------------------------
# the rational Krylov solver


@dataclass
class _Replay:
    """What a reach form's solves replay (:func:`_solve_lowrank`)."""

    poles: list = field(default_factory=lambda: [np.inf])  # shifts picked, inf first
    ends: dict = field(default_factory=dict)  # e^{H t} b_proj by (d, t), read-only
    deepest: tuple = (0, None, None, None)  # (d, R, U, Ritz values) of the deepest H checked


def _require_stable(sys):
    """Raise UnstableSystemError unless the abscissa cached on ``sys`` proves it stable.

    A dense standard system is verified at any size from the Schur form its
    shifted solves need anyway; other systems only up to the dense threshold
    (``systems._verifiable``), above which the solve proceeds with a warning.
    """
    if not _verifiable(sys):
        warnings.warn("system too large for dense stability verification; "
                      "proceeding unverified", stacklevel=3)
        return
    ab = spectral_abscissa(sys)
    if ab >= 0:
        raise UnstableSystemError(
            f"system is not asymptotically stable (spectral abscissa {ab:.3e}); "
            "the low-rank Krylov path requires a stable system, use the dense route"
        )


def _solve_lowrank(sys, window, cfg, mode, side):
    """Shared driver behind the three low-rank Gramian solvers.

    The adaptive shifts depend only on the pencil and the start block (the
    Ritz values come from H every ``_CADENCE`` shifts, never from the mode,
    the window or the tolerances). So the reach form (the system or its
    cached dual) keeps a :class:`_Replay` in its ``_replay`` slot: each
    growth step takes its pole at ``len(workspace.shifts)`` while there is
    one and appends what it picks after that. H and b_proj at dimension d
    then depend on the reach form and d alone, so the replay also keeps the
    window ends by (d, t) and the deepest Schur form of H a check formed.
    Every solve equals a solve of a fresh copy of the system, bit for bit,
    and forms no shift, end or deepest Schur form formed before on its side.
    """
    cfg = cfg or SolverConfig()
    _require_stable(sys)
    t0 = time.perf_counter()
    form = _reach_form(sys, side)
    replay = form._replay = form._replay or _Replay()
    poles = replay.poles
    n, m = form.order, form.m
    b = form.mass_solve(form.B)
    ws = _Basis(form, b)
    max_dim = min(n, cfg.max_dim or 600)
    trace, prev = [], [np.zeros((0, m))] * 2
    since_check = stagnant = 0
    mu = np.inf

    def schur():
        """``(R, U, Ritz values)`` of H; the replay keeps the deepest one formed."""
        deepest, *found = replay.deepest
        if deepest != ws.dim:
            found = linalg._real_schur(ws.h)
            if ws.dim > deepest:
                replay.deepest = (ws.dim, *found)
        return found

    def run_check(exact):
        """(converged, y, f_change, mu); ``exact`` (d = n) skips the tol_f gate.

        f_change: the ends' largest change since the last check (zero before
        the first) over F's largest block (:func:`_blocks`), 0 if F is zero.
        Q is orthonormal and nested, so the ends change as their coefficients.
        """
        b_proj = ws.b_proj
        try:
            ends = _window_ends(window, ws.h, b_proj, replay.ends)
        except OverflowRangeError:
            return False, None, np.inf, np.inf
        fch = 0.0
        if ends:  # bt has none
            change = max(np.linalg.norm(c - _widen(p, *c.shape)) for c, p in zip(ends, prev))
            scale = max(map(np.linalg.norm, _blocks(window, b_proj, ends)))
            fch = change / scale if scale else 0.0
        prev[:] = ends
        if not exact and fch >= cfg.tol_f:
            return False, None, fch, np.inf
        f, j = _rhs(mode, window, b_proj, ends)
        try:
            y = linalg.lyap_dense(ws.h, f @ j @ f.T, schur=schur())
        except SpectrumConflictError:
            return False, None, fch, np.inf
        mu_k = ws.residual(y, f, j)
        return mu_k < cfg.tol_p, y, fch, mu_k

    while True:
        d = ws.dim
        checked = since_check >= _CADENCE or stagnant > 0 or d >= max_dim
        if checked:
            converged, y, f_change, mu = run_check(d >= n)
            since_check = 0
            trace.append({"k": len(ws.shifts) - 1, "shift": ws.shifts[-1], "dim": d,
                          "f_change": f_change, "mu": mu})
            if converged:
                break
            if d >= max_dim:
                raise MaxDimExceededError(
                    f"subspace cap {max_dim} reached (dim {d}, mu {mu:.3e}, "
                    f"expm change {f_change:.3e})"
                )
        if len(ws.shifts) < len(poles):
            s = poles[len(ws.shifts)]
        else:
            s = _select_shift(schur()[2] if checked else linalg.gen_eig(ws.h), ws.shifts, m)
        # grow the basis by (M^{-1} A - s I)^{-1} v = (A - s M)^{-1} M v, so the
        # basis, and with it the Gramian factor, lives in the original coordinates
        mv = form.mass_apply(ws.q[:, -m:])
        try:
            g = shifted_solve(form, s, mv)
        except SingularShiftError:
            s = _perturbed(complex(s), max(abs(complex(s)), 1.0))
            g = shifted_solve(form, s, mv)  # second failure propagates
        if np.iscomplexobj(g) and abs(np.imag(complex(s))) > 0:
            new = [complex(s), np.conj(complex(s))]
            g = np.hstack([g.real, g.imag])
        else:
            new, g = [float(np.real(s))], g.real
        ws.shifts += new
        poles += ws.shifts[len(poles):]
        since_check += len(new)
        if ws.extend(g):
            stagnant = 0
        else:
            stagnant += 1
            if stagnant > 2:
                raise NoConvergenceError(
                    f"rational Krylov basis stagnated at dim {d} (mu {mu:.3e})"
                )

    z = ws.q @ factor_psd(y)
    ws.trim()
    return LowRankGramian(
        z=z, residual=float(mu), subspace_dim=int(d), rank=int(z.shape[1]),
        wall_time=time.perf_counter() - t0, stop="exact_space" if d >= n else "converged",
        trace=trace, workspace=ws,
    )


def solve_infinite_lowrank(sys, cfg=None, side="reachability"):
    """Low-rank factor of the infinite Gramian by the rational Krylov method."""
    return _solve_lowrank(sys, None, cfg, "bt", side)


def solve_timelimited_lowrank(sys, window, cfg=None, side="reachability"):
    """Low-rank factor of the time-limited Gramian over [t_s, t_e]."""
    return _solve_lowrank(sys, window, cfg, "tlbt", side)


def solve_modified_lowrank(sys, window, cfg=None, side="reachability"):
    """Low-rank factor of the stability-preserving modified Gramian."""
    return _solve_lowrank(sys, window, cfg, "mtlbt", side)


def mode_gramian(sys, mode, window=None, cfg=None, side="reachability", method="krylov"):
    """One side's Gramian of a balanced-truncation mode (see :data:`MODES`).

    ``method="krylov"`` returns a :class:`LowRankGramian`, ``"dense"`` the
    dense Gramian. The solvers are looked up at call time from the module
    attributes, so a rebound ``solve_*_lowrank`` (a tracer, a test spy)
    sees every call.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "bt":
        window = None  # bt has no window ends
    elif window is None:
        raise ValueError(f"mode {mode!r} needs a time window")
    if method == "dense":
        return _dense_gramian(sys, mode, window, side)
    if method != "krylov":
        raise ValueError(f"method must be dense|krylov, got {method!r}")
    if mode == "bt":
        return solve_infinite_lowrank(sys, cfg=cfg, side=side)
    lowrank = solve_timelimited_lowrank if mode == "tlbt" else solve_modified_lowrank
    return lowrank(sys, window, cfg=cfg, side=side)

