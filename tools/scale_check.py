"""Oracles for low-rank Gramian solves that need no dense n x n matrix.

For each mode and side it prints the solve's subspace dimension ``d``, its
rank, ``mu`` and its stop reason, and checks the solve against two
oracles:

- ``ends``: the error of the window ends,
  ``max_t ||Q e^{t H} b_proj - e^{t M^{-1} A} M^{-1} B|| / ||M^{-1} B||``
  over the window ends t > 0, with the reference from
  ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham 2011). When
  M is not I, M^{-1} A is a ``LinearOperator`` through the system's
  ``apply_a`` and ``mass_solve``, its adjoint through the dual's. bt has
  no window ends.
- ``zz`` and ``qyq``: the true scaled residual
  ``||A X M^T + M X A^T + G|| / ||G||`` (spectral norm) with
  ``G = (M F) J (M F)^T``, for ``X = Z Z^T`` (the returned factor) and for
  ``X = Q Y Q^T`` (the full solution of the projected equation). ``(F, J)``
  is the solver's own right-hand side map, ``gramians._rhs``, on the
  oracle's window ends. Each comes from one thin QR of ``[A Z, M Z, M F]``
  (``Q`` for ``Z``) and an eigendecomposition of its small core.

``mu`` bounds the residual of ``Q Y Q^T`` for the projected right-hand
side only, so ``qyq`` may exceed it by about the ends' error, and ``zz``
by the eigenvalues of Y that Z drops. Run it from the root of a checkout:

    PYTHONPATH=src:tools python3 tools/scale_check.py --cd 50 --mode bt --mode tlbt --te 0.001
    PYTHONPATH=src:tools python3 tools/scale_check.py --synth heat_like --n 400 --te 0.05
"""

import argparse
import sys

import numpy as np
import scipy.sparse.linalg as spla

from solve_fingerprint import convection_diffusion
from tlbt import SolverConfig, TimeWindow, linalg, make_synthetic
from tlbt.gramians import MODES, SIDES, _reach_form, _rhs, _window_ends, mode_gramian

_BLOCK = 256  # columns per block when the trace of M^{-1} A is summed


def state_operator(form):
    """``(M^{-1} A, its trace)``: A itself when M = I, else a LinearOperator."""
    if form.mass is None:
        return form.A, float(form.A.diagonal().sum())
    n, dual = form.order, form.transposed()

    def apply(x):
        return form.mass_solve(form.apply_a(x))

    def adjoint(x):  # (M^{-1} A)^T = A^T M^{-T}, the dual's A after its mass solve
        return dual.apply_a(dual.mass_solve(x))

    op = spla.LinearOperator((n, n), dtype=float, matvec=apply, matmat=apply,
                             rmatvec=adjoint, rmatmat=adjoint)
    trace = 0.0
    for k in range(0, n, _BLOCK):  # the diagonal block of M^{-1} A [e_k, ..., e_{k+B-1}]
        width = min(_BLOCK, n - k)
        trace += float(np.trace(apply(np.eye(n, width, -k))[k : k + width]))
    return op, trace


def true_residual(form, x_factor, y, f, j):
    """``||A X M^T + M X A^T + G|| / ||G||`` for ``X = K Y K^T`` and ``G = (M F) J (M F)^T``."""
    k, r = x_factor.shape[1], f.shape[1]
    blocks = [form.apply_a(x_factor), form.mass_apply(x_factor), form.mass_apply(f)]
    rr = np.linalg.qr(np.hstack([np.asarray(v) for v in blocks]), mode="r")
    core = np.zeros((2 * k + r, 2 * k + r))
    core[:k, k : 2 * k] = core[k : 2 * k, :k] = y
    core[2 * k :, 2 * k :] = j
    num = np.abs(np.linalg.eigvalsh(rr @ core @ rr.T)).max()
    rf = rr[:, 2 * k :]
    return float(num / np.abs(np.linalg.eigvalsh(rf @ j @ rf.T)).max())


def check(system, mode, window=None, cfg=None, side="reachability"):
    """One solve and its oracles: ``d``, ``rank``, ``mu``, ``stop``, ``ends``, ``zz``, ``qyq``.

    ``ends`` is None for bt, which has no window ends.
    """
    window = None if mode == "bt" else window
    g = mode_gramian(system, mode, window, cfg, side)
    form, ws = _reach_form(system, side), g.workspace
    b = form.mass_solve(form.B)
    ends = _window_ends(window, ws.h, ws.b_proj)
    op, trace = state_operator(form)
    t_ends = [t for t in (window.t_s, window.t_e) if t > 0] if window else []
    exact = [spla.expm_multiply(t * op, b, traceA=t * trace) for t in t_ends]
    bnorm = np.linalg.norm(b)
    errors = [np.linalg.norm(ws.q @ c - e) / bnorm for c, e in zip(ends, exact)]
    f, j = _rhs(mode, window, b, exact)
    f_proj, j_proj = _rhs(mode, window, ws.b_proj, ends)
    y = linalg.lyap_dense(ws.h, f_proj @ j_proj @ f_proj.T)
    return {
        "d": g.subspace_dim, "rank": g.rank, "mu": g.residual, "stop": g.stop,
        "ends": max(errors) if errors else None,
        "zz": true_residual(form, g.z, np.eye(g.rank), f, j),
        "qyq": true_residual(form, ws.q, y, f, j),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cd", type=int, metavar="K",
                        help="convection-diffusion on a K x K grid (n = K^2)")
    source.add_argument("--synth", help="a synthetic system kind (tlbt synth --kind)")
    p.add_argument("--n", type=int, default=400, help="order of a --synth system")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", action="append", choices=MODES, help="repeatable; default all")
    p.add_argument("--te", type=float, action="append", default=[],
                   help="window end; repeatable (the time-limited modes need one)")
    p.add_argument("--ts", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-8, help="tol_f and tol_p")
    args = p.parse_args(argv)
    if args.cd:
        system, name = convection_diffusion(args.cd), f"cd{args.cd * args.cd}"
    else:
        system = make_synthetic(args.synth, args.n, 2, 2, seed=args.seed)
        name = f"{args.synth}{args.n}"
    cfg = SolverConfig(tol_f=args.tol, tol_p=args.tol)
    windows = [TimeWindow(t_e=te, t_s=args.ts) for te in args.te]
    for mode in args.mode or MODES:
        for window in [None] if mode == "bt" else windows:
            tag = "" if window is None else f"[{window.t_s!r},{window.t_e!r}]"
            for side in SIDES:
                row = check(system, mode, window, cfg, side)
                ends = "-" if row["ends"] is None else f"{row['ends']:.2e}"
                print(f"{name}{tag} {mode} {side[:5]} d={row['d']} rank={row['rank']} "
                      f"mu={row['mu']:.2e} stop={row['stop']} ends={ends} "
                      f"zz={row['zz']:.2e} qyq={row['qyq']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
