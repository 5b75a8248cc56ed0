"""Time-domain validation: implicit midpoint integration and error metrics.

The integrator is the A-stable implicit midpoint rule with a fixed step,
taken as a half step: x_{k+1} = 2 w - x_k, with the midpoint state w from
(M - dt/2 A) w = M x_k + dt/2 B u. The system hands it that solve,
factorized once (``midpoint_step``, which returns 2 w), and it steps one
of two ways, with one finiteness check after the loop:

- a system with no more states than steps whose pencil is dense, or
  sparse with at most 256 states, forms the one-step propagator
  Phi = step(M) - I once (one n-column solve on ``mass_apply(I)``: M, I,
  or a descriptor's M1; a forced input also Gamma = dt/2 step(B)), and
  each step is one n x n product x <- Phi x + Gamma u; the outputs are
  one product with C^T (and D^T) per block of stored states. A reduced
  model is a dense standard system, stepped as such: it takes this route.
- any other system (a sparse or descriptor pencil of more than 256
  states, or any system with more states than steps, where forming Phi
  would cost more than the steps) takes per step one ``mass_apply`` (no
  work when M = I) and one LAPACK ``getrs`` or SuperLU solve (a
  descriptor's on its block pencil, no separate A4 solve).

An input is ``None`` (the free response from x0) or a function from a
time to the m inputs. An impulse u = delta(t) v is no such function: it
is the initial state M^{-1} B v of the free system
(:func:`impulse_response`), never a delta sampled on the grid, so its
loop samples no input and multiplies none through B and D.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatchError, SingularStepError
from .systems import spectral_abscissa

__all__ = [
    "Trajectory",
    "implicit_midpoint",
    "impulse_response",
    "relative_error_series",
    "half_decay_time",
]

# steps whose states the dense propagator keeps for one output product
_BLOCK = 256
# largest sparse pencil that steps with the dense propagator: at n = 256
# Phi is 512 KiB; above that, a sparse step's two calls (M x and the
# SuperLU solve) beat the n x n product
_SPARSE_PROPAGATED = 256
# t_f/dt at most this above an integer takes that many steps, so an error
# window may end up to this times dt past the last grid time
_STEP_ROUNDING = 1e-9


@dataclass
class Trajectory:
    """Sampled output y(t_k) on a uniform grid."""

    times: np.ndarray
    outputs: np.ndarray

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    def output_norms(self):
        return np.linalg.norm(self.outputs, axis=1)


def implicit_midpoint(sys, u, x0, dt, t_f):
    """Integrate M x' = A x + B u from x(0) = x0 (None: zero) with the midpoint rule.

    ``u`` is None (no input) or a function from a time to the m inputs;
    its values are reshaped to m, so a wrong count raises ValueError. One
    step solves (M - dt/2 A) w = M x_k + dt/2 B u(t_k + dt/2) for the
    midpoint state w and sets x_{k+1} = 2 w - x_k, which is
    (M - dt/2 A) x_{k+1} = (M + dt/2 A) x_k + dt B u(t_k + dt/2);
    outputs are y_k = C x_k + D u(t_k). Second-order accurate,
    unconditionally stable on stable linear systems.
    """
    if not (0 < dt < np.inf and 0 < t_f < np.inf and float(t_f) / float(dt) < np.inf):
        raise ValueError(f"dt and t_f must be positive and finite, and so must t_f/dt; "
                         f"got dt={dt!r}, t_f={t_f!r}")
    b, c, d = sys.B, sys.C, sys.D
    n, m = b.shape
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    nsteps = int(np.ceil(t_f / dt - _STEP_ROUNDING))
    try:
        times = dt * np.arange(nsteps + 1)
        outputs = np.empty((nsteps + 1, c.shape[0]))
    except (MemoryError, ValueError) as exc:  # no room, or more elements than an array holds
        raise ValueError(f"t_f/dt asks for {nsteps:.3g} steps, more than fit in memory") from exc
    step = sys.midpoint_step(dt)
    sample = None if u is None else (lambda t: np.asarray(u(t), dtype=float).reshape(m))
    mass, a = sys.pencil()
    dense = not (sp.issparse(mass) or sp.issparse(a))
    if n <= nsteps and (dense or n <= _SPARSE_PROPAGATED):
        x = _propagate(sys, step, x, sample, dt, times, outputs)
    else:
        for k in range(nsteps + 1):
            outputs[k] = c @ x if sample is None else c @ x + d @ sample(times[k])
            if k < nsteps:
                rhs = sys.mass_apply(x)
                if sample is not None:
                    rhs = rhs + dt / 2.0 * (b @ sample(times[k] + dt / 2.0))
                x = step(rhs) - x
    if not (np.all(np.isfinite(outputs)) and np.all(np.isfinite(x))):
        raise SingularStepError("integration produced non-finite values")
    return Trajectory(times=times, outputs=outputs)


def impulse_response(sys, v=None, dt=1e-3, t_f=1.0):
    """Response to u(t) = delta(t) v (default v = ones): the free response from M^{-1} B v."""
    m = sys.B.shape[1]
    v = np.ones(m) if v is None else np.asarray(v, dtype=float).reshape(m)
    return implicit_midpoint(sys, None, sys.mass_solve(sys.B @ v), dt, t_f)


def _propagate(sys, step, x, u, dt, times, outputs):
    """Dense steps ``x <- Phi x + Gamma u``: ``Phi = step(M) - I``, ``Gamma = dt/2 step(B)``.

    M is the mass as ``mass_apply`` applies it (I, M, or a descriptor's
    M1); ``u`` is None or a function from a time to the m inputs. Forming
    Phi is one n-column solve; each step is then one n x n product. The
    states of ``_BLOCK`` steps are kept, and each block's outputs, written
    into ``outputs``, are one product with C^T (and one of its inputs with
    D^T). Returns the last state.
    """
    b, c, d = sys.B, sys.C, sys.D
    n = b.shape[0]
    nsteps = times.size - 1
    phi = step(sys.mass_apply(np.eye(n))) - np.eye(n)
    gamma = dt / 2.0 * step(b) if u is not None else None
    states = np.empty((min(_BLOCK, nsteps + 1), n))
    for start in range(0, nsteps + 1, _BLOCK):
        block = range(start, min(start + _BLOCK, nsteps + 1))
        for row, k in enumerate(block):
            states[row] = x
            if k < nsteps:
                x = phi.dot(x)
                if u is not None:
                    x += gamma.dot(u(times[k] + dt / 2.0))
        outputs[start : block.stop] = states[: len(block)] @ c.T
        if u is not None:
            outputs[start : block.stop] += np.array([u(times[k]) for k in block]) @ d.T
    return x


def relative_error_series(y, y_red, window=None):
    """Pointwise relative output error and its maximum over the window.

    E(t) = ||y(t) - y_r(t)|| / ||y(t)||; grid points where both responses
    vanish give 0, points where only the reference vanishes give inf. The
    window holds the grid times in [t_s - tol, t_e + tol], with tol the
    integrator's step-count rounding (_STEP_ROUNDING dt); one that holds no
    grid point, or ends past the last one by more than tol, raises ValueError.
    """
    if y.times.shape != y_red.times.shape or not np.allclose(
        y.times, y_red.times, rtol=0, atol=1e-12 * max(y.dt, 1e-30)
    ):
        raise GridMismatchError("trajectories are on different time grids")
    ref = np.linalg.norm(y.outputs, axis=1)
    diff = np.linalg.norm(y.outputs - y_red.outputs, axis=1)
    err = np.zeros_like(ref)
    tiny = ref <= 1e-300
    err[~tiny] = diff[~tiny] / ref[~tiny]
    err[tiny & (diff > 1e-300)] = np.inf
    if window is None:
        return err, float(np.max(err))
    tol = _STEP_ROUNDING * y.dt
    mask = (y.times >= window.t_s - tol) & (y.times <= window.t_e + tol)
    if not np.any(mask):
        raise ValueError(f"no grid point lies in the error window [{window.t_s!r}, {window.t_e!r}]")
    if window.t_e > y.times[-1] + tol:
        raise ValueError(f"the error window ends at {window.t_e!r}, "
                         f"past the simulated horizon {float(y.times[-1])!r}")
    return err, float(np.max(err[mask]))


def half_decay_time(sys):
    """Impulse-response half-decay proxy ln(2)/|spectral abscissa|."""
    ab = spectral_abscissa(sys)
    if ab >= 0:
        raise ValueError("half decay time is only defined for stable systems")
    return float(np.log(2.0) / abs(ab))
