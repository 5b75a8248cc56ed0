"""Balanced truncation over finite time horizons for LTI systems.

The pipeline is rational Krylov Gramian factors
(:func:`~tlbt.gramians.mode_gramian`), one SVD per mode
(:func:`~tlbt.reduction.balance`) and a projection per order
(``Balancing.truncate``). Library layout:

- :mod:`tlbt.linalg`: dense kernels (SVD, eig, expm, Lyapunov, block
  Gram-Schmidt).
- :mod:`tlbt.systems`: standard/generalized/descriptor representations
  behind one interface (order, mass and its cached solve, action of A,
  B, C and D, the pencil its LU routes factor, midpoint step, cached
  dual and Krylov shifts), the shifted solves (a cached Schur form for
  dense standard systems, LU of the pencil otherwise), spectral abscissa.
- :mod:`tlbt.gramians`: low-rank (rational Krylov) Gramian solvers,
  infinite / time-limited / stability-preserving modified, and
  ``mode_gramian``, which maps a mode and a side to one (or the dense Gramian).
- :mod:`tlbt.reduction`: square-root balancing (``balance`` once per
  mode, ``truncate`` per order; ``Balancing.hsv`` holds the Hankel
  values). A ``ReducedModel`` is a ``StandardSystem`` that also keeps
  its projectors, so every function here takes it as a system.
- :mod:`tlbt.simulate`: implicit midpoint integration of any system, a
  reduced model included, and the output error metric.
- :mod:`tlbt.synthetic`: deterministic desk-scale test systems.
- :mod:`tlbt.mmio`: Matrix Market + JSON sidecar persistence.
- :mod:`tlbt.cli`: the `tlbt` command.
"""

from . import errors
from .gramians import (
    LowRankGramian,
    SolverConfig,
    TimeWindow,
    solve_infinite_lowrank,
    solve_modified_lowrank,
    solve_timelimited_lowrank,
)
from .reduction import (
    Balancing,
    ReducedModel,
    balance,
    reduce,
    square_root_reduce,
)
from .simulate import (
    Trajectory,
    half_decay_time,
    implicit_midpoint,
    impulse_response,
    relative_error_series,
)
from .synthetic import make_synthetic
from .systems import (
    DescriptorIndex1,
    GeneralizedSystem,
    StandardSystem,
    shifted_solve,
    spectral_abscissa,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "LowRankGramian",
    "SolverConfig",
    "TimeWindow",
    "solve_infinite_lowrank",
    "solve_modified_lowrank",
    "solve_timelimited_lowrank",
    "Balancing",
    "ReducedModel",
    "balance",
    "reduce",
    "square_root_reduce",
    "Trajectory",
    "half_decay_time",
    "implicit_midpoint",
    "impulse_response",
    "relative_error_series",
    "make_synthetic",
    "DescriptorIndex1",
    "GeneralizedSystem",
    "StandardSystem",
    "shifted_solve",
    "spectral_abscissa",
]
