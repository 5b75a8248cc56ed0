"""Balanced truncation over finite time horizons for LTI systems.

Library layout:

- :mod:`tlbt.linalg`: dense kernels (LU, SVD, eig, expm, Lyapunov).
- :mod:`tlbt.systems`: standard/generalized/descriptor representations,
  shifted solves, structural transformations.
- :mod:`tlbt.gramians`: dense and low-rank (rational Krylov) Gramian
  solvers, infinite / time-limited / stability-preserving modified.
- :mod:`tlbt.reduction`: square-root balancing (``balance`` once per
  mode, ``balance_modes`` sharing the Krylov shifts across modes,
  ``truncate`` per order), Hankel values, error bounds, transfer
  evaluation.
- :mod:`tlbt.simulate`: implicit midpoint integration and error metrics.
- :mod:`tlbt.synthetic`: deterministic desk-scale test systems.
- :mod:`tlbt.mmio`: Matrix Market + JSON sidecar persistence.
- :mod:`tlbt.cli`: the `tlbt` command.
"""

from . import errors
from .gramians import (
    LowRankGramian,
    SolverConfig,
    TimeWindow,
    gramian_infinite_dense,
    gramian_timelimited_cauchy,
    gramian_timelimited_dense,
    solve_infinite_lowrank,
    solve_modified_lowrank,
    solve_timelimited_lowrank,
)
from .reduction import (
    Balancing,
    HsvReport,
    ReducedModel,
    balance,
    balance_modes,
    hankel_sv,
    hinf_error_bound,
    numerical_rank,
    reduce,
    square_root_reduce,
    transfer_eval,
)
from .simulate import (
    Trajectory,
    half_decay_time,
    implicit_midpoint,
    impulse_response,
    mac,
    relative_error_series,
)
from .synthetic import make_synthetic
from .systems import (
    DescriptorIndex1,
    GeneralizedSystem,
    StandardSystem,
    cholesky_transform,
    eliminate_descriptor,
    shifted_solve,
    similarity_transform,
    spectral_abscissa,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "LowRankGramian",
    "SolverConfig",
    "TimeWindow",
    "gramian_infinite_dense",
    "gramian_timelimited_cauchy",
    "gramian_timelimited_dense",
    "solve_infinite_lowrank",
    "solve_modified_lowrank",
    "solve_timelimited_lowrank",
    "Balancing",
    "HsvReport",
    "ReducedModel",
    "balance",
    "balance_modes",
    "hankel_sv",
    "hinf_error_bound",
    "numerical_rank",
    "reduce",
    "square_root_reduce",
    "transfer_eval",
    "Trajectory",
    "half_decay_time",
    "implicit_midpoint",
    "impulse_response",
    "mac",
    "relative_error_series",
    "make_synthetic",
    "DescriptorIndex1",
    "GeneralizedSystem",
    "StandardSystem",
    "cholesky_transform",
    "eliminate_descriptor",
    "shifted_solve",
    "similarity_transform",
    "spectral_abscissa",
]
