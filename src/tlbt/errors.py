"""Exception types raised by the numerical kernels and solvers."""


class TlbtError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(TlbtError):
    """A pivot fell below the singularity threshold during factorization."""


class NoConvergenceError(TlbtError):
    """An iterative eigen/singular value computation did not converge."""


class SpectrumConflictError(TlbtError):
    """A Lyapunov equation has an eigenvalue pair with lambda_i + lambda_j ~ 0."""


class OverflowRangeError(TlbtError):
    """A matrix function result exceeded the representable floating range."""


class SingularBlockError(TlbtError):
    """The algebraic block of a descriptor system is numerically singular."""


class SingularShiftError(TlbtError):
    """A shifted system matrix A - sM is numerically singular."""


class MaxDimExceededError(TlbtError):
    """The Krylov subspace hit its dimension cap before converging."""


class UnstableSystemError(TlbtError):
    """A solver that requires a Hurwitz system was given an unstable one."""


class RankDeficientError(TlbtError):
    """Requested reduced order exceeds the numerical rank of the factors."""


class GridMismatchError(TlbtError):
    """Two trajectories do not share the same time grid or output count."""


class SingularStepError(TlbtError):
    """The implicit integrator step matrix is singular for this step size."""
