"""LTI system representations, shifted solves and the spectral abscissa.

Standard (A, B, C[, D]) systems, generalized (M, A, B, C[, D]) systems
with nonsingular M, and semi-explicit index-one descriptor systems in
block form. Matrices can be dense ndarrays or scipy.sparse matrices;
dense ones must be finite.

The three types answer the solvers' questions alike, so no solver asks
which type it holds: ``order`` is the dimension the solvers work in (n,
or n_f for a descriptor); ``mass`` is M of the pencil (A, M) (None for
M = I, M1 for a descriptor), with ``mass_apply`` and ``mass_solve``;
``apply_a`` is the action of A (for a descriptor the Schur complement
A1 - A2 A4^{-1} A3); ``start_block()`` is the Krylov start block (B, or
B1 - A2 A4^{-1} B2); ``first_order()`` is the system as a standard or
generalized one (a descriptor eliminated densely, for the dense routes,
the balancing projection and the integrator); ``transposed()`` is the
dual. Systems are not mutated after construction, so what they derive is
built on first use and cached on them: the LU of M, the dual, the
spectral abscissa, a descriptor's A4 LU, block pencil and eliminated
form, and the complex Schur form that a dense standard system shares
with its dual for every shifted solve and for the spectrum. No cached
object refers back to the system that holds it. Every other shifted
solve factors its shifted matrix by LU (``_factor``).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import linalg
from .errors import SingularBlockError, SingularMatrixError, SingularShiftError

__all__ = [
    "StandardSystem",
    "GeneralizedSystem",
    "DescriptorIndex1",
    "eliminate_descriptor",
    "shifted_solve",
    "spectral_abscissa",
    "alpha_shift",
]


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def _finite(a, name):
    """Dense ``a`` as a finite float array of at least two dimensions; sparse as given."""
    if sp.issparse(a):
        return a
    return linalg.check_finite(np.atleast_2d(np.asarray(a, dtype=float)), name)


def _normalize(sys, *square):
    """Check B and C against A and make the dense matrices finite float arrays.

    ``square`` names the state matrices; D defaults to zeros and must be p x m.
    """
    if sys.B.shape[0] != sys.n or sys.C.shape[1] != sys.n:
        raise ValueError("B/C dimensions inconsistent with A")
    for name in square + ("B", "C"):
        setattr(sys, name, _finite(getattr(sys, name), name))
    sys.D = np.zeros((sys.p, sys.m)) if sys.D is None else _finite(sys.D, "D")
    if sys.D.shape != (sys.p, sys.m):
        raise ValueError("D must be p x m")


@dataclass
class _System:
    """The questions the solvers ask of a system (see the module docstring)."""

    # derived data, built on first use
    _transposed: object = field(default=None, init=False, repr=False, compare=False)
    _mass_lu: object = field(default=None, init=False, repr=False, compare=False)
    _abscissa: float = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def order(self):
        """State dimension the solvers work in."""
        return self.n

    def apply_a(self, v):
        return self.A @ v

    def start_block(self):
        """Krylov start block: the input matrix of the first-order form, before M^{-1}."""
        return _dense(self.B)

    def first_order(self):
        """The system as ``M x' = A x + B u`` (``M`` may be I)."""
        return self

    def mass_apply(self, v):
        """``M v``; ``v`` itself when M = I."""
        return v if self.mass is None else self.mass @ v

    def mass_solve(self, rhs):
        """``M^{-1} rhs`` from one cached LU of M; ``rhs`` itself when M = I."""
        if self.mass is None:
            return rhs
        if self._mass_lu is None:
            self._mass_lu = _factor(self.mass, err=SingularMatrixError)
        return self._mass_lu(np.asarray(rhs))

    def transposed(self):
        """The dual system, built once; it swaps the Gramians."""
        if self._transposed is None:
            self._transposed = self._dual()
        return self._transposed


@dataclass
class StandardSystem(_System):
    """State-space system ``x' = A x + B u``, ``y = C x + D u``."""

    A: object
    B: object
    C: object
    D: object = None
    # [T, Z, ||A||_1, ||A||_inf] of the primal once computed, shared with the dual
    _schur: list = field(default_factory=list, init=False, repr=False, compare=False)
    _is_dual: bool = field(default=False, init=False, repr=False, compare=False)
    mass = None

    def __post_init__(self):
        n, n2 = self.A.shape
        if n != n2:
            raise ValueError("A must be square")
        _normalize(self, "A")

    def _dual(self):
        """(A^T, C^T, B^T), sharing the Schur form."""
        dual = StandardSystem(self.A.T, _dense(self.C).T, _dense(self.B).T, self.D.T)
        dual._schur, dual._is_dual = self._schur, not self._is_dual
        return dual

    def _schur_form(self):
        """``(T, Z, ||A||_1)``, the primal's ``A = Z T Z^H``; a dual's ``A^T = conj(Z) T^T Z^T``."""
        if not self._schur:
            a = self.A.T if self._is_dual else self.A
            norms = np.linalg.norm(a, 1), np.linalg.norm(a, np.inf)
            self._schur += [*sla.schur(a, output="complex"), *norms]
        t, z, norm_1, norm_inf = self._schur
        return t, z, norm_inf if self._is_dual else norm_1


@dataclass
class GeneralizedSystem(_System):
    """Generalized state-space system ``M x' = A x + B u``, ``y = C x + D u``.

    ``spd`` flags M as symmetric positive definite. It is kept as given
    (the JSON sidecar stores it) and not verified: every route works
    through the pencil (A, M) whether or not M is SPD.
    """

    M: object
    A: object
    B: object
    C: object
    D: object = None
    spd: bool = False

    def __post_init__(self):
        n, n2 = self.M.shape
        if n != n2 or self.A.shape != (n, n):
            raise ValueError("M and A must be square of equal size")
        _normalize(self, "M", "A")

    @property
    def mass(self):
        return self.M

    def _dual(self):
        return GeneralizedSystem(
            self.M.T, self.A.T, _dense(self.C).T, _dense(self.B).T, self.D.T, spd=self.spd
        )


@dataclass
class DescriptorIndex1(_System):
    """Semi-explicit index-one descriptor system in block form.

    ``M = [[M1, 0], [0, 0]]``, ``A = [[A1, A2], [A3, A4]]`` with M1 and A4
    nonsingular; B, C split conformably. ``n_f`` differential states, in
    which the solvers work: the mass is M1 and A acts as its Schur
    complement ``A1 - A2 A4^{-1} A3``.
    """

    M1: object
    A1: object
    A2: object
    A3: object
    A4: object
    B1: object
    B2: object
    C1: object
    C2: object
    _a4_lu: object = field(default=None, init=False, repr=False, compare=False)
    _assembled: tuple = field(default=None, init=False, repr=False, compare=False)
    _eliminated: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("M1", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2"):
            setattr(self, name, _finite(getattr(self, name), name))
        nf = self.A1.shape[0]
        na = self.A4.shape[0]
        if self.M1.shape != (nf, nf) or self.A1.shape != (nf, nf):
            raise ValueError("M1/A1 must be n_f x n_f")
        if self.A2.shape != (nf, na) or self.A3.shape != (na, nf) or self.A4.shape != (na, na):
            raise ValueError("off-diagonal blocks inconsistent")
        if self.B1.shape[0] != nf or self.B2.shape[0] != na:
            raise ValueError("B blocks inconsistent")
        if self.C1.shape[1] != nf or self.C2.shape[1] != na:
            raise ValueError("C blocks inconsistent")

    @property
    def n_f(self):
        return self.A1.shape[0]

    @property
    def n(self):
        return self.n_f + self.A4.shape[0]

    @property
    def m(self):
        return self.B1.shape[1]

    @property
    def p(self):
        return self.C1.shape[0]

    @property
    def order(self):
        return self.n_f

    @property
    def mass(self):
        return self.M1

    def _dual(self):
        return DescriptorIndex1(
            self.M1.T, self.A1.T, self.A3.T, self.A2.T, self.A4.T,
            _dense(self.C1).T, _dense(self.C2).T, _dense(self.B1).T, _dense(self.B2).T,
        )

    def a4_solve(self, rhs):
        """Solve ``A4 x = rhs`` with a cached factorization."""
        if self._a4_lu is None:
            self._a4_lu = _factor(self.A4, err=SingularBlockError)
        return self._a4_lu(np.asarray(rhs))

    def apply_a(self, v):
        """Action of the eliminated state matrix  A1 - A2 A4^{-1} A3."""
        v = np.asarray(v)
        return self.A1 @ v - self.A2 @ self.a4_solve(self.A3 @ v)

    def start_block(self):
        """The eliminated input matrix  B1 - A2 A4^{-1} B2."""
        return _dense(self.B1) - self.A2 @ self.a4_solve(_dense(self.B2))

    def first_order(self):
        """The eliminated :class:`GeneralizedSystem` (dense), built once."""
        if self._eliminated is None:
            self._eliminated = eliminate_descriptor(self)[0]
        return self._eliminated

    def assemble(self):
        """Full (M, A, B, C) matrices of the blocked pencil (sparse), built once."""
        if self._assembled is None:
            na = self.n - self.n_f
            m_full = sp.bmat(
                [[sp.csc_matrix(self.M1), None], [None, sp.csc_matrix((na, na))]], format="csc"
            )
            a_full = sp.bmat(
                [
                    [sp.csc_matrix(self.A1), sp.csc_matrix(self.A2)],
                    [sp.csc_matrix(self.A3), sp.csc_matrix(self.A4)],
                ],
                format="csc",
            )
            b_full = np.vstack([_dense(self.B1), _dense(self.B2)])
            c_full = np.hstack([_dense(self.C1), _dense(self.C2)])
            self._assembled = m_full, a_full, b_full, c_full
        return self._assembled


def eliminate_descriptor(d):
    """Eliminate algebraic states: returns (GeneralizedSystem, D).

    Dense construction; intended for systems at desk scale (the eliminated
    state matrix is dense in general). Large systems should go through
    :func:`shifted_solve` / :meth:`DescriptorIndex1.apply_a` instead;
    :meth:`DescriptorIndex1.first_order` caches the eliminated system.
    """
    a2 = _dense(d.A2)
    b2 = _dense(d.B2)
    a3 = _dense(d.A3)
    c2 = _dense(d.C2)
    a4_inv_a3 = np.asarray(d.a4_solve(a3))
    a4_inv_b2 = np.asarray(d.a4_solve(b2))
    a_hat = _dense(d.A1) - a2 @ a4_inv_a3
    b_hat = _dense(d.B1) - a2 @ a4_inv_b2
    c_hat = _dense(d.C1) - c2 @ a4_inv_a3
    d_term = -c2 @ a4_inv_b2
    gen = GeneralizedSystem(_dense(d.M1), a_hat, b_hat, c_hat, D=d_term)
    return gen, d_term


def _factor(mat, err=SingularShiftError, checked=True):
    """LU factorization returning a solve closure; sparse or dense, any dtype.

    Dense solves call LAPACK ``getrs`` (what ``scipy.linalg.lu_solve``
    ends in, bit for bit), picked per right-hand side, so a real LU also
    solves complex ones. Sparse solves raise ``err`` on non-finite results unless
    ``checked`` is false. A closure must never refer to itself: the cycle
    would keep its factorization alive until the cyclic GC runs.
    """
    if sp.issparse(mat):
        try:
            lu = spla.splu(sp.csc_matrix(mat))
        except RuntimeError as exc:
            raise err(f"matrix factorization failed: {exc}") from exc
        if not checked:
            return lu.solve
        def solve(rhs):
            out = lu.solve(np.asarray(rhs))
            if not np.all(np.isfinite(out)):
                raise err("matrix is numerically singular")
            return out
        return solve
    mat = np.asarray(mat)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(mat, check_finite=False)
    except ValueError as exc:
        raise err(f"matrix factorization failed: {exc}") from exc
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) <= np.finfo(float).eps * max(np.linalg.norm(mat, 1), 1e-300):
        raise err("matrix is numerically singular")
    def solve(rhs):
        rhs = np.asarray(rhs)
        getrs, = sla.get_lapack_funcs(("getrs",), (lu, rhs))
        return getrs(lu, piv, rhs)[0]
    return solve


def _dense_standard(sys):
    """True for a standard system with dense A, whose solves use its Schur form."""
    return isinstance(sys, StandardSystem) and not sp.issparse(sys.A)


def _schur_solve(sys, s, rhs):
    """``Z (T - s I)^{-1} Z^H rhs``, or ``conj(Z) (T - s I)^{-T} Z^T rhs`` for a dual."""
    t, z, norm = sys._schur_form()
    diag = t.diagonal() - s
    if np.min(np.abs(diag)) <= np.finfo(float).eps * (norm + abs(s)):
        raise SingularShiftError("shift is numerically an eigenvalue")
    shifted = t.copy(order="F")
    np.fill_diagonal(shifted, diag)
    trtrs, = sla.get_lapack_funcs(("trtrs",), (shifted,))
    with np.errstate(over="ignore", invalid="ignore"):
        if sys._is_dual:
            u, _ = trtrs(shifted, z.T @ rhs, trans=1)
            x = (z @ u.conj()).conj()
        else:
            u, _ = trtrs(shifted, (z.T @ rhs.conj()).conj())
            x = z @ u
    if not np.all(np.isfinite(x)):
        raise SingularShiftError("shifted solve is not finite")
    return x.real if np.isrealobj(s) and np.isrealobj(rhs) else x


def shifted_solve(sys, s, w):
    """Solve the shifted system for the rational Krylov engine.

    Standard: ``(A - s I) V = W``, in O(n^2) through the cached Schur form
    when A is dense; generalized: ``(A - s M) V = W``; descriptor: the sparse
    augmented system ``(A - s M)[V; Psi] = [W; 0]`` returning the leading
    ``n_f`` rows (equal to the dense eliminated solve ``(A_hat - s M1)^{-1} W``).
    The others factor the shifted matrix by LU on every call. A real ``s``
    with a real ``W`` gives a real ``V``; a shift on an eigenvalue raises
    :class:`SingularShiftError`.
    """
    w = np.asarray(w)
    rhs = w if w.ndim == 2 else w[:, None]
    complex_shift = bool(np.iscomplexobj(np.asarray(s))) and abs(np.imag(s)) > 0
    if isinstance(sys, DescriptorIndex1):
        m_full, a_full, _, _ = sys.assemble()
        shifted = a_full - s * m_full if complex_shift else a_full - np.real(s) * m_full
        rhs_full = np.vstack([rhs, np.zeros((sys.n - sys.n_f, rhs.shape[1]), dtype=rhs.dtype)])
        sol = _factor(sp.csc_matrix(shifted, dtype=complex if complex_shift else float))(rhs_full)
        out = sol[: sys.n_f]
    elif _dense_standard(sys):
        out = _schur_solve(sys, s, rhs)
    else:
        mass = sp.identity(sys.n, format="csc") if sys.mass is None else sys.mass
        out = _factor(sys.A - s * mass)(rhs)
    return out if w.ndim == 2 else out[:, 0]


def spectral_abscissa(sys):
    """Largest real part of the spectrum of a system's pencil, computed once and cached.

    A system answers through its first-order form; a dense standard system
    reads it off the diagonal of its Schur form, any other forms M^{-1} A densely.
    """
    if sys._abscissa is None:
        obj = sys.first_order()
        if _dense_standard(obj) and obj.n:  # an empty A has no Schur norms
            eigs = obj._schur_form()[0].diagonal()
        else:
            a = _dense(obj.A)
            a = a if obj.mass is None else np.linalg.solve(_dense(obj.mass), a)
            eigs = linalg.gen_eig(a, vectors=False).values
        sys._abscissa = float(np.max(eigs.real, initial=-np.inf))
    return sys._abscissa


def alpha_shift(sys, alpha):
    """Replace A by A - alpha*M (A - alpha*I for standard systems)."""
    if alpha == 0.0:
        return sys
    if isinstance(sys, GeneralizedSystem):
        return GeneralizedSystem(sys.M, sys.A - alpha * sys.M, sys.B, sys.C, sys.D, spd=sys.spd)
    if isinstance(sys, StandardSystem):
        eye = sp.identity(sys.n, format="csc") if sp.issparse(sys.A) else np.eye(sys.n)
        return StandardSystem(sys.A - alpha * eye, sys.B, sys.C, sys.D)
    if isinstance(sys, DescriptorIndex1):
        return DescriptorIndex1(
            sys.M1, sys.A1 - alpha * sys.M1, sys.A2, sys.A3, sys.A4,
            sys.B1, sys.B2, sys.C1, sys.C2,
        )
    raise TypeError(f"unsupported system type {type(sys)!r}")
