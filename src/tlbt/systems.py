"""LTI system representations, shifted solves and the spectral abscissa.

Standard (A, B, C[, D]) systems, generalized (M, A, B, C[, D]) systems
with nonsingular M, and semi-explicit index-one descriptor systems in
block form. State matrices (M, A, a descriptor's M1 and A1-A4) can be
dense ndarrays or scipy.sparse matrices; B, C and D (a descriptor's B1,
B2, C1 and C2) are made dense 2-D float arrays at construction, before
their shapes are checked, so no other module converts them. Every matrix
must be finite, a sparse one in its stored entries.

The three types answer the solvers' questions alike, so no solver asks
which type it holds: ``order`` is the dimension the solvers work in (n,
or n_f for a descriptor); ``mass`` is M of the pencil (A, M) (None for
M = I, M1 for a descriptor), with ``mass_apply`` and ``mass_solve``;
``apply_a`` is the action of A and ``B``, ``C``, ``D`` the input, output
and feedthrough matrices, for a descriptor those of its elimination
(A1 - A2 A4^{-1} A3, B1 - A2 A4^{-1} B2, C1 - C2 A4^{-1} A3 and
-C2 A4^{-1} B2) through solves with A4, never an n_f x n_f array;
``pencil()`` is the pair (M, A) that every LU route factors ((I, A) for
a standard system, I in A's format; a descriptor's block pencil), and
``_rows(solve)`` maps a solve on it to ``order`` rows (a descriptor pads
the right-hand side with zero rows and keeps the first n_f);
``midpoint_step(dt)`` is the integrator's half-step solve with
(M - dt/2 A)/2 on the pencil, which returns twice the midpoint state;
``transposed()`` is the dual. Systems are not mutated after
construction, so what they derive is built on first use and cached on
them: the LU of M, a sparse pencil's union pattern of (M, A) with both
data arrays aligned to it (every shifted and step matrix is formed on
it, as scipy's sparse arithmetic would form it), the dual, the spectral
abscissa, ``dense_state_input()`` (M^{-1} A and M^{-1} B when M is not
I, at any order: ``_DENSE_MAX`` bounds only the callers that refuse
above it), a descriptor's A4 LU and block pencil, and the
complex Schur form that a dense standard system shares with its dual for
every shifted solve and for the spectrum; every other shifted solve
factors its pencil by LU (``_factor``). No cached object refers back to
the system that holds it. ``_replay`` is the Gramian solver's, opaque
here and never shared with the dual.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import linalg
from .errors import SingularBlockError, SingularMatrixError, SingularShiftError, SingularStepError

__all__ = [
    "StandardSystem",
    "GeneralizedSystem",
    "DescriptorIndex1",
    "shifted_solve",
    "spectral_abscissa",
    "alpha_shift",
]

# largest order that the dense Gramian route and the spectral abscissa of any
# system but a dense standard one (its Schur form) accept: both refuse a larger
# one before densifying. It does not bound dense_state_input() itself: a Krylov
# basis that reaches d = n (gramians._Basis, when the solver's cap max_dim
# allows n) densifies M^{-1} A at any order
_DENSE_MAX = 1000


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def _finite(a, name, sparse=True):
    """``a`` checked finite, as a float array of at least 2-D or, if ``sparse``, a sparse one."""
    if sparse and sp.issparse(a):
        linalg.check_finite(a.tocoo(copy=False).data, name)
        return a
    return linalg.check_finite(np.atleast_2d(_dense(a)), name)


def _normalize(sys, *square):
    """Make the matrices finite float arrays, B, C and D dense, then check their shapes.

    ``square`` names the state matrices, which stay sparse when given so;
    D defaults to zeros and must be p x m.
    """
    for name in square:
        setattr(sys, name, _finite(getattr(sys, name), name))
    for name in ("B", "C"):
        setattr(sys, name, _finite(getattr(sys, name), name, sparse=False))
    sys.D = np.zeros((sys.p, sys.m)) if sys.D is None else _finite(sys.D, "D", sparse=False)
    if sys.B.shape[0] != sys.n or sys.C.shape[1] != sys.n:
        raise ValueError("B/C dimensions inconsistent with A")
    if sys.D.shape != (sys.p, sys.m):
        raise ValueError("D must be p x m")


@dataclass
class _System:
    """The questions the solvers ask of a system (see the module docstring)."""

    _STATE = "A"  # the state matrix that alpha_shift replaces

    # derived data, built on first use
    _transposed: object = field(default=None, init=False, repr=False, compare=False)
    _mass_lu: object = field(default=None, init=False, repr=False, compare=False)
    _abscissa: float = field(default=None, init=False, repr=False, compare=False)
    _state_input: tuple = field(default=None, init=False, repr=False, compare=False)
    # the low-rank Gramian solver's state for this system's reachability solves
    _replay: object = field(default=None, init=False, repr=False, compare=False)
    # a sparse pencil's union pattern with M's and A's data aligned to it; see _combine
    _pattern: tuple = field(default=None, init=False, repr=False, compare=False)

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

    def _rows(self, solve):
        """A solve on the pencil as a solve in ``order`` rows."""
        return solve

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

    def dense_state_input(self):
        """Dense ``(M^{-1} A, M^{-1} B)``, cached only when M is not I."""
        if self.mass is None:
            return _dense(self.A), self.B
        if self._state_input is None:
            m = _dense(self.mass)
            a = self.apply_a(np.eye(self.order))
            self._state_input = np.linalg.solve(m, a), np.linalg.solve(m, self.B)
        return self._state_input

    def midpoint_step(self, dt):
        """Unchecked LU solve with ``(M - dt/2 A) / 2`` on the pencil, in ``order`` rows.

        For ``rhs = M x + dt/2 B u`` it returns ``2 w``, twice the midpoint
        state (halving the matrix is exact), so the next state is ``2 w - x``.
        """
        step = self._combine(lambda m, a: 0.5 * m - (dt / 4.0) * a)
        return self._rows(_factor(step, err=SingularStepError, checked=False))

    def _combine(self, form):
        """``form(M, A)`` on the pencil; on a sparse one, on the data of its cached union pattern.

        ``form`` is elementwise linear, so applied to the aligned data it
        gives what scipy's sparse arithmetic gives, bit for bit: the same
        entries in canonical CSC order, exact zeros dropped.
        """
        if self._pattern is None:
            m, a = self.pencil()
            if not (sp.issparse(m) and sp.issparse(a)):
                return form(m, a)
            self._pattern = _union_pattern(m, a)
        m_data, a_data, pattern = self._pattern
        data = form(m_data, a_data)
        indices, indptr = pattern.indices, pattern.indptr
        kept = data != 0
        if not kept.all():
            before = np.concatenate(([0], np.cumsum(kept)))
            data, indices, indptr = data[kept], indices[kept], before[indptr]
        return sp.csc_matrix((data, indices, indptr), shape=pattern.shape)

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

    def pencil(self):
        """``(I, A)``, I sparse (CSC) when A is."""
        eye = sp.identity(self.n, format="csc") if sp.issparse(self.A) else np.eye(self.n)
        return eye, self.A

    def _dual(self):
        """(A^T, C^T, B^T), sharing the Schur form."""
        dual = StandardSystem(self.A.T, self.C.T, self.B.T, self.D.T)
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
    """Generalized state-space system ``M x' = A x + B u``, ``y = C x + D u``."""

    M: object
    A: object
    B: object
    C: object
    D: object = None

    def __post_init__(self):
        n, n2 = self.M.shape
        if n != n2 or self.A.shape != (n, n):
            raise ValueError("M and A must be square of equal size")
        _normalize(self, "M", "A")

    @property
    def mass(self):
        return self.M

    def pencil(self):
        """``(M, A)``, the pencil that the LU routes factor."""
        return self.M, self.A

    def _dual(self):
        return GeneralizedSystem(self.M.T, self.A.T, self.C.T, self.B.T, self.D.T)


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
    _pencil: tuple = field(default=None, init=False, repr=False, compare=False)
    _STATE = "A1"  # see _System

    def __post_init__(self):
        for name in ("M1", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2"):
            setattr(self, name, _finite(getattr(self, name), name, sparse=name[0] not in "BC"))
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
    def order(self):
        return self.n_f

    @property
    def m(self):
        return self.B1.shape[1]

    @property
    def p(self):
        return self.C1.shape[0]

    @property
    def mass(self):
        return self.M1

    def _dual(self):
        return DescriptorIndex1(
            self.M1.T, self.A1.T, self.A3.T, self.A2.T, self.A4.T,
            self.C1.T, self.C2.T, self.B1.T, self.B2.T,
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

    @property
    def B(self):
        """The eliminated input matrix  B1 - A2 A4^{-1} B2."""
        return self.B1 - self.A2 @ self.a4_solve(self.B2)

    @property
    def C(self):
        """The eliminated output matrix  C1 - C2 A4^{-1} A3, the transposed B of the dual."""
        return self.transposed().B.T

    @property
    def D(self):
        """The feedthrough of the algebraic part  -C2 A4^{-1} B2."""
        return -self.C2 @ self.a4_solve(self.B2)

    def pencil(self):
        """The block pencil (M, A) as sparse matrices, built once."""
        if self._pencil is None:
            c, na = sp.csc_matrix, self.n - self.n_f
            m_full = sp.bmat([[c(self.M1), None], [None, c((na, na))]], format="csc")
            a_full = sp.bmat([[c(self.A1), c(self.A2)], [c(self.A3), c(self.A4)]], format="csc")
            self._pencil = m_full, a_full
        return self._pencil

    def _rows(self, solve):
        """A block pencil ``solve`` for n_f rows: rhs padded with zero rows, solution cut to n_f."""
        n_f, n = self.n_f, self.n
        def block(rhs):
            full = np.zeros((n,) + rhs.shape[1:], dtype=rhs.dtype)
            full[:n_f] = rhs
            return solve(full)[:n_f]
        return block


def _factor(mat, err=SingularShiftError, checked=True):
    """LU factorization returning a solve closure; sparse or dense, any dtype.

    Dense solves call LAPACK ``getrs`` (what ``scipy.linalg.lu_solve``
    ends in, bit for bit), looked up once each for real and for complex
    right-hand sides. Sparse solves raise ``err`` on non-finite results
    unless ``checked`` is false. A closure must never refer to itself: the
    cycle would keep its factorization alive until the cyclic GC runs.
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
    getrs = [sla.get_lapack_funcs(("getrs",), (lu, np.empty(0, t)))[0] for t in (float, complex)]
    def solve(rhs):
        return getrs[np.iscomplexobj(rhs)](lu, piv, rhs)[0]
    return solve


def _union_pattern(m, a):
    """``(M data, A data, pattern)``: both matrices' entries on the CSC union of their nonzeros."""
    pattern = sp.csc_matrix(abs(m) + abs(a))
    pattern.sum_duplicates()  # canonical, so that no solver sorts the shared indices in place
    cols = np.repeat(np.arange(pattern.shape[1]), np.diff(pattern.indptr))
    m_data, a_data = (np.asarray(sp.csc_matrix(x)[pattern.indices, cols]).ravel() for x in (m, a))
    return m_data, a_data, pattern


def _dense_standard(sys):
    """True for a standard system with dense A, whose solves use its Schur form."""
    return isinstance(sys, StandardSystem) and not sp.issparse(sys.A)


def _verifiable(sys):
    """True when :func:`spectral_abscissa` accepts ``sys``: dense standard, or up to _DENSE_MAX."""
    return _dense_standard(sys) or sys.order <= _DENSE_MAX


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

    ``(A - s M) V = W`` on the system's pencil for an ``order x k`` array
    W, in O(n^2) through the cached Schur form when a standard system's A
    is dense, else by LU on every call (a shift with zero imaginary part
    taken as real). For a descriptor the leading ``n_f`` rows of
    ``(A - s M)[V; Psi] = [W; 0]``, the eliminated solve
    ``(A_hat - s M1)^{-1} W``. A real ``s`` with a real ``W`` gives a real
    ``V``; a shift on an eigenvalue raises :class:`SingularShiftError`.
    """
    if _dense_standard(sys):
        return _schur_solve(sys, s, w)
    if np.imag(s) == 0:
        s = np.real(s)
    return sys._rows(_factor(sys._combine(lambda m, a: a - s * m)))(w)


def spectral_abscissa(sys):
    """Largest real part of the spectrum of a system's pencil, computed once and cached.

    A dense standard system reads it off the diagonal of its Schur form, at
    any order; any other system off its cached dense M^{-1} A, and raises
    ValueError when its order is above ``_DENSE_MAX``.
    """
    if sys._abscissa is None:
        if not _verifiable(sys):
            raise ValueError(f"spectral abscissa refused for n={sys.order} > {_DENSE_MAX}")
        if _dense_standard(sys) and sys.n:  # an empty A has no Schur norms
            eigs = sys._schur_form()[0].diagonal()
        else:
            eigs = linalg.gen_eig(sys.dense_state_input()[0])
        sys._abscissa = float(np.max(eigs.real, initial=-np.inf))
    return sys._abscissa


def alpha_shift(sys, alpha):
    """A new system with the state matrix A (A1 for a descriptor) replaced by A - alpha*M."""
    if alpha == 0.0:
        return sys
    mass = sys.pencil()[0] if sys.mass is None else sys.mass
    return replace(sys, **{sys._STATE: getattr(sys, sys._STATE) - alpha * mass})
