import contextlib
import dataclasses
import inspect
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse.linalg as spla

import tlbt.gramians
import tlbt.systems
from conftest import random_descriptor, random_stable_matrix
from oracles import (
    NearDefectiveError,
    diagonalize,
    gramian_timelimited_cauchy,
    gramian_timelimited_difference,
    hull_boundary_linspace,
    numerical_rank,
    residual_norm,
    select_shift_broadcast,
)
from solve_fingerprint import convection_diffusion
from tlbt import linalg
from tlbt.errors import (
    MaxDimExceededError,
    NoConvergenceError,
    OverflowRangeError,
    SingularShiftError,
    SpectrumConflictError,
    UnstableSystemError,
)
from tlbt.reduction import ReducedModel, balance, reduce
from tlbt.gramians import (
    MODES,
    SIDES,
    SolverConfig,
    TimeWindow,
    _hull_boundary,
    _perturbed,
    _reach_form,
    _rhs,
    _scaled_columns,
    _select_shift,
    _sym_lowrank,
    _window_ends,
    mode_gramian,
    solve_infinite_lowrank,
    solve_modified_lowrank,
    solve_timelimited_lowrank,
)
from tlbt.synthetic import make_synthetic
from tlbt.systems import (DescriptorIndex1, GeneralizedSystem, StandardSystem, alpha_shift,
                          spectral_abscissa)

SCALAR = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))

# analytic integrals of e^{-2t} over [0,1] and [0.5,1]
P_TL_01 = (1.0 - np.exp(-2.0)) / 2.0  # 0.43233235838169365
P_TL_051 = (np.exp(-1.0) - np.exp(-2.0)) / 2.0  # 0.11627207896741481


def test_window_validation():
    with pytest.raises(ValueError):
        TimeWindow(t_e=1.0, t_s=1.0)
    with pytest.raises(ValueError):
        TimeWindow(t_e=-1.0)
    with pytest.raises(ValueError):
        TimeWindow(t_e=np.inf)


def test_config_defaults_match_protocol():
    cfg = SolverConfig()
    assert cfg.tol_f == 1e-8 and cfg.tol_p == 1e-8
    assert tlbt.gramians._CADENCE == 5


@pytest.mark.parametrize("max_dim", [0, -3])
def test_config_rejects_max_dim_below_one(max_dim):
    with pytest.raises(ValueError, match="max_dim"):
        SolverConfig(max_dim=max_dim)


@pytest.mark.parametrize("tols", [{"tol_f": 0.0}, {"tol_f": 1.0}, {"tol_p": -1e-8}, {"tol_p": 2.0}],
                         ids=["tol_f-zero", "tol_f-one", "tol_p-negative", "tol_p-above-one"])
def test_config_rejects_tolerances_outside_unit_interval(tols):
    with pytest.raises(ValueError, match=r"tolerances must lie in \(0, 1\)"):
        SolverConfig(**tols)


@pytest.mark.parametrize(
    "mode, method, message",
    [("bst", "krylov", "mode must be one of"), ("tlbt", "krylov", "'tlbt' needs a time window"),
     ("mtlbt", "dense", "'mtlbt' needs a time window"),
     ("bt", "exact", r"method must be dense\|krylov")],
    ids=["unknown-mode", "tlbt-no-window", "mtlbt-dense-no-window", "unknown-method"],
)
def test_mode_gramian_rejects_bad_arguments(mode, method, message):
    with pytest.raises(ValueError, match=message):
        mode_gramian(SCALAR, mode, None, method=method)


@pytest.mark.parametrize("method", ["krylov", "dense"])
def test_mode_gramian_rejects_an_unknown_side(method):
    with pytest.raises(ValueError, match=r"side must be reachability\|observability, got 'x'"):
        mode_gramian(SCALAR, "bt", side="x", method=method)


def test_lowrank_refuses_zero_input_matrix():
    # a zero B has an empty start block, so there is no basis to grow
    s = StandardSystem(np.diag([-1.0, -2.0]), np.zeros((2, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="input factor B is numerically zero"):
        solve_infinite_lowrank(s)


# ---------------------------------------------------------------------------
# dense paths


def test_infinite_dense_scalar_analytic():
    p = mode_gramian(SCALAR, "bt", method="dense")
    assert abs(p[0, 0] - 0.5) < 1e-14


def test_infinite_dense_scaled_identity():
    s = StandardSystem(-0.5 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    p = mode_gramian(s, "bt", method="dense")
    assert np.allclose(p, np.ones((2, 2)), atol=1e-13)


def test_infinite_dense_quadrature_oracle(rng):
    a = random_stable_matrix(10, rng)
    b = rng.standard_normal((10, 2))
    s = StandardSystem(a, b, rng.standard_normal((1, 10)))
    p = mode_gramian(s, "bt", method="dense")
    horizon = 40.0 / abs(np.max(np.linalg.eigvals(a).real))

    def integrand(t):
        e = linalg.expm(a * t)
        return (e @ b @ b.T @ e.T).reshape(-1)

    quad, _ = scipy.integrate.quad_vec(integrand, 0.0, horizon, epsabs=1e-10, epsrel=1e-9)
    assert np.linalg.norm(p.reshape(-1) - quad) <= 1e-6 * np.linalg.norm(quad)


def test_timelimited_dense_scalar_analytic():
    p = mode_gramian(SCALAR, "tlbt", TimeWindow(t_e=1.0), method="dense")
    assert abs(p[0, 0] - P_TL_01) < 1e-12
    p2 = mode_gramian(SCALAR, "tlbt", TimeWindow(t_e=1.0, t_s=0.5), method="dense")
    assert abs(p2[0, 0] - P_TL_051) < 1e-12


def test_timelimited_dense_long_horizon_limit(rng):
    s = make_synthetic("random_stable", 12, 1, 1, seed=3)
    abscissa = np.max(np.linalg.eigvals(s.A).real)
    p_inf = mode_gramian(s, "bt", method="dense")
    p_t = mode_gramian(s, "tlbt", TimeWindow(t_e=40.0 / abs(abscissa)), method="dense")
    assert np.linalg.norm(p_t - p_inf, 2) <= 1e-10 * np.linalg.norm(p_inf, 2)


def test_timelimited_dense_routes_agree(rng):
    # the Lyapunov equation against the difference identity of the infinite Gramian
    s = make_synthetic("random_stable", 20, 2, 1, seed=4)
    w = TimeWindow(t_e=2.0, t_s=0.3)
    pa = gramian_timelimited_difference(s, w)
    pb = mode_gramian(s, "tlbt", w, method="dense")
    assert np.linalg.norm(pa - pb, 2) <= 1e-9 * np.linalg.norm(pa, 2)


@pytest.mark.parametrize("mode", ["bt", "tlbt", "mtlbt"])
def test_dense_mode_gramian_solves_the_mode_equation(mode):
    # A P + P A^T + W = 0 for each side, W built here from e^{A t} B at the window ends
    s = make_synthetic("random_stable", 20, 2, 2, seed=4)
    w = TimeWindow(t_e=2.0, t_s=0.3)
    for side, a, b in [("reachability", s.A, s.B), ("observability", s.A.T, s.C.T)]:
        b_s, b_e = (scipy.linalg.expm(a * t) @ b for t in (w.t_s, w.t_e))
        rhs = {"bt": b @ b.T, "tlbt": b_s @ b_s.T - b_e @ b_e.T}
        lam, vec = np.linalg.eigh(rhs["tlbt"])
        rhs["mtlbt"] = (vec * np.abs(lam)) @ vec.T
        ref = scipy.linalg.solve_continuous_lyapunov(a, -rhs[mode])
        p = mode_gramian(s, mode, w, side=side, method="dense")
        assert np.linalg.norm(p - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2), side


def test_timelimited_dense_unstable_admissible(rng):
    # Lambda(A) = {0.3, -1}: disjoint from its mirror, so the Lyapunov
    # route applies even though A is unstable
    a = np.diag([0.3, -1.0])
    b = np.array([[1.0], [1.0]])
    s = StandardSystem(a, b, np.ones((1, 2)))
    w = TimeWindow(t_e=1.5)
    p = mode_gramian(s, "tlbt", w, method="dense")

    def integrand(t):
        e = linalg.expm(a * t)
        return (e @ b @ b.T @ e.T).reshape(-1)

    quad, _ = scipy.integrate.quad_vec(integrand, 0.0, w.t_e, epsabs=1e-12)
    assert np.linalg.norm(p.reshape(-1) - quad) <= 1e-8 * np.linalg.norm(quad)


def test_cauchy_scalar_analytic():
    d = diagonalize(SCALAR)
    p = gramian_timelimited_cauchy(d, 1.0)
    assert abs(p[0, 0] - P_TL_01) < 1e-12


def test_cauchy_zero_window():
    d = diagonalize(SCALAR)
    assert np.allclose(gramian_timelimited_cauchy(d, 0.0), 0.0)


def test_cauchy_matches_dense(rng):
    s = make_synthetic("weakly_damped", 6, 1, 1, seed=8)
    d = diagonalize(s)
    p_c = gramian_timelimited_cauchy(d, 2.0)
    p_d = mode_gramian(s, "tlbt", TimeWindow(t_e=2.0), method="dense")
    assert np.linalg.norm(p_c - p_d, 2) <= 1e-8 * np.linalg.norm(p_d, 2)


def test_cauchy_near_defective_rejected():
    a = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-12]])
    s = StandardSystem(a, np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(NearDefectiveError):
        gramian_timelimited_cauchy(diagonalize(s), 1.0)


@pytest.mark.parametrize("mode", ["bt", "tlbt", "mtlbt"])
def test_every_dense_route_refused_above_threshold_before_densifying(monkeypatch, mode):
    s = make_synthetic("heat_like", 20, 2, 2, seed=1)
    window = TimeWindow(t_e=0.05)

    def densified(sys):
        raise AssertionError("densified before the size check")

    monkeypatch.setattr(tlbt.systems, "_DENSE_MAX", 10)
    monkeypatch.setattr(tlbt.systems._System, "dense_state_input", densified)
    for side in ("reachability", "observability"):
        with pytest.raises(ValueError, match="dense Gramian path refused for n=20"):
            mode_gramian(s, mode, window, side=side, method="dense")
    with pytest.raises(ValueError, match="dense Gramian path refused"):
        reduce(s, mode, window, r=2, method="dense")


# ---------------------------------------------------------------------------
# adaptive shifts


def test_select_shift_grid_oracle():
    # Ritz {-1,-3}: mirrored interval [1,3]; with no finite shifts the
    # Druskin-Simoncini objective is 1/|(s+1)(s+3)|, largest at s = 1
    # (the solver's grid skips the mirrored Ritz value 1 itself)
    ritz = np.array([-1.0, -3.0])
    grid = np.geomspace(1.0, 3.0, 1000)
    objective = 1.0 / np.abs((grid + 1.0) * (grid + 3.0))
    expected = grid[np.argmax(objective)]
    got = _select_shift(ritz, [np.inf], 1)
    assert abs(got - expected) <= 2e-3 * abs(expected)
    assert abs(got - 1.0) <= 1e-2


def test_select_shift_avoids_poles_and_mirrors():
    ritz = np.array([-1.0, -2.0, -3.0])
    shifts = [np.inf, 3.0]
    s = _select_shift(ritz, shifts, 1)
    for used in shifts[1:]:
        assert abs(s - used) > 1e-8 * max(abs(s), abs(used))
    for z in -np.conj(ritz):
        assert abs(s - z) > 1e-12 * max(abs(s), abs(z))


def _select_shift_loop(ritz, shifts, m, npts=2000):
    """The shift rule with one pass per shift and per Ritz value (the reference).

    Same candidates as :func:`_select_shift` (the upper half of the hull
    samples), each exclusion and each objective term taken separately.
    """
    ritz = np.asarray(ritz, dtype=complex)
    scale = float(np.max(np.abs(ritz)))
    mirrored = -np.conj(ritz)
    if np.all(np.abs(mirrored.imag) <= 1e-12 * scale):
        lo, hi = mirrored.real.min(), mirrored.real.max()
        cand = (np.geomspace if lo > 0 else np.linspace)(lo, hi, npts).astype(complex)
    else:
        cand = _hull_boundary(mirrored, npts)
        cand = cand[cand.imag >= 0]
    cand = np.where(cand.real < 0, 1j * cand.imag, cand)
    keep = np.ones(cand.shape, dtype=bool)
    finite = [s for s in shifts if np.isfinite(s)]
    for s in finite:
        keep &= np.abs(cand - s) > 1e-8 * np.maximum(np.abs(cand), abs(s))
    for z in mirrored:
        keep &= np.abs(cand - z) > 1e-12 * np.maximum(np.abs(cand), abs(z))
    cand = cand[keep]
    obj = -np.sum(np.log(np.abs(cand[:, None] - ritz[None, :])), axis=1)
    for s in finite:
        obj += m * np.log(np.abs(cand - s))
    return cand, obj


def _assert_broadcast_pick(ritz, shifts, m):
    """The solver's pick, asserted identical to the complex-broadcast reference's."""
    got = _select_shift(ritz, shifts, m)
    ref = select_shift_broadcast(ritz, shifts, m)
    assert type(got) is type(ref) and got == ref
    return got


@pytest.mark.parametrize("seed", range(12))
def test_select_shift_matches_loop_reference(seed):
    # real-arithmetic objective with conjugate pairs: exactly the pick of the
    # complex broadcast, and against the term-by-term loop the same pick, or
    # one whose reference objective ties the best within the rounding of a
    # sum of logs
    rng = np.random.default_rng(seed)
    d = int(rng.integers(6, 60))
    if seed % 2:
        ritz = -np.geomspace(1.0, 10.0 ** rng.uniform(1, 5), d)
        shifts = [np.inf, *rng.choice(-ritz, size=d // 3, replace=False) * 1.37]
    else:
        im = rng.uniform(0.1, 30.0, d // 2)
        re = -rng.uniform(0.01, 0.1) * im - 0.01
        ritz = np.concatenate([re + 1j * im, re - 1j * im, [-0.5]])
        shifts = [np.inf]
        for v in rng.uniform(0.1, 30.0, d // 4):
            shifts += [complex(0.05 * v, v), complex(0.05 * v, -v)]
    cand, obj = _select_shift_loop(ritz, shifts, 2)
    got = complex(_assert_broadcast_pick(ritz, shifts, 2))
    best = cand[np.argmax(obj)]
    at_got = obj[np.argmin(np.abs(cand - got))]
    assert np.min(np.abs(cand - got)) <= 1e-12 * abs(got)
    assert got == complex(best.real, abs(best.imag)) or at_got >= obj.max() - 1e-10 * (
        1.0 + abs(obj.max())
    )


_ON_GRID = np.geomspace(1.0, 3.0, 2000)[700]  # a candidate of the Ritz values {-1, -3}
_MIXED_RITZ = np.concatenate(
    [-0.1 - 1j * np.arange(1, 8), -0.1 + 1j * np.arange(1, 8), [-0.5, -3.0]]
)


@pytest.mark.parametrize(
    "ritz, shifts",
    [
        # real poles only (grid candidates); real shifts against hull candidates;
        # a complex shift pair against grid candidates
        (-np.geomspace(1.0, 1e4, 30), [np.inf, 2.0, 40.0, 900.0]),
        (_MIXED_RITZ[:14], [np.inf, 0.3, 2.0]),
        (-np.geomspace(1.0, 1e4, 30), [np.inf, complex(50.0, 3.0), complex(50.0, -3.0)]),
        # complex pairs and real points among both the Ritz values and the shifts
        (_MIXED_RITZ, [np.inf, 0.4, complex(0.2, 2.5), complex(0.2, -2.5), 1.5]),
        # a candidate on a previous shift: an objective entry of -inf
        (np.array([-1.0, -3.0]), [np.inf, _ON_GRID]),
        # a candidate on the mirrored Ritz value 0: the argmax is +inf and excluded
        (np.array([0.0, -1.0, -3.0]), [np.inf]),
        # ... and on a previous shift too: a NaN entry
        (np.array([0.0, -1.0, -3.0]), [np.inf, 0.0, 2.0]),
        # a finite argmax that is excluded: the mirrored Ritz value 1
        (np.array([-1.0, -3.0]), [np.inf]),
    ],
    ids=["real-grid", "real-shifts-hull", "complex-shift-grid", "mixed", "on-shift",
         "on-mirrored", "nan", "argmax-excluded"],
)
def test_select_shift_equals_broadcast_reference(ritz, shifts):
    for m in (1, 2):
        _assert_broadcast_pick(ritz, shifts, m)


def _hull_case(case):
    """Points for the hull test: random ones by seed, else a named degenerate set."""
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        k = int(rng.integers(3, 60))
        pts = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0 ** rng.uniform(-3, 5)
        if case == 0:
            pts = (1.0 + 2.0j) * rng.standard_normal(k)  # collinear: one segment
        return pts
    rng = np.random.default_rng(7)
    if case == "rays":  # mirrored weakly damped pairs -zeta w +/- i w, and a real one
        w = np.geomspace(1.0, 10.0, 40) * 30.0
        return np.concatenate([0.01 * w + 1j * w, 0.01 * w - 1j * w, [15.0]])
    if case == "collinear":  # exactly, on a 3:1 slope
        return (3.0 + 1.0j) * rng.permutation(25)
    if case == "conjugate-duplicates":
        upper = rng.uniform(0.01, 1.0, 20) + 1j * rng.uniform(0.0, 1.0, 20)
        return np.tile(np.concatenate([upper, np.conj(upper)]), 2) * 1e3
    if case == "near-flat":  # imaginary parts about 1e-11 of the scale
        return (rng.uniform(0.0, 1.0, 50) + 1e-11j * rng.standard_normal(50)) * 1e4
    return np.array([1.0 + 2.0j, -3.0 + 0.5j])  # two points


@pytest.mark.parametrize(
    "case", [*range(6), "rays", "collinear", "conjugate-duplicates", "near-flat", "two-points"]
)
def test_hull_boundary_equals_linspace_reference(case):
    # byte-equal to the samples of qhull's hull: the same vertices, merged where
    # qhull merges near-collinear ones, from the same start
    pts = _hull_case(case)
    got, ref = _hull_boundary(pts, 2000), hull_boundary_linspace(pts, 2000)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_select_shift_degenerate_falls_back():
    # coinciding mirrored Ritz values; and two 1e-13 apart, where every grid
    # candidate lies within 1e-12 of one of them and is excluded
    for ritz in ([-2.0, -2.0], [-1.0, -1.0 - 1e-13]):
        s = _select_shift(np.array(ritz), [np.inf], 1)
        assert np.isfinite(s) and np.real(s) > 0


def test_symmetric_system_real_shifts():
    n = 40
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    a = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    rng = np.random.default_rng(0)
    s = StandardSystem(4.0 * a, rng.standard_normal((n, 1)), rng.standard_normal((1, n)))
    g = solve_timelimited_lowrank(s, TimeWindow(t_e=1.0))
    finite = [sh for sh in g.workspace.shifts if np.isfinite(sh)]
    assert finite and all(np.imag(sh) == 0 for sh in finite)


def test_no_duplicate_shifts_over_runs(monkeypatch):
    monkeypatch.setattr(tlbt.gramians, "_CADENCE", 2)  # more picks between checks
    for seed in range(50):
        s = make_synthetic("random_stable", 16, 1, 1, seed=seed)
        g = solve_infinite_lowrank(s)
        finite = np.array([sh for sh in g.workspace.shifts if np.isfinite(sh)], dtype=complex)
        for i in range(len(finite)):
            for j in range(i + 1, len(finite)):
                gap = abs(finite[i] - finite[j])
                assert gap > 1e-12 * max(abs(finite[i]), abs(finite[j]))


# Stiff symmetric spectra with fast Hankel decay: the adaptive shifts must
# spread over the spectrum so the basis stays far below n.


def _assert_distinct_shifts(g):
    finite = np.array([s for s in g.workspace.shifts if np.isfinite(s)], dtype=complex)
    gap = np.abs(finite[:, None] - finite[None, :])
    scale = np.maximum(np.abs(finite)[:, None], np.abs(finite)[None, :])
    off = ~np.eye(finite.size, dtype=bool)
    assert np.all(gap[off] > 1e-8 * scale[off])


@pytest.mark.parametrize("side", ["reachability", "observability"])
def test_heat_infinite_gramian_compresses(side):
    s = make_synthetic("heat_like", 2000, 2, 2, seed=1)
    with pytest.warns(UserWarning, match="unverified"):
        g = solve_infinite_lowrank(s, SolverConfig(tol_f=1e-8, tol_p=1e-8), side)
    assert g.stop == "converged" and g.residual <= 1e-8
    assert g.subspace_dim <= 80
    _assert_distinct_shifts(g)


@pytest.mark.parametrize("side", ["reachability", "observability"])
def test_heat200_subspace_does_not_grow(side):
    # the benchmark's heat200 system: a change to the shift rule that grows d shows here
    s = make_synthetic("heat_like", 200, 2, 2, seed=1)
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    bt = solve_infinite_lowrank(s, cfg, side)
    tl = solve_timelimited_lowrank(s, TimeWindow(t_e=0.05), cfg, side)
    assert bt.stop == tl.stop == "converged"
    assert bt.subspace_dim <= 42 and tl.subspace_dim <= 72


@pytest.mark.parametrize("side", ["reachability", "observability"])
def test_heat_timelimited_gramian_compresses_at_scale(side):
    s = make_synthetic("heat_like", 20000, 2, 2, seed=1)
    with pytest.warns(UserWarning, match="unverified"):
        g = solve_timelimited_lowrank(
            s, TimeWindow(t_e=0.05), SolverConfig(tol_f=1e-8, tol_p=1e-8), side
        )
    assert g.stop == "converged" and g.residual <= 1e-8
    assert g.subspace_dim <= 150
    _assert_distinct_shifts(g)


def test_spd_mass_gramian_independent_of_dense_threshold(monkeypatch):
    # the Krylov operator is the pencil (A, M) at every size; the threshold
    # gates only the dense routes and the dense stability check
    s = make_synthetic("heat_like", 300, 2, 2, seed=1)
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    big = solve_infinite_lowrank(s, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(tlbt.systems, "_DENSE_MAX", 100)
        with pytest.warns(UserWarning, match="unverified"):  # a fresh system picks its own shifts
            small = solve_infinite_lowrank(make_synthetic("heat_like", 300, 2, 2, seed=1), cfg)
    assert big.workspace.shifts == small.workspace.shifts
    assert big.subspace_dim == small.subspace_dim
    assert np.array_equal(big.z, small.z)
    assert all(np.imag(sh) == 0 for sh in big.workspace.shifts)
    p = mode_gramian(s, "bt", method="dense")
    assert np.linalg.norm(big.z @ big.z.T - p, 2) <= 1e-6 * np.linalg.norm(p, 2)


def _assert_same_solve(fresh, replayed):
    assert replayed.workspace.shifts == fresh.workspace.shifts
    assert replayed.subspace_dim == fresh.subspace_dim
    assert replayed.rank == fresh.rank
    assert replayed.stop == fresh.stop
    assert np.array_equal(replayed.z, fresh.z)


def _heat(n=300):
    return make_synthetic("heat_like", n, 2, 2, seed=1)


def _picks(monkeypatch):
    """``(arguments, shift)`` of the adaptive shift selections from now on."""
    picks, real = [], tlbt.gramians._select_shift

    def spy(ritz, shifts, *rest):
        s = real(ritz, shifts, *rest)
        picks.append(((ritz, list(shifts), *rest), s))  # the solver extends its shift list
        return s

    monkeypatch.setattr(tlbt.gramians, "_select_shift", spy)
    return picks


def _assert_picks_equal_broadcast(picks):
    assert picks
    for args, s in picks:
        ref = select_shift_broadcast(*args)
        assert type(s) is type(ref) and s == ref


def test_weakly_damped_picks_equal_broadcast_reference(monkeypatch):
    # Ritz values near the two rays -zeta w +/- i w: every pick of a solve is
    # the reference's, whose hull is qhull's
    picks = _picks(monkeypatch)
    g = solve_timelimited_lowrank(make_synthetic("weakly_damped", 60, 2, 2, seed=1),
                                  TimeWindow(t_e=5.0))
    assert any(isinstance(sh, complex) for sh in g.workspace.shifts)
    _assert_picks_equal_broadcast(picks)


def test_replayed_poles_equal_fresh_solve_heat():
    # a reused system replays the shifts its side has cached: bt's run out at
    # d = 52 and the time-limited solve goes on adaptively
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    window = TimeWindow(t_e=0.05)
    s = _heat()
    bt = solve_infinite_lowrank(s, cfg)
    fresh = solve_timelimited_lowrank(_heat(), window, cfg)
    assert bt.subspace_dim < fresh.subspace_dim
    _assert_same_solve(fresh, solve_timelimited_lowrank(s, window, cfg))
    # a cached list longer than needed: the solve stops where a fresh one stops
    _assert_same_solve(solve_infinite_lowrank(_heat(), cfg), solve_infinite_lowrank(s, cfg))


@pytest.mark.parametrize("side", ["reachability", "observability"])
def test_replayed_complex_poles_equal_fresh_solve(side):
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    window = TimeWindow(t_e=5.0)
    s = make_synthetic("weakly_damped", 60, 2, 2, seed=1)
    bt = solve_infinite_lowrank(s, cfg, side)
    assert any(isinstance(sh, complex) for sh in bt.workspace.shifts)
    fresh = solve_modified_lowrank(make_synthetic("weakly_damped", 60, 2, 2, seed=1), window,
                                   cfg, side)
    _assert_same_solve(fresh, solve_modified_lowrank(s, window, cfg, side))


def test_second_reduce_picks_no_shift(monkeypatch):
    s = _heat(200)
    first = reduce(s, "bt", r=20)
    picks = _picks(monkeypatch)
    second = reduce(s, "bt", r=20)
    assert picks == []
    for key in ("A", "B", "C", "D", "T", "S", "hsv"):
        assert getattr(second, key).tobytes() == getattr(first, key).tobytes(), key
    reduce(_heat(200), "bt", r=20)
    assert picks  # a fresh system picks its shifts


def test_solve_after_cap_equals_fresh_solve(monkeypatch):
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    s = _heat(200)
    picks = _picks(monkeypatch)
    with pytest.raises(MaxDimExceededError):
        solve_infinite_lowrank(s, SolverConfig(tol_f=1e-8, tol_p=1e-8, max_dim=20))
    capped = len(picks)
    resumed = solve_infinite_lowrank(s, cfg)
    resumed_picks = len(picks) - capped
    picks.clear()
    _assert_same_solve(solve_infinite_lowrank(_heat(200), cfg), resumed)
    # the capped solve's shifts are replayed, not picked again
    assert capped > 0 and capped + resumed_picks == len(picks)


def test_sides_cache_their_own_poles():
    # a dense standard system shares its Schur form with the dual, not its shifts
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    s = make_synthetic("weakly_damped", 60, 2, 2, seed=1)
    reach = solve_infinite_lowrank(s, cfg)
    obs = solve_infinite_lowrank(s, cfg, "observability")
    assert obs.workspace.shifts != reach.workspace.shifts
    fresh = make_synthetic("weakly_damped", 60, 2, 2, seed=1)
    _assert_same_solve(solve_infinite_lowrank(fresh, cfg, "observability"), obs)
    assert s.transposed()._replay.poles is not s._replay.poles


# The reach form also keeps the window ends of its checks and the deepest
# Schur form of H: a warm solve must still equal a cold one.
WARM_CASES = {
    "wd60": (lambda: _weakly_damped_60(), [TimeWindow(t_e=5.0), TimeWindow(t_e=5.0, t_s=1.0)]),
    "heat200": (lambda: _heat(200), [TimeWindow(t_e=0.05)]),
    "desc40": (lambda: random_descriptor(40, 10, 2, 2, seed=3), [TimeWindow(t_e=1.0)]),
    "cd400": (lambda: convection_diffusion(20), [TimeWindow(t_e=0.01)]),
}


@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_warm_cache_equals_cold_solve_in_either_mode_order(case):
    # wd60's two windows share t = 5, so the second window reads ends the
    # first one formed; each order solves one system, each cold solve a fresh copy
    build, windows = WARM_CASES[case]
    cold = {}
    for order in (MODES, MODES[::-1]):
        s = build()
        for window in windows:
            for mode in order:
                for side in SIDES:
                    key = (window.t_s, mode, side)
                    if key not in cold:
                        cold[key] = mode_gramian(build(), mode, window, side=side)
                    _assert_same_solve(cold[key], mode_gramian(s, mode, window, side=side))
        assert s._replay.ends and s.transposed()._replay.ends


def test_warm_cache_after_cap_equals_cold_solve():
    # a capped solve leaves ends and a Schur form at its depths; the solves
    # that go on past them equal cold ones
    window = TimeWindow(t_e=5.0)
    s = _weakly_damped_60()
    with pytest.raises(MaxDimExceededError):
        solve_timelimited_lowrank(s, window, SolverConfig(max_dim=20))
    assert s._replay.deepest[0] == 14 and list(s._replay.ends) == [(14, 5.0), (22, 5.0)]
    for solve in (solve_timelimited_lowrank, solve_modified_lowrank):
        _assert_same_solve(solve(_weakly_damped_60(), window), solve(s, window))
    assert s._replay.deepest[0] == 60


def test_overflowing_check_caches_no_end(monkeypatch):
    # the second check's t_e end overflows after its t_s end was formed:
    # neither is kept, and the next solve forms both and equals a cold one
    window = TimeWindow(t_e=2.0, t_s=0.5)
    s = make_synthetic("random_stable", 60, 2, 2, seed=1)
    with monkeypatch.context() as patch:
        _fail_once(patch, "expm", OverflowRangeError("expm out of range"), at=4)
        g = solve_timelimited_lowrank(s, window)
    d = g.trace[1]["dim"]
    assert g.trace[1]["f_change"] == np.inf and d < g.subspace_dim
    assert [k for k in s._replay.ends if k[0] == d] == []
    cold = solve_timelimited_lowrank(make_synthetic("random_stable", 60, 2, 2, seed=1), window)
    _assert_same_solve(cold, solve_timelimited_lowrank(s, window))
    assert (d, 0.5) in s._replay.ends and (d, 2.0) in s._replay.ends


def test_replayed_work_forms_each_end_and_deepest_schur_once(monkeypatch):
    # bt, then tlbt, then mtlbt over one window, on both sides: mtlbt reads
    # every window end tlbt formed, and each side factors H at its deepest
    # d once, and keeps that one Schur form only
    expm, schur = [], []
    real_expm, real_schur = linalg.expm, linalg._real_schur
    monkeypatch.setattr(linalg, "expm", lambda a: expm.append(a.shape) or real_expm(a))
    monkeypatch.setattr(linalg, "_real_schur", lambda a: schur.append(a.shape) or real_schur(a))
    s, window = _weakly_damped_60(), TimeWindow(t_e=5.0)
    formed = dict.fromkeys(SIDES, 0)  # Schur forms of H at d = n, per side
    for mode in MODES:
        for side in SIDES:
            expm.clear()
            schur.clear()
            mode_gramian(s, mode, window, side=side)
            assert (mode != "tlbt") == (expm == [])
            formed[side] += schur.count((60, 60))
    assert formed == dict.fromkeys(SIDES, 1)
    for form in (s, s.transposed()):
        d, r, u, ritz = form._replay.deepest
        assert d == 60 and r.nbytes + u.nbytes <= 2 * d * d * 8 and ritz.shape == (d,)
        assert all(not end.flags.writeable and end.shape == (k[0], 2)
                   for k, end in form._replay.ends.items())


def test_every_system_class_has_one_solver_field():
    # the solver reads and writes one private field of a system: _replay
    src = inspect.getsource(tlbt.gramians)
    for cls in (StandardSystem, GeneralizedSystem, DescriptorIndex1, ReducedModel):
        private = [f.name for f in dataclasses.fields(cls) if f.name.startswith("_")]
        assert [name for name in private if re.search(rf"\.{name}\b", src)] == ["_replay"]
    s = _heat(60)
    assert s._replay is None
    for side in SIDES:
        solve_infinite_lowrank(s, side=side)
    replays = [form._replay for form in (s, s.transposed())]
    assert all(isinstance(r, tlbt.gramians._Replay) for r in replays)
    assert replays[0] is not replays[1]
    assert alpha_shift(s, 1.0)._replay is None


def test_trimmed_workspace_derives_b_proj_from_the_start_block():
    s = _heat(60)
    ws = solve_timelimited_lowrank(s, TimeWindow(t_e=0.05)).workspace
    assert ws.m0 == s.m and ws.dim > ws.m0 and not hasattr(ws, "_bp")
    # Q_start^T b over zero rows, up to the rounding of a product on a copied Q
    b = s.mass_solve(s.B)
    assert ws.b_proj.shape == (ws.dim, s.m) and not ws.b_proj[ws.m0 :].any()
    top = ws.q[:, : ws.m0].T @ b
    assert np.allclose(ws.b_proj[: ws.m0], top, rtol=0, atol=1e-14 * np.linalg.norm(b))


# ---------------------------------------------------------------------------
# projected quantities


def _workspace_for(sys, t_e=1.0):
    g = solve_timelimited_lowrank(sys, TimeWindow(t_e=t_e))
    return g, g.workspace


def test_expm_action_t0_returns_b():
    # t_s = 0: the window start is b_proj itself, no exponential, and Q b_proj = B
    s = make_synthetic("random_stable", 15, 2, 1, seed=1)
    _, ws = _workspace_for(s)
    ends = _window_ends(TimeWindow(t_e=1.0), ws.h, ws.b_proj)
    f, _ = _rhs("tlbt", TimeWindow(t_e=1.0), ws.b_proj, ends)
    assert len(ends) == 1 and np.array_equal(f[:, :2], ws.b_proj)
    lifted = ws.q @ f[:, :2]
    assert np.linalg.norm(lifted - s.B) <= 1e-12 * np.linalg.norm(s.B)


def _same(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("t_s", [0.0, 0.5])
@pytest.mark.parametrize("mode", MODES)
def test_rhs_of_the_dense_ends_is_each_modes_right_hand_side(monkeypatch, mode, t_s):
    # bt takes (b, I) and forms no end; tlbt the ends, after b when t_s = 0,
    # with J = diag(I, -I); mtlbt the surrogate of tlbt's W. The dense
    # Gramian solves exactly that W, bit for bit
    s = make_synthetic("weakly_damped", 20, 2, 2, seed=1)
    window = TimeWindow(t_e=2.0, t_s=t_s)
    a, b = s.dense_state_input()
    ends = _window_ends(window, a, b)
    exact = [linalg.expm(a * t) @ b for t in (t_s, 2.0) if t > 0]
    assert len(ends) == len(exact) and all(map(_same, ends, exact))
    f_tl = np.hstack(ends if t_s > 0 else [b, *ends])
    j_tl = np.diag([1.0, 1.0, -1.0, -1.0])
    if mode == "bt":
        ref = b, np.eye(2)
    elif mode == "tlbt":
        ref = f_tl, j_tl
    else:
        u, lam = _sym_lowrank(f_tl, j_tl)
        f_abs = _scaled_columns(np.abs(lam), u)
        ref = f_abs, np.eye(f_abs.shape[1])
    f, j = _rhs(mode, window, b, ends)
    assert _same(f, ref[0]) and _same(j, ref[1])
    expm, real = [], linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda x: expm.append(x) or real(x))
    dense = mode_gramian(s, mode, window, method="dense")
    assert len(expm) == (0 if mode == "bt" else len(ends))
    assert _same(dense, linalg.lyap_dense(a, f @ j @ f.T))


def test_expm_action_full_subspace_exact(rng):
    a = random_stable_matrix(8, rng)
    b = rng.standard_normal((8, 1))
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    ws = SimpleNamespace(h=q.T @ a @ q, b_proj=q.T @ b)
    w = TimeWindow(t_e=0.7, t_s=0.2)
    for t, end in zip((w.t_s, w.t_e), _window_ends(w, ws.h, ws.b_proj)):
        lifted = q @ end
        dense = linalg.expm(a * t) @ b
        assert np.linalg.norm(lifted - dense) <= 1e-10 * np.linalg.norm(dense)


def test_expm_action_scalar_analytic():
    s = StandardSystem(np.array([[-2.0]]), np.array([[1.0]]), np.array([[1.0]]))
    g = solve_infinite_lowrank(s)
    (end,) = _window_ends(TimeWindow(t_e=0.5), g.workspace.h, g.workspace.b_proj)
    lifted = g.workspace.q @ end
    assert abs(lifted[0, 0] - 0.36787944117144233) < 1e-12


def _abs_sym(w):
    """``|W| = V |Lambda| V^T`` of a symmetric W, from numpy's eigh."""
    lam, v = np.linalg.eigh(w)
    return (v * np.abs(lam)) @ v.T


def _modified_factor(window, h, b):
    """The mtlbt factor F of :func:`_rhs` and its ends; J must be the identity."""
    ends = _window_ends(window, h, b)
    f, j = _rhs("mtlbt", window, b, ends)
    assert np.array_equal(j, np.eye(f.shape[1]))
    return f, ends


def test_abs_eig_factor_absolute_values():
    # e^{H} turns b_s = sqrt(2) q_0 into b_e = sqrt(3) q_1: a quarter turn
    # in the (q_0, q_1) plane, scaled by sqrt(3/2)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    k = np.zeros((5, 5))
    k[:2, :2] = [[np.log(1.5) / 2.0, -np.pi / 2.0], [np.pi / 2.0, np.log(1.5) / 2.0]]
    b_s = np.sqrt(2.0) * q[:, [0]]
    f, (b_e,) = _modified_factor(TimeWindow(t_e=1.0), q @ k @ q.T, b_s)
    assert np.allclose(b_e, np.sqrt(3.0) * q[:, [1]], atol=1e-14)
    vals = np.sort(np.linalg.eigvalsh(f @ f.T))[::-1]
    assert np.allclose(vals[:2], [3.0, 2.0], atol=1e-12)
    assert f.shape[1] == 2
    assert np.allclose(f @ f.T, _abs_sym(b_s @ b_s.T - b_e @ b_e.T), atol=1e-12)


def test_modified_rhs_long_horizon_recovers_infinite():
    s = make_synthetic("random_stable", 20, 2, 1, seed=6)
    g = solve_timelimited_lowrank(s, TimeWindow(t_e=60.0))
    ws = g.workspace
    f, (b_e,) = _modified_factor(TimeWindow(t_e=60.0), ws.h, ws.b_proj)
    bb = ws.b_proj @ ws.b_proj.T
    assert np.linalg.norm(f @ f.T - bb, 2) <= 1e-10 * np.linalg.norm(bb, 2)
    ref = _abs_sym(bb - b_e @ b_e.T)
    assert np.linalg.norm(f @ f.T - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_modified_rhs_rank_bound_100_workspaces():
    rng = np.random.default_rng(9)
    w = TimeWindow(t_e=1.0, t_s=0.3)
    for _ in range(100):
        d = int(rng.integers(3, 25))
        m = int(rng.integers(1, 4))
        h = rng.standard_normal((d, d)) / np.sqrt(d) - np.eye(d)
        b = rng.standard_normal((d, m))
        f, (bs, be) = _modified_factor(w, h, b)
        assert np.array_equal(bs, linalg.expm(h * w.t_s) @ b)
        assert np.array_equal(be, linalg.expm(h * w.t_e) @ b)
        assert f.shape[1] <= 2 * m
        ref = _abs_sym(bs @ bs.T - be @ be.T)
        assert np.linalg.norm(f @ f.T - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_residual_norm_full_space_exact(rng):
    a = random_stable_matrix(10, rng)
    b = rng.standard_normal((10, 1))
    s = StandardSystem(a, b, np.ones((1, 10)))
    q = np.eye(10)
    h = a
    t_e = 1.2
    b_e = linalg.expm(h * t_e) @ b
    y = linalg.lyap_dense(h, b @ b.T - b_e @ b_e.T)
    ws = SimpleNamespace(q=q, h=h, b_proj=b, shifts=[np.inf])
    mu = residual_norm(s, ws, y, [(b, +1), (b_e, -1)])
    assert mu <= 1e-12


def test_residual_norm_zero_solution_is_one(rng):
    s = make_synthetic("random_stable", 12, 1, 1, seed=2)
    g = solve_timelimited_lowrank(s, TimeWindow(t_e=1.0))
    ws = g.workspace
    b_proj = ws.b_proj
    b_e = linalg.expm(ws.h * 1.0) @ b_proj
    mu = residual_norm(s, ws, np.zeros((ws.dim, ws.dim)), [(b_proj, +1), (b_e, -1)])
    assert abs(mu - 1.0) <= 1e-12


def test_residual_norm_matches_dense(rng):
    s = make_synthetic("random_stable", 40, 2, 1, seed=5)
    w = TimeWindow(t_e=2.0)
    g = solve_timelimited_lowrank(s, w)
    ws = g.workspace
    b_proj = ws.b_proj
    b_e = linalg.expm(ws.h * w.t_e) @ b_proj
    y = linalg.lyap_dense(ws.h, b_proj @ b_proj.T - b_e @ b_e.T)
    mu = residual_norm(s, ws, y, [(b_proj, +1), (b_e, -1)])
    x = ws.q @ y @ ws.q.T
    ge = ws.q @ b_e
    num = np.linalg.norm(s.A @ x + x @ s.A.T + s.B @ s.B.T - ge @ ge.T, 2)
    den = np.linalg.norm(s.B @ s.B.T - ge @ ge.T, 2)
    assert abs(mu - num / den) <= 1e-10


# ---------------------------------------------------------------------------
# low-rank solvers


def test_lowrank_scalar_infinite():
    g = solve_infinite_lowrank(SCALAR)
    assert g.rank == 1
    assert abs(abs(g.z[0, 0]) - np.sqrt(0.5)) < 1e-12
    assert g.residual <= 1e-8


def test_lowrank_scalar_timelimited_both_windows():
    g = solve_timelimited_lowrank(SCALAR, TimeWindow(t_e=1.0))
    assert abs((g.z @ g.z.T)[0, 0] - P_TL_01) < 1e-10
    g2 = solve_timelimited_lowrank(SCALAR, TimeWindow(t_e=1.0, t_s=0.5))
    assert abs((g2.z @ g2.z.T)[0, 0] - P_TL_051) < 1e-10


def test_lowrank_infinite_matches_dense(rng):
    s = make_synthetic("random_stable", 60, 2, 2, seed=10)
    g = solve_infinite_lowrank(s)
    p = mode_gramian(s, "bt", method="dense")
    assert np.linalg.norm(g.z @ g.z.T - p, 2) <= 1e-6 * np.linalg.norm(p, 2)
    assert g.residual <= 1e-8


def test_lowrank_timelimited_matches_dense_suite():
    cfg = SolverConfig()
    for kind, n, m, te in [
        ("random_stable", 50, 1, 2.0),
        ("random_stable", 80, 3, 1.0),
        ("weakly_damped", 60, 2, 5.0),
    ]:
        s = make_synthetic(kind, n, m, m, seed=n)
        w = TimeWindow(t_e=te)
        g = solve_timelimited_lowrank(s, w, cfg)
        p = mode_gramian(s, "tlbt", w, method="dense")
        rel = np.linalg.norm(g.z @ g.z.T - p, 2) / np.linalg.norm(p, 2)
        assert rel <= 100 * cfg.tol_p, (kind, n, m, rel)
        assert g.rank <= g.subspace_dim <= (cfg.max_dim or 600)


def _dense_error(s, g, mode, window, side):
    p = mode_gramian(s, mode, window, side=side, method="dense")
    return np.linalg.norm(g.z @ g.z.T - p, 2) / np.linalg.norm(p, 2)


def test_ends_below_tol_f_of_b_take_bts_basis():
    # e^{60 A} B is about 5e-14 ||B||: the ends' change is measured against
    # F's largest block, B, so the first check passes the gate and tlbt
    # needs bt's basis, not one that chases the ends' roundoff
    s = make_synthetic("random_stable", 300, 2, 2, seed=1)
    window = TimeWindow(t_e=60.0)
    for side in SIDES:
        g = solve_timelimited_lowrank(s, window, side=side)
        assert g.subspace_dim == solve_infinite_lowrank(s, side=side).subspace_dim == 24
        assert _dense_error(s, g, "tlbt", window, side) <= 1e-8


@pytest.mark.parametrize("kind, n, t_s, t_e", [("random_stable", 100, 70.0, 80.0),
                                               ("heat_like", 200, 8.0, 10.0)])
def test_late_window_matches_dense(kind, n, t_s, t_e):
    # F = [B_s, B_e] far below ||B||: the gate runs on F's own scale
    s = make_synthetic(kind, n, 2, 2, seed=1)
    window = TimeWindow(t_e=t_e, t_s=t_s)
    for side in SIDES:
        g = solve_timelimited_lowrank(s, window, side=side)
        assert g.stop == "converged" and _dense_error(s, g, "tlbt", window, side) <= 1e-8


def test_ends_that_underflow_give_a_zero_factor():
    # every block of F is exactly zero: f_change 0 (no 0/0), W = 0 and Z empty
    s = make_synthetic("heat_like", 50, 2, 2, seed=1)
    for side in SIDES:
        g = solve_timelimited_lowrank(s, TimeWindow(t_e=900.0, t_s=800.0), side=side)
        assert (g.rank, g.residual, g.stop) == (0, 0.0, "converged")
        assert g.trace[-1]["f_change"] == 0.0


def test_first_check_records_a_finite_change():
    # before the first check the ends count as zero, and b is F's first
    # block when t_s = 0; bt has no ends and records the float 0.0
    s = make_synthetic("random_stable", 60, 2, 2, seed=1)
    assert np.isfinite(solve_timelimited_lowrank(s, TimeWindow(t_e=2.0)).trace[0]["f_change"])
    f_change = solve_infinite_lowrank(s).trace[0]["f_change"]
    assert type(f_change) is float and f_change == 0.0


def test_lowrank_long_horizon_recovers_infinite():
    s = make_synthetic("random_stable", 30, 1, 1, seed=11)
    g_t = solve_timelimited_lowrank(s, TimeWindow(t_e=80.0))
    p_inf = mode_gramian(s, "bt", method="dense")
    assert np.linalg.norm(g_t.z @ g_t.z.T - p_inf, 2) <= 1e-6 * np.linalg.norm(p_inf, 2)


def test_lowrank_observability_duality():
    s = make_synthetic("random_stable", 25, 2, 2, seed=12)
    w = TimeWindow(t_e=1.5)
    g_obs = solve_timelimited_lowrank(s, w, side="observability")
    g_dual = solve_timelimited_lowrank(s.transposed(), w, side="reachability")
    assert np.linalg.norm(g_obs.z - g_dual.z) <= 1e-12 * max(np.linalg.norm(g_dual.z), 1e-300)


def test_lowrank_rank_pattern_weakly_damped():
    # matched tolerances: the windowed Gramian factor has lower rank than
    # the infinite one on weakly damped dynamics with a short horizon
    s = make_synthetic("weakly_damped", 100, 1, 1, seed=3)
    g_t = solve_timelimited_lowrank(s, TimeWindow(t_e=3.0))
    g_i = solve_infinite_lowrank(s)
    assert g_t.rank < g_i.rank


def test_lowrank_reported_mu_verified_dense(rng):
    s = make_synthetic("random_stable", 50, 1, 1, seed=13)
    w = TimeWindow(t_e=2.0)
    g = solve_timelimited_lowrank(s, w)
    ws = g.workspace
    ge = ws.q @ (linalg.expm(ws.h * w.t_e) @ ws.b_proj)
    x = g.z @ g.z.T
    num = np.linalg.norm(s.A @ x + x @ s.A.T + s.B @ s.B.T - ge @ ge.T, 2)
    den = np.linalg.norm(s.B @ s.B.T - ge @ ge.T, 2)
    assert abs(g.residual - num / den) <= 1e-10


def test_lowrank_expm_action_sanity():
    cfg = SolverConfig()
    s = make_synthetic("random_stable", 60, 2, 1, seed=14)
    w = TimeWindow(t_e=2.0, t_s=0.5)
    g = solve_timelimited_lowrank(s, w, cfg)
    ws = g.workspace
    for t in (w.t_s, w.t_e):
        approx = ws.q @ (linalg.expm(ws.h * t) @ ws.b_proj)
        dense = linalg.expm(np.asarray(s.A) * t) @ s.B
        rel = np.linalg.norm(approx - dense) / np.linalg.norm(dense)
        assert rel <= 10 * cfg.tol_f


def test_lowrank_generalized_residual_contract():
    cfg = SolverConfig()
    g_sys = make_synthetic("heat_like", 60, 2, 2, seed=15)
    w = TimeWindow(t_e=0.8)
    g = solve_timelimited_lowrank(g_sys, w, cfg)
    m = g_sys.M.toarray()
    a = g_sys.A.toarray()
    b = np.asarray(g_sys.B)
    a_t = np.linalg.solve(m, a)
    b_e = m @ (linalg.expm(a_t * w.t_e) @ np.linalg.solve(m, b))
    p = g.z @ g.z.T
    num = np.linalg.norm(a @ p @ m.T + m @ p @ a.T + b @ b.T - b_e @ b_e.T, 2)
    den = np.linalg.norm(b @ b.T - b_e @ b_e.T, 2)
    assert num / den <= 100 * cfg.tol_p


@pytest.mark.parametrize("side", ["reachability", "observability"])
@pytest.mark.parametrize("mode", ["bt", "tlbt"])
def test_sparse_standard_complex_shifts_match_dense(mode, side, monkeypatch):
    s = convection_diffusion(20)
    window = TimeWindow(t_e=0.01)
    picks = _picks(monkeypatch)
    g = mode_gramian(s, mode, window, side=side)
    assert any(isinstance(sh, complex) for sh in g.workspace.shifts)
    _assert_picks_equal_broadcast(picks)
    p = mode_gramian(s, mode, window, side=side, method="dense")
    assert np.linalg.norm(g.z @ g.z.T - p, 2) <= 1e-6 * np.linalg.norm(p, 2)


def test_modified_lowrank_nsd_rhs_equals_unmodified(rng):
    # B along an eigenvector of symmetric A: the time-limited RHS is
    # exactly negative semidefinite, |lambda| = lambda, same equation
    n = 12
    w0 = rng.standard_normal((n, n))
    a = -(w0 @ w0.T) / n - 0.5 * np.eye(n)
    vecs = np.linalg.eigh(a)[1]
    b = vecs[:, [-1]]
    s = StandardSystem(a, b, rng.standard_normal((1, n)))
    w = TimeWindow(t_e=1.0)
    g_t = solve_timelimited_lowrank(s, w)
    g_m = solve_modified_lowrank(s, w)
    pt, pm = g_t.z @ g_t.z.T, g_m.z @ g_m.z.T
    assert np.linalg.norm(pt - pm, 2) <= 1e-8 * np.linalg.norm(pt, 2)


def test_modified_lowrank_matches_dense(rng):
    s = make_synthetic("random_stable", 50, 2, 1, seed=16)
    w = TimeWindow(t_e=2.0)
    g = solve_modified_lowrank(s, w)
    b_e = linalg.expm(s.A * w.t_e) @ s.B
    p_ref = linalg.lyap_dense(s.A, _abs_sym(s.B @ s.B.T - b_e @ b_e.T))
    assert np.linalg.norm(g.z @ g.z.T - p_ref, 2) <= 1e-6 * np.linalg.norm(p_ref, 2)


def test_modified_rank_tracks_infinite(rng):
    s = make_synthetic("weakly_damped", 80, 1, 1, seed=4)
    w = TimeWindow(t_e=3.0)
    p_inf = mode_gramian(s, "bt", method="dense")
    p_mod = mode_gramian(s, "mtlbt", w, method="dense")
    r_inf = numerical_rank(p_inf, 1e-12)
    r_mod = numerical_rank(p_mod, 1e-12)
    assert abs(r_mod - r_inf) <= 0.1 * r_inf + 1


def test_unstable_system_refused_for_krylov():
    s = StandardSystem(np.diag([0.1, -1.0]), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(UnstableSystemError, match="spectral abscissa"):
        solve_timelimited_lowrank(s, TimeWindow(t_e=1.0))


def test_max_dim_exceeded():
    s = make_synthetic("weakly_damped", 60, 1, 1, seed=5)
    with pytest.raises(MaxDimExceededError):
        solve_timelimited_lowrank(
            s, TimeWindow(t_e=5.0), SolverConfig(tol_f=1e-12, tol_p=1e-12, max_dim=6)
        )


def test_max_dim_between_checks_keeps_expm_gate():
    # checks fall at d = 6 and 12; the cap d = 8 comes between them with mu
    # about 0.92 < tol_p, but exp(At)B is still changing, so no convergence
    s = make_synthetic("weakly_damped", 60, 1, 1, seed=5)
    with pytest.raises(MaxDimExceededError, match=r"dim 8,"):
        solve_timelimited_lowrank(
            s, TimeWindow(t_e=5.0), SolverConfig(tol_f=1e-12, tol_p=0.95, max_dim=8)
        )


def test_ordering_invariant_p_inf_dominates(rng):
    for seed in (1, 2, 3):
        s = make_synthetic("random_stable", 25, 1, 1, seed=seed)
        p_inf = mode_gramian(s, "bt", method="dense")
        p_t = mode_gramian(s, "tlbt", TimeWindow(t_e=1.0), method="dense")
        lam1 = np.linalg.eigvalsh(p_inf).max()
        assert np.linalg.eigvalsh(p_inf - p_t).min() >= -1e-10 * lam1
        assert np.linalg.eigvalsh(p_t).max() <= lam1 * (1 + 1e-10)


def test_workspace_invariants_after_solve():
    s = make_synthetic("random_stable", 30, 2, 1, seed=21)
    g = solve_timelimited_lowrank(s, TimeWindow(t_e=1.5))
    ws = g.workspace
    d = ws.dim
    assert np.linalg.norm(ws.q.T @ ws.q - np.eye(d)) <= 1e-10
    # starting block: range(B) inside range(Q), b_proj = [beta; 0]
    proj = ws.q @ (ws.q.T @ s.B)
    assert np.linalg.norm(proj - s.B) <= 1e-12 * np.linalg.norm(s.B)
    assert np.linalg.norm(ws.b_proj[s.m:, :]) <= 1e-12 * np.linalg.norm(ws.b_proj)
    assert ws.shifts[0] == np.inf
    assert g.rank <= g.subspace_dim <= 600


def test_decay_invariant_gap_shrinks_with_bound():
    s = make_synthetic("weakly_damped", 30, 1, 1, seed=6)
    d = diagonalize(s)
    p_inf = mode_gramian(s, "bt", method="dense")
    abscissa = np.max(d.eigenvalues.real)
    cauchy = -1.0 / (d.eigenvalues[:, None] + np.conj(d.eigenvalues)[None, :])
    bound_const = (
        np.linalg.norm(d.X, 2) ** 2
        * np.max(np.abs(d.w)) ** 2
        * np.linalg.norm(cauchy, 2)
    )
    t_half = np.log(2.0) / abs(abscissa)
    gaps = []
    for factor in (0.5, 1.0, 2.0, 4.0, 8.0):
        t_e = factor * t_half
        p_t = mode_gramian(s, "tlbt", TimeWindow(t_e=t_e), method="dense")
        gap = np.linalg.norm(p_inf - p_t, 2)
        gaps.append(gap)
        assert gap <= np.exp(2 * abscissa * t_e) * bound_const * (1 + 1e-8)
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_singular_shift_retried_at_perturbed_pole(monkeypatch):
    # a shift on an eigenvalue is retried once at a perturbed pole, which the
    # workspace records in its place; the solve still converges
    real, calls = tlbt.gramians.shifted_solve, []

    def spy(sys, s, w):
        calls.append(s)
        if len(calls) == 1:
            raise SingularShiftError("shift is numerically an eigenvalue")
        return real(sys, s, w)

    monkeypatch.setattr(tlbt.gramians, "shifted_solve", spy)
    g = solve_infinite_lowrank(make_synthetic("heat_like", 300, 2, 2, seed=1))
    first = complex(calls[0])
    perturbed = _perturbed(first, max(abs(first), 1.0))
    assert calls[1] == perturbed
    assert complex(g.workspace.shifts[1]) == perturbed
    assert g.stop == "converged" and g.residual <= 1e-8


def _fail_once(monkeypatch, name, exc, at):
    """Make ``linalg.<name>`` raise ``exc`` on its ``at``-th call (counted from 1) only."""
    real, calls = getattr(linalg, name), []

    def spy(*args, **kwargs):
        calls.append(1)
        if len(calls) == at:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, name, spy)
    return calls


def test_check_with_overflowing_window_end_is_unconverged(monkeypatch):
    # the second check's window end overflows: that check records f_change
    # and mu as inf, and the next check, compared with the first, goes on
    s = make_synthetic("random_stable", 60, 2, 2, seed=1)
    calls = _fail_once(monkeypatch, "expm", OverflowRangeError("expm out of range"), at=2)
    g = solve_timelimited_lowrank(s, TimeWindow(t_e=2.0))
    assert len(calls) == len(g.trace) >= 3
    assert g.trace[1]["f_change"] == g.trace[1]["mu"] == np.inf
    assert np.isfinite(g.trace[2]["f_change"])
    assert g.stop == "converged" and g.residual <= 1e-8


def test_check_with_spectrum_conflict_is_unconverged(monkeypatch):
    # the first check's projected equation is singular: that check records
    # mu = inf (its bt gate has nothing to compare, f_change 0), and the
    # solve converges at a later check
    s = make_synthetic("random_stable", 60, 2, 2, seed=1)
    _fail_once(monkeypatch, "lyap_dense", SpectrumConflictError("Lambda(H) meets Lambda(-H)"),
               at=1)
    g = solve_infinite_lowrank(s)
    assert g.trace[0]["f_change"] == 0.0 and g.trace[0]["mu"] == np.inf
    assert len(g.trace) >= 2 and g.stop == "converged" and g.residual <= 1e-8


def test_stagnant_basis_raises_no_convergence(monkeypatch):
    # shifted solves that return a block already in the basis end the solve
    # after three attempts, naming the dimension it stagnated at
    monkeypatch.setattr(tlbt.gramians, "shifted_solve", lambda sys, s, w: np.array(w))
    with pytest.raises(NoConvergenceError, match="stagnated at dim 2 "):
        solve_infinite_lowrank(make_synthetic("weakly_damped", 40, 2, 2, seed=1))


@pytest.mark.parametrize(
    "solve", [solve_infinite_lowrank, solve_timelimited_lowrank, solve_modified_lowrank]
)
def test_unstable_system_refused_by_every_solver(solve):
    s = StandardSystem(np.diag([0.1, -1.0]), np.ones((2, 1)), np.ones((1, 2)))
    args = (s,) if solve is solve_infinite_lowrank else (s, TimeWindow(t_e=1.0))
    with pytest.raises(UnstableSystemError, match="spectral abscissa"):
        solve(*args)


def test_dense_standard_stability_verified_above_dense_threshold(monkeypatch):
    # the Schur form that serves the shifted solves also gives the verdict,
    # so a dense standard system is verified at any size
    monkeypatch.setattr(tlbt.systems, "_DENSE_MAX", 10)
    s = make_synthetic("random_stable", 40, 2, 2, seed=1)
    unstable = alpha_shift(s, spectral_abscissa(s) - 0.5)
    with pytest.raises(UnstableSystemError, match="spectral abscissa"):
        solve_infinite_lowrank(unstable)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_infinite_lowrank(s)
    assert not [w for w in caught if "unverified" in str(w.message)]


def test_second_reduce_computes_no_spectrum(monkeypatch):
    # the spectral abscissa is cached on the system: the n x n eigenvalue
    # problem of M^{-1} A is solved by the first reduce only
    n, sizes = 200, []

    def spy(a, *args, real=linalg.gen_eig, **kwargs):
        sizes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "gen_eig", spy)
    s = make_synthetic("heat_like", n, 2, 2, seed=1)
    reduce(s, "bt", r=4)
    assert sizes.count((n, n)) == 1
    sizes.clear()
    reduce(s, "bt", r=4)
    assert (n, n) not in sizes


def test_unstable_system_refused_by_reduce_and_balance():
    s = StandardSystem(np.diag([0.1, -1.0]), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(UnstableSystemError, match="spectral abscissa"):
        reduce(s, "bt", r=1)
    for mode in ("tlbt", "bt"):
        with pytest.raises(UnstableSystemError, match="spectral abscissa"):
            balance(s, mode, TimeWindow(t_e=1.0))


# ---------------------------------------------------------------------------
# the in-place rational Arnoldi kernel


def _stop_check_oracle(sys, g, mode, window, side):
    """Explicit factored residual at the check where the solve stopped."""
    ws = g.workspace
    if mode == "bt":
        rhs = [(ws.b_proj, +1)]
    else:
        b_s, b_e = (linalg.expm(ws.h * t) @ ws.b_proj for t in (window.t_s, window.t_e))
        rhs = [(b_s, +1), (b_e, -1)]
    w = sum(sign * (f @ f.T) for f, sign in rhs)
    if mode == "mtlbt":  # the surrogate, with the solver's 1e-12 eigenvalue cutoff
        lam, v = np.linalg.eigh(w)
        keep = np.abs(lam) > 1e-12 * np.max(np.abs(lam))
        rhs = [(v[:, keep] * np.sqrt(np.abs(lam[keep])), +1)]
        w = rhs[0][0] @ rhs[0][0].T
    y = linalg.lyap_dense(ws.h, w)
    return residual_norm(_reach_form(sys, side), ws, y, rhs)


def _weakly_damped_60():
    return make_synthetic("weakly_damped", 60, 2, 2, seed=1)


# case: (system, mode, window). On heat_like (||H|| ~ 1e5) the tol_f gate stops
# the windowed solve at mu ~ 1e-11, where the projected equation's own
# Bartels-Stewart residual is of that size too: mu bounds that term as well.
MU_CASES = {
    "weakly_damped_bt": (_weakly_damped_60, "bt", None),
    "weakly_damped_tlbt": (_weakly_damped_60, "tlbt", TimeWindow(t_e=5.0, t_s=1.0)),
    "weakly_damped_mtlbt": (_weakly_damped_60, "mtlbt", TimeWindow(t_e=5.0, t_s=1.0)),
    "heat_like_spd_mass": (_heat, "bt", None),
    "heat_like_mtlbt": (_heat, "mtlbt", TimeWindow(t_e=0.05, t_s=0.01)),
    "descriptor": (lambda: random_descriptor(40, 10, 2, 2, seed=3), "bt", None),
    "weakly_damped_full_space": (
        lambda: make_synthetic("weakly_damped", 40, 2, 2, seed=1), "bt", None
    ),
}


@pytest.mark.parametrize("side", ["reachability", "observability"])
@pytest.mark.parametrize("tol_p", [1e-2, 1e-5, 1e-8])
@pytest.mark.parametrize("case", sorted(MU_CASES))
def test_arnoldi_residual_matches_explicit_oracle(case, tol_p, side):
    # mu from the rational Arnoldi relation bounds the explicit factored
    # residual of the same Y from above, and tightly, at the check where the
    # solve stops
    make, mode, window = MU_CASES[case]
    s = make()
    g = mode_gramian(s, mode, window, SolverConfig(tol_p=tol_p), side)
    if case == "weakly_damped_full_space":
        assert g.stop == "exact_space" and g.subspace_dim == 40
    oracle = _stop_check_oracle(s, g, mode, window, side)
    assert oracle * (1 - 1e-8) <= g.residual <= 2 * oracle + 1e-13, (g.residual, oracle)


def _fresh_projection(sys, side, q):
    """Q^T M^{-1} A Q computed from scratch."""
    r = _reach_form(sys, side)
    aq = r.A @ q
    if hasattr(r, "M"):
        aq = spla.splu(r.M.tocsc()).solve(aq)
    return q.T @ aq


@pytest.mark.parametrize(
    "kind, n, side",
    [
        ("weakly_damped", 200, "reachability"),
        ("weakly_damped", 200, "observability"),
        ("heat_like", 2000, "reachability"),
    ],
)
def test_inplace_kernel_keeps_basis_and_projection(kind, n, side):
    s = make_synthetic(kind, n, 2, 2, seed=1)
    # a dense standard system is verified at any size, heat_like n=2000 is not
    unverified = pytest.warns(UserWarning, match="unverified")
    with unverified if kind == "heat_like" else contextlib.nullcontext():
        g = solve_infinite_lowrank(s, SolverConfig(tol_f=1e-8, tol_p=1e-8), side)
    ws = g.workspace
    if kind == "weakly_damped":  # d reaches n through complex shifts
        assert g.subspace_dim == n and any(isinstance(sh, complex) for sh in ws.shifts)
    assert ws.q.shape == (n, g.subspace_dim) and ws.h.shape == (g.subspace_dim,) * 2
    assert np.linalg.norm(ws.q.T @ ws.q - np.eye(ws.dim)) <= 1e-10
    assert not np.any(ws.b_proj[2:])
    fresh = _fresh_projection(s, side, ws.q)
    assert np.linalg.norm(ws.h - fresh) <= 1e-12 * np.linalg.norm(fresh)
