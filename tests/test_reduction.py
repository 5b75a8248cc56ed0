import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import banded_descriptor, random_descriptor, random_stable_matrix
from oracles import numerical_rank, similarity_transform, transfer_at
from tlbt import gramians, linalg, reduction, simulate, systems
from tlbt.errors import RankDeficientError
from tlbt.gramians import TimeWindow, factor_psd, mode_gramian
from tlbt.reduction import balance, reduce, square_root_reduce
from tlbt.synthetic import make_synthetic
from tlbt.systems import StandardSystem

SCALAR = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))


def exact_factors(sys, window=None):
    if window is None:
        p = mode_gramian(sys, "bt", method="dense")
        q = mode_gramian(sys, "bt", side="observability", method="dense")
    else:
        p = mode_gramian(sys, "tlbt", window, method="dense")
        q = mode_gramian(sys, "tlbt", window, side="observability", method="dense")
    return factor_psd(p), factor_psd(q)


def test_square_root_scalar_hand_balanced():
    z = np.array([[np.sqrt(0.5)]])
    rom = square_root_reduce(SCALAR, z, z, 1)
    assert abs(rom.A[0, 0] + 1.0) < 1e-12
    assert abs(rom.B[0, 0] * rom.C[0, 0] - 1.0) < 1e-12
    assert abs(rom.hsv[0] - 0.5) < 1e-12
    assert rom.stable


def test_square_root_decoupled_keeps_dominant():
    # modes -1 and -10 with unit coupling: sigma = (1/2, 1/20); the kept
    # one-state model must match the dominant mode's DC gain 1.0, and
    # beat the alternative truncation (DC 0.1) by the 2*sigma_2 bound
    s = StandardSystem(np.diag([-1.0, -10.0]), np.ones((2, 1)), np.ones((1, 2)))
    z_p, z_q = exact_factors(s)
    rom = square_root_reduce(s, z_p, z_q, 1)
    dc = transfer_at(rom, 0j)[0, 0].real
    candidates = {1.0: abs(dc - 1.0), 0.1: abs(dc - 0.1)}
    assert candidates[1.0] < candidates[0.1]
    assert abs(dc - 1.0) <= 2 * rom.hsv.min() + 1e-9


def test_square_root_full_order_preserves_transfer(rng):
    s = make_synthetic("random_stable", 8, 2, 2, seed=1)
    z_p, z_q = exact_factors(s)
    r = min(z_p.shape[1], z_q.shape[1])
    rom = square_root_reduce(s, z_p, z_q, r)
    for w in np.geomspace(0.01, 100, 10):
        h = transfer_at(s, 1j * w)
        h_r = transfer_at(rom, 1j * w)
        assert np.linalg.norm(h - h_r) <= 1e-9 * max(np.linalg.norm(h), 1e-30)


def test_square_root_rank_deficient():
    z = np.array([[np.sqrt(0.5)]])
    with pytest.raises(RankDeficientError):
        square_root_reduce(SCALAR, z, z, 2)


def test_square_root_refuses_a_numerically_zero_sigma():
    # sigma_2 = 1e-16 sigma_1 is in range but numerically zero
    s = StandardSystem(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
    with pytest.raises(RankDeficientError, match="sigma_2 = 1.000e-16 is numerically zero"):
        square_root_reduce(s, np.diag([1.0, 1e-16]), np.eye(2), 2)


def test_factor_psd_refuses_a_non_symmetric_matrix():
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        factor_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_square_root_tie_warning():
    s = StandardSystem(np.diag([-1.0, -1.0]), np.eye(2), np.eye(2))
    z_p, z_q = exact_factors(s)
    with pytest.warns(UserWarning, match="tie"):
        square_root_reduce(s, z_p, z_q, 1)


def test_reduce_bt_scalar_dispatch():
    rom = reduce(SCALAR, "bt", r=1)
    assert abs(rom.A[0, 0] + 1.0) < 1e-8
    assert rom.mode == "bt"


def test_reduce_tlbt_long_horizon_matches_bt():
    s = make_synthetic("random_stable", 20, 1, 1, seed=2)
    rom_bt = reduce(s, "bt", r=5)
    rom_tl = reduce(s, "tlbt", window=TimeWindow(t_e=80.0), r=5)
    for w in np.geomspace(0.01, 10, 8):
        h_b = transfer_at(rom_bt, 1j * w)
        h_t = transfer_at(rom_tl, 1j * w)
        assert np.linalg.norm(h_b - h_t) <= 1e-6 * max(np.linalg.norm(h_b), 1e-30)


def test_reduce_mtlbt_stable_on_random_suite():
    for seed in range(10):
        s = make_synthetic("random_stable", 20, 1, 1, seed=seed)
        rom = reduce(s, "mtlbt", window=TimeWindow(t_e=1.0), r=4)
        assert rom.stable


def test_reduce_tolerance_based_order():
    s = make_synthetic("random_stable", 20, 1, 1, seed=3)
    rom = reduce(s, "bt", tol=1e-6)
    sig = rom.info["hsv_all"]
    assert 2 * sig[rom.order:].sum() <= 1e-6
    if rom.order > 1:
        assert 2 * sig[rom.order - 1 :].sum() > 1e-6


def test_reduce_needs_an_order_or_a_tolerance():
    with pytest.raises(ValueError, match="either r or tol must be given"):
        reduce(SCALAR, "bt")


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan])
def test_reduce_rejects_tolerance_that_is_not_positive(tol):
    # such a tol used to select order 1 without a word
    s = make_synthetic("heat_like", 60, 2, 2, seed=1)
    with pytest.raises(ValueError, match="tol must be positive"):
        reduce(s, "bt", tol=tol)


def test_reduce_dense_method_matches_krylov():
    s = make_synthetic("random_stable", 30, 1, 1, seed=4)
    w = TimeWindow(t_e=2.0)
    rom_k = reduce(s, "tlbt", window=w, r=5, method="krylov")
    rom_d = reduce(s, "tlbt", window=w, r=5, method="dense")
    for om in (0.0, 1.0, 10.0):
        assert np.linalg.norm(
            transfer_at(rom_k, 1j * om) - transfer_at(rom_d, 1j * om)
        ) <= 1e-6 * max(np.linalg.norm(transfer_at(rom_d, 1j * om)), 1e-30)


def test_biorthogonality_all_modes():
    g = make_synthetic("heat_like", 30, 2, 2, seed=5)
    m = g.M.toarray()
    w = TimeWindow(t_e=1.0)
    for mode in ("bt", "tlbt", "mtlbt"):
        rom = reduce(g, mode, window=w, r=4)
        gram = rom.S.T @ m @ rom.T
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-8


def test_hankel_scalar():
    hsv = balance(SCALAR, "bt", method="dense").hsv
    assert abs(hsv[0] - 0.5) < 1e-14


def test_hankel_zero_factor():
    # no input reaches the state: the reachability factor is zero
    s = StandardSystem(random_stable_matrix(4, np.random.default_rng(0)), np.zeros((4, 2)),
                       np.ones((3, 4)))
    hsv = balance(s, "bt", method="dense").hsv
    assert np.allclose(hsv, 0.0)
    assert hsv.size == 0  # a zero Gramian leaves no factor column


def test_hankel_matches_product_eigenvalues(rng):
    s = make_synthetic("random_stable", 15, 2, 2, seed=6)
    w = TimeWindow(t_e=2.0)
    p = mode_gramian(s, "tlbt", w, method="dense")
    q = mode_gramian(s, "tlbt", w, side="observability", method="dense")
    sig = balance(s, "tlbt", w, method="dense").hsv
    lam = np.sort(np.linalg.eigvals(p @ q).real)[::-1]
    lam = np.sqrt(np.clip(lam, 0.0, None))
    # sqrt(eig(P Q)) in double precision carries errors near sqrt(eps) sigma_1, so
    # it is a reference only above 1e-6 sigma_1; both sides must agree on that cut
    k = np.count_nonzero(lam >= 1e-6 * lam[0])
    assert np.count_nonzero(sig >= 1e-6 * lam[0]) == k
    assert np.linalg.norm(sig[:k] - lam[:k]) <= 1e-8 * lam[0]


def test_hankel_invariance_under_similarity(rng):
    s = make_synthetic("random_stable", 20, 1, 1, seed=7)
    w = TimeWindow(t_e=1.5)
    sig0 = balance(s, "tlbt", w, method="dense").hsv
    t = rng.standard_normal((20, 20)) + 4 * np.eye(20)
    sig1 = balance(similarity_transform(s, t), "tlbt", w, method="dense").hsv
    k = min(sig0.size, sig1.size)
    assert np.max(np.abs(sig0[:k] - sig1[:k])) <= 1e-8 * sig0[0]


def test_transfer_scalar_dc():
    assert abs(transfer_at(SCALAR, 0j)[0, 0] - 1.0) < 1e-14


def test_transfer_high_frequency_rolloff():
    h = transfer_at(SCALAR, 1j * 1e6)
    assert np.abs(h[0, 0]) <= 1.1e-6


def test_transfer_feedthrough_only():
    d = np.array([[2.0, 1.0]])
    s = StandardSystem(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), D=d)
    assert np.allclose(transfer_at(s, 1j * 3.0), d)


def test_sampled_hinf_bound_exact_factors(rng):
    s = make_synthetic("random_stable", 24, 2, 2, seed=8)
    z_p, z_q = exact_factors(s)
    sig = balance(s, "bt", method="dense").hsv
    for r in (2, 6):
        rom = square_root_reduce(s, z_p, z_q, r)
        bound = 2 * sig[r:].sum() + 1e-9 * sig[0]
        worst = max(
            np.linalg.norm(transfer_at(s, 1j * w) - transfer_at(rom, 1j * w), 2)
            for w in np.logspace(-2, 3, 200)
        )
        assert worst <= bound


def test_numerical_rank_identity():
    assert numerical_rank(np.eye(7), 0.5) == 7


def test_numerical_rank_tiny_tail():
    assert numerical_rank(np.diag([1.0, 1e-9]), 1e-6) == 1


def test_numerical_rank_timelimited_smaller(rng):
    s = make_synthetic("weakly_damped", 60, 1, 1, seed=9)
    p_inf = mode_gramian(s, "bt", method="dense")
    p_t = mode_gramian(s, "tlbt", TimeWindow(t_e=2.0), method="dense")
    assert numerical_rank(p_t, 1e-12) < numerical_rank(p_inf, 1e-12)


def test_stability_flag_marginal_counts_unstable():
    z = np.array([[1.0]])
    rom = square_root_reduce(
        StandardSystem(np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])), z, z, 1
    )
    assert not rom.stable


# ---------------------------------------------------------------------------
# derived data is built once per system


def _calls(monkeypatch, module, name):
    """Argument tuples of the calls to ``module.name`` from now on, through any binding."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (module, gramians, reduction, simulate, systems):
        if vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


MODES = ("bt", "tlbt", "mtlbt")


def _assert_bit_identical(balancings, fresh):
    for bal, ref in zip(balancings, fresh, strict=True):
        for key in ("z_p", "z_q", "u", "hsv", "v"):
            assert np.array_equal(getattr(bal, key), getattr(ref, key)), (bal.mode, key)


def test_descriptor_balance_builds_each_side_once(monkeypatch):
    # the dual is cached, so its block pencil and its A4 and M1 LUs are built
    # once, not once per mode; the results are those of fresh systems
    window = TimeWindow(t_e=1.0)
    fresh = [balance(random_descriptor(40, 10, 2, 2, seed=3), mode, window) for mode in MODES]
    factored = _calls(monkeypatch, systems, "_factor")
    assemblies = _calls(monkeypatch, sp, "bmat")
    s = random_descriptor(40, 10, 2, 2, seed=3)
    _assert_bit_identical([balance(s, mode, window) for mode in MODES], fresh)
    shapes = [np.shape(args[0]) for args in factored]
    assert len(assemblies) == 2 * 2  # M and A of the primal's and the dual's pencil
    assert shapes.count((10, 10)) == 2  # A4 and A4^T
    assert shapes.count((40, 40)) == 2  # M1 and M1^T


def test_large_descriptor_balanced_and_simulated_on_its_pencil():
    # n_f = 4000: balancing, truncation and simulation act on the block pencil
    # (a dense n_f x n_f float64 array would be 128 MB); the projection's
    # transfer function is checked against the block pencil's within the bt bound
    nf, r = 4000, 10
    d = banded_descriptor(nf, 400, 2, 2, seed=1)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="unverified"):
            bal = balance(d, "bt")
        rom = bal.truncate(r)
        traj = simulate.impulse_response(d, dt=2.5e-4, t_f=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * nf * nf / 4
    assert rom.stable and np.all(np.isfinite(traj.outputs))
    bound = 2.0 * bal.hsv[r:].sum()
    for s in 1j * np.geomspace(1e-2, 1e6, 9):
        assert np.linalg.norm(transfer_at(d, s) - transfer_at(rom, s), 2) <= bound


def test_dense_balance_solves_each_pencil_once(monkeypatch):
    # the dense M^{-1} A is solved once for the system and once for its dual
    window = TimeWindow(t_e=0.05)
    fresh = [balance(make_synthetic("heat_like", 60, 2, 2, seed=1), mode, window, method="dense")
             for mode in MODES]
    solves = _calls(monkeypatch, np.linalg, "solve")
    s = make_synthetic("heat_like", 60, 2, 2, seed=1)
    _assert_bit_identical([balance(s, mode, window, method="dense") for mode in MODES], fresh)
    assert [np.shape(b) for _, b in solves].count((60, 60)) == 2


def test_generalized_balance_factors_mass_once_per_side(monkeypatch):
    window = TimeWindow(t_e=0.05)
    s = make_synthetic("heat_like", 60, 2, 2, seed=1)
    fresh = [balance(make_synthetic("heat_like", 60, 2, 2, seed=1), mode, window)
             for mode in MODES]
    factored = _calls(monkeypatch, systems, "_factor")
    _assert_bit_identical([balance(s, mode, window) for mode in MODES], fresh)
    masses = [a for a, *_ in factored if a.shape == s.M.shape and abs(a - s.M).max() == 0]
    assert len(masses) == 2  # M and M^T (equal: heat_like's M is symmetric)


def _arrays(result):
    """The arrays of a solver's result, for a bit-for-bit comparison."""
    if isinstance(result, reduction.Balancing):
        return [result.z_p, result.z_q, result.u, result.hsv, result.v]
    if isinstance(result, reduction.ReducedModel):
        return [result.A, result.B, result.C, result.D, result.T, result.S, result.hsv]
    return [np.asarray(result)]


_ON_A_SYSTEM = {
    "balance": lambda s: balance(s, "tlbt", TimeWindow(t_e=2.0)),
    "reduce": lambda s: reduce(s, "bt", r=3),
    "mode_gramian-dense": lambda s: mode_gramian(s, "mtlbt", TimeWindow(t_e=2.0), method="dense"),
    "spectral_abscissa": systems.spectral_abscissa,
    "half_decay_time": simulate.half_decay_time,
    "shifted_solve": lambda s: systems.shifted_solve(s, 1.0 - 0.5j, s.B),
}


@pytest.mark.parametrize("call", sorted(_ON_A_SYSTEM))
def test_reduced_model_is_a_system(call):
    # a reduced model is a standard system: every entry point takes it and
    # answers as it answers for the plain system with the same matrices
    rom = reduce(make_synthetic("weakly_damped", 40, 2, 2, seed=1), "bt", r=6)
    assert isinstance(rom, StandardSystem) and type(rom.to_system()) is StandardSystem
    got, ref = (_ON_A_SYSTEM[call](s) for s in (rom, rom.to_system()))
    for a, b in zip(_arrays(got), _arrays(ref), strict=True):
        assert np.array_equal(a, b)


def test_reduced_model_is_checked_like_a_system():
    rom = reduce(make_synthetic("weakly_damped", 20, 2, 2, seed=1), "bt", r=4)
    bad = rom.A.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="A contains non-finite entries"):
        dataclasses.replace(rom, A=bad)
    with pytest.raises(ValueError, match="B/C dimensions inconsistent with A"):
        dataclasses.replace(rom, B=rom.B[:2])
