"""Acceptance gate: runs every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them
live). Criteria cover: dense Gramian identities, the eigencoordinate
oracle, low-rank/dense agreement at the published tolerances, ordering
and decay of the windowed Gramians, reduction accuracy and stability of
the variants, the balanced-truncation error bound, invariance of the
Hankel values, integrator order, windowed reduction with nonzero start
time, the descriptor solve path, and CLI determinism.
"""

import time
from pathlib import Path

import numpy as np

from conftest import random_descriptor
from oracles import (
    diagonalize,
    eliminate_descriptor,
    gramian_timelimited_cauchy,
    gramian_timelimited_difference,
    numerical_rank,
    similarity_transform,
    transfer_at,
)
from tlbt import linalg
from tlbt.cli import main
from tlbt.gramians import (
    SolverConfig,
    TimeWindow,
    factor_psd,
    mode_gramian,
    solve_modified_lowrank,
    solve_timelimited_lowrank,
)
from tlbt.reduction import balance, reduce, square_root_reduce
from tlbt.simulate import half_decay_time, impulse_response, implicit_midpoint, relative_error_series
from tlbt.synthetic import make_synthetic
from tlbt.systems import StandardSystem, shifted_solve


def _verdict(name, ok, detail=""):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_a1_gramian_identity_two_routes():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(100)
    for trial in range(20):
        n = int(rng.integers(5, 61))
        s = make_synthetic("random_stable", n, 1, 1, seed=trial)
        t_e = float(rng.uniform(0.5, 4.0))
        t_s = float(rng.uniform(0.0, 0.3 * t_e))
        w = TimeWindow(t_e=t_e, t_s=t_s)
        pa = gramian_timelimited_difference(s, w)
        pb = mode_gramian(s, "tlbt", w, method="dense")
        worst = max(worst, np.linalg.norm(pa - pb, 2) / np.linalg.norm(pa, 2))
    elapsed = time.perf_counter() - t0
    _verdict(
        "A1 Gramian identity (Lyapunov equation against the difference identity)",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst rel diff {worst:.2e}, {elapsed:.1f}s for 20 systems",
    )


def test_a2_cauchy_oracle():
    worst = 0.0
    for kind, n, seed, t_e in [
        ("weakly_damped", 50, 8, 2.0),
        ("weakly_damped", 30, 2, 8.0),
        ("random_stable", 40, 5, 1.5),
    ]:
        s = make_synthetic(kind, n, 1, 1, seed=seed)
        p_c = gramian_timelimited_cauchy(diagonalize(s), t_e)
        p_d = mode_gramian(s, "tlbt", TimeWindow(t_e=t_e), method="dense")
        worst = max(worst, np.linalg.norm(p_c - p_d, 2) / np.linalg.norm(p_d, 2))
    _verdict("A2 Cauchy-factorization oracle", worst <= 1e-8, f"worst rel diff {worst:.2e}")


def test_a3_lowrank_vs_dense_published_tolerances():
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    details = []
    ok = True
    for m in (1, 3):
        s = make_synthetic("random_stable", 100, m, m, seed=20 + m)
        w = TimeWindow(t_e=3.0)
        t0 = time.perf_counter()
        g = solve_timelimited_lowrank(s, w, cfg)
        elapsed = time.perf_counter() - t0
        p = mode_gramian(s, "tlbt", w, method="dense")
        rel = np.linalg.norm(g.z @ g.z.T - p, 2) / np.linalg.norm(p, 2)
        # independent dense residual recomputation
        ws = g.workspace
        ge = ws.q @ (linalg.expm(ws.h * w.t_e) @ ws.b_proj)
        x = g.z @ g.z.T
        num = np.linalg.norm(s.A @ x + x @ s.A.T + s.B @ s.B.T - ge @ ge.T, 2)
        den = np.linalg.norm(s.B @ s.B.T - ge @ ge.T, 2)
        mu_gap = abs(g.residual - num / den)
        ok &= rel <= 1e-6 and g.residual <= 1e-8 and mu_gap <= 1e-10 and elapsed < 30.0
        ok &= g.subspace_dim < s.n
        details.append(
            f"m={m}: d {g.subspace_dim}/{s.n}, rel {rel:.2e}, mu {g.residual:.2e}, "
            f"mu gap {mu_gap:.2e}, {elapsed:.1f}s"
        )
    _verdict("A3 low-rank vs dense (tau=1e-8)", ok, "; ".join(details))


def test_a4_ordering_and_decay():
    s = make_synthetic("weakly_damped", 100, 1, 1, seed=7)
    p_inf = mode_gramian(s, "bt", method="dense")
    lam1 = np.linalg.eigvalsh(p_inf).max()
    t_half = half_decay_time(s)
    gaps = []
    ordering_ok = True
    for factor in (0.5, 1.0, 2.0, 4.0, 8.0):
        w = TimeWindow(t_e=factor * t_half)
        p_t = mode_gramian(s, "tlbt", w, method="dense")
        ordering_ok &= np.linalg.eigvalsh(p_inf - p_t).min() >= -1e-10 * lam1
        gaps.append(np.linalg.norm(p_inf - p_t, 2))
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    p_small = mode_gramian(s, "tlbt", TimeWindow(t_e=0.5 * t_half), method="dense")
    rank_drop = numerical_rank(p_small, 1e-12) < numerical_rank(p_inf, 1e-12)
    _verdict(
        "A4 ordering and decay of windowed Gramians",
        ordering_ok and decreasing and rank_drop,
        f"gaps {['%.3e' % g for g in gaps]}, ranks {numerical_rank(p_small, 1e-12)}"
        f"<{numerical_rank(p_inf, 1e-12)}",
    )


def test_a5_reduction_accuracy_weakly_damped():
    t0 = time.perf_counter()
    s = make_synthetic("weakly_damped", 200, 2, 2, seed=1)
    t_half = half_decay_time(s)
    w = TimeWindow(t_e=t_half)
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    r = 20  # sigma_r/sigma_1 ~ 1e-2..1e-3: mid-range of the decay
    errs = {}
    stab = {}
    dt = t_half / 3000
    ref = impulse_response(s, dt=dt, t_f=t_half)
    for mode in ("bt", "tlbt", "mtlbt"):
        rom = reduce(s, mode, window=w, r=r, cfg=cfg)
        red = impulse_response(rom, dt=dt, t_f=t_half)
        _, errs[mode] = relative_error_series(ref, red, w)
        stab[mode] = rom.stable
    elapsed = time.perf_counter() - t0
    ok = (
        errs["tlbt"] <= errs["bt"] / 2.0
        and errs["mtlbt"] <= 3.0 * errs["bt"]
        and elapsed < 120.0
    )
    _verdict(
        "A5 windowed reduction accuracy (n=200)",
        ok,
        f"E_T bt {errs['bt']:.2e}, tlbt {errs['tlbt']:.2e}, mtlbt {errs['mtlbt']:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_a6_stability_preservation():
    # modified variant: stable on 50/50 random stable systems
    stable_count = 0
    for seed in range(50):
        s = make_synthetic("random_stable", 14, 1, 1, seed=seed)
        rom = reduce(s, "mtlbt", window=TimeWindow(t_e=1.0), r=3)
        stable_count += int(rom.stable)
    # unmodified variant with a negative semidefinite inhomogeneity:
    # B, C span an eigenvector subspace of a symmetric A, so
    # B B^T - B_e B_e^T = sum (1 - e^{2 lambda_i t_e}) v_i v_i^T >= 0
    nsd_ok = True
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = 12
        g = rng.standard_normal((n, n))
        a = -(g @ g.T) / n - 0.5 * np.eye(n)
        vecs = np.linalg.eigh(a)[1]
        span = vecs[:, -3:] * rng.uniform(0.5, 2.0, size=3)[None, :]
        s = StandardSystem(a, span, span.T)
        rom = reduce(s, "tlbt", window=TimeWindow(t_e=2.0), r=2)
        nsd_ok &= rom.stable
    _verdict(
        "A6 stability preservation",
        stable_count == 50 and nsd_ok,
        f"modified stable {stable_count}/50; NSD-window unmodified stable {nsd_ok}",
    )


def test_a7_hinf_bound_sampled():
    n = 40
    s = make_synthetic("random_stable", n, 2, 2, seed=17)
    p = mode_gramian(s, "bt", method="dense")
    q = mode_gramian(s, "bt", side="observability", method="dense")
    z_p, z_q = factor_psd(p), factor_psd(q)
    sig = balance(s, "bt", method="dense").hsv
    freqs = np.logspace(-2, 3, 200)
    ok = True
    details = []
    for r in (1, n // 4, n // 2):
        rom = square_root_reduce(s, z_p, z_q, r)
        worst = max(
            np.linalg.norm(transfer_at(s, 1j * om) - transfer_at(rom, 1j * om), 2) for om in freqs
        )
        bound = 2.0 * sig[r:].sum() + 1e-9 * sig[0]
        ok &= worst <= bound
        details.append(f"r={r}: {worst:.2e}<={bound:.2e}")
    _verdict("A7 sampled Hinf error bound", ok, "; ".join(details))


def test_a8_hsv_invariance():
    s = make_synthetic("weakly_damped", 20, 1, 1, seed=9)
    w = TimeWindow(t_e=2.0)
    sig0 = balance(s, "tlbt", w, method="dense").hsv
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        t = rng.standard_normal((20, 20)) + 4 * np.eye(20)
        sig1 = balance(similarity_transform(s, t), "tlbt", w, method="dense").hsv
        k = min(sig0.size, sig1.size)
        worst = max(worst, np.max(np.abs(sig0[:k] - sig1[:k])) / sig0[0])
    _verdict("A8 windowed Hankel value invariance", worst <= 1e-8, f"worst rel dev {worst:.2e}")


def test_a9_integrator_order_and_impulse():
    scalar = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    errors = []
    for dt in (0.02, 0.01, 0.005):
        traj = implicit_midpoint(scalar, None, np.array([1.0]), dt, 1.0)
        errors.append(abs(traj.outputs[-1, 0] - np.exp(-1.0)))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    order_ok = all(1.8 <= rate <= 2.2 for rate in rates)
    s = make_synthetic("random_stable", 20, 2, 2, seed=23)
    traj = impulse_response(s, dt=2e-4, t_f=0.5)
    v = np.ones(2)
    worst = 0.0
    for idx in np.linspace(0, traj.times.size - 1, 10, dtype=int):
        y_ref = s.C @ linalg.expm(np.asarray(s.A) * traj.times[idx]) @ (s.B @ v)
        worst = max(worst, np.linalg.norm(traj.outputs[idx] - y_ref) / max(np.linalg.norm(y_ref), 1.0))
    _verdict(
        "A9 implicit midpoint order / impulse oracle",
        order_ok and worst <= 1e-6,
        f"rates {[f'{x:.2f}' for x in rates]}, impulse dev {worst:.2e}",
    )


def test_a10_nonzero_start_time():
    s = make_synthetic("heat_like", 120, 2, 2, seed=5)
    t_half = half_decay_time(s)
    w = TimeWindow(t_e=t_half, t_s=t_half / 2)
    r = 3
    rom_bt = reduce(s, "bt", r=r)
    rom_tl = reduce(s, "tlbt", window=w, r=r)
    dt = t_half / 4000
    ref = impulse_response(s, dt=dt, t_f=t_half)
    _, e_bt = relative_error_series(ref, impulse_response(rom_bt, dt=dt, t_f=t_half), w)
    _, e_tl = relative_error_series(ref, impulse_response(rom_tl, dt=dt, t_f=t_half), w)
    _verdict(
        "A10 impulse accuracy on [t_s, t_e]",
        e_tl <= e_bt,
        f"windowed E_T tlbt {e_tl:.2e} <= bt {e_bt:.2e}",
    )


def test_a11_descriptor_path():
    d = random_descriptor(30, 20, 2, 2, seed=33)
    gen, _ = eliminate_descriptor(d)
    rng = np.random.default_rng(3)
    w_mat = rng.standard_normal((30, 2))
    worst_solve = 0.0
    for shift in (0.7, 3.0, 1.0 + 2.0j):
        v_aug = shifted_solve(d, shift, w_mat)
        v_dense = np.linalg.solve(gen.A - shift * gen.M, w_mat)
        worst_solve = max(
            worst_solve, np.linalg.norm(v_aug - v_dense) / np.linalg.norm(v_dense)
        )
    worst_tf = 0.0
    for s_pt in 1j * np.geomspace(0.05, 50, 10):
        h_full = transfer_at(d, s_pt)
        h_elim = transfer_at(gen, s_pt)
        worst_tf = max(
            worst_tf, np.linalg.norm(h_full - h_elim) / max(np.linalg.norm(h_full), 1e-30)
        )
    _verdict(
        "A11 descriptor augmented solves / elimination",
        worst_solve <= 1e-9 and worst_tf <= 1e-8,
        f"solve dev {worst_solve:.2e}, transfer dev {worst_tf:.2e}",
    )


def test_a12_compare_determinism(tmp_path):
    args = [
        "compare", "--synth", "weakly_damped", "--n", "40", "--m", "2", "--p", "2",
        "--seed", "5", "--mode", "bt", "--mode", "tlbt", "--mode", "mtlbt",
        "--order", "4", "--order", "8", "--te", "4.0", "--dt", "0.02",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    same = rc1 == rc2 == 0
    names1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    names2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    same &= names1 == names2
    diff = [str(n) for n in names1 if (out1 / n).read_bytes() != (out2 / n).read_bytes()]
    same &= not diff
    _verdict(
        "A12 compare runs are byte-identical",
        same,
        f"{len(names1)} files compared" + (f", diffs: {diff}" if diff else ""),
    )
