import inspect
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

import tlbt.gramians
import tlbt.linalg
from conftest import random_descriptor
from tlbt import mmio, reduction, schemas
from tlbt.cli import main
from tlbt.gramians import SolverConfig, TimeWindow, mode_gramian
from tlbt.reduction import balance, reduce
from tlbt.synthetic import make_synthetic
from tlbt.systems import StandardSystem

SCALAR = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))

P_TL_01 = (1.0 - np.exp(-2.0)) / 2.0


def scalar_sidecar(tmp_path):
    return mmio.save_system(tmp_path / "sysdir", "scalar1", SCALAR)


def read_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_synth_writes_system(tmp_path):
    rc = main(
        ["synth", "--kind", "weakly_damped", "--n", "10", "--seed", "3",
         "--name", "wd", "--out", str(tmp_path)]
    )
    assert rc == 0
    loaded, meta = mmio.load_system(tmp_path / "wd.json")
    assert loaded.n == 10
    # deterministic regeneration
    rc = main(
        ["synth", "--kind", "weakly_damped", "--n", "10", "--seed", "3",
         "--name", "wd2", "--out", str(tmp_path)]
    )
    loaded2, _ = mmio.load_system(tmp_path / "wd2.json")
    assert np.array_equal(np.asarray(loaded.A), np.asarray(loaded2.A))
    assert np.array_equal(loaded.B, loaded2.B)


def test_gramian_scalar_infinite_summary(tmp_path):
    sidecar = scalar_sidecar(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["gramian", "--system", str(sidecar), "--mode", "bt", "--side", "reach",
         "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "scalar1_gramian_bt.json").read_text())
    assert summary["reachability"]["rank"] == 1
    assert summary["reachability"]["mu"] <= 1e-8
    z = mmio.read_matrix(out / "scalar1_ZP_bt.mtx", dense=True)
    assert abs(abs(z[0, 0]) - np.sqrt(0.5)) < 1e-6


def test_gramian_scalar_timelimited_factor_value(tmp_path):
    sidecar = scalar_sidecar(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["gramian", "--system", str(sidecar), "--mode", "tlbt", "--te", "1.0",
         "--side", "reach", "--trace", "--out", str(out)]
    )
    assert rc == 0
    z = mmio.read_matrix(out / "scalar1_ZP_tlbt.mtx", dense=True)
    assert abs(abs(z[0, 0]) - np.sqrt(P_TL_01)) < 1e-6
    trace = (out / "scalar1_trace_ZP_tlbt.csv").read_text().splitlines()
    assert trace[0] == "k,shift,dim,f_change,mu"
    assert len(trace) >= 2


def test_gramian_missing_file_exit_2(tmp_path, capsys):
    rc = main(
        ["gramian", "--system", str(tmp_path / "nope.json"), "--mode", "bt",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_reduce_bt_stable_flag(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["reduce", "--synth", "random_stable", "--n", "20", "--seed", "1",
         "--mode", "bt", "--order", "2", "--timings", "--out", str(out)]
    )
    assert rc == 0
    meta = json.loads((out / "random_stable_n20_s1_bt_r2.json").read_text())
    assert meta["stable"] == 1
    assert meta["E_T"] is None
    assert meta["t_mor"] > 0


def test_reduce_and_gramian_rerun_byte_identical(tmp_path):
    # wall times go into the result files only with --timings
    runs = {
        "reduce": ["reduce", "--synth", "random_stable", "--n", "20", "--seed", "1",
                   "--mode", "bt", "--mode", "tlbt", "--te", "1.0", "--order", "2"],
        "gramian": ["gramian", "--synth", "random_stable", "--n", "20", "--seed", "1",
                    "--mode", "bt", "--mode", "tlbt", "--te", "1.0"],
    }
    for cmd, args in runs.items():
        out1, out2 = tmp_path / cmd / "run1", tmp_path / cmd / "run2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        files1, files2 = read_files(out1), read_files(out2)
        assert list(files1) == list(files2)
        for name in files1:
            assert files1[name] == files2[name], f"{cmd}: {name} differs between reruns"
    meta = json.loads((tmp_path / "reduce/run1/random_stable_n20_s1_tlbt_r2.json").read_text())
    assert "t_mor" not in meta
    summary_path = tmp_path / "gramian/run1/random_stable_n20_s1_gramian_bt.json"
    summary = json.loads(summary_path.read_text())
    assert "seconds" not in summary["reachability"]


def test_gramian_timings_flag(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["gramian", "--system", str(scalar_sidecar(tmp_path)), "--mode", "bt", "--timings",
         "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "scalar1_gramian_bt.json").read_text())
    jsonschema.validate(summary, schemas.GRAMIAN_SUMMARY)
    assert summary["reachability"]["seconds"] > 0
    assert summary["observability"]["seconds"] > 0


def test_gramian_refuses_dense_method(tmp_path, capsys):
    rc = main(
        ["gramian", "--synth", "random_stable", "--n", "12", "--mode", "bt",
         "--method", "dense", "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "--method dense" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reduce_mtlbt_stable_on_suite(tmp_path):
    out = tmp_path / "out"
    for seed in (0, 1, 2):
        rc = main(
            ["reduce", "--synth", "random_stable", "--n", "16", "--seed", str(seed),
             "--mode", "mtlbt", "--te", "1.0", "--order", "3", "--out", str(out)]
        )
        assert rc == 0
        meta = json.loads((out / f"random_stable_n16_s{seed}_mtlbt_r3.json").read_text())
        assert meta["stable"] == 1


def test_reduce_order_beyond_rank_exit_3(tmp_path, capsys):
    rc = main(
        ["reduce", "--synth", "random_stable", "--n", "8", "--seed", "0",
         "--mode", "bt", "--order", "100", "--out", str(tmp_path / "out")]
    )
    assert rc == 3
    assert "solver error" in capsys.readouterr().err


def test_compare_requires_mode(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--synth", "random_stable", "--n", "10",
              "--te", "1.0", "--order", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_simulate_writes_response(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["simulate", "--synth", "random_stable", "--n", "12", "--seed", "2",
         "--dt", "0.01", "--tf", "1.0", "--input", "impulse", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "random_stable_n12_s2_response.csv").read_text().splitlines()
    assert lines[0] == "t,y1,ynorm"
    assert len(lines) == 102


def test_simulate_horizon_defaults_to_one(tmp_path):
    rc = main(["simulate", "--synth", "random_stable", "--n", "6", "--dt", "0.1",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "random_stable_n6_s0_response.json").read_text())
    assert summary["t_f"] == 1.0


@pytest.mark.parametrize(
    "flag", [["--method", "dense"], ["--cadence", "3"], ["--tol-f", "0.5"], ["--tol-p", "0.5"],
             ["--max-dim", "2"], ["--ts", "0.3"], ["--te", "2.0"]],
)
def test_simulate_rejects_solver_flags(tmp_path, flag):
    # simulate runs no solver: a solver flag is a configuration error
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--synth", "random_stable", "--n", "6", *flag, "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_compare_and_reduce_timings_share_t_mor(tmp_path, monkeypatch):
    # t_mor is the reduced model's time to build (Gramians, SVD and
    # projection) in both commands
    real, t_mor = reduction.Balancing.truncate, []

    def spy(self, r):
        rom = real(self, r)
        t_mor.append(rom.info["t_mor"])
        return rom

    monkeypatch.setattr(reduction.Balancing, "truncate", spy)
    common = ["--synth", "random_stable", "--n", "12", "--seed", "1", "--mode", "tlbt",
              "--order", "2", "--te", "1.0", "--timings"]
    assert main(["compare", *common, "--dt", "0.01", "--out", str(tmp_path / "c")]) == 0
    table = json.loads((tmp_path / "c" / "random_stable_n12_s1_compare.json").read_text())
    assert main(["reduce", *common, "--out", str(tmp_path / "r")]) == 0
    meta = json.loads((tmp_path / "r" / "random_stable_n12_s1_tlbt_r2.json").read_text())
    assert [table["results"][0]["t_mor"], meta["t_mor"]] == t_mor


def test_hsv_command(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["hsv", "--synth", "random_stable", "--n", "14", "--seed", "4",
         "--mode", "tlbt", "--te", "2.0", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "random_stable_n14_s4_hsv_tlbt.csv").read_text().splitlines()
    assert lines[0] == "index,sigma"
    sig = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(sig[i] >= sig[i + 1] - 1e-15 for i in range(len(sig) - 1))


def test_compare_outputs_and_ordering(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["compare", "--synth", "weakly_damped", "--n", "60", "--m", "2", "--p", "2",
         "--seed", "1", "--mode", "bt", "--mode", "tlbt", "--order", "8",
         "--te", "5.0", "--dt", "0.01", "--out", str(out)]
    )
    assert rc == 0
    table = json.loads((out / "weakly_damped_n60_s1_compare.json").read_text())
    jsonschema.validate(table, schemas.COMPARE_TABLE)
    results = {row["mode"]: row for row in table["results"]}
    assert set(results) == {"bt", "tlbt"}
    assert "t_mor" not in results["bt"]
    assert results["tlbt"]["E_T"] <= results["bt"]["E_T"]
    grid = (out / "weakly_damped_n60_s1_errors_vs_order.csv").read_text().splitlines()
    assert grid[0] == "r,bt,tlbt"
    assert (out / "weakly_damped_n60_s1_error_t_bt_r8.csv").exists()


def test_summaries_validate_against_schemas(tmp_path):
    sidecar = scalar_sidecar(tmp_path)
    out = tmp_path / "out"
    assert main(
        ["gramian", "--system", str(sidecar), "--mode", "tlbt", "--te", "1.0",
         "--out", str(out)]
    ) == 0
    summary = json.loads((out / "scalar1_gramian_tlbt.json").read_text())
    jsonschema.validate(summary, schemas.GRAMIAN_SUMMARY)
    assert main(
        ["reduce", "--synth", "random_stable", "--n", "12", "--seed", "0",
         "--mode", "tlbt", "--te", "1.0", "--order", "2", "--out", str(out)]
    ) == 0
    meta = json.loads((out / "random_stable_n12_s0_tlbt_r2.json").read_text())
    jsonschema.validate(meta, schemas.REDUCE_METADATA)


def test_dense_threshold_env_override(tmp_path, monkeypatch):
    from tlbt.gramians import gramian_infinite_dense
    from tlbt.synthetic import make_synthetic

    monkeypatch.setenv("TLBT_DENSE_THRESHOLD", "10")
    s = make_synthetic("random_stable", 20, 1, 1, seed=0)
    with pytest.raises(ValueError, match="threshold"):
        gramian_infinite_dense(s)


def test_input_file_signal(tmp_path):
    sidecar = scalar_sidecar(tmp_path)
    upath = tmp_path / "u.csv"
    t = np.linspace(0, 1, 101)
    np.savetxt(upath, np.column_stack([t, np.sin(t)]), delimiter=",", header="t,u1")
    out = tmp_path / "out"
    rc = main(
        ["simulate", "--system", str(sidecar), "--dt", "0.01", "--tf", "1.0",
         "--input", "file", "--input-file", str(upath), "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "scalar1_response.csv").read_text().splitlines()
    assert len(lines) == 102
    # forced response of x' = -x + u with u = sin interpolant stays small
    final = float(lines[-1].split(",")[1])
    assert 0.0 < final < 1.0


def test_compare_rerun_byte_identical(tmp_path):
    args = [
        "compare", "--synth", "weakly_damped", "--n", "40", "--m", "2", "--p", "2",
        "--seed", "5", "--mode", "bt", "--mode", "tlbt", "--order", "6",
        "--te", "4.0", "--dt", "0.02",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    files1, files2 = read_files(out1), read_files(out2)
    assert list(files1) == list(files2)
    for name in files1:
        assert files1[name] == files2[name], f"{name} differs between reruns"


def test_hsv_and_compare_on_descriptor_sidecar(tmp_path):
    sidecar = mmio.save_system(tmp_path / "sysdir", "desc", random_descriptor(20, 6, 2, 2, 7))
    loaded, _ = mmio.load_system(sidecar)
    window = TimeWindow(t_e=2.0)
    out = tmp_path / "out"
    rc = main(
        ["hsv", "--system", str(sidecar), "--mode", "bt", "--mode", "tlbt",
         "--te", "2.0", "--out", str(out)]
    )
    assert rc == 0
    for mode in ("bt", "tlbt"):
        lines = (out / f"desc_hsv_{mode}.csv").read_text().splitlines()[1:]
        sig = np.array([float(line.split(",")[1]) for line in lines])
        w = None if mode == "bt" else window
        assert np.array_equal(sig, reduce(loaded, mode, window=w, r=1).info["hsv_all"])
        assert np.array_equal(sig, balance(loaded, mode, w).hsv)
    rc = main(
        ["compare", "--system", str(sidecar), "--mode", "bt", "--mode", "tlbt",
         "--order", "4", "--te", "2.0", "--dt", "0.02", "--out", str(out)]
    )
    assert rc == 0
    table = json.loads((out / "desc_compare.json").read_text())
    assert [row["mode"] for row in table["results"]] == ["bt", "tlbt"]


def test_modes_call_solvers_through_module_attribute(tmp_path, monkeypatch):
    # tracers and spies rebind gramians.solve_*_lowrank; every mode route
    # must look the solver up there when it runs
    real = tlbt.gramians.solve_timelimited_lowrank
    sides = []

    def spy(*args, **kwargs):
        sides.append(inspect.signature(real).bind(*args, **kwargs).arguments["side"])
        return real(*args, **kwargs)

    monkeypatch.setattr(tlbt.gramians, "solve_timelimited_lowrank", spy)
    s = make_synthetic("random_stable", 12, 1, 1, seed=0)
    reduce(s, "tlbt", window=TimeWindow(t_e=1.0), r=2)
    assert sorted(sides) == ["observability", "reachability"]
    sides.clear()
    rc = main(
        ["compare", "--synth", "random_stable", "--n", "12", "--seed", "0",
         "--mode", "tlbt", "--order", "2", "--te", "1.0", "--dt", "0.01",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert sorted(sides) == ["observability", "reachability"]


def test_compare_picks_poles_once_per_side(tmp_path, monkeypatch):
    # later modes replay the first mode's shifts: no new shift selection,
    # and each solve's shifted solves are the ones its shifts imply
    gram = tlbt.gramians
    active, picks, solves = [], [], []

    def spy_solver(kind):
        real = getattr(gram, f"solve_{kind}_lowrank")

        def spy(*args, **kwargs):
            side = inspect.signature(real).bind(*args, **kwargs).arguments["side"]
            active.append({"solve": (kind, side), "shifted_solves": 0})
            out = real(*args, **kwargs)
            solves.append((active.pop(), out.workspace.shifts))
            return out

        return spy

    def spy_pick(ws, real=gram.adaptive_shift):
        picks.append(active[-1]["solve"])
        return real(ws)

    def spy_shifted_solve(*args, real=gram.shifted_solve, **kwargs):
        active[-1]["shifted_solves"] += 1
        return real(*args, **kwargs)

    # one complex Schur form of A serves every mode and side, and the
    # stability check reads its eigenvalues instead of calling gen_eig
    forms, verifying, eig_in_check = _count_schur_forms(monkeypatch), [], []

    def spy_abscissa(sys, real=gram.spectral_abscissa):
        verifying.append(sys)
        try:
            return real(sys)
        finally:
            verifying.pop()

    def spy_gen_eig(a, *args, real=tlbt.linalg.gen_eig, **kwargs):
        if verifying:
            eig_in_check.append(np.shape(a))
        return real(a, *args, **kwargs)

    for kind in ("infinite", "timelimited", "modified"):
        monkeypatch.setattr(gram, f"solve_{kind}_lowrank", spy_solver(kind))
    monkeypatch.setattr(gram, "adaptive_shift", spy_pick)
    monkeypatch.setattr(gram, "shifted_solve", spy_shifted_solve)
    monkeypatch.setattr(gram, "spectral_abscissa", spy_abscissa)
    monkeypatch.setattr(tlbt.linalg, "gen_eig", spy_gen_eig)
    rc = main(
        ["compare", "--synth", "weakly_damped", "--n", "60", "--m", "2", "--p", "2",
         "--seed", "1", "--mode", "bt", "--mode", "tlbt", "--mode", "mtlbt",
         "--order", "8", "--te", "5.0", "--dt", "0.01", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert set(picks) == {("infinite", "reachability"), ("infinite", "observability")}
    assert len(solves) == 6
    for record, shifts in solves:
        # a complex pole and its conjugate share one solve
        implied = sum(1 for sh in shifts[1:] if np.imag(sh) >= 0)
        assert record["shifted_solves"] == implied, record["solve"]
    # the spectrum of the system is computed once: its one Schur form
    assert forms == [(60, 60)]
    assert eig_in_check == []


@pytest.mark.parametrize(
    "kind, n, stop", [("weakly_damped", 200, "exact_space"), ("heat_like", 300, "converged")]
)
def test_gramian_summary_reports_stop(tmp_path, kind, n, stop):
    out = tmp_path / "out"
    rc = main(
        ["gramian", "--synth", kind, "--n", str(n), "--m", "2", "--p", "2", "--seed", "1",
         "--mode", "bt", "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / f"{kind}_n{n}_s1_gramian_bt.json").read_text())
    jsonschema.validate(summary, schemas.GRAMIAN_SUMMARY)
    assert summary["reachability"]["stop"] == summary["observability"]["stop"] == stop


def _count_schur_forms(monkeypatch):
    """Shapes of the complex Schur forms computed, the spectrum of a dense standard system."""
    forms = []

    def spy_schur(a, output="real", real=scipy.linalg.schur, **kwargs):
        if output == "complex":
            forms.append(np.shape(a))
        return real(a, output=output, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy_schur)
    return forms


def test_stability_verified_once_per_balance(tmp_path, monkeypatch):
    # reduce balances once; a three-mode compare balances three times but
    # computes the spectrum of the same system once
    real = tlbt.gramians.spectral_abscissa
    calls = []

    def spy(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(tlbt.gramians, "spectral_abscissa", spy)
    forms = _count_schur_forms(monkeypatch)
    s = make_synthetic("weakly_damped", 40, 2, 2, seed=1)
    reduce(s, "bt", r=4)
    assert forms == [(40, 40)]
    forms.clear()
    rc = main(
        ["compare", "--synth", "weakly_damped", "--n", "40", "--m", "2", "--p", "2",
         "--seed", "1", "--mode", "bt", "--mode", "tlbt", "--mode", "mtlbt", "--order", "4",
         "--te", "5.0", "--dt", "0.01", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert forms == [(40, 40)]
    # a direct solve outside balance still verifies, from the cached spectrum
    calls.clear()
    forms.clear()
    tlbt.gramians.solve_infinite_lowrank(s)
    tlbt.gramians.mode_gramian(s, "bt")
    assert len(calls) == 2 and forms == []


def test_gramian_command_verifies_once_and_replays_poles(tmp_path, monkeypatch):
    # one spectrum computed for all modes and sides; the replayed poles give
    # the factors of fresh per-mode solves, bit for bit
    forms = _count_schur_forms(monkeypatch)
    rc = main(
        ["gramian", "--synth", "weakly_damped", "--n", "40", "--m", "2", "--p", "2",
         "--seed", "1", "--mode", "bt", "--mode", "tlbt", "--mode", "mtlbt", "--te", "5.0",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert forms == [(40, 40)]
    s = make_synthetic("weakly_damped", 40, 2, 2, seed=1)
    window, cfg = TimeWindow(t_e=5.0), SolverConfig()
    for mode in ("bt", "tlbt", "mtlbt"):
        for side, tag in (("reachability", "ZP"), ("observability", "ZQ")):
            fresh = mode_gramian(s, mode, window, cfg, side)
            written = mmio.read_matrix(tmp_path / f"weakly_damped_n40_s1_{tag}_{mode}.mtx")
            assert np.array_equal(written, fresh.z), (mode, side)
