import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

import tlbt.gramians
import tlbt.linalg
from conftest import random_descriptor
from tlbt import cli, mmio, reduction, schemas
from tlbt.cli import main
from tlbt.gramians import SolverConfig, TimeWindow, mode_gramian
from tlbt.reduction import balance, reduce
from tlbt.simulate import impulse_response
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
    z = mmio.read_matrix(out / "scalar1_ZP_bt.mtx")
    assert abs(abs(z[0, 0]) - np.sqrt(0.5)) < 1e-6


def test_gramian_scalar_timelimited_factor_value(tmp_path):
    sidecar = scalar_sidecar(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["gramian", "--system", str(sidecar), "--mode", "tlbt", "--te", "1.0",
         "--side", "reach", "--trace", "--out", str(out)]
    )
    assert rc == 0
    z = mmio.read_matrix(out / "scalar1_ZP_tlbt.mtx")
    assert abs(abs(z[0, 0]) - np.sqrt(P_TL_01)) < 1e-6
    trace = (out / "scalar1_trace_ZP_tlbt.csv").read_text().splitlines()
    assert trace[0] == "k,shift_re,shift_im,dim,f_change,mu"
    assert len(trace) >= 2


def test_gramian_missing_file_exit_2(tmp_path, capsys):
    rc = main(
        ["gramian", "--system", str(tmp_path / "nope.json"), "--mode", "bt",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_gramian_rejects_max_dim_below_one(tmp_path, capsys, max_dim):
    # 0 used to mean the default cap of 600, and -3 to fail as a solver error
    rc = main(
        ["gramian", "--synth", "heat_like", "--n", "200", "--m", "2", "--p", "2",
         "--mode", "bt", "--max-dim", max_dim, "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "max_dim must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reduce_bt_stable_flag(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["reduce", "--synth", "random_stable", "--n", "20", "--seed", "1",
         "--mode", "bt", "--order", "2", "--timings", "--out", str(out)]
    )
    assert rc == 0
    meta = json.loads((out / "random_stable_n20_s1_bt_r2_meta.json").read_text())
    assert meta["stable"] == 1
    assert meta["E_T"] is None
    assert meta["t_mor"] > 0


def test_reduced_model_written_by_reduce_loads_and_simulates(tmp_path):
    # the model's sidecar and its metadata are two files: the model loads
    # back, and simulates as the in-memory model does, bit for bit
    out = tmp_path / "r"
    rc = main(["reduce", "--synth", "weakly_damped", "--n", "20", "--seed", "1",
               "--mode", "tlbt", "--te", "5", "--order", "4", "--out", str(out)])
    assert rc == 0
    jsonschema.validate(json.loads((out / "weakly_damped_n20_s1_tlbt_r4_meta.json").read_text()),
                        schemas.REDUCE_METADATA)
    loaded, meta = mmio.load_system(out / "weakly_damped_n20_s1_tlbt_r4.json")
    assert meta["kind"] == "standard"
    rom = reduce(make_synthetic("weakly_damped", 20, seed=1), "tlbt", TimeWindow(t_e=5.0), r=4)
    sims = [impulse_response(model, dt=0.01, t_f=5.0).outputs for model in (loaded, rom)]
    assert sims[0].tobytes() == sims[1].tobytes()
    assert main(["simulate", "--system", str(out / "weakly_damped_n20_s1_tlbt_r4.json"),
                 "--dt", "0.01", "--tf", "5", "--out", str(tmp_path / "s")]) == 0


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
    meta_path = tmp_path / "reduce/run1/random_stable_n20_s1_tlbt_r2_meta.json"
    meta = json.loads(meta_path.read_text())
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
    # tlbt gramian computes Krylov factors only: it has no --method flag
    with pytest.raises(SystemExit) as exc:
        main(["gramian", "--synth", "random_stable", "--n", "12", "--mode", "bt",
              "--method", "dense", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--method dense" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gramian_trace_csv_round_trips_shifts(tmp_path, monkeypatch):
    # the --trace CSV writes each check's latest pole as its real and
    # imaginary parts (inf in shift_re) at 17 digits, so np.loadtxt reads it
    # back to the solver's value: complex on weakly_damped, real on
    # heat_like (a real spectrum)
    real, solves = cli.mode_gramian, {}

    def spy(sys, mode, window, cfg, side):
        solves[side] = real(sys, mode, window, cfg, side)
        return solves[side]

    monkeypatch.setattr(cli, "mode_gramian", spy)
    for kind, te, is_complex in (("weakly_damped", "4", True), ("heat_like", "0.05", False)):
        out = tmp_path / kind
        assert main(["gramian", "--synth", kind, "--n", "40", "--m", "2", "--p", "2",
                     "--mode", "tlbt", "--te", te, "--trace", "--out", str(out)]) == 0
        for side, tag in (("reachability", "ZP"), ("observability", "ZQ")):
            path = out / f"{kind}_n40_s0_trace_{tag}_tlbt.csv"
            assert path.read_text().splitlines()[0] == "k,shift_re,shift_im,dim,f_change,mu"
            k, re, im, dims, _, mu = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
            shifts = [complex(entry["shift"]) for entry in solves[side].trace]
            assert np.array_equal(re, np.real(shifts)) and np.array_equal(im, np.imag(shifts))
            finite = np.isfinite(re)
            assert finite.any() and np.all(im[~finite] == 0)
            assert bool(np.any(im != 0)) == is_complex
            assert np.all(k == np.round(k)) and np.all(np.diff(k) > 0)
            assert np.all(np.diff(dims) >= 0)
            assert mu[-1] < 1e-8  # the default tol_p


def test_reduce_mtlbt_stable_on_suite(tmp_path):
    out = tmp_path / "out"
    for seed in (0, 1, 2):
        rc = main(
            ["reduce", "--synth", "random_stable", "--n", "16", "--seed", str(seed),
             "--mode", "mtlbt", "--te", "1.0", "--order", "3", "--out", str(out)]
        )
        assert rc == 0
        meta = json.loads((out / f"random_stable_n16_s{seed}_mtlbt_r3_meta.json").read_text())
        assert meta["stable"] == 1


def test_reduce_order_beyond_rank_exit_3(tmp_path, capsys):
    rc = main(
        ["reduce", "--synth", "random_stable", "--n", "8", "--seed", "0",
         "--mode", "bt", "--order", "100", "--out", str(tmp_path / "out")]
    )
    assert rc == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gramian", "hsv", "reduce", "compare"])
def test_solver_commands_reject_cadence(tmp_path, command):
    # the check cadence is fixed: the flag is unknown to every subcommand
    argv = [command, "--synth", "random_stable", "--n", "8", "--mode", "bt", "--te", "1.0",
            "--cadence", "3", "--out", str(tmp_path / "out")]
    if command in ("reduce", "compare"):
        argv += ["--order", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


SYNTH = ["--synth", "random_stable", "--n", "8"]
REDUCE = ["reduce", *SYNTH, "--mode", "bt"]
COMPARE = ["compare", *SYNTH, "--mode", "bt", "--te", "1.0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--system", "missing.json"], "missing.json"),
        (["simulate", *SYNTH, "--input", "file"], "--input-file"),
        (["simulate", *SYNTH, "--dt", "-1"], "dt and t_f must be positive"),
        (["synth", "--kind", "random_stable", "--n", "1"], "n must be >= 2"),
        ([*COMPARE, "--order", "2", "--dt", "0"], "dt and t_f must be positive"),
        ([*REDUCE, "--order", "0"], "--order must be >= 1, got 0"),
        ([*REDUCE, "--order", "2", "--order", "-1"], "--order must be >= 1, got -1"),
        ([*COMPARE, "--order", "0"], "--order must be >= 1, got 0"),
        (["gramian", *SYNTH, "--mode", "bt", "--mode", "tlbt"], "'tlbt' needs a time window"),
        (["hsv", *SYNTH, "--mode", "mtlbt"], "'mtlbt' needs a time window"),
        (["reduce", *SYNTH, "--mode", "tlbt", "--order", "2"], "'tlbt' needs a time window"),
        (["reduce", "--synth", "heat_like", "--n", "1200", "--mode", "bt", "--order", "2",
          "--method", "dense"], "dense Gramian path refused for n=1200"),
        (["compare", *SYNTH, "--mode", "bt", "--order", "2"], "compare requires --te"),
        (["gramian", "--mode", "bt"], "either --system or --synth is required"),
    ],
    ids=["simulate-missing-system", "simulate-no-input-file", "simulate-negative-dt",
         "synth-n1", "compare-dt0", "reduce-order0", "reduce-negative-order", "compare-order0",
         "gramian-no-window", "hsv-no-window", "reduce-no-window", "reduce-dense-too-large",
         "compare-no-te", "gramian-no-source"],
)
def test_config_errors_exit_2_before_out(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*COMPARE, "--order", "2", "--order", "100"], "order 100 out of range"),
        ([*REDUCE, "--order", "2", "--order", "100"], "order 100 out of range"),
        (["hsv", *SYNTH, "--mode", "bt", "--max-dim", "2"], "subspace cap 2 reached"),
        (["gramian", *SYNTH, "--mode", "bt", "--max-dim", "2"], "subspace cap 2 reached"),
    ],
    ids=["compare-order-beyond-rank", "reduce-order-beyond-rank", "hsv-cap", "gramian-cap"],
)
def test_solver_errors_exit_3_before_out(tmp_path, capsys, monkeypatch, argv, message):
    # every balance and truncate of the run succeeds before --out is created,
    # so an order that succeeds before the failing one leaves no file either
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error") and message in err
    assert not (tmp_path / "out").exists()


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


def test_simulate_reports_steps_not_grid_points(tmp_path, capsys):
    # 100 steps of 0.01 reach t = 1; the grid has 101 points
    assert main(["simulate", *SYNTH, "--dt", "0.01", "--tf", "1.0", "--out", str(tmp_path)]) == 0
    assert "simulated 100 steps" in capsys.readouterr().out


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
    meta = json.loads((tmp_path / "r" / "random_stable_n12_s1_tlbt_r2_meta.json").read_text())
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
    meta = json.loads((out / "random_stable_n12_s0_tlbt_r2_meta.json").read_text())
    jsonschema.validate(meta, schemas.REDUCE_METADATA)


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


@pytest.mark.parametrize("command", [["simulate"], COMPARE + ["--order", "2"]],
                         ids=["simulate", "compare"])
def test_input_file_with_too_few_columns_exit_2(tmp_path, capsys, monkeypatch, command):
    # one input column for a two-input system: a config error before --out
    monkeypatch.chdir(tmp_path)
    np.savetxt("u.csv", np.column_stack([np.linspace(0, 1, 11), np.ones(11)]), delimiter=",",
               header="t,u1")
    argv = [*command, *SYNTH, "--m", "2", "--input", "file", "--input-file", "u.csv"]
    assert main([*argv, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "1 input columns, fewer than m=2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", ["", "t,u1\n"], ids=["empty", "header-only"])
@pytest.mark.parametrize("command", [["simulate"], COMPARE + ["--order", "2"]],
                         ids=["simulate", "compare"])
def test_input_file_without_data_rows_exit_2(tmp_path, capsys, monkeypatch, command, content):
    # no data rows: a config error before --out, and no loadtxt warning
    # (which the test settings turn into an error)
    monkeypatch.chdir(tmp_path)
    Path("u.csv").write_text(content)
    argv = [*command, *SYNTH, "--input", "file", "--input-file", "u.csv"]
    assert main([*argv, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--input-file has no data rows" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("times, values", [([0.0, 0.5, 1.0], [1.0, np.nan, 1.0]),
                                           ([1.0, 0.5, 0.0], [1.0, 0.0, 1.0]),
                                           ([0.0, 0.5, 0.5], [1.0, 0.0, 1.0]),
                                           ([0.0, np.nan, 1.0], [1.0, 0.0, 1.0])],
                         ids=["nan-value", "decreasing", "repeated", "nan-time"])
@pytest.mark.parametrize("command", [["simulate"], COMPARE + ["--order", "2"]],
                         ids=["simulate", "compare"])
def test_input_file_bad_time_column_exit_2(tmp_path, capsys, monkeypatch, command, times, values):
    # np.interp needs finite, increasing sample times: anything else would be
    # interpolated silently or integrated into non-finite outputs
    monkeypatch.chdir(tmp_path)
    np.savetxt("u.csv", np.column_stack([times, values]), delimiter=",", header="t,u1")
    argv = [*command, *SYNTH, "--input", "file", "--input-file", "u.csv"]
    assert main([*argv, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "finite values and strictly increasing times" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["reduce", "--mode", "bt", "--order", "2"], ["simulate"]],
                         ids=["reduce", "simulate"])
def test_non_finite_sparse_state_matrix_exit_2(tmp_path, capsys, monkeypatch, command):
    # a NaN stored in a sparse A is refused on load, not met later as a
    # failed eigensolve or a singular factor
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--kind", "heat_like", "--n", "30", "--out", "sys"]) == 0
    a = mmio.read_matrix("sys/plant_A.mtx")
    a.data[0] = np.nan
    mmio.write_matrix("sys/plant_A.mtx", a)
    assert main([*command, "--system", "sys/plant.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "A contains non-finite entries" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, message",
    [(lambda m: dict(m, files={"A": "s_A.mtx", "B": "s_B.mtx"}), "sidecar 'files' has no C"),
     (lambda m: dict(m, files="x"), "'files' must map matrix names to file names"),
     (lambda m: dict(m, files=dict(m["files"], C=["s_C.mtx"])),
      "'files' must map matrix names to file names"),
     (lambda m: dict(m, kind=[1]), "unknown system kind [1]"),
     (lambda m: [m], "is not a JSON object")],
    ids=["missing-C", "files-a-string", "file-name-a-list", "kind-a-list", "top-level-array"],
)
def test_malformed_sidecar_exit_2(tmp_path, capsys, monkeypatch, edit, message):
    # each used to end in a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    sidecar = mmio.save_system("sys", "s", SCALAR)
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    assert main(["simulate", "--system", str(sidecar), "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "out").exists()


def test_compare_refuses_an_error_window_without_grid_points(tmp_path, capsys, monkeypatch):
    # the grid [0, 0.5] misses the window [1, 2]: E_T used to be written as 0;
    # the window is refused before any Gramian is solved
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(reduction, "balance", None)
    argv = ["compare", "--synth", "weakly_damped", "--n", "20", "--mode", "bt", "--order", "4",
            "--ts", "1", "--te", "2", "--tf", "0.5", "--out", "out"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "no grid point lies in the error window" in err
    assert not (tmp_path / "out").exists()


def test_compare_refuses_an_error_window_past_the_horizon(tmp_path, capsys, monkeypatch):
    # --te 2 with --tf 1 used to exit 0 with E_T the maximum over [0, 1] only
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(reduction, "balance", None)
    argv = ["compare", "--synth", "weakly_damped", "--n", "20", "--mode", "bt", "--order", "4",
            "--te", "2", "--tf", "1", "--out", "out"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "past the simulated horizon" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_non_finite_step_scale_exit_2(tmp_path, capsys, monkeypatch, scale):
    # a non-finite step input used to be reported as a solver failure (exit 3)
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--synth", "weakly_damped", "--n", "20", "--input", "step",
            f"--step-scale={scale}", "--out", "out"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "step input must be finite" in err
    assert not (tmp_path / "out").exists()


def test_module_runs_as_a_script(tmp_path):
    # python -m tlbt.cli exits with main's code
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "tlbt.cli", "hsv", "--synth", "random_stable", "--n", "8",
         "--mode", "tlbt", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 2 and not (tmp_path / "out").exists()
    assert run.stderr.startswith("config error") and "needs a time window" in run.stderr


@pytest.mark.parametrize("flags", [["--tf", "inf"], ["--dt", "nan"], ["--dt", "inf"],
                                   ["--dt", "1e-320"]],
                         ids=["tf-inf", "dt-nan", "dt-inf", "steps-inf"])
@pytest.mark.parametrize("command", [["simulate"], COMPARE + ["--order", "2"]],
                         ids=["simulate", "compare"])
def test_non_finite_step_or_horizon_exit_2(tmp_path, capsys, monkeypatch, command, flags):
    monkeypatch.chdir(tmp_path)
    assert main([*command, *SYNTH, *flags, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "dt and t_f must be positive and finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt", ["1e-17", "1e-300"], ids=["memory", "size"])
@pytest.mark.parametrize("command", [["simulate"], COMPARE + ["--order", "2"]],
                         ids=["simulate", "compare"])
def test_grid_too_large_exit_2(tmp_path, capsys, monkeypatch, command, dt):
    # 1e17 steps ask numpy for an 800 PB grid and 1e300 for more elements
    # than an array may hold: both are refused at once, before any step
    monkeypatch.chdir(tmp_path)
    assert main([*command, *SYNTH, "--dt", dt, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "more than fit in memory" in err
    assert f"{float(dt) ** -1:.3g} steps" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, orders",
    [(["gramian", *SYNTH, "--te", "1.0"], []), (["hsv", *SYNTH, "--te", "1.0"], []),
     (["reduce", *SYNTH, "--te", "1.0"], ["3", "2"]),
     (["compare", *SYNTH, "--te", "1.0", "--dt", "0.01"], ["3"])],
    ids=["gramian", "hsv", "reduce", "compare"],
)
def test_repeated_mode_and_order_run_once(tmp_path, capsys, argv, orders):
    # a repeated --mode or --order runs, prints and writes what its first
    # occurrence alone does
    def flags(repeat):
        return [item for _ in range(repeat) for value in ("bt", "tlbt")
                for item in ("--mode", value)] + \
               [item for _ in range(repeat) for r in orders for item in ("--order", r)]

    assert main([*argv, *flags(1), "--out", str(tmp_path / "once")]) == 0
    printed = len(capsys.readouterr().out.splitlines())
    assert main([*argv, *flags(2), "--out", str(tmp_path / "twice")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == printed
    assert read_files(tmp_path / "once") == read_files(tmp_path / "twice")
    if argv[0] == "compare":
        table = json.loads((tmp_path / "twice" / "random_stable_n8_s0_compare.json").read_text())
        assert [(e["mode"], e["r"]) for e in table["results"]] == [("bt", 3), ("tlbt", 3)]
        csv = (tmp_path / "twice" / "random_stable_n8_s0_errors_vs_order.csv").read_text()
        assert csv.splitlines()[0] == "r,bt,tlbt" and len(csv.splitlines()) == 2


def test_simulate_step_input(tmp_path):
    # x' = -x + 2: the step response of the scalar system settles at its DC gain times 2
    out = tmp_path / "out"
    assert main(["simulate", "--system", str(scalar_sidecar(tmp_path)), "--dt", "0.01",
                 "--tf", "20", "--input", "step", "--step-scale", "2", "--out", str(out)]) == 0
    assert json.loads((out / "scalar1_response.json").read_text())["input"] == "step"
    final = float((out / "scalar1_response.csv").read_text().splitlines()[-1].split(",")[1])
    assert abs(final - 2.0) < 2e-3


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

    def spy_pick(*args, real=gram._select_shift, **kwargs):
        picks.append(active[-1]["solve"])
        return real(*args, **kwargs)

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
    monkeypatch.setattr(gram, "_select_shift", spy_pick)
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
    # the factors of per-mode solves of fresh systems, bit for bit
    forms = _count_schur_forms(monkeypatch)
    rc = main(
        ["gramian", "--synth", "weakly_damped", "--n", "40", "--m", "2", "--p", "2",
         "--seed", "1", "--mode", "bt", "--mode", "tlbt", "--mode", "mtlbt", "--te", "5.0",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert forms == [(40, 40)]
    window, cfg = TimeWindow(t_e=5.0), SolverConfig()
    for mode in ("bt", "tlbt", "mtlbt"):
        for side, tag in (("reachability", "ZP"), ("observability", "ZQ")):
            s = make_synthetic("weakly_damped", 40, 2, 2, seed=1)
            fresh = mode_gramian(s, mode, window, cfg, side)
            written = mmio.read_matrix(tmp_path / f"weakly_damped_n40_s1_{tag}_{mode}.mtx")
            assert np.array_equal(written, fresh.z), (mode, side)
