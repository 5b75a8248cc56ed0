"""The four benchmark workloads: inputs from a seed, the timed operation, checks.

Each workload exercises one branch of the Gramian operator choice in
``tlbt.gramians._make_operator``; all run at tol_f = tol_p = 1e-8 with
m = p = 2 inputs and outputs. ``setup`` builds the inputs, ``operate`` is
the timed operation, ``summarize`` and ``check`` run after the clock
stops. ``tiny`` sizes exist only for the benchmark's self-test.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import tlbt
from tlbt import cli, mmio, schemas

TOL = 1e-8
ORACLE_RTOL = 1e-2  # |E_T - E_T(dense)| <= ORACLE_RTOL * E_T(dense)
HEAT_WINDOW = 0.05
HEAT_STEPS = 2000


@dataclass
class Size:
    n: int
    r: int
    max_dim: int | None = None
    n_a: int = 0


@dataclass
class Workload:
    """Why each workload exists: perfbench/README.md and BENCHMARK.json."""

    name: str
    modes: tuple
    full: Size
    tiny: Size
    has_oracle: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wd200_compare", ("bt", "tlbt", "mtlbt"), Size(200, 20), Size(40, 6), True),
        Workload("heat200_bt", ("bt",), Size(200, 20), Size(40, 6), True),
        Workload("heat20k_tlbt", ("tlbt",), Size(20000, 20, 200), Size(400, 6, 40), False),
        Workload("desc1500_mtlbt", ("mtlbt",), Size(1200, 20, 200, 300), Size(60, 6, 40, 15),
                 False),
    )
}


def descriptor_system(n_f, n_a, seed):
    """Sparse index-1 descriptor whose eliminated pencil is symmetric negative definite.

    M1, A1 come from heat_like; A4 = -diag(2 + U[0,1)); A2 is sparse random
    and A3 = -A2^T, so A1 - A2 A4^{-1} A3 = A1 + A2 A4^{-1} A2^T < 0.
    """
    heat = tlbt.make_synthetic("heat_like", n_f, 2, 2, seed=seed)
    rng = np.random.default_rng([seed, 1])
    a4 = sp.diags(-(2.0 + rng.random(n_a)), format="csc")
    a2 = sp.random(
        n_f, n_a, density=min(4.0 / n_f, 1.0), format="csc", random_state=rng,
        data_rvs=rng.standard_normal,
    )
    return tlbt.DescriptorIndex1(
        M1=heat.M, A1=heat.A, A2=a2, A3=(-a2.T).tocsc(), A4=a4,
        B1=heat.B, B2=rng.standard_normal((n_a, 2)),
        C1=heat.C, C2=rng.standard_normal((2, n_a)),
    )


def setup(wl, size, seed, workdir):
    """Inputs of one workload; for wd200 written to disk by ``tlbt synth``."""
    if wl.name == "wd200_compare":
        argv = ["synth", "--kind", "weakly_damped", "--n", str(size.n), "--m", "2",
                "--p", "2", "--seed", str(seed), "--name", "wd", "--out", str(workdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"tlbt synth exited {rc}")
        sidecar = Path(workdir) / "wd.json"
        system, _ = mmio.load_system(sidecar)
        return {"sidecar": sidecar, "t_e": tlbt.half_decay_time(system)}
    if wl.name == "desc1500_mtlbt":
        return {"system": descriptor_system(size.n, size.n_a, seed), "t_e": HEAT_WINDOW}
    return {"system": tlbt.make_synthetic("heat_like", size.n, 2, 2, seed=seed), "t_e": HEAT_WINDOW}


def _compare_argv(inputs, size, modes, out, method):
    t_e = inputs["t_e"]
    argv = ["compare", "--system", str(inputs["sidecar"])]
    for mode in modes:
        argv += ["--mode", mode]
    return argv + ["--order", str(size.r), "--te", repr(t_e), "--dt", repr(t_e / 3000),
                   "--tol-f", repr(TOL), "--tol-p", repr(TOL), "--method", method,
                   "--out", str(out)]


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def _reduce_and_validate(wl, size, inputs, method):
    system = inputs["system"]
    window = tlbt.TimeWindow(t_e=inputs["t_e"])
    cfg = tlbt.SolverConfig(tol_f=TOL, tol_p=TOL, max_dim=size.max_dim)
    mode = wl.modes[0]
    rom = tlbt.reduce(system, mode, window=None if mode == "bt" else window, r=size.r,
                      cfg=cfg, method=method)
    dt = inputs["t_e"] / HEAT_STEPS
    ref = tlbt.impulse_response(system, dt=dt, t_f=inputs["t_e"])
    red = tlbt.impulse_response(rom, dt=dt, t_f=inputs["t_e"])
    _, e_max = tlbt.relative_error_series(ref, red, window)
    return {"rom": rom, "E_T": {mode: e_max}}


def operate(wl, size, inputs, out, method="krylov"):
    """The timed operation. Raises TlbtError on a solver failure."""
    if wl.name == "wd200_compare":
        rc, err = _run_cli(_compare_argv(inputs, size, wl.modes, out, method))
        return {"rc": rc, "stderr": err, "out": Path(out)}
    return _reduce_and_validate(wl, size, inputs, method)


def summarize(wl, raw):
    """E_T per mode, stability per mode and visible residuals of a finished operation."""
    if wl.name == "wd200_compare":
        if raw["rc"] != 0:
            return {"error": f"tlbt compare exited {raw['rc']}: {raw['stderr']}"}
        table = json.loads((raw["out"] / "wd_compare.json").read_text())
        return {
            "table": table,
            "E_T": {e["mode"]: e["E_T"] for e in table["results"]},
            "stable": {e["mode"]: bool(e["stable"]) for e in table["results"]},
            "mu": [],
        }
    rom = raw["rom"]
    return {
        "E_T": raw["E_T"],
        "stable": {rom.mode: bool(rom.stable)},
        "mu": [rom.info[k] for k in ("mu_p", "mu_q") if k in rom.info],
    }


def a5_claim(e_t):
    """The A5 claim E_T.tlbt <= E_T.bt / 2 (true when there is nothing to compare).

    Exact dense Gramians break it on a few seeds (weakly_damped n=200 seed 20:
    0.0342 against 0.0286 / 2), so it binds the low-rank result only where the
    dense oracle meets it.
    """
    return e_t is None or e_t["tlbt"] <= e_t["bt"] / 2


def check(wl, summary, oracle, traced_mu):
    """Failed output checks of one operation (empty when all pass)."""
    if "error" in summary:
        return [summary["error"]]
    bad = []
    if "table" in summary:
        import jsonschema  # here, so that set-up time does not include it

        try:
            jsonschema.validate(summary["table"], schemas.COMPARE_TABLE)
        except jsonschema.ValidationError as exc:
            bad.append(f"compare JSON fails COMPARE_TABLE: {exc.message}")
    for mu in [*summary["mu"], *traced_mu]:
        if not mu <= TOL:
            bad.append(f"solve residual mu {mu:.3e} > tol_p {TOL:.0e}")
    for mode in ("bt", "mtlbt"):
        if mode in summary["stable"] and not summary["stable"][mode]:
            bad.append(f"{mode} reduced model is unstable")
    e_t = summary["E_T"]
    if wl.name == "wd200_compare" and a5_claim(oracle) and not a5_claim(e_t):
        bad.append(f"E_T.tlbt {e_t['tlbt']:.4g} > E_T.bt/2 {e_t['bt'] / 2:.4g}")
    for mode, ref in (oracle or {}).items():
        if not abs(e_t[mode] - ref) <= ORACLE_RTOL * ref:
            bad.append(f"E_T.{mode} {e_t[mode]:.6g} differs from dense {ref:.6g}")
    return bad


def dense_oracle(wl, size, inputs, out):
    """E_T per mode from exact dense Gramians (untimed)."""
    raw = operate(wl, size, inputs, out, method="dense")
    summary = summarize(wl, raw)
    if "error" in summary:
        raise RuntimeError(f"dense oracle failed: {summary['error']}")
    return summary["E_T"]

