"""Command-line front end for batch Gramian, reduction, and validation runs.

Subcommands: synth, gramian, hsv, reduce, simulate, compare; hsv, reduce and
compare balance through one stage. Systems come from a Matrix Market set
with a JSON sidecar (--system plant.json) or a generator (--synth ...).
Numbers are written at 17 significant digits, tables as numeric CSV; result
files hold no timings unless --timings is given, so identical runs write
identical bytes. Every command computes all it writes before it creates
--out, so a failed run leaves no --out behind.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import mmio, reduction, simulate, synthetic
from .errors import TlbtError
from .gramians import SIDES, SolverConfig, TimeWindow, mode_gramian

__all__ = ["main"]


def _fmt(x):
    """17-significant-digit text for a float."""
    return f"{float(x):.17g}"


def _add_system_args(p):
    src = p.add_argument_group("system source")
    src.add_argument("--system", help="JSON sidecar of a Matrix Market system set")
    src.add_argument("--synth", choices=synthetic.KINDS, help="builtin synthetic generator")
    src.add_argument("--n", type=int, default=100, help="synthetic state dimension")
    src.add_argument("--m", type=int, default=1, help="synthetic input count")
    src.add_argument("--p", type=int, default=1, help="synthetic output count")
    src.add_argument("--seed", type=int, default=0, help="synthetic generator seed")
    src.add_argument("--damping", type=float, default=0.05, help="weakly_damped damping")


def _add_solver_args(p, method=True):
    g = p.add_argument_group("solver")
    g.add_argument("--ts", type=float, default=0.0, help="window start time")
    g.add_argument("--te", type=float, default=None, help="window end time")
    g.add_argument("--tol-f", type=float, default=1e-8, dest="tol_f")
    g.add_argument("--tol-p", type=float, default=1e-8, dest="tol_p")
    g.add_argument("--max-dim", type=int, default=None, dest="max_dim")
    if method:
        g.add_argument("--method", choices=("krylov", "dense"), default="krylov")


def _add_sim_args(p):
    g = p.add_argument_group("simulation")
    g.add_argument("--dt", type=float, default=0.01, help="integrator step")
    g.add_argument("--tf", type=float, default=None, help="simulation horizon")
    g.add_argument("--input", choices=("impulse", "step", "file"), default="impulse")
    g.add_argument("--step-scale", type=float, default=1.0, dest="step_scale")
    g.add_argument("--input-file", dest="input_file", help="CSV (t, u1..um) for --input file")


def _load_system(args):
    if args.system:
        sys_obj, meta = mmio.load_system(args.system)
        return sys_obj, meta.get("name", Path(args.system).stem)
    if args.synth:
        sys_obj = synthetic.make_synthetic(
            args.synth, args.n, args.m, args.p, seed=args.seed, damping=args.damping
        )
        return sys_obj, f"{args.synth}_n{args.n}_s{args.seed}"
    raise ValueError("either --system or --synth is required")


def _window(args):
    if args.te is not None:
        return TimeWindow(t_e=args.te, t_s=args.ts)
    if args.command == "compare":
        raise ValueError("compare requires --te")
    timed = [mode for mode in args.mode if mode != "bt"]
    if timed:
        raise ValueError(f"mode {timed[0]!r} needs a time window (--te)")
    return None


def _config(args):
    return SolverConfig(tol_f=args.tol_f, tol_p=args.tol_p, max_dim=args.max_dim)


def _balancings(args):
    """The system, its name, its window (flags checked) and a generator of each mode's Balancing."""
    sys_obj, name = _load_system(args)
    window, cfg = _window(args), _config(args)
    bals = (reduction.balance(sys_obj, mode, window, cfg, args.method) for mode in args.mode)
    return sys_obj, name, window, bals


def _orders(args):
    """The requested reduced orders; an order below 1 is a configuration error."""
    if min(args.order) < 1:
        raise ValueError(f"--order must be >= 1, got {min(args.order)}")
    return args.order


def _input_signal(args, m):
    if args.input == "impulse":
        return simulate.impulse_input()
    if args.input == "step":
        return simulate.step_input(args.step_scale)
    if not args.input_file:
        raise ValueError("--input file requires --input-file")
    # the data rows after the header, blank and comment lines left out, as loadtxt leaves them
    rows = [line for line in Path(args.input_file).read_text().splitlines()[1:]
            if line.split("#", 1)[0].strip()]
    if not rows:
        raise ValueError("--input-file has no data rows")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] < m + 1:
        raise ValueError(f"--input-file has {data.shape[1] - 1} input columns, fewer than m={m}")
    tgrid, vals = data[:, 0], data[:, 1 : m + 1]
    if not (np.all(np.isfinite(data[:, : m + 1])) and np.all(np.diff(tgrid) > 0)):
        raise ValueError("--input-file needs finite values and strictly increasing times")

    def fn(t):
        return np.array([np.interp(t, tgrid, vals[:, j]) for j in range(m)])

    return simulate.custom_input(fn)


def _write_csv(path, header, rows):
    """A numeric table at 17 significant digits under a comma-separated header."""
    np.savetxt(path, np.asarray(rows, float), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    sys_obj = synthetic.make_synthetic(
        args.kind, args.n, args.m, args.p, seed=args.seed, damping=args.damping
    )
    sidecar = mmio.save_system(_out_dir(args), args.name, sys_obj)
    print(f"wrote {sidecar}")
    return 0


def cmd_gramian(args):
    sys_obj, name = _load_system(args)
    window, cfg = _window(args), _config(args)
    sides = {"reach": ["reachability"], "obs": ["observability"]}.get(args.side, SIDES)
    solves = [[(side, mode_gramian(sys_obj, mode, window, cfg, side)) for side in sides]
              for mode in args.mode]
    out = _out_dir(args)
    for mode, pairs in zip(args.mode, solves):
        summary = {"mode": mode, "t_s": args.ts, "t_e": args.te}
        for side, g in pairs:
            tag = "ZP" if side == "reachability" else "ZQ"
            mmio.write_matrix(out / f"{name}_{tag}_{mode}.mtx", g.z)
            if args.trace:
                _write_csv(out / f"{name}_trace_{tag}_{mode}.csv",
                           ["k", "shift_re", "shift_im", "dim", "f_change", "mu"],
                           [(row["k"], np.real(row["shift"]), np.imag(row["shift"]), row["dim"],
                             row["f_change"], row["mu"]) for row in g.trace])
            summary[side] = {"d": g.subspace_dim, "rank": g.rank, "mu": g.residual, "stop": g.stop}
            if args.timings:
                summary[side]["seconds"] = g.wall_time
            print(
                f"{name} {mode} {side}: d={g.subspace_dim} rank={g.rank} "
                f"mu={_fmt(g.residual)} seconds={_fmt(g.wall_time)}"
            )
        mmio._write_json(out / f"{name}_gramian_{mode}.json", summary)
    return 0


def cmd_hsv(args):
    _, name, _, bals = _balancings(args)
    hsvs = [(bal.mode, bal.hsv) for bal in bals]
    out = _out_dir(args)
    for mode, hsv in hsvs:
        _write_csv(out / f"{name}_hsv_{mode}.csv", ["index", "sigma"],
                   [(i + 1, v) for i, v in enumerate(hsv)])
        shown = ", ".join(_fmt(v) for v in hsv[:5])
        print(f"{name} {mode}: {hsv.size} singular values, leading [{shown}]")
    return 0


def _export_reduced(out, name, rom, timings=False):
    tag = f"{name}_{rom.mode}_r{rom.order}"
    mmio.save_system(out, tag, rom)
    meta = {
        "mode": rom.mode,
        "r": rom.order,
        "t_s": rom.window.t_s if rom.window else None,
        "t_e": rom.window.t_e if rom.window else None,
        "sigma": [float(v) for v in rom.hsv],
        "stable": int(rom.stable),
        "E_T": None,
        "mu_p": rom.info.get("mu_p"),
        "mu_q": rom.info.get("mu_q"),
        "feedthrough_retained": bool(np.any(rom.D)),
    }
    if timings:
        meta["t_mor"] = rom.info.get("t_mor")
    mmio._write_json(out / f"{tag}_meta.json", meta)


def cmd_reduce(args):
    _, name, _, bals = _balancings(args)
    orders = _orders(args)
    roms = [bal.truncate(r) for bal in bals for r in orders]
    out = _out_dir(args)
    for rom in roms:
        _export_reduced(out, name, rom, timings=args.timings)
        print(
            f"{name} {rom.mode} r={rom.order}: stable={int(rom.stable)} "
            f"t_mor={_fmt(rom.info.get('t_mor', 0.0))}"
        )
    return 0


def cmd_simulate(args):
    sys_obj, name = _load_system(args)
    u = _input_signal(args, sys_obj.m)
    traj = simulate.implicit_midpoint(sys_obj, u, None, args.dt, args.tf)
    out = _out_dir(args)
    cols = [f"y{j + 1}" for j in range(traj.outputs.shape[1])]
    norms = traj.output_norms()
    _write_csv(
        out / f"{name}_response.csv",
        ["t", *cols, "ynorm"],
        [(t, *row, nrm) for t, row, nrm in zip(traj.times, traj.outputs, norms)],
    )
    summary = {
        "dt": args.dt,
        "t_f": args.tf,
        "input": args.input,
        "max_output_norm": float(np.max(norms)),
    }
    mmio._write_json(out / f"{name}_response.json", summary)
    print(f"{name}: simulated {traj.times.size - 1} steps, wrote {name}_response.csv")
    return 0


def cmd_compare(args):
    sys_obj, name, window, bals = _balancings(args)
    orders = sorted(_orders(args))
    tf = args.tf if args.tf is not None else args.te
    u = _input_signal(args, sys_obj.m)
    ref = simulate.implicit_midpoint(sys_obj, u, None, args.dt, tf)
    simulate.relative_error_series(ref, ref, window)  # an empty error window, before any solve

    results = []
    for bal in bals:
        for r in orders:
            rom = bal.truncate(r)
            red = simulate.implicit_midpoint(rom, u, None, args.dt, tf)
            results.append((rom, *simulate.relative_error_series(ref, red, window)))
    out = _out_dir(args)

    table = []
    for rom, err, e_max in results:
        mode, r = rom.mode, rom.order
        _write_csv(out / f"{name}_error_t_{mode}_r{r}.csv", ["t", "E"], list(zip(ref.times, err)))
        entry = {"mode": mode, "r": r, "E_T": e_max, "stable": int(rom.stable)}
        if args.timings:
            entry["t_mor"] = rom.info["t_mor"]
        table.append(entry)
        print(f"{name} {mode} r={r}: E_T={_fmt(e_max)} stable={int(rom.stable)}")

    e_t = {(entry["mode"], entry["r"]): entry["E_T"] for entry in table}
    _write_csv(
        out / f"{name}_errors_vs_order.csv",
        ["r", *args.mode],
        [(r, *[e_t[mode, r] for mode in args.mode]) for r in orders],
    )
    payload = {
        "system": name,
        "input": args.input,
        "t_s": args.ts,
        "t_e": args.te,
        "dt": args.dt,
        "t_f": tf,
        "seed": args.seed,
        "results": table,
    }
    mmio._write_json(out / f"{name}_compare.json", payload)
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tlbt",
        description="Balanced truncation with finite-time Gramians: solvers, reduction, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate and save a synthetic system")
    p.add_argument("--kind", choices=synthetic.KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--damping", type=float, default=0.05)
    p.add_argument("--name", default="plant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gramian", help="compute low-rank Gramian factors")
    _add_system_args(p)
    _add_solver_args(p, method=False)
    p.add_argument("--mode", action="append", choices=reduction.MODES, required=True)
    p.add_argument("--side", choices=("reach", "obs", "both"), default="both")
    p.add_argument("--trace", action="store_true", help="write per-iteration trace CSV")
    p.add_argument(
        "--timings", action="store_true", help="include solve seconds in the JSON summary"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gramian)

    p = sub.add_parser("hsv", help="Hankel singular values (per mode)")
    _add_system_args(p)
    _add_solver_args(p)
    p.add_argument("--mode", action="append", choices=reduction.MODES, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hsv)

    p = sub.add_parser("reduce", help="reduce to the requested orders")
    _add_system_args(p)
    _add_solver_args(p)
    p.add_argument("--mode", action="append", choices=reduction.MODES, required=True)
    p.add_argument("--order", action="append", type=int, required=True)
    p.add_argument("--timings", action="store_true", help="include t_mor in the JSON metadata")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="time-domain response of a system")
    _add_system_args(p)
    _add_sim_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, tf=1.0)

    p = sub.add_parser("compare", help="reduction error comparison across modes/orders")
    _add_system_args(p)
    _add_solver_args(p)
    _add_sim_args(p)
    p.add_argument("--mode", action="append", choices=reduction.MODES, required=True)
    p.add_argument("--order", action="append", type=int, required=True)
    p.add_argument("--timings", action="store_true", help="include wall times in the JSON table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name in ("mode", "order"):  # a repeated value is run and written once
        if getattr(args, name, None):
            setattr(args, name, list(dict.fromkeys(getattr(args, name))))
    try:
        return args.func(args)
    except TlbtError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
