import warnings

import scale_check
import solve_fingerprint

from tlbt.gramians import SolverConfig, TimeWindow
from tlbt.synthetic import make_synthetic


def _fields(line, skip):
    return dict(item.split("=", 1) for item in line.split()[skip:])


def test_solve_fingerprint_smoke():
    # one line per mode and side, with every field, the same fields in
    # reverse mode order on a fresh copy, then one simulation line and one
    # command-line line, and the same lines on a rerun
    corpus = {"wd10": (lambda: make_synthetic("weakly_damped", 10, 1, 1, seed=0),
                       [TimeWindow(t_e=2.0, t_s=0.5)])}
    lines = list(solve_fingerprint.fingerprints(corpus, reverse=("wd10",)))
    assert len(lines) == 14
    cli = lines.pop()
    assert cli.startswith("wd10 cli ")
    fields = _fields(cli, 2)
    assert list(fields) == ["hsv", "reduce", "compare"]
    assert all(len(value) == 16 for value in fields.values())
    sim = lines.pop()
    assert sim.startswith("wd10 sim ")
    fields = _fields(sim, 2)
    assert list(fields) == ["full", "rom"]
    assert all(len(value) == 16 for value in fields.values())
    forward, rev = lines[:6], lines[6:]
    for line in forward:
        assert line.startswith("wd10[0.5,2.0] ")
        fields = _fields(line, 3)
        assert list(fields) == ["shifts", "d", "rank", "stop", "mu", "trace", "z", "dense"]
        assert all(len(fields[k]) == 16 for k in ("shifts", "trace", "z", "dense"))
    assert [line.split()[1] for line in rev] == ["mtlbt"] * 2 + ["tlbt"] * 2 + ["bt"] * 2
    by_solve = {tuple(line.split()[:3]): _fields(line, 3) for line in forward}
    for line in rev:
        assert line.split()[3] == "rev"
        assert _fields(line, 4) == by_solve[tuple(line.split()[:3])]
    assert list(solve_fingerprint.fingerprints(corpus, reverse=("wd10",))) == [*lines, sim, cli]
    assert len(list(solve_fingerprint.fingerprints(corpus))) == 8  # only the named systems


def test_cli_fingerprint_reports_exit_codes():
    # three states cannot be reduced to order 4: reduce and compare exit 3,
    # and their exit codes stand in place of the hashes; hsv still succeeds
    window = TimeWindow(t_e=2.0, t_s=0.5)
    small = _fields(solve_fingerprint._cli(make_synthetic("random_stable", 3, 1, 1), window), 0)
    assert len(small["hsv"]) == 16
    assert small["reduce"] == small["compare"] == "3"
    large = _fields(solve_fingerprint._cli(make_synthetic("random_stable", 8, 1, 1), window), 0)
    assert large["hsv"] != small["hsv"]
    assert all(len(value) == 16 for value in large.values())


def _scale_rows(system, cases, sides):
    """``scale_check.check`` rows of ``(mode, t_e[, t_s])`` cases, bt's ``(mode,)``.

    n > 1000 warns that it is unverified.
    """
    cfg = SolverConfig(tol_f=1e-8, tol_p=1e-8)
    rows = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "system too large for dense stability verification")
        for mode, *times in cases:
            window = TimeWindow(*times) if times else None
            rows += [(mode, scale_check.check(system, mode, window, cfg, side)) for side in sides]
    return rows


def test_scale_check_smoke():
    # cd n = 2,500 (M = I, sparse) and heat_like n = 400 (an SPD mass matrix,
    # so M^{-1} A is a LinearOperator), with a window starting after 0, and
    # random_stable n = 300 with ends near 5e-14 ||B||: every true residual
    # meets tol_p, and that of Q Y Q^T is within 10x of what mu and the
    # ends' error account for
    cd = solve_fingerprint.convection_diffusion(50)
    heat = make_synthetic("heat_like", 400, 2, 2, seed=1)
    rs = make_synthetic("random_stable", 300, 2, 2, seed=1)
    reach = ["reachability"]
    rows = (_scale_rows(cd, [("bt",), ("tlbt", 0.001), ("tlbt", 0.01)], reach)
            + _scale_rows(heat, [("bt",), ("tlbt", 0.001)], ["reachability", "observability"])
            + _scale_rows(heat, [("tlbt", 0.05, 0.01)], reach)
            + _scale_rows(rs, [("tlbt", 60.0)], reach))
    assert len(rows) == 9
    for mode, row in rows:
        assert row["stop"] == "converged" and row["d"] < 200 and 0 < row["rank"] <= row["d"]
        assert (row["ends"] is None) == (mode == "bt")
        assert max(row["zz"], row["qyq"]) <= 1e-8
        assert row["qyq"] <= 10 * max(row["mu"], row["ends"] or 0.0)


def test_scale_check_prints_one_line_per_mode_and_side(capsys):
    assert scale_check.main(["--synth", "random_stable", "--n", "30", "--te", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1:3] for line in lines] == [
        [mode, side] for mode in ("bt", "tlbt", "mtlbt") for side in ("reach", "obser")]
    assert all(f"{key}=" in line for line in lines
               for key in ("d", "rank", "mu", "stop", "ends", "zz", "qyq"))
    assert "ends=-" in lines[0] and "ends=-" not in lines[2]
