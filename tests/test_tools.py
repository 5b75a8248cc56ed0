import solve_fingerprint

from tlbt.gramians import TimeWindow
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
