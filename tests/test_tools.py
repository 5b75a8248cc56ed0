import solve_fingerprint

from tlbt.gramians import TimeWindow
from tlbt.synthetic import make_synthetic


def _fields(line, skip):
    return dict(item.split("=", 1) for item in line.split()[skip:])


def test_solve_fingerprint_smoke():
    # one line per mode and side, with every field, then one simulation line
    # and one command-line line, and the same lines on a rerun
    corpus = {"wd10": (lambda: make_synthetic("weakly_damped", 10, 1, 1, seed=0),
                       [TimeWindow(t_e=2.0, t_s=0.5)])}
    lines = list(solve_fingerprint.fingerprints(corpus))
    assert len(lines) == 8
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
    for line in lines:
        assert line.startswith("wd10[0.5,2.0] ")
        fields = _fields(line, 3)
        assert list(fields) == ["shifts", "d", "rank", "stop", "mu", "trace", "z", "dense"]
        assert all(len(fields[k]) == 16 for k in ("shifts", "trace", "z", "dense"))
    assert list(solve_fingerprint.fingerprints(corpus)) == [*lines, sim, cli]


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
