import solve_fingerprint

from tlbt.gramians import TimeWindow
from tlbt.synthetic import make_synthetic


def test_solve_fingerprint_smoke():
    # one line per mode and side, with every field, then one simulation line,
    # and the same lines on a rerun
    corpus = {"wd10": (lambda: make_synthetic("weakly_damped", 10, 1, 1, seed=0),
                       [TimeWindow(t_e=2.0, t_s=0.5)])}
    lines = list(solve_fingerprint.fingerprints(corpus))
    assert len(lines) == 7
    sim = lines.pop()
    assert sim.startswith("wd10 sim ")
    fields = dict(item.split("=", 1) for item in sim.split()[2:])
    assert list(fields) == ["full", "rom"]
    assert all(len(value) == 16 for value in fields.values())
    for line in lines:
        assert line.startswith("wd10[0.5,2.0] ")
        fields = dict(item.split("=", 1) for item in line.split()[3:])
        assert list(fields) == ["shifts", "d", "rank", "stop", "mu", "trace", "z", "dense"]
        assert all(len(fields[k]) == 16 for k in ("shifts", "trace", "z", "dense"))
    assert list(solve_fingerprint.fingerprints(corpus)) == [*lines, sim]
