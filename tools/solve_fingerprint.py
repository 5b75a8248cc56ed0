"""Fingerprints of the Gramian solves on a fixed corpus, for bit-identity checks.

Prints one line per (system, window, mode, side) of the corpus: a hash of
the Krylov shifts, the number of finite poles (a conjugate pair counted
once, so one shifted solve each), the subspace dimension d, the rank, the
stop reason, mu, a hash of the check trace (shift, d, f_change and mu at
every check), a hash of the low-rank factor Z, ``zdense=1`` when Z is
``factor_psd`` of the dense Gramian bit for bit (else 0), and a hash of
the dense Gramian. wd60 and heat200 are then solved again on a fresh copy with the modes in
reverse order (mtlbt, tlbt, bt); those ``rev`` lines carry the same
fields as the first ones, as no solve depends on which modes its system
solved before. After a system's solves, one ``sim`` line hashes the
impulse response of the system and of its bt model of order 4, over its
first window's [0, t_e] at dt = t_e/1000. Then one ``cli`` line saves
the system with ``save_system`` and runs ``tlbt hsv`` (bt, tlbt),
``tlbt reduce`` (bt, tlbt, order 4) and ``tlbt compare`` (every mode,
order 4, dt = t_e/1000) on it over the first window, and two forced
``tlbt simulate`` runs over [0, t_e] at dt = t_e/1000: ``--input step
--step-scale 2`` and ``--input file`` (``_INPUT_FILE``, its times scaled
by t_e); it hashes the name and bytes of every file each command writes. Two checkouts that print the same lines solve,
simulate and write the corpus bit for bit alike. A solve or simulation
that raises prints the exception's class in place of its fields, and a
command that fails prints its exit code in place of its hash.
Run it from the root of each checkout and compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/solve_fingerprint.py > after.txt
    diff before.txt after.txt

The hashes depend on the BLAS in use and on its thread count, so compare
runs made on one machine with one thread setting. The corpus builders live here, and the tests import
``random_descriptor`` and ``convection_diffusion`` from this module, so a
change to the tests never changes the corpus.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from tlbt import (DescriptorIndex1, StandardSystem, TimeWindow, cli, impulse_response,
                  make_synthetic, reduce)
from tlbt.gramians import MODES, SIDES, factor_psd, mode_gramian
from tlbt.mmio import save_system


def _digest(a):
    """First 16 hex digits of the SHA-256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def random_descriptor(nf, na, m, p, seed):
    """Index-1 descriptor with a stable eliminated part."""
    rng = np.random.default_rng(seed)
    base = make_synthetic("random_stable", nf, m, p, seed=seed)
    return DescriptorIndex1(
        M1=np.eye(nf),
        A1=base.A,
        A2=0.2 * rng.standard_normal((nf, na)),
        A3=0.2 * rng.standard_normal((na, nf)),
        A4=2.0 * np.eye(na) + 0.1 * rng.standard_normal((na, na)),
        B1=base.B,
        B2=0.3 * rng.standard_normal((na, m)),
        C1=base.C,
        C2=0.3 * rng.standard_normal((p, na)),
    )


def convection_diffusion(k, conv=(10.0, 100.0), seed=1):
    """Sparse 2D convection-diffusion system on the unit square, n = k^2.

    Central differences on a k x k interior grid give ``A = Laplacian -
    conv . grad``; at cell Peclet numbers above one (``conv[1] h / 2`` here)
    A is non-normal with complex eigenvalues.
    """
    h = 1.0 / (k + 1)
    e = np.ones(k)
    lap = sp.diags([e[1:], -2.0 * e, e[1:]], [-1, 0, 1]) / h**2
    grad = sp.diags([-e[1:], e[1:]], [-1, 1]) / (2.0 * h)
    eye = sp.identity(k)
    a = (sp.kron(eye, lap) + sp.kron(lap, eye)
         - conv[0] * sp.kron(eye, grad) - conv[1] * sp.kron(grad, eye))
    rng = np.random.default_rng(seed)
    return StandardSystem(a.tocsr(), rng.standard_normal((k * k, 2)),
                          rng.standard_normal((2, k * k)))


def _symmetric(n=40):
    """Dense standard system with a symmetric tridiagonal A (real spectrum)."""
    a = 4.0 * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
               + np.diag(np.ones(n - 1), -1))
    rng = np.random.default_rng(0)
    return StandardSystem(a, rng.standard_normal((n, 2)), rng.standard_normal((2, n)))


def _synth(kind, n):
    return lambda: make_synthetic(kind, n, 2, 2, seed=1)


#: name -> (system builder, windows); every window runs every mode and side
CORPUS = {
    "wd60": (_synth("weakly_damped", 60), [TimeWindow(t_e=5.0), TimeWindow(t_e=5.0, t_s=1.0)]),
    "wd200": (_synth("weakly_damped", 200), [TimeWindow(t_e=1.0)]),
    "heat200": (_synth("heat_like", 200),
                [TimeWindow(t_e=0.05), TimeWindow(t_e=0.05, t_s=0.01)]),
    "rs100": (_synth("random_stable", 100), [TimeWindow(t_e=2.0)]),
    "desc40": (lambda: random_descriptor(40, 10, 2, 2, seed=3), [TimeWindow(t_e=1.0)]),
    "cd400": (lambda: convection_diffusion(20), [TimeWindow(t_e=0.01)]),
    "sym40": (_symmetric, [TimeWindow(t_e=1.0)]),
}


#: systems of the corpus solved once more, on a fresh copy, in reverse mode order
REVERSED = ("wd60", "heat200")


def fingerprints(corpus, reverse=REVERSED):
    """One line per (system, window, mode, side) of ``corpus``, then a ``sim`` and a ``cli`` line.

    Each system is built once, so its later solves replay the shifts and
    the projected work of its earlier ones, as a multi-mode command's do.
    A system named in ``reverse`` is then built again and solved with the
    modes in reverse order: its ``rev`` lines must equal its first lines.
    """
    for name, (build, windows) in corpus.items():
        system = build()
        yield from _solves(name, system, windows, MODES, "")
        if name in reverse:
            yield from _solves(name, build(), windows, MODES[::-1], " rev")
        yield f"{name} sim {_simulate(system, windows[0].t_e)}"
        yield f"{name} cli {_cli(system, windows[0])}"


def _solves(name, system, windows, modes, label):
    """One line per (window, mode, side), the modes in the given order."""
    for window in windows:
        tag = f"{name}[{window.t_s!r},{window.t_e!r}]"
        for mode in modes:
            for side in SIDES:
                yield f"{tag} {mode} {side[:5]}{label} {_solve(system, mode, window, side)}"


def _solve(system, mode, window, side):
    """The fingerprint fields of one Krylov solve and one dense Gramian."""
    try:
        g = mode_gramian(system, mode, window, side=side)
        shifts = np.array(g.workspace.shifts, dtype=complex)
        trace = hashlib.sha256(repr([tuple(row.values()) for row in g.trace]).encode())
        poles = int(np.sum(np.isfinite(shifts) & (shifts.imag >= 0)))
        krylov = (f"shifts={_digest(shifts)} poles={poles} d={g.subspace_dim} rank={g.rank} "
                  f"stop={g.stop} mu={g.residual!r} trace={trace.hexdigest()[:16]} "
                  f"z={_digest(g.z)}")
    except Exception as exc:  # a failure is a fingerprint too
        g, krylov = None, f"krylov={type(exc).__name__}"
    try:
        p = mode_gramian(system, mode, window, side=side, method="dense")
        dense = _digest(p)
    except Exception as exc:
        p, dense = None, type(exc).__name__
    if g is not None:
        krylov += f" zdense={int(p is not None and np.array_equal(g.z, factor_psd(p)))}"
    return f"{krylov} dense={dense}"


def _simulate(system, t_e):
    """Hashes of the impulse responses of ``system`` and of its bt model of order 4."""
    fields = []
    for key, build in (("full", lambda: system), ("rom", lambda: reduce(system, "bt", r=4))):
        try:
            value = _digest(impulse_response(build(), dt=t_e / 1000, t_f=t_e).outputs)
        except Exception as exc:
            value = type(exc).__name__
        fields.append(f"{key}={value}")
    return " ".join(fields)


#: rows (t / t_e, u1, u2) of the ``--input file`` CSV; a one-input system reads u1
_INPUT_FILE = ((0.0, 1.0, 0.0), (0.25, -1.0, 2.0), (0.5, 0.5, 1.0), (1.0, 0.0, -1.0))


def _cli(system, window):
    """Hashes of the files that ``tlbt hsv``, ``reduce``, ``compare`` and ``simulate`` write."""
    span = ["--ts", repr(window.t_s), "--te", repr(window.t_e)]
    grid = ["--dt", repr(window.t_e / 1000), "--tf", repr(window.t_e)]
    bt_tlbt = ["--mode", "bt", "--mode", "tlbt"]
    fields = []
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = save_system(tmp, "plant", system)
        u_csv = Path(tmp) / "u.csv"
        u_csv.write_text("t,u1,u2\n" + "".join(
            f"{frac * window.t_e!r},{u1!r},{u2!r}\n" for frac, u1, u2 in _INPUT_FILE))
        commands = {"hsv": ["hsv", *bt_tlbt, *span],
                    "reduce": ["reduce", *bt_tlbt, "--order", "4", *span],
                    "compare": ["compare", *bt_tlbt, "--mode", "mtlbt", "--order", "4", *span,
                                "--dt", repr(window.t_e / 1000)],
                    "step": ["simulate", "--input", "step", "--step-scale", "2", *grid],
                    "file": ["simulate", "--input", "file", "--input-file", str(u_csv), *grid]}
        for key, argv in commands.items():
            out = Path(tmp) / key
            argv = [*argv, "--system", str(sidecar), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                fields.append(f"{key}={rc}")
                continue
            h = hashlib.sha256()
            for path in sorted(out.iterdir()):
                h.update(f"{path.name}\0".encode())
                h.update(path.read_bytes())
            fields.append(f"{key}={h.hexdigest()[:16]}")
    return " ".join(fields)


def main():
    for line in fingerprints(CORPUS):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
