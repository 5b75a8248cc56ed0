"""Span tracing of the tlbt modules, installed from outside the package.

``Tracer.install`` replaces every public function of each tlbt module by a
wrapper, at every module binding that refers to it (so
``tlbt.gramians.shifted_solve`` and ``tlbt.systems.shifted_solve`` are the
same traced callable). Each call appends one span (name, start, end,
parent, run id, error) to an in-memory list; ``layer_metrics`` derives
counts, busy time and self time from the spans of one operation.
"""

import functools
import importlib
import json
import re
import time
import types

import numpy as np

MODULES = ("linalg", "systems", "gramians", "reduction", "simulate", "synthetic", "mmio", "cli")
SOLVERS = (
    "gramians.solve_infinite_lowrank",
    "gramians.solve_timelimited_lowrank",
    "gramians.solve_modified_lowrank",
)
SHIFTED_SOLVE = "systems.shifted_solve"
_CAP_MESSAGE = re.compile(r"dim (\d+), mu ([-+.0-9eEinfa]+)")

# (layer metrics, end-to-end metric they should move, heavy on, light on)
LAYER_TABLE = (
    (("systems.shifted_solve.calls", "systems.shifted_solve.s",
      "systems.shifted_solve.complex_frac"),
     "wall_s", "desc1500", "heat20k"),
    (("gramians.self_s", "linalg.orthonormal_extend.calls", "linalg.orthonormal_extend.s"),
     "wall_s, peak_rss_mb", "heat20k", "wd200, heat200"),
    (("linalg.gen_eig.calls", "linalg.gen_eig.s"),
     "wall_s", "wd200, heat200", "heat20k"),
    (("linalg.expm.calls", "linalg.expm.s", "linalg.lyap_dense.calls", "linalg.lyap_dense.s"),
     "wall_s", "wd200", "heat200 (no expm)"),
    (("gramians.solves", "gramians.cap_hits", "gramians.iters", "gramians.checks",
      "gramians.d", "gramians.d_over_n", "gramians.rank", "gramians.rank_over_d",
      "gramians.mu", "gramians.basis_mb"),
     "fail_frac, wall_s (E_T.* must not move)", "heat20k, desc1500, heat200", "-"),
    (("simulate.full_s", "simulate.rom_s", "simulate.steps", "simulate.relative_error_series.s"),
     "wall_s", "heat20k once solves succeed", "wd200, heat200"),
    (("systems.cholesky_transform.s", "systems.eliminate_descriptor.s",
      "systems.spectral_abscissa.s", "reduction.reduce.s", "reduction.hankel_sv.s",
      "reduction.square_root_reduce.s", "linalg.svd.s", "linalg.sym_eig.s"),
     "wall_s, peak_rss_mb", "heat200 (Cholesky), desc1500 (elimination)", "heat20k"),
    (("mmio.load_system.s", "cli.self_s"),
     "wall_s", "wd200", "others (unused)"),
    (("synthetic.make_synthetic.s", "mmio.save_system.s"),
     "setup_s", "all", "-"),
)
LAYER_METRICS = tuple(name for row in LAYER_TABLE for name in row[0])
# metrics that read 0 when the layer never ran; the others are undefined then
_ZERO_WHEN_UNUSED = (".calls", ".s", "self_s", ".solves", ".cap_hits", ".iters", ".checks",
                     ".steps", ".full_s", ".rom_s")


class TraceMismatchError(RuntimeError):
    """The traced calls disagree with what the solver reports it did."""


def implied_solves(shifts):
    """Shifted solves implied by a shift list; a conjugate pair is one solve."""
    count = 0
    skip = False
    for s in shifts[1:]:
        if skip:
            skip = False
            continue
        count += 1
        skip = isinstance(s, complex) and s.imag > 0
    return count


def _system_order(sys_obj):
    return sys_obj.n_f if hasattr(sys_obj, "n_f") else sys_obj.n


def _solver_info(args, out, exc):
    """Scalars kept from a low-rank Gramian solve (never the factors)."""
    if exc is None:
        ws = out.workspace
        return {
            "n": int(ws.q.shape[0]),
            "d": int(out.subspace_dim),
            "rank": int(out.rank),
            "mu": float(out.residual),
            "implied_solves": implied_solves(ws.shifts),
        }
    info = {"n": int(_system_order(args[0]))}
    match = _CAP_MESSAGE.search(str(exc))
    if match:
        info["d"] = int(match.group(1))
        info["mu"] = float(match.group(2))
    return info


def _impulse_info(args, out, exc):
    if exc is not None:
        return {"rom": hasattr(args[0], "to_system")}
    return {"rom": hasattr(args[0], "to_system"), "steps": int(out.times.size - 1)}


def _shift_info(args, out, exc):
    s = args[1] if len(args) > 1 else 0.0
    return {"complex": bool(np.iscomplexobj(np.asarray(s)) and np.imag(s) != 0)}


_HOOKS = {SHIFTED_SOLVE: _shift_info, "simulate.impulse_response": _impulse_info}
_HOOKS.update({name: _solver_info for name in SOLVERS})


class Tracer:
    """In-memory span recorder for the public functions of the tlbt modules."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._patched = []

    def install(self, package):
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": stack[-1] if stack else None,
                "run": self.run,
                "error": None,
            }
            index = len(spans)
            spans.append(span)
            stack.append(index)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                span["error"] = f"{type(err).__name__}: {err}"
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    span.update(hook(args, out, exc))

        traced.__name__ = name
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}, default=str) + "\n")

    def per_call_cost(self, calls=20000):
        """Seconds one traced call adds, from a traced no-op (not recorded)."""
        probe = Tracer()
        noop = probe._wrap(lambda: None, "probe.noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        traced = time.perf_counter() - t0
        plain = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        return max(traced - (time.perf_counter() - t0), 0.0) / calls


def _children(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            kids[span["parent"]].append(i)
    return kids


def _nearest(spans, i, names):
    """Index of the closest ancestor of span i whose name is in names."""
    p = spans[i]["parent"]
    while p is not None and spans[p]["name"] not in names:
        p = spans[p]["parent"]
    return p


def solver_residuals(spans, run):
    """Residuals mu of the successful solves traced in one run."""
    return [s["mu"] for s in spans
            if s["run"] == run and s["name"] in SOLVERS and s["error"] is None]


def _per_solver(spans, run, name):
    """Successful calls of ``name`` per enclosing solver span, in one run."""
    counts = {}
    for i, span in enumerate(spans):
        if span["run"] == run and span["name"] == name and span["error"] is None:
            owner = _nearest(spans, i, SOLVERS)
            if owner is not None:
                counts[owner] = counts.get(owner, 0) + 1
    return counts


def cross_check(spans, run):
    """Each successful solve's traced shifted solves equal its implied solves."""
    counted = _per_solver(spans, run, SHIFTED_SOLVE)
    for i, span in enumerate(spans):
        if span["run"] == run and span["name"] in SOLVERS and span["error"] is None:
            traced = counted.get(i, 0)
            if traced != span["implied_solves"]:
                raise TraceMismatchError(
                    f"{span['name']} in run {run}: {traced} traced {SHIFTED_SOLVE} calls, "
                    f"{span['implied_solves']} implied by workspace.shifts"
                )


def layer_metrics(spans, run):
    """Counts, busy and self seconds per function and module for one run id."""
    idx = [i for i, s in enumerate(spans) if s["run"] == run]
    kids = _children(spans)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i in idx:
        span = spans[i]
        name = span["name"]
        dur = span["end"] - span["start"]
        self_s = dur - sum(spans[k]["end"] - spans[k]["start"] for k in kids[i])
        add(f"{name}.calls", 1)
        if _nearest(spans, i, {name}) is None:  # outermost call: busy time
            add(f"{name}.s", dur)
        add(f"{name.split('.')[0]}.self_s", self_s)
    for key in [k for k in out if k.endswith(".calls")]:
        out[key] = int(out[key])

    shifted = [spans[i] for i in idx if spans[i]["name"] == SHIFTED_SOLVE]
    if shifted:
        out[f"{SHIFTED_SOLVE}.complex_frac"] = sum(s["complex"] for s in shifted) / len(shifted)

    solves = [spans[i] for i in idx if spans[i]["name"] in SOLVERS]
    out.update(_solver_metrics(spans, run, solves))

    sims = [spans[i] for i in idx if spans[i]["name"] == "simulate.impulse_response"]
    if sims:
        out["simulate.full_s"] = sum(s["end"] - s["start"] for s in sims if not s["rom"])
        out["simulate.rom_s"] = sum(s["end"] - s["start"] for s in sims if s["rom"])
        out["simulate.steps"] = sum(s.get("steps", 0) for s in sims)
    for name in LAYER_METRICS:
        if name not in out:
            out[name] = 0 if name.endswith(_ZERO_WHEN_UNUSED) else None
    return out


def _solver_metrics(spans, run, solves):
    if not solves:
        return {}
    dims = [s for s in solves if "d" in s]
    done = [s for s in solves if s["error"] is None]
    out = {
        "gramians.solves": len(solves),
        "gramians.cap_hits": sum(
            1 for s in solves if s["error"] and s["error"].startswith("MaxDimExceededError")
        ),
        "gramians.iters": sum(_per_solver(spans, run, SHIFTED_SOLVE).values()),
        "gramians.checks": sum(_per_solver(spans, run, "linalg.lyap_dense").values()),
    }
    if dims:
        out["gramians.d"] = float(np.mean([s["d"] for s in dims]))
        out["gramians.d_over_n"] = float(np.mean([s["d"] / s["n"] for s in dims]))
        out["gramians.mu"] = float(max(s["mu"] for s in dims))
        out["gramians.basis_mb"] = float(max(8.0 * s["n"] * s["d"] / 1e6 for s in dims))
    if done:
        out["gramians.rank"] = float(np.mean([s["rank"] for s in done]))
        out["gramians.rank_over_d"] = float(np.mean([s["rank"] / s["d"] for s in done]))
    return out
