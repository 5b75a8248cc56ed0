"""The public surface: every exported name resolves and is owned by a module.

Guards against ``__all__`` entries left behind when a helper is deleted or
moved, against package re-exports that bypass a module's ``__all__``,
against losing the solver functions the benchmark's tracer wraps or the
consistency checks it runs on them, against settings read from the
environment, and against importing scipy.spatial.
"""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tlbt

MODULES = sorted(info.name for info in pkgutil.iter_modules(tlbt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"tlbt.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"tlbt.{name}.__all__ names missing attributes: {missing}"


def test_package_all_names_resolve():
    assert len(set(tlbt.__all__)) == len(tlbt.__all__)
    missing = [attr for attr in tlbt.__all__ if not hasattr(tlbt, attr)]
    assert not missing, f"tlbt.__all__ names missing attributes: {missing}"


def test_package_reexports_are_in_their_module_all():
    stray = []
    for attr in tlbt.__all__:
        obj = getattr(tlbt, attr)
        owner = getattr(obj, "__module__", None)
        if owner is None or not owner.startswith("tlbt."):
            continue  # a submodule, not a re-export
        if attr not in importlib.import_module(owner).__all__:
            stray.append(f"{owner}.{attr}")
    assert not stray, f"re-exported but not in the module's __all__: {stray}"


def test_no_module_reads_the_environment():
    # every setting is an argument or a module constant, never an environment variable
    banned = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(tlbt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert not names & banned, f"tlbt/{path.name} reads the environment"


def test_import_leaves_out_scipy_spatial():
    # the shift rule's hull is computed in numpy; importing scipy.spatial (qhull)
    # would cost every process its memory and import time, so only tests use it
    src = str(Path(tlbt.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import tlbt, tlbt.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.spatial')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout


SYSTEM_CLASSES = {"StandardSystem", "GeneralizedSystem", "DescriptorIndex1"}
ALLOWED = "systems._dense_standard"


def test_no_isinstance_on_system_classes():
    # a system answers for its own kind (pencil, rows, step, state matrix);
    # only the dense-standard Schur route asks which class it holds
    found = []
    for path in sorted(Path(tlbt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and f"{path.stem}.{fn.name}" == ALLOWED
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and id(node) not in allowed):
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                if named & SYSTEM_CLASSES:
                    found.append(f"tlbt/{path.name}:{node.lineno}")
    assert not found, f"isinstance on a system class: {found}"


def test_only_systems_names_dense():
    # B, C and D are dense from construction: how a system holds them is the
    # decision of tlbt.systems alone, so no other module converts them
    found = []
    for path in sorted(Path(tlbt.__file__).parent.glob("*.py")):
        if path.name == "systems.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            if "_dense" in names:
                found.append(f"tlbt/{path.name}:{node.lineno}")
    assert not found, f"_dense outside tlbt/systems.py: {found}"


def _tracing():
    """The benchmark's tracer module, perfbench/tracing.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_solvers_are_public_gramian_functions():
    # perfbench/tracing.py wraps the public functions of each module and checks
    # each Krylov solve's shifted solves inside the span of one of its SOLVERS
    tracing = _tracing()
    gramians = importlib.import_module("tlbt.gramians")
    for name in tracing.SOLVERS:
        module, attr = name.split(".")
        assert module == "gramians" and attr in gramians.__all__, name
        fn = getattr(gramians, attr)
        assert isinstance(fn, types.FunctionType) and fn.__module__ == "tlbt.gramians", name


def test_tracer_cross_checks_a_repeated_reduce():
    # the second reduce of one system replays its cached shifts: its shifted
    # solves still run inside the solver spans, and it reports the same solves
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(tlbt)
    try:
        s = tlbt.make_synthetic("heat_like", 200, 2, 2, seed=1)
        cfg = tlbt.SolverConfig(tol_f=1e-8, tol_p=1e-8)
        for run in (0, 1):
            tracer.run = run
            tlbt.reduce(s, "bt", r=20, cfg=cfg)
    finally:
        tracer.uninstall()
    metrics = []
    for run in (0, 1):
        tracing.cross_check(tracer.spans, run)
        metrics.append(tracing.layer_metrics(tracer.spans, run))
    assert metrics[0]["gramians.iters"] > 0
    for key in ("gramians.iters", "gramians.d"):
        assert metrics[1][key] == metrics[0][key], key


def test_tracer_cross_checks_every_mode():
    # a traced balance of each mode keeps the tracer's contract: every solve
    # span holds exactly the shifted solves its workspace.shifts imply, and
    # the solver metrics the benchmark reports are positive
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(tlbt)
    try:
        tracer.run = 0
        s = tlbt.make_synthetic("weakly_damped", 40, 2, 2, seed=1)
        for mode in ("bt", "tlbt", "mtlbt"):
            tlbt.balance(s, mode, tlbt.TimeWindow(t_e=1.0))
    finally:
        tracer.uninstall()
    tracing.cross_check(tracer.spans, 0)
    metrics = tracing.layer_metrics(tracer.spans, 0)
    assert metrics["gramians.solves"] == 6
    for key in ("gramians.iters", "gramians.d", "gramians.rank"):
        assert metrics[key] > 0, key


def test_tracer_tells_full_from_reduced_simulations():
    # the tracer counts an impulse response as the reduced model's when its
    # system has ``to_system``: a reduced model has it, a plain system must not
    assert hasattr(tlbt.ReducedModel, "to_system")
    assert not hasattr(tlbt.StandardSystem, "to_system")
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(tlbt)
    try:
        tracer.run = 0
        s = tlbt.make_synthetic("weakly_damped", 40, 2, 2, seed=1)
        rom = tlbt.reduce(s, "bt", r=6)
        for sys in (s, rom):
            tlbt.impulse_response(sys, dt=1e-2, t_f=1.0)
    finally:
        tracer.uninstall()
    tracing.cross_check(tracer.spans, 0)
    metrics = tracing.layer_metrics(tracer.spans, 0)
    assert metrics["simulate.full_s"] > 0 and metrics["simulate.rom_s"] > 0
    assert metrics["simulate.steps"] == 200
