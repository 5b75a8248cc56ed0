"""Benchmark of tlbt: time to a checked reduced model on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload, both modes

One invocation builds the workload's inputs from the seed, runs the
timed operation until ``--seconds`` have passed (at least once), checks
every output after the clock stops, times set-up and a fixed calibration
in fresh interpreters between operations (times are scaled to a reference
machine speed by the calibration; see perfbench/README.md), and
prints a ``REPORT`` line with every metric and the environment, then as
its last line a JSON object {correct, attempted, failed, metrics} with
the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics from a traced run (``--trace 1``). Spans of a traced
run are written to perfbench/out/ at exit. BLAS runs on ``--threads``
threads (default 1, at most nproc). ``--workload all`` runs each
workload in its own process: untraced, traced, and once more with BLAS
on nproc threads.
"""

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("wd200_compare", "heat200_bt", "heat20k_tlbt", "desc1500_mtlbt")
MIN_SETUPS = 5
# Median calibration time on the machine the benchmark was written on; normalized
# times are raw time / calibration time * CAL_REF_S.
CAL_REF_S = 0.6
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAYERS = ("synthetic.make_synthetic", "mmio.save_system")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0, help="measure at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1, help="BLAS threads, at most nproc")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs exist for the self-test only")
    p.add_argument("--child", choices=("setup", "calibrate"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def configure_threads(requested):
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(requested, nproc))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads, nproc


def import_tlbt():
    """Import tlbt from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tlbt

    if not Path(tlbt.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"tlbt imported from {tlbt.__file__}, not from {src}")
    return tlbt


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, threads, nproc):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
        "cal_ref_s": CAL_REF_S,
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def unit_of(name):
    if name.endswith(".samples"):
        return "count"
    base = re.sub(r"\.(p\d+|nproc)$", "", name)
    if base.endswith(("_s", ".s")):
        return "s"
    if base.endswith("_mb"):
        return "MB"
    if base.endswith((".calls", ".solves", ".cap_hits", ".iters", ".checks", ".steps",
                      ".spans", ".d", ".rank", "attempted", "failed")):
        return "count"
    return "ratio"


def timing_stats(name, times):
    """Median, sample count and the highest percentile with ten samples beyond it."""
    out = {name: statistics.median(times) if times else None, f"{name}.samples": len(times)}
    if len(times) > 10:
        q = int(100 * (1 - 10 / len(times)))
        out[f"{name}.p{q}"] = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return out


# ---------------------------------------------------------------------------
# one workload


def setup_child(args):
    """Time to import tlbt and build the inputs, measured in a fresh interpreter."""
    t0 = time.perf_counter()
    import_tlbt()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.setup(wl, getattr(wl, args.size), args.seed, work)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def calibration_child():
    """Fixed work no change to tlbt can alter: import numpy and scipy, small dense LAPACK.

    Its time tracks the speed of a shared machine, which drifts by tens of
    percent within minutes; interleaved with the operations, it normalizes
    their times.
    """
    t0 = time.perf_counter()
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse  # noqa: F401  (the modules tlbt imports)
    import scipy.spatial  # noqa: F401

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    b = rng.standard_normal((200, 2))
    shifted = a - 1j * np.eye(200)
    for _ in range(10):
        np.linalg.eigvals(a[:150, :150])
        sla.lu_solve(sla.lu_factor(shifted), b)
        np.linalg.qr(a)
        for _ in range(100):
            a[:20, :20] @ b[:20]
    print(repr(time.perf_counter() - t0))


def child_seconds(args, kind):
    """Seconds a set-up or calibration child reports, run in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} child failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(args, threads, nproc):
    tlbt = import_tlbt()
    import tracing
    import workloads
    from tlbt.errors import TlbtError

    wl = workloads.WORKLOADS[args.workload]
    size = getattr(wl, args.size)
    env = environment(args, threads, nproc)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups, cals = [], []
        if tracer:
            tracer.install(tlbt)
            tracer.run = "setup"
        inputs = workloads.setup(wl, size, args.seed, work / "inputs")
        oracle = None
        if wl.has_oracle:
            if tracer:
                tracer.run = "oracle"
            oracle = workloads.dense_oracle(wl, size, inputs, work / "oracle")
        ops = []
        if not tracer:
            cals.append(child_seconds(args, "calibrate"))
        begin = time.perf_counter()
        while True:
            run = len(ops)
            if tracer:
                tracer.run = run
            t0 = time.perf_counter()
            try:
                raw, error = workloads.operate(wl, size, inputs, work / f"op{run}"), None
            except TlbtError as exc:
                raw, error = None, f"{type(exc).__name__}: {exc}"
            op = {"seconds": time.perf_counter() - t0}
            if tracer:
                tracer.run = None
                tracing.cross_check(tracer.spans, run)
            if raw is None:
                op["failures"] = [error]
            else:
                summary = workloads.summarize(wl, raw)
                traced_mu = tracing.solver_residuals(tracer.spans, run) if tracer else []
                op["failures"] = workloads.check(wl, summary, oracle, traced_mu)
                op["E_T"] = summary.get("E_T", {})
            ops.append(op)
            shutil.rmtree(work / f"op{run}", ignore_errors=True)
            if not tracer:  # interleaved, so calibrations bracket every timed piece
                setups.append(child_seconds(args, "setup"))
                cals.append(child_seconds(args, "calibrate"))
            if time.perf_counter() - begin >= args.seconds:
                break
        while not tracer and len(setups) < MIN_SETUPS:
            setups.append(child_seconds(args, "setup"))
            cals.append(child_seconds(args, "calibrate"))
        rss = peak_rss_mb()
    finally:
        if tracer:
            tracer.uninstall()
            tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)

    ok = [op for op in ops if not op["failures"]]
    failed = len(ops) - len(ok)
    metrics = {"attempted": len(ops), "failed": failed, "fail_frac": failed / len(ops)}
    if tracer:
        metrics.update(layer_report(tracer, ops))
    else:
        # operation i ran between calibrations i and i + 1, set-up j just before j + 1
        around = [CAL_REF_S / statistics.mean(pair) for pair in zip(cals, cals[1:])]
        metrics.update(timing_stats(
            "wall_s", [op["seconds"] * k for op, k in zip(ops, around) if not op["failures"]]))
        metrics.update(timing_stats(
            "setup_s", [t * CAL_REF_S / c for t, c in zip(setups, cals[1:])]))
        metrics.update(timing_stats("wall_raw_s", [op["seconds"] for op in ok]))
        metrics.update(timing_stats("setup_raw_s", setups))
        metrics.update(timing_stats("cal_s", cals))
        metrics["peak_rss_mb"] = rss
    metrics.update(timing_stats("stop_s", [op["seconds"] for op in ops]))
    metrics.update(timing_stats("fail_s", [op["seconds"] for op in ops if op["failures"]]))
    for mode in wl.modes:
        values = [op["E_T"][mode] for op in ops if mode in op.get("E_T", {})]
        metrics[f"E_T.{mode}"] = statistics.median(values) if values else None
    if oracle is not None:
        for mode, ref in oracle.items():
            metrics[f"E_T_dense.{mode}"] = ref
        ratios = [metrics[f"E_T.{m}"] / oracle[m] for m in oracle if metrics[f"E_T.{m}"]]
        metrics["E_T_ratio"] = max(ratios) if len(ratios) == len(oracle) else None
    failures = [f for op in ops for f in op["failures"]]
    return {"env": env, "metrics": metrics, "failures": failures, "ops": ops}


def layer_report(tracer, ops):
    """Per-layer metrics: medians over operations of per-operation values."""
    import tracing

    per_op = [tracing.layer_metrics(tracer.spans, run) for run in range(len(ops))]
    keys = sorted({k for m in per_op for k in m})
    out = {}
    for key in keys:
        values = [m[key] for m in per_op if m.get(key) is not None]
        out[key] = statistics.median(values) if values else None
    setup = tracing.layer_metrics(tracer.spans, "setup")
    for layer in SETUP_LAYERS:
        for suffix in (".calls", ".s"):
            out[layer + suffix] = setup.get(layer + suffix, 0)
    spans = [sum(1 for s in tracer.spans if s["run"] == run) for run in range(len(ops))]
    out["trace.spans"] = statistics.median(spans)
    out["trace.overhead_est_s"] = out["trace.spans"] * tracer.per_call_cost()
    out["trace.wall_s"] = statistics.median(op["seconds"] for op in ops)
    return out


def final_line(report, trace):
    """The result object with the metrics BENCHMARK.json lists for this mode."""
    metrics = report["metrics"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    return {
        "correct": not report["failures"],
        "attempted": metrics["attempted"],
        "failed": metrics["failed"],
        "metrics": {n: {"value": metrics.get(n), "unit": unit_of(n)} for n in names},
    }


def print_report(report):
    units = {k: unit_of(k) for k in report["metrics"]}
    print("REPORT " + json.dumps({**report, "units": units}, default=str))


# ---------------------------------------------------------------------------
# every workload


def run_all(args):
    """Each workload in its own process: untraced, traced, and BLAS on nproc threads."""
    script = str(Path(__file__).resolve())
    nproc = len(os.sched_getaffinity(0))
    passes = (("untraced", 0, args.threads), ("traced", 1, args.threads), ("nproc", 0, nproc))
    results = {}
    for name in WORKLOAD_NAMES:
        for label, trace, threads in passes:
            cmd = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(trace), "--size", args.size,
                   "--threads", str(threads)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                raise RuntimeError(f"{name} {label} exited {done.returncode}: {done.stderr}")
            line = next(x for x in done.stdout.splitlines() if x.startswith("REPORT "))
            results[(name, label)] = json.loads(line[len("REPORT "):])
    combined = {}
    for name in WORKLOAD_NAMES:
        plain, traced = results[(name, "untraced")], results[(name, "traced")]
        wide = results[(name, "nproc")]
        metrics = dict(traced["metrics"])
        metrics.update(plain["metrics"])
        metrics["trace.overhead_s"] = traced["metrics"]["trace.wall_s"] - plain["metrics"]["stop_s"]
        metrics["wall_s.nproc"] = wide["metrics"]["wall_s"]
        metrics["stop_s.nproc"] = wide["metrics"]["stop_s"]
        combined[name] = {"metrics": metrics, "failures": plain["failures"],
                          "env": plain["env"], "env_nproc": wide["env"]}
        print(f"== {name}  (threads {plain['env']['blas_threads']}, nproc "
              f"{plain['env']['nproc']}, seed {args.seed})")
        for key in sorted(metrics):
            print(f"  {key:48s} {metrics[key]!s:>24} {unit_of(key)}")
        for failure in dict.fromkeys(plain["failures"]):
            print(f"  failure: {failure}")
    print("REPORT " + json.dumps(combined, default=str))
    attempted = sum(c["metrics"]["attempted"] for c in combined.values())
    failed = sum(c["metrics"]["failed"] for c in combined.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{name}/{k}": {"value": v, "unit": unit_of(k)}
                    for name, c in combined.items() for k, v in c["metrics"].items()},
    }


def main(argv=None):
    args = parse_args(argv)
    threads, nproc = configure_threads(args.threads)
    if args.child == "setup":
        setup_child(args)
        return 0
    if args.child == "calibrate":
        calibration_child()
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        report = run_workload(args, threads, nproc)
        print_report(report)
        result = final_line(report, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
