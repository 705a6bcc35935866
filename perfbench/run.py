"""Benchmark of the isomonodromy pipeline: four closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formula_sweep --seed 1 --seconds 15 --trace 0

Workloads (one client, one operation at a time):

* ``formula_sweep``  stokes_pipeline on seeded systems, n = 2..6 in equal
  shares (a fixed base family moved by a perturbation drawn from the seed,
  see ``inputs``); reference: the oracle route on the same system.
* ``oracle_sweep``   stokes_pair_direct on the same systems; reference: the
  formula route.
* ``schlesinger_families``  u_0 once around a small loop in 16 transport
  segments, then integrability_residual and formal_recursion(L=20);
  reference: loop closure, conserved-quantity drift, and F_1, F_2 from the
  local series.
* ``cli_commands``   the five README commands, each a fresh
  ``python -m isomonodromy.cli`` process; reference: exit code 0, every
  stage ok, and the agreement and variation figures in the reports.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up in
fresh processes, then a fixed number of whole passes over the inputs that
lasts about ``--seconds`` (see NOMINAL_PASS_S), then the correctness checks.
``--trace 1`` runs one traced pass between two untraced passes, checks that
all three give bit-identical outputs, and reports per-layer metrics from
spans recorded around the public functions of each module (see ``spans``).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
References are computed untimed, after the timed phase, once per distinct
input.

End-to-end times are taken at a reference CPU speed.  On a shared machine
the speed of a core drifts by a third and more within a minute, which moves
every wall time with it.  So a fixed pure-Python loop (``calibration``) is
timed before and after each operation and each set-up process, and the
interval between is scaled by CALIBRATION_REF_S over the mean of the two
loop times.  The raw wall times are printed beside the scaled ones.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 5
IMPORT_PROBES = 3
# Seconds ``calibration`` takes at the reference speed: its median on the
# 2-core x86 VM where the benchmark was defined, at that VM's faster speed.
CALIBRATION_REF_S = 0.006

# workload -> program modules its operations use (imported during set-up)
WORKLOADS = {
    "formula_sweep": ("isomonodromy.stokes",),
    "oracle_sweep": ("isomonodromy.stokes",),
    "schlesinger_families": ("isomonodromy.deformation", "isomonodromy.laplace"),
    "cli_commands": (),
}
# Seconds one pass over a workload's inputs took at the commit that defined
# the benchmark (2-core x86 VM).  A run makes ceil(--seconds / this) passes,
# so every run of a workload does the same work: the operation count, and
# with it the percentile that op_tail_s reports, is the same on every run and
# on every commit, and a run lasts about --seconds at that commit.
NOMINAL_PASS_S = {
    "formula_sweep": 3.8,
    "oracle_sweep": 11.0,
    "schlesinger_families": 3.0,
    "cli_commands": 6.5,
}
# layers whose work counts must be zero on a workload (they are bypassed)
BYPASSED = {
    "formula_sweep": ("laplace.columns", "laplace.panels", "laplace.ray_solves",
                      "deformation.transport_calls", "deformation.omega_calls"),
    "oracle_sweep": ("continuation.solves", "continuation.transport_calls",
                     "continuation.loop_calls", "continuation.coeffs",
                     "deformation.transport_calls"),
    "schlesinger_families": ("continuation.solves", "laplace.columns",
                             "laplace.panels", "laplace.ray_solves",
                             "frobenius.rhs_calls"),
    "cli_commands": (),
}
# the layer predicted to have the largest self time on each workload
DOMINANT = {
    "formula_sweep": "continuation",
    "oracle_sweep": "laplace",
    "schlesinger_families": "deformation",
    "cli_commands": "import",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def make_workload(name):
    if name == "formula_sweep":
        return workloads.Sweep("formula")
    if name == "oracle_sweep":
        return workloads.Sweep("oracle")
    if name == "schlesinger_families":
        return workloads.Families()
    return workloads.CliCommands(ROOT, WORK / f"run-{os.getpid()}", child_env())


def set_up(name, seed):
    """Import, seeded input generation and program objects."""
    for mod in WORKLOADS[name]:
        importlib.import_module(mod)
    wl = make_workload(name)
    raw, rejections = wl.generate(seed)
    return wl, wl.prepare(raw), inputs.digest(raw), rejections


def setup_probe(args):
    """Child side of the set-up measurement: set up, report when ready."""
    _, _, digest, _ = set_up(args.workload, args.seed)
    print(json.dumps({"ready": perf_counter(), "digest": digest}))
    return 0


def calibration():
    """Seconds a fixed pure-Python loop takes now: a probe of the CPU's speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return perf_counter() - t0


def to_reference(seconds, before, after):
    """Wall seconds scaled to the reference speed, given calibrations on both sides."""
    return seconds * CALIBRATION_REF_S / (0.5 * (before + after))


def measure_setup(args):
    """Median time from spawning a fresh process until its first operation could start.

    perf_counter reads the system-wide monotonic clock, so the child's
    ready time and the parent's spawn time are comparable.  Returns the
    median at the reference speed, the raw times and the inputs digests.
    """
    times, scaled, digests = [], [], set()
    before = calibration()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        after = calibration()
        times.append(rec["ready"] - t0)
        scaled.append(to_reference(times[-1], before, after))
        digests.add(rec["digest"])
        before = after
    return statistics.median(scaled), times, digests


def measure_import():
    """Median time of ``import isomonodromy.cli`` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import isomonodromy.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=150, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Op:
    key: object
    item: object
    seconds: float
    scaled: float = 0.0
    out: object = None
    error: str = None


def run_passes(wl, prepared, runner, errors, passes, tracer=None):
    """Closed loop, one operation at a time, over ``passes`` whole passes.

    Returns the operations and the wall time of the loop; each operation
    holds its wall time and that time at the reference speed.
    """
    ops = []
    t_start = perf_counter()
    before = calibration()
    for _ in range(passes):
        for key, item in prepared:
            if tracer is not None:
                tracer.current_op = len(ops)
            t0 = perf_counter()
            try:
                op = Op(key, item, 0.0, out=runner(item))
            except errors as exc:
                op = Op(key, item, 0.0, error=f"{type(exc).__name__}: {exc}")
            op.seconds = perf_counter() - t0
            after = calibration()
            op.scaled = to_reference(op.seconds, before, after)
            before = after
            ops.append(op)
    return ops, perf_counter() - t_start


def check_ops(wl, ops, errors):
    """Check each successful output against its reference; return the errors seen."""
    refs, errs = {}, []
    for op in ops:
        if op.error is not None:
            continue
        try:
            if op.key not in refs:
                refs[op.key] = wl.reference(op.item)
            err = wl.check(op.item, op.out, refs[op.key])
        except workloads.CheckFailed as exc:
            op.error = f"check: {exc}"
            continue
        except errors as exc:
            op.error = f"reference: {type(exc).__name__}: {exc}"
            continue
        if err is not None:
            errs.append(err)
    return errs


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def provenance(seed):
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "isomonodromy").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def git_commit():
    """Commit of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def err_digits(errs):
    return -math.log10(max(max(errs), 1e-16))


def by_input(ops):
    """Median operation time at the reference speed per distinct input, as a note."""
    times = {}
    for op in ops:
        times.setdefault(op.key, []).append(op.scaled)
    return "op seconds by input: " + ", ".join(
        f"{key}:{statistics.median(t):.3f}" for key, t in times.items())


def end_to_end(args, wl, prepared, digest, errors):
    setup_s, setup_all, probe_digests = measure_setup(args)
    passes = math.ceil(args.seconds / NOMINAL_PASS_S[args.workload])
    ops, wall = run_passes(wl, prepared, wl.run, errors, passes)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_commands" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    errs = check_ops(wl, ops, errors)
    failed = [op for op in ops if op.error is not None]
    durations = [op.scaled for op in ops]
    busy = sum(durations)
    t_val, t_pct, t_beyond = tail(durations)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(ops) - len(failed)) / busy, "1/s"),
        "err_digits": (err_digits(errs) if errs else 0.0, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # printed, not in the result: op_p50_s and op_tail_s each rest on a few
    # operations of one input size and spread by 0.13-0.19 (IQR over median)
    # between runs even at the reference speed, too much to carry a bound;
    # fail_frac is 0 when the run is correct
    notes = [
        f"op_p50_s       {statistics.median(durations):.6g} s",
        f"op_tail_s      {t_val:.6g} s at p{t_pct:.1f} of {len(ops)} operations "
        f"({t_beyond} beyond it)",
        f"fail_frac      {len(failed) / len(ops):.4g} ratio ({len(failed)} of {len(ops)})",
        f"setup_s        set-up of {SETUP_PROBES} fresh processes, wall: "
        + ", ".join(f"{t:.4f}" for t in setup_all) + " s",
        f"timed wall     {wall:.3f} s over {len(ops)} operations in {passes} passes; "
        f"operations {sum(op.seconds for op in ops):.3f} s wall, {busy:.3f} s at the "
        f"reference speed; {(len(ops) - len(failed)) / wall:.6g} ops per wall second",
        by_input(ops),
    ]
    problems = [f"op {op.key}: {op.error}" for op in failed]
    if probe_digests != {digest}:
        problems.append(f"set-up probes generated other inputs: {sorted(probe_digests)}")
    return metrics, notes, problems, ops


def _same(wl, a, b):
    if a.error is not None or b.error is not None:
        return a.error is not None and b.error is not None
    return wl.same(a.out, b.out)


def traced(args, wl, prepared, errors):
    in_process = getattr(wl, "run_in_process", wl.run)
    import_s = measure_import()
    plain, _ = run_passes(wl, prepared, in_process, errors, 1)
    tracer = spans.Tracer()
    unwrapped = tracer.install()
    try:
        prepared_t = set_up(args.workload, args.seed)[1]
        traced_ops, _ = run_passes(wl, prepared_t, in_process, errors, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    # untraced passes on both sides of the traced one, so drift in machine
    # speed and first-call costs do not land on one side of the overhead
    after, _ = run_passes(wl, prepared, in_process, errors, 1)
    time_before, time_traced, time_after = (sum(op.scaled for op in o)
                                            for o in (plain, traced_ops, after))
    time_plain = 0.5 * (time_before + time_after)
    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(span_file)
    layer = tracer.layer_metrics()
    layer["cli.import_s"] = import_s
    fresh = len(plain) if args.workload == "cli_commands" else 0
    layer["import.self_s"] = import_s * fresh
    layer["trace.overhead_frac"] = (time_traced - time_plain) / time_plain
    ops = plain + traced_ops + after
    errs = check_ops(wl, ops, errors)
    problems = [f"op {op.key}: {op.error}" for op in ops if op.error is not None]
    if unwrapped:
        problems.append(f"call sites left unwrapped: {unwrapped}")
    for a, b, c in zip(plain, traced_ops, after):
        if not all(_same(wl, a, x) for x in (b, c)):
            problems.append(f"op {a.key}: traced output differs from untraced output")
    for metric in BYPASSED[args.workload]:
        if layer[metric] != 0:
            problems.append(f"bypassed layer recorded work: {metric} = {layer[metric]}")
    selfs = {m: layer[f"{m}.self_s"] for m in spans.MODULES + ("import",)}
    dominant = max(selfs, key=selfs.get)
    notes = [f"{m:<32s} {layer[m]!r} {spans.unit_of(m)}" for m in spans.LAYER_METRICS]
    notes += [
        "self time by layer: " + ", ".join(f"{m} {s:.3f} s" for m, s in
                                           sorted(selfs.items(), key=lambda kv: -kv[1])),
        f"dominant layer: {dominant} (predicted {DOMINANT[args.workload]})",
        f"at the reference speed: untraced passes {time_before:.3f} s and {time_after:.3f} s, "
        f"traced pass {time_traced:.3f} s",
        by_input(plain),
        f"spans: {len(tracer.start)} written to {span_file.relative_to(ROOT)}",
    ]
    if errs:
        notes.append(f"worst error {max(errs):.3e}")
    if tracer.skipped:
        notes.append(f"targets not found: {tracer.skipped}")
    metrics = {m: (layer[m], spans.unit_of(m)) for m in spans.LAYER_METRICS}
    return metrics, notes, problems, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "isomonodromy" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"perfbench: {ROOT} holds no src/isomonodromy or problems/; "
              "run it from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    wl, prepared, digest, rejections = set_up(args.workload, args.seed)
    errors = workloads.numerical_errors() + (subprocess.TimeoutExpired, OSError)
    prov = provenance(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"inputs digest={digest} rejections={rejections}")
    try:
        if args.trace:
            metrics, notes, problems, ops = traced(args, wl, prepared, errors)
        else:
            metrics, notes, problems, ops = end_to_end(args, wl, prepared, digest, errors)
    finally:
        shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<14s} {value:.6g} {unit}")
    for line in notes:
        print(line)
    for line in problems:
        print(f"PROBLEM {line}")
    failed = sum(op.error is not None for op in ops)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
