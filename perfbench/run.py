"""bubblelab benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload, one process each

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from ``tracing.py``.

A pass runs every operation of the workload once.  Passes repeat until the
next one would end more than half a pass after ``--seconds``.  Setup (a
fresh interpreter importing bubblelab and building the inputs) is timed in
SETUP_RUNS child processes and reported as their median.

The 2-vCPU x86_64 host this was written on changes speed by up to 35% for
seconds at a time and drifts over minutes.  So the untraced run times a
fixed calibration unit (no bubblelab code) before and after every
operation and scales the operation's time by CALIBRATION_REF_S / (mean of
the two).  Op and pass times are thus seconds on a CPU that runs the unit
in CALIBRATION_REF_S; on that host they read close to its fastest wall
times.  A reference taken from the run itself (its fastest or median
calibration) would share the run's speed and bring the noise back.  Each
setup probe times a pure-interpreter unit before its imports and after its
inputs are built, and its setup time is scaled by SETUP_CALIBRATION_REF_S /
(mean of the two).  The traced run's per-layer times are not scaled.

``failed`` counts every operation that raised, missed its oracle or wrote
different bytes.  ``correct`` is false when any failure lies outside the
known defects that ``workloads.known_energy_defect`` names.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# At most two busy threads: integrate's pool (threads=2) and no BLAS threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("quantize-matrix", "profile-sweeps", "energy-oracle", "cli-examples")
SETUP_RUNS = 5
# calibrate() and calibrate_interpreter() at full speed on the host
# described above
CALIBRATION_REF_S = 1.4e-3
SETUP_CALIBRATION_REF_S = 13e-3
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "passed_op_share": "ratio",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


class Tally:
    """Outcome of every operation attempted in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.defects: Counter = Counter()
        self.errors: list[float] = []

    def record(self, op, passed: bool, err, why: str = "") -> None:
        self.attempted += 1
        if err is not None:
            self.errors.append(err)
        if passed:
            return
        self.failed += 1
        if op.known_defect:
            self.defects[op.known_defect] += 1
        else:
            self.unexpected.append(f"{op.name}{': ' + why if why else ''}")


def calibrate() -> float:
    """Seconds for a fixed unit of scipy root finding and small-array numpy
    work, the mix bubblelab's quadrature spends its time in.  The unit runs
    no bubblelab code, so no change to the program moves it."""
    import numpy as np
    from scipy.special import roots_gegenbauer, roots_legendre

    points = np.linspace(0.0, 1.0, 16000).reshape(4000, 4)
    t0 = time.perf_counter()
    for _ in range(3):
        roots_gegenbauer(48, 1.5)
        roots_legendre(32)
    for _ in range(10):
        g = 1.0 + np.einsum("ij,ij->i", points, points)
        points = points * (g ** -0.5)[:, None] + 0.1
    return time.perf_counter() - t0


_CLASS_SOURCE = "class A:\n    def f(self, x):\n        return [i * x for i in range(10)]\n" * 20


def calibrate_interpreter() -> float:
    """Seconds for a fixed unit of pure interpreter work, compiling and
    running class definitions as an import does.  It needs nothing beyond
    the standard library, so a setup probe can time it before importing."""
    t0 = time.perf_counter()
    namespace: dict = {}
    for _ in range(15):
        exec(compile(_CLASS_SOURCE, "<calibration>", "exec"), namespace)
    acc = 0
    for i in range(10000):
        acc += i * i
    return time.perf_counter() - t0


def run_pass(ops, tally: Tally, calibrated: bool) -> list[tuple[float, float]]:
    """Run every op once; return (op seconds, calibration seconds around
    the op) per op, the calibration being 1.0 when not ``calibrated``."""
    timings = []
    before = calibrate() if calibrated else 1.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, failure = op.call(), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, failure = None, repr(exc)
        dt = time.perf_counter() - t0
        if failure is None:
            try:
                passed, err = op.check(out)
            except Exception as exc:  # unreadable or missing output
                failure = repr(exc)
        if failure is None:
            tally.record(op, passed, err)
        else:
            tally.record(op, False, None, failure)
        after = calibrate() if calibrated else 1.0
        timings.append((dt, 0.5 * (before + after)))
        before = after
    return timings


def repeat(seconds: float, one_pass):
    """Call ``one_pass`` until the next call would end over half a call
    after ``seconds``; return the results."""
    started = time.perf_counter()
    walls, results = [], []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started >= seconds - 0.5 * statistics.median(walls):
            return results


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its inputs being built,
    scaled like op times by an interpreter calibration the probe runs
    before its imports and after its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        after = proc.stdout.read()
        code = proc.wait()
    if code != 0 or len(ready) != 2 or ready[0] != "ready":
        raise RuntimeError(f"setup probe exited with {code}")
    before, after = float(ready[1]), float(after)
    return (elapsed - before) * SETUP_CALIBRATION_REF_S / (0.5 * (before + after))


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_end_to_end(args, ops, tally: Tally) -> dict:
    setup = [time_setup(args) for _ in range(SETUP_RUNS)]
    passes = repeat(args.seconds, lambda: run_pass(ops, tally, calibrated=True))
    scaled = [[t * CALIBRATION_REF_S / cal for t, cal in timings] for timings in passes]
    cals = [cal for timings in passes for _, cal in timings]
    # percentiles across ops of each op's median, so that a workload of
    # unlike ops gives the same figure whatever the number of passes
    per_op = [statistics.median(p[i] for p in scaled) for i in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p) for p in scaled),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[-1],
        "passed_op_share": 1.0 - tally.failed / tally.attempted,
        "max_rel_err": max(tally.errors, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"passes: {len(passes)}; op percentiles over {len(per_op)} op medians; "
          f"setup runs: {len(setup)}; calibration median "
          f"{statistics.median(cals) * 1e3:.3f} ms (reference {CALIBRATION_REF_S * 1e3:g} ms)")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def measure_layers(args, ops, tally: Tally) -> dict:
    import tracing

    tracer = tracing.Tracer()

    def plain_then_traced():
        plain = run_pass(ops, tally, calibrated=False)
        undo = tracing.install(tracer)
        tracer.reset()
        try:
            traced = run_pass(ops, tally, calibrated=False)
        finally:
            tracing.uninstall(undo)
        return sum(t for t, _ in plain), sum(t for t, _ in traced), tracing.per_layer(tracer)

    # untraced and traced passes alternate, so both see the same host speed
    pairs = repeat(args.seconds, plain_then_traced)
    metrics = {k: statistics.median(layers[k] for _, _, layers in pairs) for k in pairs[0][2]}
    untraced = statistics.median(plain for plain, _, _ in pairs)
    metrics["trace.wall_s"] = statistics.median(traced for _, traced, _ in pairs)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    print(f"traced passes: {len(pairs)}, each after an untraced pass; "
          f"untraced pass median {untraced:.4f} s")
    return {k: (v, tracing.unit(k)) for k, v in metrics.items()}


def run_one(args) -> int:
    before = calibrate_interpreter() if args.setup_probe else 0.0
    sys.path.insert(0, str(SRC))
    import bubblelab.cli  # noqa: F401  every layer, as a user of the CLI loads it
    import oracle
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_probe:
        print("ready", before, flush=True)
        print(calibrate_interpreter(), flush=True)
        return 0
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        print(f"oracle self-test: max relative gap {oracle.self_test():.2e}")
        print("machine:", json.dumps(machine(), sort_keys=True))
        tally = Tally()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(args, ops, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}: {len(ops)} ops per pass, {tally.attempted} attempted, "
          f"{tally.failed} failed")
    for kind, count in sorted(tally.defects.items()):
        print(f"  known defect {kind}: {count} failed ops")
    for line in tally.unexpected[:20]:
        print(f"  UNEXPECTED failure: {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so caches and peak memory stay apart."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bubblelab" / "__init__.py").is_file():
        print(f"error: bubblelab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
