"""Outside-in benchmark of tclkraus.

Usage, from the repository root:

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: tcl2_transverse, kraus_qutrit, dephasing_ohmic_thermal,
lindblad_qutrit (see workloads.py and README.md).  The seed draws the
inputs; the run repeats one full solve of them for about S seconds and checks
every solve's outputs against independent references.

--trace 0 reports the end-to-end metrics: the median solve time, the median
set-up time of a fresh interpreter (import plus input parsing, measured in
separate processes) and the peak resident memory of this process.  Both
times are wall seconds scaled to a reference host speed (see measure());
the raw wall-clock medians are printed beside them.
--trace 1 alternates untraced and traced solves and reports the per-layer
metrics of tracing.py, plus the tracing overhead; the spans are written to
.bench_work/traces/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A solve that raises, or whose outputs fail a
check, is a failed operation.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: measure() pins the run to one CPU,
# and on the small matrices of most solves a second thread was slower
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PROBE = os.path.join(HERE, "setup_probe.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0

#: mean seconds of each calibrate.py kernel between operations on the
#: reference host (2-core x86 VM, Python 3.11, numpy 2.4 / scipy 1.17, one
#: OpenBLAS thread)
CALIBRATION_REF_S = {"python": 0.21, "blas": 0.24}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Calibrator:
    """Pipe to calibrate.py, which times the calibration kernels on request."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, CALIBRATE], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def measure(self, kernels):
        self.proc.stdin.write(" ".join(kernels) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with {self.proc.wait()}")
        return json.loads(line)


class Run:
    """Attempts of one workload: times, failures and output identity."""

    def __init__(self, workload, path, ref, out_dir):
        self.workload = workload
        self.path = path
        self.ref = ref
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self._digest = None

    def _fail(self, what):
        self.failed += 1
        print(f"[{self.workload.name}] failed operation {self.attempted}: {what}",
              file=sys.stderr)

    def attempt(self, solve):
        """Time solve(); check its outputs; return the elapsed seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = solve()
        except Exception:  # any error of the package is a failed operation
            elapsed = time.perf_counter() - t0
            self._fail(traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            outputs = self.workload.collect(result, self.out_dir)
            problems = self.workload.check(outputs, self.path, self.ref)
            key = self.workload.digest(outputs)
        except Exception:  # unreadable outputs fail the operation too
            self._fail(traceback.format_exc())
            return elapsed
        if self._digest is None:
            self._digest = key
        elif key != self._digest:
            problems.append("outputs differ from the run's first solve")
        if problems:
            self._fail("; ".join(problems))
        return elapsed

    def solve(self):
        return self.workload.solve(self.path, self.out_dir)

    def probe_setup(self):
        """Seconds from starting a fresh interpreter to its `ready` line."""
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, PROBE, self.workload.name, self.path],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            self._fail(f"set-up probe exited {proc.returncode}: {err.strip()}")
        return elapsed


def measure(run, seconds):
    """End-to-end metrics: solves for `seconds`, set-up probes spread among them.

    The shared host's speed drifts by up to a factor of two over tens of
    seconds, which no number of repeats inside one run averages out.  So the
    calibration kernels (calibrate.py) run after every timed operation, and
    each median is scaled by CALIBRATION_REF_S / (the run's mean kernel
    time): the times read in reference-host seconds.  The kernel's mean, not
    its median, because a solve averages the host's speed over its whole
    duration while a short kernel samples one instant, and the instants
    cluster in a fast and a slow mode.  Solves use the workload's kernel
    (`Workload.calibration`), set-up the interpreter-bound one.  The probes
    are spaced over the run, and the solve budget excludes their time.
    Returns (samples, notes).
    """
    solves, setups, kernels = [], [], []
    names = sorted({"python", run.workload.calibration})
    with Calibrator() as calibrator:
        kernels.append(calibrator.measure(names))

        def timed(samples, op):
            samples.append(op())
            kernels.append(calibrator.measure(names))

        while True:
            if len(setups) < SETUP_PROBES and \
                    sum(solves) >= len(setups) * seconds / SETUP_PROBES:
                timed(setups, run.probe_setup)
                continue
            timed(solves, lambda: run.attempt(run.solve))
            if sum(solves) + statistics.median(solves) > seconds:
                break
        while len(setups) < SETUP_PROBES:
            timed(setups, run.probe_setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = {k: CALIBRATION_REF_S[k] / statistics.fmean(t[k] for t in kernels)
             for k in names}
    solve_scale = scale[run.workload.calibration]
    samples = {"solve_s": ([w * solve_scale for w in solves], "s",
                           "solves, reference-host seconds"),
               "setup_s": ([w * scale["python"] for w in setups], "s",
                           "fresh interpreters, reference-host seconds"),
               "peak_rss_mb": ([peak_mb], "MB", "process")}
    scales = ", ".join(f"{k} {v:.4g}" for k, v in scale.items())
    notes = [f"  wall-clock medians: solve {statistics.median(solves):.6g} s, "
             f"setup {statistics.median(setups):.6g} s; host speed scale "
             f"{scales} (n = {len(kernels)} kernel runs); solves scaled by "
             f"{run.workload.calibration}"]
    return samples, notes


def measure_traced(run, seconds, trace_path):
    """Per-layer metrics: alternate untraced and traced solves for `seconds`."""
    import tracing

    tracer = tracing.Tracer()

    def traced_solve():
        tracer.install()
        try:
            return tracer.run(run.solve)[0]
        finally:
            tracer.uninstall()

    plain, summaries = [], []
    t_start = time.perf_counter()
    while True:
        plain.append(run.attempt(run.solve))
        root = len(tracer.spans)
        run.attempt(traced_solve)
        if len(tracer.spans) > root:
            tracer.values["scenario.artifact_bytes"] = float(dir_bytes(run.out_dir))
            summaries.append(tracer.summary(root))
        elapsed = time.perf_counter() - t_start
        pair = statistics.median(plain) + statistics.median(
            [s["trace.solve_s"] for s in summaries] or [0.0])
        if elapsed + pair > seconds:
            break
    if tracer.missing:
        print(f"[{run.workload.name}] trace hooks not found: "
              f"{', '.join(tracer.missing)}", file=sys.stderr)
    tracer.write(trace_path, {"workload": run.workload.name})

    samples = {}
    units = {**{k: v[0] for k, v in tracing.LAYER_METRICS.items()},
             **{k: v[0] for k, v in tracing.RUN_METRICS.items()}}
    for name in list(tracing.LAYER_METRICS) + ["trace.solve_s", "trace.layer_share",
                                               "trace.spans"]:
        values = [s[name] for s in summaries] or [0.0]
        if units[name] != "s" and name not in tracing.VARYING:
            if any(v != values[0] for v in values):
                print(f"[{run.workload.name}] counter {name} differs between "
                      f"traced solves: {values}", file=sys.stderr)
            values = values[:1]
        samples[name] = (values, units[name], "traced solves")
    samples["trace.untraced_solve_s"] = (plain, "s", "untraced solves")
    overhead = statistics.median(samples["trace.solve_s"][0]) - statistics.median(plain)
    samples["trace.overhead_s"] = ([overhead], "s", "median difference")
    return samples, []


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tclkraus", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import tclkraus
    import workloads

    if not os.path.abspath(tclkraus.__file__).startswith(SRC + os.sep):
        print(f"error: imported tclkraus from {tclkraus.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    # one CPU for this process and, by inheritance, its helper processes: the
    # calibration kernels must see the speed of the core the solves run on
    # (the two cores of the shared host drift independently)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=WORK_ROOT)
    try:
        path = workload.generate(args.seed, work)
        run = Run(workload, path, workload.reference(path), os.path.join(work, "out"))
        if args.trace:
            trace_dir = os.path.join(WORK_ROOT, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            samples, notes = measure_traced(run, args.seconds, os.path.join(
                trace_dir, f"{workload.name}-seed{args.seed}.json"))
        else:
            samples, notes = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"BLAS threads {BLAS_THREADS}: {run.attempted} operations attempted, "
          f"{run.failed} failed")
    metrics = {}
    for name, (values, unit, what) in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:28s} median {med:.6g} {unit}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}; n = {len(values)} {what})")
        metrics[name] = {"value": med, "unit": unit}
    for line in notes:
        print(line)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
