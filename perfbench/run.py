#!/usr/bin/env python3
"""phasecov benchmark: one workload, in this fresh single-threaded process.

    python3 perfbench/run.py --workload synth-C --seed 1 --seconds 30 --trace 0

Run from the repository root.  Set-up runs SETUP_REPEATS times; then units
of the workload run until the next would end after ``--seconds`` (at least
one runs), and the output checks run outside the timed section.  Times are
process CPU seconds (the wall-clock figures go to the details line).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` set-up runs under the tracer, one
unit runs untraced and the same unit traced, and the line reports the
per-layer metrics instead.  The line before it holds the run's environment,
geometry, check details and informational metrics.  Spans and a result
record are written under ``perfbench/out/``.  See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
Clock = namedtuple("Clock", "wall cpu")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_process():
    """One BLAS/OpenMP thread, and a malloc that keeps large blocks.

    Must run before numpy is imported.  glibc maps blocks above a dynamic
    threshold and hands them back on free, so a temporary of a few MB can be
    page-faulted in anew on every call or not, depending on heap history:
    the same model D gradient took 1.0 s or 3.5 s in one process.  Fixing
    the thresholds makes timings depend on the code, not on that history.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 1 << 30)
                and libc.mallopt(m_top_pad, 64 << 20))


def git_sha():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(malloc_pinned):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc_pinned": malloc_pinned,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed(fn, *args):
    """``fn(*args)`` with its (wall, CPU) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, Clock(time.perf_counter() - w0, time.process_time() - c0)


def setups(workload, seed, workdir, tracer=None):
    """Set up SETUP_REPEATS times; returns (last state, clocks)."""
    clocks = []
    for i in range(SETUP_REPEATS):
        fresh_dir(workdir)
        if tracer is not None:
            tracer.run_id = f"setup-{i}"
        state, clock = timed(workload.setup, seed, workdir)
        clocks.append(clock)
    return state, clocks


def run_checks(workload, state, results):
    outcome = workload.checks(state, results)
    for name, ok, detail in outcome:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    return outcome


def measure(workload, seed, seconds, workdir):
    """Untraced run: the end-to-end metrics, in CPU seconds."""
    from tracing import CallTimer

    state, setup_clocks = setups(workload, seed, workdir)
    timer = CallTimer(*workload.eval_callable)
    results, clocks, evals = [], [], []
    try:
        start = time.perf_counter()
        while True:
            before = len(timer.cpu_durations)
            result, clock = timed(workload.unit, state, len(results))
            results.append(result)
            clocks.append(clock)
            evals.append(len(timer.cpu_durations) - before)
            if time.perf_counter() - start + statistics.median(c.wall for c in clocks) > seconds:
                break
    finally:
        timer.restore()
    outcome = run_checks(workload, state, results)
    divisors = evals if workload.cpu_per_eval else [1] * len(evals)
    metrics = {
        "setup_s": {"value": statistics.median(c.cpu for c in setup_clocks), "unit": "s"},
        "cpu_s": {"value": statistics.median(c.cpu / n for c, n in zip(clocks, divisors)), "unit": "s"},
        "evals_per_cpu_s": {"value": 1.0 / statistics.median(timer.cpu_durations), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    extra = {
        "units": len(results), "evals_per_unit": evals,
        "setup_s": [c._asdict() for c in setup_clocks],
        "unit_s": [c._asdict() for c in clocks],
        "eval_p50_s": {"wall": statistics.median(timer.durations),
                       "cpu": statistics.median(timer.cpu_durations)},
    }
    extra.update(workload.info(results))
    return metrics, outcome, extra


def measure_traced(workload, seed, workdir, tracer_path):
    """Traced run: set-ups and one unit traced, the same unit once untraced."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        state, _ = setups(workload, seed, workdir, tracer)
    faults, user = minor_faults(), os.times().user
    _, plain = timed(workload.unit, state, 0)
    faults, plain_user = minor_faults() - faults, os.times().user - user
    with tracer:
        layers.install(tracer)
        tracer.run_id = "unit"
        user = os.times().user
        result, traced = timed(workload.unit, state, 0)
        traced_user = os.times().user - user
    outcome = run_checks(workload, state, [result])
    # user time only: the first unit pays the page faults of fresh heap
    # (1 GB on eval), which would otherwise count against the untraced side
    metrics = layers.metrics(tracer, workload.eval_span, workload.structure(state),
                             workload.output(result), traced_user - plain_user, faults)
    tracer.write_csv(tracer_path)
    extra = {"untraced_unit_s": plain._asdict(), "traced_unit_s": traced._asdict(),
             "spans_file": str(tracer_path)}
    return metrics, outcome, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phasecov" / "__init__.py").is_file():
        print(f"error: {SRC / 'phasecov'} not found; run from a phasecov checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    malloc_pinned = pin_process()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        if args.trace:
            metrics, outcome, extra = measure_traced(workload, args.seed, workdir,
                                                     OUT / f"spans-{tag}.csv")
        else:
            metrics, outcome, extra = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for _, ok, _ in outcome if not ok)
    extra["failed_ratio"] = {"value": failed / len(outcome), "unit": "ratio"}
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": workload.why, "geometry": workload.geometry(),
        "environment": environment(malloc_pinned),
        "checks": {name: {"ok": ok, "detail": detail} for name, ok, detail in outcome},
        "info": extra,
    }
    result = {"correct": failed == 0, "attempted": len(outcome), "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
