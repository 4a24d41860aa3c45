"""Benchmark of the ahmass check commands, one workload per run.

    python3 perfbench/run.py --workload volume|sphere|solvers --seed N \
                             --seconds S --trace 0|1

A run generates the workload's configs from the seed, then repeats passes
over them in one process, one check run at a time (a closed loop with one
caller), through ``ahmass.cli.run``.  Passes repeat while the next is
expected to end within ``--seconds``; there is always at least one.  Every
check run goes through the correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds
per pass, set-up seconds (median of SETUP_REPEATS fresh processes that
import ahmass and generate and validate the configs), peak resident memory
and the share of check runs that passed.  ``--trace 1`` spends half of the
time untraced and half with the tracer of ``tracing.py`` installed, and
reports the per-layer metrics of the traced passes (medians over passes)
and the tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it records the environment.  Reports go to .perfbench_out/ in the
repository root, which is removed at the end of the run; a traced run leaves
its spans there as a gzip CSV.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_thread_pools() -> int:
    """Set every thread-pool variable to at most the usable CPU count.

    Must run before numpy is imported.  An existing lower value is kept.
    """
    ncpu = len(os.sched_getaffinity(0))
    threads = ncpu
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < threads:
            threads = int(value)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment(threads: int) -> dict:
    """Library versions, CPU, caches and thread settings of this run."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "threads_used": threads,
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median seconds of fresh processes that import ahmass and prepare configs."""
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "workloads.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", str(work / f"setup{k}")],
                       check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(prepared) -> tuple[float, float, int]:
    """One pass over the workload: (wall seconds, CPU seconds, failed runs)."""
    import gate
    from ahmass.cli import run   # looked up per pass: a tracer may have wrapped it

    wall = cpu = 0.0
    failed = 0
    for case, config, out_dir in prepared:
        doc = copy.deepcopy(config)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = run(doc, out_dir=out_dir)
        except Exception as exc:  # a raising check run is a failed run
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        cpu += time.process_time() - cpu_start
        errors = gate.check_run(case, config, out_dir, code)
        if errors:
            failed += 1
            print(f"gate: {case.label}: {'; '.join(errors)}", file=sys.stderr)
    return wall, cpu, failed


def run_passes(prepared, seconds: float, each=None) -> list:
    """Passes within ``seconds``: at least one, and another only while one
    more pass of median duration is expected to end in time.

    ``each(pass_result)`` may replace what is kept for each pass.
    """
    kept, durations = [], []
    start = time.perf_counter()
    while not kept or (time.perf_counter() - start
                       + statistics.median(durations)) <= seconds:
        began = time.perf_counter()
        result = run_pass(prepared)
        durations.append(time.perf_counter() - began)
        kept.append(each(result) if each else result)
    return kept


def end_to_end(prepared, seconds: float, setup_s: float):
    passes = run_passes(prepared, seconds)
    failed = sum(p[2] for p in passes)
    attempted = len(passes) * len(prepared)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, len(passes)


def per_layer(prepared, seconds: float, spans_path: Path):
    from tracing import Tracer, layer_metrics

    untraced = run_passes(prepared, seconds / 2)
    tracer = Tracer()

    def snapshot(result):
        return result, len(tracer.spans), tracer.counts.copy()

    with tracer.installed():
        marks = [(None, 0, tracer.counts.copy())]
        marks += run_passes(prepared, seconds / 2, snapshot)
    tracer.write_spans(spans_path)
    layers = []
    for (_, lo, before), (_, hi, after) in zip(marks, marks[1:]):
        layers.append(layer_metrics(tracer.spans, lo, hi, after - before))
    metrics = {}
    for name, (_, unit) in layers[0].items():
        # times: median over traced passes; counts repeat, so keep one exactly
        pick = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (pick([layer[name][0] for layer in layers]), unit)
    traced = [m[0] for m in marks[1:]]
    overhead = (statistics.median(p[0] for p in traced)
                - statistics.median(p[0] for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    passes = untraced + traced
    failed = sum(p[2] for p in passes)
    return metrics, len(passes) * len(prepared), failed, len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = cap_thread_pools()
    if not (SRC / "ahmass" / "__init__.py").is_file():
        print(f"perfbench: no ahmass sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # a fixed path: reports embed their output directory, and the reporting
    # bytes counted by a traced run must repeat across runs
    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        import ahmass
        if Path(ahmass.__file__).resolve().parent != (SRC / "ahmass").resolve():
            print(f"perfbench: ahmass imported from {ahmass.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        from workloads import prepare
        prepared = prepare(args.workload, args.seed, work / "cases")
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            metrics, attempted, failed, passes = per_layer(prepared, args.seconds,
                                                           spans)
        else:
            setup_s = measure_setup(args.workload, args.seed, work)
            metrics, attempted, failed, passes = end_to_end(prepared, args.seconds,
                                                            setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, {passes} passes of "
          f"{len(prepared)} check runs, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:34s} {value:14.6g} {unit}")
    print(json.dumps({"environment": environment(threads)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
