"""Time the verifier's layers, one suite at a time, into BENCH_<suite>.json.

    PYTHONPATH=src python scripts/bench_layers.py SUITE [SUITE ...] --label NAME \\
        [--repeats 5] [--out-dir .]

The suites are ``apparatus``, ``compact_fields``, ``node_blocks`` and
``sphere_rules``; README.md ("Layer benchmarks") says what each one times.
Each figure is the median over ``--repeats`` runs.  A suite's cases are
merged into ``DIR/BENCH_<suite>.json`` under ``--label``, next to the runs of
other labels, with the machine they were taken on.  Only public functions
and ``cli.run`` are called, so the same script times any revision of
``ahmass`` on ``PYTHONPATH``.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import make_workload              # noqa: E402
from run_all_checks import battery_config                  # noqa: E402

import ahmass.massflux as massflux                         # noqa: E402
from ahmass import cli                                     # noqa: E402
from ahmass.chart import random_points                     # noqa: E402
from ahmass.curvature import metric_apparatus              # noqa: E402
from ahmass.fields import (CompactBasis, random_compact_scalar,  # noqa: E402
                           random_compact_tensor)
from ahmass.metrics import schwarzschild_ads               # noqa: E402
from ahmass.operators import linearized_scalar_values      # noqa: E402
from ahmass.quadrature import sphere_rule, volume_rule     # noqa: E402

SUPPORT = (2.0, 6.0)       # the support of every random compact field
APPARATUS_NODES = 2048
# (name, n, radial nodes, polar nodes, azimuth nodes): the default rules of
# duality-check and first-variation at n = 3, and the battery's n = 4 duality rule
VOLUME_RULES = [
    ("duality_n3", 3, 32, 12, 24),
    ("first_variation_n3", 3, 48, 16, 32),
    ("duality_n4", 4, 16, 10, 20),
]
# (name, battery run, nodes): the n = 3 volume checks (the benchmark's volume
# workload) and the n = 4 ones
NODE_BLOCK_CASES = [
    ("duality_n3", 4, 32 * 12 * 24),
    ("first_variation_n3", 7, 48 * 16 * 32),
    ("battery_12_duality_n4", 12, 16 * 10 * 10 * 20),
    ("battery_13_first_variation_n4", 13, 48 * 6 * 6 * 12),
]
median = statistics.median


def machine():
    model = platform.processor()
    try:
        model = next(line.split(":", 1)[1].strip()
                     for line in Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": model, "usable_cpus": len(os.sched_getaffinity(0))}


def _timed(fn):
    """Wall seconds of fn()."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def check_run(config, out_dir):
    """One run of ``config`` through ``cli.run``; it must pass."""
    status = cli.run(json.loads(json.dumps(config)), out_dir=out_dir)
    if status != 0:
        raise SystemExit(f"{config['command']} exited {status}")


def time_run(config, out_dir):
    """(wall seconds, CPU seconds of all threads) of one passing run."""
    t0, c0 = time.perf_counter(), time.process_time()
    check_run(config, out_dir)
    return time.perf_counter() - t0, time.process_time() - c0


def _medians(times):
    return {"wall_s": median(t[0] for t in times), "cpu_s": median(t[1] for t in times)}


def apparatus(repeats):
    cases = {}
    for n in (3, 4):
        rng = np.random.default_rng(n)
        coords = random_points(n, rng, APPARATUS_NODES, r_range=(2.05, 5.95))
        spec = schwarzschild_ads(n, 0.5)
        jet1, jet2 = spec.component_jets(coords, order=1), spec.component_jets(coords)
        fields = [random_compact_tensor(rng, n, *SUPPORT).component_arrays(coords)
                  for _ in range(2)]
        times = {layer: [] for layer in ("level1_s", "level2_scalar_s", "riemann_read_s",
                                         "lg_first_s", "lg_next_s")}
        for _ in range(repeats):
            times["level1_s"].append(_timed(lambda: metric_apparatus(jet1, coords, level=1)))
            times["level2_scalar_s"].append(
                _timed(lambda: metric_apparatus(jet2, coords, level=2).scalar))
            app = metric_apparatus(jet2, coords, level=2)
            times["riemann_read_s"].append(_timed(lambda: app.riemann))
            app = metric_apparatus(jet2, coords, level=2)
            times["lg_first_s"].append(_timed(lambda: linearized_scalar_values(app, fields[0])))
            times["lg_next_s"].append(_timed(lambda: linearized_scalar_values(app, fields[1])))
        cases[f"n{n}"] = {"n": n, "nodes": APPARATUS_NODES,
                          **{layer: median(t) for layer, t in times.items()}}
    return cases


def compact_fields(repeats):
    cases = {}
    for name, n, radial, polar, azimuth in VOLUME_RULES:
        coords = volume_rule(n, list(SUPPORT), [radial], sphere_rule(n, polar, azimuth)).coords
        rng = np.random.default_rng(0)
        cold, tensor, scalar = [], [], []
        for _ in range(repeats):
            h = random_compact_tensor(rng, n, *SUPPORT)
            u = random_compact_scalar(rng, *SUPPORT, n)
            basis = []      # the cold pass's basis, for the warm evaluations

            def first_fields():
                basis.append(CompactBasis(coords, SUPPORT))
                h.evaluate(basis[0])
                u.evaluate(basis[0])

            cold.append(_timed(first_fields))
            tensor.append(_timed(lambda: h.evaluate(basis[0])))
            scalar.append(_timed(lambda: u.evaluate(basis[0])))
        cases[name] = {"nodes": int(coords.shape[0]),
                       "radii": int(np.unique(coords[:, 0]).size),
                       "directions": int(np.unique(coords[:, 1:], axis=0).shape[0]),
                       "cold_s": median(cold), "tensor_evaluate_s": median(tensor),
                       "scalar_evaluate_s": median(scalar),
                       "basis_build_s": median(c - t - s for c, t, s in zip(cold, tensor, scalar))}
    return cases


def node_blocks(repeats):
    cpus = os.sched_getaffinity(0)
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run, nodes in NODE_BLOCK_CASES:
            config, out_dir = battery_config(run), Path(tmp) / name
            time_run(config, out_dir)            # warm caches and imports
            one_cpu, pool = [], []
            for _ in range(repeats):
                os.sched_setaffinity(0, {min(cpus)})
                try:
                    one_cpu.append(time_run(config, out_dir))
                finally:
                    os.sched_setaffinity(0, cpus)
                pool.append(time_run(config, out_dir))
            cases[name] = {"command": config["command"], "nodes": nodes,
                           "one_cpu": _medians(one_cpu), "pool": _medians(pool)}
    return cases


def counted_run(config, out_dir):
    """(quadrature record, sphere nodes evaluated) of one untimed ``mass`` run."""
    real = massflux.flux_integrand_values
    nodes = []

    def counting(spec, potentials, coords):
        nodes.append(len(coords))
        return real(spec, potentials, coords)

    massflux.flux_integrand_values = counting
    try:
        check_run(config, out_dir)
    finally:
        massflux.flux_integrand_values = real
    report = json.loads((Path(out_dir) / "mass_report.json").read_text())
    return report["results"]["quadrature"], sum(nodes)


def sphere_rules(repeats):
    configs = {f"battery_{i:02d}": battery_config(i) for i in (0, 1, 11)}
    configs.update((case.label, case.config) for case in make_workload("sphere", 7)
                   if case.config["command"] == "mass")
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in configs.items():
            out_dir = Path(tmp) / name
            quad, evaluated = counted_run(config, out_dir)
            times = [time_run(config, out_dir) for _ in range(repeats)]
            cases[name] = {"metric": config["metric"]["family"], "n": config["metric"]["n"],
                           "rule": f"{quad['polar']}x{quad['azimuth']}",
                           "rule_nodes": quad["nodes"], "nodes_evaluated": evaluated,
                           "quadrature_error": quad["error"], **_medians(times)}
    return cases


SUITES = {"apparatus": apparatus, "compact_fields": compact_fields,
          "node_blocks": node_blocks, "sphere_rules": sphere_rules}


def _show(value):
    if isinstance(value, dict):
        return "(" + ", ".join(f"{key} {_show(v)}" for key, v in value.items()) + ")"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suites", nargs="+", choices=SUITES, metavar="SUITE",
                        help=f"one of {', '.join(SUITES)}")
    parser.add_argument("--label", required=True,
                        help="name of this run in the output, e.g. a commit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for suite in args.suites:
        cases = SUITES[suite](args.repeats)
        for case, fields in cases.items():
            print(f"{args.label} {suite} {case}  {_show(fields)}")
        out = args.out_dir / f"BENCH_{suite}.json"
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc.setdefault("runs", {})[args.label] = {
            "machine": machine(), "repeats": args.repeats, "cases": cases}
        out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
