"""Time the ``mass`` runs and record the sphere rule each one ends on.

``mass`` without ``quad_polar``/``quad_azimuth`` steps through sphere rules
until two successive flux ladders agree (``massflux.rule_sequence``); a
revision without that record evaluates its one default rule.  This script
runs each case through ``ahmass.cli.run``:

- once untimed, counting the sphere nodes handed to
  ``massflux.flux_integrand_values`` over the whole run, every rule and
  radius included;
- then ``--repeats`` times, timed.

Cases: battery runs 00, 01 and 11 of ``scripts/run_all_checks.py``
(hyperbolic, schwarzschild_ads and the n = 4 axis bump) and the three
``mass`` configs of the benchmark's sphere workload at seed 7.  Per case it
writes the rule used, its nodes, the nodes evaluated, the report's
``quadrature.error`` (null for a revision that reports none) and the median
wall and CPU seconds of one run.  Only ``cli.run`` is timed, so the same
script times any revision of ``ahmass`` on ``PYTHONPATH``.  The results are
merged into ``--out`` under ``--label``, next to the runs of other labels,
with the machine they were taken on.  Reports go to a temporary directory.

    PYTHONPATH=src python scripts/bench_sphere_rules.py --label HEAD \\
        [--repeats 5] [--out BENCH_sphere_rules.json]
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT))
from bench_compact_fields import machine          # noqa: E402
from perfbench.workloads import make_workload     # noqa: E402
from run_all_checks import BATTERY                 # noqa: E402

import ahmass.massflux as massflux                 # noqa: E402
from ahmass.cli import run                         # noqa: E402
from ahmass.quadrature import default_polar_nodes  # noqa: E402

SEED = 20240801
WORKLOAD_SEED = 7


def _battery(index):
    command, metric, numeric = BATTERY[index]
    return {"command": command, "metric": metric, "numeric": dict(numeric, seed=SEED)}


CASES = [(f"battery_{i:02d}", _battery(i)) for i in (0, 1, 11)] + [
    (case.label, case.config) for case in make_workload("sphere", WORKLOAD_SEED)
    if case.config["command"] == "mass"]


def time_run(config, out_dir):
    """(wall seconds, CPU seconds) of one check run; it must pass."""
    t0, c0 = time.perf_counter(), time.process_time()
    status = run(json.loads(json.dumps(config)), out_dir=out_dir)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if status != 0:
        raise SystemExit(f"{config['command']} exited {status}")
    return wall, cpu


def counted_run(config, out_dir):
    """(quadrature record, sphere nodes evaluated) of one untimed run."""
    real = massflux.flux_integrand_values
    nodes = []

    def counting(spec, potentials, coords):
        nodes.append(len(coords))
        return real(spec, potentials, coords)

    massflux.flux_integrand_values = counting
    try:
        time_run(config, out_dir)
    finally:
        massflux.flux_integrand_values = real
    results = json.loads((Path(out_dir) / "mass_report.json").read_text())["results"]
    quad = results.get("quadrature")
    if quad is None:        # a revision that always evaluates its default rule
        polar = default_polar_nodes(config["metric"]["n"])
        quad = {"polar": polar, "azimuth": 2 * polar, "nodes": nodes[-1], "error": None}
    return quad, sum(nodes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output, e.g. a commit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_sphere_rules.json")
    args = parser.parse_args()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = doc.setdefault("runs", {})
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CASES:
            out_dir = Path(tmp) / name
            quad, evaluated = counted_run(config, out_dir)
            times = [time_run(config, out_dir) for _ in range(args.repeats)]
            wall = statistics.median(t[0] for t in times)
            cpu = statistics.median(t[1] for t in times)
            rule = f"{quad['polar']}x{quad['azimuth']}"
            results[name] = {"metric": config["metric"]["family"], "n": config["metric"]["n"],
                             "rule": rule, "rule_nodes": quad["nodes"],
                             "nodes_evaluated": evaluated,
                             "quadrature_error": quad["error"],
                             "wall_s": wall, "cpu_s": cpu}
            print(f"{args.label:8s} {name:16s} {rule:>6s} {quad['nodes']:5d} nodes  "
                  f"{evaluated:6d} evaluated  error {quad['error']!s:>22s}  "
                  f"{wall:6.3f} s wall {cpu:6.3f} s CPU")
    runs[args.label] = {"machine": machine(), "repeats": args.repeats, "cases": results}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
