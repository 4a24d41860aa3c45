"""Time the two volume checks on one CPU and on the node-block thread pool.

``duality-check`` and ``first-variation`` evaluate their rules in node blocks
(``quadrature.map_node_blocks``), which run on a thread pool with one worker
per usable CPU.  This script runs each check through ``ahmass.cli.run``
twice per repeat:

- ``one_cpu``: with the process's main thread pinned to one CPU, so the
  blocks run inline, as under ``taskset -c 0``;
- ``pool``: with the CPUs the process started with.

Cases: the n = 3 rules of the benchmark's volume workload (``duality-check``
with 10 pairs on 9,216 nodes, ``first-variation`` on 24,576) and runs 12
and 13 of ``scripts/run_all_checks.py`` (n = 4).  Each figure is the median
over ``--repeats`` of the wall and the CPU seconds (all threads) of one run.
Only ``cli.run`` is called, so the same script times any revision of
``ahmass`` on ``PYTHONPATH``.  The results are merged into ``--out`` under
``--label``, next to the runs of other labels, with the machine they were
taken on.  Reports go to a temporary directory.

    PYTHONPATH=src python scripts/bench_node_blocks.py --label HEAD \\
        [--repeats 5] [--out BENCH_node_blocks.json]
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compact_fields import machine          # noqa: E402
from run_all_checks import BATTERY, STATIC_FAMILY  # noqa: E402

from ahmass.cli import run                         # noqa: E402

SEED = 20240801


def _case(command, metric, numeric):
    return {"command": command, "metric": metric, "numeric": dict(numeric, seed=SEED)}


# (name, config, nodes)
CASES = [
    ("duality_n3", _case("duality-check", STATIC_FAMILY, {"pairs": 10}), 32 * 12 * 24),
    ("first_variation_n3", _case("first-variation", STATIC_FAMILY, {}), 48 * 16 * 32),
    ("battery_12_duality_n4", _case(*BATTERY[12]), 16 * 10 * 10 * 20),
    ("battery_13_first_variation_n4", _case(*BATTERY[13]), 48 * 6 * 6 * 12),
]


def time_run(config, out_dir):
    """(wall seconds, CPU seconds) of one check run; it must pass."""
    t0, c0 = time.perf_counter(), time.process_time()
    status = run(json.loads(json.dumps(config)), out_dir=out_dir)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if status != 0:
        raise SystemExit(f"{config['command']} exited {status}")
    return wall, cpu


def time_case(config, repeats, out_dir):
    cpus = os.sched_getaffinity(0)
    one_cpu = {min(cpus)}
    times = {"one_cpu": [], "pool": []}
    time_run(config, out_dir)            # warm caches and imports
    for _ in range(repeats):
        os.sched_setaffinity(0, one_cpu)
        try:
            times["one_cpu"].append(time_run(config, out_dir))
        finally:
            os.sched_setaffinity(0, cpus)
        times["pool"].append(time_run(config, out_dir))
    med = statistics.median
    return {mode: {"wall_s": med(t[0] for t in runs), "cpu_s": med(t[1] for t in runs)}
            for mode, runs in times.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output, e.g. a commit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_node_blocks.json")
    args = parser.parse_args()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = doc.setdefault("runs", {})
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, nodes in CASES:
            r = time_case(config, args.repeats, Path(tmp) / name)
            results[name] = {"command": config["command"], "nodes": nodes, **r}
            print(f"{args.label:12s} {name:30s} {nodes:6d} nodes  "
                  f"one CPU {r['one_cpu']['wall_s']:6.3f} s wall "
                  f"{r['one_cpu']['cpu_s']:6.3f} s CPU  "
                  f"pool {r['pool']['wall_s']:6.3f} s wall {r['pool']['cpu_s']:6.3f} s CPU")
    runs[args.label] = {"machine": machine(), "repeats": args.repeats, "cases": results}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
