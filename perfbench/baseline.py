"""Record a baseline: every workload, two untraced runs and two traced runs.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` once per (workload, run) in a fresh process with
seed SEED, prints each end-to-end metric by name and unit for every
workload, checks that the work counters of the two traced runs agree
exactly, and writes every result with the environment to baseline.json
next to this file.  Each run lasts ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1
RUNS = (("untraced 1", 0), ("untraced 2", 0), ("traced 1", 1), ("traced 2", 1))


def bench(workload: str, seed: int, seconds: float, trace: int):
    """(result, environment) of one benchmark run; raises if it fails."""
    out = subprocess.run([sys.executable, str(BENCH / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=900)
    *_, env_line, result_line = out.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(env_line)["environment"]


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    doc = {"seed": SEED, "seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in WORKLOADS:
        runs = {}
        for label, trace in RUNS:
            result, doc["environment"] = bench(workload, SEED, seconds, trace)
            runs[label] = result
            all_ok &= result["correct"]
        counts = [{name: m["value"] for name, m in runs[label]["metrics"].items()
                   if m["unit"] != "s"}
                  for label in ("traced 1", "traced 2")]
        doc["workloads"][workload] = {"runs": runs,
                                      "traced_counts_repeat": counts[0] == counts[1]}
        all_ok &= counts[0] == counts[1]

        print(f"\n{workload}: end-to-end metrics, seed {SEED}")
        for name, metric in runs["untraced 1"]["metrics"].items():
            values = "  ".join(f"{runs[label]['metrics'][name]['value']:12.6g}"
                               for label in ("untraced 1", "untraced 2"))
            print(f"  {name:14s} {metric['unit']:6s} {values}")
        overheads = [runs[label]["metrics"]["trace.overhead_s"]["value"]
                     for label in ("traced 1", "traced 2")]
        print(f"  traced counts repeat exactly: {counts[0] == counts[1]}; "
              f"trace.overhead_s {overheads[0]:.3f}, {overheads[1]:.3f} s")

    out = BENCH / "baseline.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
