"""Time the random compact test fields of the volume checks, layer by layer.

For each volume rule that ``duality-check`` and ``first-variation`` build by
default (n = 3) and for the n = 4 duality rule of the battery, this times:

- ``cold_s``: a new ``fields.CompactBasis`` plus the first tensor and the
  first scalar ``evaluate`` on it, which build the basis' shared jets;
- ``tensor_evaluate_s`` and ``scalar_evaluate_s``: one more field's
  ``evaluate`` on the warm basis;
- ``basis_build_s``: ``cold_s`` less the two warm evaluations, the share of
  the cold pass spent on the shared jets.

Each figure is the median over ``--repeats`` runs, at jet order 2 (the order
both commands ask for).  Only the public API (``CompactBasis(coords,
support)``, ``field.evaluate(basis)``) is called, so the same script times
any revision of ``ahmass`` on ``PYTHONPATH``.  The results are merged into
``--out`` under ``--label``, next to the runs of other labels, with the
machine they were taken on.

    PYTHONPATH=src python scripts/bench_compact_fields.py --label HEAD \\
        [--repeats 5] [--out BENCH_compact_fields.json]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from ahmass.fields import CompactBasis, random_compact_scalar, random_compact_tensor
from ahmass.quadrature import sphere_rule, volume_rule

SUPPORT = (2.0, 6.0)
# (name, n, radial nodes, polar nodes, azimuth nodes): the default rules of
# duality-check and first-variation at n = 3, and the battery's n = 4 duality rule
RULES = [
    ("duality_n3", 3, 32, 12, 24),
    ("first_variation_n3", 3, 48, 16, 32),
    ("duality_n4", 4, 16, 10, 20),
]


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_rule(n, radial, polar, azimuth, repeats):
    coords = volume_rule(n, list(SUPPORT), [radial], sphere_rule(n, polar, azimuth)).coords
    rng = np.random.default_rng(0)
    cold, tensor, scalar = [], [], []
    for _ in range(repeats):
        h = random_compact_tensor(rng, n, *SUPPORT)
        u = random_compact_scalar(rng, *SUPPORT, n)

        def first_fields():
            basis = CompactBasis(coords, SUPPORT)
            h.evaluate(basis)
            u.evaluate(basis)
            return basis

        t0 = time.perf_counter()
        basis = first_fields()
        cold.append(time.perf_counter() - t0)
        tensor.append(_timed(lambda: h.evaluate(basis)))
        scalar.append(_timed(lambda: u.evaluate(basis)))
    med = statistics.median
    return {"nodes": int(coords.shape[0]),
            "radii": int(np.unique(coords[:, 0]).size),
            "directions": int(np.unique(coords[:, 1:], axis=0).shape[0]),
            "cold_s": med(cold), "tensor_evaluate_s": med(tensor),
            "scalar_evaluate_s": med(scalar),
            "basis_build_s": med(c - t - s for c, t, s in zip(cold, tensor, scalar))}


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output, e.g. a commit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_compact_fields.json")
    args = parser.parse_args()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = doc.setdefault("runs", {})
    results = {}
    for name, n, radial, polar, azimuth in RULES:
        results[name] = time_rule(n, radial, polar, azimuth, args.repeats)
        r = results[name]
        print(f"{args.label:12s} {name:20s} {r['nodes']:6d} nodes  "
              f"basis {r['basis_build_s'] * 1e3:7.1f} ms  "
              f"tensor {r['tensor_evaluate_s'] * 1e3:7.1f} ms  "
              f"scalar {r['scalar_evaluate_s'] * 1e3:7.1f} ms")
    runs[args.label] = {"machine": machine(), "repeats": args.repeats,
                        "rules": results}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
