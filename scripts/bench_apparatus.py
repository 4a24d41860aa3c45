"""Time the metric apparatus and the linearized scalar-curvature operator, layer by layer.

At n = 3 and n = 4, on NODES random points of the exterior (2 < r < 6) of
the Schwarzschild-AdS metric with m = 0.5, this times:

- ``level1_s``: ``metric_apparatus(spec, coords, level=1)``;
- ``level2_scalar_s``: ``metric_apparatus(spec, coords, level=2)`` and a
  read of its ``scalar``;
- ``riemann_read_s``: the first read of ``riemann`` on a new level-2
  apparatus, null for a revision that builds it with every level-2
  apparatus (it is then part of ``level2_scalar_s``);
- ``lg_first_s``: the first ``linearized_scalar_values(app, h)`` on a new
  level-2 apparatus, whatever it sets up for the apparatus included;
- ``lg_next_s``: one more ``linearized_scalar_values`` on the same
  apparatus with another field h, as each further pair of
  ``duality-check`` makes.

The component jets of the metric and of the fields are evaluated before the
clock starts.  Each figure is the median over ``--repeats`` runs, each run on
the same points.  Only public functions are called, so the same script
times any revision of ``ahmass`` on ``PYTHONPATH``.  The results are merged
into ``--out`` under ``--label``, next to the runs of other labels, with the
machine they were taken on.

    PYTHONPATH=src python scripts/bench_apparatus.py --label HEAD \\
        [--repeats 5] [--out BENCH_apparatus.json]
"""

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compact_fields import _timed, machine  # noqa: E402

from ahmass.chart import random_points             # noqa: E402
from ahmass.curvature import MetricApparatus, metric_apparatus  # noqa: E402
from ahmass.fields import random_compact_tensor     # noqa: E402
from ahmass.metrics import schwarzschild_ads        # noqa: E402
from ahmass.operators import linearized_scalar_values  # noqa: E402

NODES = 2048
SUPPORT = (2.0, 6.0)
LAYERS = ("level1_s", "level2_scalar_s", "riemann_read_s", "lg_first_s", "lg_next_s")


def time_layers(n, repeats):
    """Median seconds of each layer at dimension n, None for an eager Riemann array."""
    rng = np.random.default_rng(n)
    coords = random_points(n, rng, NODES, r_range=(2.05, 5.95))
    spec = schwarzschild_ads(n, 0.5)
    jet1, jet2 = spec.component_jets(coords, order=1), spec.component_jets(coords)
    fields = [random_compact_tensor(rng, n, *SUPPORT).component_arrays(coords)
              for _ in range(2)]
    eager = "riemann" in {f.name for f in dataclasses.fields(MetricApparatus)}
    times = {layer: [] for layer in LAYERS}
    for _ in range(repeats):
        times["level1_s"].append(_timed(lambda: metric_apparatus(jet1, coords, level=1)))
        times["level2_scalar_s"].append(
            _timed(lambda: metric_apparatus(jet2, coords, level=2).scalar))
        app = metric_apparatus(jet2, coords, level=2)
        times["riemann_read_s"].append(_timed(lambda: app.riemann))
        app = metric_apparatus(jet2, coords, level=2)
        times["lg_first_s"].append(_timed(lambda: linearized_scalar_values(app, fields[0])))
        times["lg_next_s"].append(_timed(lambda: linearized_scalar_values(app, fields[1])))
    out = {layer: statistics.median(t) for layer, t in times.items()}
    if eager:
        out["riemann_read_s"] = None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output, e.g. a commit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_apparatus.json")
    args = parser.parse_args()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = doc.setdefault("runs", {})
    results = {}
    for n in (3, 4):
        r = time_layers(n, args.repeats)
        results[f"n{n}"] = {"n": n, "nodes": NODES, **r}
        cells = "  ".join(f"{layer} " + ("eager" if r[layer] is None else f"{1e3 * r[layer]:.2f} ms")
                          for layer in LAYERS)
        print(f"{args.label:8s} n = {n}  {cells}")
    runs[args.label] = {"machine": machine(), "repeats": args.repeats, "cases": results}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
