"""Run the full command battery on the built-in fixtures.

Writes configs and reports under out/ (override with --out) and prints one
line per command.  Exit status is nonzero if any command fails its checks.
Each run's directory holds its ``config.json``, so the battery can be rerun
through the command line:

    python scripts/run_all_checks.py [--out DIR]
    ahmass <command> --config DIR/<run>/config.json --out OTHER/<run>
"""

import argparse
import json
import sys
import time
from pathlib import Path

from ahmass.cli import DEFAULT_SEED, run

HYPERBOLIC = {"family": "hyperbolic", "n": 3, "params": {}}
STATIC_FAMILY = {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}}
# n = 4: a bump along x_1 with no rotational symmetry, and the static family
PERTURBED_4 = {"family": "perturbed", "n": 4, "params": {
    "base": {"family": "hyperbolic", "n": 4, "params": {}},
    "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.0, 0.0, 0.0], "rate": 4.0}}}
STATIC_FAMILY_4 = {"family": "schwarzschild_ads", "n": 4, "params": {"m": 0.5}}
# a conformal metric keeps the horizon clamp of its base: curvature samples
# from 1.3 x horizon = 0.887, above the r_min asked for
CONFORMAL_STATIC = {"family": "conformal", "n": 3, "params": {
    "base": STATIC_FAMILY, "profile": {"kind": "power_tail", "amp": 0.05, "rate": 3.0}}}

BATTERY = [
    ("mass", HYPERBOLIC, {}),
    ("mass", STATIC_FAMILY, {}),
    ("curvature", STATIC_FAMILY, {}),
    ("verify-ah", STATIC_FAMILY, {"q_claimed": 3.0}),
    ("duality-check", STATIC_FAMILY, {"pairs": 10}),
    ("eigenfunction", STATIC_FAMILY, {}),
    ("deform", HYPERBOLIC, {}),
    ("first-variation", STATIC_FAMILY, {}),
    ("ode-verify", None, {"ode": {"p_amp": 0.3, "q_amp": 0.5, "f_amp": 1.0,
                                  "decay": 2.0}}),
    ("dichotomy", HYPERBOLIC, {"fan_count": 64}),
    ("rigidity-check", HYPERBOLIC, {}),
    ("mass", PERTURBED_4, {}),
    ("duality-check", STATIC_FAMILY_4, {"quad_polar": 10, "quad_azimuth": 20,
                                        "radial_nodes": 16, "pairs": 3}),
    # no quad_*: the 16 x 32 default scaled to 6 x 12 on S^3
    ("first-variation", {"family": "hyperbolic", "n": 4, "params": {}}, {}),
    ("curvature", CONFORMAL_STATIC, {"r_min": 0.5}),
    # the resonant branch d = 1: the t e^(-t) remainder profile
    ("ode-verify", None, {"ode": {"p_amp": 0.3, "q_amp": 0.5, "f_amp": 1.0,
                                  "decay": 1.0}}),
]


def battery_config(i):
    """Run ``i`` of ``BATTERY`` as a config document."""
    command, metric, numeric = BATTERY[i]
    config = {"command": command, "numeric": dict(numeric, seed=DEFAULT_SEED)}
    if metric is not None:
        config["metric"] = metric
    return config


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out")
    args = parser.parse_args()
    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    failures = 0
    for i, (command, metric, _) in enumerate(BATTERY):
        config = battery_config(i)
        out_dir = root / f"{i:02d}_{command.replace('-', '_')}"
        out_dir.mkdir(exist_ok=True)
        (out_dir / "config.json").unlink(missing_ok=True)
        (out_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        t0 = time.time()
        status = run(config, out_dir=out_dir)
        label = "pass" if status == 0 else "FAIL"
        failures += status != 0
        name = metric["family"] if metric else "-"
        print(f"{label}  {command:16s} {name:18s} {time.time() - t0:6.1f}s  "
              f"-> {out_dir}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
