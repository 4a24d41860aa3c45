"""Correctness gate applied to every check run of every pass.

A run passes when ``ahmass.cli.run`` returns exit code 0 without raising and
its report meets the case's oracle, if it names one.  The oracles are the
closed forms frozen in docs/oracles.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

P0_SLOPE = 16.0 * math.pi     # p_0 / m of the n = 3 schwarzschild_ads family
P0_REL_TOL = 0.01             # "asserted to 1%"
PARITY_REL_TOL = 1e-9         # |p_i| / p_0; the p_i vanish by parity
ZERO_ABS_TOL = 1e-10          # |p_k| of the background
SCALAR = -6.0                 # scalar curvature -n(n-1), n = 3, for every m
SCALAR_ABS_TOL = 1e-8


def _mass_ads(config, results):
    m = config["metric"]["params"]["m"]
    p0, *p_rest = results["p"]
    errors = []
    if abs(p0 / m - P0_SLOPE) > P0_REL_TOL * P0_SLOPE:
        errors.append(f"p_0/m = {p0 / m!r}, expected 16 pi to 1%")
    if any(abs(p) > PARITY_REL_TOL * abs(p0) for p in p_rest):
        errors.append(f"p_i = {p_rest!r}, expected 0")
    return errors


def _mass_zero(config, results):
    if any(abs(p) > ZERO_ABS_TOL for p in results["p"]):
        return [f"mass vector {results['p']!r}, expected 0"]
    return []


def _scalar_minus_six(config, results):
    mean = results["scalar_mean"]
    if abs(mean - SCALAR) > SCALAR_ABS_TOL:
        return [f"scalar_mean = {mean!r}, expected -6"]
    return []


ORACLES = {"mass_ads": _mass_ads, "mass_zero": _mass_zero,
           "scalar_minus_six": _scalar_minus_six}


def report_path(config: dict, out_dir: Path) -> Path:
    return Path(out_dir) / f"{config['command'].replace('-', '_')}_report.json"


def check_run(case, config: dict, out_dir: Path, exit_code) -> list[str]:
    """Every gate violation of one check run; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    if not case.oracle:
        return []
    try:
        results = json.loads(report_path(config, out_dir).read_text())["results"]
        return ORACLES[case.oracle](config, results)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
