"""Seeded workload generator: the CLI check runs of each benchmark workload.

A workload is a list of cases.  Each case is one ``ahmass`` check run: a
config document exactly as a user would write it, plus the name of the
correctness oracle its report must meet (see ``gate.py``).  The seed varies
the config ``seed``, the schwarzschild_ads mass parameter and the ODE
amplitudes, inside ranges on which every check of the command passes.

Run as a script it is the set-up probe: a fresh process that imports
``ahmass`` and generates and validates one workload's configs.

    python3 perfbench/workloads.py --workload sphere --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("volume", "sphere", "solvers")

# Ranges checked to pass every check of the command that uses them.
MASS_RANGE = (0.3, 0.7)          # schwarzschild_ads m
ODE_AMP_RANGE = (0.1, 0.5)       # p_amp and q_amp of ode-verify
ODE_FORCE_RANGE = (0.5, 1.5)     # f_amp of ode-verify

HYPERBOLIC = {"family": "hyperbolic", "n": 3, "params": {}}


@dataclass(frozen=True)
class Case:
    label: str          # unique within the workload, used as output directory
    config: dict        # the config document the CLI loads
    oracle: str = ""    # name of an extra oracle in gate.ORACLES, or ""


def _ads(m: float) -> dict:
    return {"family": "schwarzschild_ads", "n": 3, "params": {"m": m}}


def _power_tail_conformal(amp: float) -> dict:
    return {"family": "conformal", "n": 3,
            "params": {"base": HYPERBOLIC,
                       "profile": {"kind": "power_tail", "amp": amp,
                                   "rate": 3.0, "onset": 5.0}}}


def _config(command: str, metric, **numeric) -> dict:
    doc = {"command": command, "numeric": numeric}
    if metric is not None:
        doc["metric"] = metric
    return doc


def make_workload(name: str, seed: int) -> list[Case]:
    """The cases of workload ``name`` for ``seed``; the same seed, the same cases."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")

    def cfg_seed() -> int:
        return rng.randrange(1, 2 ** 31)

    def mass() -> float:
        return round(rng.uniform(*MASS_RANGE), 6)

    def amp(lo_hi) -> float:
        return round(rng.uniform(*lo_hi), 6)

    if name == "volume":
        return [
            Case("duality_ads", _config("duality-check", _ads(mass()),
                                        pairs=10, seed=cfg_seed())),
            Case("first_variation_ads", _config("first-variation", _ads(mass()),
                                                seed=cfg_seed())),
        ]
    if name == "sphere":
        m_mass, m_ah, m_curv = mass(), mass(), mass()
        return [
            Case("mass_hyperbolic", _config("mass", HYPERBOLIC, seed=cfg_seed()),
                 "mass_zero"),
            Case("mass_ads", _config("mass", _ads(m_mass), seed=cfg_seed()),
                 "mass_ads"),
            Case("mass_conformal", _config("mass", _power_tail_conformal(0.1),
                                           seed=cfg_seed())),
            Case("verify_ah_ads", _config("verify-ah", _ads(m_ah), q_claimed=3.0,
                                          seed=cfg_seed())),
            Case("curvature_ads", _config("curvature", _ads(m_curv),
                                          sample_points=3000, seed=cfg_seed()),
                 "scalar_minus_six"),
        ]

    def ode(decay: float) -> dict:
        return {"p_amp": amp(ODE_AMP_RANGE), "q_amp": amp(ODE_AMP_RANGE),
                "f_amp": amp(ODE_FORCE_RANGE), "decay": decay}

    return [
        Case("ode_decay2", _config("ode-verify", None, ode=ode(2.0), seed=cfg_seed())),
        Case("ode_resonant", _config("ode-verify", None, ode=ode(1.0),
                                     seed=cfg_seed())),
        Case("dichotomy_hyperbolic", _config("dichotomy", HYPERBOLIC, fan_count=64,
                                             seed=cfg_seed())),
        Case("rigidity_hyperbolic", _config("rigidity-check", HYPERBOLIC,
                                            seed=cfg_seed())),
        Case("eigenfunction_ads", _config("eigenfunction", _ads(mass()),
                                          seed=cfg_seed())),
        Case("deform_hyperbolic", _config("deform", HYPERBOLIC, seed=cfg_seed())),
    ]


def prepare(name: str, seed: int, out_root: Path) -> list[tuple[Case, dict, Path]]:
    """Write each case's config file and load it back through the CLI validator.

    Returns (case, validated config, output directory) per case; raises the
    CLI's ``SchemaError`` if a generated config is invalid.
    """
    from ahmass.cli import load_config, resolve_metric

    prepared = []
    for case in make_workload(name, seed):
        out_dir = out_root / case.label
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "config.json"
        path.write_text(json.dumps(case.config, indent=2, sort_keys=True) + "\n")
        config = load_config(path)
        if case.config["command"] != "ode-verify":
            resolve_metric(config["metric"])
        prepared.append((case, config, out_dir))
    return prepared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    prepare(args.workload, args.seed, args.out)   # imports the whole package
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
