"""Command-line surface: validated run configurations and report emission.

Usage:

    ahmass <command> --config config.json [--out DIR] [--quad-order K]
                     [--tol X] [--seed N]

Commands: mass, curvature, verify-ah, duality-check, eigenfunction, deform,
first-variation, ode-verify, dichotomy, rigidity-check.

The configuration document is strict: unknown keys anywhere, and metric and
command combinations the toolkit does not support, are rejected (exit 2), as
is an output directory or report file that cannot be written.  Numerical
failures exit 3; any other exception is an internal error (exit 4), reported
on one stderr line.  Completed runs exit 0 when every check passes its
tolerance and 1 otherwise.  Reports are deterministic: the same config
produces byte-identical report and CSV files in any output directory (the
output path, timestamp and runtime live in a separate metadata file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import DomainError, metric_from_dict, metric_to_dict

EXIT_CHECK_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

RADII_COUNT_MAX = 256     # 32x the default 8-radius ladder
SPHERE_NODES_MAX = 65536  # 14x the default 4,608-node sphere rule
VOLUME_NODES_MAX = 131072  # 2.3x the 57,344-node first-variation default


class SchemaError(ValueError):
    pass


class OutputError(OSError):
    """The output directory or a report file could not be written."""


DEFAULT_TOLERANCES = {
    "duality_residual": 1e-6,
    "eigenfunction_residual": 1e-7,
    "deform_linear_residual": 1e-6,
    "newton_contraction": 0.1,
    "first_variation_order": 0.9,
    "wang_gap": 1e-8,
    "hessian_defect": 1e-8,
    "sectional_ode": 1e-5,
    "rho_profile": 1e-6,
    "curvature_identity": 1e-8,
    "mass_defect_consistency": 1e-14,
    "prop27_relative": 1e-2,
    "certificate_bound": 1e8,
    "remainder_decay_relative": 0.1,
    "resonant_profile_residual": 0.05,
}


def _real(val) -> bool:
    """A finite JSON number; bools are not numbers here."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:     # an integer beyond the float range
        return False


def _count(minimum):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
            f"an integer >= {minimum}")


FINITE = (_real, "a finite number")
POSITIVE = (lambda v: _real(v) and v > 0, "a finite number > 0")
EPS_LADDER = (lambda v: (isinstance(v, list) and len(v) >= 2
                         and all(_real(e) and e > 0 for e in v)
                         and len(set(map(float, v))) == len(v)),
              "a list of >= 2 distinct finite numbers > 0")

# The numeric keys a config may set.  Each maps to a (test, requirement) rule,
# to the table of an object-valued key's own keys, or (radii) to None: the
# radius ladder is checked by its parser ``_radii``.
NUMERIC_KEYS = {
    "radii": None,                       # list of radii or {min, max, count}
    "quad_polar": _count(4),             # polar quadrature nodes
    "quad_azimuth": _count(4),           # azimuthal quadrature nodes
    "radial_nodes": _count(1),           # radial quadrature nodes per segment
    "seed": _count(0),                   # random seed recorded in the report
    "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, POSITIVE),  # per-check overrides
    "ode_horizon": POSITIVE,             # ODE integration horizon T
    "ode": {"p_amp": FINITE, "q_amp": FINITE, "f_amp": FINITE,   # ODE coefficient
            "decay": POSITIVE},                                   # family
    "pairs": _count(1),                  # randomized pairs (duality-check)
    "eps_ladder": EPS_LADDER,            # epsilon ladder (first-variation)
    "q_claimed": POSITIVE,               # claimed decay rate (verify-ah)
    "decay_rate": FINITE,                # target decay (deform / eigenfunction)
    "phi_amp": FINITE,                   # target amplitude (deform)
    "fan_count": _count(1),              # seed fan size (dichotomy)
    "sample_points": _count(1),          # sample count (curvature)
    "r_min": POSITIVE,                   # inner radius override
    "r_max": POSITIVE,                   # outer radius override
    "wang_radius": POSITIVE,             # ball radius (rigidity-check)
}


def _require_keys(doc: dict, allowed: dict | set, where: str):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")


def _read_json(path):
    """A JSON document from a file; text that is not UTF-8 is a config error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc


def load_config(path, overrides=None) -> dict:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError("config must be a JSON object")
    _require_keys(raw, {"command", "metric", "numeric", "output"}, "config")
    numeric = raw.get("numeric")
    numeric = {} if numeric is None else numeric
    if not isinstance(numeric, dict):
        raise SchemaError("numeric must be an object")
    numeric = dict(numeric)
    for key in ("tolerances", "ode"):     # null means empty, as for numeric
        if key in numeric and numeric[key] is None:
            numeric[key] = {}
    raw = dict(raw, numeric=numeric)
    if overrides:
        tols = numeric.get("tolerances", {})
        if overrides.get("quad_order") is not None:
            numeric["quad_polar"] = overrides["quad_order"]
            numeric["quad_azimuth"] = 2 * overrides["quad_order"]
        if overrides.get("seed") is not None:
            numeric["seed"] = overrides["seed"]
        if overrides.get("tol") is not None and isinstance(tols, dict):
            tols = tols | {k: overrides["tol"] for k in
                           ("duality_residual", "wang_gap", "curvature_identity")}
        numeric["tolerances"] = tols
        if overrides.get("out") is not None:
            raw["output"] = overrides["out"]
    _check_numeric(numeric)
    return raw


def _check_numeric(doc, table=NUMERIC_KEYS, where="numeric"):
    """Keys, types and ranges of a numeric document against its rule table."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    _require_keys(doc, table, where)
    for key, val in doc.items():
        rule = table[key]
        if rule is None:
            _radii(doc)
        elif isinstance(rule, dict):
            _check_numeric(val, rule, f"{where}.{key}")
        elif not rule[0](val):
            raise SchemaError(f"{where}.{key} must be {rule[1]}, got {val!r}")


def resolve_metric(doc) -> tuple:
    if doc is None:
        raise SchemaError("this command requires a metric spec")
    if isinstance(doc, str):
        doc = _read_json(doc)
    try:
        spec = metric_from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"bad metric spec: {exc}") from exc
    return spec, metric_to_dict(spec)


def _radii(numeric):
    doc = numeric.get("radii")
    if doc is None:
        return np.geomspace(20.0, 200.0, 8)
    if isinstance(doc, list):
        values = doc
    elif isinstance(doc, dict):
        _require_keys(doc, {"min", "max", "count"}, "numeric.radii")
        values = [doc.get("min"), doc.get("max")]
        count = doc.get("count")
        if (isinstance(count, bool) or not isinstance(count, int)
                or not 3 <= count <= RADII_COUNT_MAX):
            raise SchemaError(f"radii count must be an integer in "
                              f"3..{RADII_COUNT_MAX}, got {count!r}")
    else:
        raise SchemaError("radii must be a list or {min, max, count}")
    if not all(_real(v) and v > 0 for v in values):
        raise SchemaError(f"radii must be finite positive numbers, got {values!r}")
    arr = np.asarray(values, dtype=float)
    if isinstance(doc, dict):
        arr = np.geomspace(arr[0], arr[1], count)
    if arr.size < 3 or np.any(np.diff(arr) <= 0):
        raise SchemaError("radii must be >= 3 strictly increasing values")
    return arr


def _tol(numeric, key):
    return float(numeric.get("tolerances", {}).get(key, DEFAULT_TOLERANCES[key]))


def _sphere(numeric, n, polar=None):
    """The sphere rule of ``quad_polar`` x ``quad_azimuth`` nodes on S^{n-1}.

    An unset count comes from the command's n = 3 default ``polar`` x 2 ``polar``
    (48 x 96 without one), scaled to n so that the rule keeps its node count.
    """
    from .quadrature import DEFAULT_POLAR_NODES, default_polar_nodes, sphere_rule
    base = default_polar_nodes(n, polar or DEFAULT_POLAR_NODES)
    polar = int(numeric.get("quad_polar", base))
    azimuth = int(numeric.get("quad_azimuth", 2 * base))
    nodes = polar ** (n - 2) * azimuth
    if nodes > SPHERE_NODES_MAX:
        raise SchemaError(f"a {polar} x {azimuth} rule on S^{n - 1} has {nodes} "
                          f"nodes, more than {SPHERE_NODES_MAX}")
    return sphere_rule(n, polar, azimuth)


def _check_volume(sphere, radial_nodes):
    """Reject a volume rule of more than VOLUME_NODES_MAX nodes before it is built."""
    nodes = sphere.node_count * radial_nodes
    if nodes > VOLUME_NODES_MAX:
        raise SchemaError(f"a volume rule of {sphere.node_count} sphere x "
                          f"{radial_nodes} radial nodes has {nodes} nodes, "
                          f"more than {VOLUME_NODES_MAX}")


def _rng(numeric):
    return np.random.default_rng(int(numeric.get("seed", 20240801)))


# -- command handlers: each returns (results dict, checks list, csv tables) -----

def _require_exterior_chart(spec, command):
    if not spec.exterior_chart:
        raise NotImplementedError(
            f"{command} needs a metric on the exterior (r, angles) chart, "
            f"and this {spec.family} metric is not on it")


def run_mass(spec, numeric):
    from .massflux import mass_vector
    from .reporting import check
    _require_exterior_chart(spec, "mass")
    radii = _radii(numeric)
    mv = mass_vector(spec, radii, _sphere(numeric, spec.n))
    recompute = abs(mv.defect - (mv.p[0] - np.sqrt(np.sum(mv.p[1:] ** 2))))
    checks = [
        check("defect_consistency", recompute, _tol(numeric, "mass_defect_consistency")),
        check("extrapolation_converged",
              float(sum(1 for r in mv.reports if "no-extrapolation" in r.flags)),
              0.5),
    ]
    table = [["r"] + [rep.integrand_label for rep in mv.reports]]
    rows = [[float(r)] + [float(rep.values[i]) for rep in mv.reports]
            for i, r in enumerate(radii)]
    return mv.to_dict(), checks, {"mass_ladder": (table[0], rows)}


def run_curvature(spec, numeric):
    from .chart import random_points
    from .curvature import metric_apparatus, riemann_symmetry_defects
    from .reporting import check
    rng = _rng(numeric)
    count = int(numeric.get("sample_points", 200))
    r_min = float(numeric.get("r_min", 1.0))
    rh = getattr(spec, "horizon_radius", 0.0)
    if rh:
        r_min = max(r_min, 1.3 * rh)
    pts = random_points(spec.n, rng, count, r_range=(r_min, float(numeric.get("r_max", 50.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        app = metric_apparatus(spec, pts, level=2)
    bad = count - int(np.isfinite(app.riemann.reshape(count, -1)).all(axis=1).sum())
    if bad:
        raise ArithmeticError(f"curvature is not finite at {bad} of {count} sample points")
    anti1, anti2, bianchi = riemann_symmetry_defects(app.riemann)
    ric_sym = np.abs(app.ricci - app.ricci.swapaxes(1, 2)).max()
    tol = _tol(numeric, "curvature_identity") if spec.analytic else 1e-5
    scale = max(1.0, float(np.abs(app.riemann).max()))
    checks = [
        check("riemann_antisymmetry_first", float(anti1 / scale), tol),
        check("riemann_antisymmetry_last", float(anti2 / scale), tol),
        check("first_bianchi", float(bianchi / scale), tol),
        check("ricci_symmetry", float(ric_sym / scale), tol),
    ]
    header = ["r"] + [f"theta_{j}" for j in range(1, spec.n)] + ["scalar"]
    rows = [list(map(float, pts[i])) + [float(app.scalar[i])]
            for i in range(pts.shape[0])]
    results = {"scalar_mean": float(np.mean(app.scalar)),
               "scalar_max_dev": float(np.abs(app.scalar - np.mean(app.scalar)).max()),
               "samples": count}
    return results, checks, {"curvature_samples": (header, rows)}


def run_verify_ah(spec, numeric):
    from .decay import verify_ah
    from .reporting import check
    _require_exterior_chart(spec, "verify-ah")
    radii = _radii(numeric)
    q = float(numeric.get("q_claimed", spec.n))
    report = verify_ah(spec, q, radii)
    checks = [check(f"condition_{c.name}", 0.0 if c.passed else 1.0, 0.5,
                    passed=c.passed) for c in report.conditions]
    return report.to_dict(), checks, {}


def run_duality(spec, numeric):
    from .fields import random_compact_scalar, random_compact_tensor
    from .operators import duality_residual
    from .curvature import metric_apparatus
    from .quadrature import volume_rule
    from .reporting import check
    rng = _rng(numeric)
    pairs = int(numeric.get("pairs", 10))
    lo = max(2.0, float(numeric.get("r_min", 2.0)))
    hi = float(numeric.get("r_max", 6.0))
    sphere = _sphere(numeric, spec.n, 12)
    radial = int(numeric.get("radial_nodes", 32))
    _check_volume(sphere, radial)
    rule = volume_rule(spec.n, [lo, hi], [radial], sphere)
    app = metric_apparatus(spec, rule.coords, level=2)
    worst = 0.0
    values = []
    for _ in range(pairs):
        h = random_compact_tensor(rng, spec.n, lo, hi)
        u = random_compact_scalar(rng, lo, hi, spec.n)
        res = duality_residual(spec, h, u, rule, app=app)
        values.append(res)
        worst = max(worst, res)
    checks = [check("duality_residual_max", worst, _tol(numeric, "duality_residual"))]
    rows = [[i, float(v)] for i, v in enumerate(values)]
    return {"pairs": pairs, "max_residual": worst,
            "residuals": values}, checks, {"duality_residuals": (["pair", "residual"], rows)}


def run_eigenfunction(spec, numeric):
    from .radial import radial_eigenfunction
    from .reporting import check
    rep = radial_eigenfunction(spec, r_hi=float(numeric.get("r_max", 200.0)),
                               decay_rate=numeric.get("decay_rate"))
    checks = [
        check("eigen_residual", rep.residual_sup, _tol(numeric, "eigenfunction_residual")),
        check("positivity", 0.0 if rep.positive else 1.0, 0.5, passed=rep.positive),
    ]
    return rep.to_dict(), checks, {}


def run_deform(spec, numeric):
    from .fields import power_tail_profile
    from .radial import conformal_deform_radial
    from .reporting import check
    s = float(numeric.get("decay_rate", 2.0))
    amp = float(numeric.get("phi_amp", 0.05))
    prof = power_tail_profile(amp, s)
    phi = lambda r: prof(np.asarray(r, dtype=float))[0]
    rep = conformal_deform_radial(spec, phi, s, r_hi=float(numeric.get("r_max", 150.0)),
                                  newton_steps=3)
    worst_ratio = max(rep.contraction_ratios) if rep.contraction_ratios else 0.0
    checks = [
        check("linear_residual", rep.linear_residual,
              _tol(numeric, "deform_linear_residual")),
        check("newton_contraction", worst_ratio, _tol(numeric, "newton_contraction")),
    ]
    return rep.to_dict(), checks, {}


def run_first_variation(spec, numeric):
    from .fields import random_compact_tensor
    from .operators import first_variation_check
    from .quadrature import volume_rule
    from .radial import inner_truncation_radius, radial_eigenfunction
    from .reporting import check
    rng = _rng(numeric)
    eps = numeric.get("eps_ladder", [3e-2, 1e-2, 3e-3, 1e-3])
    eps = [float(e) for e in eps]
    r0 = inner_truncation_radius(spec)
    sphere, radial = _sphere(numeric, spec.n, 16), [16, 48, 24, 24]
    _check_volume(sphere, sum(radial))
    rule = volume_rule(spec.n, [max(r0, 0.1), 2.0, 6.0, 20.0,
                                float(numeric.get("r_max", 190.0))], radial, sphere)
    f = radial_eigenfunction(spec).potential
    h = random_compact_tensor(rng, spec.n, 2.0, 6.0, amplitude=0.5)
    rep = first_variation_check(spec, f, h, eps, rule)
    order_ok = rep.exact_zero or rep.order >= _tol(numeric, "first_variation_order")
    checks = [check("convergence_order", float(rep.order if not rep.exact_zero else 99.0),
                    _tol(numeric, "first_variation_order"), passed=bool(order_ok))]
    return rep.to_dict(), checks, {}


def run_ode_verify(spec, numeric):
    from .odes import ODEProblem, fundamental_pair, particular_solution
    from .reporting import check
    fam = numeric.get("ode", {}) or {}
    p_amp = float(fam.get("p_amp", 0.0))
    q_amp = float(fam.get("q_amp", 0.0))
    f_amp = float(fam.get("f_amp", 0.0))
    d = float(fam.get("decay", 1.0))
    T = float(numeric.get("ode_horizon", 25.0))
    c0 = max(abs(p_amp), abs(q_amp), abs(f_amp)) + 1e-12
    prob = ODEProblem(p=lambda t: p_amp * np.exp(-d * t),
                      q=lambda t: q_amp * np.exp(-d * t),
                      f=lambda t: f_amp * np.exp(-d * t),
                      horizon=T, bounds=(c0, d))
    pair = fundamental_pair(prob)
    checks = [
        check("certificate_finite", pair.C_certificate,
              _tol(numeric, "certificate_bound")),
        check("wronskian_bound", 0.0 if pair.wronskian_bound_ok() else 1.0, 0.5,
              passed=pair.wronskian_bound_ok()),
    ]
    results = {"C_certificate": pair.C_certificate,
               "flags": list(pair.flags)}
    if f_amp != 0.0:
        prep = particular_solution(prob, pair)
        results["particular"] = prep.to_dict()
        if d == 1.0:
            checks.append(check("resonant_profile_residual", prep.profile_residual,
                                _tol(numeric, "resonant_profile_residual")))
        else:
            rel = abs(prep.fitted_decay - d) / d
            checks.append(check("remainder_decay_relative", rel,
                                _tol(numeric, "remainder_decay_relative")))
    t = pair.grid[:: max(1, pair.grid.size // 2000)]
    (v1, d1), (v2, d2) = pair.u1.at(t), pair.u2.at(t)
    rows = np.column_stack([t, v1, v2, v1 * d2 - v2 * d1])
    return results, checks, {"ode_solutions": (["t", "u1", "u2", "wronskian"],
                                               [list(map(float, r)) for r in rows])}


def run_dichotomy(spec, numeric):
    from .fields import ScalarField
    from .geodesics import axis_seed, classify_growth, seed_fan, unit_radial_direction, integrate_geodesic_fan
    from .metrics import static_potential_basis
    from .reporting import check
    n = spec.n
    T = float(numeric.get("ode_horizon", 9.0))
    seeds = seed_fan(n, int(numeric.get("fan_count", 64)))
    dirs = np.stack([unit_radial_direction(spec, p) for p in seeds])
    fan = integrate_geodesic_fan(spec, seeds, dirs, T)
    basis = static_potential_basis(n)
    checks = []
    results = {}
    label_rows = []
    for k, V in enumerate(basis):
        cls = classify_growth(spec, V, seeds, T, fan=fan)
        grown = sum(1 for c in cls if c.label == "linear-growth")
        results[f"V_{k}"] = {"linear_growth_seeds": grown,
                             "labels": [c.label for c in cls]}
        checks.append(check(f"V_{k}_has_growth_cone", 0.0 if grown > 0 else 1.0,
                            0.5, passed=grown > 0))
        for s, c in enumerate(cls):
            label_rows.append([k, s, c.label, float(c.slope)])
    # per-seed trajectories: arc length, radius, potential values
    stride = max(1, fan[0].ts.size // 40)
    traj_rows = []
    for s, sample in enumerate(fan):
        coords = sample.coords[::stride]
        ts = sample.ts[::stride]
        vals = np.stack([V.value(coords) for V in basis], axis=1)
        for i, t in enumerate(ts):
            traj_rows.append([s, float(t), float(coords[i, 0])]
                             + [float(v) for v in vals[i]])
    traj_header = ["seed", "t", "radius"] + [f"V_{k}" for k in range(n + 1)]
    # decaying combination along its axis
    from .metrics import static_potential
    V0, x1 = static_potential(n, 0), static_potential(n, 1)
    diff = ScalarField(lambda c: V0.jet(c) - x1.jet(c))
    cls = classify_growth(spec, diff, axis_seed(n)[None], T)
    results["V0_minus_x1_axis"] = cls[0].to_dict()
    checks.append(check("decay_combination", 0.0 if cls[0].label == "decay" else 1.0,
                        0.5, passed=cls[0].label == "decay"))
    return results, checks, {
        "labels": (["potential", "seed", "label", "slope"], label_rows),
        "trajectories": (traj_header, traj_rows)}


def run_rigidity(spec, numeric):
    from .geodesics import integrate_geodesic
    from .metrics import static_potential
    from .reporting import check
    from .rigidity import sectional_ode_check, wang_identity_check, warped_fixture
    n = spec.n
    if n != 3:
        raise NotImplementedError(
            "rigidity-check supports n = 3 only (the warped fixture and its "
            "geodesic checks are 3-dimensional)")
    results = {}
    checks = []
    if spec.family == "hyperbolic":
        V0 = static_potential(n, 0)
        sphere = _sphere(numeric, n, 16)
        radial = int(numeric.get("radial_nodes", 48))
        _check_volume(sphere, radial)
        rep = wang_identity_check(spec, V0, float(numeric.get("wang_radius", 10.0)),
                                  quad=sphere, radial_nodes=radial)
        results["wang"] = rep.to_dict()
        checks.append(check("wang_gap", rep.gap, _tol(numeric, "wang_gap")))
    fx = warped_fixture("round_sphere", n)
    rng = _rng(numeric)
    tpts = np.column_stack([rng.uniform(-3, 3, 100), rng.uniform(0.3, 2.8, 100),
                            rng.uniform(0, 2 * np.pi, 100)])
    defect = fx.hessian_defect(tpts)
    results["warped_hessian_defect"] = defect
    checks.append(check("hessian_defect", defect, _tol(numeric, "hessian_defect")))
    p0 = np.array([0.5, 1.1, 0.7])
    g0 = fx.metric.components(p0[None])[0]
    X0 = np.array([0.0, 1.0 / np.sqrt(g0[1, 1]), 0.0])
    Y0 = np.array([0.0, 0.0, 1.0 / np.sqrt(g0[2, 2])])
    geo = integrate_geodesic(fx.metric, p0, np.array([1.0, 0.0, 0.0]), T=2.5,
                             sample_step=0.01, transported=np.stack([X0, Y0]))
    srep = sectional_ode_check(fx.metric, fx.potential, geo)
    results["sectional"] = srep.to_dict()
    rho_gap = float(np.abs(srep.rho - np.tanh(geo.ts + 0.5)).max())
    checks.extend([
        check("rho_ode_residual", srep.rho_ode_residual, _tol(numeric, "sectional_ode")),
        check("K_ode_residual", srep.K_ode_residual, _tol(numeric, "sectional_ode")),
        check("rho_profile", rho_gap, _tol(numeric, "rho_profile")),
    ])
    return results, checks, {}


# every handler takes (spec, numeric); ode-verify runs without a metric (spec None)
HANDLERS = {
    "mass": run_mass,
    "curvature": run_curvature,
    "verify-ah": run_verify_ah,
    "duality-check": run_duality,
    "eigenfunction": run_eigenfunction,
    "deform": run_deform,
    "first-variation": run_first_variation,
    "ode-verify": run_ode_verify,
    "dichotomy": run_dichotomy,
    "rigidity-check": run_rigidity,
}
COMMANDS = tuple(HANDLERS)


def run(config: dict, out_dir=None) -> int:
    """Execute a validated config; writes report files, returns exit status."""
    from .reporting import write_csv, write_meta, write_report
    t0 = time.time()
    command = config.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; expected one of {COMMANDS}")
    numeric = config.get("numeric", {}) or {}
    out = Path(out_dir or config.get("output") or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(str(exc)) from exc

    spec = None
    metric_doc = None
    if command != "ode-verify":
        spec, metric_doc = resolve_metric(config.get("metric"))

    results, checks, tables = HANDLERS[command](spec, numeric)

    numeric_doc = _resolved_numeric(numeric)
    numeric_doc.setdefault("seed", int(numeric.get("seed", 20240801)))
    resolved = {"command": command, "metric": metric_doc, "numeric": numeric_doc}
    stem = command.replace("-", "_")
    try:
        ok = write_report(out / f"{stem}_report.json", command, resolved, results,
                          checks, version=__version__)
        for name, (header, rows) in tables.items():
            write_csv(out / f"{stem}_{name}.csv", header, rows)
        write_meta(out / f"{stem}_meta.json", time.time() - t0, __version__,
                   str(out))
    except OSError as exc:
        raise OutputError(str(exc)) from exc
    return 0 if ok else EXIT_CHECK_FAILURE


def _resolved_numeric(numeric: dict) -> dict:
    doc = {}
    for key in sorted(numeric):
        val = numeric[key]
        if isinstance(val, dict):
            doc[key] = {k: val[k] for k in sorted(val)}
        elif isinstance(val, list):
            doc[key] = list(val)
        else:
            doc[key] = val
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ahmass",
        description="numerical checks for asymptotically hyperbolic mass and rigidity")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quad-order", type=int, default=None,
                        help="polar quadrature order (azimuth doubled)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the main tolerance of the command")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, overrides=vars(args))
        if config.get("command") not in (None, args.command):
            raise SchemaError(f"config command {config.get('command')!r} does not "
                              f"match CLI command {args.command!r}")
        config["command"] = args.command
        return run(config, out_dir=args.out)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NotImplementedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ArithmeticError, DomainError, np.linalg.LinAlgError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # the last guard: no traceback escapes main
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
