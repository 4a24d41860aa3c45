"""Command-line surface: validated run configurations and report emission.

Usage:

    ahmass <command> --config config.json [--out DIR]

Commands: mass, curvature, verify-ah, duality-check, eigenfunction, deform,
first-variation, ode-verify, dichotomy, rigidity-check.

The configuration document is strict: unknown keys anywhere, a numeric key or
tolerance the command does not read (``COMMAND_KEYS``), and metric and
command combinations the toolkit does not support, are rejected (exit 2), as
are an output directory or report file that cannot be written and a command
line that argparse refuses (``usage error:``).  Numerical failures exit 3; any
other exception is an internal error (exit 4).  Each is reported on one stderr
line.  Completed runs exit 0 when every check passes its
tolerance and 1 otherwise.  ``ode-verify`` takes no metric: a config that
gives it one is rejected (exit 2).  The output directory is made only when
the reports are written, after the numerics, so a run that exits 2 for its
config or 3 writes nothing.  Reports are deterministic: the same config
produces byte-identical report and CSV files in any output directory (the
output path, timestamp and runtime live in a separate metadata file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .fields import (FINITE, POSITIVE, SchemaError, check_document, integer_in,
                     radius_ladder)
from .metrics import DomainError, inner_truncation_radius, metric_from_dict
from .reporting import check, write_csv, write_meta, write_report

EXIT_CHECK_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

RADII_COUNT_MAX = 256     # 32x the default 8-radius ladder
SPHERE_NODES_MAX = 65536  # 14x the default 4,608-node sphere rule
VOLUME_NODES_MAX = 131072  # 5.3x the 24,576-node first-variation/rigidity defaults
SAMPLE_POINTS_MAX = 16384  # 5x the 3,000-point curvature benchmark case
PAIRS_MAX = 256            # 25x the default 10 duality-check pairs
FAN_COUNT_MAX = 1024       # 16x the default 64; seed_fan rounds it to 1,296 seeds at n = 5
# ode-verify's exhaustion needs two-point solutions at ceil(T) + 2 and
# ceil(T) + 4, both at most 40, so it cannot settle above T = 36
ODE_HORIZON_MAX = 36.0
DEFAULT_SEED = 20240801


class OutputError(OSError):
    """The output directory or a report file could not be written."""


EPS_LADDER = (lambda v: (isinstance(v, list) and len(v) >= 2
                         and all(map(POSITIVE[0], v))
                         and len(set(map(float, v))) == len(v)),
              "a list of >= 2 distinct finite numbers > 0")
ODE_HORIZON = (lambda v: POSITIVE[0](v) and v <= ODE_HORIZON_MAX,
               f"a finite number in (0, {ODE_HORIZON_MAX:g}]")

CONFIG_KEYS = dict.fromkeys(["command", "metric", "numeric", "output"])
# The rule of each numeric key, as a ``fields.check_document`` table; the
# radius ladder (None) is checked by its parser ``_radii``.  Which keys, and
# which tolerances, a command accepts is its ``COMMAND_KEYS`` entry.
NUMERIC_KEYS = {
    "radii": None,                       # list of radii or {min, max, count}
    "quad_polar": integer_in(4),         # polar quadrature nodes
    "quad_azimuth": integer_in(4),       # azimuthal quadrature nodes
    "radial_nodes": integer_in(1),       # radial quadrature nodes per segment
    "seed": integer_in(0),               # random seed recorded in the report
    "ode_horizon": ODE_HORIZON,          # ODE integration horizon T
    "ode": {"p_amp": FINITE, "q_amp": FINITE, "f_amp": FINITE,   # ODE coefficient
            "decay": POSITIVE},                                   # family
    "pairs": integer_in(1, PAIRS_MAX),   # randomized field pairs
    "eps_ladder": EPS_LADDER,            # epsilon ladder
    "q_claimed": POSITIVE,               # claimed decay rate
    "decay_rate": FINITE,                # target decay
    "phi_amp": FINITE,                   # target amplitude
    "fan_count": integer_in(1, FAN_COUNT_MAX),          # seed fan size
    "sample_points": integer_in(1, SAMPLE_POINTS_MAX),  # sample count
    "r_min": POSITIVE,                   # inner radius override
    "r_max": POSITIVE,                   # outer radius override
    "wang_radius": POSITIVE,             # ball radius of the Wang identity
}
# the {min, max, count} form of ``radii``, every key required
RADII_RANGE = {"min": POSITIVE, "max": POSITIVE,
               "count": integer_in(3, RADII_COUNT_MAX)}


def _read_json(path):
    """A JSON document from a file; text that is not UTF-8 is a config error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc


def load_config(path) -> dict:
    """The config document at ``path``; ``run`` checks its ``numeric``."""
    return check_document(_read_json(path), CONFIG_KEYS, "config")


def resolve_metric(doc) -> tuple:
    """(spec, document): the metric and the spec document it was built from,
    read from its file when ``doc`` is a path; reports echo the document."""
    if doc is None:
        raise SchemaError("this command requires a metric spec")
    if isinstance(doc, str):
        doc = _read_json(doc)
    try:
        spec = metric_from_dict(doc)
    except ValueError as exc:
        raise SchemaError(f"bad metric spec: {exc}") from exc
    return spec, doc


def _radii(numeric):
    doc = numeric.get("radii")
    if doc is None:
        from .massflux import DEFAULT_RADII
        return np.array(DEFAULT_RADII)
    if isinstance(doc, dict):
        check_document(doc, RADII_RANGE, "numeric.radii", tuple(RADII_RANGE))
        arr = np.geomspace(float(doc["min"]), float(doc["max"]), doc["count"])
    elif isinstance(doc, list) and all(map(POSITIVE[0], doc)):
        arr = np.asarray(doc, dtype=float)
    else:
        raise SchemaError(f"radii must be a list of finite numbers > 0 or "
                          f"{{min, max, count}}, got {doc!r}")
    return radius_ladder(arr)


def _tol(numeric, key):
    return float(numeric["tolerances"][key])


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
    return np.random.default_rng(int(numeric.get("seed", DEFAULT_SEED)))


def _window(lo, hi):
    """The radius window [lo, hi] a command integrates or samples over, once
    its own clamps are applied; an empty or inverted window is a config error."""
    if not lo < hi:
        raise SchemaError(f"radius window [{lo:g}, {hi:g}] is empty: r_max must "
                          f"lie above r_min or the command's inner radius")
    return lo, hi


# -- command handlers: each returns (results dict, checks list, csv tables) -----

def run_mass(spec, numeric):
    from .massflux import mass_vector
    radii = _radii(numeric)
    # without quad_* the rule is chosen by mass_vector's error target
    explicit = "quad_polar" in numeric or "quad_azimuth" in numeric
    mv = mass_vector(spec, radii, _sphere(numeric, spec.n) if explicit else None)
    checks = [
        check("extrapolation_converged",
              float(sum(1 for r in mv.reports if "no-extrapolation" in r.flags)),
              0.5),
    ]
    header = ["r"] + [rep.integrand_label for rep in mv.reports]
    rows = np.column_stack([radii] + [rep.values for rep in mv.reports])
    return mv.to_dict(), checks, {"mass_ladder": (header, rows)}


def run_curvature(spec, numeric):
    from .chart import random_points
    from .curvature import finite_curvature, riemann_symmetry_defects
    rng = _rng(numeric)
    count = int(numeric.get("sample_points", 200))
    window = _window(inner_truncation_radius(spec, float(numeric.get("r_min", 1.0))),
                     float(numeric.get("r_max", 50.0)))
    pts = random_points(spec.n, rng, count, r_range=window)
    app = finite_curvature(spec, pts, "riemann")
    anti_last, bianchi = riemann_symmetry_defects(app.riemann)
    ric_sym = np.abs(app.ricci - app.ricci.swapaxes(1, 2)).max()
    tol = _tol(numeric, "curvature_identity")
    scale = max(1.0, float(np.abs(app.riemann).max()))
    checks = [
        check("riemann_antisymmetry_last", float(anti_last / scale), tol),
        check("first_bianchi", float(bianchi / scale), tol),
        check("ricci_symmetry", float(ric_sym / scale), tol),
    ]
    header = ["r"] + [f"theta_{j}" for j in range(1, spec.n)] + ["scalar"]
    rows = np.column_stack([pts, app.scalar])
    results = {"scalar_mean": float(np.mean(app.scalar)),
               "scalar_max_dev": float(np.abs(app.scalar - np.mean(app.scalar)).max()),
               "samples": count}
    return results, checks, {"curvature_samples": (header, rows)}


def run_verify_ah(spec, numeric):
    from .decay import verify_ah
    radii = _radii(numeric)
    report = verify_ah(spec, float(numeric.get("q_claimed", spec.n)), radii)
    checks = [check(f"condition_{c.name}", 0.0 if c.passed else 1.0, 0.5)
              for c in report.conditions]
    return report.to_dict(), checks, {}


def run_duality(spec, numeric):
    from .fields import CompactBasis, random_compact_scalar, random_compact_tensor
    from .operators import duality_residual
    from .quadrature import volume_rule
    rng = _rng(numeric)
    pairs = int(numeric.get("pairs", 10))
    lo, hi = _window(max(2.0, float(numeric.get("r_min", 2.0))),
                     float(numeric.get("r_max", 6.0)))
    sphere = _sphere(numeric, spec.n, 12)
    radial = int(numeric.get("radial_nodes", 32))
    _check_volume(sphere, radial)
    rule = volume_rule(spec.n, [lo, hi], [radial], sphere)
    # every pair's fields are linear in one set of jets on the rule's nodes
    basis = CompactBasis(rule.coords, (lo, hi))
    jets = []
    for _ in range(pairs):
        h = random_compact_tensor(rng, spec.n, lo, hi)
        u = random_compact_scalar(rng, lo, hi, spec.n)
        jets.append((basis.node_jets(h), basis.node_jets(u)))
    values = duality_residual(spec, jets, rule)
    worst = max([0.0, *values])
    checks = [check("duality_residual_max", worst, _tol(numeric, "duality_residual"))]
    return {"pairs": pairs, "max_residual": worst, "residuals": values}, checks, {
        "duality_residuals": (["pair", "residual"], enumerate(values))}


def run_eigenfunction(spec, numeric):
    from .radial import radial_eigenfunction
    rep = radial_eigenfunction(spec, r_hi=float(numeric.get("r_max", 200.0)),
                               decay_rate=numeric.get("decay_rate"))
    checks = [
        check("eigen_residual", rep.residual_sup, _tol(numeric, "eigenfunction_residual")),
        check("positivity", 0.0 if rep.positive else 1.0, 0.5),
    ]
    return rep.to_dict(), checks, {}


def run_deform(spec, numeric):
    from .fields import power_tail_profile
    from .radial import conformal_deform_radial
    s = float(numeric.get("decay_rate", 2.0))
    amp = float(numeric.get("phi_amp", 0.05))
    prof = power_tail_profile(amp, s)
    phi = lambda r: prof(np.asarray(r, dtype=float))[0]
    rep = conformal_deform_radial(spec, phi, s, r_hi=float(numeric.get("r_max", 150.0)))
    checks = [
        check("linear_residual", rep.linear_residual,
              _tol(numeric, "deform_linear_residual")),
        check("newton_contraction", max(rep.contraction_ratios),
              _tol(numeric, "newton_contraction")),
    ]
    return rep.to_dict(), checks, {}


def run_first_variation(spec, numeric):
    from .fields import CompactBasis, random_compact_tensor
    from .operators import first_variation_check
    from .quadrature import volume_rule
    from .radial import radial_eigenfunction
    rng = _rng(numeric)
    eps = numeric.get("eps_ladder", [3e-2, 1e-2, 3e-3, 1e-3])
    eps = [float(e) for e in eps]
    # every term of the check vanishes outside the support (lo, hi) of h, so
    # the rule spans the support alone
    lo, hi = 2.0, 6.0
    sphere, radial = _sphere(numeric, spec.n, 16), 48
    _check_volume(sphere, radial)
    rule = volume_rule(spec.n, [lo, hi], [radial], sphere)
    f = radial_eigenfunction(spec).potential
    h = random_compact_tensor(rng, spec.n, lo, hi, amplitude=0.5)
    h_at = CompactBasis(rule.coords, (lo, hi)).node_jets(h)
    rep = first_variation_check(spec, f, h_at, eps, rule)
    order_ok = rep.exact_zero or rep.order >= _tol(numeric, "first_variation_order")
    checks = [check("convergence_order", float(rep.order if not rep.exact_zero else 99.0),
                    _tol(numeric, "first_variation_order"), passed=bool(order_ok))]
    return rep.to_dict(), checks, {}


def run_ode_verify(spec, numeric):
    from .odes import ODEProblem, fundamental_pair, particular_solution
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
        check("wronskian_bound", 0.0 if pair.wronskian_bound_ok() else 1.0, 0.5),
    ]
    results = {"C_certificate": pair.C_certificate, "flags": pair.flags}
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
    v1, _, v2, _ = pair.on_grid
    rows = np.column_stack([pair.grid, v1, v2, pair.wronskian])
    rows = rows[:: max(1, pair.grid.size // 2000)]
    return results, checks, {"ode_solutions": (["t", "u1", "u2", "wronskian"], rows)}


def run_dichotomy(spec, numeric):
    from .fields import ScalarField
    from .geodesics import (SAMPLE_STEP, axis_seed, classify_growth, growth_tail,
                            integrate_geodesic_fan, sample_times, seed_fan,
                            unit_radial_direction)
    from .metrics import static_potential_basis
    n = spec.n
    T = float(numeric.get("ode_horizon", 9.0))
    # each growth rate needs as many tail samples as ode-verify's fit window
    tail = int(np.count_nonzero(growth_tail(sample_times(T))))
    if tail < 3:
        raise SchemaError(f"ode_horizon {T:g} leaves {tail} geodesic sample(s) in the "
                          f"tail half [T/2, T] where growth is fitted; dichotomy needs "
                          f"3, so ode_horizon must exceed {3 * SAMPLE_STEP:g}")
    seeds = seed_fan(n, int(numeric.get("fan_count", 64)))
    # the decaying combination's axis seed rides last in the one fan
    axis = axis_seed(n)[None]
    fan_seeds = np.vstack([seeds, axis])
    dirs = np.stack([unit_radial_direction(spec, p) for p in fan_seeds])
    fan = integrate_geodesic_fan(spec, fan_seeds, dirs, T)
    fan, axis_fan = fan[:-1], fan[-1:]
    basis = static_potential_basis(n)
    checks = []
    results = {}
    label_rows = []
    for k, V in enumerate(basis):
        cls = classify_growth(V, fan)
        grown = sum(1 for c in cls if c.label == "linear-growth")
        results[f"V_{k}"] = {"linear_growth_seeds": grown,
                             "labels": [c.label for c in cls]}
        checks.append(check(f"V_{k}_has_growth_cone", 0.0 if grown > 0 else 1.0, 0.5))
        for s, c in enumerate(cls):
            label_rows.append([k, s, c.label, c.slope])
    # per-seed trajectories: arc length, radius, potential values
    stride = max(1, fan[0].ts.size // 40)
    traj_rows = []
    for s, sample in enumerate(fan):
        coords = sample.coords[::stride]
        vals = np.stack([V.value(coords) for V in basis], axis=1)
        for t, r, row in zip(sample.ts[::stride].tolist(), coords[:, 0].tolist(),
                             vals.tolist()):
            traj_rows.append([s, t, r, *row])
    traj_header = ["seed", "t", "radius"] + [f"V_{k}" for k in range(n + 1)]
    # decaying combination along its axis
    V0, x1 = basis[0], basis[1]
    diff = ScalarField(lambda c, order: V0.jet(c, order) - x1.jet(c, order))
    cls = classify_growth(diff, axis_fan)
    results["V0_minus_x1_axis"] = cls[0].to_dict()
    checks.append(check("decay_combination",
                        0.0 if cls[0].label == "decay" else 1.0, 0.5))
    return results, checks, {
        "labels": (["potential", "seed", "label", "slope"], label_rows),
        "trajectories": (traj_header, traj_rows)}


def run_rigidity(spec, numeric):
    from .geodesics import integrate_geodesic
    from .metrics import static_potential
    from .rigidity import sectional_ode_check, wang_identity_check, warped_fixture
    n = spec.n
    if spec.family != "hyperbolic":
        raise SchemaError(
            f"rigidity-check supports the hyperbolic family only, not {spec.family}")
    if n != 3:
        raise SchemaError(
            "rigidity-check supports n = 3 only (the warped fixture and its "
            "geodesic checks are 3-dimensional)")
    V0 = static_potential(n, 0)
    sphere = _sphere(numeric, n, 16)
    radial = int(numeric.get("radial_nodes", 48))
    _check_volume(sphere, radial)
    rep = wang_identity_check(spec, V0, float(numeric.get("wang_radius", 10.0)),
                              quad=sphere, radial_nodes=radial)
    results = {"wang": rep.to_dict()}
    checks = [check("wang_gap", rep.gap, _tol(numeric, "wang_gap"))]
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
# What each handler reads: its numeric keys beyond ``seed``, which every report
# echoes, and the default of each tolerance it reads.
COMMAND_KEYS = {
    "mass": (("radii", "quad_polar", "quad_azimuth"), {}),
    "curvature": (("sample_points", "r_min", "r_max"), {"curvature_identity": 1e-8}),
    "verify-ah": (("radii", "q_claimed"), {}),
    "duality-check": (("pairs", "r_min", "r_max", "quad_polar", "quad_azimuth",
                       "radial_nodes"), {"duality_residual": 1e-6}),
    "eigenfunction": (("r_max", "decay_rate"), {"eigenfunction_residual": 1e-7}),
    "deform": (("decay_rate", "phi_amp", "r_max"),
               {"deform_linear_residual": 1e-6, "newton_contraction": 0.1}),
    "first-variation": (("eps_ladder", "quad_polar", "quad_azimuth"),
                        {"first_variation_order": 0.9}),
    "ode-verify": (("ode", "ode_horizon"),
                   {"certificate_bound": 1e8, "remainder_decay_relative": 0.1,
                    "resonant_profile_residual": 0.05}),
    "dichotomy": (("ode_horizon", "fan_count"), {}),
    "rigidity-check": (("quad_polar", "quad_azimuth", "radial_nodes", "wang_radius"),
                       {"wang_gap": 1e-8, "hessian_defect": 1e-8, "sectional_ode": 1e-5,
                        "rho_profile": 1e-6}),
}


def check_numeric(command, numeric) -> dict:
    """``numeric`` checked against what ``command`` reads: any other key or
    tolerance, and a value its rule refuses, raise SchemaError.  A null
    ``numeric``, ``tolerances`` or ``ode`` means an empty one."""
    keys, tolerances = COMMAND_KEYS[command]
    table = {key: NUMERIC_KEYS[key] for key in ("seed", *keys)}
    if tolerances:
        table["tolerances"] = dict.fromkeys(tolerances, POSITIVE)
    if isinstance(numeric, dict):
        numeric = {k: {} if v is None and k in ("tolerances", "ode") else v
                   for k, v in numeric.items()}
    numeric = check_document({} if numeric is None else numeric, table,
                             f"{command} numeric")
    if numeric.get("radii") is not None:   # the default ladder needs no check
        _radii(numeric)
    return numeric


def run(config: dict, out_dir=None) -> int:
    """Execute a config; writes report files, returns exit status.  Its
    ``numeric`` and then its metric are checked first: a key, tolerance or
    value the command does not accept, a bad metric spec and a metric given
    to ``ode-verify`` raise SchemaError before any numerics.  The output
    directory is made with the reports, so a failed run leaves none."""
    t0 = time.time()
    command = config.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; expected one of {COMMANDS}")
    numeric = check_numeric(command, config.get("numeric"))
    spec = metric_doc = None
    if command != "ode-verify":
        spec, metric_doc = resolve_metric(config.get("metric"))
    elif config.get("metric") is not None:
        raise SchemaError("ode-verify takes no metric spec")
    # the handler reads each tolerance of its command, as given or by default
    tolerances = COMMAND_KEYS[command][1] | numeric.get("tolerances", {})
    results, checks, tables = HANDLERS[command](
        spec, dict(numeric, tolerances=tolerances))

    # the report echoes numeric with its keys, and those of its objects, sorted
    numeric_doc = {key: dict(sorted(val.items())) if isinstance(val, dict) else val
                   for key, val in sorted(numeric.items())}
    numeric_doc.setdefault("seed", DEFAULT_SEED)
    resolved = {"command": command, "metric": metric_doc, "numeric": numeric_doc}
    stem = command.replace("-", "_")
    out = Path(out_dir or config.get("output") or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
        ok = write_report(out / f"{stem}_report.json", command, resolved, results,
                          checks, version=__version__)
        for name, (header, rows) in tables.items():
            write_csv(out / f"{stem}_{name}.csv", header, rows)
        write_meta(out / f"{stem}_meta.json", time.time() - t0, __version__,
                   str(out))
    except OSError as exc:
        raise OutputError(str(exc)) from exc
    return 0 if ok else EXIT_CHECK_FAILURE


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as one ``usage error:`` stderr line, exit 2."""

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"usage error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="ahmass",
        description="numerical checks for asymptotically hyperbolic mass and rigidity")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
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
    except (ArithmeticError, DomainError, np.linalg.LinAlgError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # the last guard: no traceback escapes main
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
