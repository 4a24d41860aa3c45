"""Mass flux integrals, the mass vector, and the Ricci-flux cross-check.

The flux integral of a deviation h = g - b against a background potential V is

    I(r) = int_{S_r} [ V (div h - d tr h)(nu) + (tr h) dV(nu) - h(grad V, nu) ] dsigma

with divergence, trace, gradient, normal, and measure taken with respect to
the hyperbolic background.  The integrand is linear in the potential's 1-jet,

    V A + d_c V B^c,   A = (div h - d tr h)(nu),   B^c = tr h nu^c - g^{ca} h_ab nu^b,

so A and B are evaluated once per radius and contracted with every potential:
the mass vector costs one metric evaluation per radius for all n+1 potentials.
The Ricci flux int_{S_r} (Ric_g + (n-1) g)(grad V, nu) dsigma is also linear
in dV, so one level-2 apparatus per radius serves every potential.  Two
ladders return the (radii, potentials) arrays: ``flux_ladder`` and
``ricci_ladder``, the latter with background objects (the cross-check
``prop27_check``) or with the metric's own (the rigidity module's boundary
flux).  Their integrands stay separate, as the two sides of that cross-check;
they share one sphere reduction, ``_ladder``, the same product rule in every
dimension with no symmetry assumed of the metric, and one fit of
I(r) = I_inf + c r^(-beta), ``_fit_ladders``.  Every fitted ladder is
checked by ``fields.radius_ladder``.  ``mass_vector`` without a given rule
refines the sphere rule until two successive raw ladders agree, and reports
the rule and their difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .chart import as_coords
from .curvature import metric_apparatus, nabla_2tensor
from .fields import radius_ladder
from .metrics import HyperbolicMetric, MetricSpec, static_potential_basis
from .quadrature import (SphereRule, angular_jacobian, default_polar_nodes,
                         sphere_coords_at_radius, sphere_rule)

DEFAULT_RADII = tuple(np.geomspace(20.0, 200.0, 8))
# mass_vector without a rule steps through P x 2P rules with these polar
# counts, then the default rule, until two successive flux ladders agree to
# QUAD_AGREEMENT relative to the larger ladder's largest entry
POLAR_STEPS = (4, 6, 8, 12, 16, 24, 32)
QUAD_AGREEMENT = 1e-8
# a ladder column whose entries are all at most this fraction of the ladder's
# largest entry is zero up to roundoff: its limit is 0, with no fitted exponent
ROUNDOFF_ZERO = 1e-12


@dataclass
class FluxReport:
    """Per-radius flux values with the fitted limit along the ladder."""

    integrand_label: str
    radii: np.ndarray
    values: np.ndarray
    fitted_limit: float
    fit_exponent: float
    fit_residual: float
    flags: tuple = ()

    def to_dict(self):
        return {"integrand": self.integrand_label,
                "radii": list(map(float, self.radii)),
                "values": list(map(float, self.values)),
                "fitted_limit": self.fitted_limit,
                "fit_exponent": self.fit_exponent,
                "fit_residual": self.fit_residual,
                "flags": list(self.flags)}


@dataclass
class MassVector:
    """The n+1 flux limits (p_0, ..., p_n) with extrapolation diagnostics and
    the sphere rule used: ``quadrature`` is ``{polar, azimuth, nodes, error}``,
    ``error`` the last difference of two successive rules' ladders in flux
    units, or None for a rule the caller chose."""

    p: np.ndarray
    reports: list
    quadrature: dict
    flags: tuple = ()
    defect: float = field(init=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.defect = float(self.p[0] - np.sqrt(np.sum(self.p[1:] ** 2)))

    def to_dict(self):
        return {"p": list(map(float, self.p)), "defect": self.defect,
                "flags": list(self.flags), "quadrature": self.quadrature,
                "components": [r.to_dict() for r in self.reports]}


def extrapolate_limit(radii, values, beta0: float, beta_bounds=None):
    """Fit I(r) = I_inf + c r^(-beta); falls back to the last value.

    Returns (limit, beta, rms_residual, flags).  A fit on fewer than 4 radii
    matches its 3 parameters exactly, so its zero residual says nothing; it is
    flagged ``under-determined``.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    scale = np.max(np.abs(values))
    if scale < 1e-290:
        return 0.0, np.inf, 0.0, ("exact-zero",)
    spread = np.max(values) - np.min(values)
    if spread <= 1e-13 * scale:
        return float(values[-1]), np.inf, 0.0, ("constant-ladder",)
    if beta_bounds is None:
        beta_bounds = (0.5, 100.0)
    beta0 = float(np.clip(beta0, *beta_bounds))

    def residual(params):
        limit, c, beta = params
        return limit + c * radii ** -beta - values

    c0 = (values[0] - values[-1]) / (radii[0] ** -beta0 - radii[-1] ** -beta0 + 1e-300)
    lower = [-np.inf, -np.inf, beta_bounds[0]]
    upper = [np.inf, np.inf, beta_bounds[1]]
    try:
        sol = least_squares(residual, [values[-1], c0, beta0],
                            bounds=(lower, upper), xtol=1e-15, ftol=1e-15,
                            gtol=1e-15, max_nfev=4000)
    except ValueError:   # e.g. residuals not finite at the starting point
        return float(values[-1]), np.nan, np.nan, ("no-extrapolation",)
    if not sol.success:
        return float(values[-1]), np.nan, np.nan, ("no-extrapolation",)
    limit, _, beta = sol.x
    rms = float(np.sqrt(np.mean(sol.fun ** 2)))
    flags = ("under-determined",) if radii.size < 4 else ()
    return float(limit), float(beta), rms, flags


def _normal_and_measure(app, objects: str):
    """Unit normal components nu^a and sphere-measure density against d(omega)."""
    n = app.n
    r = app.coords[:, 0]
    if objects == "background":
        nu = np.zeros_like(app.g[:, :, 0])
        nu[:, 0] = np.sqrt(1.0 + r ** 2)
        density = r ** (n - 1)
        return nu, density
    # metric objects: normal direction g^{ra} normalized, induced angular measure
    grad_r = app.inv[:, 0, :]
    norm = np.sqrt(app.inv[:, 0, 0])
    nu = grad_r / norm[:, None]
    ang_block = app.g[:, 1:, 1:]
    density = np.sqrt(np.linalg.det(ang_block)) / angular_jacobian(app.coords[:, 1:])
    return nu, density


def flux_integrand_values(spec: MetricSpec, potentials, coords):
    """Pointwise flux integrands (N, K) of the K potentials and the measure density.

    A and B of the module docstring's V A + d_c V B^c form are evaluated once
    and contracted with every potential's 1-jet.  The integrand needs g, dg
    and the potentials' 1-jets only, so every jet here is first-order.
    """
    coords = as_coords(coords)
    base_app = metric_apparatus(HyperbolicMetric(spec.n), coords, level=1)
    g, dg, _ = spec.component_jets(coords, order=1)
    h = g - base_app.g
    dh = dg - base_app.dg
    inv, dinv, gamma = base_app.inv, base_app.dinv, base_app.gamma

    trh = np.einsum("pij,pij->p", inv, h)
    dtrh = (np.einsum("paij,pij->pa", dinv, h)
            + np.einsum("pij,paij->pa", inv, dh))
    nh = nabla_2tensor(gamma, h, dh)
    divh = np.einsum("pik,pikj->pj", inv, nh)

    nu, density = _normal_and_measure(base_app, "background")
    # A = (div h - d tr h)(nu),  B^c = tr h nu^c - g^{ca} h_ab nu^b
    A = np.einsum("pj,pj->p", divh - dtrh, nu)
    B = trh[:, None] * nu - (inv @ (h @ nu[:, :, None]))[:, :, 0]
    jets = [V.jet(coords, order=1) for V in potentials]
    vals = np.stack([jet.val for jet in jets], axis=1)
    grads = np.stack([jet.grad for jet in jets], axis=1)     # (N, K, n)
    return A[:, None] * vals + (grads @ B[:, :, None])[:, :, 0], density


def _ladder(spec: MetricSpec, radii, quad: SphereRule, integrand) -> np.ndarray:
    """Integrals (radii, K) of ``integrand(coords) -> (values (N, K), density)``
    over each S_r, by the product rule ``quad`` on S^{n-1} (default
    ``sphere_rule(n)``) in every dimension.  The radii are not checked here:
    Wang's boundary flux takes two, and each fit checks its own ladder."""
    n = spec.n
    if quad is None:
        quad = sphere_rule(n)
    if quad.angles.shape[1] != n - 1:
        raise ValueError(f"quadrature spec has {quad.angles.shape[1]} angles, "
                         f"the sphere S^{n - 1} needs {n - 1}")
    if quad.node_count < 4 ** (n - 1):
        raise ValueError("quadrature spec needs at least 4 nodes per angle")
    rows = []
    for r in np.asarray(radii, dtype=float):
        vals, density = integrand(sphere_coords_at_radius(quad, r))
        weights = quad.weights * density
        # one dot per contiguous column, so no column depends on the others
        rows.append([weights @ column for column in np.ascontiguousarray(vals.T)])
    return np.array(rows)


def flux_ladder(spec: MetricSpec, potentials, radii, quad: SphereRule = None) -> np.ndarray:
    """Mass-flux integrals (radii, potentials): one metric evaluation per radius."""
    return _ladder(spec, radii, quad,
                   lambda c: flux_integrand_values(spec, potentials, c))


def rule_sequence(n: int) -> list:
    """The (polar, azimuth) counts of the rules ``mass_vector`` steps through on
    S^{n-1}: each P x 2P of POLAR_STEPS below the default polar count whose
    rule has at most half the default rule's nodes, then the default rule."""
    cap = default_polar_nodes(n)
    steps = [p for p in POLAR_STEPS if p < cap and 2 * p ** (n - 1) <= cap ** (n - 1)]
    return [(p, 2 * p) for p in steps + [cap]]


def _agreed_flux_ladder(spec: MetricSpec, potentials, radii):
    """(rule, ladder, error, resolved): the flux ladder on the first rule of
    ``rule_sequence`` whose raw ladder agrees with the previous rule's,
    max|diff| <= QUAD_AGREEMENT max|ladder|, or on the last rule.  ``error`` is
    that max|diff|; ``resolved`` says it met the target.  A ladder with a
    non-finite entry ends the sequence, unresolved, for the fit to reject."""
    previous, error, resolved = None, None, False
    for polar, azimuth in rule_sequence(spec.n):
        rule = sphere_rule(spec.n, polar, azimuth)
        values = flux_ladder(spec, potentials, radii, rule)
        if not np.all(np.isfinite(values)):
            break
        if previous is not None:
            error = float(np.max(np.abs(values - previous)))
            if error <= QUAD_AGREEMENT * np.max(np.abs(values)):
                resolved = True
                break
        previous = values
    return rule, values, error, resolved


def ricci_ladder(spec: MetricSpec, potentials, radii, quad: SphereRule = None,
                 objects: str = "background") -> np.ndarray:
    """int_{S_r} (Ric_g + (n-1) g)(grad V, nu) dsigma as (radii, potentials),
    from one level-2 apparatus per radius.  Gradient, unit normal and measure
    are the hyperbolic background's (``objects="background"``, the curvature
    side of ``prop27_check``) or the metric's own (``objects="metric"``, the
    boundary flux of ``rigidity.wang_identity_check``)."""
    n = spec.n

    def integrand(coords):
        app = metric_apparatus(spec, coords, level=2)
        frame = (app if objects == "metric"
                 else metric_apparatus(HyperbolicMetric(n), coords, level=1))
        nu, density = _normal_and_measure(frame, objects)
        S = app.ricci + (n - 1) * app.g
        vals = [np.einsum("pab,pa,pb->p", S, frame.sharp(V.jet(coords, order=1).grad), nu)
                for V in potentials]
        return np.stack(vals, axis=1), density

    return _ladder(spec, radii, quad, integrand)


def _fit_ladders(radii, values, labels, n: int) -> list:
    """One FluxReport per column of the (radii, labels) array ``values``; the
    fit starts at beta = n, the corrections r^(n-1-2q) at the borderline q = n.
    A nonzero column within ROUNDOFF_ZERO of zero is flagged ``roundoff-zero``
    and not fitted: a fit to roundoff returns an exponent that is noise."""
    reports = []
    floor = ROUNDOFF_ZERO * np.max(np.abs(values))
    for label, column in zip(labels, values.T):
        if not np.all(np.isfinite(column)):
            raise ArithmeticError(f"flux integrand produced non-finite values for {label}")
        if 0 < np.max(np.abs(column)) <= floor:
            limit, beta, resid, flags = 0.0, np.inf, 0.0, ("roundoff-zero",)
        else:
            limit, beta, resid, flags = extrapolate_limit(radii, column, float(n),
                                                          beta_bounds=(0.5, 2.0 * n))
        reports.append(FluxReport(integrand_label=label, radii=radii, values=column,
                                  fitted_limit=limit, fit_exponent=beta,
                                  fit_residual=resid, flags=flags))
    return reports


def mass_vector(spec: MetricSpec, radii=DEFAULT_RADII, quad: SphereRule = None) -> MassVector:
    """Fitted flux limits against every background static potential.

    Without ``quad`` the sphere rule is chosen by the QUAD_AGREEMENT target
    along ``rule_sequence(n)``; a last rule that misses it adds the flag
    ``quadrature-unresolved``.  The ladder is fitted once, on the rule used.
    """
    radii = radius_ladder(radii)
    n = spec.n
    labels = ["V_0"] + [f"x_{i}" for i in range(1, n + 1)]
    basis = static_potential_basis(n)
    if quad is None:
        quad, values, error, resolved = _agreed_flux_ladder(spec, basis, radii)
    else:
        values, error, resolved = flux_ladder(spec, basis, radii, quad), None, True
    reports = _fit_ladders(radii, values, labels, n)
    flags = ()
    if getattr(spec, "borderline_decay", False):
        flags = ("borderline-decay",)
    if not resolved:
        flags += ("quadrature-unresolved",)
    extra = tuple(f for r in reports for f in r.flags if f == "no-extrapolation")
    quadrature = {"polar": quad.polar, "azimuth": quad.azimuth,
                  "nodes": quad.node_count, "error": error}
    return MassVector(p=np.array([r.fitted_limit for r in reports]), reports=reports,
                      quadrature=quadrature, flags=flags + extra)


@dataclass
class Prop27Report:
    ricci_limit: float
    flux_limit: float
    gap: float
    relative_gap: float
    passed: bool
    ricci_report: FluxReport
    flux_report: FluxReport

    def to_dict(self):
        return {"ricci_limit": self.ricci_limit, "flux_limit": self.flux_limit,
                "gap": self.gap, "relative_gap": self.relative_gap,
                "pass": self.passed,
                "ricci_ladder": self.ricci_report.to_dict(),
                "flux_ladder": self.flux_report.to_dict()}


def prop27_check(spec: MetricSpec, V, radii=DEFAULT_RADII,
                 quad: SphereRule = None) -> Prop27Report:
    """Extrapolate both sides of the Ricci-flux identity and compare.

    The curvature-side limit should equal -(n-2)/2 times the mass flux, to 1%
    relative; the two paths share no intermediate quantities beyond the
    metric itself.
    """
    radii = radius_ladder(radii)
    n = spec.n
    values = np.hstack([flux_ladder(spec, [V], radii, quad),
                        ricci_ladder(spec, [V], radii, quad)])
    flux_rep, ricci_rep = _fit_ladders(radii, values, ["flux", "ricci"], n)
    target = -(n - 2) / 2.0 * flux_rep.fitted_limit
    gap = abs(ricci_rep.fitted_limit - target)
    scale = max(abs(ricci_rep.fitted_limit), abs(target), 1e-12)
    rel = gap / scale
    passed = gap <= 0.01 * max(abs(ricci_rep.fitted_limit), abs(target), 1e-9)
    return Prop27Report(ricci_limit=ricci_rep.fitted_limit,
                        flux_limit=flux_rep.fitted_limit, gap=gap,
                        relative_gap=rel, passed=passed,
                        ricci_report=ricci_rep, flux_report=flux_rep)
