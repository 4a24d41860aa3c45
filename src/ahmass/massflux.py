"""Mass flux integrals, the mass vector, and the Ricci-flux cross-check.

The flux integral of a deviation h = g - b against a background potential V is

    I(r) = int_{S_r} [ V (div h - d tr h)(nu) + (tr h) dV(nu) - h(grad V, nu) ] dsigma

with divergence, trace, gradient, normal, and measure taken with respect to
the hyperbolic background by default (they may be switched to the metric's own
objects; the fitted limit is insensitive to that choice).  The integrand is
linear in the potential's 1-jet,

    V A + d_c V B^c,   A = (div h - d tr h)(nu),   B^c = tr h nu^c - g^{ca} h_ab nu^b,

so A and B are evaluated once per radius and contracted with every potential:
the mass vector costs one metric evaluation per radius for all n+1 potentials.
The Ricci flux int_{S_r} (Ric_g + (n-1) g)(grad V, nu) dsigma has one
integrand, ``ricci_flux``, used with background objects (the cross-check
``prop27_check``) or with the metric's own (the rigidity module's boundary
flux); it stays separate from the mass-flux integrand, the other side of that
cross-check.  Both go through one sphere reduction, ``_sphere_integral``, the
same product rule in every dimension with no symmetry assumed of the metric,
and both ladders through one fit of I(r) = I_inf + c r^(-beta), ``_fit_ladders``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .chart import as_coords
from .curvature import metric_apparatus, nabla_2tensor
from .metrics import HyperbolicMetric, MetricSpec, static_potential_basis
from .quadrature import SphereRule, sphere_coords_at_radius, sphere_rule

DEFAULT_RADII = tuple(np.geomspace(20.0, 200.0, 8))


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
    """The n+1 flux limits (p_0, ..., p_n) with extrapolation diagnostics."""

    p: np.ndarray
    reports: list
    flags: tuple = ()
    defect: float = field(init=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.defect = float(self.p[0] - np.sqrt(np.sum(self.p[1:] ** 2)))

    def to_dict(self):
        return {"p": list(map(float, self.p)), "defect": self.defect,
                "flags": list(self.flags),
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
    from .quadrature import angular_jacobian
    ang_block = app.g[:, 1:, 1:]
    density = np.sqrt(np.linalg.det(ang_block)) / angular_jacobian(app.coords[:, 1:])
    return nu, density


def flux_integrand_values(spec: MetricSpec, potentials, coords, objects: str = "background"):
    """Pointwise flux integrands (N, K) of the K potentials and the measure density.

    A and B of the module docstring's V A + d_c V B^c form are evaluated once
    and contracted with every potential's 1-jet.
    """
    coords = as_coords(coords)
    n = spec.n
    reference = HyperbolicMetric(n)
    base_app = metric_apparatus(reference if objects == "background" else spec,
                                coords, level=1)
    if objects == "background":
        g, dg, _ = spec.component_jets(coords)
        h = g - base_app.g
        dh = dg - base_app.dg
    else:
        g0, dg0, _ = reference.component_jets(coords)
        h = base_app.g - g0
        dh = base_app.dg - dg0
    inv, dinv, gamma = base_app.inv, base_app.dinv, base_app.gamma

    trh = np.einsum("pij,pij->p", inv, h)
    dtrh = (np.einsum("paij,pij->pa", dinv, h)
            + np.einsum("pij,paij->pa", inv, dh))
    nh = nabla_2tensor(gamma, h, dh)
    divh = np.einsum("pik,pikj->pj", inv, nh)

    nu, density = _normal_and_measure(base_app, objects)
    # A = (div h - d tr h)(nu),  B^c = tr h nu^c - g^{ca} h_ab nu^b
    A = np.einsum("pj,pj->p", divh - dtrh, nu)
    B = trh[:, None] * nu - (inv @ (h @ nu[:, :, None]))[:, :, 0]
    jets = [V.jet(coords) for V in potentials]
    vals = np.stack([jet.val for jet in jets], axis=1)
    grads = np.stack([jet.grad for jet in jets], axis=1)     # (N, K, n)
    return A[:, None] * vals + (grads @ B[:, :, None])[:, :, 0], density


def _sphere_integral(spec: MetricSpec, potentials, r: float, quad: SphereRule,
                     integrand) -> np.ndarray:
    """Integrate ``integrand(coords) -> (values (N, K), density)`` over S_r.

    Returns one integral per potential, from the product rule ``quad`` on
    S^{n-1} (default ``sphere_rule(n)``) in every dimension.
    """
    n = spec.n
    if quad is None:
        quad = sphere_rule(n)
    if quad.angles.shape[1] != n - 1:
        raise ValueError(f"quadrature spec has {quad.angles.shape[1]} angles, "
                         f"the sphere S^{n - 1} needs {n - 1}")
    if quad.node_count < 4 ** (n - 1):
        raise ValueError("quadrature spec needs at least 4 nodes per angle")
    coords = sphere_coords_at_radius(quad, r)
    vals, density = integrand(coords)
    return (quad.weights * density) @ vals


def _flux_integrals(spec, potentials, r, quad, objects) -> np.ndarray:
    return _sphere_integral(spec, potentials, r, quad,
                            lambda c: flux_integrand_values(spec, potentials, c, objects))


def mass_flux_integral(spec: MetricSpec, V, r: float, quad: SphereRule = None,
                       objects: str = "background") -> float:
    """Flux integral over the sphere of radius r (see ``_sphere_integral``)."""
    return float(_flux_integrals(spec, [V], r, quad, objects)[0])


def _flux_ladders(spec: MetricSpec, potentials, labels, radii, quad: SphereRule,
                  objects: str) -> list:
    """One FluxReport per potential, from one integrand evaluation per radius."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radius ladder must be strictly increasing")
    values = np.array([_flux_integrals(spec, potentials, r, quad, objects)
                       for r in radii])
    # beta0 = n matches corrections r^(n-1-2q) at the borderline q = n
    return _fit_ladders(radii, values, labels, float(spec.n), spec.n)


def _fit_ladders(radii, values, labels, beta0: float, n: int) -> list:
    """One FluxReport per column of the (radii, labels) array ``values``."""
    reports = []
    for label, column in zip(labels, values.T):
        if not np.all(np.isfinite(column)):
            raise ArithmeticError(f"flux integrand produced non-finite values for {label}")
        limit, beta, resid, flags = extrapolate_limit(radii, column, beta0,
                                                      beta_bounds=(0.5, 2.0 * n))
        reports.append(FluxReport(integrand_label=label, radii=radii, values=column,
                                  fitted_limit=limit, fit_exponent=beta,
                                  fit_residual=resid, flags=flags))
    return reports


def flux_ladder(spec: MetricSpec, V, radii=DEFAULT_RADII, quad: SphereRule = None,
                label: str = "V", objects: str = "background") -> FluxReport:
    return _flux_ladders(spec, [V], [label], radii, quad, objects)[0]


def mass_vector(spec: MetricSpec, radii=DEFAULT_RADII, quad: SphereRule = None) -> MassVector:
    """Fitted flux limits against every background static potential."""
    radii = np.asarray(radii, dtype=float)
    if radii[-1] / radii[0] < 10.0 - 1e-9:
        raise ValueError("radius ladder should span at least one decade")
    n = spec.n
    labels = ["V_0"] + [f"x_{i}" for i in range(1, n + 1)]
    reports = _flux_ladders(spec, static_potential_basis(n), labels, radii, quad,
                            "background")
    flags = ()
    if getattr(spec, "borderline_decay", False):
        flags = ("borderline-decay",)
    extra = tuple(f for r in reports for f in r.flags if f == "no-extrapolation")
    return MassVector(p=np.array([r.fitted_limit for r in reports]),
                      reports=reports, flags=flags + extra)


def ricci_flux(spec: MetricSpec, V, r: float, quad: SphereRule = None,
               objects: str = "background") -> float:
    """int_{S_r} (Ric_g + (n-1) g)(grad V, nu) dsigma (see ``_sphere_integral``).

    The gradient, unit normal and measure are the hyperbolic background's
    (``objects="background"``, the curvature side of ``prop27_check``) or the
    metric's own (``objects="metric"``, the boundary flux of the rigidity
    module's ``wang_identity_check``).
    """
    n = spec.n

    def integrand(coords):
        app = metric_apparatus(spec, coords, level=2)
        frame = (app if objects == "metric"
                 else metric_apparatus(HyperbolicMetric(n), coords, level=1))
        nu, density = _normal_and_measure(frame, objects)
        vals = np.einsum("pab,pa,pb->p", app.ricci + (n - 1) * app.g,
                         frame.sharp(V.jet(coords).grad), nu)
        return vals[:, None], density

    return float(_sphere_integral(spec, [V], r, quad, integrand)[0])


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
    radii = np.asarray(radii, dtype=float)
    n = spec.n
    flux_rep = flux_ladder(spec, V, radii, quad, label="flux")
    vals = np.array([[ricci_flux(spec, V, r, quad)] for r in radii])
    ricci_rep, = _fit_ladders(radii, vals, ["ricci"], float(n), n)
    target = -(n - 2) / 2.0 * flux_rep.fitted_limit
    gap = abs(ricci_rep.fitted_limit - target)
    scale = max(abs(ricci_rep.fitted_limit), abs(target), 1e-12)
    rel = gap / scale
    passed = gap <= 0.01 * max(abs(ricci_rep.fitted_limit), abs(target), 1e-9)
    return Prop27Report(ricci_limit=ricci_rep.fitted_limit,
                        flux_limit=flux_rep.fitted_limit, gap=gap,
                        relative_gap=rel, passed=passed,
                        ricci_report=ricci_rep, flux_report=flux_rep)
