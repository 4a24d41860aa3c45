"""Radial reductions of the Laplacian: eigenfunctions and conformal deformation.

For a rotationally symmetric metric g = G_r(r) dr^2 + G_a(r) h_round the
Laplacian of a radial function is

    Lap u = u''/G_r + B(r) u',
    B = (1/G_r) [ (n-1)/2 * G_a'/G_a - G_r'/(2 G_r) ],

and second-order problems (Lap + c(r)) u = rhs are solved as two-point BVPs:
even-extension regularity u'(r_min) = 0 at the inner truncation radius, and a
Robin condition r u' + s u = 0 at r_max matching the decaying indicial
behavior u ~ r^(-s).  A single linear shooting pass provides an independent
cross-check of the collocation solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.integrate import solve_bvp

from .curvature import covariant_hessian, metric_apparatus
from .decay import fit_log_slope
from .fields import RadialProfile, ScalarField
from .metrics import ConformalMetric, MetricSpec
from . import jets as J


class RadialSolveError(RuntimeError):
    pass


def inner_truncation_radius(spec: MetricSpec, default: float = 0.1) -> float:
    """Default inner radius; pushed outside the horizon for horizon families."""
    rh = getattr(spec, "horizon_radius", 0.0)
    if rh and rh > 0:
        return max(default, 1.3 * rh)
    base = getattr(spec, "base", None)
    if base is not None:
        return inner_truncation_radius(base, default)
    return default


def radial_operator_coefficients(spec: MetricSpec):
    """Functions (inv_G_r, B) with Lap u = inv_G_r u'' + B u'."""
    n = spec.n

    def coeffs(r):
        G_r, G_a, dG_r, dG_a = spec.radial_profiles(r)
        inv_gr = 1.0 / G_r
        B = inv_gr * (0.5 * (n - 1) * dG_a / G_a - 0.5 * dG_r / G_r)
        return inv_gr, B

    return coeffs


def scalar_curvature_profile(spec: MetricSpec, r_lo: float, r_hi: float) -> CubicSpline:
    """Spline of R_g(r) at 2000 radii along a fixed off-pole angular direction."""
    r = np.geomspace(r_lo, r_hi, 2000)
    coords = np.column_stack([r] + [np.full(r.size, np.pi / 2)] * (spec.n - 1))
    scal = metric_apparatus(spec, coords, level=2).scalar
    return CubicSpline(r, scal)


@dataclass
class RadialSolution:
    """Collocation solution with value/derivative interpolants on [r_lo, r_hi]."""

    r_lo: float
    r_hi: float
    sol: object
    rms_residual: float

    def value(self, r):
        return self.sol(np.asarray(r, dtype=float))[0]

    def d1(self, r):
        return self.sol(np.asarray(r, dtype=float))[1]

    def d2(self, r):
        return self.sol(np.asarray(r, dtype=float), 1)[1]

    def as_profile(self) -> RadialProfile:
        return RadialProfile(lambda r: J.compose(r, self.value(r.val), self.d1(r.val),
                                                 self.d2(r.val)),
                             {"kind": "radial_solution"})

    def as_field(self) -> ScalarField:
        return self.as_profile().as_field()


def solve_radial_bvp(spec: MetricSpec, rhs_fn, zero_order_fn, robin_decay: float,
                     r_lo: float, r_hi: float, tol: float = 1e-10) -> RadialSolution:
    """Solve (Lap + c(r)) u = rhs with the truncation boundary conditions."""
    coeffs = radial_operator_coefficients(spec)

    def fun(x, y):
        inv_gr, B = coeffs(x)
        c = zero_order_fn(x)
        rhs = rhs_fn(x)
        upp = (rhs - c * y[0] - B * y[1]) / inv_gr
        return np.vstack([y[1], upp])

    def bc(ya, yb):
        return np.array([ya[1], r_hi * yb[1] + robin_decay * yb[0]])

    x0 = np.geomspace(r_lo, r_hi, 400)
    y0 = np.zeros((2, x0.size))
    res = solve_bvp(fun, bc, x0, y0, tol=tol, max_nodes=200000)
    if not res.success:
        raise RadialSolveError(f"collocation failed: {res.message}")
    return RadialSolution(r_lo=r_lo, r_hi=r_hi, sol=res.sol,
                          rms_residual=float(np.max(res.rms_residuals)))


def shooting_radial_solve(spec: MetricSpec, rhs_fn, zero_order_fn,
                          robin_decay: float, r_lo: float, r_hi: float):
    """Linear shooting: two IVP passes pin the Robin condition exactly.

    Returns a callable u(r); used as an independent check of the collocation
    path.
    """
    coeffs = radial_operator_coefficients(spec)

    def odefun(x, y):
        inv_gr, B = coeffs(np.asarray([x]))
        c = zero_order_fn(np.asarray([x]))[0]
        rhs = rhs_fn(np.asarray([x]))[0]
        return [y[1], (rhs - c * y[0] - B[0] * y[1]) / inv_gr[0]]

    def homfun(x, y):
        inv_gr, B = coeffs(np.asarray([x]))
        c = zero_order_fn(np.asarray([x]))[0]
        return [y[1], (-c * y[0] - B[0] * y[1]) / inv_gr[0]]

    def integrate(a, homogeneous):
        f = homfun if homogeneous else odefun
        out = solve_ivp(f, (r_lo, r_hi), [a, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        if not out.success:
            raise RadialSolveError("shooting integration failed")
        return out

    part = integrate(0.0, homogeneous=False)
    homo = integrate(1.0, homogeneous=True)

    def robin(sol):
        v = sol.sol(r_hi)
        return r_hi * v[1] + robin_decay * v[0]

    g0, g1 = robin(part), robin(homo)
    if abs(g1) < 1e-300:
        raise RadialSolveError("homogeneous shooting solution degenerate")
    a_star = -g0 / g1

    def u(r):
        r = np.asarray(r, dtype=float)
        return part.sol(r)[0] + a_star * homo.sol(r)[0]

    return u


# -- eigenfunctions with prescribed growth --------------------------------------

@dataclass
class EigenfunctionReport:
    potential: ScalarField
    correction: RadialSolution
    residual_sup: float
    decay_exponent: float
    positive: bool
    flags: tuple = ()

    def to_dict(self):
        return {"residual_sup": self.residual_sup,
                "decay_exponent": self.decay_exponent,
                "positive": self.positive, "flags": list(self.flags)}


def _radial_field_from(correction: RadialSolution) -> ScalarField:
    """Scalar field sqrt(1+r^2) + v(r) with exact jets for the closed part."""
    v = correction.as_profile()

    def jet_fn(coords):
        r = J.coordinate_jets(coords)[0]
        return J.jsqrt(1.0 + r * r) + v.jet(r)
    return ScalarField(jet_fn, asymptotic_tag=("linear-growth", (1.0,)))


def radial_eigenfunction(spec: MetricSpec, r_hi: float = 200.0,
                         decay_rate: float = None) -> EigenfunctionReport:
    """Solve (Lap - n) v = -(Lap - n) sqrt(1+r^2) and return f = sqrt(1+r^2) + v.

    Only the rotationally invariant member of the eigenfunction family is
    built here; candidates asymptotic to the translational potentials can be
    residual-checked but not solved radially.
    """
    if not spec.rotationally_symmetric:
        raise NotImplementedError("radial eigenfunction needs a rotationally "
                                  "symmetric metric")
    n = spec.n
    r_lo = inner_truncation_radius(spec)
    if decay_rate is None:
        decay_rate = float(n - 1)  # v ~ r^(1-q) with q at the borderline value n

    coeffs = radial_operator_coefficients(spec)

    def rho(r):
        r = np.asarray(r, dtype=float)
        s = np.sqrt(1.0 + r ** 2)
        inv_gr, B = coeffs(r)
        lap = inv_gr / s ** 3 + B * (r / s)
        return lap - n * s

    correction = solve_radial_bvp(spec, lambda r: -rho(r),
                                  lambda r: -float(n) * np.ones_like(r),
                                  decay_rate, r_lo, r_hi)
    f0 = _radial_field_from(correction)

    # residual through the full tensor pipeline on a fresh sample ladder
    r_samp = np.geomspace(r_lo * 1.02, r_hi * 0.98, 400)
    coords = np.column_stack([r_samp] + [np.full(r_samp.size, np.pi / 2)] * (n - 1))
    app = metric_apparatus(spec, coords, level=1)
    jet = f0.jet(coords)
    lap = app.trace(covariant_hessian(app, jet))
    residual = float(np.abs(lap - n * jet.val).max())

    v_abs = np.abs(correction.value(r_samp))
    flags = ()
    if np.all(v_abs < 1e-10):
        decay = np.inf
        flags = ("zero-correction",)
    else:
        outer = r_samp >= r_hi / 10.0
        slope, _ = fit_log_slope(r_samp[outer], np.maximum(v_abs[outer], 1e-300))
        decay = -slope
        if decay < 0.5:
            flags = ("slow-decay",)
    positive = bool(np.all(jet.val > 0))
    return EigenfunctionReport(potential=f0, correction=correction,
                               residual_sup=residual, decay_exponent=float(decay),
                               positive=positive, flags=flags)


# -- conformal direction of the scalar curvature map ----------------------------

@dataclass
class DeformationReport:
    solution: RadialSolution
    linear_residual: float
    solution_decay: float
    newton_residuals: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)

    def to_dict(self):
        return {"linear_residual": self.linear_residual,
                "solution_decay": self.solution_decay,
                "newton_residuals": list(map(float, self.newton_residuals)),
                "contraction_ratios": list(map(float, self.contraction_ratios))}


def conformal_deform_radial(spec: MetricSpec, phi_fn, s: float, r_hi: float = 200.0,
                            newton_steps: int = 0) -> DeformationReport:
    """Solve the conformal-direction linearization (1-n)(Lap u + R u/(n-1)) = phi.

    ``phi_fn(r)`` is the radial target with decay exponent s, required to lie
    in the solvable window (-1, n).  With newton_steps > 0 the full scalar
    curvature of (1 + u_k) g is driven toward R_g + phi, reporting the
    nonlinear sup-residual per iteration.
    """
    n = spec.n
    if not (-1.0 < s < n):
        raise ValueError(f"target decay s={s} outside the solvable window (-1, {n})")
    r_lo = inner_truncation_radius(spec)

    def solve_linear(metric, rhs_fn):
        r_spline = scalar_curvature_profile(metric, r_lo * 0.999, r_hi * 1.001)
        zero_order = lambda r: r_spline(r) / (n - 1.0)
        return solve_radial_bvp(metric, rhs_fn, zero_order, s, r_lo, r_hi, tol=1e-11)

    first = solve_linear(spec, lambda r: np.asarray(phi_fn(r)) / (1.0 - n))

    # linear residual via the full linearized operator on u * g
    from .fields import ScaledMetricField
    from .operators import linearized_scalar_values
    r_samp = np.geomspace(r_lo * 1.02, r_hi * 0.98, 300)
    coords = np.column_stack([r_samp] + [np.full(r_samp.size, np.pi / 2)] * (n - 1))
    app = metric_apparatus(spec, coords, level=2)
    h = ScaledMetricField(spec, first.as_field()).component_arrays(coords)
    lin = linearized_scalar_values(app, h)
    linear_residual = float(np.abs(lin - phi_fn(r_samp)).max())

    u_abs = np.abs(first.value(r_samp))
    if np.all(u_abs < 1e-13):
        u_decay = np.inf
    else:
        outer = r_samp >= r_hi / 10.0
        slope, _ = fit_log_slope(r_samp[outer], np.maximum(u_abs[outer], 1e-300))
        u_decay = -slope

    report = DeformationReport(solution=first, linear_residual=linear_residual,
                               solution_decay=float(u_decay))
    if newton_steps <= 0:
        return report

    base_scal = scalar_curvature_profile(spec, r_lo * 0.999, r_hi * 1.001)
    target = lambda r: base_scal(r) + np.asarray(phi_fn(r))

    def sup_residual(metric):
        vals = metric_apparatus(metric, coords, level=2).scalar
        return float(np.abs(vals - target(r_samp)).max()), vals

    # the first Newton step from g is exactly the linear solution above
    psi = 1.0 + first.as_profile()
    gamma = ConformalMetric(spec, psi)
    report.newton_residuals.append(float(np.abs(phi_fn(r_samp)).max()))
    res_k, vals = sup_residual(gamma)
    report.newton_residuals.append(res_k)
    for _ in range(newton_steps - 1):
        rho_spline = CubicSpline(r_samp, vals - target(r_samp))
        step = solve_linear(gamma, lambda r: rho_spline(r) / (n - 1.0))
        psi = psi * (1.0 + step.as_profile())
        gamma = ConformalMetric(spec, psi)
        res_k, vals = sup_residual(gamma)
        report.newton_residuals.append(res_k)
    rs = report.newton_residuals
    report.contraction_ratios = [rs[k + 1] / rs[k] if rs[k] > 0 else 0.0
                                 for k in range(len(rs) - 1)]
    return report
