"""Radial reductions of the Laplacian: eigenfunctions and conformal deformation.

For a rotationally symmetric metric g = G_r(r) dr^2 + G_a(r) h_round the
Laplacian of a radial function is

    Lap u = u''/G_r + B(r) u',
    B = (1/G_r) [ (n-1)/2 * G_a'/G_a - G_r'/(2 G_r) ],

and second-order problems (Lap + c(r)) u = rhs are solved as two-point BVPs:
even-extension regularity u'(r_min) = 0 at the inner truncation radius, and a
Robin condition r u' + s u = 0 at r_max matching the decaying indicial
behavior u ~ r^(-s).  A single linear shooting pass provides an independent
cross-check of the collocation solution.  Both solvers reject a metric that is
not rotationally symmetric before any numerics, and fit a solution's decay on
the outer decade of its sample radii with ``decay.fit_log_slope``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.integrate import solve_bvp

from .curvature import covariant_hessian, finite_curvature, metric_apparatus
from .decay import fit_log_slope
from .fields import RadialProfile, ScalarField, SchemaError
from .metrics import (ConformalMetric, MetricSpec, inner_truncation_radius,
                      static_potential)
from . import jets as J

# collocation nodes solve_bvp may refine to.  The converged solves of the
# commands' radial problems use a few thousand; a solve that cannot converge
# fails here instead of refining ten times further
BVP_MAX_NODES = 20000
# Newton steps of conformal_deform_radial, the first being the linear solve
NEWTON_STEPS = 3
# a Newton residual at or below this is roundoff, not a step's error: no
# contraction ratio is read against it.  Converged deform runs divide by
# residuals of 1.3e-11 and up; after the exact-zero first residual of a
# zero target, the residuals are roundoff of 3e-15 to 3e-13
RESIDUAL_FLOOR = 1e-12


def _require_radial_reduction(spec: MetricSpec):
    """Only a rotationally symmetric metric reduces to radial ODEs."""
    if not spec.rotationally_symmetric:
        raise NotImplementedError(f"the radial solvers need a rotationally "
                                  f"symmetric metric; {spec.family} is not")


def _tail_decay(r_samp, values, r_hi: float, zero: float) -> float:
    """Decay exponent q of |values| ~ r^(-q) over the sample radii in the outer
    decade [r_hi / 10, r_hi]; infinite when every |value| is below ``zero``."""
    v_abs = np.abs(values)
    if np.all(v_abs < zero):
        return np.inf
    outer = r_samp >= r_hi / 10.0
    return -fit_log_slope(np.log(r_samp[outer]), v_abs[outer])


def radial_operator_coefficients(spec: MetricSpec):
    """Functions (inv_G_r, B) with Lap u = inv_G_r u'' + B u'."""
    n = spec.n

    def coeffs(r):
        G_r, G_a, dG_r, dG_a = spec.radial_profiles(r)
        inv_gr = 1.0 / G_r
        B = inv_gr * (0.5 * (n - 1) * dG_a / G_a - 0.5 * dG_r / G_r)
        return inv_gr, B

    return coeffs


def _ray(n: int, lo: float, hi: float, count: int):
    """``count`` geometric radii on [lo, hi] and their chart points along the
    fixed off-pole angular direction theta = pi/2."""
    r = np.geomspace(lo, hi, count)
    return r, np.column_stack([r] + [np.full(count, np.pi / 2)] * (n - 1))


def _sample_ray(n: int, r_lo: float, r_hi: float, count: int):
    """The residual-check ray, kept 2% inside [r_lo, r_hi]; a window too
    narrow for that margin is a config error, raised before any solve."""
    if not r_lo * 1.02 < r_hi * 0.98:
        raise SchemaError(f"r_max = {r_hi:g} leaves no sample radii inside "
                          f"[{r_lo:g}, r_max]: it must exceed "
                          f"{r_lo * 1.02 / 0.98:g}, the inner radius x 1.02/0.98")
    return _ray(n, r_lo * 1.02, r_hi * 0.98, count)


def scalar_curvature_profile(spec: MetricSpec, r_lo: float, r_hi: float) -> CubicSpline:
    """Spline of R_g(r) at 2000 radii along a fixed off-pole angular direction."""
    r, coords = _ray(spec.n, r_lo, r_hi, 2000)
    return CubicSpline(r, finite_curvature(spec, coords, "scalar").scalar)


@dataclass
class RadialSolution:
    """Collocation solution with value/derivative interpolants."""

    sol: object

    def value(self, r):
        return self.sol(np.asarray(r, dtype=float))[0]

    def d1(self, r):
        return self.sol(np.asarray(r, dtype=float))[1]

    def d2(self, r):
        return self.sol(np.asarray(r, dtype=float), 1)[1]

    def as_profile(self) -> RadialProfile:
        return RadialProfile(lambda r: J.compose(r, self.value(r.val), self.d1(r.val),
                                                 lambda: self.d2(r.val)))

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
    res = solve_bvp(fun, bc, x0, y0, tol=tol, max_nodes=BVP_MAX_NODES)
    if not res.success:
        raise ArithmeticError(f"collocation failed: {res.message}")
    return RadialSolution(sol=res.sol)


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
            raise ArithmeticError("shooting integration failed")
        return out

    part = integrate(0.0, homogeneous=False)
    homo = integrate(1.0, homogeneous=True)

    def robin(sol):
        v = sol.sol(r_hi)
        return r_hi * v[1] + robin_decay * v[0]

    g0, g1 = robin(part), robin(homo)
    if abs(g1) < 1e-300:
        raise ArithmeticError("homogeneous shooting solution degenerate")
    a_star = -g0 / g1

    def u(r):
        r = np.asarray(r, dtype=float)
        return part.sol(r)[0] + a_star * homo.sol(r)[0]

    return u


# -- eigenfunctions with prescribed growth --------------------------------------

@dataclass
class EigenfunctionReport:
    potential: ScalarField
    residual_sup: float
    decay_exponent: float
    positive: bool
    flags: tuple

    def to_dict(self):
        return {"residual_sup": self.residual_sup,
                "decay_exponent": self.decay_exponent,
                "positive": self.positive, "flags": list(self.flags)}


def radial_eigenfunction(spec: MetricSpec, r_hi: float = 200.0,
                         decay_rate: float = None) -> EigenfunctionReport:
    """Solve (Lap - n) v = -(Lap - n) sqrt(1+r^2) and return f = sqrt(1+r^2) + v.

    Only the rotationally invariant member of the eigenfunction family is
    built here; candidates asymptotic to the translational potentials can be
    residual-checked but not solved radially.
    """
    _require_radial_reduction(spec)
    n = spec.n
    r_lo = inner_truncation_radius(spec)
    r_samp, coords = _sample_ray(n, r_lo, r_hi, 400)
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
    f0 = static_potential(n, 0) + correction.as_field()

    # residual through the full tensor pipeline on the sample ladder
    app = metric_apparatus(spec, coords, level=1)
    jet = f0.jet(coords)
    lap = app.trace(covariant_hessian(app, jet))
    residual = float(np.abs(lap - n * jet.val).max())

    decay = _tail_decay(r_samp, correction.value(r_samp), r_hi, 1e-10)
    flags = (("zero-correction",) if decay == np.inf
             else ("slow-decay",) if decay < 0.5 else ())
    positive = bool(np.all(jet.val > 0))
    return EigenfunctionReport(potential=f0, residual_sup=residual,
                               decay_exponent=float(decay), positive=positive,
                               flags=flags)


# -- conformal direction of the scalar curvature map ----------------------------

@dataclass
class DeformationReport:
    solution: RadialSolution
    linear_residual: float
    solution_decay: float
    newton_residuals: list
    contraction_ratios: list

    def to_dict(self):
        return {"linear_residual": self.linear_residual,
                "solution_decay": self.solution_decay,
                "newton_residuals": list(map(float, self.newton_residuals)),
                "contraction_ratios": list(map(float, self.contraction_ratios))}


def conformal_deform_radial(spec: MetricSpec, phi_fn, s: float,
                            r_hi: float = 200.0) -> DeformationReport:
    """Solve the conformal-direction linearization (1-n)(Lap u + R u/(n-1)) = phi.

    ``phi_fn(r)`` is the radial target with decay exponent s, required to lie
    in the solvable window (-1, n).  NEWTON_STEPS steps then drive the full
    scalar curvature of (1 + u_k) g toward R_g + phi, reporting the nonlinear
    sup-residual per iteration.
    """
    _require_radial_reduction(spec)
    n = spec.n
    if not (-1.0 < s < n):
        raise SchemaError(f"target decay s={s} outside the solvable window (-1, {n})")
    r_lo = inner_truncation_radius(spec)
    r_samp, coords = _sample_ray(n, r_lo, r_hi, 300)

    def scalar_spline(metric):
        return scalar_curvature_profile(metric, r_lo * 0.999, r_hi * 1.001)

    def solve_linear(metric, r_spline, rhs_fn):
        zero_order = lambda r: r_spline(r) / (n - 1.0)
        return solve_radial_bvp(metric, rhs_fn, zero_order, s, r_lo, r_hi, tol=1e-11)

    base_scal = scalar_spline(spec)
    first = solve_linear(spec, base_scal, lambda r: np.asarray(phi_fn(r)) / (1.0 - n))

    # linear residual via the full linearized operator on u * g
    from .fields import ScaledMetricField
    from .operators import linearized_scalar_values
    app = metric_apparatus(spec, coords, level=2)
    h = ScaledMetricField(spec, first.as_field()).component_arrays(coords)
    lin = linearized_scalar_values(app, h)
    linear_residual = float(np.abs(lin - phi_fn(r_samp)).max())

    target = lambda r: base_scal(r) + np.asarray(phi_fn(r))

    def sup_residual(metric):
        vals = metric_apparatus(metric, coords, level=2).scalar
        return float(np.abs(vals - target(r_samp)).max()), vals

    # the first Newton step from g is exactly the linear solution above
    psi = 1.0 + first.as_profile()
    gamma = ConformalMetric(spec, psi)
    res_k, vals = sup_residual(gamma)
    rs = [float(np.abs(phi_fn(r_samp)).max()), res_k]
    for _ in range(NEWTON_STEPS - 1):
        rho_spline = CubicSpline(r_samp, vals - target(r_samp))
        step = solve_linear(gamma, scalar_spline(gamma),
                            lambda r: rho_spline(r) / (n - 1.0))
        psi = psi * (1.0 + step.as_profile())
        gamma = ConformalMetric(spec, psi)
        res_k, vals = sup_residual(gamma)
        rs.append(res_k)
    return DeformationReport(
        solution=first, linear_residual=linear_residual,
        solution_decay=float(_tail_decay(r_samp, first.value(r_samp), r_hi, 1e-13)),
        newton_residuals=rs,
        contraction_ratios=[rs[k + 1] / rs[k] if rs[k] > RESIDUAL_FLOOR else 0.0
                            for k in range(len(rs) - 1)])
