"""Integral and ODE identities behind the characterization of the model space.

Three families of checks:

* a divergence identity relating the interior defect f^(-1)|Hess f - f g|^2
  to a curvature flux through the boundary sphere, valid when f solves the
  static equation; the flux is ``massflux.ricci_flux``, the one Ricci-flux
  integrand, taken here with the metric's own gradient, normal and measure
  (the mass cross-check uses it with the background's);
* the evolution of the sectional curvature of a parallel plane along a
  geodesic through the gradient flow of f: K' = -2 (f/|grad f|)(K+1) with
  (f/|grad f|)' = 1 - (f/|grad f|)^2;
* the warped-product fixture dt^2 + cosh(t)^2 h with potential sinh t, which
  satisfies Hess f = f g without being the model space and realizes the
  tanh-profile branch of the ODE above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import as_coords
from .curvature import covariant_hessian, divergence_of_oneform, metric_apparatus
from .fields import ScalarField
from .geodesics import GeodesicSample
from .massflux import ricci_flux
from .metrics import MetricSpec, WarpedProductMetric
from .operators import static_residual
from .quadrature import SphereRule, sphere_rule, volume_rule, volume_weights
from . import jets as J


# -- boundary-flux identity ------------------------------------------------------

@dataclass
class WangReport:
    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    static_residual_sup: float
    flags: tuple = ()

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "gap": self.gap,
                "relative_gap": self.relative_gap,
                "static_residual_sup": self.static_residual_sup,
                "flags": list(self.flags)}


def wang_identity_check(spec: MetricSpec, f, r: float, quad: SphereRule = None,
                        radial_nodes: int = 96) -> WangReport:
    """Interior Hessian defect against the boundary curvature flux on B_r.

    The ball is the shell between r_inner = 0.01 and r.  Requires f > 0 on
    it.  When f fails the static equation beyond 1e-6 the report is flagged
    and the gap is purely diagnostic; the identity only holds for static
    potentials.
    """
    n = spec.n
    r_inner = 0.01
    if r <= r_inner:
        raise ValueError(f"ball radius {r} must exceed the inner radius {r_inner}")
    if quad is None:
        quad = sphere_rule(n, 32, 64)
    rule = volume_rule(n, [r_inner, r], [radial_nodes], quad)
    app = metric_apparatus(spec, rule.coords, level=2)
    jet = f.jet(rule.coords)
    if np.any(jet.val <= 0):
        raise ValueError(f"potential must be positive on the ball; min value "
                         f"{jet.val.min():.3g}")
    defect = covariant_hessian(app, jet) - jet.val[:, None, None] * app.g
    norm2 = app.inner(defect, defect)
    w = volume_weights(rule, app.sqrt_det)
    lhs = float(np.sum(w * norm2 / jet.val))
    rhs = (ricci_flux(spec, f, r, quad, objects="metric")
           - ricci_flux(spec, f, r_inner, quad, objects="metric"))
    gap = abs(lhs - rhs)
    rel = gap / max(abs(lhs), abs(rhs), 1e-12)

    srep = static_residual(spec, f, rule.coords[:: max(1, rule.coords.shape[0] // 512)])
    flags = ()
    if max(srep.hessian_sup, srep.laplacian_sup) > 1e-6:
        flags = ("staticity-violated",)
    return WangReport(lhs=lhs, rhs=rhs, gap=gap, relative_gap=rel,
                      static_residual_sup=max(srep.hessian_sup, srep.laplacian_sup),
                      flags=flags)


def divergence_form_check(spec: MetricSpec, f, point) -> np.ndarray:
    """Pointwise |f |S|^2 - div(S(grad f))| with S = Ric + (n-1) g.

    The divergence side is computed from central finite differences of the
    one-form S(grad f) evaluated at shifted points, independent of the
    analytic product-rule path on the left side.
    """
    coords = as_coords(point)
    n = spec.n

    def oneform(c):
        app = metric_apparatus(spec, c, level=2)
        jet = f.jet(c)
        S = app.ricci + (n - 1) * app.g
        return np.einsum("pab,pa->pb", S, app.sharp(jet.grad))

    app = metric_apparatus(spec, coords, level=2)
    jet = f.jet(coords)
    S = app.ricci + (n - 1) * app.g
    S2 = app.inner(S, S)
    lhs = jet.val * S2

    steps = np.full(coords.shape, 1e-5)
    steps[:, 0] = 1e-5 * (1.0 + np.abs(coords[:, 0]))
    domega = np.zeros((coords.shape[0], n, n))
    for a in range(n):
        cp, cm = coords.copy(), coords.copy()
        cp[:, a] += steps[:, a]
        cm[:, a] -= steps[:, a]
        domega[:, a] = (oneform(cp) - oneform(cm)) / (2.0 * steps[:, a][:, None])
    div = divergence_of_oneform(app, oneform(coords), domega)
    return np.abs(lhs - div)


# -- sectional-curvature evolution along gradient-flow geodesics -----------------

@dataclass
class SectionalReport:
    ts: np.ndarray
    K: np.ndarray
    rho: np.ndarray
    rho_ode_residual: float
    K_ode_residual: float
    K_mixed_with_velocity: float
    f_fit_coefficients: tuple
    f_fit_residual: float

    def to_dict(self):
        return {"rho_ode_residual": self.rho_ode_residual,
                "K_ode_residual": self.K_ode_residual,
                "K_mixed_with_velocity": self.K_mixed_with_velocity,
                "f_fit_coefficients": list(self.f_fit_coefficients),
                "f_fit_residual": self.f_fit_residual}


def _five_point_derivative(vals: np.ndarray, h: float) -> np.ndarray:
    """Interior 5-point central stencil; returns values for indices 2..N-3."""
    return (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * h)


def sectional_ode_check(spec: MetricSpec, f, geodesic: GeodesicSample) -> SectionalReport:
    """Verify the parallel-plane curvature ODEs along a geodesic.

    The geodesic must carry two parallel-transported vectors orthogonal to
    its velocity; K is sampled from the curvature tensor, rho = f/|grad f|,
    and both reported residuals compare 5-point stencil derivatives of the
    sampled curves against their predicted right-hand sides.
    """
    if geodesic.transported is None or geodesic.transported.shape[1] < 2:
        raise ValueError("geodesic must carry two transported plane vectors")
    ts = geodesic.ts
    h = ts[1] - ts[0]
    if not np.allclose(np.diff(ts), h, rtol=1e-8):
        raise ValueError("sectional check needs a uniform sample grid")
    coords = geodesic.coords
    app = metric_apparatus(spec, coords, level=2)
    X = geodesic.transported[:, 0]
    Y = geodesic.transported[:, 1]
    vel = geodesic.velocities
    K = app.sectional(X, Y)
    K_mix = app.sectional(X, vel)
    jet = f.jet(coords)
    grad_norm = np.sqrt(np.einsum("pab,pa,pb->p", app.inv, jet.grad, jet.grad))
    if np.any(grad_norm < 1e-10):
        raise ArithmeticError("critical point of the potential along the "
                              "geodesic: |grad f| < 1e-10")
    rho = jet.val / grad_norm

    drho = _five_point_derivative(rho, h)
    dK = _five_point_derivative(K, h)
    mid = slice(2, -2)
    rho_resid = float(np.abs(drho - (1.0 - rho[mid] ** 2)).max())
    K_resid = float(np.abs(dK + 2.0 * rho[mid] * (K[mid] + 1.0)).max())
    K_mix_gap = float(np.abs(K_mix + 1.0).max())

    basis = np.stack([np.exp(ts), np.exp(-ts)], axis=1)
    coeff, *_ = np.linalg.lstsq(basis, jet.val, rcond=None)
    fit = basis @ coeff
    f_resid = float(np.max(np.abs(fit - jet.val)) / max(np.max(np.abs(jet.val)), 1e-300))
    return SectionalReport(ts=ts, K=K, rho=rho, rho_ode_residual=rho_resid,
                           K_ode_residual=K_resid, K_mixed_with_velocity=K_mix_gap,
                           f_fit_coefficients=(float(coeff[0]), float(coeff[1])),
                           f_fit_residual=f_resid)


# -- the warped-product fixture ---------------------------------------------------

@dataclass
class WarpedProductFixture:
    metric: WarpedProductMetric
    potential: ScalarField
    factor: str

    def hessian_defect(self, coords) -> float:
        coords = as_coords(coords)
        app = metric_apparatus(self.metric, coords, level=1)
        jet = self.potential.jet(coords)
        defect = covariant_hessian(app, jet) - jet.val[:, None, None] * app.g
        norm2 = app.inner(defect, defect)
        return float(np.sqrt(np.abs(norm2).max()))

    def _axis_sectional(self, t_values, a: int, b: int) -> np.ndarray:
        """K(e_a ^ e_b) for the unit chart-axis vectors e_a, e_b at given warp times."""
        n = self.metric.n
        pts = np.column_stack([np.asarray(t_values, dtype=float)]
                              + [np.full(len(t_values), 1.1)] * (n - 1))
        app = metric_apparatus(self.metric, pts, level=2)
        X, Y = (np.eye(n)[k] / np.sqrt(app.g[:, k, k])[:, None] for k in (a, b))
        return app.sectional(X, Y)

    def mixed_sectional(self, t_values) -> np.ndarray:
        """K(X ^ Y) for orthonormal factor directions at given warp times."""
        return self._axis_sectional(t_values, 1, 2)

    def velocity_sectional(self, t_values) -> np.ndarray:
        """K(d/dt ^ X) at given warp times; identically -1 for cosh warping."""
        return self._axis_sectional(t_values, 1, 0)


def sinh_potential() -> ScalarField:
    return ScalarField(lambda c: J.jsinh(J.coordinate_jets(c)[0]),
                       asymptotic_tag=("warp",))


def warped_fixture(factor: str = "round_sphere", n: int = 3) -> WarpedProductFixture:
    """dt^2 + cosh(t)^2 h with potential sinh t; h round or hyperbolic."""
    return WarpedProductFixture(metric=WarpedProductMetric(n, factor),
                                potential=sinh_potential(), factor=factor)
