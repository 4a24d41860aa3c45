"""Linearized scalar-curvature operator, its adjoint, and the mass functional.

The linearization at g acting on a symmetric 2-tensor h is

    L_g h = -Lap(tr h) + div div h - <h, Ric_g>,

its formal L^2-adjoint on scalars is  L_g^* V = -(Lap V) g + Hess V - V Ric_g,
and all contractions are taken with respect to g.  The module also evaluates
the volume functional built from a linear-growth potential f,

    F(gamma) = int ( [L_g(gamma - bb) - (R(gamma) + n(n-1))] f
                     - (gamma - bb) . L_g^* f ) dmu_g,

with bb fixed to the hyperbolic background on the whole exterior chart, and
its first variation -int <h, L_g^* f> dmu_g.

Fields enter as the ``Jet`` their producer returns: a scalar jet ``V.jet(c)``
for the potential and a tensor jet ``component_arrays(c)`` for h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import as_coords
from .curvature import (MetricApparatus, covariant_hessian, metric_apparatus,
                        nabla2_2tensor)
from .decay import fit_log_slope
from .metrics import HyperbolicMetric, MetricSpec, frame_components
from .quadrature import VolumeRule, volume_weights
from . import jets as J


class DivergentTailError(ArithmeticError):
    """Fitted integrand decay too slow for a convergent volume integral."""


# -- pointwise operators -------------------------------------------------------

def linearized_scalar_values(app: MetricApparatus, h: J.Jet) -> np.ndarray:
    """L_g h at the apparatus points for a tensor jet h (level-2 apparatus required)."""
    tr = J.contract("ij,ij->", J.Jet(app.inv, app.dinv, app.ddinv), h)
    lap_tr = app.trace(covariant_hessian(app, tr))
    nn = nabla2_2tensor(app, h)
    divdiv = np.einsum("pai,pbj,pabij->p", app.inv, app.inv, nn)
    return -lap_tr + divdiv - app.inner(h.val, app.ricci)


def adjoint_values(app: MetricApparatus, jet: J.Jet) -> np.ndarray:
    """L_g^* V as a (N, n, n) tensor from a scalar jet at the apparatus points."""
    hess = covariant_hessian(app, jet)
    lap = app.trace(hess)
    return (-lap[:, None, None] * app.g + hess
            - jet.val[:, None, None] * app.ricci)


def trace_identity_gap(spec: MetricSpec, u, point) -> np.ndarray:
    """|L_g(u g) - (1-n)(Lap u + R u/(n-1))| pointwise."""
    from .fields import ScaledMetricField
    coords = as_coords(point)
    n = spec.n
    app = metric_apparatus(spec, coords, level=2)
    h = ScaledMetricField(spec, u).component_arrays(coords)
    lhs = linearized_scalar_values(app, h)
    jet = u.jet(coords)
    lap = app.trace(covariant_hessian(app, jet))
    rhs = (1 - n) * (lap + app.scalar * jet.val / (n - 1))
    return np.abs(lhs - rhs)


# -- integration-by-parts self-test ---------------------------------------------

def duality_residual(spec: MetricSpec, h_field, u_field, rule: VolumeRule,
                     app: MetricApparatus = None) -> float:
    """Relative gap between <L_g h, u> and <h, L_g^* u> over compact supports.

    Both integrals are computed by the same quadrature rule but through
    independent integrands; the scale is the larger L^1 norm of the two.
    A precomputed level-2 apparatus at the rule's nodes may be passed in when
    many pairs share one metric.
    """
    if app is None:
        app = metric_apparatus(spec, rule.coords, level=2)
    w = volume_weights(rule, app.sqrt_det)
    h = h_field.component_arrays(rule.coords)
    jet = u_field.jet(rule.coords)
    lhs_density = jet.val * linearized_scalar_values(app, h)
    rhs_density = app.inner(h.val, adjoint_values(app, jet))
    lhs = float(np.sum(w * lhs_density))
    rhs = float(np.sum(w * rhs_density))
    scale = max(float(np.sum(np.abs(w * lhs_density))),
                float(np.sum(np.abs(w * rhs_density))))
    if scale < 1e-300:
        return 0.0
    return abs(lhs - rhs) / scale


# -- static equation residuals ---------------------------------------------------

@dataclass
class StaticResidualReport:
    hessian_sup: float
    laplacian_sup: float
    samples: int

    def to_dict(self):
        return {"hessian_sup": self.hessian_sup, "laplacian_sup": self.laplacian_sup,
                "samples": self.samples}


def static_residual(spec: MetricSpec, V, point) -> StaticResidualReport:
    """Sup of |Hess V - (Ric + n g) V| and |Lap V - n V| over the sample set.

    The tensor residual is measured in background-frame components on the
    exterior chart and in the metric's own orthonormal scaling otherwise.
    """
    coords = as_coords(point)
    n = spec.n
    app = metric_apparatus(spec, coords, level=2)
    jet = V.jet(coords)
    hess = covariant_hessian(app, jet)
    lap = app.trace(hess)
    tensor = hess - (app.ricci + n * app.g) * jet.val[:, None, None]
    if spec.exterior_chart:
        comp = frame_components(tensor, coords)
        hess_sup = float(np.abs(comp).max())
    else:
        norm2 = app.inner(tensor, tensor)
        hess_sup = float(np.sqrt(np.abs(norm2).max()))
    lap_sup = float(np.abs(lap - n * jet.val).max())
    return StaticResidualReport(hessian_sup=hess_sup, laplacian_sup=lap_sup,
                                samples=coords.shape[0])


# -- the functional and its first variation --------------------------------------

@dataclass
class FunctionalReport:
    value: float
    truncated_integral: float
    tail_estimate: float
    tail_error: float
    integrand_decay: float

    def to_dict(self):
        return {"value": self.value, "truncated_integral": self.truncated_integral,
                "tail_estimate": self.tail_estimate, "tail_error": self.tail_error,
                "integrand_decay": self.integrand_decay}


def functional_value(g_base: MetricSpec, f, gamma: MetricSpec,
                     rule: VolumeRule) -> FunctionalReport:
    """Evaluate the potential-weighted curvature functional on the volume rule.

    The comparison tensor is the hyperbolic background on the whole chart.
    The radial tail beyond the rule is estimated from fitted decay of the
    per-radius density at the outermost six radii; a fitted pointwise integrand decay at or below the
    dimension raises DivergentTailError.
    """
    n = g_base.n
    coords = rule.coords
    app = metric_apparatus(g_base, coords, level=2)
    bb = HyperbolicMetric(n)
    e = gamma.component_jets(coords) - bb.component_jets(coords)
    lin = linearized_scalar_values(app, e)
    r_gamma = metric_apparatus(gamma, coords, level=2).scalar
    jet = f.jet(coords)
    pairing = app.inner(e.val, adjoint_values(app, jet))
    integrand = (lin - (r_gamma + n * (n - 1))) * jet.val - pairing

    w = volume_weights(rule, app.sqrt_det)
    truncated = float(np.sum(w * integrand))

    # per-radius density and pointwise decay on the outer part of the rule
    m = rule.sphere.node_count
    density = np.sum((w * integrand).reshape(-1, m), axis=1) / rule.radial_weights
    sup_pt = np.max(np.abs(integrand).reshape(-1, m), axis=1)
    radii = rule.radii
    k = min(6, radii.size)
    r_tail, d_tail, s_tail = radii[-k:], density[-k:], sup_pt[-k:]
    tail_est = 0.0
    tail_err = 0.0
    decay = np.inf
    # below the floor the samples are curvature-assembly roundoff, not signal
    noise_floor = 1e-9 * (1.0 + float(np.max(np.abs(jet.val))))
    if np.max(s_tail) > noise_floor:
        decay, _ = fit_log_slope(r_tail, np.maximum(s_tail, 1e-300))
        decay = -decay
        if decay <= n:
            raise DivergentTailError(
                f"integrand decay {decay:.3f} too slow (needs > {n})")
        dslope, _ = fit_log_slope(r_tail, np.maximum(np.abs(d_tail), 1e-300))
        beta = -dslope
        if beta > 1.0:
            tail_est = float(d_tail[-1] * radii[-1] / (beta - 1.0))
            tail_err = abs(tail_est)
    return FunctionalReport(value=truncated + tail_est,
                            truncated_integral=truncated,
                            tail_estimate=tail_est, tail_error=tail_err,
                            integrand_decay=float(decay))


@dataclass
class FirstVariationReport:
    reference: float
    epsilons: np.ndarray
    quotients: np.ndarray
    errors: np.ndarray
    order: float
    exact_zero: bool

    def to_dict(self):
        return {"reference": self.reference,
                "epsilons": list(map(float, self.epsilons)),
                "quotients": list(map(float, self.quotients)),
                "errors": list(map(float, self.errors)),
                "order": self.order, "exact_zero": self.exact_zero}


def first_variation_check(spec: MetricSpec, f, h_field, epsilons,
                          rule: VolumeRule) -> FirstVariationReport:
    """Compare (F(g + eps h) - F(g))/eps with -int <h, L_g^* f> dmu_g.

    Errors should shrink at first order in eps; the report carries the fitted
    convergence order (NaN when both sides vanish identically).  Since h is
    compactly supported, the functional difference lives entirely on the
    support: the tails of F(g + eps h) and F(g) cancel exactly, and only the
    scalar curvature of the perturbed metric needs recomputing per epsilon,
    on the support nodes alone.
    """
    from .metrics import PerturbedMetric
    from .fields import SymmetricTensorField

    n = spec.n
    app = metric_apparatus(spec, rule.coords, level=2)
    w = volume_weights(rule, app.sqrt_det)
    jet = f.jet(rule.coords)
    h = h_field.component_arrays(rule.coords)
    pair_h = app.inner(h.val, adjoint_values(app, jet))
    reference = -float(np.sum(w * pair_h))

    if h_field.support is not None:
        lo, hi = h_field.support
        mask = (rule.coords[:, 0] >= lo) & (rule.coords[:, 0] <= hi)
    else:
        mask = np.ones(rule.coords.shape[0], dtype=bool)
    sup_coords = rule.coords[mask]
    lin_h = linearized_scalar_values(app, h)
    r_base = app.scalar[mask]
    # h is linear in eps: evaluate it once on the support nodes, the only
    # points where the perturbed metrics below are evaluated, and scale it per eps
    h_sup = h_field.component_arrays(sup_coords)

    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    quotients = []
    for eps in epsilons:
        gamma = PerturbedMetric(spec, SymmetricTensorField(
            lambda c, eps=eps: h_sup * eps))
        r_eps = metric_apparatus(gamma, sup_coords, level=2).scalar
        # F(gamma) - F(g) restricted to the support: the e-linear terms shift
        # by eps * (L_g h f - <h, L* f>) and the curvature term by R(g)-R(gamma)
        diff = np.zeros_like(app.scalar)
        diff[mask] = -(r_eps - r_base) * jet.val[mask]
        diff += eps * (lin_h * jet.val - pair_h)
        quotients.append(float(np.sum(w * diff)) / eps)
    quotients = np.asarray(quotients)
    errors = np.abs(quotients - reference)
    if np.all(errors < 1e-9) and abs(reference) < 1e-9:
        return FirstVariationReport(reference=reference, epsilons=epsilons,
                                    quotients=quotients, errors=errors,
                                    order=np.nan, exact_zero=True)
    slope, _ = fit_log_slope(epsilons, np.maximum(errors, 1e-300))
    return FirstVariationReport(reference=reference, epsilons=epsilons,
                                quotients=quotients, errors=errors,
                                order=float(slope), exact_zero=False)
