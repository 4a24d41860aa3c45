"""Linearized scalar-curvature operator, its adjoint, and the first variation
of the mass functional.

The linearization at g acting on a symmetric 2-tensor h is

    L_g h = -Lap(tr h) + div div h - <h, Ric_g>,

its formal L^2-adjoint on scalars is  L_g^* V = -(Lap V) g + Hess V - V Ric_g,
and all contractions are taken with respect to g.  The module also checks the
first variation -int <h, L_g^* f> dmu_g of the volume functional built from a
linear-growth potential f,

    F(gamma) = int ( [L_g(gamma - bb) - (R(gamma) + n(n-1))] f
                     - (gamma - bb) . L_g^* f ) dmu_g,

with bb fixed to the hyperbolic background on the whole exterior chart.

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
from .metrics import MetricSpec, frame_components
from .quadrature import VolumeRule, angular_jacobian, volume_weights
from . import jets as J


# -- pointwise operators -------------------------------------------------------

def linearized_scalar_values(app: MetricApparatus, h: J.Jet) -> np.ndarray:
    """L_g h at the apparatus points for a tensor jet h (level-2 apparatus required).

    Both second-order terms contract the one second covariant derivative of h:
    since nabla g = 0, Lap(tr h) = g^{ab} g^{ij} (nabla nabla h)_abij and
    div div h = g^{ai} g^{bj} (nabla nabla h)_abij.
    """
    nn = nabla2_2tensor(app, h)
    lap_tr = np.einsum("pab,pij,pabij->p", app.inv, app.inv, nn)
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

def duality_residual(spec: MetricSpec, h: J.Jet, jet: J.Jet, rule: VolumeRule,
                     app: MetricApparatus = None) -> float:
    """Relative gap between <L_g h, u> and <h, L_g^* u> over compact supports.

    ``h`` is the tensor jet and ``jet`` the scalar jet of u at the rule's
    nodes, input data to both sides.  Both integrals are computed by the same
    quadrature rule but through independent integrands; the scale is the
    larger L^1 norm of the two.  A precomputed level-2 apparatus at the rule's
    nodes may be passed in when many pairs share one metric.
    """
    if app is None:
        app = metric_apparatus(spec, rule.coords, level=2)
    w = volume_weights(rule, app.sqrt_det)
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


# -- the first variation of the functional --------------------------------------

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

    Errors should shrink at first order in eps; the report carries the
    convergence order between the two smallest epsilons (NaN when both sides
    vanish identically).  A field that declares ``support = (lo, hi)`` must
    vanish, with all its derivatives, at every node whose radius lies outside
    [lo, hi].  There every term of the reference and of F(g + eps h) - F(g)
    is exactly zero, and the tails of the two functionals cancel, so
    everything (the metric apparatus, the volume weights, the jet of f, h and
    the perturbed scalar curvature per epsilon) is evaluated on the support
    nodes alone; without a support, on every node.
    The metric's component jets are evaluated once there and serve the
    apparatus of g and of every g + eps h.
    """
    coords = rule.coords
    if h_field.support is not None:
        lo, hi = h_field.support
        mask = (coords[:, 0] >= lo) & (coords[:, 0] <= hi)
    else:
        mask = np.ones(coords.shape[0], dtype=bool)
    coords = coords[mask]
    base = spec.component_jets(coords)
    app = metric_apparatus(base, coords, level=2)
    # volume_weights(rule, ...) restricted to the support nodes
    w = rule.weights[mask] * app.sqrt_det / angular_jacobian(coords[:, 1:])
    jet = f.jet(coords)
    h = h_field.component_arrays(coords)
    pair_h = app.inner(h.val, adjoint_values(app, jet))
    reference = -float(np.sum(w * pair_h))
    lin_h = linearized_scalar_values(app, h)
    r_g = app.scalar
    # only R(g) is read below: release the level-2 arrays before the
    # perturbed apparatus, which sets the peak memory of this check
    del app

    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    quotients = []
    for eps in epsilons:
        # g + eps h is linear in eps: its jets are the base jets above plus
        # the one (second-order) h jet scaled, which level 2 asks for
        r_eps = metric_apparatus(base + h * eps, coords, level=2).scalar
        # F(gamma) - F(g): the e-linear terms shift by eps * (L_g h f - <h, L* f>)
        # and the curvature term by R(g) - R(gamma)
        diff = -(r_eps - r_g) * jet.val
        diff += eps * (lin_h * jet.val - pair_h)
        quotients.append(float(np.sum(w * diff)) / eps)
    quotients = np.asarray(quotients)
    errors = np.abs(quotients - reference)
    if np.all(errors < 1e-9) and abs(reference) < 1e-9:
        return FirstVariationReport(reference=reference, epsilons=epsilons,
                                    quotients=quotients, errors=errors,
                                    order=np.nan, exact_zero=True)
    # the order is the local order of the two smallest epsilons, the
    # asymptotic end of the ladder: a fit over the whole ladder is pulled
    # below 1 by the eps^2 term at its large end
    slope, _ = fit_log_slope(epsilons[-2:], np.maximum(errors[-2:], 1e-300))
    return FirstVariationReport(reference=reference, epsilons=epsilons,
                                quotients=quotients, errors=errors,
                                order=float(slope), exact_zero=False)
