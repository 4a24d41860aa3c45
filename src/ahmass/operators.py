"""Linearized scalar-curvature operator, its adjoint, and the first variation
of the mass functional.

The linearization at g acting on a symmetric 2-tensor h is

    L_g h = -Lap(tr h) + div div h - <h, Ric_g>,

its formal L^2-adjoint on scalars is  L_g^* V = -(Lap V) g + Hess V - V Ric_g,
and all contractions are taken with respect to g.  L_g is applied as a linear
map on the jet of h: per-point coefficient tensors (A, B, C) with
L_g h = A . ddh + B . dh + C . h, built once per level-2 apparatus
(``MetricApparatus.linearization``) and shared by every field applied to it.
L_g^* goes through the covariant Hessian of V; the two sides of the duality
check share only g^{-1}, Gamma, d Gamma and Ric.  The module also checks the
first variation -int <h, L_g^* f> dmu_g of the volume functional built from a
linear-growth potential f,

    F(gamma) = int ( [L_g(gamma - bb) - (R(gamma) + n(n-1))] f
                     - (gamma - bb) . L_g^* f ) dmu_g,

with bb fixed to the hyperbolic background on the whole exterior chart.

Fields enter as the ``Jet`` their producer returns: a scalar jet ``V.jet(c)``
for the potential and a tensor jet ``component_arrays(c)`` for h.  The two
volume checks take their random fields one way, as jets of the rule's node
``rows`` from ``CompactBasis.node_jets``, and evaluate them on every node of
the rule.  They evaluate everything pointwise in node blocks
(``quadrature.map_node_blocks``) and sum the joined per-node arrays of the
whole rule, so their results do not depend on the blocks.  A metric with
det g <= 0 in any block is reported with its count over the whole rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import as_coords
from .curvature import (DegenerateMetricError, MetricApparatus, covariant_hessian,
                        metric_apparatus)
from .decay import fit_log_slope
from .metrics import MetricSpec, frame_components
from .quadrature import VolumeRule, map_node_blocks, volume_weights
from . import jets as J


# -- pointwise operators -------------------------------------------------------

def linearized_scalar_values(app: MetricApparatus, h: J.Jet) -> np.ndarray:
    """L_g h at the apparatus points for a tensor jet h (level-2 apparatus required).

    L_g is linear in h's jet: three pointwise dot products with the
    apparatus's coefficients (``MetricApparatus.linearization``), which each
    apparatus builds once for all the fields it is applied to.
    """
    N = h.val.shape[0]
    A, B, C = app.linearization
    out = np.einsum("pk,pk->p", A.reshape(N, -1), h.hess.reshape(N, -1))
    out += np.einsum("pk,pk->p", B.reshape(N, -1), h.grad.reshape(N, -1))
    out += np.einsum("pk,pk->p", C.reshape(N, -1), h.val.reshape(N, -1))
    return out


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


# -- node blocks ---------------------------------------------------------------

def _level2(metric, coords, degenerate) -> MetricApparatus | None:
    """The level-2 apparatus of ``metric`` at ``coords``, or None with the
    points where det g <= 0 set in the boolean array ``degenerate``."""
    try:
        return metric_apparatus(metric, coords, level=2)
    except DegenerateMetricError as err:
        degenerate |= err.mask
        return None


def _raise_if_degenerate(degenerate: np.ndarray):
    """Raise for the first column (metric) of a node-by-metric mask, joined
    over the whole rule, that flags any point with det g <= 0."""
    columns = degenerate.reshape(degenerate.shape[0], -1)
    failing = np.flatnonzero(columns.any(axis=0))
    if failing.size:
        raise DegenerateMetricError(columns[:, failing[0]])


# -- integration-by-parts self-test ---------------------------------------------

def duality_residual(spec: MetricSpec, pairs, rule: VolumeRule) -> list:
    """Relative gaps between <L_g h, u> and <h, L_g^* u> over compact supports.

    Each entry of ``pairs`` holds the jets of h and of u at the rule's nodes
    ``rows`` as functions of ``rows`` (``CompactBasis.node_jets``), input
    data to both sides.  Each node block builds one level-2 apparatus for
    every pair.  Both integrals are computed by the same quadrature rule but
    through independent integrands; the scale is the larger L^1 norm of the
    two.  Returns one gap per pair.
    """
    npairs = len(pairs)

    def densities(rows):
        coords = rule.coords[rows]
        m = coords.shape[0]
        degenerate = np.zeros(m, dtype=bool)
        w = np.full(m, np.nan)
        lhs, rhs = np.full((m, npairs), np.nan), np.full((m, npairs), np.nan)
        app = _level2(spec, coords, degenerate)
        if app is not None:
            w = volume_weights(rule.weights[rows], coords, app.sqrt_det)
            for k, (h_at, u_at) in enumerate(pairs):
                h, jet = h_at(rows), u_at(rows)
                lhs[:, k] = jet.val * linearized_scalar_values(app, h)
                rhs[:, k] = app.inner(h.val, adjoint_values(app, jet))
        return degenerate, w, lhs, rhs

    degenerate, w, lhs, rhs = map_node_blocks(densities, rule.coords.shape[0])
    _raise_if_degenerate(degenerate)
    residuals = []
    for k in range(npairs):
        lhs_w, rhs_w = w * lhs[:, k], w * rhs[:, k]
        scale = max(float(np.sum(np.abs(lhs_w))), float(np.sum(np.abs(rhs_w))))
        gap = abs(float(np.sum(lhs_w)) - float(np.sum(rhs_w)))
        residuals.append(0.0 if scale < 1e-300 else gap / scale)
    return residuals


# -- static equation residuals ---------------------------------------------------

@dataclass
class StaticResidualReport:
    hessian_sup: float
    laplacian_sup: float


def static_residual(spec: MetricSpec, V, point) -> StaticResidualReport:
    """Sup of |Hess V - (Ric + n g) V| and |Lap V - n V| over the sample set.

    The tensor residual is measured in background-frame components.
    """
    coords = as_coords(point)
    n = spec.n
    app = metric_apparatus(spec, coords, level=2)
    jet = V.jet(coords)
    hess = covariant_hessian(app, jet)
    lap = app.trace(hess)
    tensor = hess - (app.ricci + n * app.g) * jet.val[:, None, None]
    hess_sup = float(np.abs(frame_components(tensor, coords)).max())
    lap_sup = float(np.abs(lap - n * jet.val).max())
    return StaticResidualReport(hessian_sup=hess_sup, laplacian_sup=lap_sup)


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
                "epsilons": self.epsilons,
                "quotients": self.quotients,
                "errors": self.errors,
                "order": self.order, "exact_zero": self.exact_zero}


def first_variation_check(spec: MetricSpec, f, h_at, epsilons,
                          rule: VolumeRule) -> FirstVariationReport:
    """Compare (F(g + eps h) - F(g))/eps with -int <h, L_g^* f> dmu_g.

    ``h_at`` gives the second-order jet of h at the rule's nodes ``rows`` as
    a function of ``rows`` (``CompactBasis.node_jets``), as ``duality_residual``
    takes its pairs; every node of the rule is evaluated.  Errors should
    shrink at first order in eps; the report carries the convergence order
    between the two smallest epsilons (NaN when both sides vanish
    identically).  The metric's component jets are evaluated once per node
    block and serve the apparatus of g and of every g + eps h; the sums run
    over the joined per-node arrays of all blocks.
    """
    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)

    def block(rows):
        c = rule.coords[rows]
        m = c.shape[0]
        # column 0 flags g, column 1 + k flags g + epsilons[k]
        degenerate = np.zeros((m, 1 + epsilons.size), dtype=bool)
        w, pair_h = np.full(m, np.nan), np.full(m, np.nan)
        diffs = np.full((m, epsilons.size), np.nan)
        base = spec.component_jets(c)
        app = _level2(base, c, degenerate[:, 0])
        if app is None:
            return degenerate, w, pair_h, diffs
        w = volume_weights(rule.weights[rows], c, app.sqrt_det)
        jet = f.jet(c)
        h = h_at(rows)
        pair_h = app.inner(h.val, adjoint_values(app, jet))
        lin_h = linearized_scalar_values(app, h)
        for k, eps in enumerate(epsilons):
            # g + eps h is linear in eps: its jets are the base jets above plus
            # the one (second-order) h jet scaled, which level 2 asks for
            perturbed = _level2(base + h * eps, c, degenerate[:, 1 + k])
            if perturbed is None:
                continue
            # F(gamma) - F(g): the e-linear terms shift by eps * (L_g h f - <h, L* f>)
            # and the curvature term by R(g) - R(gamma)
            diff = -(perturbed.scalar - app.scalar) * jet.val
            diff += eps * (lin_h * jet.val - pair_h)
            diffs[:, k] = diff
        return degenerate, w, pair_h, diffs

    degenerate, w, pair_h, diffs = map_node_blocks(block, rule.coords.shape[0])
    _raise_if_degenerate(degenerate)
    reference = -float(np.sum(w * pair_h))
    quotients = np.asarray([float(np.sum(w * diffs[:, k])) / eps
                            for k, eps in enumerate(epsilons)])
    errors = np.abs(quotients - reference)
    if np.all(errors < 1e-9) and abs(reference) < 1e-9:
        return FirstVariationReport(reference=reference, epsilons=epsilons,
                                    quotients=quotients, errors=errors,
                                    order=np.nan, exact_zero=True)
    # the order is the local order of the two smallest epsilons, the
    # asymptotic end of the ladder: a fit over the whole ladder is pulled
    # below 1 by the eps^2 term at its large end
    slope = fit_log_slope(np.log(epsilons[-2:]), errors[-2:])
    return FirstVariationReport(reference=reference, epsilons=epsilons,
                                quotients=quotients, errors=errors,
                                order=float(slope), exact_zero=False)
