"""Linearized operator, adjoint, duality, static residuals, and the functional."""

import numpy as np
import pytest

from ahmass.chart import random_points
from ahmass.curvature import covariant_hessian, metric_apparatus
from ahmass.fields import (ScaledMetricField, SymmetricTensorField, constant_field,
                           random_compact_scalar, random_compact_tensor)
from ahmass.metrics import (PerturbedMetric, static_potential,
                            static_potential_basis)
from ahmass.operators import (adjoint_values, duality_residual, first_variation_check,
                              functional_value, linearized_scalar_values,
                              static_residual, trace_identity_gap)
from ahmass.quadrature import sphere_rule, volume_rule
from ahmass.radial import radial_eigenfunction


def scaled(h, eps):
    """The tensor field eps * h."""
    return SymmetricTensorField(lambda c: h.component_arrays(c) * eps, support=h.support)


@pytest.fixture(scope="module")
def annulus_rule():
    return volume_rule(3, [2.0, 6.0], [48], sphere_rule(3, 16, 32))


def test_linearized_on_metric_itself(rng, hyp3):
    # L_g(g) = -R_g: tr g is constant, div g vanishes, <g, Ric> = R
    pts = random_points(3, rng, 30)
    h = ScaledMetricField(hyp3, constant_field(1.0))
    vals = linearized_scalar_values(metric_apparatus(hyp3, pts, level=2),
                                    h.component_arrays(pts))
    assert np.abs(vals - 6.0).max() < 1e-9


def test_linearized_matches_curvature_derivative(rng, hyp3):
    # independent check: L_g h against a centered difference of R(g + eps h)
    h = random_compact_tensor(rng, 3, 2.0, 6.0)
    pts = random_points(3, rng, 20, r_range=(2.2, 5.8))
    lin = linearized_scalar_values(metric_apparatus(hyp3, pts, level=2),
                                   h.component_arrays(pts))
    eps = 1e-6
    rp = metric_apparatus(PerturbedMetric(hyp3, scaled(h, eps)),
                          pts, level=2).scalar
    rm = metric_apparatus(PerturbedMetric(hyp3, scaled(h, -eps)),
                          pts, level=2).scalar
    assert np.abs(lin - (rp - rm) / (2 * eps)).max() < 1e-6


def test_trace_identity_pointwise(rng, hyp3, schw3):
    u = random_compact_scalar(rng, 2.0, 6.0, 3)
    pts = random_points(3, rng, 150, r_range=(2.1, 5.9))
    for spec in (hyp3, schw3):
        assert trace_identity_gap(spec, u, pts).max() < 1e-8


def test_adjoint_annihilates_static_potentials(rng, hyp3):
    pts = random_points(3, rng, 100)
    app = metric_apparatus(hyp3, pts, level=2)
    for V in static_potential_basis(3):
        assert np.abs(adjoint_values(app, V.jet(pts))).max() < 1e-9


def test_adjoint_of_zero(rng, schw3):
    pts = random_points(3, rng, 20, r_range=(2, 20))
    app = metric_apparatus(schw3, pts, level=2)
    assert np.abs(adjoint_values(app, constant_field(0.0).jet(pts))).max() == 0.0


def test_adjoint_trace_combination(rng, schw3):
    # tr L* V = (1-n) Lap V - R V, asserted in the literal index form
    pts = random_points(3, rng, 50, r_range=(2, 30))
    V = static_potential(3, 0)
    app = metric_apparatus(schw3, pts, level=2)
    jet = V.jet(pts)
    adj = adjoint_values(app, jet)
    tr_adj = np.einsum("pij,pij->p", app.inv, adj)
    hess = covariant_hessian(app, jet)
    lap = np.einsum("pij,pij->p", app.inv, hess)
    literal = -3 * lap + lap - jet.val * app.scalar
    assert np.abs(tr_adj - literal).max() < 1e-10


def test_duality_residual_randomized(rng, hyp3, schw3, annulus_rule):
    for spec in (hyp3, schw3):
        app = metric_apparatus(spec, annulus_rule.coords, level=2)
        for _ in range(5):
            h = random_compact_tensor(rng, 3, 2.0, 6.0)
            u = random_compact_scalar(rng, 2.0, 6.0, 3)
            assert duality_residual(spec, h, u, annulus_rule, app=app) < 1e-6


def test_duality_zero_scalr(rng, hyp3, annulus_rule):
    h = random_compact_tensor(rng, 3, 2.0, 6.0)
    assert duality_residual(hyp3, h, constant_field(0.0), annulus_rule) == 0.0


def test_duality_conformal_direction(rng, hyp3, annulus_rule):
    # h = u g: both pairings equal int u (1-n)(Lap u + R u / (n-1))
    u = random_compact_scalar(rng, 2.0, 6.0, 3)
    h = ScaledMetricField(hyp3, u)
    res = duality_residual(hyp3, h, u, annulus_rule)
    assert res < 1e-6
    app = metric_apparatus(hyp3, annulus_rule.coords, level=2)
    from ahmass.quadrature import volume_weights
    w = volume_weights(annulus_rule, app.sqrt_det)
    jet = u.jet(annulus_rule.coords)
    hc = h.component_arrays(annulus_rule.coords)
    lhs = float(np.sum(w * jet.val * linearized_scalar_values(app, hc)))
    hessu = covariant_hessian(app, jet)
    lap = np.einsum("pij,pij->p", app.inv, hessu)
    third = float(np.sum(w * jet.val * (1 - 3) * (lap + app.scalar * jet.val / 2)))
    assert abs(lhs - third) < 1e-6 * max(1.0, abs(third))


def test_static_residual_background(rng, hyp3):
    pts = random_points(3, rng, 200)
    for V in static_potential_basis(3):
        rep = static_residual(hyp3, V, pts)
        assert rep.hessian_sup < 1e-8
        assert rep.laplacian_sup < 1e-8


def test_static_residual_decay_on_static_family(schw3):
    # oracle: (Lap - 3) sqrt(1+r^2) ~ -3 m r^(-2): fitted rate q - 1 = 2
    from ahmass.decay import estimate_decay_rate
    V0 = static_potential(3, 0)

    def resid(coords):
        rep = static_residual(schw3, V0, coords)
        app = metric_apparatus(schw3, coords, level=2)
        jet = V0.jet(coords)
        hess = covariant_hessian(app, jet)
        lap = np.einsum("pij,pij->p", app.inv, hess)
        return np.abs(lap - 3 * jet.val)

    fit = estimate_decay_rate(resid, np.geomspace(20, 200, 8), 3,
                              nodes_per_angle=4)
    assert abs(fit.fitted_exponent - 2.0) < 0.15


def test_static_residual_on_warped_fixture():
    from ahmass.rigidity import warped_fixture
    fx = warped_fixture("hyperbolic", 3)
    pts = np.column_stack([np.linspace(-2, 2, 20), np.full(20, 1.5),
                           np.full(20, 2.0)])
    rep = static_residual(fx.metric, fx.potential, pts)
    assert rep.hessian_sup < 1e-8


def test_functional_vanishes_on_background(hyp3, quad16):
    V0 = static_potential(3, 0)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 200.0], [16, 48, 24, 24], quad16)
    rep = functional_value(hyp3, V0, hyp3, rule)
    assert abs(rep.value) < 1e-7


def test_functional_flux_form_trivial(hyp3, quad48):
    # flux form a_0 p_0 - sum a_i p_i - int (R + 6) f: identically zero on b
    from ahmass.massflux import mass_vector
    mv = mass_vector(hyp3, np.geomspace(20, 200, 8), quad48)
    assert np.array_equal(mv.p, np.zeros(4))  # flux part
    # curvature part vanishes pointwise: R(b) + 6 = 0 at machine precision


def test_functional_quadratic_remainder(rng, hyp3, quad16):
    # F(b + eps h) = O(eps^2) since the adjoint annihilates the potential
    V0 = static_potential(3, 0)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 200.0], [16, 48, 24, 24], quad16)
    h = random_compact_tensor(rng, 3, 2.0, 6.0, amplitude=0.5)
    vals = []
    for eps in (1e-2, 1e-3):
        gamma = PerturbedMetric(hyp3, scaled(h, eps))
        vals.append(functional_value(hyp3, V0, gamma, rule).value)
    order = np.log(abs(vals[0] / vals[1])) / np.log(10.0)
    assert order > 1.9


def test_first_variation_converges(rng, schw3, quad16):
    f0 = radial_eigenfunction(schw3).potential
    rule = volume_rule(3, [1.2, 2.0, 6.0, 20.0, 190.0], [16, 48, 24, 24], quad16)
    h = random_compact_tensor(rng, 3, 2.0, 6.0, amplitude=0.5)
    rep = first_variation_check(schw3, f0, h, [3e-2, 1e-2, 3e-3, 1e-3], rule)
    assert rep.order >= 0.9
    assert rep.errors[-1] < rep.errors[0]
    # Richardson extrapolation of the first-order quotient gains accuracy
    rep2 = first_variation_check(schw3, f0, h, [1e-2, 5e-3], rule)
    richardson = 2 * rep2.quotients[1] - rep2.quotients[0]
    assert abs(richardson - rep2.reference) < 0.2 * rep2.errors[1]


def test_first_variation_zero_field(rng, hyp3, quad16):
    V0 = static_potential(3, 0)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 50.0], [16, 32, 16], quad16)
    zero = scaled(random_compact_tensor(rng, 3, 2.0, 6.0), 0.0)
    rep = first_variation_check(hyp3, V0, zero, [1e-2, 1e-3], rule)
    assert rep.exact_zero
    assert abs(rep.reference) < 1e-12


def test_functional_divergent_tail_rejected(hyp3, quad16):
    # a deviation decaying too slowly makes the volume integral divergent
    from ahmass.fields import AxisConcentratedPerturbation
    from ahmass.operators import DivergentTailError
    V0 = static_potential(3, 0)
    slow = AxisConcentratedPerturbation(3, [1.0, 0, 0], amp=0.05, rate=1.2,
                                        width=2.0)
    gamma = PerturbedMetric(hyp3, slow)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 200.0], [16, 48, 24, 24], quad16)
    with pytest.raises(DivergentTailError):
        functional_value(hyp3, V0, gamma, rule)


def test_first_variation_background_reference_zero(rng, hyp3, quad16):
    # L_b^* V_0 = 0: the reference vanishes and quotients sink to zero linearly
    V0 = static_potential(3, 0)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 200.0], [16, 48, 24, 24], quad16)
    h = random_compact_tensor(rng, 3, 2.0, 6.0, amplitude=0.5)
    rep = first_variation_check(hyp3, V0, h, [1e-2, 1e-3], rule)
    assert abs(rep.reference) < 1e-10
    assert rep.order >= 0.9
