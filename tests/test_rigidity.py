"""Boundary-flux identity, divergence form, sectional ODEs, warped fixture."""

import numpy as np
import pytest

from ahmass.fields import RadialProfile, ScalarField, poly_bump_jet
from ahmass.geodesics import axis_seed, integrate_geodesic, unit_radial_direction
from ahmass.metrics import static_potential
from ahmass.quadrature import sphere_rule
from ahmass.rigidity import (divergence_form_check, sectional_ode_check,
                             wang_identity_check, warped_fixture)

QUAD = sphere_rule(3, 16, 32)


@pytest.mark.parametrize("r", [5.0, 10.0, 20.0])
def test_wang_identity_exact_static(hyp3, r):
    rep = wang_identity_check(hyp3, static_potential(3, 0), r, quad=QUAD,
                              radial_nodes=48)
    assert rep.gap < 1e-8
    assert abs(rep.lhs) < 1e-8 and abs(rep.rhs) < 1e-8
    assert not rep.flags


def test_wang_identity_shifted_potential(hyp3):
    V0, V1 = static_potential(3, 0), static_potential(3, 1)
    f = ScalarField(lambda c, order: V0.jet(c, order) + V1.jet(c, order))
    rep = wang_identity_check(hyp3, f, 10.0, quad=QUAD, radial_nodes=48)
    assert rep.gap < 1e-8
    assert not rep.flags  # sqrt(1+r^2) + x_1 > 0 everywhere, still static


def test_wang_identity_diagnostic_on_nonstatic(hyp3):
    V0 = static_potential(3, 0)
    bump = RadialProfile(lambda r: poly_bump_jet(r, 2.0, 6.0) * 0.1).as_field()
    f = ScalarField(lambda c, order: V0.jet(c, order) + bump.jet(c, order))
    rep = wang_identity_check(hyp3, f, 10.0, quad=QUAD, radial_nodes=48)
    assert "staticity-violated" in rep.flags
    assert rep.gap > 1.0  # genuinely nonzero defect, reported as diagnostic


def test_wang_identity_interior_is_level_one(hyp3, monkeypatch):
    # no level-2 apparatus larger than the sphere rule (the flux and the
    # static-residual sample need curvature, the interior does not), and the
    # level-1 interior gives the level-2 lhs bit for bit
    import ahmass.curvature as curvature
    import ahmass.massflux as massflux
    import ahmass.operators as operators
    import ahmass.rigidity as rigidity
    from ahmass.quadrature import volume_rule, volume_weights
    level2_points = []

    def recorded(spec, coords, level=2):
        app = curvature.metric_apparatus(spec, coords, level=level)
        if level >= 2:
            level2_points.append(app.coords.shape[0])
        return app

    for module in (rigidity, massflux, operators):
        monkeypatch.setattr(module, "metric_apparatus", recorded)
    V0 = static_potential(3, 0)
    rep = wang_identity_check(hyp3, V0, 10.0, quad=QUAD, radial_nodes=48)
    assert level2_points and max(level2_points) <= QUAD.node_count

    rule = volume_rule(3, [0.01, 10.0], [48], QUAD)
    app = curvature.metric_apparatus(hyp3, rule.coords, level=2)
    jet = V0.jet(rule.coords)
    defect = curvature.covariant_hessian(app, jet) - jet.val[:, None, None] * app.g
    w = volume_weights(rule.weights, rule.coords, app.sqrt_det)
    assert rep.lhs == float(np.sum(w * app.inner(defect, defect) / jet.val))


def test_wang_identity_positivity_precondition(hyp3):
    V0 = static_potential(3, 0)
    f = ScalarField(lambda c, order: V0.jet(c, order) * -1.0)
    with pytest.raises(ValueError):
        wang_identity_check(hyp3, f, 5.0, quad=QUAD, radial_nodes=48)


def test_divergence_form_background(hyp3, rng):
    from ahmass.chart import random_points
    V0 = static_potential(3, 0)
    pts = random_points(3, rng, 20, r_range=(2.0, 20.0))
    assert divergence_form_check(hyp3, V0, pts).max() < 1e-8


def test_divergence_form_constant_potential(hyp3):
    # f = 1 on the background: S = 0 so both sides vanish
    one = ScalarField(lambda c, order: static_potential(3, 0).jet(c, order) * 0.0 + 1.0)

    def jet_one(c, order):
        from ahmass.jets import constant
        return constant(1.0, c.shape[0], c.shape[1], order)

    one = ScalarField(jet_one)
    pts = np.array([[3.0, 1.2, 0.7], [8.0, 0.9, 2.0]])
    assert divergence_form_check(hyp3, one, pts).max() < 1e-9


def test_divergence_form_warped_fixtures():
    # hyperbolic factor: constant curvature -1, genuinely static: identity holds
    fxh = warped_fixture("hyperbolic", 3)
    pts = np.array([[1.0, 2.0, 1.0], [0.5, 1.0, 3.0], [-1.2, 0.8, 2.0]])
    assert divergence_form_check(fxh.metric, fxh.potential, pts).max() < 1e-6
    # round factor: sinh t solves the Hessian equation but not the static one;
    # the defect equals f |S|^2 = 8 sinh(t)/cosh(t)^4 exactly (flux side is 0)
    fx = warped_fixture("round_sphere", 3)
    t = 1.0
    d = divergence_form_check(fx.metric, fx.potential, np.array([[t, 1.1, 0.7]]))
    assert abs(d[0] - 8.0 * np.sinh(t) / np.cosh(t) ** 4) < 1e-6


def test_warped_fixture_hessian_identity(rng):
    for factor in ("round_sphere", "hyperbolic"):
        fx = warped_fixture(factor, 3)
        pts = np.column_stack([rng.uniform(-3, 3, 100), rng.uniform(0.3, 2.8, 100),
                               rng.uniform(0.0, 2 * np.pi, 100)])
        assert fx.hessian_defect(pts) < 1e-8


def test_warped_fixture_curvature_approach():
    fx = warped_fixture("round_sphere", 3)
    for t in (2.0, 5.0, 8.0):
        for sign in (1.0, -1.0):
            K = fx.mixed_sectional([sign * t])[0]
            assert abs(K - (2.0 / np.cosh(t) ** 2 - 1.0)) < 1e-9
    assert abs(fx.mixed_sectional([8.0])[0] + 1.0) < 1e-3
    assert abs(fx.velocity_sectional([2.0])[0] + 1.0) < 1e-10


def test_warped_fixture_hyperbolic_factor_constant_curvature():
    fx = warped_fixture("hyperbolic", 3)
    for t in (-2.0, 0.7, 3.0):
        assert abs(fx.mixed_sectional([t])[0] + 1.0) < 1e-8
        assert abs(fx.velocity_sectional([t])[0] + 1.0) < 1e-8


def test_hessian_defect_equals_static_residual_combination(hyp3, rng):
    # on the background Ric + n g = b, so the rigidity defect Hess V - V g is
    # literally the adjoint-equation residual tensor from the operator module
    from ahmass.chart import random_points
    from ahmass.curvature import covariant_hessian, metric_apparatus
    V0 = static_potential(3, 0)
    pts = random_points(3, rng, 50)
    app = metric_apparatus(hyp3, pts, level=2)
    jet = V0.jet(pts)
    hess = covariant_hessian(app, jet)
    rigidity_defect = hess - jet.val[:, None, None] * app.g
    adjoint_defect = hess - (app.ricci + 3 * app.g) * jet.val[:, None, None]
    from ahmass.metrics import frame_components
    gap = frame_components(rigidity_defect - adjoint_defect, pts)
    assert np.abs(gap).max() < 1e-12


def _transported_pair(metric, p0):
    g0 = metric.components(p0[None])[0]
    X0 = np.array([0.0, 1.0 / np.sqrt(g0[1, 1]), 0.0])
    Y0 = np.array([0.0, 0.0, 1.0 / np.sqrt(g0[2, 2])])
    return np.stack([X0, Y0])


def test_sectional_ode_on_background(hyp3):
    p0 = axis_seed(3)
    geo = integrate_geodesic(hyp3, p0, unit_radial_direction(hyp3, p0), T=3.0,
                             sample_step=0.01,
                             transported=_transported_pair(hyp3, p0))
    rep = sectional_ode_check(hyp3, static_potential(3, 0), geo)
    assert np.abs(rep.K + 1.0).max() < 1e-9
    assert rep.rho_ode_residual < 1e-6
    assert rep.K_ode_residual < 1e-6
    assert rep.K_mixed_with_velocity < 1e-9


def test_sectional_ode_on_warped_fixture():
    fx = warped_fixture("round_sphere", 3)
    p0 = np.array([0.5, 1.1, 0.7])
    geo = integrate_geodesic(fx.metric, p0, np.array([1.0, 0.0, 0.0]), T=2.5,
                             sample_step=0.01,
                             transported=_transported_pair(fx.metric, p0))
    rep = sectional_ode_check(fx.metric, fx.potential, geo)
    assert rep.rho_ode_residual < 1e-6
    assert rep.K_ode_residual < 1e-5
    # rho realizes the tanh branch: 1 - 2/(e^{2t} + 1) with unit constant
    rho_expected = 1.0 - 2.0 / (np.exp(2.0 * (geo.ts + 0.5)) + 1.0)
    assert np.abs(rep.rho - rho_expected).max() < 1e-6
    assert geo.transport_drift < 1e-8


def test_potential_solves_growth_ode_along_geodesic():
    # f(gamma(t)) fits C1 e^t + C2 e^{-t} at machine precision
    fx = warped_fixture("round_sphere", 3)
    p0 = np.array([0.5, 1.1, 0.7])
    geo = integrate_geodesic(fx.metric, p0, np.array([1.0, 0.0, 0.0]), T=2.5,
                             sample_step=0.01,
                             transported=_transported_pair(fx.metric, p0))
    rep = sectional_ode_check(fx.metric, fx.potential, geo)
    assert rep.f_fit_residual < 1e-8
    c1, c2 = rep.f_fit_coefficients
    assert abs(c1 - np.exp(0.5) / 2.0) < 1e-8
    assert abs(c2 + np.exp(-0.5) / 2.0) < 1e-8


def test_sectional_refinement_reduces_residual():
    fx = warped_fixture("round_sphere", 3)
    p0 = np.array([0.5, 1.1, 0.7])
    res = []
    for step in (0.02, 0.01):
        geo = integrate_geodesic(fx.metric, p0, np.array([1.0, 0.0, 0.0]),
                                 T=2.5, sample_step=step,
                                 transported=_transported_pair(fx.metric, p0))
        rep = sectional_ode_check(fx.metric, fx.potential, geo)
        res.append(max(rep.rho_ode_residual, rep.K_ode_residual))
    assert res[1] < res[0]


def test_sectional_requires_transport(hyp3):
    p0 = axis_seed(3)
    geo = integrate_geodesic(hyp3, p0, unit_radial_direction(hyp3, p0), T=2.0)
    with pytest.raises(ValueError):
        sectional_ode_check(hyp3, static_potential(3, 0), geo)


def test_sectional_aborts_at_critical_point():
    # a potential with vanishing gradient along the ray is rejected
    fx = warped_fixture("round_sphere", 3)
    p0 = np.array([0.5, 1.1, 0.7])
    geo = integrate_geodesic(fx.metric, p0, np.array([1.0, 0.0, 0.0]), T=2.0,
                             sample_step=0.01,
                             transported=_transported_pair(fx.metric, p0))
    const = ScalarField(lambda c, order: fx.potential.jet(c, order) * 0.0 + 1.0)

    def jet_const(c, order):
        from ahmass.jets import constant
        return constant(1.0, c.shape[0], c.shape[1], order)

    const = ScalarField(jet_const)
    with pytest.raises(ArithmeticError):
        sectional_ode_check(fx.metric, const, geo)
