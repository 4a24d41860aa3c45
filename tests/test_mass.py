"""Flux integrals, the mass vector, and the curvature-flux cross-check.

Nontrivial expected values come from the symbolic closed forms in
docs/oracles.md: for the static family at n = 3 the flux against the growth
potential is exactly 16 pi m (1+r^2)/(1+r^2-2m/r) at every radius.
"""

import numpy as np
import pytest

from ahmass.curvature import metric_apparatus
from ahmass.fields import (AxisConcentratedPerturbation, RadialProfile, ScalarField,
                           SchemaError, poly_bump_jet, random_compact_tensor)
from ahmass.massflux import (extrapolate_limit, flux_integrand_values, flux_ladder,
                             mass_vector, prop27_check, ricci_ladder, rule_sequence)
from ahmass.metrics import (PerturbedMetric, hyperbolic_metric,
                            schwarzschild_ads, static_potential,
                            static_potential_basis)
from ahmass.quadrature import (angular_jacobian, sphere_area, sphere_coords_at_radius,
                               sphere_rule)

LADDER = np.geomspace(20.0, 200.0, 8)
SLOPE_ORACLE = 16.0 * np.pi  # p_0 / m for the n = 3 static family


def closed_form_flux(m, r):
    return 16.0 * np.pi * m * (1 + r ** 2) / (1 + r ** 2 - 2 * m / r)


def test_background_flux_exactly_zero(hyp3, quad48):
    values = flux_ladder(hyp3, [static_potential(3, 0)], [5.0, 50.0], quad48)
    assert np.array_equal(values, np.zeros((2, 1)))


def test_static_family_flux_matches_oracle(quad48):
    s = schwarzschild_ads(3, 0.5)
    (val,), = flux_ladder(s, [static_potential(3, 0)], [50.0], quad48)
    assert abs(val - closed_form_flux(0.5, 50.0)) < 1e-8
    assert abs(val - SLOPE_ORACLE * 0.5) < 0.01 * SLOPE_ORACLE * 0.5


def test_translational_flux_vanishes_by_parity(quad48):
    s = schwarzschild_ads(3, 0.5)
    basis = [static_potential(3, k) for k in (1, 2, 3)]
    assert np.abs(flux_ladder(s, basis, [50.0], quad48)).max() < 1e-12


def test_quadrature_node_rejection(hyp3):
    with pytest.raises(ValueError):
        sphere_rule(3, 3, 8)
    with pytest.raises(ValueError):
        sphere_rule(3, 8, 2)
    from ahmass.quadrature import SphereRule
    tiny = SphereRule(angles=np.array([[1.0, 1.0], [2.0, 2.0]]),
                      weights=np.array([6.0, 6.0]), polar=1, azimuth=2)
    with pytest.raises(ValueError):
        flux_ladder(hyp3, [static_potential(3, 0)], [10.0], tiny)
    # a rule on S^2 has too few angles for the sphere of an n = 4 metric
    with pytest.raises(ValueError, match="angles"):
        flux_ladder(hyperbolic_metric(4), [static_potential(4, 0)], [10.0],
                    sphere_rule(3, 8, 16))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("polar", [4, 8])
def test_sphere_rule_exact_in_higher_dimensions(n, polar):
    # Gauss-Jacobi polar factors: the total weight and the second moment of
    # cos(theta_1) are exact from the smallest rule on
    quad = sphere_rule(n, polar, 2 * polar)
    area = sphere_area(n)
    assert abs(quad.weights.sum() - area) <= 1e-14 * area
    second = quad.weights @ np.cos(quad.angles[:, 0]) ** 2
    assert abs(second - area / n) <= 1e-14 * area


def test_quadrature_order_convergence(quad48):
    # doubling angular nodes changes the value below 1e-8 for analytic data
    pert = AxisConcentratedPerturbation(3, [1.0, 0, 0], amp=1e-2, rate=2.5)
    spec = PerturbedMetric(hyperbolic_metric(3), pert)
    V0 = [static_potential(3, 0)]
    fine = sphere_rule(3, 96, 192)
    a = flux_ladder(spec, V0, [50.0], quad48)
    bb = flux_ladder(spec, V0, [50.0], fine)
    assert abs(a - bb).max() < 1e-8


def test_mass_vector_background_exact(hyp3, quad48):
    mv = mass_vector(hyp3, LADDER, quad48)
    assert np.array_equal(mv.p, np.zeros(4))
    assert mv.defect == 0.0
    assert all("exact-zero" in rep.flags for rep in mv.reports)


@pytest.mark.parametrize("n,polar", [(3, [4, 6, 8, 12, 16, 24, 32, 48]),
                                     (4, [4, 6, 8, 13]), (5, [4, 6])])
def test_rule_sequence_ends_at_the_default_rule(n, polar):
    # steps with at most half the default rule's nodes, then the default itself
    assert rule_sequence(n) == [(p, 2 * p) for p in polar]


def _spy(monkeypatch, name):
    import ahmass.massflux as massflux
    calls, real = [], getattr(massflux, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(massflux, name, spy)
    return calls


def test_mass_vector_compares_raw_ladders_and_fits_once(monkeypatch):
    # rules are compared before any fit: one fit per potential whose ladder
    # is above the roundoff floor (p_0 alone, by symmetry), on the last
    # ladder, however many rules were evaluated
    ladders = _spy(monkeypatch, "flux_ladder")
    fits = _spy(monkeypatch, "extrapolate_limit")
    mv = mass_vector(schwarzschild_ads(3, 0.5), LADDER)
    rules = [(args[3].polar, args[3].azimuth) for args in ladders]
    assert rules == rule_sequence(3)[:len(rules)] and len(rules) >= 2
    assert (mv.quadrature["polar"], mv.quadrature["azimuth"]) == rules[-1]
    assert len(fits) == 1
    assert np.array_equal(fits[0][1], mv.reports[0].values)
    for rep in mv.reports[1:]:
        assert rep.flags == ("roundoff-zero",)
        assert (rep.fitted_limit, rep.fit_exponent) == (0.0, np.inf)
        assert 0 < np.abs(rep.values).max() <= 1e-12 * np.abs(mv.reports[0].values).max()


def test_mass_vector_stops_on_a_non_finite_ladder(monkeypatch):
    import ahmass.massflux as massflux
    ladders = _spy(monkeypatch, "flux_ladder")
    monkeypatch.setattr(massflux, "flux_integrand_values",
                        lambda spec, potentials, coords: (
                            np.full((coords.shape[0], len(potentials)), np.nan),
                            np.ones(coords.shape[0])))
    with pytest.raises(ArithmeticError, match="non-finite"):
        mass_vector(schwarzschild_ads(3, 0.5), LADDER)
    assert len(ladders) == 1


def test_mass_vector_lists_each_flag_once(monkeypatch):
    # every fitted component falls back: the mass vector carries one
    # no-extrapolation flag, and the mass command's check counts components
    import ahmass.massflux as massflux
    from ahmass.cli import run_mass
    monkeypatch.setattr(massflux, "extrapolate_limit",
                        lambda radii, values, *rest, **kwargs: (
                            float(values[-1]), np.nan, np.nan, ("no-extrapolation",)))
    pert = AxisConcentratedPerturbation(3, np.eye(3)[0], amp=1e-2, rate=2.5, width=6.0)
    spec = PerturbedMetric(hyperbolic_metric(3), pert)
    results, checks, _ = run_mass(spec, {"quad_polar": 16, "quad_azimuth": 32})
    failed = [c for c in results["components"] if "no-extrapolation" in c["flags"]]
    assert len(failed) >= 2
    assert results["flags"].count("no-extrapolation") == 1
    assert checks[0]["name"] == "extrapolation_converged"
    assert checks[0]["value"] == len(failed) and not checks[0]["pass"]


def test_mass_linear_in_parameter(quad48):
    masses = np.array([0.25, 0.5, 1.0])
    p0 = []
    for m in masses:
        mv = mass_vector(schwarzschild_ads(3, m), LADDER, quad48)
        p0.append(mv.p[0])
        assert np.abs(mv.p[1:]).max() < 1e-10
        assert "borderline-decay" in mv.flags
    slope = np.polyfit(masses, p0, 1)[0]
    assert abs(slope - SLOPE_ORACLE) < 0.01 * SLOPE_ORACLE
    # individual intercepts are proportional too
    for m, p in zip(masses, p0):
        assert abs(p - SLOPE_ORACLE * m) < 0.01 * SLOPE_ORACLE * m


def test_defect_recomputable(quad48):
    mv = mass_vector(schwarzschild_ads(3, 0.5), LADDER, quad48)
    assert abs(mv.defect - (mv.p[0] - np.linalg.norm(mv.p[1:]))) < 1e-14


@pytest.mark.parametrize("n", [4, 5])
def test_higher_dimensional_rotationally_symmetric(n):
    m = 0.5
    mv = mass_vector(schwarzschild_ads(n, m), LADDER)
    expected = 2.0 * (n - 1) * sphere_area(n) * m
    assert abs(mv.p[0] - expected) < 0.01 * expected
    assert np.abs(mv.p[1:]).max() < 1e-10


def test_ricci_flux_matches_oracle(quad48):
    s = schwarzschild_ads(3, 0.5)
    (val,), = ricci_ladder(s, [static_potential(3, 0)], [50.0], quad48)
    expected = -8 * np.pi * 0.5 * (1 + 2500) / (1 + 2500 - 1.0 / 50)
    assert abs(val - expected) < 1e-6


def test_ricci_flux_identity_background(hyp3, quad48):
    assert abs(ricci_ladder(hyp3, [static_potential(3, 0)], [20.0], quad48)).max() < 1e-10


def _metric_ricci_flux_reference(spec, f, r, quad):
    """int_{S_r} (Ric + (n-1) g)(grad f, nu) dsigma in the metric g, written out."""
    coords = np.column_stack([np.full(quad.node_count, r), quad.angles])
    app = metric_apparatus(spec, coords, level=2)
    S = app.ricci + (spec.n - 1) * app.g
    grad = np.einsum("pab,pb->pa", app.inv, f.jet(coords).grad)
    nu = app.inv[:, 0, :] / np.sqrt(app.inv[:, 0, 0])[:, None]
    density = np.sqrt(np.linalg.det(app.g[:, 1:, 1:])) / angular_jacobian(coords[:, 1:])
    vals = np.einsum("pab,pa,pb->p", S, grad, nu)
    return float(np.sum(quad.weights * density * vals))


def _asymmetric_metric():
    """schwarzschild_ads (n = 3, m = 0.5) plus a random compact perturbation."""
    h = random_compact_tensor(np.random.default_rng(5), 3, 2.0, 8.0, amplitude=0.3)
    return PerturbedMetric(schwarzschild_ads(3, 0.5), h)


def test_ricci_flux_metric_objects_match_reference():
    # a perturbation without symmetry: the metric's normal and measure differ
    # from the background's, so mixing them in would show
    spec = _asymmetric_metric()
    quad = sphere_rule(3, 16, 32)
    V0 = static_potential(3, 0)
    radii = [3.0, 5.0]
    metric = ricci_ladder(spec, [V0], radii, quad, objects="metric")[:, 0]
    background = ricci_ladder(spec, [V0], radii, quad)[:, 0]
    for r, val, other in zip(radii, metric, background):
        ref = _metric_ricci_flux_reference(spec, V0, r, quad)
        assert abs(val - ref) <= 1e-13 * abs(ref)
        assert abs(other - ref) > 1e-3 * abs(ref)


@pytest.mark.parametrize("objects", ["background", "metric"])
def test_ricci_ladder_one_level2_apparatus_per_radius(monkeypatch, objects):
    # the Ricci integrand is linear in dV: all n+1 potentials share each
    # radius's level-2 apparatus, and a column's integrals do not depend on
    # the other potentials of its ladder (prop27_check and
    # wang_identity_check take one potential each)
    import ahmass.massflux as massflux
    level2 = []

    def recorded(spec, coords, level=2):
        if level >= 2:
            level2.append(coords.shape[0])
        return metric_apparatus(spec, coords, level=level)

    monkeypatch.setattr(massflux, "metric_apparatus", recorded)
    spec, radii, quad = _asymmetric_metric(), [3.0, 5.0, 9.0], sphere_rule(3, 16, 32)
    basis = static_potential_basis(3)
    values = ricci_ladder(spec, basis, radii, quad, objects)
    assert level2 == [quad.node_count] * len(radii)
    assert values.shape == (len(radii), len(basis))
    for k, V in enumerate(basis):
        single = ricci_ladder(spec, [V], radii, quad, objects)
        assert np.array_equal(values[:, k], single[:, 0])


def test_prop27_agreement(quad48):
    s = schwarzschild_ads(3, 0.5)
    rep = prop27_check(s, static_potential(3, 0), LADDER, quad48)
    assert rep.passed
    assert rep.relative_gap < 0.01
    assert abs(rep.ricci_limit + 8 * np.pi * 0.5) < 0.01 * 8 * np.pi * 0.5


def test_prop27_translational_both_sides_vanish(quad48):
    s = schwarzschild_ads(3, 0.5)
    rep = prop27_check(s, static_potential(3, 1), LADDER, quad48)
    assert abs(rep.ricci_limit) < 1e-9
    assert abs(rep.flux_limit) < 1e-9


def test_potential_perturbation_same_limit(quad48):
    # adding a compactly supported bump to the potential leaves the limit alone
    s = schwarzschild_ads(3, 0.5)
    V0 = static_potential(3, 0)
    w = RadialProfile(lambda r: poly_bump_jet(r, 5.0, 15.0) * 0.5).as_field()
    Vp = ScalarField(lambda c, order: V0.jet(c, order) + w.jet(c, order))
    fb, fp = (extrapolate_limit(LADDER, column, 3)[0]
              for column in flux_ladder(s, [V0, Vp], LADDER, quad48).T)
    assert abs(fb - fp) < 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_rotation_equivariance(n, quad48):
    # at n = 4 the bump decays faster (rate 4), so the ladder converges and the
    # fit residual gives a meaningful tolerance
    rate, quad = (2.5, quad48) if n == 3 else (4.0, sphere_rule(n, 13, 26))
    axis = np.eye(n)[0]
    pert = AxisConcentratedPerturbation(n, axis, amp=1e-2, rate=rate, width=6.0)
    g1 = PerturbedMetric(hyperbolic_metric(n), pert)
    mv1 = mass_vector(g1, LADDER, quad)
    theta = 0.7
    R = np.eye(n)   # a rotation in the x_1-x_2 plane
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    g2 = PerturbedMetric(hyperbolic_metric(n), pert.rotated(R))
    mv2 = mass_vector(g2, LADDER, quad)
    tol = 2.0 * (max(r.fit_residual for r in mv1.reports) + 1e-9)
    assert np.abs(mv2.p[1:] - R @ mv1.p[1:]).max() < tol
    assert abs(mv2.p[0] - mv1.p[0]) < tol
    assert abs(mv1.p[1]) > 0.01  # the perturbation genuinely moves the vector


def test_rotation_of_symmetric_family_trivial(quad48):
    # rotating a rotationally symmetric metric cannot move the vector: the
    # components stay identically zero
    s = schwarzschild_ads(3, 0.5)
    mv = mass_vector(s, LADDER, quad48)
    assert np.abs(mv.p[1:]).max() < 1e-10


def test_extrapolation_fallbacks():
    radii = np.geomspace(20, 200, 8)
    limit, beta, resid, flags = extrapolate_limit(radii, np.zeros(8), 3)
    assert limit == 0.0 and "exact-zero" in flags
    limit, beta, resid, flags = extrapolate_limit(radii, np.full(8, 4.2), 3)
    assert limit == 4.2 and "constant-ladder" in flags
    vals = 7.0 + 3.0 * radii ** -2.0
    limit, beta, resid, flags = extrapolate_limit(radii, vals, 3)
    assert abs(limit - 7.0) < 1e-9
    assert abs(beta - 2.0) < 1e-6
    assert flags == ()
    # 3 radii fit the 3 parameters exactly: the zero residual is no evidence
    short = np.geomspace(20, 200, 3)
    limit, beta, resid, flags = extrapolate_limit(short, 7.0 + 3.0 * short ** -2.0, 3)
    assert flags == ("under-determined",)
    four = np.geomspace(20, 200, 4)
    limit, beta, resid, flags = extrapolate_limit(four, 7.0 + 3.0 * four ** -2.0, 3)
    assert flags == () and abs(limit - 7.0) < 1e-9


def test_ladder_validation(hyp3, quad48):
    # every fitted ladder passes the one rule, fields.radius_ladder
    with pytest.raises(SchemaError, match="one decade"):
        mass_vector(hyp3, np.geomspace(20, 100, 6), quad48)
    with pytest.raises(SchemaError, match="strictly increasing"):
        prop27_check(hyp3, static_potential(3, 0), [30.0, 20.0, 40.0], quad48)


def _term_flux_integrand(spec, V, coords):
    """Background-objects flux integrand as V (div h - d tr h)(nu) + tr h dV(nu)
    - h(grad V, nu), each contraction written out."""
    n = spec.n
    b = metric_apparatus(hyperbolic_metric(n), coords, level=1)
    g, dg, _ = spec.component_jets(coords)
    h, dh = g - b.g, dg - b.dg
    inv, dinv, gamma = b.inv, b.dinv, b.gamma
    trh = np.einsum("pij,pij->p", inv, h)
    dtrh = np.einsum("paij,pij->pa", dinv, h) + np.einsum("pij,paij->pa", inv, dh)
    nh = (dh - np.einsum("pcai,pcj->paij", gamma, h)
          - np.einsum("pcaj,pic->paij", gamma, h))
    divh = np.einsum("pik,pikj->pj", inv, nh)
    jet = V.jet(coords)
    gradV = np.einsum("pab,pb->pa", inv, jet.grad)
    nu = np.zeros((coords.shape[0], n))
    nu[:, 0] = np.sqrt(1.0 + coords[:, 0] ** 2)
    term1 = jet.val * np.einsum("pj,pj->p", divh - dtrh, nu)
    term2 = trh * np.einsum("pa,pa->p", jet.grad, nu)
    term3 = np.einsum("pab,pa,pb->p", h, gradV, nu)
    return term1 + term2 - term3


@pytest.mark.parametrize("n", [3, 4])
def test_flux_integrand_matches_term_formula(n):
    # a non-diagonal deviation, so every component of V A + dV.B contributes
    rng = np.random.default_rng(5 + n)
    spec = PerturbedMetric(schwarzschild_ads(n, 0.5),
                           random_compact_tensor(rng, n, 2.0, 8.0, amplitude=0.3))
    coords = sphere_coords_at_radius(sphere_rule(n, 8, 16), 4.0)
    basis = static_potential_basis(n)
    values, density = flux_integrand_values(spec, basis, coords)
    assert values.shape == (coords.shape[0], n + 1)
    assert np.all(density == 4.0 ** (n - 1))
    for k, V in enumerate(basis):
        reference = _term_flux_integrand(spec, V, coords)
        assert np.abs(values[:, k] - reference).max() <= 1e-12 * np.abs(reference).max()
