"""Linearized operator, adjoint, duality, static residuals, and the first variation."""

import numpy as np
import pytest

from ahmass.chart import random_points
from ahmass.curvature import covariant_hessian, metric_apparatus
from ahmass.fields import (CompactBasis, ScaledMetricField, SymmetricTensorField,
                           constant_profile, random_compact_scalar, random_compact_tensor)
from ahmass.metrics import (PerturbedMetric, static_potential,
                            static_potential_basis)
from ahmass.operators import (adjoint_values, duality_residual, first_variation_check,
                              linearized_scalar_values, static_residual,
                              trace_identity_gap)
from ahmass.quadrature import sphere_rule, volume_rule, volume_weights
from ahmass.radial import radial_eigenfunction


def scaled(h, eps):
    """The tensor field eps * h."""
    return SymmetricTensorField(lambda c, order: h.component_arrays(c, order) * eps,
                                support=h.support)


@pytest.fixture(scope="module")
def annulus_rule():
    return volume_rule(3, [2.0, 6.0], [48], sphere_rule(3, 16, 32))


def test_linearized_on_metric_itself(rng, hyp3):
    # L_g(g) = -R_g: tr g is constant, div g vanishes, <g, Ric> = R
    pts = random_points(3, rng, 30)
    h = ScaledMetricField(hyp3, constant_profile(1.0).as_field())
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
    assert np.abs(adjoint_values(app, constant_profile(0.0).as_field().jet(pts))).max() == 0.0


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


def scalar_at(u, coords):
    """The jet of the scalar field u at coords[rows] as a function of rows."""
    return lambda rows: u.jet(coords[rows])


def test_duality_residual_randomized(rng, hyp3, schw3, annulus_rule):
    basis = CompactBasis(annulus_rule.coords, (2.0, 6.0))
    for spec in (hyp3, schw3):
        pairs = []
        for _ in range(5):
            h = random_compact_tensor(rng, 3, 2.0, 6.0)
            u = random_compact_scalar(rng, 2.0, 6.0, 3)
            pairs.append((basis.node_jets(h), basis.node_jets(u)))
        residuals = duality_residual(spec, pairs, annulus_rule)
        assert len(residuals) == 5 and max(residuals) < 1e-6


def test_duality_residual_matches_one_apparatus_on_the_whole_rule(schw3, annulus_rule):
    # the 24,576 nodes run in 12 blocks; the residuals equal, bit for bit,
    # those of one apparatus and one pair of jets on the whole rule
    rng = np.random.default_rng(7)
    coords = annulus_rule.coords
    basis = CompactBasis(coords, (2.0, 6.0))
    fields = [(random_compact_tensor(rng, 3, 2.0, 6.0),
               random_compact_scalar(rng, 2.0, 6.0, 3)) for _ in range(3)]
    got = duality_residual(schw3, [(basis.node_jets(h), basis.node_jets(u))
                                   for h, u in fields], annulus_rule)
    app = metric_apparatus(schw3, coords, level=2)
    w = volume_weights(annulus_rule.weights, annulus_rule.coords, app.sqrt_det)
    expected = []
    for h_field, u in fields:
        h, jet = h_field.evaluate(basis), u.evaluate(basis)
        lhs = w * (jet.val * linearized_scalar_values(app, h))
        rhs = w * app.inner(h.val, adjoint_values(app, jet))
        expected.append(abs(float(np.sum(lhs)) - float(np.sum(rhs)))
                        / max(float(np.sum(np.abs(lhs))), float(np.sum(np.abs(rhs)))))
    assert got == expected


def test_duality_zero_scalr(rng, hyp3, annulus_rule):
    h = random_compact_tensor(rng, 3, 2.0, 6.0)
    coords = annulus_rule.coords
    pairs = [(h.node_jets(coords), scalar_at(constant_profile(0.0).as_field(), coords))]
    assert duality_residual(hyp3, pairs, annulus_rule) == [0.0]


def test_duality_conformal_direction(rng, hyp3, annulus_rule):
    # h = u g: both pairings equal int u (1-n)(Lap u + R u / (n-1))
    u = random_compact_scalar(rng, 2.0, 6.0, 3)
    h = ScaledMetricField(hyp3, u)
    coords = annulus_rule.coords
    [res] = duality_residual(hyp3, [(h.node_jets(coords), scalar_at(u, coords))],
                             annulus_rule)
    assert res < 1e-6
    app = metric_apparatus(hyp3, annulus_rule.coords, level=2)
    w = volume_weights(annulus_rule.weights, annulus_rule.coords, app.sqrt_det)
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


def test_functional_flux_form_trivial(hyp3, quad48):
    # flux form a_0 p_0 - sum a_i p_i - int (R + 6) f: identically zero on b
    from ahmass.massflux import mass_vector
    mv = mass_vector(hyp3, np.geomspace(20, 200, 8), quad48)
    assert np.array_equal(mv.p, np.zeros(4))  # flux part
    # curvature part vanishes pointwise: R(b) + 6 = 0 at machine precision


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


def test_first_variation_matches_perturbed_metric_reference(schw3):
    # the shared base jets give the bits of one PerturbedMetric per epsilon
    from ahmass.decay import fit_log_slope
    from ahmass.operators import adjoint_values, linearized_scalar_values
    from ahmass.quadrature import angular_jacobian
    rule = volume_rule(3, [2.0, 6.0], [6], sphere_rule(3, 6, 12))
    f0 = radial_eigenfunction(schw3).potential
    h_field = random_compact_tensor(np.random.default_rng(3), 3, 2.0, 6.0,
                                    amplitude=0.5)
    eps = [3e-2, 1e-2, 3e-3, 1e-3]
    rep = first_variation_check(schw3, f0, h_field, eps, rule)

    coords = rule.coords
    app = metric_apparatus(schw3, coords, level=2)
    w = rule.weights * app.sqrt_det / angular_jacobian(coords[:, 1:])
    jet = f0.jet(coords)
    h = h_field.component_arrays(coords)
    pair_h = app.inner(h.val, adjoint_values(app, jet))
    reference = -float(np.sum(w * pair_h))
    lin_h = linearized_scalar_values(app, h)
    quotients = []
    for e in eps:
        gamma = PerturbedMetric(schw3, SymmetricTensorField(
            lambda c, order, e=e: h * e))
        diff = -(metric_apparatus(gamma, coords, level=2).scalar - app.scalar) * jet.val
        diff += e * (lin_h * jet.val - pair_h)
        quotients.append(float(np.sum(w * diff)) / e)
    errors = np.abs(np.asarray(quotients) - reference)
    # the order is the local one between the two smallest epsilons
    order = fit_log_slope(np.log(eps[-2:]), errors[-2:])
    assert rep.to_dict() == {"reference": reference, "epsilons": eps,
                             "quotients": quotients, "errors": list(errors),
                             "order": float(order), "exact_zero": False}


def test_first_variation_zero_field(rng, hyp3, quad16):
    V0 = static_potential(3, 0)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 50.0], [16, 32, 16, 16], quad16)
    zero = scaled(random_compact_tensor(rng, 3, 2.0, 6.0), 0.0)
    rep = first_variation_check(hyp3, V0, zero, [1e-2, 1e-3], rule)
    assert rep.exact_zero
    assert abs(rep.reference) < 1e-12


def test_first_variation_background_reference_zero(rng, hyp3, quad16):
    # L_b^* V_0 = 0: the reference vanishes and quotients sink to zero linearly
    V0 = static_potential(3, 0)
    rule = volume_rule(3, [0.1, 2.0, 6.0, 20.0, 200.0], [16, 48, 24, 24], quad16)
    h = random_compact_tensor(rng, 3, 2.0, 6.0, amplitude=0.5)
    rep = first_variation_check(hyp3, V0, h, [1e-2, 1e-3], rule)
    assert abs(rep.reference) < 1e-10
    assert rep.order >= 0.9


@pytest.fixture(scope="module")
def support_case():
    # the outer segment (4, 6) lies beyond the support (2, 4) of h
    rule = volume_rule(3, [1.5, 2.0, 4.0, 6.0], [3, 6, 3], sphere_rule(3, 4, 8))
    h = random_compact_tensor(np.random.default_rng(5), 3, 2.0, 4.0, amplitude=0.5)
    mask = (rule.coords[:, 0] >= 2.0) & (rule.coords[:, 0] <= 4.0)
    assert 0 < mask.sum() < rule.coords.shape[0]
    return rule, h, mask


def test_first_variation_support_matches_unrestricted(schw3, support_case):
    # the support nodes alone give the all-node result up to summation order
    rule, h, _ = support_case
    f0 = static_potential(3, 0)
    eps = [1e-2, 1e-3]
    rep = first_variation_check(schw3, f0, h, eps, rule)
    full = first_variation_check(schw3, f0, SymmetricTensorField(h.component_arrays),
                                 eps, rule)
    assert abs(rep.reference) > 1e-6
    assert abs(rep.reference - full.reference) <= 1e-12 * abs(full.reference)
    assert np.all(np.abs(rep.quotients - full.quotients)
                  <= 1e-12 * np.abs(full.quotients))


def test_first_variation_builds_level2_on_support_only(monkeypatch, schw3,
                                                       support_case):
    import ahmass.operators as ops
    rule, h, mask = support_case
    sizes = []

    def recording(spec, coords, level=2):
        if level >= 2:
            sizes.append(np.asarray(coords).shape[0])
        return metric_apparatus(spec, coords, level)

    monkeypatch.setattr(ops, "metric_apparatus", recording)
    first_variation_check(schw3, static_potential(3, 0), h, [1e-2, 1e-3], rule)
    assert len(sizes) == 3
    assert max(sizes) <= mask.sum()


@pytest.mark.parametrize("command, numeric, nodes", [
    ("duality-check", {"quad_polar": 6, "quad_azimuth": 12, "pairs": 10}, 72 * 32),
    ("first-variation", {"quad_polar": 6, "quad_azimuth": 12}, 72 * 48),
])
def test_linearization_is_built_once_per_node_block(tmp_path, monkeypatch, command,
                                                    numeric, nodes):
    # the L_g coefficients are built once per apparatus of g, whatever the
    # number of fields they are applied to, and never for an apparatus of
    # g + eps h, which only its scalar curvature is read from
    from ahmass import curvature, quadrature
    from ahmass.cli import run
    builds = []
    real = curvature._linearization_coefficients

    def counting(inv, *args):
        builds.append(inv.shape[0])
        return real(inv, *args)

    monkeypatch.setattr(curvature, "_linearization_coefficients", counting)
    config = {"command": command, "numeric": numeric,
              "metric": {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}}}
    assert run(config, out_dir=tmp_path) == 0
    blocks = -(-nodes // quadrature.NODE_BLOCK)
    assert blocks == 2
    assert sum(builds) == nodes and len(builds) == blocks
