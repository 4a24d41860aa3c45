"""Metric families, the background frame, and static potentials."""

import numpy as np
import pytest

from ahmass.chart import random_points
from ahmass.decay import estimate_decay_rate
from ahmass.metrics import (DomainError, HyperbolicMetric, SchwarzschildAdS,
                            frame_coefficients, frame_components, hyperbolic_metric,
                            metric_from_dict, schwarzschild_ads,
                            static_potential_basis)


def test_hyperbolic_components_closed_form():
    b = hyperbolic_metric(3)
    g = b.components([2.0, np.pi / 2, 0.0])[0]
    assert abs(g[0, 0] - 1.0 / 5.0) < 1e-15
    assert abs(g[0, 1]) == 0.0 and abs(g[0, 2]) == 0.0
    assert abs(g[1, 1] - 4.0) < 1e-15
    assert abs(g[2, 2] - 4.0 * np.sin(np.pi / 2) ** 2) < 1e-15


def test_hyperbolic_angular_block_at_unit_radius():
    b = hyperbolic_metric(4)
    th = (1.1, 0.8, 2.0)
    g = b.components([1.0, *th])[0]
    # r^2 h at r = 1 is the round 3-sphere block
    assert abs(g[1, 1] - 1.0) < 1e-15
    assert abs(g[2, 2] - np.sin(th[0]) ** 2) < 1e-15
    assert abs(g[3, 3] - np.sin(th[0]) ** 2 * np.sin(th[1]) ** 2) < 1e-15


def test_dimension_below_three_rejected():
    with pytest.raises(ValueError):
        hyperbolic_metric(2)
    with pytest.raises(ValueError):
        schwarzschild_ads(2, 1.0)


def test_schwarzschild_reduces_to_hyperbolic_at_zero_mass(rng):
    s0 = schwarzschild_ads(3, 0.0)
    b = hyperbolic_metric(3)
    pts = random_points(3, rng, 50)
    gs, dgs, ddgs = s0.component_jets(pts)
    gb, dgb, ddgb = b.component_jets(pts)
    assert np.array_equal(gs, gb)
    assert np.array_equal(dgs, dgb)
    assert np.array_equal(ddgs, ddgb)


def test_schwarzschild_grr_value():
    s = schwarzschild_ads(3, 0.5)
    g = s.components([10.0, 1.0, 1.0])[0]
    assert abs(g[0, 0] - 1.0 / 100.9) < 1e-15


def test_schwarzschild_horizon_rejected():
    s = schwarzschild_ads(3, 0.5)
    rh = s.horizon_radius
    assert 0.5 < rh < 0.8
    with pytest.raises(DomainError):
        s.components([rh * 0.9, 1.0, 1.0])


def test_frame_deviation_decay_exponent():
    # (1+r^2)(g_rr - b_rr) ~ 2m r^(-3): fitted exponent 3 +- 0.1 over [20, 200]
    s = schwarzschild_ads(3, 1.0)
    b = hyperbolic_metric(3)

    def deviation(coords):
        h = s.components(coords) - b.components(coords)
        return frame_components(h, coords)

    fit = estimate_decay_rate(deviation, np.geomspace(20, 200, 8), 3)
    assert abs(fit.fitted_exponent - 3.0) < 0.1


def test_positive_definite_and_symmetric(rng):
    for spec in (hyperbolic_metric(3), schwarzschild_ads(3, 0.5),
                 hyperbolic_metric(4), schwarzschild_ads(5, 1.0)):
        pts = random_points(spec.n, rng, 200, r_range=(1.5, 80.0))
        g = spec.components(pts)
        assert np.abs(g - g.swapaxes(1, 2)).max() == 0.0
        assert np.linalg.eigvalsh(g).min() > 0.0


def test_frame_coefficients_closed_forms():
    c = frame_coefficients([0.75, 1.0, 2.0])[0]
    assert abs(c[0] - 1.25) < 1e-15   # sqrt(1 + 9/16) = 5/4
    c = frame_coefficients([2.0, 1.0, 2.0])[0]
    assert abs(c[1] - 0.5) < 1e-15    # 1/r on the first angle


def test_frame_orthonormality_randomized(rng):
    b = hyperbolic_metric(3)
    pts = random_points(3, rng, 1000)
    gb = b.components(pts)
    for i in range(0, 1000, 97):
        frame = np.diag(frame_coefficients(pts[i])[0])   # row a: e_a in the chart basis
        gram = frame @ gb[i] @ frame.T
        assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_frame_components_of_background_is_identity(rng):
    b = hyperbolic_metric(3)
    pts = random_points(3, rng, 64)
    kappa = frame_components(b.components(pts), pts)
    assert np.abs(kappa - np.eye(3)).max() < 1e-12


def test_frame_components_scaling_law(rng):
    # A = r^(-2-q), B = C = 0  =>  kappa(e1,e1) = (1+r^2) r^(-2-q)
    q = 2.5
    pts = random_points(3, rng, 32)
    tensor = np.zeros((32, 3, 3))
    tensor[:, 0, 0] = pts[:, 0] ** (-2 - q)
    kappa = frame_components(tensor, pts)
    expected = (1 + pts[:, 0] ** 2) * pts[:, 0] ** (-2 - q)
    assert np.abs(kappa[:, 0, 0] - expected).max() < 1e-14
    assert np.abs(kappa[:, 1:, 1:]).max() == 0.0


def test_frame_components_deviation_value():
    s = schwarzschild_ads(3, 1.0)
    b = hyperbolic_metric(3)
    coords = np.array([[10.0, 1.0, 1.0]])
    h = s.components(coords) - b.components(coords)
    kappa = frame_components(h, coords)[0]
    assert abs(kappa[0, 0] - 101.0 * (1 / 100.8 - 1 / 101.0)) < 1e-15
    assert abs(kappa[0, 0] - 2.0 / 1008.0) < 1e-15


def test_static_potentials_closed_forms(rng):
    pts = random_points(3, rng, 100)
    r = pts[:, 0]
    th1, th2 = pts[:, 1], pts[:, 2]
    basis = static_potential_basis(3)
    values = [np.sqrt(1 + r ** 2),
              r * np.sin(th1) * np.sin(th2),
              r * np.sin(th1) * np.cos(th2),
              r * np.cos(th1)]
    for V, expect in zip(basis, values):
        scale = np.maximum(1.0, np.abs(expect))
        assert np.abs(V.value(pts) - expect).max() / scale.max() < 1e-14


def test_metric_from_dict_builds_family_and_rejects_bad_keys():
    spec = metric_from_dict({"family": "schwarzschild_ads", "n": 4, "params": {"m": 0.25}})
    assert isinstance(spec, SchwarzschildAdS) and (spec.n, spec.m) == (4, 0.25)
    assert isinstance(metric_from_dict({"family": "hyperbolic", "n": 3}), HyperbolicMetric)
    with pytest.raises(ValueError):
        metric_from_dict({"family": "nope", "n": 3, "params": {}})
    with pytest.raises(ValueError):
        metric_from_dict({"family": "hyperbolic", "n": 3, "params": {},
                          "extra": 1})


def test_conformal_and_perturbed_families_from_dict(rng):
    doc = {"family": "conformal", "n": 3,
           "params": {"base": {"family": "hyperbolic", "n": 3, "params": {}},
                      "profile": {"kind": "power_tail", "amp": 0.1,
                                  "rate": 2.0, "onset": 5.0}}}
    spec = metric_from_dict(doc)
    pts = random_points(3, rng, 30, r_range=(2.0, 60.0))
    g = spec.components(pts)
    assert np.linalg.eigvalsh(g).min() > 0
    # factor approaches 1 at infinity: components approach the background
    far = np.array([[500.0, 1.0, 1.0]])
    gb = hyperbolic_metric(3).components(far)
    diag = np.arange(3)
    ratio = spec.components(far)[0, diag, diag] / gb[0, diag, diag]
    assert np.abs(ratio - 1.0).max() < 1e-3

    doc = {"family": "perturbed", "n": 3,
           "params": {"base": {"family": "hyperbolic", "n": 3, "params": {}},
                      "perturbation": {"kind": "axis_bump",
                                       "axis": [0.0, 1.0, 0.0],
                                       "amp": 0.01, "rate": 2.5}}}
    spec = metric_from_dict(doc)
    assert spec.components(pts).shape == (30, 3, 3)
    assert spec.field.axis.tolist() == [0.0, 1.0, 0.0]

