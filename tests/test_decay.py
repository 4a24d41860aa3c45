"""Decay-rate fits and sampled asymptotic verification."""

import numpy as np
import pytest

from ahmass.decay import estimate_decay_rate, fit_log_slope, verify_ah
from ahmass.fields import AxisConcentratedPerturbation, SchemaError
from ahmass.metrics import (PerturbedMetric, frame_components,
                            hyperbolic_metric, schwarzschild_ads)

LADDER = np.geomspace(20.0, 200.0, 8)


def test_pure_power_law():
    fit = estimate_decay_rate(lambda c: c[:, 0] ** -2.0, LADDER, 3)
    assert abs(fit.fitted_exponent - 2.0) < 0.01


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_scale_invariance(q, scale):
    fit = estimate_decay_rate(lambda c: scale * c[:, 0] ** -q, LADDER, 3)
    assert abs(fit.fitted_exponent - q) < 1e-2


def test_exact_zero_field():
    fit = estimate_decay_rate(lambda c: np.zeros(c.shape[0]), LADDER, 3)
    assert fit.exact_zero
    assert fit.fitted_exponent == np.inf


def test_ladder_validation():
    # the one radius-ladder rule, fields.radius_ladder
    with pytest.raises(SchemaError, match="at least 3 radii"):
        estimate_decay_rate(lambda c: c[:, 0], [10.0, 20.0], 3)
    with pytest.raises(SchemaError, match="one decade"):
        estimate_decay_rate(lambda c: c[:, 0], [10.0, 20.0, 30.0], 3)


def test_static_family_deviation_exponent():
    s = schwarzschild_ads(3, 1.0)
    b = hyperbolic_metric(3)

    def deviation(coords):
        return frame_components(s.components(coords) - b.components(coords),
                                coords)

    fit = estimate_decay_rate(deviation, LADDER, 3)
    assert abs(fit.fitted_exponent - 3.0) < 0.1


def test_verify_ah_background_trivial():
    rep = verify_ah(hyperbolic_metric(3), 2.5, LADDER)
    assert rep.passed
    assert all(c.exact_zero for c in rep.conditions)
    assert not rep.borderline


def test_verify_ah_static_family_borderline():
    rep = verify_ah(schwarzschild_ads(3, 0.5), 3.0, LADDER)
    assert rep.passed
    assert rep.borderline
    by_name = {c.name: c for c in rep.conditions}
    assert abs(by_name["metric_deviation"].fitted_exponent - 3.0) < 0.15
    assert by_name["scalar_curvature"].exact_zero


def test_verify_ah_detects_slow_decay():
    # a frame bump decaying like r^(-1) fails the claim q = 2 for n = 3
    slow = AxisConcentratedPerturbation(3, [1.0, 0, 0], amp=1e-2, rate=1.0,
                                        width=2.0)
    spec = PerturbedMetric(hyperbolic_metric(3), slow)
    rep = verify_ah(spec, 2.0, LADDER)
    by_name = {c.name: c for c in rep.conditions}
    assert not by_name["metric_deviation"].passed
    assert not rep.passed


def test_q_claim_window():
    with pytest.raises(ValueError):
        verify_ah(hyperbolic_metric(3), 1.2, LADDER)
    with pytest.raises(ValueError):
        verify_ah(hyperbolic_metric(3), 3.5, LADDER)


def test_fit_log_slope():
    r = np.geomspace(10, 100, 6)
    assert abs(fit_log_slope(np.log(r), 5.0 * r ** -1.5) + 1.5) < 1e-12


@pytest.mark.parametrize("x", [1e-3, 0.5, 7.0])
def test_fit_log_slope_rejects_a_rank_deficient_fit(x):
    # two abscissae the least-squares solve cannot tell apart leave no slope;
    # the fit raises instead of warning through numpy's filters
    values = [2.0, 3.0]
    for xs in ([x, x], [x, np.nextafter(x, np.inf)]):
        with pytest.raises(ArithmeticError, match="cannot fit a rate"):
            fit_log_slope(xs, values)
    xs = np.log([x, 2.0 * x, 5.0 * x])
    ys = [4.0, 1.5, 1e-320]
    assert fit_log_slope(xs, ys) == np.polyfit(
        xs, np.log(np.maximum(ys, 1e-300)), 1)[0]
