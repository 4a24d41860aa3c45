"""Radial eigenfunctions and the conformal scalar-curvature deformation."""

import numpy as np
import pytest

from ahmass.fields import AxisConcentratedPerturbation, power_tail_profile
from ahmass.metrics import (ConformalMetric, PerturbedMetric, hyperbolic_metric,
                            inner_truncation_radius, schwarzschild_ads,
                            static_potential)
from ahmass.radial import (NEWTON_STEPS, conformal_deform_radial,
                           radial_eigenfunction, scalar_curvature_profile,
                           shooting_radial_solve, solve_radial_bvp)


def test_background_eigenfunction_is_exact(hyp3):
    rep = radial_eigenfunction(hyp3)
    assert rep.residual_sup < 1e-9
    # the correction f - V_0 vanishes: f is the background's V_0 = sqrt(1 + r^2)
    r = np.geomspace(0.2, 150.0, 50)
    coords = np.column_stack([r, np.full(r.size, np.pi / 2), np.zeros(r.size)])
    correction = rep.potential.value(coords) - static_potential(3, 0).value(coords)
    assert np.abs(correction).max() < 1e-10
    assert rep.positive


def test_static_family_eigenfunction(schw3):
    rep = radial_eigenfunction(schw3)
    assert rep.residual_sup < 1e-7
    assert rep.decay_exponent >= 1.8
    assert rep.positive
    assert not rep.flags


def test_eigenfunction_shooting_cross_check(schw3):
    # independent linear-shooting solve of the same boundary value problem
    n = 3
    r_lo = inner_truncation_radius(schw3)
    r_hi = 200.0
    from ahmass.radial import radial_operator_coefficients
    coeffs = radial_operator_coefficients(schw3)

    def rho(r):
        r = np.asarray(r, dtype=float)
        s = np.sqrt(1 + r ** 2)
        inv_gr, B = coeffs(r)
        return inv_gr / s ** 3 + B * (r / s) - n * s

    colloc = solve_radial_bvp(schw3, lambda r: -rho(r),
                              lambda r: -float(n) * np.ones_like(r),
                              2.0, r_lo, r_hi)
    shoot = shooting_radial_solve(schw3, lambda r: -rho(r),
                                  lambda r: -float(n) * np.ones_like(r),
                                  2.0, r_lo, r_hi)
    r = np.geomspace(r_lo * 1.05, r_hi * 0.95, 60)
    assert np.abs(colloc.value(r) - shoot(r)).max() < 1e-6


def test_deformation_trivial_target(hyp3):
    rep = conformal_deform_radial(hyp3, lambda r: np.zeros_like(np.asarray(r)),
                                  2.0)
    r = np.geomspace(0.2, 100.0, 40)
    assert np.abs(rep.solution.value(r)).max() < 1e-12
    assert rep.linear_residual < 1e-10


def test_deformation_power_tail(hyp3):
    prof = power_tail_profile(0.05, 2.0)
    phi = lambda r: prof(np.asarray(r, dtype=float))[0]
    rep = conformal_deform_radial(hyp3, phi, 2.0, r_hi=150.0)
    assert rep.linear_residual < 1e-6
    assert abs(rep.solution_decay - 2.0) < 0.35
    assert len(rep.contraction_ratios) == 3
    for ratio in rep.contraction_ratios:
        assert ratio <= 0.1
    assert rep.newton_residuals[-1] < 1e-9


def test_deformation_builds_base_scalar_spline_once(hyp3, monkeypatch):
    # one spline of R_g for the first solve and the Newton target, then one
    # per later Newton step for the deformed metric
    import ahmass.radial as radial
    built = []

    def counted(spec, r_lo, r_hi):
        built.append(spec)
        return scalar_curvature_profile(spec, r_lo, r_hi)

    monkeypatch.setattr(radial, "scalar_curvature_profile", counted)
    prof = power_tail_profile(0.05, 2.0)
    conformal_deform_radial(hyp3, lambda r: prof(np.asarray(r, dtype=float))[0],
                            2.0, r_hi=150.0)
    assert len(built) == NEWTON_STEPS and built[0] is hyp3
    assert all(spec is not hyp3 for spec in built[1:])


def test_deformation_rejects_bad_decay(hyp3):
    phi = lambda r: np.asarray(r, dtype=float) ** -4.0
    with pytest.raises(ValueError):
        conformal_deform_radial(hyp3, phi, 4.0)
    with pytest.raises(ValueError):
        conformal_deform_radial(hyp3, phi, -1.5)


def test_horizon_aware_truncation():
    s = schwarzschild_ads(3, 0.5)
    assert inner_truncation_radius(s) > s.horizon_radius
    assert inner_truncation_radius(hyperbolic_metric(3)) == 0.1


def test_derived_families_take_chart_and_horizon_from_their_base():
    s = schwarzschild_ads(3, 0.5)
    profile = power_tail_profile(0.05, 3.0) + 1.0
    perturbed = PerturbedMetric(s, AxisConcentratedPerturbation(3, [1.0, 0.0, 0.0]))
    for spec in (ConformalMetric(s, profile), perturbed,
                 ConformalMetric(perturbed, profile)):
        assert spec.n == 3
        assert spec.horizon_radius == s.horizon_radius
        assert inner_truncation_radius(spec) == 1.3 * s.horizon_radius
    assert ConformalMetric(hyperbolic_metric(3), profile).horizon_radius == 0.0
