"""Geodesic integration, transport, and the growth/decay classifier."""

import numpy as np

from ahmass.fields import ScalarField
from ahmass.geodesics import (axis_seed, classify_growth, integrate_geodesic,
                              integrate_geodesic_fan, seed_fan,
                              unit_radial_direction)
from ahmass.jets import Jet
from ahmass.metrics import hyperbolic_metric, static_potential, static_potential_basis


def comparability(sample):
    """max(r e^(-t), e^t / r) along a geodesic sample: finite when its chart
    radius r is comparable to e^t."""
    ratio = sample.coords[:, 0] * np.exp(-sample.ts)
    return float(max(np.max(ratio), np.max(1.0 / ratio)))


def test_radial_geodesic_closed_form(hyp3, gram_drift):
    p0 = axis_seed(3)
    g = integrate_geodesic(hyp3, p0, unit_radial_direction(hyp3, p0), T=10.0)
    expected = np.sinh(g.ts + np.arcsinh(p0[0]))
    assert np.abs(g.coords[:, 0] / expected - 1.0).max() < 1e-10
    assert gram_drift(hyp3, g) < 1e-8
    assert np.isfinite(comparability(g))


def test_geodesic_reversal(hyp3, schw3):
    for spec in (hyp3, schw3):
        p0 = axis_seed(3)
        fwd = integrate_geodesic(spec, p0, unit_radial_direction(spec, p0), T=6.0)
        back = integrate_geodesic(spec, fwd.coords[-1], -fwd.velocities[-1], T=6.0)
        assert np.abs(back.coords[-1] - p0).max() < 1e-6


def test_static_family_distance_comparison(schw3, gram_drift):
    # |t - arcsinh|gamma|| stays bounded, consistent with e^t comparability
    p0 = axis_seed(3)
    g = integrate_geodesic(schw3, p0, unit_radial_direction(schw3, p0), T=10.0)
    dev = g.ts - (np.arcsinh(g.coords[:, 0]) - np.arcsinh(p0[0]))
    assert np.abs(dev).max() < 0.1
    assert comparability(g) < 5.0
    assert gram_drift(schw3, g) < 1e-8


def test_fan_matches_single(hyp3):
    seeds = seed_fan(3, 4)
    dirs = np.stack([unit_radial_direction(hyp3, p) for p in seeds])
    fan = integrate_geodesic_fan(hyp3, seeds, dirs, T=4.0)
    single = integrate_geodesic(hyp3, seeds[2], dirs[2], T=4.0)
    assert np.abs(fan[2].coords - single.coords).max() < 1e-9


def _orthonormal_frame(spec, point, vectors):
    """Gram-Schmidt of ``vectors`` in the metric at ``point``."""
    g = spec.components(point[None])[0]
    frame = []
    for w in vectors:
        for u in frame:
            w = w - (u @ g @ w) * u
        frame.append(w / np.sqrt(w @ g @ w))
    return np.stack(frame)


def test_fan_with_carried_frames_matches_single(schw3, gram_drift):
    # generic directions and 2-frames: each seed of the batched frame moves as
    # it does alone; the fan's shared step sequence differs from a lone seed's,
    # so agreement is at the integrator tolerance (rtol = atol = 1e-12)
    rng = np.random.default_rng(3)
    seeds = seed_fan(3, 4)[:3]
    frames = np.stack([_orthonormal_frame(schw3, p, rng.normal(size=(3, 3)))
                       for p in seeds])
    fan = integrate_geodesic_fan(schw3, seeds, frames[:, 0], T=2.0,
                                 transported=frames[:, 1:])
    for s, sample in enumerate(fan):
        single = integrate_geodesic(schw3, seeds[s], frames[s, 0], T=2.0,
                                    transported=frames[s, 1:])
        for name in ("coords", "velocities", "transported"):
            got, want = getattr(sample, name), getattr(single, name)
            assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()
        assert sample.transported.shape == (sample.ts.size, 2, 3)
        assert gram_drift(schw3, sample) < 1e-8


def test_transported_angular_vector_closed_form(hyp3, gram_drift):
    # Gamma^theta_{r theta} = 1/r: along the radial geodesic the unit angular
    # vector e_theta / r stays (0, 1/r(t), 0), with r(t) = sinh(t + asinh 2)
    p0 = axis_seed(3)
    g = integrate_geodesic(hyp3, p0, unit_radial_direction(hyp3, p0), T=10.0,
                           transported=np.array([[0.0, 1.0 / p0[0], 0.0]]))
    r = np.sinh(g.ts + np.arcsinh(p0[0]))
    expected = np.column_stack([np.zeros_like(r), 1.0 / r, np.zeros_like(r)])
    assert (np.abs(g.transported[:, 0] - expected).max(axis=1) * r).max() < 1e-10
    assert gram_drift(hyp3, g) < 1e-8


def test_fan_evaluates_the_metric_only_in_its_right_hand_side(monkeypatch):
    # every metric evaluation of a fan integration is one right-hand-side call
    # on the whole fan: no per-seed evaluation after the solve
    spec = hyperbolic_metric(3)
    seeds = seed_fan(3, 4)
    dirs = np.stack([unit_radial_direction(spec, p) for p in seeds])
    calls = {"components": 0, "component_jets": []}
    components, component_jets = spec.components, spec.component_jets

    def counted_components(point):
        calls["components"] += 1
        return components(point)

    def counted_jets(coords, order=2):
        calls["component_jets"].append(np.shape(coords)[0])
        return component_jets(coords, order)

    monkeypatch.setattr(spec, "components", counted_components)
    monkeypatch.setattr(spec, "component_jets", counted_jets)
    integrate_geodesic_fan(spec, seeds, dirs, T=4.0)
    assert calls["components"] == 0
    assert calls["component_jets"] and set(calls["component_jets"]) == {len(seeds)}


def radial_fan(spec, seeds, T):
    dirs = np.stack([unit_radial_direction(spec, p) for p in seeds])
    return integrate_geodesic_fan(spec, seeds, dirs, T)


def test_growth_classification_of_potentials(hyp3):
    seeds = seed_fan(3, 64)
    assert len(seeds) == 64
    fan = radial_fan(hyp3, seeds, 9.0)
    for V in static_potential_basis(3):
        cls = classify_growth(V, fan)
        grown = [c for c in cls if c.label == "linear-growth"]
        assert len(grown) >= 1
        for c in grown:
            assert 0.8 <= c.slope <= 1.2


def test_decaying_combination_along_axis(hyp3):
    V0, x1 = static_potential(3, 0), static_potential(3, 1)
    diff = ScalarField(lambda c, order: V0.jet(c, order) - x1.jet(c, order))
    cls = classify_growth(diff, radial_fan(hyp3, axis_seed(3)[None], 9.0))
    assert cls[0].label == "decay"
    assert abs(cls[0].decay_rate - 1.0) < 0.05


def test_vanishing_field_labels_infinite_decay(hyp3):
    zero = ScalarField(lambda c, order: static_potential(3, 0).jet(c, order) * 0.0)
    cls = classify_growth(zero, radial_fan(hyp3, axis_seed(3)[None], 6.0))
    assert cls[0].label == "decay"
    assert cls[0].decay_rate == np.inf


def test_decaying_radial_solution_classifies_decay(hyp3):
    # the decaying branch of the radial eigenvalue equation Lap u = 3 u on the
    # background behaves like r^(-3); integrate it inward from indicial data
    # (stable direction) and classify the resulting field along the fan
    from scipy.integrate import solve_ivp

    r_hi = 60000.0

    def rhs(r, y):
        u, du = y
        return [du, (3.0 * u - (2.0 * (1 + r ** 2) / r + r) * du) / (1 + r ** 2)]

    out = solve_ivp(rhs, (r_hi, 0.5), [r_hi ** -3, -3.0 * r_hi ** -4],
                    method="DOP853", rtol=1e-10, atol=1e-30, dense_output=True)
    assert out.success

    field = ScalarField(lambda c, order: Jet(out.sol(c[:, 0])[0], np.zeros_like(c),
                                             np.zeros((c.shape[0], 3, 3))))
    cls = classify_growth(field, radial_fan(hyp3, seed_fan(3, 9), 8.0))
    for c in cls:
        assert c.label == "decay"
        assert abs(c.decay_rate - 3.0) < 0.2
