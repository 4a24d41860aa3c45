"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; reference constants come
from docs/oracles.md.
"""

import json

import numpy as np

from ahmass.chart import random_points
from ahmass.curvature import metric_apparatus
from ahmass.fields import (CompactBasis, ScalarField, power_tail_profile,
                           random_compact_scalar, random_compact_tensor)
from ahmass.geodesics import (axis_seed, classify_growth, integrate_geodesic,
                              integrate_geodesic_fan, seed_fan,
                              unit_radial_direction)
from ahmass.massflux import mass_vector, prop27_check
from ahmass.metrics import (hyperbolic_metric, schwarzschild_ads,
                            static_potential, static_potential_basis)
from ahmass.odes import (ODEProblem, build_decaying_solution, fundamental_pair,
                         particular_solution, solve_second_order)
from ahmass.operators import (duality_residual, first_variation_check,
                              static_residual, trace_identity_gap)
from ahmass.quadrature import sphere_rule, volume_rule
from ahmass.radial import conformal_deform_radial, radial_eigenfunction
from ahmass.rigidity import sectional_ode_check, wang_identity_check, warped_fixture

SLOPE_ORACLE = 16.0 * np.pi   # p_0 / m for the n = 3 static family


def report(number, text):
    print(f"\n[criterion {number:2d}] PASS - {text}")


# -- 1 ---------------------------------------------------------------------------

def test_criterion_01_model_space_exactness(quad48):
    rng = np.random.default_rng(1)
    mv = mass_vector(hyperbolic_metric(3), np.geomspace(20, 200, 8), quad48)
    assert np.array_equal(mv.p, np.zeros(4))
    assert mv.defect == 0.0
    worst = 0.0
    for n in (3, 4, 5):
        pts = random_points(n, rng, 1000)
        scal = metric_apparatus(hyperbolic_metric(n), pts, level=2).scalar
        worst = max(worst, float(np.abs(scal + n * (n - 1)).max()))
        assert np.abs(scal + n * (n - 1)).max() < 1e-8
    report(1, f"mass vector identically zero; model scalar curvature within "
              f"{worst:.2e} of -n(n-1) at 1000 points for n in 3..5")


# -- 2 ---------------------------------------------------------------------------

def test_criterion_02_static_potential_residuals():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (3, 4):
        b = hyperbolic_metric(n)
        pts = random_points(n, rng, 400)
        for V in static_potential_basis(n):
            rep = static_residual(b, V, pts)
            worst = max(worst, rep.hessian_sup, rep.laplacian_sup)
            assert rep.hessian_sup < 1e-8
            assert rep.laplacian_sup < 1e-8
    report(2, f"Hessian and eigenvalue residuals of all background potentials "
              f"below {worst:.2e} (tolerance 1e-8)")


# -- 3 ---------------------------------------------------------------------------

def test_criterion_03_mass_consistency(quad48):
    ladder = np.geomspace(20, 200, 8)
    masses = np.array([0.25, 0.5, 1.0])
    p0 = []
    for m in masses:
        mv = mass_vector(schwarzschild_ads(3, m), ladder, quad48)
        p0.append(mv.p[0])
        assert np.abs(mv.p[1:]).max() < 1e-4
    slope = float(np.polyfit(masses, p0, 1)[0])
    assert abs(slope - SLOPE_ORACLE) < 0.01 * SLOPE_ORACLE
    rep = prop27_check(schwarzschild_ads(3, 0.5), static_potential(3, 0),
                       ladder, quad48)
    assert rep.passed and rep.relative_gap < 0.01
    report(3, f"p_0(m) slope {slope:.6f} vs oracle {SLOPE_ORACLE:.6f} "
              f"(rel err {abs(slope/SLOPE_ORACLE-1):.2e}); curvature-flux "
              f"agreement rel gap {rep.relative_gap:.2e}")


# -- 4 ---------------------------------------------------------------------------

def test_criterion_04_adjoint_duality():
    rng = np.random.default_rng(4)
    rule = volume_rule(3, [2.0, 6.0], [32], sphere_rule(3, 12, 24))
    worst = 0.0
    basis = CompactBasis(rule.coords, (2.0, 6.0))
    for spec in (hyperbolic_metric(3), schwarzschild_ads(3, 0.5)):
        pairs = []
        for _ in range(50):
            h = random_compact_tensor(rng, 3, 2.0, 6.0)
            u = random_compact_scalar(rng, 2.0, 6.0, 3)
            pairs.append((basis.node_jets(h), basis.node_jets(u)))
        residuals = duality_residual(spec, pairs, rule)
        worst = max(worst, *residuals)
        assert max(residuals) < 1e-6
    report(4, f"50 randomized integration-by-parts pairs on both metrics: "
              f"max residual {worst:.2e} (tolerance 1e-6)")


# -- 5 ---------------------------------------------------------------------------

def test_criterion_05_trace_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    pts = random_points(3, rng, 150, r_range=(2.1, 5.9))
    for spec in (hyperbolic_metric(3), schwarzschild_ads(3, 0.5)):
        for _ in range(5):
            u = random_compact_scalar(rng, 2.0, 6.0, 3)
            gap = trace_identity_gap(spec, u, pts).max()
            worst = max(worst, float(gap))
            assert gap < 1e-8
    report(5, f"conformal-direction trace identity pointwise within "
              f"{worst:.2e} (tolerance 1e-8)")


# -- 6 ---------------------------------------------------------------------------

def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _random_problem(rng, horizon, with_forcing=False):
    a_p = rng.uniform(-0.5, 0.5)
    a_q = rng.uniform(-0.8, 0.8)
    a_f = rng.uniform(-1.0, 1.0) if with_forcing else 0.0
    d = rng.uniform(0.4, 2.5)
    w_p, w_q = rng.uniform(0.5, 3.0, size=2)
    c0 = max(abs(a_p), abs(a_q), abs(a_f)) + 1e-9
    return ODEProblem(
        p=lambda t: a_p * np.exp(-d * t) * np.cos(w_p * t),
        q=lambda t: a_q * np.exp(-d * t) * np.sin(w_q * t + 0.3),
        f=(lambda t: a_f * np.exp(-d * t)) if with_forcing else _zero,
        horizon=horizon, bounds=(c0, d))


def test_criterion_06_ode_growth_decay_structure():
    rng = np.random.default_rng(6)
    horizon = 10.0
    t = np.linspace(0.0, horizon, 600)
    t_pos = t[t > 0.02]
    for k in range(200):
        prob = _random_problem(rng, horizon)
        prob.validate()
        # (1) at most one zero
        u = solve_second_order(prob, rng.uniform(-1, 1), rng.uniform(-1, 1))
        vals = u.at(t)[0]
        signs = np.sign(vals[np.abs(vals) > 1e-12])
        assert np.count_nonzero(np.diff(signs) != 0) <= 1
        # (2) comparison
        u0, du0 = rng.uniform(0.1, 1.5), rng.uniform(-0.5, 1.0)
        hi = solve_second_order(prob, u0, du0)
        lo = solve_second_order(prob, u0 - 0.05, du0 - 0.05)
        assert np.all(hi.at(t_pos)[0] > lo.at(t_pos)[0])
        assert np.all(hi.at(t_pos)[1] > lo.at(t_pos)[1])
        # (3) positive decreasing decaying branch (every 10th problem: costly)
        if k % 10 == 0:
            u2, du2 = build_decaying_solution(prob).on_grid
            assert np.all(u2 > 0) and np.all(du2 < 0)

    # certificates: finite and horizon-stable on a randomized subsample
    for _ in range(10):
        a_p = rng.uniform(-0.4, 0.4)
        a_q = rng.uniform(-0.6, 0.6)
        d = rng.uniform(0.5, 2.0)
        c0 = max(abs(a_p), abs(a_q)) + 1e-9

        def make(T):
            return ODEProblem(p=lambda t: a_p * np.exp(-d * t),
                              q=lambda t: a_q * np.exp(-d * t), f=_zero,
                              horizon=T, bounds=(c0, d))

        c10 = fundamental_pair(make(10.0)).C_certificate
        c20 = fundamental_pair(make(20.0)).C_certificate
        assert np.isfinite(c10) and np.isfinite(c20)
        assert 0.5 <= c20 / c10 <= 2.0

    # forced remainders
    fits = []
    for d in (0.5, 2.0):
        prob = ODEProblem(p=_zero, q=_zero, f=lambda t, d=d: np.exp(-d * t),
                          horizon=25.0, bounds=(1.0, d))
        rep = particular_solution(prob, fundamental_pair(prob))
        fits.append(rep.fitted_decay)
        assert abs(rep.fitted_decay - d) / d < 0.10
    prob = ODEProblem(p=_zero, q=_zero, f=lambda t: np.exp(-t), horizon=25.0,
                      bounds=(1.0, 1.0))
    rep = particular_solution(prob, fundamental_pair(prob))
    assert rep.profile_residual < 0.05
    report(6, f"200 randomized problems satisfy the zero/comparison/decay "
              f"properties; certificates horizon-stable; forced remainders "
              f"fit d in {{0.5, 2}} as {fits[0]:.3f}, {fits[1]:.3f} and the "
              f"resonant profile residual is {rep.profile_residual:.3f}")


# -- 7 ---------------------------------------------------------------------------

def test_criterion_07_dichotomy():
    b = hyperbolic_metric(3)
    seeds = seed_fan(3, 64)
    dirs = np.stack([unit_radial_direction(b, p) for p in seeds])
    fan = integrate_geodesic_fan(b, seeds, dirs, 9.0)
    counts = []
    for V in static_potential_basis(3):
        cls = classify_growth(V, fan)
        grown = sum(1 for c in cls if c.label == "linear-growth")
        counts.append(grown)
        assert grown >= 1
    V0, x1 = static_potential(3, 0), static_potential(3, 1)
    diff = ScalarField(lambda c, order: V0.jet(c, order) - x1.jet(c, order))
    axis = axis_seed(3)[None]
    cls = classify_growth(diff, integrate_geodesic_fan(
        b, axis, unit_radial_direction(b, axis[0])[None], 9.0))
    assert cls[0].label == "decay"
    report(7, f"each background potential grows linearly on "
              f"{min(counts)}..{max(counts)} of 64 seeds; the difference "
              f"combination decays along its axis at rate "
              f"{cls[0].decay_rate:.3f}")


# -- 8 ---------------------------------------------------------------------------

def test_criterion_08_rigidity_identities():
    rng = np.random.default_rng(8)
    b = hyperbolic_metric(3)
    quad = sphere_rule(3, 16, 32)
    worst_gap = 0.0
    for r in (5.0, 10.0, 20.0):
        rep = wang_identity_check(b, static_potential(3, 0), r, quad=quad,
                                  radial_nodes=48)
        worst_gap = max(worst_gap, rep.gap)
        assert rep.gap < 1e-8
    fx = warped_fixture("round_sphere", 3)
    pts = np.column_stack([rng.uniform(-3, 3, 200), rng.uniform(0.3, 2.8, 200),
                           rng.uniform(0.0, 2 * np.pi, 200)])
    defect = fx.hessian_defect(pts)
    assert defect < 1e-8
    p0 = np.array([0.5, 1.1, 0.7])
    g0 = fx.metric.components(p0[None])[0]
    frame = np.stack([np.array([0.0, 1.0 / np.sqrt(g0[1, 1]), 0.0]),
                      np.array([0.0, 0.0, 1.0 / np.sqrt(g0[2, 2])])])
    geo = integrate_geodesic(fx.metric, p0, np.array([1.0, 0.0, 0.0]), T=2.5,
                             sample_step=0.01, transported=frame)
    srep = sectional_ode_check(fx.metric, fx.potential, geo)
    assert srep.rho_ode_residual < 1e-5
    assert srep.K_ode_residual < 1e-5
    rho_gap = float(np.abs(srep.rho - np.tanh(geo.ts + 0.5)).max())
    assert rho_gap < 1e-6
    report(8, f"boundary-flux identity gap {worst_gap:.2e} (tol 1e-8); warped "
              f"Hessian defect {defect:.2e}; curvature-evolution residuals "
              f"{srep.rho_ode_residual:.2e}/{srep.K_ode_residual:.2e} "
              f"(tol 1e-5); tanh profile gap {rho_gap:.2e} (tol 1e-6)")


# -- 9 ---------------------------------------------------------------------------

def test_criterion_09_first_variation(quad16):
    rng = np.random.default_rng(9)
    eps = [3e-2, 1e-2, 3e-3, 1e-3]
    orders = []
    # every term vanishes outside the support (2, 6) of h, so the rule spans it alone
    rule = volume_rule(3, [2.0, 6.0], [32], quad16)
    basis = CompactBasis(rule.coords, (2.0, 6.0))
    for spec in (hyperbolic_metric(3), schwarzschild_ads(3, 0.5)):
        f = radial_eigenfunction(spec).potential
        h = random_compact_tensor(rng, 3, 2.0, 6.0, amplitude=0.5)
        rep = first_variation_check(spec, f, basis.node_jets(h), eps, rule)
        orders.append(rep.order)
        assert rep.exact_zero or rep.order >= 0.9
    report(9, f"difference quotients of the functional converge to the "
              f"adjoint pairing at orders {orders[0]:.2f} and {orders[1]:.2f} "
              f"(required >= 0.9)")


# -- 10 --------------------------------------------------------------------------

def test_criterion_10_scalar_curvature_deformation():
    prof = power_tail_profile(0.05, 2.0)
    phi = lambda r: prof(np.asarray(r, dtype=float))[0]
    rep = conformal_deform_radial(hyperbolic_metric(3), phi, 2.0, r_hi=150.0)
    assert rep.linear_residual < 1e-6
    assert len(rep.contraction_ratios) == 3
    for ratio in rep.contraction_ratios:
        assert ratio <= 0.1
    report(10, f"conformal-direction solve residual {rep.linear_residual:.2e} "
               f"(tol 1e-6); Newton contraction ratios "
               f"{', '.join(f'{c:.2e}' for c in rep.contraction_ratios)} "
               f"(each <= 0.1)")


# -- 11 --------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    from ahmass.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "mass",
        "metric": {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}},
        "numeric": {"seed": 123, "quad_polar": 24, "quad_azimuth": 48}}))
    out = tmp_path / "out"
    assert main(["mass", "--config", str(cfg), "--out", str(out)]) == 0
    blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
             if not p.name.endswith("meta.json")}
    assert main(["mass", "--config", str(cfg), "--out", str(out)]) == 0
    for p in sorted(out.iterdir()):
        if p.name.endswith("meta.json"):
            continue
        assert p.read_bytes() == blobs[p.name], f"{p.name} not byte-identical"
    report(11, f"rerun with identical config reproduced "
               f"{len(blobs)} report/CSV files byte-for-byte")
