"""Curvature tensors and covariant calculus against model-space values."""

import numpy as np
import pytest

from ahmass import curvature
from ahmass.chart import random_points
from ahmass.cli import run
from ahmass.curvature import (DegenerateMetricError, covariant_hessian, metric_apparatus,
                              nabla2_2tensor, nabla_2tensor, riemann_symmetry_defects)
from ahmass import jets as J
from ahmass.fields import SymmetricTensorField, random_compact_tensor
from ahmass.metrics import (PerturbedMetric, WarpedProductMetric, hyperbolic_metric,
                            metric_from_dict, schwarzschild_ads, static_potential,
                            static_potential_basis)
from ahmass.operators import linearized_scalar_values


@pytest.mark.parametrize("n", [3, 4, 5])
def test_model_scalar_and_ricci(rng, n):
    b = hyperbolic_metric(n)
    pts = random_points(n, rng, 300)
    app = metric_apparatus(b, pts, level=2)
    assert np.abs(app.scalar + n * (n - 1)).max() < 1e-8
    assert np.abs(app.ricci + (n - 1) * app.g).max() < 1e-8


def test_static_family_scalar_curvature():
    # independent symbolic derivation: R = -6 for every m (docs/oracles.md)
    s = schwarzschild_ads(3, 0.5)
    for r in (5.0, 10.0, 20.0):
        app = metric_apparatus(s, [r, 1.2, 0.4], level=2)
        assert abs(app.scalar[0] + 6.0) < 1e-6


def test_riemann_symmetries(rng, hyp3, schw3):
    for spec in (hyp3, schw3):
        pts = random_points(3, rng, 100, r_range=(2.0, 40.0))
        app = metric_apparatus(spec, pts, level=2)
        scale = max(1.0, np.abs(app.riemann).max())
        a2, bianchi = riemann_symmetry_defects(app.riemann)
        # first-pair antisymmetry holds by construction; assert it on the array
        a1 = np.abs(app.riemann + np.einsum("pjkli->pkjli", app.riemann)).max()
        assert a1 / scale < 1e-10
        assert a2 / scale < 1e-10
        assert bianchi / scale < 1e-10
        assert np.abs(app.ricci - app.ricci.swapaxes(1, 2)).max() / scale < 1e-10


def test_sectional_sign_convention():
    # K(X ^ Y) = R(X, Y, Y, X) must be -1 on the model space
    b = hyperbolic_metric(3)
    pts = np.array([[2.0, 1.1, 0.7]])
    app = metric_apparatus(b, pts, level=2)
    X = np.array([[0.0, 1.0, 0.0]]) / np.sqrt(app.g[:, 1, 1])[:, None]
    Y = np.array([[0.0, 0.0, 1.0]]) / np.sqrt(app.g[:, 2, 2])[:, None]
    K = np.einsum("pkjli,pk,pj,pl,pi->p", app.riemann, X, Y, Y, X)
    assert abs(K[0] + 1.0) < 1e-12


def test_hessian_of_static_potentials(rng, hyp3):
    pts = random_points(3, rng, 200)
    gb = hyp3.components(pts)
    app = metric_apparatus(hyp3, pts, level=1)
    for V in static_potential_basis(3):
        resid = covariant_hessian(app, V.jet(pts)) - V.value(pts)[:, None, None] * gb
        assert np.abs(resid).max() < 1e-9


def test_hessian_of_constant_vanishes(rng, schw3):
    from ahmass.fields import constant_profile
    pts = random_points(3, rng, 50, r_range=(2.0, 30.0))
    app = metric_apparatus(schw3, pts, level=1)
    assert np.abs(covariant_hessian(app, constant_profile(2.5).as_field().jet(pts))).max() == 0.0


def test_laplacian_eigenvalue(rng, hyp3):
    pts = random_points(3, rng, 200)
    V0 = static_potential(3, 0)
    app = metric_apparatus(hyp3, pts, level=1)
    lap = app.trace(covariant_hessian(app, V0.jet(pts)))
    assert np.abs(lap - 3 * V0.value(pts)).max() < 1e-8


def test_divergence_and_trace_of_metric(rng, hyp3, schw3):
    for spec in (hyp3, schw3):
        pts = random_points(3, rng, 80, r_range=(2.0, 30.0))
        app = metric_apparatus(spec, pts, level=1)
        g, dg, _ = spec.component_jets(pts)
        div = np.einsum("pik,pikj->pj", app.inv, nabla_2tensor(app.gamma, g, dg))
        assert np.abs(div).max() < 1e-10
        assert np.abs(app.trace(g) - 3.0).max() < 1e-12


def test_einstein_combination_of_model_vanishes(rng, hyp3):
    # T = Ric_b + (n-1) b is identically zero: divergence and trace vanish
    pts = random_points(3, rng, 50)
    app = metric_apparatus(hyp3, pts, level=2)
    h = app.ricci + 2.0 * app.g
    assert np.abs(h).max() < 1e-11
    assert np.abs(app.trace(h)).max() < 1e-10


def test_hessian_symmetry(rng, schw3):
    from ahmass.fields import random_compact_scalar
    u = random_compact_scalar(rng, 3.0, 8.0, 3)
    pts = random_points(3, rng, 100, r_range=(3.1, 7.9))
    H = covariant_hessian(metric_apparatus(schw3, pts, level=1), u.jet(pts))
    assert np.abs(H - H.swapaxes(1, 2)).max() < 1e-10


def _einstein_divergence_sup(spec, pts):
    """Covariant divergence of Ric - R g / 2 by finite differences of Ricci."""
    n = spec.n
    app = metric_apparatus(spec, pts, level=2)

    def einstein(coords):
        a = metric_apparatus(spec, coords, level=2)
        return a.ricci - 0.5 * a.scalar[:, None, None] * a.g

    T = einstein(pts)
    steps = np.full(pts.shape, 1e-5)
    steps[:, 0] = 1e-5 * (1 + pts[:, 0])
    dT = np.zeros((pts.shape[0], n, n, n))
    for a in range(n):
        cp, cm = pts.copy(), pts.copy()
        cp[:, a] += steps[:, a]
        cm[:, a] -= steps[:, a]
        dT[:, a] = (einstein(cp) - einstein(cm)) / (2 * steps[:, a])[:, None, None]
    nT = nabla_2tensor(app.gamma, T, dT)
    div = np.einsum("pik,pikj->pj", app.inv, nT)
    return np.abs(div).max()


def test_contracted_second_bianchi(rng, hyp3, schw3):
    for spec in (hyp3, schw3):
        pts = random_points(3, rng, 30, r_range=(2.0, 20.0))
        assert _einstein_divergence_sup(spec, pts) < 1e-5


def test_perturbed_with_zero_field_matches_base(rng, hyp3):
    zero = SymmetricTensorField(lambda c, order: J.Jet(*(np.zeros((c.shape[0],) + (3,) * k)
                                                         for k in (2, 3, 4))))
    pert = PerturbedMetric(hyp3, zero)
    pts = random_points(3, rng, 40)
    p1 = metric_apparatus(pert, pts[0], level=2)
    p2 = metric_apparatus(hyp3, pts[0], level=2)
    assert np.array_equal(p1.riemann, p2.riemann)
    assert np.array_equal(p1.scalar, p2.scalar)


# -- batched contractions against einsum references on a non-diagonal metric ---

def _off_pole_points(rng, n, count, r_range=(2.5, 7.5)):
    # away from the poles the chart is well conditioned; near them its condition
    # number grows like 1/sin^2 and amplifies roundoff of any summation order
    r = rng.uniform(*r_range, size=count)
    polar = rng.uniform(0.5, np.pi - 0.5, size=(count, n - 2))
    azimuth = rng.uniform(0.0, 2.0 * np.pi, size=(count, 1))
    return np.column_stack([r, polar, azimuth])


def _non_diagonal_metric(rng, n):
    h = random_compact_tensor(rng, n, 2.0, 8.0, amplitude=0.3)
    return PerturbedMetric(schwarzschild_ads(n, 0.5), h)


def _einsum_apparatus(g, dg, ddg):
    """Level-2 metric data written as plain index contractions."""
    inv = np.linalg.inv(g)
    dinv = -np.einsum("pim,pamn,pnj->paij", inv, dg, inv)
    ddinv = -(np.einsum("pbim,pamn,pnj->pabij", dinv, dg, inv)
              + np.einsum("pim,pabmn,pnj->pabij", inv, ddg, inv)
              + np.einsum("pim,pamn,pbnj->pabij", inv, dg, dinv))
    bracket = (np.einsum("pilj->plij", dg) + np.einsum("pjli->plij", dg) - dg)
    dbracket = (np.einsum("pailj->palij", ddg) + np.einsum("pajli->palij", ddg) - ddg)
    gamma = 0.5 * np.einsum("pkl,plij->pkij", inv, bracket)
    dgamma = 0.5 * (np.einsum("pakl,plij->pakij", dinv, bracket)
                    + np.einsum("pkl,palij->pakij", inv, dbracket))
    rm = (np.einsum("pkmjl->pkjlm", dgamma) - np.einsum("pjmkl->pkjlm", dgamma)
          + np.einsum("pmkq,pqjl->pkjlm", gamma, gamma)
          - np.einsum("pmjq,pqkl->pkjlm", gamma, gamma))
    riemann = np.einsum("pkjlm,pmi->pkjli", rm, g)
    ricci = np.einsum("pki,pkjli->pjl", inv, riemann)
    scalar = np.einsum("pjl,pjl->p", inv, ricci)
    return {"inv": inv, "dinv": dinv, "ddinv": ddinv, "gamma": gamma,
            "dgamma": dgamma, "riemann": riemann, "ricci": ricci, "scalar": scalar}


def _einsum_nabla2(ref, h, dh, ddh):
    gamma, dgamma = ref["gamma"], ref["dgamma"]
    T = (dh - np.einsum("pcai,pcj->paij", gamma, h)
         - np.einsum("pcaj,pic->paij", gamma, h))
    dT = (ddh
          - np.einsum("pacbi,pcj->pabij", dgamma, h)
          - np.einsum("pcbi,pacj->pabij", gamma, dh)
          - np.einsum("pacbj,pic->pabij", dgamma, h)
          - np.einsum("pcbj,paic->pabij", gamma, dh))
    return (dT - np.einsum("pcab,pcij->pabij", gamma, T)
            - np.einsum("pcai,pbcj->pabij", gamma, T)
            - np.einsum("pcaj,pbic->pabij", gamma, T))


def _assert_close(value, reference, rtol=1e-12):
    assert np.abs(value - reference).max() <= rtol * np.abs(reference).max()


# battery run 11's metric: an n = 4 bump along x_1 with no rotational symmetry
AXIS_BUMP_4 = {"family": "perturbed", "n": 4, "params": {
    "base": {"family": "hyperbolic", "n": 4, "params": {}},
    "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.0, 0.0, 0.0], "rate": 4.0}}}


@pytest.mark.parametrize("n, doc", [(3, None), (4, None), (5, None), (4, AXIS_BUMP_4)],
                         ids=["3", "4", "5", "axis_bump_4"])
def test_apparatus_matches_einsum_reference(n, doc):
    rng = np.random.default_rng(7 + n)
    spec = _non_diagonal_metric(rng, n) if doc is None else metric_from_dict(doc)
    pts = _off_pole_points(rng, n, 60)
    app = metric_apparatus(spec, pts, level=2)
    ref = _einsum_apparatus(*spec.component_jets(pts))
    if doc is None:
        assert np.abs(app.g[:, 0, 1]).max() > 1e-3     # the metric is not diagonal
    for name in ("inv", "dinv", "gamma", "dgamma", "riemann", "ricci", "scalar"):
        _assert_close(getattr(app, name), ref[name])
    a = random_compact_tensor(rng, n, 2.0, 8.0).component_arrays(pts).val
    b = random_compact_tensor(rng, n, 2.0, 8.0).component_arrays(pts).val
    _assert_close(app.inner(a, b),
                  np.einsum("pia,pjb,pij,pab->p", ref["inv"], ref["inv"], a, b))
    _assert_close(app.trace(a), np.einsum("pij,pij->p", ref["inv"], a))
    omega = rng.normal(size=(pts.shape[0], n))
    _assert_close(app.sharp(omega), np.einsum("pab,pb->pa", ref["inv"], omega))
    X, Y = rng.normal(size=(2, pts.shape[0], n))
    _assert_close(app.sectional(X, Y),
                  np.einsum("pkjli,pk,pj,pl,pi->p", ref["riemann"], X, Y, Y, X))
    # L_g h with Lap(tr h) through the jet of g^{ij} h_ij, second derivatives
    # of the inverse metric included, against the contraction of nabla nabla h
    h, dh, ddh = random_compact_tensor(rng, n, 2.0, 8.0).component_arrays(pts)
    inv, dinv = ref["inv"], ref["dinv"]
    dtr = np.einsum("paij,pij->pa", dinv, h) + np.einsum("pij,paij->pa", inv, dh)
    ddtr = (np.einsum("pabij,pij->pab", ref["ddinv"], h)
            + np.einsum("paij,pbij->pab", dinv, dh)
            + np.einsum("pbij,paij->pab", dinv, dh)
            + np.einsum("pij,pabij->pab", inv, ddh))
    hess_tr = ddtr - np.einsum("pkab,pk->pab", ref["gamma"], dtr)
    lap_tr = np.einsum("pab,pab->p", inv, hess_tr)
    divdiv = np.einsum("pai,pbj,pabij->p", inv, inv, _einsum_nabla2(ref, h, dh, ddh))
    h_ric = np.einsum("pia,pjb,pij,pab->p", inv, inv, h, ref["ricci"])
    _assert_close(linearized_scalar_values(app, J.Jet(h, dh, ddh)),
                  -lap_tr + divdiv - h_ric)


@pytest.mark.parametrize("n", [3, 4])
def test_nabla2_matches_einsum_reference(n):
    rng = np.random.default_rng(11 + n)
    spec = _non_diagonal_metric(rng, n)
    pts = _off_pole_points(rng, n, 60)
    app = metric_apparatus(spec, pts, level=2)
    ref = _einsum_apparatus(*spec.component_jets(pts))
    jet = random_compact_tensor(rng, n, 2.0, 8.0).component_arrays(pts)
    _assert_close(nabla2_2tensor(app, jet), _einsum_nabla2(ref, *jet))


HYP3 = {"family": "hyperbolic", "n": 3, "params": {}}
# metric docs, metric objects (the warped fixture is not a spec family), and
# None for a random non-diagonal metric
LEVEL1_FAMILIES = {
    "hyperbolic": HYP3,
    "hyperbolic_n4": {"family": "hyperbolic", "n": 4, "params": {}},
    "schwarzschild_ads": {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}},
    "conformal": {"family": "conformal", "n": 3, "params": {
        "base": HYP3, "profile": {"kind": "power_tail", "amp": 0.3, "rate": 3.0}}},
    "warped_round_sphere": WarpedProductMetric(3, "round_sphere"),
    "warped_hyperbolic": WarpedProductMetric(4, "hyperbolic"),
    "perturbed_axis_bump": {"family": "perturbed", "n": 3, "params": {
        "base": HYP3, "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.5, 0.2],
                                       "amp": 0.2, "width": 2.0, "onset": 2.0}}},
    "perturbed_cartesian_bump": None,
}


@pytest.mark.parametrize("name", LEVEL1_FAMILIES)
def test_level1_apparatus_matches_level2(name):
    # the level-1 apparatus builds first-order jets; its fields must be the
    # level-2 apparatus's own, bit for bit
    rng = np.random.default_rng(17)
    spec = LEVEL1_FAMILIES[name]
    if spec is None:
        spec = _non_diagonal_metric(rng, 3)
    elif isinstance(spec, dict):
        spec = metric_from_dict(spec)
    n = spec.n
    pts = _off_pole_points(rng, n, 40)
    one, two = metric_apparatus(spec, pts, level=1), metric_apparatus(spec, pts, level=2)
    assert one.level == 1 and one.ddg is None
    for field in ("g", "dg", "inv", "dinv", "gamma", "sqrt_det"):
        assert np.array_equal(getattr(one, field), getattr(two, field)), field
    assert spec.component_jets(pts, order=1).hess is None
    assert np.array_equal(spec.components(pts), two.g)


def _rotated(rng, diagonals):
    """Symmetric matrices Q diag(d) Q^T with random orthogonal Q, one per row of d."""
    count, n = diagonals.shape
    q = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    return (q * diagonals[:, None, :]) @ q.swapaxes(1, 2)


def test_closed_form_inverse_and_determinant_match_linalg():
    rng = np.random.default_rng(3)
    g = _rotated(rng, rng.uniform(0.1, 10.0, size=(500, 3)))
    inv, det = curvature._inverse_and_det(g)
    _assert_close(inv, np.linalg.inv(g), rtol=1e-13)
    _assert_close(det, np.linalg.det(g), rtol=1e-13)
    assert inv.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("n", [3, 4])
def test_degenerate_mask_matches_linalg_determinant(n):
    # positive definite, near-singular of either sign, indefinite and exactly
    # singular rows in one batch: the mask is the sign test on numpy's det
    rng = np.random.default_rng(n)
    diag = rng.uniform(0.5, 2.0, size=(8, n))
    diag[2:4, 0] = [1e-8, -1e-8]
    diag[4:6, 1] *= -1.0
    g = _rotated(rng, diag)
    g[6] = np.eye(n)
    g[6, :2, :2] = 1.0
    g[7] = np.diag(np.arange(1.0, n + 1.0))
    g[7, 0, 0] = 0.0
    with pytest.raises(DegenerateMetricError) as err:
        curvature._inverse_and_det(g)
    expected = np.linalg.det(g) <= 0.0
    assert np.array_equal(err.value.mask, expected)
    assert expected.tolist() == [False, False, False, True, True, True, True, True]


SCHW3 = {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}}
SMALL_RULE = {"quad_polar": 6, "quad_azimuth": 12}


@pytest.mark.parametrize("command, numeric, builds", [
    ("duality-check", dict(SMALL_RULE, pairs=2), 0),
    ("first-variation", SMALL_RULE, 0),
    ("mass", {}, 0),
    ("verify-ah", {"q_claimed": 3.0}, 0),
    ("curvature", {"sample_points": 50}, 1),
])
def test_riemann_array_is_built_only_where_it_is_read(tmp_path, monkeypatch,
                                                       command, numeric, builds):
    calls = []
    real = curvature._lowered_riemann

    def counting(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(curvature, "_lowered_riemann", counting)
    config = {"command": command, "metric": SCHW3, "numeric": numeric}
    assert run(config, out_dir=tmp_path) == 0
    assert len(calls) == builds
