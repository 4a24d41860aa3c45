"""Jet algebra against finite differences: the derivatives must be exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmass import jets as J
from ahmass.chart import chart_jacobian_jets, random_points, to_cartesian
from ahmass.fields import (ScaledMetricField, power_tail_profile,
                           random_compact_scalar, random_compact_tensor)
from ahmass.metrics import metric_from_dict, schwarzschild_ads, static_potential
from ahmass.rigidity import sinh_potential


def fd_check(jet_fn, coords, tol=1e-7):
    """Central differences of val and grad against grad and hess.

    Works for scalar and tensor jets alike: grad[:, a] and hess[:, a, b] carry
    the value's trailing shape S.
    """
    jet = jet_fn(coords)
    eps = 1e-6
    for a in range(coords.shape[1]):
        cp, cm = coords.copy(), coords.copy()
        cp[:, a] += eps
        cm[:, a] -= eps
        jp, jm = jet_fn(cp), jet_fn(cm)
        assert np.abs((jp.val - jm.val) / (2 * eps) - jet.grad[:, a]).max() < tol
        for b in range(coords.shape[1]):
            fd = (jp.grad[:, b] - jm.grad[:, b]) / (2 * eps)
            assert np.abs(fd - jet.hess[:, a, b]).max() < tol


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 30.0), st.floats(0.2, 2.9), st.floats(0.0, 6.2))
def test_algebra_matches_finite_differences(r, th, ph):
    coords = np.array([[r, th, ph]])

    def build(c):
        rj, tj, pj = J.coordinate_jets(c)
        return (rj * rj + 1.0).reciprocal() * J.jsin(tj) + J.jexp(
            J.jcos(pj) * 0.3) - J.jsqrt(rj + 2.0) / (tj + 5.0)

    fd_check(build, coords)


def test_power_and_where():
    coords = np.array([[2.0, 1.0, 0.5], [7.0, 2.0, 1.0]])
    rj = J.coordinate_jets(coords)[0]
    p = rj ** -2.5
    assert np.allclose(p.val, coords[:, 0] ** -2.5)
    assert np.allclose(p.grad[:, 0], -2.5 * coords[:, 0] ** -3.5)
    mask = coords[:, 0] > 3
    sel = J.jet_where(mask, rj, rj * 0.0)
    assert sel.val[0] == 0.0 and sel.val[1] == 7.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chart_jacobian_jets_match_cartesian_map(n):
    # dx_c / d(chart_a) = s_a(r) U_ac(theta) with s_0 = 1 and s_a = r; angle
    # theta_a drops out of x_c for c > n - a; at n = 3 only x_1 has no theta_2
    # factor, from n = 4 on whole blocks of the Jacobian vanish
    rng = np.random.default_rng(5)
    coords = np.column_stack([rng.uniform(1, 10, 40)]
                             + [rng.uniform(0.3, 2.8, 40) for _ in range(n - 2)]
                             + [rng.uniform(0, 6.2, 40)])
    U = chart_jacobian_jets(coords[:, 1:])
    scale = [np.ones(len(coords))] + [coords[:, 0]] * (n - 1)
    eps = 1e-6
    for a in range(n):
        cp, cm = coords.copy(), coords.copy()
        cp[:, a] += eps
        cm[:, a] -= eps
        fd = (to_cartesian(cp) - to_cartesian(cm)) / (2 * eps)
        for c in range(n):
            assert U[a][c].dim == n - 1
            assert np.abs(fd[:, c] - scale[a] * U[a][c].val).max() < 1e-8
    fd_check(lambda c: J.stack(chart_jacobian_jets(c)), coords[:, 1:])


HYP3 = {"family": "hyperbolic", "n": 3, "params": {}}
TENSOR_JETS = {
    "hyperbolic": HYP3,
    "schwarzschild_ads": {"family": "schwarzschild_ads", "n": 3, "params": {"m": 0.5}},
    "conformal": {"family": "conformal", "n": 3, "params": {
        "base": HYP3, "profile": {"kind": "power_tail", "amp": 0.3, "rate": 3.0}}},
    "warped_round_sphere": {"family": "warped_product", "n": 3,
                            "params": {"factor": "round_sphere"}},
    "warped_hyperbolic": {"family": "warped_product", "n": 4,
                          "params": {"factor": "hyperbolic"}},
    "perturbed": {"family": "perturbed", "n": 3, "params": {
        "base": HYP3, "perturbation": {"kind": "axis_bump", "axis": [1.0, 0.5, 0.2],
                                       "amp": 0.2, "width": 2.0, "onset": 2.0}}},
    "random_compact_tensor": None,
    "scaled_metric_field": None,
}


@pytest.mark.parametrize("name", TENSOR_JETS)
def test_tensor_jets_match_finite_differences(name):
    rng = np.random.default_rng(7)
    n = TENSOR_JETS[name]["n"] if TENSOR_JETS[name] else 3
    coords = random_points(n, rng, 30, r_range=(2.2, 5.8))
    if name == "random_compact_tensor":
        jet_fn = random_compact_tensor(rng, n, 2.0, 6.0).component_arrays
    elif name == "scaled_metric_field":
        u = random_compact_scalar(rng, 2.0, 6.0, n)
        jet_fn = ScaledMetricField(schwarzschild_ads(n, 0.5), u).component_arrays
    else:
        jet_fn = metric_from_dict(TENSOR_JETS[name]).component_jets
    val = jet_fn(coords).val
    assert val.shape == (len(coords), n, n)
    # central differences lose about 1e-10 relative to the values differenced
    fd_check(jet_fn, coords, tol=1e-7 * (1.0 + np.abs(val).max()))


SCALAR_JETS = {
    "profile_product_and_shift": lambda: (power_tail_profile(0.3, 3.0) * (
        1.0 + power_tail_profile(0.1, 2.0))).as_field(),
    "sinh_potential": sinh_potential,
    "static_potential_0": lambda: static_potential(3, 0),
    "static_potential_1": lambda: static_potential(3, 1),
}


@pytest.mark.parametrize("name", SCALAR_JETS)
def test_scalar_field_jets_match_finite_differences(name):
    coords = random_points(3, np.random.default_rng(11), 30, r_range=(2.2, 5.8))
    jet_fn = SCALAR_JETS[name]().jet
    val = jet_fn(coords).val
    assert val.shape == (len(coords),)
    fd_check(jet_fn, coords, tol=1e-7 * (1.0 + np.abs(val).max()))


# -- jet order: a first-order jet carries no Hessian ------------------------------

def _args(coords, order):
    """Three non-trivial scalar jets of the given order; the first is positive."""
    r, th, ph = J.coordinate_jets(coords, order)
    return r + (th * ph) * 0.1, J.jcos(th) * r, ph - th


def _pair(x, y):
    return J.stack([[x, y], [y, x * y]])


ORDER_OPS = {
    "mul": lambda x, y, z: x * y,
    "mul_scalar_by_tensor": lambda x, y, z: x * J.stack([y, z]),
    "mul_constant": lambda x, y, z: x * 2.5,
    "add": lambda x, y, z: x + y,
    "add_constant": lambda x, y, z: 1.5 + x,
    "sub": lambda x, y, z: x - y,
    "rsub": lambda x, y, z: 2.0 - y,
    "neg": lambda x, y, z: -z,
    "div": lambda x, y, z: y / x,
    "rdiv": lambda x, y, z: 3.0 / x,
    "pow": lambda x, y, z: x ** -2.5,
    "square": lambda x, y, z: z ** 2,
    "reciprocal": lambda x, y, z: x.reciprocal(),
    "jsin": lambda x, y, z: J.jsin(y),
    "jcos": lambda x, y, z: J.jcos(z),
    "jexp": lambda x, y, z: J.jexp(y * 0.1),
    "jsqrt": lambda x, y, z: J.jsqrt(x),
    "jcosh": lambda x, y, z: J.jcosh(z),
    "jsinh": lambda x, y, z: J.jsinh(y * 0.1),
    "stack": lambda x, y, z: _pair(x, z),
    "contract": lambda x, y, z: J.contract("ab,bc->ac", _pair(x, y), _pair(z, x)),
    "jet_where": lambda x, y, z: J.jet_where(x.val > 5.0, x, z),
    "smooth_switch": lambda x, y, z: J.smooth_switch(x, 3.0),
}
POINTS = st.lists(st.tuples(st.floats(0.5, 30.0), st.floats(0.2, 2.9), st.floats(0.0, 6.2)),
                  min_size=1, max_size=6)


@pytest.mark.parametrize("op", ORDER_OPS)
@settings(max_examples=15, deadline=None)
@given(points=POINTS)
def test_first_order_matches_second_order(op, points):
    coords = np.array(points)
    first = ORDER_OPS[op](*_args(coords, 1))
    second = ORDER_OPS[op](*_args(coords, 2))
    assert first.hess is None and first.order == 1
    assert second.hess is not None and second.order == 2
    assert np.array_equal(first.val, second.val)
    assert np.array_equal(first.grad, second.grad)


@pytest.mark.parametrize("op", ["mul", "mul_scalar_by_tensor", "add", "sub", "div",
                                "stack", "contract", "jet_where"])
def test_mixed_orders_give_the_lower_order(op):
    coords = random_points(3, np.random.default_rng(3), 8, r_range=(2.0, 8.0))
    (x1, y1, z1), (x2, y2, z2) = _args(coords, 1), _args(coords, 2)
    second = ORDER_OPS[op](x2, y2, z2)
    for mixed in (ORDER_OPS[op](x1, y2, z2), ORDER_OPS[op](x2, y1, z1)):
        assert mixed.order == 1
        assert np.array_equal(mixed.val, second.val)
        assert np.array_equal(mixed.grad, second.grad)


@pytest.mark.parametrize("name", SCALAR_JETS)
def test_scalar_field_first_order_jets(name):
    coords = random_points(3, np.random.default_rng(11), 30, r_range=(2.2, 5.8))
    field = SCALAR_JETS[name]()
    first, second = field.jet(coords, order=1), field.jet(coords)
    assert first.hess is None
    assert np.array_equal(first.val, second.val)
    assert np.array_equal(first.grad, second.grad)
