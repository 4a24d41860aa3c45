"""Random compact fields evaluated against a shared per-rule basis.

The basis separates each field into a radial factor on the distinct radii
and an angular factor on the distinct directions; the references below build
the same fields on every node, without that separation.
"""

import numpy as np
import pytest

from ahmass import jets as J
from ahmass.chart import random_points, unit_vector_jets
from ahmass.fields import (CompactBasis, poly_bump_jet, random_compact_scalar,
                           random_compact_tensor)
from ahmass.quadrature import sphere_rule, volume_rule

SUPPORT = (2.0, 6.0)


def small_rule(n):
    return volume_rule(n, list(SUPPORT), [4], sphere_rule(n, 6, 12))


def node_sets(n):
    """A volume rule's nodes, and scattered rows whose directions all differ."""
    scattered = random_points(n, np.random.default_rng(n), 60, r_range=(1.5, 6.5))
    return small_rule(n).coords, scattered


def assert_jets_equal(a, b):
    assert a.order == b.order
    for x, y in zip(a, b):
        assert (x is None and y is None) or np.array_equal(x, y)


def assert_jets_close(a, b, rel=1e-14):
    """Agreement of every part to ``rel`` times that part's largest entry."""
    assert a.order == b.order
    for x, y in zip(a, b):
        if x is None:
            assert y is None
            continue
        assert x.shape == y.shape
        assert np.abs(x - y).max() <= rel * np.abs(y).max()


def full_grid_jacobian(coords, order):
    """dx_c / d(chart_a) as n-dimensional jets on every node: row 0 is x_c / r,
    row a is r times x_c / r at theta_a + pi/2, zero for c > n - a."""
    npts, n = coords.shape
    r = J.coordinate_jets(coords, order)[0]
    zero = J.constant(0.0, npts, n, order)
    rows = [unit_vector_jets(coords, order)]
    for a in range(1, n):
        advanced = coords.copy()
        advanced[:, a] += 0.5 * np.pi
        u = unit_vector_jets(advanced, order)
        rows.append([r * u[c] if c <= n - a else zero for c in range(n)])
    return J.stack(rows)


def per_field_tensor(rng, n, coords, order, amplitude):
    """The pull-back J H J^T written out for one field on every node."""
    coeff = rng.uniform(-1, 1, size=(n, n))
    coeff = 0.5 * (coeff + coeff.T)
    lin = rng.uniform(-1, 1, size=(n, n, n))
    lin = np.where(np.triu(np.ones((n, n), bool))[:, :, None], lin,
                   lin.transpose(1, 0, 2))
    weights = np.concatenate([coeff[:, :, None], lin], axis=2)
    r = J.coordinate_jets(coords, order)[0]
    radial = poly_bump_jet(r, *SUPPORT) * amplitude * (1.0 + r * r).reciprocal()
    stack = J.stack([J.constant(1.0, *coords.shape, order),
                     *unit_vector_jets(coords, order)])
    H = (radial * stack).map(lambda x: np.einsum("...q,cdq->...cd", x, weights))
    jac = full_grid_jacobian(coords, order)
    return J.contract("ac,bc->ab", jac, J.contract("bd,cd->bc", jac, H))


def per_field_scalar(rng, n, coords, order):
    """bump * (c0 + c1.u + u.c2.u) written out for one field on every node."""
    c0 = rng.uniform(-1, 1)
    c1 = rng.uniform(-1, 1, size=n)
    c2 = rng.uniform(-1, 1, size=(n, n))
    c2 = 0.5 * (c2 + c2.T)
    u = unit_vector_jets(coords, order)
    poly = J.constant(c0, *coords.shape, order)
    for i in range(n):
        poly = poly + c1[i] * u[i]
        for k in range(n):
            poly = poly + c2[i, k] * (u[i] * u[k])
    return poly_bump_jet(J.coordinate_jets(coords, order)[0], *SUPPORT) * poly


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_shared_basis_matches_per_field_evaluation(n, order):
    for coords in node_sets(n):
        basis = CompactBasis(coords, SUPPORT, order)
        rng = np.random.default_rng(11)
        fields = [(random_compact_tensor(rng, n, *SUPPORT),
                   random_compact_scalar(rng, *SUPPORT, n)) for _ in range(3)]
        for h, u in fields:
            assert_jets_equal(h.evaluate(basis), h.component_arrays(coords, order))
            assert_jets_equal(u.evaluate(basis), u.jet(coords, order))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_shared_basis_matches_written_out_fields(n, order):
    # the same draws, built on every node without the radial-angular
    # separation, agree to the last bits; the amplitudes are the ones the
    # commands use
    for coords in node_sets(n):
        basis = CompactBasis(coords, SUPPORT, order)
        draws, fresh = np.random.default_rng(12), np.random.default_rng(12)
        for amplitude in (1.0, 0.5):
            h = random_compact_tensor(draws, n, *SUPPORT, amplitude=amplitude)
            assert_jets_close(h.evaluate(basis),
                              per_field_tensor(fresh, n, coords, order, amplitude))
            u = random_compact_scalar(draws, *SUPPORT, n)
            assert_jets_close(u.evaluate(basis),
                              per_field_scalar(fresh, n, coords, order))


def test_basis_builds_on_distinct_radii_and_directions():
    # the duality-check rule: 32 radii times a 12 x 24 sphere rule
    coords = volume_rule(3, list(SUPPORT), [32], sphere_rule(3, 12, 24)).coords
    basis = CompactBasis(coords, SUPPORT)
    assert coords.shape[0] == 9216
    for radial in (basis.bump, basis.radial_tensor):
        assert radial.val.shape[0] == 32 and radial.dim == 1
    for angular in (basis.frame, basis.linear, *basis.unit):
        assert angular.val.shape[0] == 288 and angular.dim == 2
    # scattered rows: one direction and one radius per row
    scattered = CompactBasis(random_points(3, np.random.default_rng(1), 50), SUPPORT)
    assert scattered.bump.val.shape[0] == scattered.frame.val.shape[0] == 50


def test_basis_of_another_support_is_refused():
    coords = small_rule(3).coords
    rng = np.random.default_rng(13)
    basis = CompactBasis(coords, (2.0, 5.0))
    with pytest.raises(ValueError, match="support"):
        random_compact_tensor(rng, 3, *SUPPORT).evaluate(basis)
    with pytest.raises(ValueError, match="support"):
        random_compact_scalar(rng, *SUPPORT, 3).evaluate(basis)
