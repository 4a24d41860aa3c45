"""Random compact fields evaluated against a shared per-rule basis."""

import numpy as np
import pytest

from ahmass import jets as J
from ahmass.chart import chart_jacobian_jets, unit_vector_jets
from ahmass.fields import (CompactBasis, poly_bump_jet, random_compact_scalar,
                           random_compact_tensor)
from ahmass.quadrature import sphere_rule, volume_rule

SUPPORT = (2.0, 6.0)


def small_rule(n):
    return volume_rule(n, list(SUPPORT), [4], sphere_rule(n, 6, 12))


def assert_jets_equal(a, b):
    assert a.order == b.order
    for x, y in zip(a, b):
        assert (x is None and y is None) or np.array_equal(x, y)


def per_field_tensor(rng, n, coords, order, amplitude):
    """The pull-back J H J^T written out for one field, without a basis."""
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
    jac = J.stack(chart_jacobian_jets(coords, order))
    return J.contract("ac,bc->ab", jac, J.contract("bd,cd->bc", jac, H))


def per_field_scalar(rng, n, coords, order):
    """bump * (c0 + c1.u + u.c2.u) written out for one field, without a basis."""
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
    coords = small_rule(n).coords
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
    # the same draws, evaluated without a basis, give the same bits; the
    # amplitudes are the ones the commands use
    coords = small_rule(n).coords
    basis = CompactBasis(coords, SUPPORT, order)
    draws, fresh = np.random.default_rng(12), np.random.default_rng(12)
    for amplitude in (1.0, 0.5):
        h = random_compact_tensor(draws, n, *SUPPORT, amplitude=amplitude)
        assert_jets_equal(h.evaluate(basis),
                          per_field_tensor(fresh, n, coords, order, amplitude))
        u = random_compact_scalar(draws, *SUPPORT, n)
        assert_jets_equal(u.evaluate(basis), per_field_scalar(fresh, n, coords, order))


def test_basis_of_another_support_is_refused():
    coords = small_rule(3).coords
    rng = np.random.default_rng(13)
    basis = CompactBasis(coords, (2.0, 5.0))
    with pytest.raises(ValueError, match="support"):
        random_compact_tensor(rng, 3, *SUPPORT).evaluate(basis)
    with pytest.raises(ValueError, match="support"):
        random_compact_scalar(rng, *SUPPORT, 3).evaluate(basis)
