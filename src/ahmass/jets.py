"""Batched jets of order 1 or 2: values with exact gradients and, at order 2, Hessians.

Every analytic quantity in the toolkit (metric components, tensor fields,
static potentials, bump perturbations) is a ``Jet``, so chart derivatives up
to second order come from the chain rule at machine precision instead of
finite differences.  For a batch of N points and a value of tensor shape S
(``S = ()`` for scalars) the layout is

    val[p, *S],   grad[p, a, *S] = d_a val,   hess[p, a, b, *S] = d_a d_b val,

so a metric jet holds exactly g[p, i, j], dg[p, a, i, j], ddg[p, a, b, i, j].
A jet unpacks as ``val, grad, hess = jet``.

A jet carries its order: a first-order jet has ``hess = None``.  The order
starts at ``coordinate_jets(coords, order)`` and the arithmetic carries it:
every operation skips its second-order terms when an operand is first-order,
so a result has the lower order of its operands.  The value and gradient
arithmetic is the same at both orders, so a first-order jet's ``val`` and
``grad`` are bit-identical to those of the second-order jet built the same way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Jet(NamedTuple):
    """Value, gradient, and (order 2 only) Hessian at a batch of points."""

    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None

    # numpy operands defer to the methods below instead of iterating the tuple
    __array_ufunc__ = None

    @property
    def dim(self) -> int:
        return self.grad.shape[1]

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2

    def map(self, fn):
        """Apply a map that acts on each derivative order alike (a linear map
        of the tensor axes, a reshape) to every part the jet has."""
        return Jet(fn(self.val), fn(self.grad),
                   None if self.hess is None else fn(self.hess))

    # -- linear structure ---------------------------------------------------

    def __neg__(self):
        return self.map(np.negative)

    def __add__(self, other):
        if isinstance(other, Jet):
            hess = (None if self.hess is None or other.hess is None
                    else self.hess + other.hess)
            return Jet(self.val + other.val, self.grad + other.grad, hess)
        return Jet(self.val + other, self.grad.copy(),
                   None if self.hess is None else self.hess.copy())

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    # -- products and quotients ---------------------------------------------

    def __mul__(self, other):
        """Pointwise product; a scalar jet broadcasts against a tensor jet."""
        if isinstance(other, Jet):
            u, v = self, other
            if u.grad.ndim != v.grad.ndim:   # give the scalar trailing unit axes
                rank = max(u.grad.ndim, v.grad.ndim)
                u, v = (w.map(lambda x, w=w: x.reshape(
                    x.shape + (1,) * (rank - w.grad.ndim))) for w in (u, v))
            val = u.val * v.val
            grad = u.grad * v.val[:, None] + v.grad * u.val[:, None]
            if u.hess is None or v.hess is None:
                return Jet(val, grad, None)
            cross = u.grad[:, :, None] * v.grad[:, None, :]
            hess = u.hess * v.val[:, None, None]
            hess += v.hess * u.val[:, None, None]
            hess += cross
            hess += np.swapaxes(cross, 1, 2)
            return Jet(val, grad, hess)
        c = np.asarray(other)
        if c.ndim:
            return Jet(self.val * c, self.grad * c[..., None],
                       None if self.hess is None else self.hess * c[..., None, None])
        return self.map(lambda x: x * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        v = self.val
        return compose(self, 1.0 / v, -v ** -2.0, lambda: 2.0 * v ** -3.0)

    def __pow__(self, p):
        if p == 2:
            return self * self
        v = self.val
        return compose(self, v ** p, p * v ** (p - 1), lambda: p * (p - 1) * v ** (p - 2))

    def copy(self):
        return self.map(np.copy)


def compose(u: Jet, f, df, ddf) -> Jet:
    """Chain rule through a scalar function given f(u) and f'(u) arrays (scalar u).

    ``ddf`` is a function of no arguments returning f''(u); it is called only
    for a second-order u.
    """
    grad = df[..., None] * u.grad
    if u.hess is None:
        return Jet(np.asarray(f), grad, None)
    outer = u.grad[..., :, None] * u.grad[..., None, :]
    hess = ddf()[..., None, None] * outer + df[..., None, None] * u.hess
    return Jet(np.asarray(f), grad, hess)


def combine(fn, jets) -> Jet:
    """Jet whose every part is ``fn`` of the same part of all ``jets``, a map
    acting on each derivative order alike; it has the lowest order among them."""
    vals, grads, hesses = zip(*jets)
    return Jet(fn(vals), fn(grads),
               None if any(h is None for h in hesses) else fn(hesses))


def stack(components) -> Jet:
    """Tensor jet from a nested list of scalar jets; the nesting becomes the shape S."""
    shape, level = [], components
    while not isinstance(level, Jet):
        shape.append(len(level))
        level = level[0]
    flat = components
    for _ in shape[1:]:
        flat = [c for row in flat for c in row]
    return combine(lambda parts: np.stack(parts, axis=-1).reshape(
        parts[0].shape + tuple(shape)), flat)


def contract(subscripts: str, u: Jet, v: Jet) -> Jet:
    """Product rule for ``np.einsum(subscripts, u, v)`` over the tensor axes.

    ``subscripts`` names the tensor axes only, in lower case (``"ac,cd->ad"``);
    the batch and derivative axes are added here.
    """
    inputs, out = subscripts.split("->")
    su, sv = inputs.split(",")

    def term(x, dx, y, dy):
        return np.einsum(f"P{dx}{su},P{dy}{sv}->P{dx}{dy}{out}", x, y, optimize=True)

    val = term(u.val, "", v.val, "")
    grad = term(u.grad, "Y", v.val, "")
    grad += term(u.val, "", v.grad, "Y")
    if u.hess is None or v.hess is None:
        return Jet(val, grad, None)
    hess = term(u.hess, "YZ", v.val, "")
    hess += term(u.val, "", v.hess, "YZ")
    cross = term(u.grad, "Y", v.grad, "Z")
    hess += cross
    hess += np.swapaxes(cross, 1, 2)
    return Jet(val, grad, hess)


def constant(value, n_points: int, dim: int, order: int = 2) -> Jet:
    val = np.full(n_points, float(value))
    return Jet(val, np.zeros((n_points, dim)),
               np.zeros((n_points, dim, dim)) if order >= 2 else None)


def coordinate_jets(coords: np.ndarray, order: int = 2) -> list[Jet]:
    """One jet of the given order per chart coordinate for a batch of points
    of shape (N, dim)."""
    coords = np.asarray(coords, dtype=float)
    npts, dim = coords.shape
    jets = []
    for a in range(dim):
        grad = np.zeros((npts, dim))
        grad[:, a] = 1.0
        jets.append(Jet(coords[:, a].copy(), grad,
                        np.zeros((npts, dim, dim)) if order >= 2 else None))
    return jets


def jsin(u: Jet) -> Jet:
    s, c = np.sin(u.val), np.cos(u.val)
    return compose(u, s, c, lambda: -s)


def jcos(u: Jet) -> Jet:
    s, c = np.sin(u.val), np.cos(u.val)
    return compose(u, c, -s, lambda: -c)


def jexp(u: Jet) -> Jet:
    e = np.exp(u.val)
    return compose(u, e, e, lambda: e)


def jsqrt(u: Jet) -> Jet:
    s = np.sqrt(u.val)
    return compose(u, s, 0.5 / s, lambda: -0.25 / (s * u.val))


def jcosh(u: Jet) -> Jet:
    ch = np.cosh(u.val)
    return compose(u, ch, np.sinh(u.val), lambda: ch)


def jsinh(u: Jet) -> Jet:
    sh = np.sinh(u.val)
    return compose(u, sh, np.cosh(u.val), lambda: sh)


def jet_where(mask: np.ndarray, a: Jet, b: Jet) -> Jet:
    """Select between two jets pointwise; mask has shape (N,)."""
    m1 = mask[..., None]
    hess = (None if a.hess is None or b.hess is None
            else np.where(mask[..., None, None], a.hess, b.hess))
    return Jet(np.where(mask, a.val, b.val), np.where(m1, a.grad, b.grad), hess)


def smooth_switch(u: Jet, onset: float) -> Jet:
    """Smooth 0-to-1 switch: 1 - exp(-(u/onset)^4), flat to high order at 0."""
    return 1.0 - jexp(-((u * (1.0 / onset)) ** 4))
