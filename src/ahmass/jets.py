"""Batched second-order jets: values with exact gradients and Hessians.

Every analytic quantity in the toolkit (metric components, tensor fields,
static potentials, bump perturbations) is a ``Jet``, so chart derivatives up
to second order come from the chain rule at machine precision instead of
finite differences.  For a batch of N points and a value of tensor shape S
(``S = ()`` for scalars) the layout is

    val[p, *S],   grad[p, a, *S] = d_a val,   hess[p, a, b, *S] = d_a d_b val,

so a metric jet holds exactly g[p, i, j], dg[p, a, i, j], ddg[p, a, b, i, j].
A jet unpacks as ``val, grad, hess = jet``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Jet(NamedTuple):
    """Value, gradient, and Hessian of a scalar or tensor quantity at a batch of points."""

    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    # numpy operands defer to the methods below instead of iterating the tuple
    __array_ufunc__ = None

    @property
    def dim(self) -> int:
        return self.grad.shape[1]

    # -- linear structure ---------------------------------------------------

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad,
                       self.hess + other.hess)
        return Jet(self.val + other, self.grad.copy(), self.hess.copy())

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
                u, v = (Jet(*(x.reshape(x.shape + (1,) * (rank - w.grad.ndim))
                              for x in w)) for w in (u, v))
            val = u.val * v.val
            grad = u.grad * v.val[:, None] + v.grad * u.val[:, None]
            cross = u.grad[:, :, None] * v.grad[:, None, :]
            hess = u.hess * v.val[:, None, None]
            hess += v.hess * u.val[:, None, None]
            hess += cross
            hess += np.swapaxes(cross, 1, 2)
            return Jet(val, grad, hess)
        c = np.asarray(other)
        return Jet(self.val * c, self.grad * c[..., None] if c.ndim else self.grad * c,
                   self.hess * c[..., None, None] if c.ndim else self.hess * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        return compose(self, 1.0 / self.val, -self.val ** -2.0, 2.0 * self.val ** -3.0)

    def __pow__(self, p):
        if p == 2:
            return self * self
        v = self.val
        return compose(self, v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    def copy(self):
        return Jet(self.val.copy(), self.grad.copy(), self.hess.copy())


def compose(u: Jet, f, df, ddf) -> Jet:
    """Chain rule through a scalar function given f(u), f'(u), f''(u) arrays (scalar u)."""
    grad = df[..., None] * u.grad
    outer = u.grad[..., :, None] * u.grad[..., None, :]
    hess = ddf[..., None, None] * outer + df[..., None, None] * u.hess
    return Jet(np.asarray(f), grad, hess)


def stack(components) -> Jet:
    """Tensor jet from a nested list of scalar jets; the nesting becomes the shape S."""
    shape, level = [], components
    while not isinstance(level, Jet):
        shape.append(len(level))
        level = level[0]
    flat = components
    for _ in shape[1:]:
        flat = [c for row in flat for c in row]
    return Jet(*(np.stack(parts, axis=-1).reshape(parts[0].shape + tuple(shape))
                 for parts in zip(*flat)))


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
    hess = term(u.hess, "YZ", v.val, "")
    hess += term(u.val, "", v.hess, "YZ")
    cross = term(u.grad, "Y", v.grad, "Z")
    hess += cross
    hess += np.swapaxes(cross, 1, 2)
    return Jet(val, grad, hess)


def constant(value, n_points: int, dim: int) -> Jet:
    val = np.full(n_points, float(value))
    return Jet(val, np.zeros((n_points, dim)), np.zeros((n_points, dim, dim)))


def coordinate_jets(coords: np.ndarray) -> list[Jet]:
    """One jet per chart coordinate for a batch of points of shape (N, dim)."""
    coords = np.asarray(coords, dtype=float)
    npts, dim = coords.shape
    jets = []
    for a in range(dim):
        grad = np.zeros((npts, dim))
        grad[:, a] = 1.0
        jets.append(Jet(coords[:, a].copy(), grad, np.zeros((npts, dim, dim))))
    return jets


def jsin(u: Jet) -> Jet:
    s, c = np.sin(u.val), np.cos(u.val)
    return compose(u, s, c, -s)


def jcos(u: Jet) -> Jet:
    s, c = np.sin(u.val), np.cos(u.val)
    return compose(u, c, -s, -c)


def jexp(u: Jet) -> Jet:
    e = np.exp(u.val)
    return compose(u, e, e, e)


def jsqrt(u: Jet) -> Jet:
    s = np.sqrt(u.val)
    return compose(u, s, 0.5 / s, -0.25 / (s * u.val))


def jlog(u: Jet) -> Jet:
    return compose(u, np.log(u.val), 1.0 / u.val, -1.0 / u.val ** 2)


def jcosh(u: Jet) -> Jet:
    return compose(u, np.cosh(u.val), np.sinh(u.val), np.cosh(u.val))


def jsinh(u: Jet) -> Jet:
    return compose(u, np.sinh(u.val), np.cosh(u.val), np.sinh(u.val))


def jet_where(mask: np.ndarray, a: Jet, b: Jet) -> Jet:
    """Select between two jets pointwise; mask has shape (N,)."""
    m1 = mask[..., None]
    m2 = mask[..., None, None]
    return Jet(np.where(mask, a.val, b.val),
               np.where(m1, a.grad, b.grad),
               np.where(m2, a.hess, b.hess))


def smooth_bump(u: Jet, lo: float, hi: float) -> Jet:
    """C-infinity bump supported on (lo, hi) in the jet variable, peak value 1.

    Uses exp(1 - 1/(1 - t^2)) with t the affine map of [lo, hi] onto [-1, 1];
    identically zero (with zero derivatives) outside the open interval.
    """
    t = (u - 0.5 * (lo + hi)) * (2.0 / (hi - lo))
    inside = np.abs(t.val) < 1.0
    # clamp the argument off the singular set before dividing; masked out after
    t_safe = Jet(np.where(inside, t.val, 0.0), t.grad, t.hess)
    w = 1.0 - t_safe * t_safe
    w = Jet(np.where(inside, w.val, 1.0), w.grad, w.hess)
    bump = jexp(1.0 - w.reciprocal())
    zero = constant(0.0, len(t.val), t.dim)
    return jet_where(inside, bump, zero)


def smooth_switch(u: Jet, onset: float, power: int = 4) -> Jet:
    """Smooth 0-to-1 switch: 1 - exp(-(u/onset)^power), flat to high order at 0."""
    return 1.0 - jexp(-((u * (1.0 / onset)) ** power))
