"""Spherical chart on the exterior region: Cartesian maps and samplers.

Coordinates are (r, theta_1, ..., theta_{n-1}) with theta_1..theta_{n-2} polar
in [0, pi] and theta_{n-1} azimuthal in [0, 2*pi).  Cartesian labels are
assigned so that the x_1 axis sits at the equator of every polar angle
(theta_j = pi/2 for all j) and the x_n axis carries the poles:

    x_n     = r cos(theta_1)
    x_(n-1) = r sin(theta_1) cos(theta_2)
    ...
    x_1     = r sin(theta_1) ... sin(theta_{n-1}).

Rays along x_1 are therefore regular points of the chart, which matters for
geodesic shooting along that axis.  The chart degenerates where any polar
sine vanishes; samplers keep a margin of POLE_MARGIN around those bands.

Derivatives of the map come from the jet algebra alone: ``unit_vector_jets``
builds the jets of x_i / r from ``jsin``/``jcos``.  The chart Jacobian
separates as dx_c / d(chart_a) = s_a(r) U_ac(theta) with s_0 = 1 and
s_a = r for a >= 1; ``chart_jacobian_jets`` builds the angular factor U as
jets in the angles alone, from the same unit-vector jets at angles advanced
by pi/2.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, constant, coordinate_jets, jcos, jsin

POLE_MARGIN = 1e-3


def as_coords(point) -> np.ndarray:
    """Coerce an array-like into a batch of coordinate rows."""
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 1:
        return arr[None, :]
    return arr


def unit_vector_values(angles: np.ndarray) -> np.ndarray:
    """Unit-sphere Cartesian components for angle rows of shape (N, n-1)."""
    angles = np.asarray(angles, dtype=float)
    npts, nang = angles.shape
    n = nang + 1
    u = np.empty((npts, n))
    sines = np.cumprod(np.sin(angles), axis=1)
    # x_n down to x_1: cos(theta_k) times the product of earlier sines
    u[:, n - 1] = np.cos(angles[:, 0])
    for k in range(1, nang):
        u[:, n - 1 - k] = sines[:, k - 1] * np.cos(angles[:, k])
    u[:, 0] = sines[:, nang - 1]
    return u


def to_cartesian(coords: np.ndarray) -> np.ndarray:
    coords = as_coords(coords)
    return coords[:, :1] * unit_vector_values(coords[:, 1:])


def _unit_components(angle_jets: list[Jet]) -> list[Jet]:
    """The jets of x_i / r, indexed i = 0..n-1, from the jets of the n-1 angles."""
    n = len(angle_jets) + 1
    sin_j = [jsin(a) for a in angle_jets]
    cos_j = [jcos(a) for a in angle_jets]
    comps: list[Jet] = [None] * n
    running = None
    comps[n - 1] = cos_j[0]
    for k in range(1, n - 1):
        running = sin_j[k - 1] if running is None else running * sin_j[k - 1]
        comps[n - 1 - k] = running * cos_j[k]
    running = sin_j[n - 2] if running is None else running * sin_j[n - 2]
    comps[0] = running
    return comps


def unit_vector_jets(coords: np.ndarray, order: int = 2) -> list[Jet]:
    """Jets of the given order of the unit-sphere components x_i / r as
    functions of the chart."""
    return _unit_components(coordinate_jets(as_coords(coords), order)[1:])


def chart_jacobian_jets(angles: np.ndarray, order: int = 2) -> list[list]:
    """Jets in the angles of the angular factor U of the chart Jacobian,
    indexed [a][c], for angle rows of shape (N, n-1).

    dx_c / d(chart_a) = s_a(r) U_ac(theta) with s_0 = 1 and s_a = r.  Row 0
    is U_0c = x_c / r.  Each angle theta_a enters x_c / r at most once, as a
    sin or a cos factor, and only when c <= n - a (0-based c); advancing
    theta_a by pi/2 turns that factor into its derivative, so U_ac is x_c / r
    at the advanced angle, and zero for c > n - a.
    """
    angles = np.asarray(angles, dtype=float)
    npts, n = angles.shape[0], angles.shape[1] + 1
    zero = constant(0.0, npts, n - 1, order)
    rows = [_unit_components(coordinate_jets(angles, order))]
    for a in range(1, n):
        advanced = angles.copy()
        advanced[:, a - 1] += 0.5 * np.pi
        u = _unit_components(coordinate_jets(advanced, order))
        rows.append([u[c] if c <= n - a else zero for c in range(n)])
    return rows


def angular_grid(n: int, nodes_per_angle: int) -> np.ndarray:
    """Uniform off-pole sampling grid of angle rows, ``nodes_per_angle`` nodes
    per chart angle: shape (nodes_per_angle^(n-1), n-1)."""
    k = nodes_per_angle
    axes = [np.linspace(POLE_MARGIN * 5, np.pi - POLE_MARGIN * 5, k)] * (n - 2)
    axes.append(np.arange(k) * (2.0 * np.pi / k))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def random_points(n: int, rng, count: int, r_range=(1.0, 50.0)) -> np.ndarray:
    """Random coordinate rows, radii log-uniform in r_range, angles off-pole."""
    lo, hi = r_range
    r = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
    cols = [r]
    for _ in range(n - 2):
        cols.append(rng.uniform(POLE_MARGIN * 10, np.pi - POLE_MARGIN * 10, size=count))
    cols.append(rng.uniform(0.0, 2.0 * np.pi, size=count))
    return np.stack(cols, axis=1)
