"""Spherical chart on the exterior region: points, Cartesian maps, samplers.

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
builds the jets of x_i / r from ``jsin``/``jcos``, and the Jacobian jets of
``chart_jacobian_jets`` are those same jets at angles advanced by pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet, constant, coordinate_jets, jcos, jsin

POLE_MARGIN = 1e-3


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class ChartPoint:
    """A single chart point with validated coordinate ranges."""

    n: int
    r: float
    angles: tuple

    def __post_init__(self):
        if self.n < 3:
            raise ChartError(f"dimension must be >= 3, got {self.n}")
        if len(self.angles) != self.n - 1:
            raise ChartError(f"expected {self.n - 1} angles, got {len(self.angles)}")
        if not self.r > 0:
            raise ChartError(f"radial coordinate must be positive, got {self.r}")
        for j, th in enumerate(self.angles[:-1]):
            if not 0.0 <= th <= np.pi:
                raise ChartError(f"polar angle theta_{j + 1}={th} outside [0, pi]")
        last = self.angles[-1]
        if not 0.0 <= last < 2.0 * np.pi:
            raise ChartError(f"azimuthal angle {last} outside [0, 2*pi)")

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.r, *self.angles], dtype=float)

    def cartesian(self) -> np.ndarray:
        return to_cartesian(self.coords[None, :])[0]


def as_coords(point) -> np.ndarray:
    """Coerce a ChartPoint or array-like into a batch of coordinate rows."""
    if isinstance(point, ChartPoint):
        return point.coords[None, :]
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


def from_cartesian(x: np.ndarray) -> np.ndarray:
    """Invert the chart map; rows with r = |x| > 0."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    npts, n = x.shape
    r = np.linalg.norm(x, axis=1)
    if np.any(r <= 0):
        raise ChartError("cannot invert the chart at the origin")
    coords = np.empty((npts, n))
    coords[:, 0] = r
    rev = x[:, ::-1]  # rev[:, k] = x_{n-k}
    for k in range(n - 2):
        # tail norm of components strictly after x_{n-k} in the recursion
        rem = np.sqrt(np.sum(rev[:, k + 1:] ** 2, axis=1))
        coords[:, 1 + k] = np.arctan2(rem, rev[:, k])
    az = np.arctan2(rev[:, n - 1], rev[:, n - 2])
    coords[:, n - 1] = np.mod(az, 2.0 * np.pi)
    return coords[0] if single else coords


def unit_vector_jets(coords: np.ndarray) -> list[Jet]:
    """Jets of the unit-sphere components x_i / r as functions of the chart."""
    coords = as_coords(coords)
    n = coords.shape[1]
    cj = coordinate_jets(coords)
    angle_jets = cj[1:]
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


def chart_jacobian_jets(coords: np.ndarray) -> list[list]:
    """Jets of dx_c / d(chart_a), indexed [a][c], from ``unit_vector_jets``.

    Row 0 is dx_c/dr = x_c / r.  Each angle theta_a enters x_c / r at most
    once, as a sin or a cos factor, and only when c <= n - a (0-based c);
    advancing theta_a by pi/2 turns that factor into its derivative, so
    dx_c / d(theta_a) is r times x_c / r at the advanced angle, and zero for
    c > n - a.
    """
    coords = as_coords(coords)
    npts, n = coords.shape
    r = coordinate_jets(coords)[0]
    zero = constant(0.0, npts, n)
    rows = [unit_vector_jets(coords)]
    for a in range(1, n):
        advanced = coords.copy()
        advanced[:, a] += 0.5 * np.pi
        u = unit_vector_jets(advanced)
        rows.append([r * u[c] if c <= n - a else zero for c in range(n)])
    return rows


def angular_grid(n: int, nodes_per_angle) -> np.ndarray:
    """Uniform off-pole sampling grid of angle rows, shape (prod(nodes), n-1)."""
    if np.isscalar(nodes_per_angle):
        nodes_per_angle = [int(nodes_per_angle)] * (n - 1)
    axes = []
    for j in range(n - 2):
        k = nodes_per_angle[j]
        axes.append(np.linspace(POLE_MARGIN * 5, np.pi - POLE_MARGIN * 5, k))
    k = nodes_per_angle[n - 2]
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
