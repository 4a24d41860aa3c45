"""Sphere and annulus quadrature rules with deterministic node ordering.

Sphere rules integrate against the round measure d(omega) of the unit
(n-1)-sphere.  In u = cos(theta) a polar angle carrying sin^p(theta) has the
weight (1-u^2)^((p-1)/2): Gauss-Legendre for p = 1, Gauss-Jacobi with both
exponents (p-1)/2 for p >= 2, times a periodic trapezoid rule in the azimuth.
Every factor is a Gaussian rule for its own weight, so the product is exact
for polynomials in the Cartesian unit vector up to a degree that grows with the
node counts, in every dimension.  Summations use numpy's pairwise reduction
over a fixed node ordering, so repeated runs are bit-identical.

Pointwise work over the nodes of a rule runs in node blocks of ``NODE_BLOCK``
nodes (``map_node_blocks``) on a thread pool with one worker per usable CPU;
the blocks' arrays are joined in node order before any reduction, so results
do not depend on the block size or the number of workers.  The block size
bounds the working set: a block's largest arrays hold n^4 values per node, and
each worker holds one block's at a time.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

DEFAULT_POLAR_NODES = 48   # the 48 x 96 rule on S^2
# nodes per block of map_node_blocks.  The volume checks' peak memory is one
# block's working set (component jets, a level-2 apparatus, field jets) per
# worker; 896 is the smallest block of a sweep over 512..2048 whose volume
# benchmark wall time was no worse than 2048's (README, "Concurrency and
# performance")
NODE_BLOCK = 896

_node_pool = None          # made on the first call that has blocks to share


@dataclass(frozen=True)
class SphereRule:
    """Angle rows (M, n-1) and weights (M,) for the unit-sphere measure, with
    the polar and azimuth node counts of a product rule from ``sphere_rule``."""

    angles: np.ndarray
    weights: np.ndarray
    polar: int
    azimuth: int

    @property
    def node_count(self) -> int:
        return self.weights.size


def default_polar_nodes(n: int, polar: int = DEFAULT_POLAR_NODES) -> int:
    """The n = 3 default ``polar`` x 2 ``polar`` scaled to S^{n-1}: the largest
    P <= ``polar`` (and >= 4) whose P x ... x P x 2P rule has at most the
    2 ``polar``^2 nodes of the rule on S^2.  With the default 48: 48 at n = 3,
    13 at n = 4, 6 at n = 5; with 16: 6 at n = 4."""
    budget = 2 * polar ** 2
    while polar > 4 and 2 * polar ** (n - 1) > budget:
        polar -= 1
    return polar


def sphere_rule(n: int, polar_nodes: int, azimuth_nodes: int) -> SphereRule:
    """Product quadrature over S^{n-1} in the chart angles.

    Exact (up to machine precision) for smooth integrands in every dimension;
    polar directions use Gaussian nodes in u = cos(theta), so no node touches a
    chart pole.
    """
    if polar_nodes < 4 or azimuth_nodes < 4:
        raise ValueError("need at least 4 nodes per angle")
    axes, wts = [], []
    for j in range(n - 2):
        p = n - 2 - j  # sin^p(theta) d(theta) = (1-u^2)^{(p-1)/2} du
        if p == 1:     # leggauss, not roots_jacobi(N, 0, 0): keeps n = 3 bit-identical
            u, w = leggauss(polar_nodes)
        else:
            u, w = roots_jacobi(polar_nodes, 0.5 * (p - 1), 0.5 * (p - 1))
        axes.append(np.arccos(u[::-1]))
        wts.append(w[::-1])
    phi = np.arange(azimuth_nodes) * (2.0 * np.pi / azimuth_nodes)
    axes.append(phi)
    wts.append(np.full(azimuth_nodes, 2.0 * np.pi / azimuth_nodes))
    mesh = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=1)
    weight = wts[0]
    for w in wts[1:]:
        weight = np.multiply.outer(weight, w)
    return SphereRule(angles=angles, weights=weight.ravel(), polar=polar_nodes,
                      azimuth=azimuth_nodes)


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2)."""
    from scipy.special import gamma
    return float(2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0))


def gauss_segment(lo: float, hi: float, nodes: int):
    x, w = leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def radial_rule(breakpoints, nodes_per_segment):
    """Composite Gauss-Legendre rule over consecutive radial segments, with
    ``nodes_per_segment[i]`` nodes on the i-th."""
    breakpoints = list(breakpoints)
    rs, ws = [], []
    for (lo, hi), k in zip(zip(breakpoints[:-1], breakpoints[1:]), nodes_per_segment,
                           strict=True):
        r, w = gauss_segment(lo, hi, k)
        rs.append(r)
        ws.append(w)
    return np.concatenate(rs), np.concatenate(ws)


def sphere_coords_at_radius(rule: SphereRule, r: float) -> np.ndarray:
    """Coordinate rows (M, n) on the sphere of radius r."""
    m = rule.node_count
    return np.column_stack([np.full(m, float(r)), rule.angles])


@dataclass(frozen=True)
class VolumeRule:
    """Coordinate rows with weights for the raw chart measure dr * d(omega)."""

    coords: np.ndarray
    weights: np.ndarray         # combined radial x sphere weights


def volume_rule(n: int, breakpoints, nodes_per_segment, sphere: SphereRule) -> VolumeRule:
    r, wr = radial_rule(breakpoints, nodes_per_segment)
    m = sphere.node_count
    coords = np.empty((r.size * m, n))
    coords[:, 0] = np.repeat(r, m)
    coords[:, 1:] = np.tile(sphere.angles, (r.size, 1))
    weights = np.repeat(wr, m) * np.tile(sphere.weights, r.size)
    return VolumeRule(coords=coords, weights=weights)


def angular_jacobian(angles: np.ndarray) -> np.ndarray:
    """Density of d(omega) against plain d(theta): prod_j sin^{n-1-j}(theta_j)."""
    nang = angles.shape[1]
    n = nang + 1
    out = np.ones(angles.shape[0])
    for j in range(nang - 1):
        out = out * np.sin(angles[:, j]) ** (n - 2 - j)
    return out


def volume_weights(weights: np.ndarray, coords: np.ndarray,
                   sqrt_det: np.ndarray) -> np.ndarray:
    """Per-node weights for the metric volume measure at a volume rule's nodes.

    sqrt(det g) gives the density against dr * d(theta); the rule's
    ``weights`` carry dr * d(omega), so the angular Jacobian at ``coords`` is
    divided back out.
    """
    return weights * sqrt_det / angular_jacobian(coords[:, 1:])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:         # no affinity call on this platform
        return os.cpu_count() or 1


def map_node_blocks(fn, count: int) -> tuple:
    """Apply ``fn`` to consecutive blocks of ``count`` nodes and join the results.

    ``fn(rows)`` takes a slice of at most NODE_BLOCK nodes and returns a tuple
    of arrays whose first axis runs over those nodes; the result is the tuple
    of their concatenations in node order.  The blocks run on a thread pool
    with one worker per usable CPU, made on first use; with one usable CPU, or
    one block, they run inline.  Each block runs in a copy of the caller's
    context, so the caller's ``np.errstate`` holds in it.  The first exception
    in node order reaches the caller unchanged, and blocks not yet started
    are cancelled.
    """
    global _node_pool
    blocks = [slice(lo, min(lo + NODE_BLOCK, count))
              for lo in range(0, max(count, 1), NODE_BLOCK)]
    workers = _usable_cpus()
    if workers == 1 or len(blocks) == 1:
        parts = [fn(rows) for rows in blocks]
    else:
        if _node_pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _node_pool = ThreadPoolExecutor(workers, thread_name_prefix="node-block")
        futures = [_node_pool.submit(contextvars.copy_context().run, fn, rows)
                   for rows in blocks]
        try:
            parts = [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
