"""Geodesic integration, parallel transport, and growth classification.

Geodesics are integrated in chart coordinates by an adaptive embedded
Runge-Kutta pair, in arc-length parametrization, with the velocity projected
back onto the unit sphere of the metric at fixed segment boundaries; the
projection magnitude is logged and must stay tiny.  Whole fans of seeds are
integrated as one batched system so the metric apparatus is shared per
right-hand-side call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .chart import as_coords
from .curvature import metric_apparatus
from .metrics import MetricSpec


SEGMENT = 0.25   # arc length between velocity renormalizations


class ChartExitError(RuntimeError):
    pass


@dataclass
class GeodesicSample:
    """Arc-length samples of one geodesic with diagnostics."""

    ts: np.ndarray
    coords: np.ndarray
    velocities: np.ndarray
    norm_drift: float
    comparability: float | None = None
    transported: np.ndarray | None = None  # (N, k, n)
    transport_drift: float = 0.0

    @property
    def radii(self):
        return self.coords[:, 0]


def unit_radial_direction(spec: MetricSpec, point) -> np.ndarray:
    coords = as_coords(point)
    g = spec.components(coords)[0]
    v = np.zeros(coords.shape[1])
    v[0] = 1.0 / np.sqrt(g[0, 0])
    return v


def _fan_rhs(spec: MetricSpec, n: int, n_seeds: int, k_extra: int):
    width = n * (2 + k_extra)
    radial_chart = spec.exterior_chart

    def rhs(t, y):
        state = y.reshape(n_seeds, width)
        x = state[:, :n]
        v = state[:, n:2 * n]
        if radial_chart and np.any(x[:, 0] <= 1e-8):
            raise ChartExitError("geodesic reached the chart boundary r = 0")
        app = metric_apparatus(spec, x, level=1)
        acc = -np.einsum("pkij,pi,pj->pk", app.gamma, v, v)
        out = np.empty_like(state)
        out[:, :n] = v
        out[:, n:2 * n] = acc
        for m in range(k_extra):
            X = state[:, (2 + m) * n:(3 + m) * n]
            out[:, (2 + m) * n:(3 + m) * n] = -np.einsum(
                "pkij,pi,pj->pk", app.gamma, v, X)
        return out.ravel()

    return rhs


def integrate_geodesic_fan(spec: MetricSpec, points, directions, T: float,
                           sample_step: float = 0.05,
                           transported: np.ndarray = None) -> list:
    """Integrate many geodesics at once; returns a GeodesicSample per seed.

    ``transported`` (optional) has shape (n_seeds, k, n): vectors carried by
    parallel transport and re-orthonormalized against the velocity at segment
    boundaries.
    """
    pts = as_coords(points)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    n_seeds, n = pts.shape
    k_extra = 0 if transported is None else transported.shape[1]
    state = np.zeros((n_seeds, n * (2 + k_extra)))
    state[:, :n] = pts
    state[:, n:2 * n] = dirs
    if transported is not None:
        for m in range(k_extra):
            state[:, (2 + m) * n:(3 + m) * n] = transported[:, m]

    rhs = _fan_rhs(spec, n, n_seeds, k_extra)
    n_segments = int(np.ceil(T / SEGMENT - 1e-9))
    ts_all, xs_all, vs_all = [], [], []
    trans_all = [] if k_extra else None
    drift_max = 0.0
    transport_drift = 0.0
    t0 = 0.0
    for seg in range(n_segments):
        t1 = min(T, t0 + SEGMENT)
        # sample on global multiples of sample_step so the grid stays uniform
        # across segment boundaries
        k0 = int(np.ceil(t0 / sample_step - 1e-9))
        k1 = int(np.ceil(t1 / sample_step - 1e-9))
        t_eval = np.arange(k0, k1) * sample_step
        if seg == n_segments - 1:
            t_eval = np.append(t_eval, t1)
        out = solve_ivp(rhs, (t0, t1), state.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-12, dense_output=True)
        if not out.success:
            raise ChartExitError(f"geodesic integration failed: {out.message}")
        for tk in t_eval:
            snap = out.sol(tk).reshape(n_seeds, -1)
            ts_all.append(tk)
            xs_all.append(snap[:, :n].copy())
            vs_all.append(snap[:, n:2 * n].copy())
            if k_extra:
                trans_all.append(
                    snap[:, 2 * n:].reshape(n_seeds, k_extra, n).copy())
        state = out.sol(t1).reshape(n_seeds, -1).copy()

        # velocity renormalization and transport re-orthonormalization
        x = state[:, :n]
        v = state[:, n:2 * n]
        g = metric_apparatus(spec, x, level=1).g
        norms = np.sqrt(np.einsum("pi,pij,pj->p", v, g, v))
        drift_max = max(drift_max, float(np.max(np.abs(norms ** 2 - 1.0))))
        v /= norms[:, None]
        if k_extra:
            for m in range(k_extra):
                X = state[:, (2 + m) * n:(3 + m) * n]
                proj = np.einsum("pi,pij,pj->p", X, g, v)
                X_new = X - proj[:, None] * v
                for mm in range(m):
                    Y = state[:, (2 + mm) * n:(3 + mm) * n]
                    cross = np.einsum("pi,pij,pj->p", X_new, g, Y)
                    X_new = X_new - cross[:, None] * Y
                xnorm = np.sqrt(np.einsum("pi,pij,pj->p", X_new, g, X_new))
                adjust = np.sqrt(np.einsum("pi,pij,pj->p", X_new - X, g,
                                           X_new - X)) + np.abs(xnorm - 1.0)
                transport_drift = max(transport_drift, float(np.max(adjust)))
                state[:, (2 + m) * n:(3 + m) * n] = X_new / xnorm[:, None]
        t0 = t1

    ts = np.asarray(ts_all)
    xs = np.stack(xs_all, axis=0)   # (N_t, n_seeds, n)
    vs = np.stack(vs_all, axis=0)
    results = []
    for s in range(n_seeds):
        comp = None
        if spec.exterior_chart:
            radii = xs[:, s, 0]
            ratio = radii * np.exp(-ts)
            comp = float(max(np.max(ratio), np.max(1.0 / ratio)))
        trans = None
        if k_extra:
            trans = np.stack([tr[s] for tr in trans_all], axis=0)
        results.append(GeodesicSample(
            ts=ts, coords=xs[:, s], velocities=vs[:, s], norm_drift=drift_max,
            comparability=comp, transported=trans,
            transport_drift=transport_drift))
    return results


def integrate_geodesic(spec: MetricSpec, point, direction, T: float,
                       sample_step: float = 0.05,
                       transported: np.ndarray = None) -> GeodesicSample:
    """Single arc-length geodesic; see integrate_geodesic_fan."""
    trans = None if transported is None else np.asarray(transported)[None]
    return integrate_geodesic_fan(spec, as_coords(point),
                                  np.asarray(direction)[None], T,
                                  sample_step=sample_step, transported=trans)[0]


def seed_fan(n: int, count: int = 64, r0: float = 2.0):
    """Base points on the sphere r = r0 shot radially outward; off-pole grid."""
    per_axis = max(2, int(round(count ** (1.0 / (n - 1)))))
    axes = [np.linspace(0.25, np.pi - 0.25, per_axis) for _ in range(n - 2)]
    axes.append(np.linspace(0.0, 2.0 * np.pi, per_axis, endpoint=False))
    mesh = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=1)
    points = np.column_stack([np.full(angles.shape[0], r0), angles])
    return points


def axis_seed(n: int, r0: float = 2.0) -> np.ndarray:
    """Base point on the positive x_1 axis (equator of every polar angle)."""
    return np.array([r0] + [np.pi / 2] * (n - 1))


@dataclass
class SeedClassification:
    point: np.ndarray
    label: str
    slope: float
    decay_rate: float | None = None

    def to_dict(self):
        return {"point": list(map(float, self.point)), "label": self.label,
                "slope": self.slope, "decay_rate": self.decay_rate}


GROWTH_BAND = (0.8, 1.2)
DECAY_SLOPE = -0.1


def classify_growth(spec: MetricSpec, V, seeds, T: float = 9.0,
                    fan: list = None) -> list:
    """Classify |V| along radially shot geodesics: linear growth vs decay.

    Fits the slope of log |V(gamma(t))| against arc length on the tail half of
    [0, T]: slopes inside ``GROWTH_BAND`` mean |V| is comparable to |x|,
    slopes at or below ``DECAY_SLOPE`` mean decay at the fitted rate, fields
    vanishing along the ray report infinite decay, anything else is labeled
    indeterminate.  A precomputed ``fan`` of geodesics over the same seeds may
    be passed when several potentials share one seed set.
    """
    seeds = as_coords(seeds)
    if fan is None:
        dirs = np.stack([unit_radial_direction(spec, p) for p in seeds])
        fan = integrate_geodesic_fan(spec, seeds, dirs, T)
    out = []
    for seed, sample in zip(seeds, fan):
        tail = sample.ts >= T / 2.0
        vals = np.abs(V.value(sample.coords[tail]))
        if np.all(vals < 1e-280):
            out.append(SeedClassification(point=seed, label="decay",
                                          slope=-np.inf, decay_rate=np.inf))
            continue
        slope = float(np.polyfit(sample.ts[tail],
                                 np.log(np.maximum(vals, 1e-300)), 1)[0])
        if GROWTH_BAND[0] <= slope <= GROWTH_BAND[1]:
            out.append(SeedClassification(point=seed, label="linear-growth",
                                          slope=slope))
        elif slope <= DECAY_SLOPE:
            out.append(SeedClassification(point=seed, label="decay",
                                          slope=slope, decay_rate=-slope))
        else:
            out.append(SeedClassification(point=seed, label="indeterminate",
                                          slope=slope))
    return out
