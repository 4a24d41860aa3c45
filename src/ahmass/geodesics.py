"""Geodesic integration, parallel transport, and growth classification.

Geodesics are integrated in chart coordinates, in arc-length parametrization,
by one adaptive embedded Runge-Kutta pass over [0, T].  The velocity is
parallel along its own geodesic, so the velocity and every carried vector obey
one transport equation, dF/dt = -Gamma(v, F) on the frame F = [v, X_1..X_k].
Nothing is projected back: the frame's orthonormality is left to the
integrator's tolerance (rtol = atol = 1e-12).  Whole fans of seeds are
integrated as one batched system so each right-hand-side call evaluates the
Christoffel symbols, all it reads of the metric, once for the whole fan; a
point where det g <= 0 stops the integration with DegenerateMetricError.  A
potential's growth along an integrated fan is the slope of log |V| against arc
length on each geodesic's tail half, fitted by ``decay.fit_log_slope``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .chart import as_coords
from .curvature import _connection
from .decay import fit_log_slope
from .metrics import MetricSpec


SAMPLE_STEP = 0.05
SEED_RADIUS = 2.0     # the sphere r = SEED_RADIUS that fans start from


@dataclass
class GeodesicSample:
    """Arc-length samples of one geodesic and of the vectors carried along it."""

    ts: np.ndarray
    coords: np.ndarray
    velocities: np.ndarray
    transported: np.ndarray | None  # (N, k, n)


def unit_radial_direction(spec: MetricSpec, point) -> np.ndarray:
    coords = as_coords(point)
    g = spec.components(coords)[0]
    v = np.zeros(coords.shape[1])
    v[0] = 1.0 / np.sqrt(g[0, 0])
    return v


def _fan_rhs(spec: MetricSpec, shape):
    """Right-hand side on the state (seeds, 2 + k, n): rows x, v, X_1..X_k."""

    def rhs(t, y):
        state = y.reshape(shape)
        x, frame = state[:, 0], state[:, 1:]
        if np.any(x[:, 0] <= 1e-8):
            raise ArithmeticError("geodesic reached the chart boundary r = 0")
        g, dg, _ = spec.component_jets(x, order=1)
        gamma = _connection(g, dg)[3]
        out = np.empty_like(state)
        out[:, 0] = frame[:, 0]
        out[:, 1:] = -np.einsum("pkij,pi,pmj->pmk", gamma, frame[:, 0], frame)
        return out.ravel()

    return rhs


def sample_times(T: float, sample_step: float = SAMPLE_STEP) -> np.ndarray:
    """Arc-length samples of a geodesic: the multiples of ``sample_step`` below T, and T."""
    ts = np.arange(int(np.ceil(T / sample_step - 1e-9))) * sample_step
    return np.append(ts, T)


def growth_tail(ts: np.ndarray) -> np.ndarray:
    """Mask of the samples in the tail half [T/2, T], where growth is fitted."""
    return ts >= ts[-1] / 2.0


def integrate_geodesic_fan(spec: MetricSpec, points, directions, T: float,
                           sample_step: float = SAMPLE_STEP,
                           transported: np.ndarray = None) -> list:
    """Integrate many geodesics at once; returns a GeodesicSample per seed.

    One ``solve_ivp`` call moves every seed's position and frame
    F = [v, X_1..X_k] over [0, T]; ``transported`` (optional, shape
    (n_seeds, k, n)) holds the vectors X carried by parallel transport, which
    with the unit velocity form an orthonormal frame at the start.  Samples
    lie at the multiples of ``sample_step`` below T, and at T, read from that
    one solve; the metric is evaluated only in its right-hand side.
    """
    pts = as_coords(points)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    n_seeds, n = pts.shape
    k_extra = 0 if transported is None else transported.shape[1]
    state = np.empty((n_seeds, 2 + k_extra, n))
    state[:, 0] = pts
    state[:, 1] = dirs
    if k_extra:
        state[:, 2:] = transported

    ts = sample_times(T, sample_step)
    out = solve_ivp(_fan_rhs(spec, state.shape), (0.0, T), state.ravel(),
                    method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-12)
    if not out.success:
        raise ArithmeticError(f"geodesic integration failed: {out.message}")
    # (seeds, samples, 2 + k, n)
    ys = np.moveaxis(out.y.reshape(state.shape + (ts.size,)), -1, 1)
    return [GeodesicSample(ts=ts, coords=ys[s, :, 0], velocities=ys[s, :, 1],
                           transported=ys[s, :, 2:] if k_extra else None)
            for s in range(n_seeds)]


def integrate_geodesic(spec: MetricSpec, point, direction, T: float,
                       sample_step: float = SAMPLE_STEP,
                       transported: np.ndarray = None) -> GeodesicSample:
    """Single arc-length geodesic; see integrate_geodesic_fan."""
    trans = None if transported is None else np.asarray(transported)[None]
    return integrate_geodesic_fan(spec, as_coords(point),
                                  np.asarray(direction)[None], T,
                                  sample_step=sample_step, transported=trans)[0]


def seed_fan(n: int, count: int = 64):
    """Base points on the sphere r = SEED_RADIUS shot radially outward, on an
    off-pole grid of max(2, round(count^(1/(n-1)))) nodes per chart angle."""
    per_axis = max(2, int(round(count ** (1.0 / (n - 1)))))
    axes = [np.linspace(0.25, np.pi - 0.25, per_axis) for _ in range(n - 2)]
    axes.append(np.linspace(0.0, 2.0 * np.pi, per_axis, endpoint=False))
    mesh = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=1)
    return np.column_stack([np.full(angles.shape[0], SEED_RADIUS), angles])


def axis_seed(n: int) -> np.ndarray:
    """Base point at r = SEED_RADIUS on the positive x_1 axis (equator of
    every polar angle)."""
    return np.array([SEED_RADIUS] + [np.pi / 2] * (n - 1))


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


def classify_growth(V, fan: list) -> list:
    """Classify |V| along a fan of radially shot geodesics: linear growth vs decay.

    Each sample's seed is its first point and T its last time.  The slope of
    log |V(gamma(t))| against arc length is fitted on the tail half of
    [0, T]: slopes inside ``GROWTH_BAND`` mean |V| is comparable to |x|,
    slopes at or below ``DECAY_SLOPE`` mean decay at the fitted rate, fields
    vanishing along the ray report infinite decay, anything else is labeled
    indeterminate.  A tail of fewer than 2 samples raises ArithmeticError.
    """
    out = []
    for sample in fan:
        seed = sample.coords[0]
        tail = growth_tail(sample.ts)
        vals = np.abs(V.value(sample.coords[tail]))
        if np.all(vals < 1e-280):
            out.append(SeedClassification(point=seed, label="decay",
                                          slope=-np.inf, decay_rate=np.inf))
            continue
        slope = fit_log_slope(sample.ts[tail], vals)
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
