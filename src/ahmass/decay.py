"""Decay-rate estimation and sampled verification of asymptotic hyperbolicity.

Decay rates are fitted by least squares on log(sup-over-angles |field|)
against log r, with the convention that a field behaving like r^(-q) reports
exponent q.  Membership checks are sample-level only: sup norms of frame
components and their covariant frame derivatives over an angular grid, no
Holder seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .chart import angular_grid
from .curvature import metric_apparatus, nabla_2tensor, nabla2_2tensor
from .metrics import (HyperbolicMetric, MetricSpec, frame_coefficients,
                      frame_components)

ZERO_THRESHOLD = 1e-290


@dataclass
class DecayFit:
    """Fitted power-law decay of sup-over-angles samples along a radius ladder."""

    radii: np.ndarray
    samples: np.ndarray
    fitted_exponent: float
    fit_residual: float
    exact_zero: bool = False

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        if radii.size < 3:
            raise ValueError("decay fit needs at least 3 radii")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radius ladder must be strictly increasing")


def fit_log_slope(radii, values):
    """Least-squares slope and rms residual of log(values) vs log(radii)."""
    x = np.log(np.asarray(radii, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    coeffs, res = np.polyfit(x, y, 1), None
    fit = np.polyval(coeffs, x)
    res = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(coeffs[0]), res


def estimate_decay_rate(field_eval, radii, n: int, nodes_per_angle=32) -> DecayFit:
    """Fit the decay exponent of a field along a radius ladder.

    ``field_eval(coords)`` returns per-point values whose trailing axes (if
    any) are reduced by max(abs(.)); the sup over a fixed off-pole angular
    grid is taken at each radius.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise ValueError("decay fit needs at least 3 radii")
    if radii[-1] / radii[0] < 10.0 - 1e-9:
        raise ValueError("radius ladder should span at least one decade")
    grid = angular_grid(n, nodes_per_angle)
    sups = np.empty(radii.size)
    for i, r in enumerate(radii):
        coords = np.column_stack([np.full(grid.shape[0], r), grid])
        vals = np.abs(np.asarray(field_eval(coords)))
        sups[i] = vals.reshape(vals.shape[0], -1).max()
    if np.all(sups < ZERO_THRESHOLD):
        return DecayFit(radii=radii, samples=sups, fitted_exponent=np.inf,
                        fit_residual=0.0, exact_zero=True)
    slope, resid = fit_log_slope(radii, np.maximum(sups, 1e-300))
    return DecayFit(radii=radii, samples=sups, fitted_exponent=-slope,
                    fit_residual=resid)


@dataclass
class AHCondition:
    name: str
    passed: bool
    required: float
    fitted_exponent: float | None = None
    exact_zero: bool = False

    def to_dict(self):
        return {"name": self.name, "pass": self.passed, "required": self.required,
                "fitted_exponent": self.fitted_exponent, "exact_zero": self.exact_zero}


@dataclass
class AHReport:
    """Sampled verification of the defining decay conditions."""

    q_claimed: float
    conditions: list
    borderline: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.conditions)

    def to_dict(self):
        return {"q_claimed": self.q_claimed, "borderline": self.borderline,
                "pass": self.passed,
                "conditions": [c.to_dict() for c in self.conditions]}


def _deviation_sup_fields(spec: MetricSpec, background: MetricSpec):
    """Evaluators for |g-b|, |nabla(g-b)|, |nabla^2(g-b)| in frame components."""
    def ev(coords):
        app = metric_apparatus(background, coords, level=2)
        h = spec.component_jets(coords) - J.Jet(app.g, app.dg, app.ddg)
        nh = nabla_2tensor(app.gamma, h.val, h.grad)
        nnh = nabla2_2tensor(app, h)
        c = frame_coefficients(coords)
        out0 = frame_components(h.val, coords)
        out1 = frame_components(nh, coords) * c[:, :, None, None]
        out2 = (frame_components(nnh, coords) * c[:, :, None, None, None]
                * c[:, None, :, None, None])
        return out0, out1, out2
    return ev


def verify_ah(spec: MetricSpec, q_claimed: float, radii, nodes_per_angle=None,
              slack: float = 0.1) -> AHReport:
    """Check sampled decay of g - b (two derivatives) and of R_g + n(n-1).

    q_claimed must lie in (n/2, n]; the endpoint q = n is accepted with a
    borderline flag since the key static test family decays exactly at that
    rate.
    """
    n = spec.n
    if not (n / 2.0 < q_claimed <= n + 1e-12):
        raise ValueError(f"q_claimed must lie in (n/2, n], got {q_claimed}")
    borderline = q_claimed > n - 1e-9 or getattr(spec, "borderline_decay", False)
    if nodes_per_angle is None:
        nodes_per_angle = {3: 32, 4: 12}.get(n, 8)
    background = HyperbolicMetric(n)
    ev = _deviation_sup_fields(spec, background)
    radii = np.asarray(radii, dtype=float)
    grid = angular_grid(n, nodes_per_angle)

    sups = np.zeros((radii.size, 3))
    scal = np.zeros(radii.size)
    for i, r in enumerate(radii):
        coords = np.column_stack([np.full(grid.shape[0], r), grid])
        h0, h1, h2 = ev(coords)
        for k, arr in enumerate((h0, h1, h2)):
            sups[i, k] = np.abs(arr).max()
        app = metric_apparatus(spec, coords, level=2)
        scal[i] = np.abs(app.scalar + n * (n - 1)).max()

    conditions = []
    names = ["metric_deviation", "first_derivative", "second_derivative"]
    for k, name in enumerate(names):
        col = sups[:, k]
        if np.all(col < ZERO_THRESHOLD):
            conditions.append(AHCondition(name=name, passed=True,
                                          required=q_claimed - slack,
                                          exact_zero=True))
            continue
        slope, _ = fit_log_slope(radii, np.maximum(col, 1e-300))
        conditions.append(AHCondition(name=name, passed=-slope >= q_claimed - slack,
                                      required=q_claimed - slack,
                                      fitted_exponent=-slope))
    if np.all(scal < ZERO_THRESHOLD) or np.all(scal < 1e-10):
        conditions.append(AHCondition(name="scalar_curvature", passed=True,
                                      required=float(n), exact_zero=True))
    else:
        slope, _ = fit_log_slope(radii, np.maximum(scal, 1e-300))
        conditions.append(AHCondition(name="scalar_curvature",
                                      passed=-slope > n, required=float(n),
                                      fitted_exponent=-slope))
    return AHReport(q_claimed=q_claimed, conditions=conditions,
                    borderline=borderline)
