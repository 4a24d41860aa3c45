"""Metric families on the exterior chart, background frame, static potentials.

Every metric family exposes ``component_jets(coords)`` returning the chart
components g_ij with their first and second coordinate derivatives as one
tensor ``Jet`` (see ``jets``), unpacked as ``g, dg, ddg`` with index layout

    g[p, i, j],   dg[p, a, i, j] = d_a g_ij,   ddg[p, a, b, i, j] = d_a d_b g_ij.

Built-in families carry exact derivatives from the jet algebra; perturbed
families may fall back to nested central differences.
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .chart import as_coords, unit_vector_jets
from .fields import (RadialProfile, ScalarField, perturbation_from_dict,
                     profile_from_dict, require_finite, require_object)

__all__ = [
    "MetricSpec", "HyperbolicMetric", "SchwarzschildAdS", "ConformalMetric",
    "PerturbedMetric", "WarpedProductMetric", "DomainError",
    "hyperbolic_metric", "schwarzschild_ads", "frame_coefficients",
    "frame_components", "static_potential", "static_potential_basis",
    "metric_from_dict", "metric_to_dict",
]


class DomainError(ValueError):
    """Raised when a metric is evaluated outside its domain of definition."""


def _diagonal(entries) -> J.Jet:
    """Diagonal tensor jet (N, n, n) with the given scalar jets on the diagonal."""
    n = len(entries)
    out = J.Jet(*(np.zeros(x.shape + (n, n)) for x in entries[0]))
    for full, parts in zip(out, zip(*entries)):
        # stack the entries straight into a strided view of the diagonal
        np.stack(parts, axis=-1, out=full.reshape(full.shape[:-2] + (n * n,))[..., ::n + 1])
    return out


def _sphere_diagonal(angle_jets, prefactor: J.Jet) -> list:
    """Diagonal of a round-sphere block scaled by prefactor.

    angle_jets are the jets of the polar/azimuthal angles of the block; the
    k-th entry is prefactor * prod_{j<k} sin^2(theta_j).
    """
    entries = [prefactor]
    for aj in angle_jets[:-1]:
        s = J.jsin(aj)
        entries.append(entries[-1] * (s * s))
    return entries


class MetricSpec:
    """Base class: a coordinate metric family with evaluable derivatives."""

    family = "abstract"
    rotationally_symmetric = False
    analytic = True
    exterior_chart = True  # lives on the (r, angles) chart at infinity

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"dimension must be >= 3, got {n}")
        self.n = n

    # subclasses implement
    def component_jets(self, coords):
        raise NotImplementedError

    def domain_check(self, coords):
        return None

    def components(self, point) -> np.ndarray:
        g, _, _ = self.component_jets(as_coords(point))
        return g

    def params_dict(self) -> dict:
        return {}

    def radial_profiles(self, r):
        """(G_r, G_a, dG_r, dG_a) for rotationally symmetric families:
        g = G_r(r) dr^2 + G_a(r) h_round."""
        raise NotImplementedError(f"{self.family} has no radial reduction")


class HyperbolicMetric(MetricSpec):
    """Hyperboloid-model metric: dr^2/(1+r^2) + r^2 * (round sphere)."""

    family = "hyperbolic"
    rotationally_symmetric = True

    def component_jets(self, coords):
        cj = J.coordinate_jets(as_coords(coords))
        r = cj[0]
        return _diagonal([(1.0 + r * r).reciprocal(), *_sphere_diagonal(cj[1:], r * r)])

    def radial_profiles(self, r):
        r = np.asarray(r, dtype=float)
        G_r = 1.0 / (1.0 + r ** 2)
        dG_r = -2.0 * r / (1.0 + r ** 2) ** 2
        return G_r, r ** 2, dG_r, 2.0 * r


class SchwarzschildAdS(MetricSpec):
    """Static test family: g_rr = (1 + r^2 - 2m r^{2-n})^{-1}, round angular part.

    The frame deviation from the hyperbolic background decays like r^{-n},
    which is the borderline of the admissible decay window; reports downstream
    flag this family as "borderline decay".
    """

    family = "schwarzschild_ads"
    rotationally_symmetric = True
    borderline_decay = True

    def __init__(self, n: int, m: float):
        super().__init__(n)
        if m < 0:
            raise ValueError(f"mass parameter must be >= 0, got {m}")
        self.m = float(m)

    @property
    def horizon_radius(self) -> float:
        """Largest root of 1 + r^2 - 2m r^{2-n}; 0 when m = 0."""
        if self.m == 0.0:
            return 0.0
        from scipy.optimize import brentq
        f = lambda r: 1.0 + r ** 2 - 2.0 * self.m * r ** (2 - self.n)
        hi = max(1.0, (2.0 * self.m) ** (1.0 / self.n))
        while f(hi) <= 0:
            hi *= 2.0
        lo = hi * 1e-8
        while f(lo) >= 0:
            lo *= 0.5
            if lo < 1e-300:
                return 0.0
        return brentq(f, lo, hi, xtol=1e-15, rtol=1e-15)

    def _lapse(self, r):
        return 1.0 + r ** 2 - 2.0 * self.m * r ** (2.0 - self.n)

    def domain_check(self, coords):
        r = as_coords(coords)[:, 0]
        if np.any(self._lapse(r) <= 0.0):
            raise DomainError(
                f"schwarzschild_ads(n={self.n}, m={self.m}) evaluated at or inside "
                f"the horizon r = {self.horizon_radius:.6g}")

    def component_jets(self, coords):
        coords = as_coords(coords)
        self.domain_check(coords)
        cj = J.coordinate_jets(coords)
        r = cj[0]
        lapse = 1.0 + r * r - (2.0 * self.m) * r ** (2.0 - self.n)
        return _diagonal([lapse.reciprocal(), *_sphere_diagonal(cj[1:], r * r)])

    def params_dict(self):
        return {"m": self.m}

    def radial_profiles(self, r):
        r = np.asarray(r, dtype=float)
        f = self._lapse(r)
        df = 2.0 * r + 2.0 * self.m * (self.n - 2.0) * r ** (1.0 - self.n)
        return 1.0 / f, r ** 2, -df / f ** 2, 2.0 * r


class ConformalMetric(MetricSpec):
    """Radial conformal rescaling psi(r) * base of a rotationally symmetric base.

    ``profile`` is a ``RadialProfile``, a jet function of r giving psi.
    """

    family = "conformal"

    def __init__(self, base: MetricSpec, profile):
        super().__init__(base.n)
        self.base = base
        self.profile = profile
        self.rotationally_symmetric = base.rotationally_symmetric
        self.exterior_chart = base.exterior_chart

    def domain_check(self, coords):
        self.base.domain_check(coords)

    def component_jets(self, coords):
        coords = as_coords(coords)
        psi = self.profile.as_field().jet(coords)
        return psi * self.base.component_jets(coords)

    def params_dict(self):
        desc = getattr(self.profile, "describe", lambda: {"kind": "callable"})()
        return {"base": metric_to_dict(self.base), "profile": desc}

    def radial_profiles(self, r):
        if not self.base.rotationally_symmetric:
            raise NotImplementedError("conformal base is not rotationally symmetric")
        G_r, G_a, dG_r, dG_a = self.base.radial_profiles(r)
        psi, d1, _ = self.profile(np.asarray(r, dtype=float))
        return psi * G_r, psi * G_a, d1 * G_r + psi * dG_r, d1 * G_a + psi * dG_a


class PerturbedMetric(MetricSpec):
    """base + h for a symmetric 2-tensor field h supplying chart derivatives."""

    family = "perturbed"

    def __init__(self, base: MetricSpec, field):
        super().__init__(base.n)
        self.base = base
        self.field = field
        self.analytic = getattr(field, "analytic", True)
        self.exterior_chart = base.exterior_chart

    def domain_check(self, coords):
        self.base.domain_check(coords)

    def component_jets(self, coords):
        coords = as_coords(coords)
        return self.base.component_jets(coords) + self.field.component_arrays(coords)

    def params_dict(self):
        desc = getattr(self.field, "describe", lambda: {"kind": "callable"})()
        return {"base": metric_to_dict(self.base), "perturbation": desc}


class WarpedProductMetric(MetricSpec):
    """dt^2 + cosh(t)^2 * h on its own (t, factor-coordinates) chart.

    The factor h is a round unit (n-1)-sphere or the hyperboloid-model
    hyperbolic metric of dimension n-1.  This fixture does not live on the
    exterior chart and is exempt from asymptotic decay preconditions.
    """

    family = "warped_product"
    exterior_chart = False

    def __init__(self, n: int, factor: str = "round_sphere"):
        super().__init__(n)
        if factor not in ("round_sphere", "hyperbolic"):
            raise ValueError(f"unknown warped factor {factor!r}")
        self.factor = factor

    def component_jets(self, coords):
        coords = as_coords(coords)
        cj = J.coordinate_jets(coords)
        ch = J.jcosh(cj[0])
        warp = ch * ch
        entries = [J.constant(1.0, *coords.shape)]
        if self.factor == "round_sphere":
            entries += _sphere_diagonal(cj[1:], warp)
        else:
            rho = cj[1]
            entries += [warp * (1.0 + rho * rho).reciprocal(),
                        *_sphere_diagonal(cj[2:], warp * (rho * rho))]
        return _diagonal(entries)

    def params_dict(self):
        return {"factor": self.factor}


def hyperbolic_metric(n: int) -> HyperbolicMetric:
    """The hyperboloid-model background metric in dimension n >= 3."""
    return HyperbolicMetric(n)


def schwarzschild_ads(n: int, m: float) -> SchwarzschildAdS:
    return SchwarzschildAdS(n, m)


# -- background frame ---------------------------------------------------------

def frame_coefficients(coords) -> np.ndarray:
    """Diagonal coefficients c_a with e_a = c_a * d/d(coord_a), background-orthonormal.

    c_1 = sqrt(1+r^2); c_{k+1} = 1 / (r * prod_{j<k} sin(theta_j)).
    """
    coords = as_coords(coords)
    npts, n = coords.shape
    r = coords[:, 0]
    c = np.empty((npts, n))
    c[:, 0] = np.sqrt(1.0 + r ** 2)
    denom = r.copy()
    c[:, 1] = 1.0 / denom
    for k in range(2, n):
        denom = denom * np.sin(coords[:, k - 1])
        c[:, k] = 1.0 / denom
    return c


def frame_components(tensor: np.ndarray, coords) -> np.ndarray:
    """Components kappa(e_i, e_j) of a chart-coordinate symmetric 2-tensor.

    ``tensor`` has shape (..., n, n) matching the batch of coordinate rows.
    Works for any batch of extra leading derivative axes as well.
    """
    c = frame_coefficients(coords)
    extra = tensor.ndim - c.ndim - 1
    shape = c.shape[:1] + (1,) * extra
    ci = c.reshape(shape + (c.shape[1], 1))
    cj = c.reshape(shape + (1, c.shape[1]))
    return tensor * ci * cj


# -- static potentials --------------------------------------------------------

class StaticPotential(ScalarField):
    """Background static potential: V_0 = sqrt(1+r^2) or V_i = x_i."""

    def __init__(self, n: int, index: int):
        if not 0 <= index <= n:
            raise ValueError(f"potential index must lie in 0..{n}, got {index}")
        self.n = n
        self.index = index

        def jet_fn(coords):
            r = J.coordinate_jets(coords)[0]
            if index == 0:
                return J.jsqrt(1.0 + r * r)
            return r * unit_vector_jets(coords)[index - 1]

        super().__init__(jet_fn, asymptotic_tag=(
            "linear-growth", tuple(1.0 if k == index else 0.0 for k in range(n + 1))))

    def __repr__(self):
        return f"StaticPotential(n={self.n}, k={self.index})"


def static_potential(n: int, index: int) -> StaticPotential:
    return StaticPotential(n, index)


def static_potential_basis(n: int) -> list[StaticPotential]:
    """The n+1 background potentials (V_0, V_1, ..., V_n)."""
    return [StaticPotential(n, k) for k in range(n + 1)]


# -- serialization ------------------------------------------------------------

def metric_to_dict(spec: MetricSpec) -> dict:
    return {"family": spec.family, "n": spec.n, "params": spec.params_dict()}


def metric_from_dict(doc: dict) -> MetricSpec:
    """Build a metric from {"family", "n", "params"}; strict about keys."""
    require_object(doc, "metric spec")
    unknown = set(doc) - {"family", "n", "params"}
    if unknown:
        raise ValueError(f"unknown metric spec keys: {sorted(unknown)}")
    family = doc.get("family")
    n = doc.get("n")
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"metric spec needs integer n >= 3, got {n!r}")
    params = doc.get("params", {}) or {}
    require_object(params, "metric params")
    if family == "hyperbolic":
        if params:
            raise ValueError(f"hyperbolic takes no params, got {sorted(params)}")
        return HyperbolicMetric(n)
    if family == "schwarzschild_ads":
        unknown = set(params) - {"m"}
        if unknown:
            raise ValueError(f"unknown schwarzschild_ads params: {sorted(unknown)}")
        return SchwarzschildAdS(n, require_finite(params.get("m", 0.0),
                                                  "schwarzschild_ads m"))
    if family == "conformal":
        unknown = set(params) - {"base", "profile"}
        if unknown:
            raise ValueError(f"unknown conformal params: {sorted(unknown)}")
        base = metric_from_dict(params["base"])
        # declarative profiles describe the deviation of the factor from 1,
        # so the metric approaches its base at infinity
        deviation = profile_from_dict(params["profile"])
        return ConformalMetric(base, RadialProfile(lambda r: deviation.jet(r) + 1.0,
                                                   dict(params["profile"])))
    if family == "perturbed":
        unknown = set(params) - {"base", "perturbation"}
        if unknown:
            raise ValueError(f"unknown perturbed params: {sorted(unknown)}")
        base = metric_from_dict(params["base"])
        return PerturbedMetric(base, perturbation_from_dict(params["perturbation"], n))
    if family == "warped_product":
        unknown = set(params) - {"factor"}
        if unknown:
            raise ValueError(f"unknown warped_product params: {sorted(unknown)}")
        return WarpedProductMetric(n, params.get("factor", "round_sphere"))
    raise ValueError(f"unknown metric family {family!r}")
