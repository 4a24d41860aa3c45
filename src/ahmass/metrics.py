"""Metric families on the exterior chart, background frame, static potentials.

Every metric family exposes ``component_jets(coords, order)`` returning the
chart components g_ij with their coordinate derivatives up to ``order`` (1 or
2, default 2) as one tensor ``Jet`` (see ``jets``), unpacked as
``g, dg, ddg`` with index layout

    g[p, i, j],   dg[p, a, i, j] = d_a g_ij,   ddg[p, a, b, i, j] = d_a d_b g_ij.

At order 1 ``ddg`` is None and no second derivative is computed; g and dg are
bit-identical at both orders.  Every family carries exact derivatives from
the jet algebra, and passes the order down to the jets it is built from
(coordinate jets, profiles, perturbation fields).
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .chart import as_coords, unit_vector_jets
from .fields import (FINITE, ScalarField, check_document, integer_in,
                     perturbation_from_dict, profile_from_dict)

__all__ = [
    "MetricSpec", "HyperbolicMetric", "SchwarzschildAdS", "DerivedMetric",
    "ConformalMetric", "PerturbedMetric", "WarpedProductMetric", "DomainError",
    "hyperbolic_metric", "schwarzschild_ads", "frame_coefficients",
    "frame_components", "static_potential", "static_potential_basis",
    "metric_from_dict", "inner_truncation_radius",
]

# The largest n a metric spec may declare: the tests run n <= 5, and at n = 6
# the Riemann array that curvature reads at its 16,384 sample points holds
# 170 MB.
N_MAX = 6


class DomainError(ValueError):
    """Raised when a metric is evaluated outside its domain of definition."""


def _diagonal(entries) -> J.Jet:
    """Diagonal tensor jet (N, n, n) with the given scalar jets on the diagonal."""
    n = len(entries)

    def fill(parts):
        full = np.zeros(parts[0].shape + (n, n))
        # stack the entries straight into a strided view of the diagonal
        np.stack(parts, axis=-1, out=full.reshape(full.shape[:-2] + (n * n,))[..., ::n + 1])
        return full

    return J.combine(fill, entries)


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
    horizon_radius = 0.0   # no horizon: defined down to r = 0
    borderline_decay = False

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"dimension must be >= 3, got {n}")
        self.n = n

    # subclasses implement
    def component_jets(self, coords, order: int = 2):
        raise NotImplementedError

    def components(self, point) -> np.ndarray:
        return self.component_jets(as_coords(point), order=1).val

    def radial_profiles(self, r):
        """(G_r, G_a, dG_r, dG_a) for rotationally symmetric families:
        g = G_r(r) dr^2 + G_a(r) h_round."""
        raise NotImplementedError(f"{self.family} has no radial reduction")


class HyperbolicMetric(MetricSpec):
    """Hyperboloid-model metric: dr^2/(1+r^2) + r^2 * (round sphere)."""

    family = "hyperbolic"
    rotationally_symmetric = True

    def component_jets(self, coords, order: int = 2):
        cj = J.coordinate_jets(as_coords(coords), order)
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
        """1 + r^2 - 2m r^(2-n) for an array or a jet of r."""
        return 1.0 + r * r - (2.0 * self.m) * r ** (2.0 - self.n)

    def component_jets(self, coords, order: int = 2):
        coords = as_coords(coords)
        if np.any(self._lapse(coords[:, 0]) <= 0.0):
            raise DomainError(
                f"schwarzschild_ads(n={self.n}, m={self.m}) evaluated at or inside "
                f"the horizon r = {self.horizon_radius:.6g}")
        cj = J.coordinate_jets(coords, order)
        r = cj[0]
        return _diagonal([self._lapse(r).reciprocal(), *_sphere_diagonal(cj[1:], r * r)])

    def radial_profiles(self, r):
        r = np.asarray(r, dtype=float)
        f = self._lapse(r)
        df = 2.0 * r + 2.0 * self.m * (self.n - 2.0) * r ** (1.0 - self.n)
        return 1.0 / f, r ** 2, -df / f ** 2, 2.0 * r


class DerivedMetric(MetricSpec):
    """A metric built on ``base``: it takes the base's n, and it lives outside
    the base's horizon."""

    def __init__(self, base: MetricSpec):
        super().__init__(base.n)
        self.base = base
        self.horizon_radius = base.horizon_radius


class ConformalMetric(DerivedMetric):
    """Radial conformal rescaling psi(r) * base of a rotationally symmetric base.

    ``profile`` is a ``RadialProfile``, a jet function of r giving psi.
    """

    family = "conformal"

    def __init__(self, base: MetricSpec, profile):
        super().__init__(base)
        self.profile = profile
        self.rotationally_symmetric = base.rotationally_symmetric

    def component_jets(self, coords, order: int = 2):
        coords = as_coords(coords)
        psi = self.profile.as_field().jet(coords, order)
        return psi * self.base.component_jets(coords, order)

    def radial_profiles(self, r):
        G_r, G_a, dG_r, dG_a = self.base.radial_profiles(r)
        psi, d1, _ = self.profile(np.asarray(r, dtype=float))
        return psi * G_r, psi * G_a, d1 * G_r + psi * dG_r, d1 * G_a + psi * dG_a


class PerturbedMetric(DerivedMetric):
    """base + h for a symmetric 2-tensor field h supplying chart derivatives."""

    family = "perturbed"

    def __init__(self, base: MetricSpec, field):
        super().__init__(base)
        self.field = field

    def component_jets(self, coords, order: int = 2):
        coords = as_coords(coords)
        return (self.base.component_jets(coords, order)
                + self.field.component_arrays(coords, order))


class WarpedProductMetric(MetricSpec):
    """dt^2 + cosh(t)^2 * h on its own (t, factor-coordinates) chart.

    The factor h is a round unit (n-1)-sphere or the hyperboloid-model
    hyperbolic metric of dimension n-1.  This is ``rigidity-check``'s fixture,
    not a spec family: it does not live on the exterior chart.
    """

    family = "warped_product"

    def __init__(self, n: int, factor: str = "round_sphere"):
        super().__init__(n)
        if factor not in ("round_sphere", "hyperbolic"):
            raise ValueError(f"unknown warped factor {factor!r}")
        self.factor = factor

    def component_jets(self, coords, order: int = 2):
        coords = as_coords(coords)
        cj = J.coordinate_jets(coords, order)
        ch = J.jcosh(cj[0])
        warp = ch * ch
        entries = [J.constant(1.0, *coords.shape, order)]
        if self.factor == "round_sphere":
            entries += _sphere_diagonal(cj[1:], warp)
        else:
            rho = cj[1]
            entries += [warp * (1.0 + rho * rho).reciprocal(),
                        *_sphere_diagonal(cj[2:], warp * (rho * rho))]
        return _diagonal(entries)


def inner_truncation_radius(spec: MetricSpec, default: float = 0.1) -> float:
    """Default inner radius; pushed outside the horizon for horizon families."""
    return max(default, 1.3 * spec.horizon_radius)


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

        def jet_fn(coords, order):
            r = J.coordinate_jets(coords, order)[0]
            if index == 0:
                return J.jsqrt(1.0 + r * r)
            return r * unit_vector_jets(coords, order)[index - 1]

        super().__init__(jet_fn)

    def __repr__(self):
        return f"StaticPotential(n={self.n}, k={self.index})"


def static_potential(n: int, index: int) -> StaticPotential:
    return StaticPotential(n, index)


def static_potential_basis(n: int) -> list[StaticPotential]:
    """The n+1 background potentials (V_0, V_1, ..., V_n)."""
    return [StaticPotential(n, k) for k in range(n + 1)]


# -- spec documents ------------------------------------------------------------

def _params_tables(n: int) -> dict:
    """Each family's params rule table and required params at dimension n."""
    base = (lambda v: isinstance(v, dict) and v.get("n") == n,
            f"a metric spec with the same n = {n}")
    return {
        "hyperbolic": ({}, ()),
        "schwarzschild_ads": ({"m": FINITE}, ()),
        "conformal": ({"base": base, "profile": None}, ("base", "profile")),
        "perturbed": ({"base": base, "perturbation": None}, ("base", "perturbation")),
    }


FAMILIES = tuple(_params_tables(3))
SPEC_KEYS = {"family": (lambda v: isinstance(v, str) and v in FAMILIES,
                        f"one of {list(FAMILIES)}"),
             "n": integer_in(3, N_MAX), "params": None}


def metric_from_dict(doc: dict) -> MetricSpec:
    """Build a metric from {"family", "n", "params"}; strict about keys.

    A nested base has the n of the spec around it; a null params is empty.
    """
    check_document(doc, SPEC_KEYS, "metric", ("family", "n"))
    family, n = doc["family"], doc["n"]
    params = {} if doc.get("params") is None else doc["params"]
    table, required = _params_tables(n)[family]
    check_document(params, table, f"{family} params", required)
    if family == "hyperbolic":
        return HyperbolicMetric(n)
    if family == "schwarzschild_ads":
        return SchwarzschildAdS(n, float(params.get("m", 0.0)))
    base = metric_from_dict(params["base"])
    if family == "conformal":
        # declarative profiles give the deviation of the factor from 1,
        # so the metric approaches its base at infinity
        deviation = profile_from_dict(params["profile"])
        return ConformalMetric(base, deviation + 1.0)
    return PerturbedMetric(base, perturbation_from_dict(params["perturbation"], n))
