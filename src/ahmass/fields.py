"""Scalar and symmetric 2-tensor fields with chart derivatives.

Fields either carry exact jets (built with the jet algebra) or wrap a plain
callable and differentiate it by nested central differences with the step
rule delta_r = 1e-5 * (1 + r) in the radial coordinate and 1e-5 in the
angles.  Tensor fields expose ``component_arrays(coords)``, a tensor ``Jet``
unpacked as ``h, dh, ddh`` with the same index layout as metric families.
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .chart import as_coords, chart_jacobian_jets, unit_vector_jets

FD_ANGLE_STEP = 1e-5
FD_RADIAL_SCALE = 1e-5


# -- scalar fields -------------------------------------------------------------

class ScalarField:
    """Scalar field backed by a jet-valued function of coordinate rows."""

    def __init__(self, jet_fn, support=None, asymptotic_tag=("compact",)):
        self._jet_fn = jet_fn
        self.support = support
        self.asymptotic_tag = asymptotic_tag

    def jet(self, coords) -> J.Jet:
        return self._jet_fn(as_coords(coords))

    def value(self, coords):
        return self.jet(coords).val

    def __add__(self, other):
        return ScalarField(lambda c: self.jet(c) + other.jet(c),
                           asymptotic_tag=self.asymptotic_tag)

    def __mul__(self, scale: float):
        return ScalarField(lambda c: self.jet(c) * scale, support=self.support,
                           asymptotic_tag=self.asymptotic_tag)

    __rmul__ = __mul__


def constant_field(value: float) -> ScalarField:
    return ScalarField(lambda c: J.constant(value, c.shape[0], c.shape[1]))


def radial_bump_field(r_lo: float, r_hi: float, amplitude: float = 1.0) -> ScalarField:
    """Smooth compactly supported radial bump on the annulus (r_lo, r_hi)."""
    def fn(coords):
        r = J.coordinate_jets(coords)[0]
        return J.smooth_bump(r, r_lo, r_hi) * amplitude
    return ScalarField(fn, support=(r_lo, r_hi), asymptotic_tag=("compact",))


def poly_bump_jet(rjet: J.Jet, lo: float, hi: float) -> J.Jet:
    """(1 - t^2)^7 on the affine image of (lo, hi), zero outside.

    Polynomial inside the support, C^6 across the edges: quadrature
    segments aligned with (lo, hi) integrate it exactly, which keeps the
    integration-by-parts self-tests at machine accuracy.
    """
    t = (rjet - 0.5 * (lo + hi)) * (2.0 / (hi - lo))
    inside = np.abs(t.val) < 1.0
    w = 1.0 - t * t
    wp = w
    for _ in range(6):
        wp = wp * w
    zero = J.constant(0.0, t.val.shape[0], t.dim)
    return J.jet_where(inside, wp, zero)


def random_compact_scalar(rng, r_lo: float, r_hi: float, n: int) -> ScalarField:
    """Polynomial radial bump times a random quadratic in the unit components."""
    c0 = rng.uniform(-1, 1)
    c1 = rng.uniform(-1, 1, size=n)
    c2 = rng.uniform(-1, 1, size=(n, n))
    c2 = 0.5 * (c2 + c2.T)

    def fn(coords):
        u = unit_vector_jets(coords)
        poly = J.constant(c0, coords.shape[0], coords.shape[1])
        for i in range(n):
            poly = poly + c1[i] * u[i]
            for k in range(n):
                poly = poly + c2[i, k] * (u[i] * u[k])
        r = J.coordinate_jets(coords)[0]
        return poly_bump_jet(r, r_lo, r_hi) * poly

    return ScalarField(fn, support=(r_lo, r_hi), asymptotic_tag=("compact",))


class RadialProfile:
    """Radial function psi(r) wrapping a jet function of the radius jet.

    ``jet(r)`` maps a scalar jet of r to the jet of psi(r), so products and
    sums of profiles are jet products and sums, and ``as_field`` evaluates it
    on the chart's r coordinate.  ``profile(r)`` returns the arrays
    (psi, psi', psi'') at radii r for the radial reductions.
    """

    def __init__(self, jet_fn, description=None):
        self._jet_fn = jet_fn
        self._description = description or {"kind": "callable"}

    def jet(self, r: J.Jet) -> J.Jet:
        return self._jet_fn(r)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self.jet(J.coordinate_jets(r[:, None])[0])
        return out.val, out.grad[:, 0], out.hess[:, 0, 0]

    def describe(self):
        return self._description

    def __mul__(self, other: "RadialProfile"):
        return RadialProfile(lambda r: self.jet(r) * other.jet(r), {"kind": "product"})

    def __add__(self, other):
        if isinstance(other, RadialProfile):
            return RadialProfile(lambda r: self.jet(r) + other.jet(r), {"kind": "sum"})
        shift = float(other)
        return RadialProfile(lambda r: self.jet(r) + shift, {"kind": "shifted"})

    __radd__ = __add__

    def as_field(self) -> ScalarField:
        return ScalarField(lambda c: self.jet(J.coordinate_jets(c)[0]),
                           asymptotic_tag=("radial",))


def constant_profile(value: float) -> RadialProfile:
    return RadialProfile(lambda r: J.constant(value, len(r.val), r.dim),
                         {"kind": "constant", "value": value})


def power_tail_profile(amp: float, rate: float, onset: float = 5.0) -> RadialProfile:
    """amp * (1 - exp(-(r/onset)^4)) * r^(-rate): smooth everywhere, ~ r^(-rate) tail."""
    def jet_fn(r):
        return J.smooth_switch(r, onset) * (r ** (-rate)) * amp
    return RadialProfile(jet_fn, {"kind": "power_tail", "amp": amp, "rate": rate,
                                  "onset": onset})


def require_object(doc, what: str):
    """A declarative spec must be a JSON object (a dict)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {type(doc).__name__}")


def require_finite(value, what: str) -> float:
    """A declarative spec's real parameter must be a finite number."""
    try:
        value = float(value)
    except OverflowError:      # an integer beyond the float range
        value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def profile_from_dict(doc: dict) -> RadialProfile:
    require_object(doc, "radial profile")
    kind = doc.get("kind")
    if kind == "constant":
        extra = set(doc) - {"kind", "value"}
        if extra:
            raise ValueError(f"unknown profile keys: {sorted(extra)}")
        return constant_profile(require_finite(doc["value"], "profile value"))
    if kind == "power_tail":
        extra = set(doc) - {"kind", "amp", "rate", "onset"}
        if extra:
            raise ValueError(f"unknown profile keys: {sorted(extra)}")
        return power_tail_profile(require_finite(doc["amp"], "power_tail amp"),
                                  require_finite(doc["rate"], "power_tail rate"),
                                  require_finite(doc.get("onset", 5.0), "power_tail onset"))
    raise ValueError(f"unknown radial profile kind {kind!r}")


# -- symmetric 2-tensor fields ---------------------------------------------------

class SymmetricTensorField:
    """Symmetric 2-tensor field backed by a tensor-jet function of coordinate rows."""

    analytic = True

    def __init__(self, jet_fn, support=None, description=None):
        self._jet_fn = jet_fn
        self.support = support
        self._description = description or {"kind": "callable"}

    def component_arrays(self, coords) -> J.Jet:
        return self._jet_fn(as_coords(coords))

    def describe(self):
        return self._description


class ScaledMetricField(SymmetricTensorField):
    """h = u * g for a scalar field u and metric spec g (used by trace identities)."""

    def __init__(self, spec, u: ScalarField):
        super().__init__(lambda c: u.jet(c) * spec.component_jets(c), support=u.support)


class FrameComponentField(SymmetricTensorField):
    """Tensor given by its frame components kappa(e_i, e_j) as a tensor jet.

    Chart components are h_ab = kappa_ab / (c_a c_b) with the background frame
    coefficients; the reciprocal coefficients 1/c_1 = (1+r^2)^(-1/2) and
    1/c_{k+1} = r prod_{j<k} sin(theta_j) are built as jets.
    """

    @staticmethod
    def _inv_frame_jets(coords):
        cj = J.coordinate_jets(coords)
        r = cj[0]
        inv = [(1.0 + r * r) ** -0.5]
        running = r
        inv.append(running)
        for k in range(2, coords.shape[1]):
            running = running * J.jsin(cj[k - 1])
            inv.append(running)
        return inv

    def component_arrays(self, coords):
        coords = as_coords(coords)
        inv = J.stack(self._inv_frame_jets(coords))
        return self._jet_fn(coords) * J.contract("a,b->ab", inv, inv)


class FiniteDifferenceTensorField(SymmetricTensorField):
    """Wraps a components callable; derivatives by nested central differences."""

    analytic = False

    def __init__(self, n: int, comps_fn, support=None, description=None):
        self.n = n
        self.comps_fn = comps_fn
        self.support = support
        self._description = description or {"kind": "finite_difference"}

    def _steps(self, coords):
        steps = np.full(coords.shape, FD_ANGLE_STEP)
        steps[:, 0] = FD_RADIAL_SCALE * (1.0 + coords[:, 0])
        return steps

    def component_arrays(self, coords):
        coords = as_coords(coords)
        npts, n = coords.shape
        f0 = np.asarray(self.comps_fn(coords))
        steps = self._steps(coords)
        dh = np.zeros((npts, n, n, n))
        ddh = np.zeros((npts, n, n, n, n))
        shifted = {}

        def ev(offsets):
            key = tuple(offsets.items())
            if key not in shifted:
                pts = coords.copy()
                for axis, mult in offsets.items():
                    pts[:, axis] += mult * steps[:, axis]
                shifted[key] = np.asarray(self.comps_fn(pts))
            return shifted[key]

        for a in range(n):
            da = steps[:, a][:, None, None]
            dh[:, a] = (ev({a: 1}) - ev({a: -1})) / (2.0 * da)
            ddh[:, a, a] = (ev({a: 1}) - 2.0 * f0 + ev({a: -1})) / da ** 2
            for b in range(a + 1, n):
                db = steps[:, b][:, None, None]
                mixed = (ev({a: 1, b: 1}) - ev({a: 1, b: -1})
                         - ev({a: -1, b: 1}) + ev({a: -1, b: -1})) / (4.0 * da * db)
                ddh[:, a, b] = mixed
                ddh[:, b, a] = mixed
        return J.Jet(f0, dh, ddh)


class AxisConcentratedPerturbation(FrameComponentField):
    """Decaying frame bump concentrated around a Cartesian axis direction.

    kappa(e_1, e_1) = amp * switch(r) * r^(-rate) * exp(width * (x_hat . axis - 1));
    all other frame components vanish.  Rotating the chart by R maps this field
    to the same field with axis R . axis, which is what the mass-vector
    equivariance checks exercise.
    """

    def __init__(self, n: int, axis, amp: float = 1e-2, rate: float = 2.5,
                 width: float = 6.0, onset: float = 4.0):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        self.axis, self.amp, self.rate = axis, float(amp), float(rate)
        self.width, self.onset = float(width), float(onset)

        def kappa(coords):
            r = J.coordinate_jets(coords)[0]
            u = unit_vector_jets(coords)
            dot = sum((axis[i] * u[i] for i in range(n)), J.constant(0.0, *coords.shape))
            radial = J.smooth_switch(r, onset) * (r ** (-rate)) * amp
            k11 = radial * J.jexp((dot - 1.0) * width)
            zero = J.constant(0.0, *coords.shape)
            return J.stack([[k11 if i == k == 0 else zero for k in range(n)]
                            for i in range(n)])

        super().__init__(kappa, description={"kind": "axis_bump", "axis": list(axis),
                                             "amp": amp, "rate": rate, "width": width,
                                             "onset": onset})

    def rotated(self, R: np.ndarray) -> "AxisConcentratedPerturbation":
        return AxisConcentratedPerturbation(len(self.axis), R @ self.axis,
                                            self.amp, self.rate, self.width,
                                            self.onset)


class CartesianTensorField(SymmetricTensorField):
    """Tensor prescribed by Cartesian components H_cd(x), pulled back to the chart.

    Chart components are h_ab = J_ac J_bd H_cd with J_ac = dx_c/d(chart_a); the
    Jacobian jets are exact (``chart.chart_jacobian_jets``), so a field smooth
    in Cartesian terms stays smooth across the chart poles.
    """

    def component_arrays(self, coords):
        coords = as_coords(coords)
        jac = J.stack(chart_jacobian_jets(coords))
        return J.contract("ac,bc->ab", jac,
                          J.contract("bd,cd->bc", jac, self._jet_fn(coords)))


def random_compact_tensor(rng, n: int, r_lo: float, r_hi: float,
                          amplitude: float = 1.0) -> CartesianTensorField:
    """Random symmetric Cartesian-component bump supported in (r_lo, r_hi).

    Entries carry a (1+r^2)^(-1) factor so that ``amplitude`` calibrates the
    size of the background-frame components rather than the Euclidean ones
    (frame components of a Euclidean-bounded tensor grow like r^2).
    """
    coeff = rng.uniform(-1, 1, size=(n, n))
    coeff = 0.5 * (coeff + coeff.T)
    lin = rng.uniform(-1, 1, size=(n, n, n))
    # H_cd = coeff_cd + lin_cdq x_q/r for c <= d, mirrored below the diagonal
    lin = np.where(np.triu(np.ones((n, n), bool))[:, :, None], lin,
                   lin.transpose(1, 0, 2))
    weights = np.concatenate([coeff[:, :, None], lin], axis=2)

    def H(coords):
        r = J.coordinate_jets(coords)[0]
        radial = poly_bump_jet(r, r_lo, r_hi) * amplitude * (1.0 + r * r).reciprocal()
        basis = J.stack([J.constant(1.0, *coords.shape), *unit_vector_jets(coords)])
        # a constant linear map acts on each derivative order alike
        return J.Jet(*(np.einsum("...q,cdq->...cd", x, weights)
                       for x in radial * basis))

    return CartesianTensorField(H, support=(r_lo, r_hi),
                                description={"kind": "random_cartesian_bump"})


def perturbation_from_dict(doc: dict, n: int) -> SymmetricTensorField:
    require_object(doc, "perturbation")
    kind = doc.get("kind")
    if kind == "axis_bump":
        extra = set(doc) - {"kind", "axis", "amp", "rate", "width", "onset"}
        if extra:
            raise ValueError(f"unknown perturbation keys: {sorted(extra)}")
        axis = np.asarray(doc["axis"], dtype=float)
        if axis.shape != (n,) or not np.all(np.isfinite(axis)) or not np.any(axis):
            raise ValueError(f"axis_bump axis must be {n} finite numbers, not all "
                             f"zero; got {doc['axis']!r}")
        return AxisConcentratedPerturbation(
            n, axis, *(require_finite(doc.get(key, default), f"axis_bump {key}")
                       for key, default in (("amp", 1e-2), ("rate", 2.5),
                                            ("width", 6.0), ("onset", 4.0))))
    raise ValueError(f"unknown perturbation kind {kind!r}")
