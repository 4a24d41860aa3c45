"""Scalar and symmetric 2-tensor fields with chart derivatives.

Fields carry exact jets built with the jet algebra.  Scalar fields expose
``jet(coords, order)`` and tensor fields ``component_arrays(coords, order)``,
a tensor ``Jet`` unpacked as ``h, dh, ddh`` with the same index layout as
metric families.  ``order`` (1 or 2, default 2) is the jet order asked for:
a field is backed by a jet function of ``(coords, order)`` that builds its
jets from coordinate jets of that order, so a first-order request computes
no Hessian and returns ``hess = None``.  Radial profiles take the jet of r
itself, so they inherit its order.

The random compactly supported fields of the duality and first-variation
checks are constant linear combinations of jets that depend only on the
nodes and the support, and each is a radial factor times an angular one: a
``CompactBasis`` holds those jets once per rule, on the rule's distinct radii
and distinct directions, and each field's ``evaluate(basis)`` applies its own
coefficients to the angular jets before one product assembles the node jet.
``basis.node_jets(field)`` applies the coefficients once and assembles any
block of nodes on demand: both volume checks, ``duality_residual`` and
``first_variation_check``, take their fields this way, as jets of node
``rows``.  ``node_jets`` lives on the basis alone, and only the compact
fields, whose support a basis must match, carry a ``support``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import jets as J
from .chart import as_coords, chart_jacobian_jets, unit_vector_jets

# -- document schema -------------------------------------------------------------

class SchemaError(ValueError):
    """A config or spec document, or an input value, the toolkit cannot serve."""


def finite_number(value) -> bool:
    """A finite JSON number; bools and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:      # an integer beyond the float range
        return False


def integer_in(minimum, maximum=None):
    """The rule of an integer (not a bool) in minimum..maximum."""
    def ok(v):
        return (isinstance(v, int) and not isinstance(v, bool) and v >= minimum
                and (maximum is None or v <= maximum))
    return ok, (f"an integer >= {minimum}" if maximum is None
                else f"an integer in {minimum}..{maximum}")


FINITE = (finite_number, "a finite number")
POSITIVE = (lambda v: finite_number(v) and v > 0, "a finite number > 0")


def check_document(doc, table, where, required=()):
    """Check a JSON object against its rule table; returns ``doc``.

    Each key of ``table`` maps to a (test, requirement) rule, to the table of
    an object-valued key's own keys, or to None for a key whose parser checks
    it.  A document that is not an object, an unknown key, a missing
    ``required`` key and a value failing its rule raise SchemaError.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - set(table)
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise SchemaError(f"{where} needs the keys {missing}")
    for key, val in doc.items():
        rule = table[key]
        if isinstance(rule, dict):
            check_document(val, rule, f"{where}.{key}")
        elif rule is not None and not rule[0](val):
            raise SchemaError(f"{where}.{key} must be {rule[1]}, got {val!r}")
    return doc


def radius_ladder(radii) -> np.ndarray:
    """The radius ladder of a fit, as floats: at least 3 radii, strictly
    increasing, spanning at least one decade; any other raises SchemaError."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise SchemaError(f"a radius ladder needs at least 3 radii, got {radii.size}")
    if np.any(np.diff(radii) <= 0):
        raise SchemaError("a radius ladder must be strictly increasing")
    if radii[-1] / radii[0] < 10.0 - 1e-9:
        raise SchemaError(f"a radius ladder must span at least one decade, got "
                          f"{radii[0]:g}..{radii[-1]:g}")
    return radii


def check_kind(doc, kinds, where) -> str:
    """Check a document whose "kind" names its (rule table, required keys)
    entry in ``kinds`` against that entry; returns the kind."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not (isinstance(kind, str) and kind in kinds):
        raise SchemaError(f"{where} must be an object whose kind is one of "
                          f"{sorted(kinds)}, got {doc!r}")
    table, required = kinds[kind]
    check_document(doc, {"kind": None, **table}, f"{kind} {where}", required)
    return kind


# -- scalar fields -------------------------------------------------------------

class ScalarField:
    """Scalar field backed by a jet-valued function of coordinate rows."""

    def __init__(self, jet_fn):
        self._jet_fn = jet_fn

    def jet(self, coords, order: int = 2) -> J.Jet:
        return self._jet_fn(as_coords(coords), order)

    def value(self, coords):
        return self.jet(coords, order=1).val

    def __add__(self, other):
        return ScalarField(lambda c, order: self.jet(c, order) + other.jet(c, order))


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
    zero = J.constant(0.0, t.val.shape[0], t.dim, t.order)
    return J.jet_where(inside, wp, zero)


class CompactBasis:
    """Jets shared by every random compact field of one support on one node set.

    The fields of ``random_compact_scalar`` and ``random_compact_tensor`` with
    support (lo, hi) are constant linear combinations of these jets, so one
    basis per quadrature rule serves every field drawn on it.  Every field is
    separable, a radial factor times an angular one, so the radial jets live
    on the distinct radii of the nodes and the angular jets on their distinct
    directions (a volume rule has a few dozen radii and a few hundred
    directions; scattered rows have as many of each as rows).  Each part is
    built on first use, so a basis asked only for tensors builds no scalar
    products:

    - ``bump``: the polynomial bump ``poly_bump_jet`` of r on (lo, hi), per radius;
    - ``radial_tensor``: rho(r) r^(k_a + k_b) at (a, b), per radius, with
      rho = bump (1+r^2)^(-1), k_0 = 0 and k_a = 1 for a >= 1;
    - ``unit``: the unit-vector jets u_i = x_i / r, per direction;
    - ``linear``: the stack [1, u_1..u_n], per direction;
    - ``quadratic``: the products u_i u_k, indexed [i][k], per direction;
    - ``frame``: the angular factor U of the chart Jacobian
      dx_c / d(chart_a) = s_a(r) U_ac with s_0 = 1 and s_a = r
      (``chart.chart_jacobian_jets``), per direction.

    Radial jets are jets in r alone and angular jets in the angles alone;
    ``assemble`` multiplies one of each into the jet at the nodes, or at a
    block of them.
    """

    def __init__(self, coords, support, order: int = 2):
        self.coords = as_coords(coords)
        self.support = tuple(support)
        self.order = order
        radii, self._radius_index = np.unique(self.coords[:, 0], return_inverse=True)
        self.directions, self._direction_index = np.unique(
            self.coords[:, 1:], axis=0, return_inverse=True)
        self._radius = J.coordinate_jets(radii[:, None], order)[0]

    @cached_property
    def bump(self) -> J.Jet:
        return poly_bump_jet(self._radius, *self.support)

    @cached_property
    def radial_tensor(self) -> J.Jet:
        r = self._radius
        scaled = [self.bump * (1.0 + r * r).reciprocal()]     # rho r^k, k = 0, 1, 2
        for _ in range(2):
            scaled.append(scaled[-1] * r)
        k = [0] + [1] * (self.coords.shape[1] - 1)
        return J.stack([[scaled[ka + kb] for kb in k] for ka in k])

    @cached_property
    def _frame_rows(self) -> list:
        return chart_jacobian_jets(self.directions, self.order)

    @property
    def unit(self) -> list:
        return self._frame_rows[0]

    @cached_property
    def linear(self) -> J.Jet:
        one = J.constant(1.0, self.directions.shape[0], self.directions.shape[1],
                         self.order)
        return J.stack([one, *self.unit])

    @cached_property
    def quadratic(self) -> list:
        u = self.unit
        return [[ui * uk for uk in u] for ui in u]

    @cached_property
    def frame(self) -> J.Jet:
        return J.stack(self._frame_rows)

    def assemble(self, radial: J.Jet, angular: J.Jet, rows=slice(None)) -> J.Jet:
        """The jet of radial(r) * angular(theta) at the nodes ``rows`` (all
        by default) for a radial jet on the distinct radii and an angular jet
        on the distinct directions.

        d_r falls on the radial factor and d_theta on the angular one; the
        mixed Hessian block is radial' * d_theta angular.
        """
        R = radial.map(lambda x: x[self._radius_index[rows]])
        A = angular.map(lambda x: x[self._direction_index[rows]])
        val = R.val * A.val
        npts, n = val.shape[0], self.coords.shape[1]
        grad = np.empty((npts, n) + val.shape[1:])
        np.multiply(R.grad, A.val[:, None], out=grad[:, :1])
        np.multiply(A.grad, R.val[:, None], out=grad[:, 1:])
        if R.hess is None or A.hess is None:
            return J.Jet(val, grad, None)
        hess = np.empty((npts, n, n) + val.shape[1:])
        np.multiply(R.hess, A.val[:, None, None], out=hess[:, :1, :1])
        np.multiply(A.hess, R.val[:, None, None], out=hess[:, 1:, 1:])
        np.multiply(A.grad, R.grad, out=hess[:, 1:, 0])
        hess[:, 0, 1:] = hess[:, 1:, 0]
        return J.Jet(val, grad, hess)

    def node_jets(self, field):
        """The jet of a compact ``field`` of this basis at the nodes ``rows``,
        as a function of ``rows``: the field's coefficients are applied here,
        once, and each call only assembles."""
        radial, angular = field.factors(self)
        return lambda rows: self.assemble(radial, angular, rows)

    def require_support(self, support):
        if tuple(support) != self.support:
            raise ValueError(f"field support {tuple(support)} differs from the "
                             f"basis support {self.support}")


class CompactScalarField(ScalarField):
    """bump(r) * (c0 + c1_i u_i + c2_ik u_i u_k) on the support of the bump.

    The field holds its coefficients only; ``evaluate`` applies them to the
    angular jets of the ``CompactBasis`` of a rule and assembles the product
    with its bump, and ``jet`` builds the basis of its coordinates and
    evaluates against it.
    """

    def __init__(self, c0, c1, c2, support):
        self.c0, self.c1, self.c2, self.support = c0, c1, c2, support
        super().__init__(lambda c, order: self.evaluate(CompactBasis(c, support, order)))

    def factors(self, basis: CompactBasis) -> tuple:
        """(radial, angular) jets on the basis' distinct radii and directions."""
        basis.require_support(self.support)
        n = len(self.c1)
        poly = J.constant(self.c0, *basis.directions.shape, basis.order)
        for i in range(n):
            poly = poly + self.c1[i] * basis.unit[i]
            for k in range(n):
                poly = poly + self.c2[i, k] * basis.quadratic[i][k]
        return basis.bump, poly

    def evaluate(self, basis: CompactBasis) -> J.Jet:
        return basis.assemble(*self.factors(basis))


def random_compact_scalar(rng, r_lo: float, r_hi: float, n: int) -> CompactScalarField:
    """Polynomial radial bump times a random quadratic in the unit components.

    Draws the coefficients (c0, then c1, then c2) and returns a
    ``CompactScalarField`` evaluated against the ``CompactBasis`` of (r_lo, r_hi).
    """
    c0 = rng.uniform(-1, 1)
    c1 = rng.uniform(-1, 1, size=n)
    c2 = rng.uniform(-1, 1, size=(n, n))
    c2 = 0.5 * (c2 + c2.T)
    return CompactScalarField(c0, c1, c2, (r_lo, r_hi))


class RadialProfile:
    """Radial function psi(r) wrapping a jet function of the radius jet.

    ``jet(r)`` maps a scalar jet of r to the jet of psi(r), so products and
    sums of profiles are jet products and sums, and ``as_field`` evaluates it
    on the chart's r coordinate.  ``profile(r)`` returns the arrays
    (psi, psi', psi'') at radii r for the radial reductions.
    """

    def __init__(self, jet_fn):
        self._jet_fn = jet_fn

    def jet(self, r: J.Jet) -> J.Jet:
        return self._jet_fn(r)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self.jet(J.coordinate_jets(r[:, None])[0])
        return out.val, out.grad[:, 0], out.hess[:, 0, 0]

    def __mul__(self, other: "RadialProfile"):
        return RadialProfile(lambda r: self.jet(r) * other.jet(r))

    def __add__(self, other):
        if isinstance(other, RadialProfile):
            return RadialProfile(lambda r: self.jet(r) + other.jet(r))
        shift = float(other)
        return RadialProfile(lambda r: self.jet(r) + shift)

    __radd__ = __add__

    def as_field(self) -> ScalarField:
        return ScalarField(lambda c, order: self.jet(J.coordinate_jets(c, order)[0]))


def constant_profile(value: float) -> RadialProfile:
    return RadialProfile(lambda r: J.constant(value, len(r.val), r.dim, r.order))


def power_tail_profile(amp: float, rate: float, onset: float = 5.0) -> RadialProfile:
    """amp * (1 - exp(-(r/onset)^4)) * r^(-rate): smooth everywhere, ~ r^(-rate) tail."""
    return RadialProfile(lambda r: J.smooth_switch(r, onset) * (r ** (-rate)) * amp)


def profile_from_dict(doc: dict) -> RadialProfile:
    kind = check_kind(doc, {
        "constant": ({"value": FINITE}, ("value",)),
        "power_tail": ({"amp": FINITE, "rate": FINITE, "onset": FINITE}, ("amp", "rate")),
    }, "radial profile")
    values = {key: float(val) for key, val in doc.items() if key != "kind"}
    if kind == "constant":
        return constant_profile(**values)
    return power_tail_profile(**values)


# -- symmetric 2-tensor fields ---------------------------------------------------

class SymmetricTensorField:
    """Symmetric 2-tensor field backed by a tensor-jet function of coordinate
    rows and jet order."""

    def __init__(self, jet_fn):
        self._jet_fn = jet_fn

    def component_arrays(self, coords, order: int = 2) -> J.Jet:
        return self._jet_fn(as_coords(coords), order)


class ScaledMetricField(SymmetricTensorField):
    """h = u * g for a scalar field u and metric spec g (used by trace identities)."""

    def __init__(self, spec, u: ScalarField):
        super().__init__(lambda c, order: u.jet(c, order) * spec.component_jets(c, order))


class AxisConcentratedPerturbation(SymmetricTensorField):
    """Decaying frame bump concentrated around a Cartesian axis direction.

    h = kappa_11 c^2 dr (x) dr with c = (1+r^2)^(-1/2), so that its one
    nonzero background-frame component is
    kappa(e_1, e_1) = amp * switch(r) * r^(-rate) * exp(width * (x_hat . axis - 1)).
    Rotating the chart by R maps this field to the same field with axis
    R . axis, which is what the mass-vector equivariance checks exercise.
    """

    def __init__(self, n: int, axis, amp: float = 1e-2, rate: float = 2.5,
                 width: float = 6.0, onset: float = 4.0):
        axis = np.asarray(axis, dtype=float)
        # scaled to a largest entry of 1 first, so that the norm of finite
        # entries of any size neither overflows nor underflows
        axis = axis / np.abs(axis).max()
        axis = axis / np.linalg.norm(axis)
        self.axis, self.amp, self.rate = axis, float(amp), float(rate)
        self.width, self.onset = float(width), float(onset)

        def h(coords, order):
            r = J.coordinate_jets(coords, order)[0]
            u = unit_vector_jets(coords, order)
            zero = J.constant(0.0, *coords.shape, order)
            dot = sum((axis[i] * u[i] for i in range(n)), zero)
            radial = J.smooth_switch(r, onset) * (r ** (-rate)) * amp
            k11 = radial * J.jexp((dot - 1.0) * width)
            c = (1.0 + r * r) ** -0.5
            h11 = k11 * (c * c)
            return J.stack([[h11 if i == k == 0 else zero for k in range(n)]
                            for i in range(n)])

        super().__init__(h)

    def rotated(self, R: np.ndarray) -> "AxisConcentratedPerturbation":
        return AxisConcentratedPerturbation(len(self.axis), R @ self.axis,
                                            self.amp, self.rate, self.width,
                                            self.onset)


class CartesianTensorField(SymmetricTensorField):
    """Tensor prescribed by Cartesian components H_cd, pulled back to the chart.

    H_cd = rho(r) (W_cd0 + W_cdq u_q) is a constant linear map ``weights``
    (shape (n, n, n+1)) of the ``CompactBasis`` stack [1, u_1..u_n] times
    rho = bump (1+r^2)^(-1), and the chart components are h_ab = J_ac J_bd H_cd
    with the chart Jacobian J_ac = dx_c/d(chart_a) = s_a(r) U_ac(theta).  The
    field therefore separates as h_ab = rho(r) r^(k_a + k_b) (U H~ U^T)_ab(theta)
    with H~ = W_cd0 + W_cdq u_q: ``evaluate`` pulls H~ back by U on the basis'
    distinct directions and assembles the product with the basis'
    ``radial_tensor``.  The U jets are exact (``chart.chart_jacobian_jets``), so
    a field smooth in Cartesian terms stays smooth across the chart poles.
    ``component_arrays`` builds the basis of its coordinates and evaluates
    against it.
    """

    def __init__(self, weights, support):
        self.weights, self.support = weights, support
        super().__init__(lambda c, order: self.evaluate(CompactBasis(c, support, order)))

    def factors(self, basis: CompactBasis) -> tuple:
        """(radial, angular) jets on the basis' distinct radii and directions."""
        basis.require_support(self.support)
        U = basis.frame
        # a constant linear map acts on each derivative order alike
        H = basis.linear.map(lambda x: np.einsum("...q,cdq->...cd", x, self.weights))
        angular = J.contract("ac,bc->ab", U, J.contract("bd,cd->bc", U, H))
        return basis.radial_tensor, angular

    def evaluate(self, basis: CompactBasis) -> J.Jet:
        return basis.assemble(*self.factors(basis))


def random_compact_tensor(rng, n: int, r_lo: float, r_hi: float,
                          amplitude: float = 1.0) -> CartesianTensorField:
    """Random symmetric Cartesian-component bump supported in (r_lo, r_hi).

    H_cd = amplitude * (coeff_cd + lin_cdq x_q/r) * bump (1+r^2)^(-1): the
    draws (coeff, then lin) become the weights of a ``CartesianTensorField``
    on the ``CompactBasis`` of (r_lo, r_hi).  The (1+r^2)^(-1) factor makes
    ``amplitude`` calibrate the size of the background-frame components rather
    than the Euclidean ones (frame components of a Euclidean-bounded tensor
    grow like r^2).
    """
    coeff = rng.uniform(-1, 1, size=(n, n))
    coeff = 0.5 * (coeff + coeff.T)
    lin = rng.uniform(-1, 1, size=(n, n, n))
    # H_cd = coeff_cd + lin_cdq x_q/r for c <= d, mirrored below the diagonal
    lin = np.where(np.triu(np.ones((n, n), bool))[:, :, None], lin,
                   lin.transpose(1, 0, 2))
    weights = amplitude * np.concatenate([coeff[:, :, None], lin], axis=2)
    return CartesianTensorField(weights, (r_lo, r_hi))


def perturbation_from_dict(doc: dict, n: int) -> SymmetricTensorField:
    axis = (lambda v: (isinstance(v, list) and len(v) == n
                       and all(map(finite_number, v)) and any(v)),
            f"{n} finite numbers, not all zero")
    check_kind(doc, {"axis_bump": ({"axis": axis, "amp": FINITE, "rate": FINITE,
                                    "width": FINITE, "onset": FINITE}, ("axis",))},
               "perturbation")
    return AxisConcentratedPerturbation(n, **{key: val if key == "axis" else float(val)
                                              for key, val in doc.items() if key != "kind"})
