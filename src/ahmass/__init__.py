"""Numerical checks for mass invariants and rigidity identities on
asymptotically hyperbolic metrics: curvature tensors, flux integrals with
extrapolated limits, the linearized scalar-curvature operator and its adjoint,
static potentials, growth/decay ODE certificates, and the warped-product
counterexample fixture.

The package namespace is lazy (PEP 562): a name below is imported from its
module on first access, so ``import ahmass.cli`` loads neither scipy nor the
modules a command does not reach.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "decay": ("DecayFit", "estimate_decay_rate", "verify_ah"),
    "geodesics": ("GeodesicSample", "classify_growth", "integrate_geodesic"),
    "massflux": ("FluxReport", "MassVector", "flux_ladder", "mass_vector",
                 "prop27_check", "ricci_ladder"),
    "metrics": ("MetricSpec", "frame_components", "hyperbolic_metric",
                "metric_from_dict", "schwarzschild_ads", "static_potential",
                "static_potential_basis"),
    "odes": ("FundamentalPair", "ODEProblem", "build_decaying_solution",
             "fundamental_pair", "particular_solution"),
    "operators": ("duality_residual", "first_variation_check", "static_residual"),
    "radial": ("conformal_deform_radial", "radial_eigenfunction"),
    "rigidity": ("WarpedProductFixture", "divergence_form_check",
                 "sectional_ode_check", "wang_identity_check", "warped_fixture"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("chart", "curvature", "decay", "fields", "geodesics", "jets",
               "massflux", "metrics", "odes", "operators", "quadrature", "radial",
               "rigidity")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    # not cached here: the defining module stays the one binding of the name
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
