"""Numerical checks for mass invariants and rigidity identities on
asymptotically hyperbolic metrics: curvature tensors, flux integrals with
extrapolated limits, the linearized scalar-curvature operator and its adjoint,
static potentials, growth/decay ODE certificates, and the warped-product
counterexample fixture."""

__version__ = "0.1.0"

from .chart import ChartPoint
from .decay import DecayFit, estimate_decay_rate, verify_ah
from .geodesics import GeodesicSample, classify_growth, integrate_geodesic
from .massflux import (FluxReport, MassVector, mass_flux_integral, mass_vector,
                       prop27_check, ricci_flux)
from .metrics import (MetricSpec, frame_components, hyperbolic_metric,
                      metric_from_dict, metric_to_dict, schwarzschild_ads,
                      static_potential, static_potential_basis)
from .odes import (FundamentalPair, ODEProblem, build_decaying_solution,
                   fundamental_pair, particular_solution)
from .operators import (duality_residual, first_variation_check,
                        functional_value, static_residual)
from .radial import conformal_deform_radial, radial_eigenfunction
from .rigidity import (WarpedProductFixture, divergence_form_check,
                       sectional_ode_check, wang_identity_check, warped_fixture)

__all__ = [name for name in dir() if not name.startswith("_")]
