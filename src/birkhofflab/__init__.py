"""Numerical laboratory for geodesic return maps on two-spheres of
revolution: transversal-annulus sections, strip-map flux/action/Calabi
calculus, and sharp systolic inequality audits."""

from . import errors
from .metric_models import (MetricModel, area, from_json, make_round,
                            make_spheroid, make_zoll, pinching_constant,
                            to_json)
from .geodesic_dynamics import (ClosedOrbit, GeodesicState, JacobiPolarState,
                                clairaut_invariant, conjugate_time,
                                equator_orbit, equator_seed,
                                find_closed_geodesic, integrate_geodesic,
                                jacobi_polar_advance, meridian_orbit,
                                meridian_seed, state_from_angle)
from .birkhoff_section import (BirkhoffGrid, BirkhoffSection, build_section,
                               compute_return_grid, contact_volume_check,
                               jacobi_angle_window, monotonicity_check,
                               return_data, verify_area_identity,
                               verify_tau_action_identity, zero_flux_lift)
from .strip_calculus import (ActionGrid, GeneratingGrid, StripMapGrid,
                             action, build_from_generating, calabi,
                             calabi_from_generating,
                             fixed_point_with_signed_action, flux,
                             flux_boundary_path, generating_from_map,
                             random_generating_grid)
from .systolic_audit import (SystolicReport, audit,
                             candidate_closed_geodesics, simplicity_check,
                             two_gon_perimeter_check)

__version__ = "0.1.0"
