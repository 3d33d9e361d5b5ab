"""Convex-geometry toolkit: John ellipsoids, volume ratios, and the
numerical verification of reverse isoperimetric and Brascamp-Lieb bounds."""

from .bodies import (AffineMap, Ellipsoid, HPolytope, VPolytope, apply_affine,
                     chebyshev_center, hrep_from_vrep, polytope_from_dict,
                     polytope_to_dict, read_polytope, unit_ball_volume,
                     vrep_from_hrep, write_polytope)
from .brascamp_lieb import (BLSystem, Density1D, bl_ratio, cube_volume_bound,
                            lift_to_cone, random_system,
                            reverse_isoperimetric_constant,
                            simplex_volume_bound)
from .errors import (DegenerateBodyError, GaugeError,
                     InfeasibleDecompositionError, NotJohnPositionError,
                     SolverError, UnboundedBodyError, VolisoError)
from .john import (SolveInfo, contact_points, john_decomposition,
                   john_position, max_inscribed_ellipsoid, volume_ratio)
from .lp_spaces import (L1_VR_LIMIT, SubspaceSpec, WeightedLpGauge,
                        gauge_integral_volume, inscribed_radius_check,
                        l1_vr_bound, lewis_position, lp_ball_volume,
                        lp_ball_volume_ratio, product_volume_bound,
                        subspace_volume_ratio, verify_product_volume_bound)
from .measures import (cauchy_surface_area, isoperimetric_quotient,
                       petty_functional, polytope_volume, projection_area,
                       surface_area)
from .sampling import Estimate, McParams
from . import shapes

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
