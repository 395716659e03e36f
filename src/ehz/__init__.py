"""EHZ symplectic capacity of convex bodies, with an inequality harness.

The capacity of a convex body K in R^{2n} is the minimal symplectic action
of a closed characteristic on its boundary.  This package computes it by
minimizing the dual action functional over discretized loop space, extracts
the minimal-action characteristic, and numerically verifies the
Brunn-Minkowski-type inequality for capacities together with its
isoperimetric, mean-width, directional-derivative and intersection
corollaries.
"""

from .bodies import (Ball, BodyError, ConvexBody, Ellipsoid, GeneralEllipsoid,
                     Intersection, LinearImage, MinkowskiSum, Polytope, PSum, Scale,
                     Smoothed, Translate, build_body)
from .harness import (AsymmetricBodyError, HarnessError, InequalityReport,
                      MeanWidthEstimate, bm_check, capacity_area_2d,
                      directional_derivative, equality_certificate,
                      isoperimetric_check, mean_width, mean_width_bound_check)
from .intersections import (SurrogateAudit, build_intersection_body,
                            intersection_capacity, intersection_concavity_check)
from .loops import CarrierLoop, FourierLoop, action, length_in_gauge, normalize_action, sample
from .solver import (CapacityResult, CertificateBundle, SolveConfig, SolverError,
                     capacity, certify, euler_residual, from_carrier, minimize,
                     to_carrier)
from .suite import run_suite
from .symplectic import apply_J, apply_J_inverse, random_symplectic, symplectic_form

__all__ = [
    "Ball", "BodyError", "ConvexBody", "Ellipsoid", "GeneralEllipsoid", "Intersection",
    "LinearImage", "MinkowskiSum", "Polytope", "PSum", "Scale", "Smoothed",
    "Translate", "build_body",
    "AsymmetricBodyError", "HarnessError", "InequalityReport", "MeanWidthEstimate",
    "bm_check", "capacity_area_2d", "directional_derivative", "equality_certificate",
    "isoperimetric_check", "mean_width", "mean_width_bound_check",
    "SurrogateAudit", "build_intersection_body", "intersection_capacity",
    "intersection_concavity_check",
    "CarrierLoop", "FourierLoop", "action", "length_in_gauge", "normalize_action", "sample",
    "CapacityResult", "CertificateBundle", "SolveConfig", "SolverError",
    "capacity", "certify", "euler_residual", "from_carrier", "minimize",
    "to_carrier",
    "run_suite",
    "apply_J", "apply_J_inverse", "random_symplectic", "symplectic_form",
]

__version__ = "0.1.0"
