"""Exact classification of polynomial Weingarten tube surfaces.

Given a polynomial relation Q(x, y) between the Gaussian and mean
curvatures of a surface, the library determines exactly which tube
surfaces in Euclidean, Lorentzian and hyperbolic 3-space satisfy
Q(K, H) = 0, and conversely which polynomial relations a given tube
satisfies.  A numeric geometry module builds sample tubes in all three
spaces and verifies the algebraic answers on curvature samples.
"""

from .polyalg import (
    Poly1,
    Poly2,
    divide_by_tube_factor,
    gamma_at,
    gamma_cleared,
    substitute_tube,
    tube_generator,
)
from .radius import (
    EUCLIDEAN,
    HYPERBOLIC,
    LORENTZIAN_NEG,
    LORENTZIAN_POS,
    AlgebraicRadius,
    RadiusEntry,
    RadiusSet,
    SpaceTag,
    isolate_positive_roots,
    radius_set,
    star_radius_set,
)
from .classify import (
    ClassificationReport,
    LaneReport,
    SurfaceClass,
    TubeIdentity,
    classify_linear,
    classify_second_fundamental,
    solve_QS,
    solve_SQ,
    solve_SQ_principal,
    true_nonlinear_witness,
)

__all__ = [
    "Poly1",
    "Poly2",
    "divide_by_tube_factor",
    "gamma_at",
    "gamma_cleared",
    "substitute_tube",
    "tube_generator",
    "EUCLIDEAN",
    "HYPERBOLIC",
    "LORENTZIAN_NEG",
    "LORENTZIAN_POS",
    "AlgebraicRadius",
    "RadiusEntry",
    "RadiusSet",
    "SpaceTag",
    "isolate_positive_roots",
    "radius_set",
    "star_radius_set",
    "ClassificationReport",
    "LaneReport",
    "SurfaceClass",
    "TubeIdentity",
    "classify_linear",
    "classify_second_fundamental",
    "solve_QS",
    "solve_SQ",
    "solve_SQ_principal",
    "true_nonlinear_witness",
]

__version__ = "0.13.0"
