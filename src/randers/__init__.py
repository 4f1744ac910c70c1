"""Numerical engine for rotational Randers metrics from Zermelo navigation.

The package builds the Randers metric of a rotational surface from its warp
function and wind strength, integrates and twists geodesics, verifies the
Riemannian and Finslerian Clairaut relations, computes lengths, distances,
conjugate points and cut loci, and certifies the isometric embedding into a
flat Randers cylinder.
"""

__version__ = "0.1.0"

from .errors import (
    GeometryError,
    InconsistentInputError,
    InternalConsistencyError,
    InvalidBracketError,
    InvalidParameterError,
    MetricDegenerateError,
    NotEmbeddableError,
    NumericalBlowupError,
    SearchHorizonError,
    VertexSingularError,
)
from .profile import (
    Profile,
    SurfacePoint,
    VonMangoldtCheck,
    gauss_curvature,
    geodesic_parallels,
    is_von_mangoldt,
    load_surface,
    make_custom,
    make_paraboloid,
    wrap_angle,
)
from .zermelo import (
    RandersData,
    Tangent,
    cos_F,
    eval_F,
    fundamental_tensor,
    h_norm,
    navigation_transform,
)
from .geodesics import (
    GeodesicPath,
    GeodesicState,
    clairaut_constant,
    integrate_F,
    integrate_h,
    quadrature_segment,
    twist,
)
from .measure import (
    ClairautReport,
    clairaut_verify,
    distance_F,
    f_length,
    h_distance,
    meeting_point,
    momentum_p2,
)
from .conjugate import (
    CutArc,
    certify_pole,
    cut_locus,
    first_conjugate,
    jacobi_integrate,
    verify_cut_point,
)
from .embed import (
    MinkowskiPoint,
    embed_point,
    eval_F_tilde,
    pullback_check,
    pullback_report,
    pushforward,
)

__all__ = [
    "GeometryError",
    "InconsistentInputError",
    "InternalConsistencyError",
    "InvalidBracketError",
    "InvalidParameterError",
    "MetricDegenerateError",
    "NotEmbeddableError",
    "NumericalBlowupError",
    "SearchHorizonError",
    "VertexSingularError",
    "Profile",
    "SurfacePoint",
    "VonMangoldtCheck",
    "gauss_curvature",
    "geodesic_parallels",
    "is_von_mangoldt",
    "load_surface",
    "make_custom",
    "make_paraboloid",
    "wrap_angle",
    "RandersData",
    "Tangent",
    "cos_F",
    "eval_F",
    "fundamental_tensor",
    "h_norm",
    "navigation_transform",
    "GeodesicPath",
    "GeodesicState",
    "clairaut_constant",
    "integrate_F",
    "integrate_h",
    "quadrature_segment",
    "twist",
    "ClairautReport",
    "clairaut_verify",
    "distance_F",
    "f_length",
    "h_distance",
    "meeting_point",
    "momentum_p2",
    "CutArc",
    "certify_pole",
    "cut_locus",
    "first_conjugate",
    "jacobi_integrate",
    "verify_cut_point",
    "MinkowskiPoint",
    "embed_point",
    "eval_F_tilde",
    "pullback_check",
    "pullback_report",
    "pushforward",
    "__version__",
]
