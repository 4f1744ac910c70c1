"""Navigation transform and pointwise Finsler metric quantities.

The rotational wind W = mu * d/dtheta turns the background metric h into a
Randers metric F = alpha + beta via the navigation construction:

    lambda = 1 - mu^2 m^2,
    a11 = 1/lambda,   a22 = m^2/lambda^2,   b2 = -mu m^2/lambda,   b1 = 0,

with alpha = sqrt(a_ij y^i y^j) and beta = b_i y^i.  Equivalently, in terms
of the background norm |y|^2 = h(y, y) and W0 = h(W, y),

    F = (sqrt(lambda |y|^2 + W0^2) - W0) / lambda.

Both routes are evaluated on every call and must agree to 1e-12 / lambda
relative; a mismatch is an engine bug, not bad input, and raises
accordingly.  The bound grows as lambda falls, because the coefficient
form's downwind branch (alpha^2 - beta^2)/s cancels to a relative error of
about eps / lambda, where beta^2 approaches alpha^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    MetricDegenerateError,
    VertexSingularError,
)
from .profile import Profile, SurfacePoint, as_float

_DUAL_RTOL = 1e-12


@dataclass(frozen=True)
class RandersData:
    """Pointwise navigation coefficients at radius r (arrays of them when
    randers_data is given an array of warp values)."""

    a11: float
    a22: float
    b2: float
    lam: float


@dataclass(frozen=True)
class Tangent:
    """Tangent vector y = y1 * d/dr + y2 * d/dtheta, its components stored
    as Python floats."""

    y1: float
    y2: float

    def __post_init__(self):
        y1, y2 = as_float(self.y1), as_float(self.y2)
        if not (math.isfinite(y1) and math.isfinite(y2)):
            raise InvalidParameterError(f"tangent components must be finite, got ({y1}, {y2})")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)

    def is_zero(self) -> bool:
        return self.y1 == 0.0 and self.y2 == 0.0


def navigation_transform(profile: Profile, r: float) -> RandersData:
    """Randers coefficients (a11, a22, b2, lambda) at radius r."""
    if r < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {r}")
    m = float(profile.m(r))
    w = profile.mu * m
    if w >= 1.0:
        raise MetricDegenerateError(
            f"mu*m(r) = {w} >= 1 at r = {r}: wind is not a mild breeze"
        )
    return randers_data(profile.mu, m)


def randers_data(mu: float, m) -> RandersData:
    """The coefficients of navigation_transform from the warp value m (a
    float, or an array for arrays of coefficients), unchecked."""
    w = mu * m
    lam = 1.0 - w * w
    m2 = m * m
    return RandersData(
        a11=1.0 / lam,
        a22=m2 / (lam * lam),
        b2=-mu * m2 / lam,
        lam=lam,
    )


def h_norm(profile: Profile, r: float, y1: float, y2: float) -> float:
    """Background norm sqrt(y1^2 + m(r)^2 y2^2)."""
    m = float(profile.m(r))
    return math.hypot(y1, m * y2)


# The two routes to F read floats or broadcastable arrays alike: eval_F and
# eval_F_array share them.  s is a sum of magnitudes, so neither branch
# cancels; the branch is taken per value, by a conditional on floats (the
# cheap path of scalar eval_F) and np.where on arrays.


def _F_coeff(m, mu, y1, y2):
    # alpha + beta via the navigation coefficients, with the subtraction
    # rewritten as (alpha^2 - beta^2)/(alpha - beta) when beta < 0 so the
    # downwind cancellation does not lose digits.
    w = mu * m
    lam = 1.0 - w * w
    m2 = m * m
    alpha2 = (y1 * y1 / lam) + (m2 * y2 * y2) / (lam * lam)
    beta = -mu * m2 * y2 / lam
    if isinstance(alpha2, np.ndarray):
        s = np.sqrt(alpha2) + np.abs(beta)
        return np.where(beta >= 0.0, s, (alpha2 - beta * beta) / s)
    s = math.sqrt(alpha2) + abs(beta)
    return s if beta >= 0.0 else (alpha2 - beta * beta) / s


def _F_navigation(m, mu, y1, y2):
    # (sqrt(lam |y|^2 + W0^2) - W0)/lam, conjugate form for W0 > 0.
    w = mu * m
    lam = 1.0 - w * w
    h2 = y1 * y1 + m * m * y2 * y2
    w0 = mu * m * m * y2
    root2 = lam * h2 + w0 * w0
    if isinstance(root2, np.ndarray):
        s = np.sqrt(root2) + np.abs(w0)
        return np.where(w0 <= 0.0, s / lam, h2 / s)
    s = math.sqrt(root2) + abs(w0)
    return s / lam if w0 <= 0.0 else h2 / s


def eval_F(profile: Profile, x: SurfacePoint, y: Tangent) -> float:
    """Finsler norm F(x, y) = alpha + beta; strictly positive for y != 0.
    A radius beyond r_max, where the profile is not validated, raises
    InvalidParameterError."""
    if y.is_zero():
        raise InvalidParameterError("F is undefined on the zero tangent vector")
    profile.check_radius(x.r)
    return F_from_warp(profile.mu, float(profile.m(x.r)), x.r, y)


def F_from_warp(mu: float, m: float, r: float, y: Tangent) -> float:
    """eval_F at radius r from the warp value m = m(r), for a nonzero
    tangent and a radius already checked: MetricDegenerateError where
    mu*m >= 1, and both routes to F, which must agree to _DUAL_RTOL /
    lambda."""
    w = mu * m
    if w >= 1.0:
        raise MetricDegenerateError(f"mu*m >= 1 at r = {r}")
    f_ab = _F_coeff(m, mu, y.y1, y.y2)
    f_nav = _F_navigation(m, mu, y.y1, y.y2)
    if abs(f_ab - f_nav) > _DUAL_RTOL / (1.0 - w * w) * max(f_ab, f_nav):
        raise InternalConsistencyError(
            f"navigation-form and coefficient-form values of F disagree: "
            f"{f_ab!r} vs {f_nav!r} at r = {r}, y = ({y.y1}, {y.y2})"
        )
    return f_ab


def eval_F_array(profile: Profile, r, y1, y2) -> np.ndarray:
    """eval_F at every point (r[i], any theta) and tangent (y1[i], y2[i]),
    with one array evaluation of m and the same checks."""
    r, y1, y2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, y1, y2)))
    if not np.all(np.isfinite(r) & np.isfinite(y1) & np.isfinite(y2) & (r >= 0.0)):
        raise InvalidParameterError("radii must be finite and >= 0, tangents finite")
    if np.any(r > profile.r_max):
        raise InvalidParameterError(
            f"radius {r[r > profile.r_max][0]} lies outside [0, r_max = {profile.r_max}]")
    if np.any((y1 == 0.0) & (y2 == 0.0)):
        raise InvalidParameterError("F is undefined on the zero tangent vector")
    m = np.broadcast_to(np.asarray(profile.m(r), dtype=float), r.shape)
    w = profile.mu * m
    if np.any(w >= 1.0):
        raise MetricDegenerateError(f"mu*m >= 1 at r = {r[w >= 1.0][0]}")
    f_ab = _F_coeff(m, profile.mu, y1, y2)
    f_nav = _F_navigation(m, profile.mu, y1, y2)
    bad = np.abs(f_ab - f_nav) > _DUAL_RTOL / (1.0 - w * w) * np.maximum(f_ab, f_nav)
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise InternalConsistencyError(
            f"navigation-form and coefficient-form values of F disagree: "
            f"{f_ab.flat[i]!r} vs {f_nav.flat[i]!r} at r = {r.flat[i]}, "
            f"y = ({y1.flat[i]}, {y2.flat[i]})"
        )
    return f_ab


def fundamental_tensor(profile: Profile, x: SurfacePoint, y: Tangent) -> np.ndarray:
    """Hessian g_ij(y) = 1/2 d^2 F^2 / dy^i dy^j as a 2x2 array.

    Uses the Randers closed form

        g_ij = (F/alpha) (a_ij - l_i l_j) + (l_i + b_i)(l_j + b_j),

    where l_i = a_ik y^k / alpha.  Positive definite whenever mu*m(r) < 1 and
    r > 0; the vertex is excluded because a22 degenerates there.
    """
    if y.is_zero():
        raise InvalidParameterError("fundamental tensor undefined at y = 0")
    if x.r <= 0.0:
        raise VertexSingularError("fundamental tensor not defined at the vertex (a22 = 0)")
    data = navigation_transform(profile, x.r)
    a = np.array([[data.a11, 0.0], [0.0, data.a22]])
    b = np.array([0.0, data.b2])
    yv = np.array([y.y1, y.y2])
    ay = a @ yv
    alpha = math.sqrt(float(yv @ ay))
    ell = ay / alpha
    F = alpha + float(b @ yv)
    return (F / alpha) * (a - np.outer(ell, ell)) + np.outer(ell + b, ell + b)


def cos_F(profile: Profile, x: SurfacePoint, y: Tangent, v: Tangent) -> float:
    """Finslerian cosine g_y(y, v) / (|y|_{g_y} |v|_{g_y})."""
    if y.is_zero() or v.is_zero():
        raise InvalidParameterError("cos_F requires nonzero tangent vectors")
    g = fundamental_tensor(profile, x, y)
    yv = np.array([y.y1, y.y2])
    vv = np.array([v.y1, v.y2])
    num = float(yv @ g @ vv)
    den = math.sqrt(float(yv @ g @ yv)) * math.sqrt(float(vv @ g @ vv))
    return num / den
