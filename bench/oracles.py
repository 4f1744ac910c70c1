"""Closed-form oracles for the benchmark's correctness checks.

Nothing here imports randers: every expected value comes from a closed form
(the chord law, the spherical law of cosines, the conjugate parameter of
the paraboloid-like warp) or from formulas re-derived for the paraboloid
m(r) = r / sqrt(mu^2 r^2 + 1), so a defect in the engine cannot hide in
its own oracle.

Tolerances are the ones the repository already pins for the same
quantities in its tests and in verify.py.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

# distance_F(tol=1e-9) against an exact value (tests/test_measure.py pins 2e-9)
DISTANCE_TOL = 2e-9
# two independent solves, each within DISTANCE_TOL of the same exact value
REFLECTION_TOL = 2.0 * DISTANCE_TOL
CONJUGATE_TOL = 1e-8          # c = rho + 1/(mu^2 rho)
ARC_START_TOL = 1e-5          # |dist[0] - c| (conjugate.cut_locus pins 1e-5)
CUT_POINT_TOL = 1e-5          # equal segment lengths (verify_cut_point's tol)
CLAIRAUT_TOL = 1e-7           # h and F Clairaut relations (verify.py)
MOMENTUM_TOL = 1e-8           # p2 = nu / (1 + mu nu) (verify.py)
UNIT_SPEED_TOL = 1e-8         # F = 1 along F-unit geodesics (verify.py)
F_LENGTH_RTOL = 1e-9          # f_length vs parameter length (tests/test_measure.py)
PULLBACK_TOL = 1e-9           # embedding isometry (verify.py)


def _navigation_distance(d_h, r1: float, r2: float) -> float:
    """Smallest T >= 0 with d_h(T) = T, where d_h(T) is the background
    distance from q1 to q2 rotated back by mu*T.  T - d_h(T) is strictly
    increasing because the wind is a mild breeze, and d_h(r1 + r2) <= r1 + r2
    by the path through the vertex, so [0, r1 + r2] brackets the root."""
    g = lambda t: d_h(t) - t
    if g(0.0) <= 0.0:
        return 0.0
    return brentq(g, 0.0, r1 + r2, xtol=1e-14, rtol=4.0 * 2.0**-52)


def flat_distance(r1: float, th1: float, r2: float, th2: float, mu: float) -> float:
    """Navigation distance on the Euclidean plane m(r) = r under the wind
    mu d/dtheta, by the chord law."""
    def chord(t: float) -> float:
        c2 = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(th2 - mu * t - th1)
        return math.sqrt(max(c2, 0.0))
    return _navigation_distance(chord, r1, r2)


def sphere_distance(r1: float, th1: float, r2: float, th2: float, mu: float) -> float:
    """Navigation distance on the unit-curvature cap m(r) = sin r under the
    wind mu d/dtheta, by the spherical law of cosines."""
    def arc(t: float) -> float:
        c = (math.cos(r1) * math.cos(r2)
             + math.sin(r1) * math.sin(r2) * math.cos(th2 - mu * t - th1))
        return math.acos(min(1.0, max(-1.0, c)))
    return _navigation_distance(arc, r1, r2)


def conjugate_parameter(rho: float, mu: float) -> float:
    """First conjugate parameter of a point at radius rho along the meridian
    chain through the vertex of the paraboloid-like warp."""
    return rho + 1.0 / (mu * mu * rho)


def twisted_opposite_meridian(rho: float, theta: float, mu: float, s: float):
    """(r, theta) of the twisted meridian chain from (rho, theta) through the
    vertex at parameter s > rho: r = s - rho on the opposite meridian, turned
    by the wind through mu * s."""
    return s - rho, theta + math.pi + mu * s


def paraboloid_m(r: float, mu: float) -> float:
    return r / math.sqrt(mu * mu * r * r + 1.0)


def paraboloid_m1(r: float, mu: float) -> float:
    return (mu * mu * r * r + 1.0) ** -1.5


def zermelo_norm(h2: float, w0: float, w2: float) -> float:
    """Navigation norm of a vector with background square norm h2, background
    inner product w0 with the wind, and wind square norm w2 < 1: the positive
    root F of (1 - w2) F^2 + 2 w0 F - h2 = 0."""
    lam = 1.0 - w2
    root = math.sqrt(lam * h2 + w0 * w0)
    if w0 <= 0.0:
        return (root - w0) / lam
    return h2 / (root + w0)


def paraboloid_F(r: float, y1: float, y2: float, mu: float) -> float:
    """F(r; y1 d/dr + y2 d/dtheta) on the paraboloid-like surface."""
    m = paraboloid_m(r, mu)
    return zermelo_norm(y1 * y1 + m * m * y2 * y2, mu * m * m * y2, (mu * m) ** 2)


def embedded_F(r: float, theta: float, y1: float, y2: float, mu: float) -> float:
    """Norm of the embedded tangent in the flat Randers cylinder: the surface
    sits at (m cos theta, m sin theta, z(r)) with z' = sqrt(1 - m'^2), and the
    ambient wind at (x, y, z) is (-mu y, mu x, 0)."""
    m, m1 = paraboloid_m(r, mu), paraboloid_m1(r, mu)
    ct, st = math.cos(theta), math.sin(theta)
    x, y = m * ct, m * st
    v = (m1 * ct * y1 - m * st * y2,
         m1 * st * y1 + m * ct * y2,
         math.sqrt(max(1.0 - m1 * m1, 0.0)) * y1)
    w = (-mu * y, mu * x, 0.0)
    h2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    w0 = v[0] * w[0] + v[1] * w[1]
    return zermelo_norm(h2, w0, w[0] * w[0] + w[1] * w[1])


def geodesic_residuals(h_states, f_states, nu: float, mu: float) -> dict:
    """Largest residuals of the h-Clairaut law m^2 theta'_h = nu, the
    angular momentum law p2 = nu / (1 + mu nu) and unit navigation speed
    through the embedding, over the samples of a twisted geodesic and its
    h-preimage (rows r, theta, r', theta')."""
    p2_exact = nu / (1.0 + mu * nu)
    res = {"clairaut_h": 0.0, "momentum": 0.0, "embedded_unit_speed": 0.0}
    for (r, _, _, dth_h), (_, th, dr, dth) in zip(h_states, f_states):
        if r <= 0.0:
            continue
        m = paraboloid_m(r, mu)
        res["clairaut_h"] = max(res["clairaut_h"], abs(m * m * dth_h - nu))
        # p2 = dF/dy2 of the Randers norm, from the navigation coefficients
        lam = 1.0 - (mu * m) ** 2
        a11, a22, b2 = 1.0 / lam, m * m / (lam * lam), -mu * m * m / lam
        alpha = math.sqrt(a11 * dr * dr + a22 * dth * dth)
        F = alpha + b2 * dth
        res["momentum"] = max(res["momentum"],
                              abs(F * (a22 * dth / alpha + b2) - p2_exact))
        res["embedded_unit_speed"] = max(res["embedded_unit_speed"],
                                         abs(embedded_F(r, th, dr, dth, mu) - 1.0))
    return res
