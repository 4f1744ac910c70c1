"""Jacobi fields, conjugate points, poles, and the cut locus.

Normal Jacobi fields along a unit-speed h-geodesic satisfy the scalar
equation y'' + G(r(s)) y = 0 with G = -m''/m.  Along the meridian through a
point q and the vertex (continued past the vertex as the opposite meridian,
r(s) = |rho - s| with a theta jump of pi), the first zero c > rho of the
Jacobi field with y(0) = 0, y'(0) = 1 is the first conjugate parameter of q.
Along a meridian that field is m times an integral of 1/m^2 (reduction of
order from the field m), so first_conjugate finds c by quadrature and root
finding, without an ODE; jacobi_integrate integrates the equation itself
and is the independent check.

On surfaces with non-increasing curvature the background cut locus of q is
the opposite-meridian subarc beyond that conjugate point, and every interior
cut point is reached by a mirror-symmetric pair of equal-length geodesics.
The navigation cut locus is obtained by pushing each background cut point
along the wind flow for its own travel time: the point tau_q(t) at distance
T(t) = d_h(q, tau_q(t)) maps to (r_tau(t), theta_tau(t) + mu T(t)), and the
mirror pair twists into two F-geodesic segments of equal F-length T(t).  The
arc starts at the twisted image of the conjugate point, where T(c) = c.

The vertex itself is a pole: the Jacobi field along a meridian from the
vertex is m(s) > 0, and the divergence of the integral of the inverse
squared parallel length (bounded below by mu^2/(4 pi^2) per unit radius)
rules out rays that are not twisted meridians.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import odesolve
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericalBlowupError,
    SearchHorizonError,
)
from .geodesics import GeodesicPath, GeodesicState, integrate_h
# shoot_hits is unused here; only bench/tracer.py reads conjugate.shoot_hits, to wrap it
from .measure import TwoRadiusConnectors, shoot_hits  # noqa: F401
from .profile import (
    Profile,
    SurfacePoint,
    as_float_array,
    gauss_curvature,
    halved_integral,
    is_von_mangoldt,
    roots_on_grid,
    wrap_angle,
)


@dataclass(frozen=True)
class JacobiSolution:
    """Scalar Jacobi field samples along a base geodesic."""

    s: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    first_zero: float | None


def jacobi_integrate(profile: Profile, base: GeodesicPath, y0: float,
                     yp0: float, upto: float) -> JacobiSolution:
    """Integrate y'' + G(r(s)) y = 0 along a base h-geodesic path from s = 0
    to upto, by odesolve.integrate at tol 1e-12.

    On a meridian base, the meridian chain through the vertex included, the
    radius is r(s) = |r0 + s dr0| on Python floats, the value its dense
    output gives; on any other base it is read from the dense output.  The
    first sign change of y between samples, from a strict sign to zero or
    the other sign, is refined to 1e-10 on the dense output of that one
    step (ODESolution.root) and reported as first_zero
    (None if y keeps its sign over [0, upto]; the start y0 = 0 of a field
    from a point is no sign change).  The integrator's max_steps stop raises
    NumericalBlowupError.  first_conjugate answers by quadrature; this
    integration is its independent check (certify_pole, the
    jacobi-pole-identity acceptance check and the tests).
    """
    if base.metric_tag != "h":
        raise InvalidParameterError("Jacobi integration runs along h-geodesics")
    if upto > base.s[-1] + 1e-12:
        raise InvalidParameterError(
            f"base path covers [0, {base.s[-1]}], cannot integrate to {upto}"
        )
    if base.kind == "meridian":
        r0, dr0 = float(base.states[0, 0]), float(base.states[0, 2])

        def radius(s: float) -> float:
            return abs(r0 + dr0 * s)
    else:
        dense = base.dense

        def radius(s: float) -> float:
            return abs(float(dense(s)[0]))

    def rhs(s: float, z: list) -> tuple:
        y, yp = z
        return (yp, -gauss_curvature(profile, radius(s)) * y)

    sol = odesolve.integrate(rhs, 0.0, np.array([y0, yp0]), upto, tol=1e-12)
    if sol.status == "max_steps":
        raise NumericalBlowupError(
            f"Jacobi integration stopped after {sol.nsteps} steps, at s = {sol.s[-1]} "
            f"of {upto}")
    y = sol.y[:, 0]
    # a strict sign at one sample, zero or the other sign at the next
    changes = np.flatnonzero(((y[:-1] < 0.0) & (y[1:] >= 0.0)) | ((y[:-1] > 0.0) & (y[1:] <= 0.0)))
    first_zero = sol.root(int(changes[0]), 0, 0.0)[0] if changes.size else None
    return JacobiSolution(s=sol.s, y=y, yp=sol.y[:, 1], first_zero=first_zero)


def _vm_grid(profile: Profile) -> np.ndarray:
    return np.linspace(0.0, profile.r_max, 1024)


def first_conjugate(profile: Profile, q: SurfacePoint) -> float:
    """Parameter c of the first conjugate point of q along the meridian
    chain through the vertex, by quadrature: the Jacobi field y(0) = 0,
    y'(0) = 1 along u = rho - s is m(u) m(rho) int_u^rho dv / m^2,
    continued through the vertex by oddness, so c = rho + w with w the root
    of

        H(w) = G(w) + G(rho) - 1/w - 1/rho,        H' = 1/m(w)^2 > 0,

    G from Profile.jacobi_table (which needs a warp odd and smooth at the
    vertex; profile validation rejects m''(0) != 0, so its integrand
    1/m^2 - 1/v^2 stays bounded there on every profile).  The table's panel
    edges bracket the root and roots_on_grid refines it to 1e-14.

    q.r must lie in (0, r_max] and the profile must pass is_von_mangoldt on
    1024 radii of [0, r_max] (InvalidParameterError otherwise).  H(r_max)
    is two table reads, so |H(r_max)| within their error, 2 epsabs of the
    table, is a root at the horizon, on either side of zero: c = rho +
    r_max.  H(r_max) below that, no zero within the horizon, raises
    SearchHorizonError."""
    if q.r <= 0:
        raise InvalidParameterError("the vertex is a pole; its cut locus is empty")
    profile.check_radius(q.r)
    check = is_von_mangoldt(profile, _vm_grid(profile))
    if not check.is_von_mangoldt:
        raise InvalidParameterError(
            "cut-locus structure requires non-increasing curvature; "
            f"curvature rises at r = {check.violation_radius}"
        )
    rho = q.r
    table = profile.jacobi_table
    at_rho = table(rho) - 1.0 / rho

    def h(w: float) -> float:
        return table(w) + at_rho - 1.0 / w

    edges = np.array(table.edges[1:])
    values = np.array(table.values[1:]) + at_rho - 1.0 / edges
    horizon = rho + profile.r_max
    if abs(values[-1]) <= 2.0 * table.epsabs:
        return horizon
    if values[-1] < 0.0:
        raise SearchHorizonError(
            f"no conjugate point within parameter {horizon}",
            lower_bound=horizon,
        )
    i = int(np.argmax(values >= 0.0))
    hi, h_hi = float(edges[i]), float(values[i])
    if i:
        lo, h_lo = float(edges[i - 1]), float(values[i - 1])
    else:
        # H falls to -inf at the vertex like -1/w
        lo, h_lo = hi, h_hi
        while h_lo >= 0.0:
            lo *= 0.5
            h_lo = h(lo)
    return rho + roots_on_grid(h, (lo, hi), (h_lo, h_hi), xtol=1e-14)[0]


@dataclass
class CutArc:
    """The navigation cut locus of a base point, exported as a sampled arc.

    s holds the parameter along the opposite-meridian chain tau_q, r and
    theta the arc samples, and dist the navigation distance from q to each
    sample (equal to the background distance to tau_q(s)).  chi and kind
    describe the minimizing background connector of each sample: its
    heading at the lower of the radii rho and r (measured from the outward
    meridian; at q unless r < rho) and its kind, "chain" (chi = pi) for the
    meridian chain through the vertex, else "turning" or "direct".
    """

    q: SurfacePoint
    rho: float
    c: float
    s: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    dist: np.ndarray
    chi: np.ndarray
    kind: list[str]

    def point_at_index(self, i: int) -> SurfacePoint:
        return SurfacePoint(float(self.r[i]), float(self.theta[i]))

    def to_dict(self) -> dict:
        return {
            "q": {"r": self.q.r, "theta": self.q.theta},
            "rho": self.rho,
            "c": self.c,
            "samples": [[float(a), float(b), float(g)]
                        for a, b, g in zip(self.s, self.r, self.theta)],
            "dist": [float(d) for d in self.dist],
            "chi": [float(x) for x in self.chi],
            "kind": list(self.kind),
        }


def cut_locus(profile: Profile, q: SurfacePoint,
              s_export_max: float | None = None, n_samples: int = 64) -> CutArc:
    """Sampled navigation cut locus of q: n_samples points of the chain
    parameter t in [c, s_export_max], c from first_conjugate (s_export_max
    defaults to c + 10 max(1, rho) and is capped at rho + r_max).

    Each t contributes the point (r_tau(t), theta_tau(t) + mu * T(t)) with
    T(t) = d_h(q, tau_q(t)); the distance T rather than t itself drives the
    twist because the chain stops minimizing at c, and the two mirror
    minimizers that replace it arrive after time T(t).  At t = c both
    parametrizations agree and the arc starts at the twisted image of the
    first conjugate point.

    T(t) is the shortest connector sweeping pi between the radii rho and
    r_tau(t) = t - rho, found for all samples at once by one
    TwoRadiusConnectors over the array of sample radii, to tol 1e-10.  A
    non-integer or non-positive n_samples, or a non-finite s_export_max or
    one at most c, raises InvalidParameterError; c at the horizon
    rho + r_max, which leaves no arc inside r_max, raises
    SearchHorizonError.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) \
            or n_samples < 1:
        raise InvalidParameterError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if s_export_max is not None and not math.isfinite(s_export_max):
        raise InvalidParameterError(f"s_export_max must be finite, got {s_export_max}")
    c = first_conjugate(profile, q)
    rho = q.r
    if s_export_max is None:
        s_export_max = c + 10.0 * max(1.0, rho)
    if s_export_max <= c:
        raise InvalidParameterError("s_export_max must exceed the conjugate parameter")
    s_export_max = min(s_export_max, rho + profile.r_max)
    if s_export_max <= c:
        raise SearchHorizonError(
            f"the cut locus starts at the horizon {c}: no arc lies inside r_max",
            lower_bound=c)
    ss = np.linspace(c, s_export_max, n_samples)
    # rho + r_max - rho may round one ulp past r_max
    rr = np.minimum(ss - rho, profile.r_max)
    best = [min(cands, key=lambda con: con.length) for cands in
            TwoRadiusConnectors(profile, rho, rr, tol=1e-10).connectors(math.pi)]
    dist = np.array([con.length for con in best])
    theta = q.theta + math.pi + profile.mu * dist
    start_gap = abs(dist[0] - c)
    if start_gap > 1e-5 * max(1.0, c):
        raise InternalConsistencyError(
            f"cut-arc start distance {dist[0]} disagrees with the conjugate "
            f"parameter {c} by {start_gap}"
        )
    return CutArc(q=q, rho=rho, c=float(c), s=ss, r=rr, theta=theta, dist=dist,
                  chi=np.array([con.chi for con in best]), kind=[con.kind for con in best])


@dataclass(frozen=True)
class CutPointCheck:
    """Outcome of verify_cut_point; ray_miss is the largest end miss of its rays."""

    q: tuple
    target: tuple
    segments: list            # (heading, F-length) sorted by length
    d_F: float
    n_minimizers: int
    equal_length_gap: float | None
    verified: bool
    reason: str
    ray_miss: float

    def to_dict(self) -> dict:
        return {
            "q": {"r": self.q[0], "theta": self.q[1]},
            "target": {"r": self.target[0], "theta": self.target[1]},
            "segments": [{"heading": h, "length": ln} for h, ln in self.segments],
            "d_F": self.d_F,
            "n_minimizers": self.n_minimizers,
            "equal_length_gap": self.equal_length_gap,
            "verified": self.verified,
            "reason": self.reason,
            "ray_miss": self.ray_miss,
        }


# verify_cut_point's tolerances on segment lengths and on the end miss of a ray
_CUT_TOL = 1e-5
_RAY_MISS_TOL = 1e-8


def verify_cut_point(profile: Profile, q: SurfacePoint, target: SurfacePoint) -> CutPointCheck:
    """Find the F-geodesic segments from q to the target and check that two
    distinct ones of equal F-length minimize, as at an interior cut point;
    elsewhere one minimizer appears.  Finding fewer is reported, not raised.

    The segments are the roots of one TwoRadiusConnectors query at tol 1e-10
    up to the horizon 1.05 (q.r + target.r) + 0.5; the shortest is d_F, and
    a segment within _CUT_TOL of it minimizes.  A heading is the angle at q
    from the outward meridian: sigma chi from the lower radius, sigma
    (pi - arcsin(|nu| / m(q.r))) from the higher.  Each segment's integrate_h
    ray from q at tol 1e-12, twisted by mu times its length, must end within
    _RAY_MISS_TOL in h chart distance of the target, else
    InternalConsistencyError; at the target q the one segment has length 0
    and no ray.  Radii in (0, r_max] on a warp that increases
    on [0, max(q.r, target.r)], cut_locus' domain, or InvalidParameterError.
    """
    profile.check_radius(target.r)
    horizon = 1.05 * (q.r + target.r) + 0.5
    roots = sorted(TwoRadiusConnectors(profile, q.r, target.r, tol=1e-10).connectors(
        target.theta - q.theta, profile.mu), key=lambda con: con.length)
    m_q, m_t = float(profile.m(q.r)), float(profile.m(target.r))
    segments, ray_miss = [], 0.0
    for con in (con for con in roots if con.length <= horizon):
        # the chain has nu = 0 and chi = pi, so both forms give it pi
        heading = math.copysign(con.chi if q.r <= target.r
                                else math.pi - math.asin(abs(con.nu) / m_q), con.nu)
        segments.append((heading, con.length))
        if con.length == 0.0:
            continue   # the target is q: no ray to confirm
        end = integrate_h(profile, GeodesicState(q.r, q.theta, math.cos(heading),
                                                 math.sin(heading) / m_q),
                          con.length, tol=1e-12).states[-1]
        miss = math.hypot(end[0] - target.r, m_t * wrap_angle(
            end[1] + profile.mu * con.length - target.theta))
        if not miss <= _RAY_MISS_TOL:
            raise InternalConsistencyError(f"ray at heading {heading} misses by {miss}")
        ray_miss = max(ray_miss, miss)
    n_min = sum(1 for _, ln in segments if ln <= roots[0].length + _CUT_TOL)
    gap = segments[1][1] - segments[0][1] if len(segments) >= 2 else None
    reason = ("two equal-length segments found" if n_min >= 2 else
              "fewer than two segments reach the target" if gap is None else
              f"two segments found but length gap {gap} exceeds tol")
    return CutPointCheck((q.r, q.theta), (target.r, target.theta), segments,
                         roots[0].length, n_min, gap, n_min >= 2, reason, ray_miss)


@dataclass(frozen=True)
class PoleCertificate:
    mu: float
    r_horizon: float
    integral_lower_bound: float
    integral_numeric: float
    jacobi_min: float
    jacobi_max_deviation: float
    certified: bool
    message: str


def certify_pole(profile: Profile) -> PoleCertificate:
    """Certify that the vertex is a pole up to the horizon r_max.

    Two ingredients: (i) the divergence rate of the inverse squared parallel
    length, bounded below by mu^2/(4 pi^2) per unit radius because
    m < 1/mu, which forces every non-meridian geodesic to stay bounded; and
    (ii) the Jacobi field along a meridian from the vertex, which equals
    m(s) and therefore never vanishes, so meridians (and their twists) stay
    conjugate-point-free.  The integral of (i) over [1, r_max] is
    halved_integral's at 1e-12.
    """
    r_horizon = profile.r_max
    if r_horizon <= 1.0:
        raise InvalidParameterError("horizon must exceed 1 for the tail bound")
    bound = profile.mu**2 / (4.0 * math.pi**2) * (r_horizon - 1.0)
    integral = halved_integral(
        lambda r: 1.0 / (2.0 * math.pi * as_float_array(profile.m(r), r.shape)) ** 2,
        1.0, r_horizon, 1e-12)
    base = integrate_h(profile, GeodesicState(0.0, 0.0, 1.0, 0.0), r_horizon)
    jac = jacobi_integrate(profile, base, 0.0, 1.0, r_horizon)
    warp = np.array([float(profile.m(s)) for s in jac.s])
    deviation = float(np.max(np.abs(jac.y - warp)))
    y_min = float(np.min(jac.y[jac.s > 1e-9])) if np.any(jac.s > 1e-9) else 0.0
    certified = jac.first_zero is None and y_min > 0.0 and integral >= bound * 0.99
    return PoleCertificate(
        mu=profile.mu, r_horizon=float(r_horizon),
        integral_lower_bound=float(bound), integral_numeric=float(integral),
        jacobi_min=y_min, jacobi_max_deviation=deviation,
        certified=bool(certified),
        message=f"pole certified up to horizon {r_horizon}" if certified
        else "certification failed",
    )
