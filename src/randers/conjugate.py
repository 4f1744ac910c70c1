"""Jacobi fields, conjugate points, poles, and the cut locus.

Normal Jacobi fields along a unit-speed h-geodesic satisfy the scalar
equation y'' + G(r(s)) y = 0 with G = -m''/m.  Along the meridian through a
point q and the vertex (continued past the vertex as the opposite meridian,
r(s) = |rho - s| with a theta jump of pi), the first zero c > rho of the
Jacobi field with y(0) = 0, y'(0) = 1 is the first conjugate parameter of q.

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

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import odesolve
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    SearchHorizonError,
)
from .geodesics import GeodesicPath, GeodesicState, integrate_h
from .measure import TwoRadiusConnectors, distance_F, shoot_hits
from .profile import Profile, SurfacePoint, gauss_curvature, is_von_mangoldt, quad


@dataclass(frozen=True)
class JacobiSolution:
    """Scalar Jacobi field samples along a base geodesic."""

    s: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    first_zero: float | None


def jacobi_integrate(profile: Profile, base: GeodesicPath, y0: float,
                     yp0: float, upto: float, tol: float = 1e-12,
                     stop_at_zero: bool = False) -> JacobiSolution:
    """Integrate y'' + G(r(s)) y = 0 along a base h-geodesic path from s = 0,
    by odesolve.integrate at tol with steps of at most 0.1.

    On a meridian base, the meridian chain through the vertex included, the
    radius is r(s) = |r0 + s dr0| on Python floats, the value its dense
    output gives; on any other base it is read from the dense output.  The
    first sign change of y for s > 0 is refined to 1e-10 on the continuous
    extension of its step and reported as first_zero (None if y keeps its
    sign over [0, upto]).  The samples cover [0, upto], or with
    stop_at_zero only [0, first_zero]: the field past its first zero is
    then not integrated, and the steps up to it, hence first_zero, are the
    same as over the full range.
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

    def rhs(s: float, z: np.ndarray) -> tuple:
        y, yp = z.tolist()
        return (yp, -gauss_curvature(profile, radius(s)) * y)

    events = [odesolve.EventSpec(lambda s, z: z[0], terminal=stop_at_zero)]
    sol = odesolve.integrate(rhs, 0.0, np.array([y0, yp0]), upto, tol=tol,
                             h_max=0.1, events=events)
    zeros = [s for s, _ in sol.events.get(0, []) if s > 1e-12]
    return JacobiSolution(
        s=sol.s, y=sol.y[:, 0], yp=sol.y[:, 1],
        first_zero=float(zeros[0]) if zeros else None,
    )


def _vm_grid(profile: Profile) -> np.ndarray:
    return np.linspace(0.0, profile.r_max, 1024)


def opposite_meridian_chain(profile: Profile, q: SurfacePoint,
                            length: float) -> GeodesicPath:
    """The unit-speed h-geodesic from q through the vertex: r(s) = |rho - s|,
    continuing on the opposite meridian."""
    if q.r <= 0:
        raise InvalidParameterError("q must differ from the vertex")
    return integrate_h(profile, GeodesicState(q.r, q.theta, -1.0, 0.0), length)


def first_conjugate(profile: Profile, q: SurfacePoint,
                    horizon: float | None = None, tol: float = 1e-12) -> float:
    """Parameter of the first conjugate point of q along the meridian chain
    through the vertex: the first zero c of the Jacobi field y(0) = 0,
    y'(0) = 1, integrated at tol up to that zero and no further.

    The profile must pass is_von_mangoldt on 1024 radii of [0, r_max]
    (InvalidParameterError otherwise).  c exceeds rho = d(q, vertex)
    because the vertex is a pole; raises SearchHorizonError if no zero
    appears within the horizon, by default rho + r_max."""
    if q.r <= 0:
        raise InvalidParameterError("the vertex is a pole; its cut locus is empty")
    check = is_von_mangoldt(profile, _vm_grid(profile))
    if not check.is_von_mangoldt:
        raise InvalidParameterError(
            "cut-locus structure requires non-increasing curvature; "
            f"curvature rises at r = {check.violation_radius}"
        )
    rho = q.r
    if horizon is None:
        horizon = rho + profile.r_max
    base = opposite_meridian_chain(profile, q, horizon)
    jac = jacobi_integrate(profile, base, 0.0, 1.0, horizon, tol=tol, stop_at_zero=True)
    if jac.first_zero is None:
        raise SearchHorizonError(
            f"no conjugate point within parameter {horizon}",
            lower_bound=horizon,
        )
    c = jac.first_zero
    if c <= rho:
        raise InternalConsistencyError(
            f"first conjugate parameter {c} <= rho = {rho}; the vertex "
            "should be a pole"
        )
    return c


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

    def conjugate_point(self) -> SurfacePoint:
        return SurfacePoint(float(self.r[0]), float(self.theta[0]))

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

    def to_json(self, filename) -> None:
        with open(filename, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    def to_csv(self, filename) -> None:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write("s,r,theta\n")
            for a, b, g in zip(self.s, self.r, self.theta):
                fh.write(f"{a:.17g},{b:.17g},{g:.17g}\n")


def cut_locus(profile: Profile, q: SurfacePoint,
              s_export_max: float | None = None, n_samples: int = 64,
              tol: float = 1e-10) -> CutArc:
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
    TwoRadiusConnectors over the array of sample radii, to tol.  A
    non-integer or non-positive n_samples, a tol that is not finite and
    positive, or a non-finite s_export_max raises InvalidParameterError.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) \
            or n_samples < 1:
        raise InvalidParameterError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
    if s_export_max is not None and not math.isfinite(s_export_max):
        raise InvalidParameterError(f"s_export_max must be finite, got {s_export_max}")
    c = first_conjugate(profile, q)
    rho = q.r
    if s_export_max is None:
        s_export_max = c + 10.0 * max(1.0, rho)
    if s_export_max <= c:
        raise InvalidParameterError("s_export_max must exceed the conjugate parameter")
    if s_export_max - rho > profile.r_max:
        s_export_max = rho + profile.r_max
    ss = np.linspace(c, s_export_max, n_samples)
    rr = ss - rho
    best = [min(cands, key=lambda con: con.length) for cands in
            TwoRadiusConnectors(profile, rho, rr, tol=tol).connectors(math.pi)]
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
    """Outcome of shooting verification at a candidate cut point."""

    q: tuple
    target: tuple
    segments: list            # (heading, F-length) sorted by length
    d_F: float
    n_minimizers: int
    equal_length_gap: float | None
    verified: bool
    reason: str

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
        }


def verify_cut_point(profile: Profile, q: SurfacePoint, target: SurfacePoint,
                     tol: float = 1e-5, n_scan: int = 720,
                     scan_tol: float = 3e-7) -> CutPointCheck:
    """Shoot F-geodesics from q over a full fan of headings and look for two
    distinct segments reaching the target with equal F-length.

    A genuine interior cut point is hit by two minimizing segments whose
    lengths agree to solver precision; elsewhere exactly one minimizer
    appears.  Failure to bracket two solutions is reported, not raised.
    """
    horizon = 1.05 * (q.r + target.r) + 0.5
    headings = np.linspace(-math.pi, math.pi, n_scan + 1)
    hits = shoot_hits(profile, q, target.r, target.theta, headings, horizon,
                      twist_mu=profile.mu, tol=scan_tol, refine_tol=1e-10)
    segments = sorted(((h, s) for h, s in hits), key=lambda t: t[1])
    d_f = distance_F(profile, q, target, tol=1e-9)
    n_min = sum(1 for _, ln in segments if ln <= d_f + tol)
    if len(segments) >= 2:
        gap = segments[1][1] - segments[0][1]
        verified = gap <= tol and n_min >= 2
        reason = "two equal-length segments found" if verified else (
            f"two segments found but length gap {gap} exceeds tol"
        )
    else:
        gap = None
        verified = False
        reason = "shooting bracketed fewer than two segments"
    return CutPointCheck(
        q=(q.r, q.theta), target=(target.r, target.theta),
        segments=[(float(h), float(ln)) for h, ln in segments],
        d_F=float(d_f), n_minimizers=int(n_min),
        equal_length_gap=None if gap is None else float(gap),
        verified=bool(verified), reason=reason,
    )


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

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "r_horizon": self.r_horizon,
            "integral_lower_bound": self.integral_lower_bound,
            "integral_numeric": self.integral_numeric,
            "jacobi_min": self.jacobi_min,
            "jacobi_max_deviation": self.jacobi_max_deviation,
            "certified": self.certified,
            "message": self.message,
        }


def certify_pole(profile: Profile, r_horizon: float | None = None) -> PoleCertificate:
    """Certify that the vertex is a pole up to a finite horizon.

    Two ingredients: (i) the divergence rate of the inverse squared parallel
    length, bounded below by mu^2/(4 pi^2) per unit radius because
    m < 1/mu, which forces every non-meridian geodesic to stay bounded; and
    (ii) the Jacobi field along a meridian from the vertex, which equals
    m(s) and therefore never vanishes, so meridians (and their twists) stay
    conjugate-point-free.
    """
    if r_horizon is None:
        r_horizon = profile.r_max
    if r_horizon <= 1.0:
        raise InvalidParameterError("horizon must exceed 1 for the tail bound")
    bound = profile.mu**2 / (4.0 * math.pi**2) * (r_horizon - 1.0)
    integral = quad(
        lambda r: 1.0 / (2.0 * math.pi * float(profile.m(r))) ** 2,
        1.0, r_horizon, epsabs=1e-12, epsrel=1e-10, limit=200,
    )[0]
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
