"""Lengths, distances, momenta, and Clairaut-relation verification.

Angles here are background angles: phi is the angle an h-geodesic makes
with the meridian through its foot point (sin phi = m * theta'_h), and psi
is the corresponding angle of the twisted geodesic, measured after
normalizing its tangent in h.  With nu the Clairaut constant of the
h-preimage, the twisted tangent has h-norm sqrt(1 + 2 mu nu + mu^2 m^2) and
satisfies

    sqrt(1 + 2 mu nu + mu^2 m^2) cos(psi - phi) = 1 + mu nu,
    m sin psi = (nu + mu m^2) / sqrt(1 + 2 mu nu + mu^2 m^2),

while the angular momentum p2 = F * (a22 y^2 / alpha + b2) is conserved with
value nu / (1 + mu nu).  These identities hold exactly along exact
geodesics; their sampled residuals measure integration quality.

Two-point distances use the navigation correspondence: an F-geodesic of
length T from q1 to q2 is an h-geodesic of length T from q1 to q2 rotated
back by mu*T.  Since the wind speed mu*m is everywhere below 1, the function
T -> d_h(q1, rot(-mu T) q2) - T is strictly decreasing and its unique zero
is the F-distance.  The background distance d_h itself is computed from the
Clairaut quadrature form: candidate connectors are the meridian chain
through the vertex, monotone-radius arcs, and single-turning-point arcs,
with the swept angle solved for the Clairaut constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (
    InvalidParameterError,
    MetricDegenerateError,
    NumericalBlowupError,
    SearchHorizonError,
    VertexSingularError,
)
from .geodesics import (
    GeodesicPath,
    GeodesicState,
    clairaut_angle,
    clairaut_angles,
    clairaut_leg,
    cumulative_F_length,
    integrate_h,
    level_crossings,
    level_crossings_batch,
)
from .profile import Profile, SurfacePoint, roots_on_grid, wrap_angle
from .zermelo import RandersData, Tangent, eval_F, navigation_transform, randers_data


# ---------------------------------------------------------------------------
# lengths


def f_length(profile: Profile, path: GeodesicPath) -> float:
    """F-length of a sampled path by quadrature over its dense output."""
    if len(path.s) < 2:
        raise InvalidParameterError("need at least 2 samples")
    return float(cumulative_F_length(profile, path)[-1])


def f_length_parallel(profile: Profile, r0: float, delta_theta: float) -> float:
    """F-length of the parallel arc at radius r0 of signed angular extent
    delta_theta (positive means along the wind)."""
    if r0 <= 0:
        raise InvalidParameterError("parallel arcs require r0 > 0")
    sgn = 1.0 if delta_theta >= 0 else -1.0
    # F is constant along a parallel
    return eval_F(profile, SurfacePoint(r0, 0.0), Tangent(0.0, sgn)) * abs(delta_theta)


def h_length_parallel(profile: Profile, r0: float) -> float:
    """Background length 2 pi m(r0) of a full parallel."""
    return 2.0 * math.pi * float(profile.m(r0))


# ---------------------------------------------------------------------------
# the meeting-point solver on a parallel


@dataclass(frozen=True)
class MeetingPoint:
    s1: float
    s2: float
    common_length: float
    s1_numeric: float
    s2_numeric: float
    common_length_numeric: float

    @property
    def max_deviation(self) -> float:
        return max(abs(self.s1 - self.s1_numeric), abs(self.s2 - self.s2_numeric),
                   abs(self.common_length - self.common_length_numeric))


def meeting_point(profile: Profile, r0: float) -> MeetingPoint:
    """Two travellers leave the same point of the parallel r = r0 along and
    against the wind (flow parametrization, speed mu d/dtheta) and meet after
    parameters s1 + s2 = 2 pi having covered equal F-lengths.

    Returns the closed-form solution
    (pi (1 + mu m0), pi (1 - mu m0), pi mu m0) together with the numeric
    solve of the same 2x2 linear system built from the travellers' F-speeds.
    """
    mu = profile.mu
    m0 = float(profile.m(r0))
    x = SurfacePoint(r0, 0.0)
    # F-speeds of the flow-parametrized travellers
    c_plus = eval_F(profile, x, Tangent(0.0, mu))
    c_minus = eval_F(profile, x, Tangent(0.0, -mu))
    a = np.array([[1.0, 1.0], [c_plus, -c_minus]])
    b = np.array([2.0 * math.pi, 0.0])
    s1n, s2n = np.linalg.solve(a, b)
    return MeetingPoint(
        s1=math.pi * (1.0 + mu * m0),
        s2=math.pi * (1.0 - mu * m0),
        common_length=math.pi * mu * m0,
        s1_numeric=float(s1n),
        s2_numeric=float(s2n),
        common_length_numeric=float(c_plus * s1n),
    )


def parallel_loop_report(profile: Profile, r0: float) -> dict:
    """Cross-check of closed-form lengths for the downwind parallel loop.

    Emits the flow-parametrized loop value, the traveller's constant speed
    times a parameter range of 2 pi, the geometric full-turn
    length (angular extent 2 pi), and the half-turn constant
    pi m / (1 + mu m) sometimes quoted as the closed-geodesic length.  The
    flow value exceeds that constant by the factor 2 mu in general; the
    report flags the inconsistency instead of reconciling it.
    """
    mu = profile.mu
    m0 = float(profile.m(r0))
    flow_loop = eval_F(profile, SurfacePoint(r0, 0.0), Tangent(0.0, mu)) * 2.0 * math.pi
    geometric_turn = f_length_parallel(profile, r0, 2.0 * math.pi)
    half_constant = math.pi * m0 / (1.0 + mu * m0)
    ratio = flow_loop / half_constant
    return {
        "r0": r0,
        "m0": m0,
        "mu": mu,
        "flow_loop_length": float(flow_loop),
        "geometric_full_turn_length": float(geometric_turn),
        "half_turn_constant": float(half_constant),
        "ratio_flow_over_constant": float(ratio),
        "consistent": bool(abs(ratio - 1.0) <= 1e-12),
    }


# ---------------------------------------------------------------------------
# momentum and Clairaut residuals


def momentum_p2(profile: Profile, state: GeodesicState) -> float:
    """Angular momentum p2 = F * (a22 y^2 / alpha + b2) of a tangent vector.

    Along F-unit geodesics p2 is conserved with value nu / (1 + mu nu).
    """
    if state.r <= 0:
        raise VertexSingularError("momentum undefined at the vertex")
    return float(_momentum(navigation_transform(profile, state.r),
                           state.dr, state.dtheta))


def _momentum(data: RandersData, y1, y2):
    # floats, or arrays with data from randers_data of an array
    alpha = np.sqrt(data.a11 * y1 * y1 + data.a22 * y2 * y2)
    F = alpha + data.b2 * y2
    return F * (data.a22 * y2 / alpha + data.b2)


@dataclass(frozen=True)
class ClairautReport:
    nu: float
    max_h_residual: float
    max_F1_residual: float
    max_F2_residual: float
    max_momentum_residual: float

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "max_h_residual": self.max_h_residual,
            "max_F1_residual": self.max_F1_residual,
            "max_F2_residual": self.max_F2_residual,
            "max_momentum_residual": self.max_momentum_residual,
        }


def clairaut_verify(profile: Profile, pathF: GeodesicPath) -> ClairautReport:
    """Evaluate both Clairaut relations and the momentum law at every sample
    of a twisted path and report the maximum residuals."""
    if pathF.metric_tag != "F" or pathF.h_preimage is None:
        raise InvalidParameterError(
            "clairaut_verify needs a twisted path with its h-preimage attached"
        )
    mu = profile.mu
    nu = pathF.nu
    rhs_mom = nu / (1.0 + mu * nu)
    one_mu_nu = 1.0 + mu * nu
    keep = pathF.h_preimage.states[:, 0] > 0.0
    r, _, dr, dth_h = pathF.h_preimage.states[keep].T
    dth_f = pathF.states[keep, 3]
    if r.size == 0:
        return ClairautReport(nu, 0.0, 0.0, 0.0, 0.0)
    m = np.broadcast_to(np.asarray(profile.m(r), dtype=float), r.shape)
    if np.any(mu * m >= 1.0):
        raise MetricDegenerateError(f"mu*m >= 1 at r = {r[mu * m >= 1.0][0]}")
    # |P'|_h = sqrt(1 + 2 mu nu + mu^2 m^2), written to stay exact when
    # the sampled state drifts: (1+mu nu)^2 - mu^2 nu^2 = 1 + 2 mu nu.
    speed = np.sqrt(one_mu_nu * one_mu_nu + mu * mu * m * m - mu * mu * nu * nu)
    sin_phi = m * dth_h
    cos_phi = dr
    sin_psi = m * dth_f / speed
    cos_psi = dr / speed
    res_h = float(np.max(np.abs(m * m * dth_h - nu)))
    res_f1 = float(np.max(np.abs(speed * (cos_psi * cos_phi + sin_psi * sin_phi)
                                 - one_mu_nu)))
    res_f2 = float(np.max(np.abs(m * sin_psi - (nu + mu * m * m) / speed)))
    res_mom = float(np.max(np.abs(
        _momentum(randers_data(mu, m), dr, dth_f) - rhs_mom)))
    return ClairautReport(nu, res_h, res_f1, res_f2, res_mom)


# ---------------------------------------------------------------------------
# background two-point distance via the Clairaut quadrature form


@dataclass(frozen=True)
class HConnector:
    """One geodesic connector candidate between two radii with given sweep."""

    kind: str        # "meridian" | "chain" | "direct" | "turning"
    nu: float
    length: float
    swept: float


def _turning_radius(profile: Profile, nu: float, r_below: float) -> float:
    f = lambda r: float(profile.m(r)) - abs(nu)
    lo = 0.0
    if f(r_below) < 0.0:
        raise InvalidParameterError(f"no turning point below r = {r_below}")
    return float(brentq(f, lo, r_below, xtol=1e-14))


def _turning_sweep(profile: Profile, nu: float, r1: float, r2: float,
                   tol: float):
    rt = _turning_radius(profile, nu, min(r1, r2))
    dth1, ds1 = clairaut_leg(profile, rt, r1, nu, tol, turning_left=True)
    dth2, ds2 = clairaut_leg(profile, rt, r2, nu, tol, turning_left=True)
    return dth1 + dth2, ds1 + ds2


def _turning_angle(profile: Profile, nu: float, r1: float, r2: float,
                   tol: float) -> float:
    """The delta_theta of _turning_sweep alone."""
    rt = _turning_radius(profile, nu, min(r1, r2))
    return (clairaut_angle(profile, rt, r1, nu, tol, turning_left=True)
            + clairaut_angle(profile, rt, r2, nu, tol, turning_left=True))


def _turning_radii(profile: Profile, nus: np.ndarray, r_below: float) -> np.ndarray:
    """Turning radii m(r) = |nu| on [0, r_below] of a whole nu array, by
    array bisection to float resolution; each returned radius has
    m(r) >= |nu|."""
    anu = np.abs(nus)
    lo, hi = np.zeros_like(anu), np.full_like(anu, r_below)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return hi
        below = np.asarray(profile.m(mid), dtype=float) < anu
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)


class TwoRadiusConnectors:
    """Connector solver between two fixed radii, reusable over many sweep
    targets.

    Tabulates the swept angle of the monotone direct family and of the
    graded turning family once, on fixed nu grids, in one
    geodesics.clairaut_angles pass: one evaluation of m on the nodes of
    every leg, with the turning radii of the whole grid found by one array
    bisection.  The tables only bracket: each query refines the sign
    changes of sweep - delta by brentq on the adaptive clairaut_angle (and
    _turning_angle) at tol, validates each root, and integrates the arc
    length once per root.  The tables pay off inside distance_F, whose
    outer root search re-queries the same radius pair with a rotating
    target angle.
    """

    def __init__(self, profile: Profile, r1: float, r2: float,
                 tol: float = 1e-10, n_sweep: int = 32):
        self.profile = profile
        self.r1, self.r2 = r1, r2
        self.tol = tol
        self.nu_max = float(min(profile.m(r1), profile.m(r2)))
        # Exactly tangent launches (nu = nu_max) hit the same cancellation
        # as zero-width turning legs; both families stop a sliver short.
        self.cap = self.nu_max * (1.0 - 1e-7)
        self.r_lo, self.r_hi = min(r1, r2), max(r1, r2)
        self.has_direct = self.r_hi - self.r_lo > 1e-9 * max(1.0, self.r_hi)
        self.direct_nus = (np.linspace(0.0, self.cap, n_sweep // 2)
                           if self.has_direct else np.empty(0))
        self.turning_nus = np.unique(np.concatenate([
            np.geomspace(1e-6 * self.nu_max, 0.5 * self.nu_max, n_sweep // 2),
            np.linspace(0.5 * self.nu_max, self.cap, n_sweep // 2),
        ]))
        nd, nt = self.direct_nus.size, self.turning_nus.size
        rt = _turning_radii(profile, self.turning_nus, self.r_lo)
        # legs: direct r_lo -> r_hi, then turning rt -> r1 and rt -> r2
        sweeps = clairaut_angles(
            profile,
            np.concatenate([np.full(nd, self.r_lo), rt, rt]),
            np.concatenate([np.full(nd, self.r_hi), np.full(nt, r1), np.full(nt, r2)]),
            np.concatenate([self.direct_nus, self.turning_nus, self.turning_nus]),
            np.arange(nd + 2 * nt) >= nd)
        self.direct_sweeps = sweeps[:nd]
        self.turning_sweeps = sweeps[nd:nd + nt] + sweeps[nd + nt:]

    def connectors(self, delta: float) -> list[HConnector]:
        if not (0.0 <= delta <= math.pi + 1e-15):
            raise InvalidParameterError(f"delta must be in [0, pi], got {delta}")
        out: list[HConnector] = []
        if delta == 0.0:
            out.append(HConnector("meridian", 0.0, abs(self.r1 - self.r2), 0.0))
            return out
        if abs(delta - math.pi) <= 1e-14:
            out.append(HConnector("chain", 0.0, self.r1 + self.r2, math.pi))

        profile, tol = self.profile, self.tol
        r_lo, r_hi, r1, r2 = self.r_lo, self.r_hi, self.r1, self.r2
        families = []
        if self.has_direct:
            families.append(("direct", self.direct_nus, self.direct_sweeps,
                             lambda nu: clairaut_angle(profile, r_lo, r_hi, nu, tol),
                             lambda nu: clairaut_leg(profile, r_lo, r_hi, nu, tol)))
        families.append(("turning", self.turning_nus, self.turning_sweeps,
                         lambda nu: _turning_angle(profile, nu, r1, r2, tol),
                         lambda nu: _turning_sweep(profile, nu, r1, r2, tol)))
        for kind, nus, sweeps, angle, sweep in families:
            for nu_star in roots_on_grid(lambda nu: angle(nu) - delta, nus,
                                         sweeps - delta, xtol=1e-12):
                dth, ds = sweep(nu_star)
                # defensive: a refined root must actually realize the target sweep
                if abs(dth - delta) <= 1e-6 * max(1.0, delta):
                    out.append(HConnector(kind, nu_star, float(ds), float(dth)))
        return out


def _check_increasing_warp(profile: Profile, r_hi: float) -> bool:
    rr = np.linspace(0.0, min(r_hi, profile.r_max), 128)[1:]
    return bool(np.all(np.asarray(profile.m1(rr), dtype=float) > 0.0))


def h_distance(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
               tol: float = 1e-10,
               solver: TwoRadiusConnectors | None = None) -> float:
    """Background (Riemannian) distance between two points.

    Uses the Clairaut quadrature families on profiles whose warp is strictly
    increasing over the relevant radii, falling back to dense ODE shooting
    otherwise.  A prebuilt TwoRadiusConnectors for (q1.r, q2.r) may be
    passed to amortize the family sweeps over repeated queries.
    """
    if q1.r == 0.0:
        return q2.r
    if q2.r == 0.0:
        return q1.r
    delta = abs(wrap_angle(q2.theta - q1.theta))
    if delta == 0.0 and q1.r == q2.r:
        return 0.0
    # Near-field shortcut: within chart distance 1e-5 the geodesic distance
    # equals the chart distance up to O(curvature * d^3) ~ 1e-15.
    chart = math.hypot(q2.r - q1.r,
                       float(profile.m(0.5 * (q1.r + q2.r))) * delta)
    if chart < 1e-5:
        return chart
    if not _check_increasing_warp(profile, max(q1.r, q2.r) * 1.05):
        return _h_distance_shooting(profile, q1, q2)
    if solver is None:
        solver = TwoRadiusConnectors(profile, q1.r, q2.r, tol=tol)
    cands = solver.connectors(delta)
    if not cands:
        # the families cover (0, pi) except a sliver of nearly-tangent
        # connectors between nearly-equal radii; fall back to shooting there
        return _h_distance_shooting(profile, q1, q2)
    return min(c.length for c in cands)


def _h_distance_shooting(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
                         n_scan: int = 360, tol: float = 1e-9) -> float:
    """Dense ODE shooting over the initial heading; used when the warp is
    not monotone so the quadrature families do not enumerate connectors."""
    horizon = q1.r + q2.r + math.pi * float(profile.m(max(q1.r, q2.r))) + 1.0
    hits = shoot_hits(
        profile, q1, q2.r, q2.theta,
        headings=np.linspace(-math.pi, math.pi, n_scan, endpoint=False),
        horizon=horizon, twist_mu=0.0, tol=tol,
    )
    best = min((h[1] for h in hits), default=math.inf)
    best = min(best, q1.r + q2.r if abs(wrap_angle(q2.theta - q1.theta)) == math.pi
               else math.inf)
    if not math.isfinite(best):
        raise SearchHorizonError(
            f"no connector found within horizon {horizon}", lower_bound=horizon
        )
    return best


class _CrossingLost(Exception):
    """The k-th crossing of a ray vanished inside a heading bracket."""


def shoot_hits(profile: Profile, q_from: SurfacePoint, r_target: float,
               theta_target: float, headings, horizon: float,
               twist_mu: float = 0.0, tol: float = 1e-9,
               refine_tol: float = 1e-11) -> list[tuple[float, float]]:
    """Scan geodesics from q_from over initial headings and return refined
    (heading, parameter) pairs whose (possibly twisted) trajectory passes
    through (r_target, theta_target mod 2 pi).

    The heading chi parametrizes the h-unit tangent
    (cos chi, sin chi / m(r)); chi and chi + 2 pi are the same direction, so
    a full-circle scan should pass a grid covering [-pi, pi] endpoint
    included.  With twist_mu nonzero, trajectories are the twisted paths
    theta + twist_mu * s of the shot h-geodesics.

    The scan runs every heading in one batched integration at tol
    (geodesics.level_crossings_batch): a ray that leaves r <= r_max keeps
    the crossings it made before, and a ray that blows up at the vertex
    floor has none.  Crossings of the target radius are indexed in
    parameter order and the angular miss of the k-th crossing is bracketed
    between consecutive headings, then refined by brentq in the heading,
    each iterate one integrate_h ray at refine_tol.  Brackets with a miss
    above 2.5 rad are skipped, so that the angle wrap at +-pi does not pass
    for a zero.
    """
    if q_from.r <= 0.0:
        raise VertexSingularError("headings do not parametrize rays from the vertex")
    m_at = float(profile.m(q_from.r))
    headings = np.asarray(headings, dtype=float)

    def twisted(s_c: np.ndarray, y_c: np.ndarray) -> list[tuple[float, float]]:
        return list(zip(s_c.tolist(), (y_c[:, 1] + twist_mu * s_c).tolist()))

    def crossings(chi: float, tol_i: float) -> list[tuple[float, float]]:
        st = GeodesicState(q_from.r, q_from.theta, math.cos(chi),
                           math.sin(chi) / m_at)
        try:
            path = integrate_h(profile, st, horizon, tol=tol_i)
        except NumericalBlowupError:
            return []
        return twisted(*level_crossings(path, r_target))

    fan = np.column_stack([np.full(headings.size, q_from.r),
                           np.full(headings.size, q_from.theta),
                           np.cos(headings), np.sin(headings) / m_at])
    scanned = [twisted(*c) for c in
               level_crossings_batch(profile, fan, horizon, r_target, tol)]
    hits: list[tuple[float, float]] = []
    for i in range(len(headings) - 1):
        chi_a, chi_b = float(headings[i]), float(headings[i + 1])
        ca, cb = scanned[i], scanned[i + 1]
        for k in range(min(len(ca), len(cb))):
            ga = wrap_angle(ca[k][1] - theta_target)
            gb = wrap_angle(cb[k][1] - theta_target)
            if abs(ga) > 2.5 or abs(gb) > 2.5:
                continue  # avoid brackets straddling the angle wrap
            seen = {chi_a: ca, chi_b: cb}

            def miss(chi: float) -> float:
                cs = seen[chi] = crossings(chi, refine_tol)
                if len(cs) <= k:
                    raise _CrossingLost
                return wrap_angle(cs[k][1] - theta_target)

            try:
                roots = roots_on_grid(miss, (chi_a, chi_b), (ga, gb), xtol=1e-13)
            except _CrossingLost:
                continue
            hits += [(chi, float(seen[chi][k][0])) for chi in roots]
    # headings are compared mod 2 pi: on a closed scan grid [-pi, pi] one
    # segment can show up at both ends
    out: list[tuple[float, float]] = []
    for h in sorted(hits):
        if all(abs(wrap_angle(h[0] - o[0])) > 1e-7 or abs(h[1] - o[1]) > 1e-7
               for o in out):
            out.append(h)
    return out


# ---------------------------------------------------------------------------
# navigation distances


@dataclass(frozen=True)
class DistanceReport:
    q1: tuple
    q2: tuple
    distance: float
    tol: float
    iterations: int
    bracket: tuple
    converged: bool

    def to_dict(self) -> dict:
        return {
            "q1": {"r": self.q1[0], "theta": self.q1[1]},
            "q2": {"r": self.q2[0], "theta": self.q2[1]},
            "distance": self.distance,
            "tol": self.tol,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
            "converged": self.converged,
        }


def distance_F_report(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
                      tol: float = 1e-9, t_max: float | None = None
                      ) -> DistanceReport:
    """Navigation distance d_F(q1, q2) with solver diagnostics.

    Solves d_h(q1, rot(-mu T) q2) = T for the smallest positive T.  The
    through-vertex bound d_F <= r1 + r2 always brackets the root; t_max only
    guards against a misconfigured fallback search.
    """
    mu = profile.mu
    if t_max is None:
        t_max = 4.0 * (q1.r + q2.r + math.pi * float(profile.m(max(q1.r, q2.r, 1e-9))))
    if q1.r == q2.r and wrap_angle(q1.theta - q2.theta) == 0.0:
        return DistanceReport((q1.r, q1.theta), (q2.r, q2.theta), 0.0, tol, 0,
                              (0.0, 0.0), True)
    if q1.r == 0.0:
        return DistanceReport((q1.r, q1.theta), (q2.r, q2.theta), q2.r, tol, 0,
                              (q2.r, q2.r), True)

    solver = None
    if q2.r > 0.0 and _check_increasing_warp(profile, max(q1.r, q2.r) * 1.05):
        solver = TwoRadiusConnectors(profile, q1.r, q2.r)

    def g(T: float) -> float:
        target = SurfacePoint(q2.r, q2.theta - mu * T)
        return h_distance(profile, q1, target, solver=solver) - T

    hi = q1.r + q2.r
    if hi > t_max:
        raise SearchHorizonError(f"bracket {hi} exceeds search horizon {t_max}",
                                 lower_bound=t_max)
    g_hi = g(hi)
    if g_hi > 0.0:
        raise SearchHorizonError(
            f"no root bracketed below T = {hi}; g({hi}) = {g_hi}",
            lower_bound=hi,
        )
    if g_hi == 0.0:
        # the through-vertex bound is the root; brentq would return it
        # without setting its iteration count
        return DistanceReport((q1.r, q1.theta), (q2.r, q2.theta), hi, tol, 0,
                              (0.0, hi), True)
    t_root, res = brentq(g, 0.0, hi, xtol=tol, full_output=True)
    return DistanceReport(
        (q1.r, q1.theta), (q2.r, q2.theta), float(t_root), tol,
        int(res.iterations), (0.0, hi), bool(res.converged),
    )


def distance_F(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
               tol: float = 1e-9, t_max: float | None = None) -> float:
    return distance_F_report(profile, q1, q2, tol=tol, t_max=t_max).distance
