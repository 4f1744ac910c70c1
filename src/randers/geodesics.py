"""Geodesic integration, the twist map, and quadrature forms.

Unit-speed geodesics of the background metric h solve

    r'' = m m' (theta')^2,        theta'' = -2 (m'/m) r' theta',

with r'^2 + m^2 theta'^2 = 1, and conserve the Clairaut constant
nu = m^2 theta'.  Geodesics of the navigation metric F are obtained from
h-geodesics by the twist map (r, theta) -> (r, theta + mu s), which carries
h-unit speed to F-unit speed.

Between turning points (radii with m(r) = |nu|) the same geodesics admit a
quadrature form: with

    xi(r, nu)  = nu / (m sqrt(m^2 - nu^2)),
    eta(r, nu) = m / sqrt(m^2 - nu^2),

the angle and arc-length advances are integrals of xi and eta in r, and the
twisted angular advance adds mu times the arc length.  The inverse-square-
root endpoint singularity at a turning point r_t is removed by substituting
r = r_t + u^2, which is regular because m'(r_t) != 0 at any simple turning
point.

Exact meridians are not sent through the ODE: they are integrated
analytically, including continuation through the vertex, where theta jumps
by pi (the polar chart degenerates; the geodesic itself is smooth).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from . import odesolve
from .errors import (
    InconsistentInputError,
    InvalidBracketError,
    InvalidParameterError,
    NumericalBlowupError,
    VertexSingularError,
)
from .profile import Profile, SurfacePoint, roots_on_grid
from .zermelo import Tangent, eval_F, eval_F_array

# States with |dtheta| below this are integrated as exact meridians: their
# turning radius would be ~|nu| < 1e-11, far beyond chart resolution.
_MERIDIAN_EPS = 1e-11
_UNIT_SPEED_PRE_TOL = 1e-10


@dataclass(frozen=True)
class GeodesicState:
    """Phase-space point (r, theta, dr/ds, dtheta/ds)."""

    r: float
    theta: float
    dr: float
    dtheta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.theta, self.dr, self.dtheta])


def h_speed(profile: Profile, state: GeodesicState) -> float:
    m = float(profile.m(state.r))
    return math.hypot(state.dr, m * state.dtheta)


def clairaut_constant(profile: Profile, state: GeodesicState) -> float:
    """Conserved quantity nu = m(r)^2 * dtheta along h-geodesics."""
    m = float(profile.m(state.r))
    return m * m * state.dtheta


@dataclass
class GeodesicPath:
    """Sampled geodesic with dense interpolation.

    samples hold rows (r, theta, dr, dtheta) at the parameters in s.  dense
    maps a parameter, or an array of them, to the state row(s) there.  The
    arrays are not copied on access; treat paths as immutable once returned.
    """

    s: np.ndarray
    states: np.ndarray
    nu: float
    metric_tag: str            # "h" or "F"
    kind: str                  # meridian | twisted-meridian | parallel | generic
    mu: float
    tol: float
    dense: Callable[..., np.ndarray] = field(repr=False, default=None)
    h_preimage: "GeodesicPath | None" = field(repr=False, default=None)
    max_unit_drift: float = 0.0
    max_clairaut_drift: float = 0.0
    exit_reason: str = "completed"

    @property
    def length(self) -> float:
        return float(self.s[-1] - self.s[0])

    def state_at(self, s: float) -> GeodesicState:
        y = self.dense(float(s))
        return GeodesicState(*map(float, y))

    def initial_state(self) -> GeodesicState:
        return GeodesicState(*map(float, self.states[0]))


def _classify(profile: Profile, state: GeodesicState) -> str:
    if abs(state.dtheta) < _MERIDIAN_EPS:
        return "meridian"
    if abs(state.dr) < 1e-12 and abs(float(profile.m1(state.r))) < 1e-12:
        return "parallel"
    return "generic"


def _sample_grid(length: float, h_cap: float) -> np.ndarray:
    n = max(2, int(math.ceil(length / h_cap)) + 1)
    return np.linspace(0.0, length, n)


def _meridian_path(profile: Profile, state0: GeodesicState, length: float,
                   tol: float) -> GeodesicPath:
    r0, theta0, sgn = state0.r, state0.theta, 1.0 if state0.dr >= 0 else -1.0
    rho = r0 if sgn < 0 else math.inf     # vertex-crossing parameter

    def dense(s) -> np.ndarray:
        if isinstance(s, (int, float)):
            # scalar reads (the Jacobi right-hand side) skip the array path
            if s >= rho:
                return np.array([s - rho, theta0 + math.pi, 1.0, 0.0])
            return np.array([r0 + sgn * s, theta0, sgn, 0.0])
        s = np.asarray(s, dtype=float)
        past = s >= rho
        return np.stack([np.where(past, s - rho, r0 + sgn * s),
                         np.where(past, theta0 + math.pi, theta0),
                         np.where(past, 1.0, sgn), np.zeros_like(s)], axis=-1)

    h_cap = min(0.1, 0.1 / profile.mu)
    ss = _sample_grid(length, h_cap)
    if sgn < 0 and 0.0 < rho < length:
        ss = np.unique(np.concatenate([ss, [rho]]))
    states = dense(ss)
    return GeodesicPath(
        s=ss, states=states, nu=0.0, metric_tag="h", kind="meridian",
        mu=profile.mu, tol=tol, dense=dense,
    )


def _h_max(profile: Profile) -> float:
    """Step cap of the geodesic integrators."""
    return min(0.1, 0.1 / profile.mu)


def _r_floor(nu):
    """Radius that no geodesic with Clairaut constant nu can reach: it turns
    where m(r) = |nu|, near r = |nu|.  A ray that gets there has blown up."""
    return np.maximum(1e-14, 1e-3 * np.abs(nu))


def _check_length_tol(length: float, tol: float) -> None:
    if not (math.isfinite(length) and length > 0):
        raise InvalidParameterError(f"length must be finite and > 0, got {length}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")


def integrate_h(profile: Profile, state0: GeodesicState, length: float,
                tol: float = 1e-10) -> GeodesicPath:
    """Integrate an h-unit-speed geodesic for the given parameter length.

    The initial state must satisfy the unit-speed condition to 1e-10.  After
    each accepted step the velocity is rescaled back to unit h-speed; the drift
    absorbed by the rescaling and the Clairaut drift of the samples are
    recorded on the returned path as quality metrics.

    Exact meridians (dtheta = 0) are integrated analytically, continuing
    through the vertex with a theta jump of pi.  If the path leaves the
    numerical domain r <= r_max it is truncated there and flagged with
    exit_reason = "domain-exit".
    """
    _check_length_tol(length, tol)
    speed = h_speed(profile, state0)
    if abs(speed - 1.0) > _UNIT_SPEED_PRE_TOL:
        raise InvalidParameterError(
            f"initial state is not h-unit speed: |v|_h = {speed}"
        )
    if abs(state0.dtheta) < _MERIDIAN_EPS:
        return _meridian_path(profile, state0, length, tol)
    if state0.r <= 0.0:
        raise VertexSingularError(
            "cannot start at the vertex with nonzero angular speed"
        )

    nu0 = clairaut_constant(profile, state0)
    m_fn, m1_fn = profile.m, profile.m1

    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        r, _, dr, dth = y
        m = float(m_fn(r))
        m1 = float(m1_fn(r))
        return np.array([dr, dth, m * m1 * dth * dth, -2.0 * (m1 / m) * dr * dth])

    drift = {"unit": 0.0, "clairaut": 0.0}

    def renormalize(s: float, y: np.ndarray) -> np.ndarray:
        m = float(m_fn(y[0]))
        norm = math.hypot(y[2], m * y[3])
        drift["unit"] = max(drift["unit"], abs(norm - 1.0))
        out = y.copy()
        out[2] /= norm
        out[3] /= norm
        drift["clairaut"] = max(drift["clairaut"], abs(m * m * out[3] - nu0))
        return out

    r_floor = _r_floor(nu0)
    events = [
        odesolve.EventSpec(lambda s, y: y[0] - profile.r_max, terminal=True, direction=1),
        odesolve.EventSpec(lambda s, y: y[0] - r_floor, terminal=True, direction=-1),
    ]
    sol = odesolve.integrate(
        rhs, 0.0, state0.as_array(), length, tol=tol,
        h_max=_h_max(profile), post_step=renormalize, events=events,
    )
    if sol.status == "event:1":
        raise NumericalBlowupError(
            f"geodesic with nu = {nu0} reached r = {r_floor}, which no true "
            "geodesic with nonzero Clairaut constant can do"
        )
    exit_reason = "completed"
    if sol.status == "event:0":
        exit_reason = "domain-exit"
        # the exit sample lies on r = r_max; the event root leaves ~1e-15
        sol.y[-1, 0] = profile.r_max
    return GeodesicPath(
        s=sol.s, states=sol.y, nu=nu0, metric_tag="h",
        kind=_classify(profile, state0), mu=profile.mu, tol=tol,
        dense=sol, max_unit_drift=drift["unit"],
        max_clairaut_drift=drift["clairaut"], exit_reason=exit_reason,
    )


def level_crossings(path: GeodesicPath, r_level: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Parameters and states where a sampled path crosses the parallel
    r = r_level: sign changes of r - r_level between samples (and samples
    exactly on it), refined to 1e-12 by brentq on the dense output."""
    s_c = np.array(roots_on_grid(lambda s: path.dense(s)[0] - r_level, path.s,
                                 path.states[:, 0] - r_level, xtol=1e-12))
    return s_c, path.dense(s_c)


def level_crossings_batch(profile: Profile, states0, length: float,
                          r_level: float, tol: float = 1e-10
                          ) -> list[tuple[np.ndarray, np.ndarray]]:
    """level_crossings of the h-geodesic from every row (r, theta, dr,
    dtheta) of states0 over [0, length], without building the paths.

    Exact meridians take the analytic path of integrate_h.  All other rows
    run in one odesolve.integrate_batch pass with the right-hand side, unit
    speed projection, step cap and events of integrate_h; each crossing is
    refined on the Hermite cubic of its step.  A row that leaves r <= r_max
    keeps the crossings before its exit; a row that reaches the blow-up
    floor, where integrate_h raises NumericalBlowupError, has none.
    """
    _check_length_tol(length, tol)
    y0 = np.array(states0, dtype=float).reshape(-1, 4)
    m0 = np.asarray(profile.m(y0[:, 0]), dtype=float)
    speed = np.hypot(y0[:, 2], m0 * y0[:, 3])
    if not np.all(np.abs(speed - 1.0) <= _UNIT_SPEED_PRE_TOL):
        raise InvalidParameterError(
            f"initial states are not h-unit speed: |v|_h = {speed}")
    meridian = np.abs(y0[:, 3]) < _MERIDIAN_EPS
    if np.any(y0[~meridian, 0] <= 0.0):
        raise VertexSingularError(
            "cannot start at the vertex with nonzero angular speed")
    out = [level_crossings(_meridian_path(profile, GeodesicState(*row), length, tol),
                           r_level) if merid else None
           for row, merid in zip(y0.tolist(), meridian.tolist())]
    ode = np.flatnonzero(~meridian)
    if ode.size == 0:
        return out
    m_fn, m1_fn = profile.m, profile.m1

    def rhs(s, y):
        dr, dth = y[:, 2], y[:, 3]
        m = m_fn(y[:, 0])
        m1 = m1_fn(y[:, 0])
        return np.stack([dr, dth, m * m1 * dth * dth, -2.0 * (m1 / m) * dr * dth],
                        axis=1)

    def renormalize(s, y):
        norm = np.hypot(y[:, 2], m_fn(y[:, 0]) * y[:, 3])
        unit = y.copy()
        unit[:, 2:] /= norm[:, None]
        return unit

    nu0 = m0[ode] ** 2 * y0[ode, 3]
    events = [odesolve.LevelEvent(0, profile.r_max, terminal=True, direction=1),
              odesolve.LevelEvent(0, _r_floor(nu0), terminal=True, direction=-1),
              odesolve.LevelEvent(0, r_level)]
    sol = odesolve.integrate_batch(rhs, 0.0, y0[ode], length, tol=tol,
                                   h_max=_h_max(profile), post_step=renormalize,
                                   events=events)
    rows, s_c, y_c = sol.events[2]
    ends = np.cumsum(np.bincount(rows, minlength=ode.size))
    for j, i in enumerate(ode.tolist()):
        lo = ends[j - 1] if j else 0
        s_i, y_i = s_c[lo:ends[j]], y_c[lo:ends[j]]
        if sol.status[j] == "event:1":
            s_i, y_i = s_i[:0], y_i[:0]
        elif y0[i, 0] == r_level:
            # a start exactly on the level is a crossing for level_crossings
            # (a sample with value zero), not for the event, which needs a
            # strict sign at the step start
            s_i, y_i = np.append(0.0, s_i), np.vstack([y0[i], y_i])
        out[i] = (s_i, y_i)
    return out


_TWIST_KIND = {"meridian": "twisted-meridian", "parallel": "parallel",
               "generic": "generic"}


def twist(path: GeodesicPath, mu: float) -> GeodesicPath:
    """Map an h-unit-speed path to the navigation metric:
    (r, theta, r', theta') -> (r, theta + mu s, r', theta' + mu)."""
    if path.metric_tag != "h":
        raise InvalidParameterError("twist expects an h-geodesic path")
    states = path.states.copy()
    states[:, 1] = states[:, 1] + mu * path.s
    states[:, 3] = states[:, 3] + mu

    h_dense = path.dense

    def dense(s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        y = h_dense(s).copy()
        y[..., 1] += mu * s
        y[..., 3] += mu
        return y

    return GeodesicPath(
        s=path.s, states=states, nu=path.nu, metric_tag="F",
        kind=_TWIST_KIND.get(path.kind, "generic"), mu=mu, tol=path.tol,
        dense=dense, h_preimage=path,
        max_unit_drift=path.max_unit_drift,
        max_clairaut_drift=path.max_clairaut_drift,
        exit_reason=path.exit_reason,
    )


def integrate_F(profile: Profile, q: SurfacePoint, yF: Tangent, length: float,
                tol: float = 1e-10) -> GeodesicPath:
    """Integrate the F-geodesic from q with F-unit initial tangent yF.

    Subtracting the wind gives the h-initial data (yF.y1, yF.y2 - mu), which
    must be h-unit; the h-geodesic is integrated and twisted back.
    """
    _check_length_tol(length, tol)
    if q.r == 0.0:
        # Only twisted meridians emanate from the vertex; the angular
        # component of yF is immaterial there (m = 0).
        if abs(abs(yF.y1) - 1.0) > _UNIT_SPEED_PRE_TOL:
            raise InvalidParameterError(
                "at the vertex the F-unit tangent must be meridian-directed"
            )
        h0 = GeodesicState(0.0, q.theta, math.copysign(1.0, yF.y1), 0.0)
        return twist(integrate_h(profile, h0, length, tol=tol), profile.mu)
    F0 = eval_F(profile, q, yF)
    if abs(F0 - 1.0) > _UNIT_SPEED_PRE_TOL:
        raise InvalidParameterError(f"initial tangent is not F-unit: F = {F0}")
    y1, y2 = yF.y1, yF.y2 - profile.mu
    m = float(profile.m(q.r))
    hn = math.hypot(y1, m * y2)
    if abs(hn - 1.0) > 1e-8:
        raise InconsistentInputError(
            f"wind subtraction of an F-unit vector gave |y|_h = {hn}"
        )
    dth = 0.0 if abs(y2) < _MERIDIAN_EPS else y2
    h0 = GeodesicState(q.r, q.theta, y1, dth)
    h_path = integrate_h(profile, h0, length, tol=tol)
    return twist(h_path, profile.mu)


# ---------------------------------------------------------------------------
# quadrature form


def _xi_eta(profile: Profile, nu: float, nu_disc: float | None = None):
    """Closures for the angle and arc-length integrands.

    nu_disc, when given, replaces |nu| inside the discriminant
    m(r)^2 - nu^2.  Turning legs pass m(r_t) for it so the discriminant
    vanishes exactly at the computed turning radius; otherwise the ~1e-14
    float error of the root gets amplified by the inverse square root into
    O(sqrt(eps_rt / nu)) sweep errors for small Clairaut constants.
    """
    m_fn = profile.m
    anu = abs(nu)
    a_disc = anu if nu_disc is None else abs(nu_disc)

    def disc(r: float) -> float:
        m = float(m_fn(r))
        return max((m - a_disc) * (m + a_disc), 1e-300)

    def xi(r: float) -> float:
        return nu / (float(m_fn(r)) * math.sqrt(disc(r)))

    def eta(r: float) -> float:
        return float(m_fn(r)) / math.sqrt(disc(r))

    return xi, eta


def _integrate_desingularized(f, ra: float, rb: float, tol: float,
                              left_breaks=(), right_breaks=()) -> float:
    """Integrate f on [ra, rb] with r = ra + u^2 / r = rb - v^2 substitutions
    on the two halves, removing inverse-square-root endpoint singularities.

    Optional break lists force panel boundaries in the substituted variables;
    small-Clairaut turning legs concentrate an O(1) contribution of the angle
    integrand in a spike of width sqrt(2 nu / m') that plain adaptive panels
    can miss silently.  full_output=1 silences the quadpack roundoff warning
    that the clamped near-turning-point integrand triggers; the absolute
    noise it reports is orders below the tolerances used here.
    """
    mid = 0.5 * (ra + rb)
    ua = math.sqrt(mid - ra)
    ub = math.sqrt(rb - mid)
    lpts = [u for u in left_breaks if 0.0 < u < ua] or None
    rpts = [v for v in right_breaks if 0.0 < v < ub] or None
    left = quad(lambda u: 2.0 * u * f(ra + u * u), 0.0, ua, points=lpts,
                epsabs=0.25 * tol, epsrel=1e-12, limit=200, full_output=1)[0]
    right = quad(lambda v: 2.0 * v * f(rb - v * v), 0.0, ub, points=rpts,
                 epsabs=0.25 * tol, epsrel=1e-12, limit=200, full_output=1)[0]
    return left + right


def _spike_breaks(profile: Profile, nu: float, r_end: float) -> tuple:
    """Panel boundaries at the turning-point spike scale of the angle
    integrand after the u-substitution."""
    if nu == 0.0:
        return ()
    mp = max(abs(float(profile.m1(r_end))), 1e-9)
    u_sp = math.sqrt(2.0 * abs(nu) / mp)
    return (u_sp, 8.0 * u_sp)


def _leg_integral(integrand: int, profile: Profile, ra: float, rb: float,
                  nu: float, tol: float, turning_left: bool,
                  turning_right: bool) -> float:
    """Integral of xi (integrand 0) or eta (1) over a leg of clairaut_leg."""
    nu_disc = None
    if turning_left:
        nu_disc = float(profile.m(ra))
    elif turning_right:
        nu_disc = float(profile.m(rb))
    f = _xi_eta(profile, nu, nu_disc)[integrand]
    lb = _spike_breaks(profile, nu, ra)
    rb_breaks = _spike_breaks(profile, nu, rb) if turning_right else ()
    return _integrate_desingularized(f, ra, rb, tol, lb, rb_breaks)


def clairaut_angle(profile: Profile, ra: float, rb: float, nu: float, tol: float,
                   turning_left: bool = False, turning_right: bool = False) -> float:
    """delta_theta of clairaut_leg alone, at half its quad calls."""
    return _leg_integral(0, profile, ra, rb, nu, tol, turning_left, turning_right)


# Fixed composite rule of clairaut_angles: per half-leg, _ANGLE_PANELS panels
# of _ANGLE_NODES Gauss-Legendre nodes each.
_ANGLE_NODES = 12
_ANGLE_PANELS = 17
_ANGLE_T, _ANGLE_W = np.polynomial.legendre.leggauss(_ANGLE_NODES)


def _as_array(values, shape) -> np.ndarray:
    """Profile function values as a float array of the given shape: a
    constant expression such as m1 = "1" returns a scalar."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


def clairaut_angles(profile: Profile, ra, rb, nu, turning_left) -> np.ndarray:
    """clairaut_angle of every leg (ra[i], rb[i], nu[i], turning_left[i]) by
    one fixed composite Gauss-Legendre rule.

    The substitutions are those of clairaut_angle: r = ra + u^2 on the left
    half and r = rb - v^2 on the right half, with the discriminant pinned to
    m(ra) on turning legs.  Each half is cut into panels graded
    geometrically from [0, s] up to its half-width, where s is the smaller
    of the spike scale sqrt(2 |nu| / m') of _spike_breaks and, where the
    discriminant D = m^2 - a^2 (a = |nu|, or the pinned m(ra)) is positive
    at that end, its scale sqrt(D / (2 m m')), which is small on
    near-tangent direct legs.  m is evaluated once on the nodes of every
    leg.  Legs need ra < rb.  The error is not controlled: the rule is meant
    for tables that bracket roots, which are then refined on clairaut_angle.
    """
    ra, rb, nu, turning_left = np.broadcast_arrays(
        np.asarray(ra, dtype=float), np.asarray(rb, dtype=float),
        np.asarray(nu, dtype=float), np.asarray(turning_left, dtype=bool))
    n = ra.size
    ends = np.concatenate([ra.ravel(), rb.ravel()])
    m_end = _as_array(profile.m(ends), ends.shape)
    m1_end = np.maximum(np.abs(_as_array(profile.m1(ends), ends.shape)), 1e-9)
    anu = np.tile(np.abs(nu.ravel()), 2)
    a_disc = np.where(np.tile(turning_left.ravel(), 2), np.tile(m_end[:n], 2), anu)
    # half-widths in u (left halves) and v (right halves)
    width = np.tile(np.sqrt(0.5 * (rb - ra).ravel()), 2)
    d = (m_end - a_disc) * (m_end + a_disc)
    disc_scale = np.sqrt(np.where(d > 0.0, d, np.inf) / (2.0 * m_end * m1_end))
    scale = np.minimum(np.sqrt(2.0 * anu / m1_end), disc_scale)
    # the first panel is at most as wide as a uniform one; tiny scales stay
    # positive so that the geometric grading is defined
    s = np.clip(scale, 1e-300, width / _ANGLE_PANELS)
    k = np.arange(_ANGLE_PANELS) / (_ANGLE_PANELS - 1)
    breaks = np.empty((2 * n, _ANGLE_PANELS + 1))
    breaks[:, 0] = 0.0
    breaks[:, 1:] = s[:, None] * (width / s)[:, None] ** k
    breaks[:, -1] = width
    half = 0.5 * np.diff(breaks, axis=1)
    u = (0.5 * (breaks[:, 1:] + breaks[:, :-1]))[..., None] + half[..., None] * _ANGLE_T
    sgn = np.repeat([1.0, -1.0], n)[:, None, None]
    r = ends[:, None, None] + sgn * u * u
    m = _as_array(profile.m(r.ravel()), (r.size,)).reshape(r.shape)
    ad = a_disc[:, None, None]
    # u / (m sqrt(max(m^2 - a^2, 1e-300))), in place
    g = m - ad
    g *= m + ad
    np.maximum(g, 1e-300, out=g)
    np.sqrt(g, out=g)
    g *= m
    np.divide(u, g, out=g)
    per_half = 2.0 * np.tile(nu.ravel(), 2) * ((g @ _ANGLE_W) * half).sum(axis=1)
    return (per_half[:n] + per_half[n:]).reshape(ra.shape)


def clairaut_leg(profile: Profile, ra: float, rb: float, nu: float, tol: float,
                 turning_left: bool = False, turning_right: bool = False):
    """(delta_theta, delta_s) over the leg ra < r < rb of an h-geodesic with
    Clairaut constant nu and increasing r, without validating the leg.

    turning_left / turning_right mark an endpoint as the turning radius of
    nu: the discriminant zero is pinned there (the left end when both are
    marked) and a right-end turning point gets its own spike panel breaks.
    """
    return (clairaut_angle(profile, ra, rb, nu, tol, turning_left, turning_right),
            _leg_integral(1, profile, ra, rb, nu, tol, turning_left, turning_right))


def quadrature_segment(profile: Profile, ra: float, rb: float, nu: float,
                       sign: int, tol_quad: float = 1e-10):
    """Angle, arc-length, and twisted-angle advances over a monotone-r leg.

    Returns (delta_theta, delta_s, delta_P2) where delta_P2 is the angular
    advance of the twisted geodesic, delta_theta + mu * delta_s.  sign is the
    sign of r' on the leg.  m(r) must exceed |nu| on the open interval; the
    endpoints may be turning points.
    """
    if rb <= ra:
        raise InvalidParameterError(f"need ra < rb, got [{ra}, {rb}]")
    if sign not in (1, -1):
        raise InvalidParameterError(f"sign must be +1 or -1, got {sign}")
    if nu == 0.0:
        ds = sign * (rb - ra)
        return 0.0, ds, profile.mu * ds
    interior = np.linspace(ra, rb, 101)[1:-1]
    mm = _as_array(profile.m(interior), interior.shape)
    if np.any(mm <= abs(nu)):
        bad = interior[mm <= abs(nu)][0]
        raise InvalidBracketError(
            f"m(r) <= |nu| at interior point r = {bad}; the leg is not a "
            "single monotone arc of a geodesic with this Clairaut constant"
        )
    at_turn = 1e-9 * max(1.0, abs(nu))
    dtheta, ds = clairaut_leg(
        profile, ra, rb, nu, tol_quad,
        turning_left=abs(float(profile.m(ra)) - abs(nu)) <= at_turn,
        turning_right=abs(float(profile.m(rb)) - abs(nu)) <= at_turn)
    dtheta, ds = sign * dtheta, sign * ds
    return dtheta, ds, dtheta + profile.mu * ds


def turning_points(profile: Profile, nu: float, grid) -> list[float]:
    """Radii with m(r) = |nu|, refined to 1e-12 by bracketed root-finding.

    At a simple root m'(r) != 0 and the geodesic turns; if m'(r) = 0 there,
    the parallel at that radius is itself a geodesic and the "turning" orbit
    is that parallel.
    """
    if abs(nu) >= 1.0 / profile.mu:
        raise InvalidParameterError(
            f"|nu| must be < 1/mu = {1.0 / profile.mu}, got {nu}"
        )
    if nu == 0.0:
        return []
    grid = np.asarray(grid, dtype=float)
    anu = abs(nu)
    f = lambda r: float(profile.m(r)) - anu
    return roots_on_grid(f, grid, [f(r) for r in grid], xtol=1e-12)


# ---------------------------------------------------------------------------
# geodesy residual and path utilities


def cumulative_path_integral(path: GeodesicPath, integrand,
                             n_gauss: int = 8) -> np.ndarray:
    """Integral along the path from its start to each sample, by
    n_gauss-point Gauss-Legendre quadrature on every sample interval.

    The dense output is read at all nodes in one call, and integrand maps
    the (n_nodes, 4) array of states (r, theta, dr, dtheta) there to their
    n_nodes values."""
    t, w = np.polynomial.legendre.leggauss(n_gauss)
    a, b = path.s[:-1], path.s[1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * t
    vals = np.asarray(integrand(path.dense(nodes.ravel())), dtype=float)
    out = np.zeros(len(path.s))
    np.cumsum(half * (vals.reshape(nodes.shape) @ w), out=out[1:])
    return out


def cumulative_F_length(profile: Profile, path: GeodesicPath,
                        n_gauss: int = 8) -> np.ndarray:
    """F-length of the path from its start to each sample, by per-interval
    Gauss-Legendre quadrature on the dense output, with F evaluated at all
    nodes in one array pass."""
    return cumulative_path_integral(
        path, lambda y: eval_F_array(profile, np.maximum(y[:, 0], 0.0),
                                     y[:, 2], y[:, 3]), n_gauss)


def f_geodesic_residual(profile: Profile, path: GeodesicPath) -> float:
    """How far a curve is from being an F-geodesic.

    Re-shoots the F-geodesic sharing the path's initial point and direction,
    reparametrizes the input by F-arc length, and returns the maximum
    pointwise chart deviation divided by the total F-length.
    """
    if len(path.s) < 3:
        raise InvalidParameterError("need at least 3 samples")
    if np.any(path.states[:, 0] <= 0.0):
        raise InvalidParameterError("residual undefined for paths touching the vertex")
    r0, th0, dr0, dth0 = map(float, path.states[0])
    x0 = SurfacePoint(r0, th0)
    F0 = eval_F(profile, x0, Tangent(dr0, dth0))
    vF = Tangent(dr0 / F0, dth0 / F0)
    sigma = cumulative_F_length(profile, path)
    total = float(sigma[-1])
    ref = integrate_F(profile, x0, vF, total * (1.0 + 1e-9),
                      tol=min(path.tol, 1e-10))
    a = path.dense(path.s)
    b = ref.dense(np.minimum(sigma, ref.s[-1]))
    m_here = np.asarray(profile.m(0.5 * (a[:, 0] + b[:, 0])), dtype=float)
    two_pi = 2.0 * math.pi
    dth = a[:, 1] - b[:, 1]
    dth -= two_pi * np.round(dth / two_pi)
    return float(np.max(np.hypot(a[:, 0] - b[:, 0], m_here * dth))) / total


def integrate_h_two_sided(profile: Profile, state0: GeodesicState,
                          length_back: float, length_fwd: float,
                          tol: float = 1e-10) -> GeodesicPath:
    """Extend an h-geodesic through state0 in both directions.

    The combined path covers s in [-length_back, length_fwd]; twisting it
    still gives an F-geodesic because the twist formula is parameter-global.
    """
    fwd = integrate_h(profile, state0, length_fwd, tol=tol)
    rev0 = GeodesicState(state0.r, state0.theta, -state0.dr, -state0.dtheta)
    bwd = integrate_h(profile, rev0, length_back, tol=tol)

    flip = np.array([1.0, 1.0, -1.0, -1.0])
    s_all = np.concatenate([-bwd.s[::-1][:-1], fwd.s])
    states = np.vstack([bwd.states[::-1][:-1] * flip, fwd.states])

    def dense(s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        ahead = s >= 0.0
        out = np.empty(s.shape + (4,))
        out[ahead] = fwd.dense(s[ahead])
        out[~ahead] = bwd.dense(-s[~ahead]) * flip
        return out

    return GeodesicPath(
        s=s_all, states=states, nu=fwd.nu, metric_tag="h", kind=fwd.kind,
        mu=profile.mu, tol=tol, dense=dense,
        max_unit_drift=max(fwd.max_unit_drift, bwd.max_unit_drift),
        max_clairaut_drift=max(fwd.max_clairaut_drift, bwd.max_clairaut_drift),
        exit_reason=fwd.exit_reason if fwd.exit_reason != "completed"
        else bwd.exit_reason,
    )


def count_self_intersections(path: GeodesicPath, ds: float = 0.05) -> int:
    """Transverse self-intersections by a polyline segment sweep.

    Works in cylinder coordinates (theta, r) with theta unreduced; candidate
    segment pairs are aligned by the nearest multiple of 2 pi before the
    crossing test, which is exact because individual segments subtend far
    less than pi in theta.
    """
    ss = np.arange(path.s[0], path.s[-1], ds)
    pts = path.dense(ss)[:, :2]
    r = pts[:, 0]
    th = pts[:, 1]
    two_pi = 2.0 * math.pi
    a_th, a_r = th[:-1], r[:-1]
    b_th, b_r = th[1:], r[1:]
    mid_th = 0.5 * (a_th + b_th)
    n = len(a_th)

    count = 0
    for i in range(n - 2):
        js = np.arange(i + 2, n)
        # align candidate segments to segment i's winding
        shift = np.round((mid_th[i] - mid_th[js]) / two_pi) * two_pi
        p2x, p2y = a_th[js] + shift, a_r[js]
        q2x, q2y = b_th[js] + shift, b_r[js]
        p1x, p1y, q1x, q1y = a_th[i], a_r[i], b_th[i], b_r[i]
        # quick reject on bounding intervals
        keep = (np.minimum(p2x, q2x) <= max(p1x, q1x) + 0.0) & \
               (np.maximum(p2x, q2x) >= min(p1x, q1x)) & \
               (np.minimum(p2y, q2y) <= max(p1y, q1y)) & \
               (np.maximum(p2y, q2y) >= min(p1y, q1y))
        if not np.any(keep):
            continue
        p2x, p2y, q2x, q2y = p2x[keep], p2y[keep], q2x[keep], q2y[keep]
        d1 = (q1x - p1x) * (p2y - p1y) - (q1y - p1y) * (p2x - p1x)
        d2 = (q1x - p1x) * (q2y - p1y) - (q1y - p1y) * (q2x - p1x)
        d3 = (q2x - p2x) * (p1y - p2y) - (q2y - p2y) * (p1x - p2x)
        d4 = (q2x - p2x) * (q1y - p2y) - (q2y - p2y) * (q1x - p2x)
        count += int(np.count_nonzero((d1 * d2 < 0.0) & (d3 * d4 < 0.0)))
    return count


def path_to_csv(path: GeodesicPath, filename) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write("s,r,theta,dr,dtheta\n")
        for sk, row in zip(path.s, path.states):
            fh.write(",".join(f"{v:.17g}" for v in (sk, *row)) + "\n")


def path_metadata(path: GeodesicPath) -> dict:
    return {
        "nu": path.nu,
        "metric_tag": path.metric_tag,
        "kind": path.kind,
        "mu": path.mu,
        "tolerances": {"tol_ode": path.tol},
        "n_samples": int(len(path.s)),
        "s_end": float(path.s[-1]),
        "max_unit_drift": path.max_unit_drift,
        "max_clairaut_drift": path.max_clairaut_drift,
        "exit_reason": path.exit_reason,
    }


def path_to_json(path: GeodesicPath, filename, include_samples: bool = True) -> None:
    doc = path_metadata(path)
    if include_samples:
        doc["samples"] = [
            [float(sk), *map(float, row)] for sk, row in zip(path.s, path.states)
        ]
    with open(filename, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
