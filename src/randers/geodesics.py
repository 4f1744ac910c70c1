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
twisted angular advance adds mu times the arc length.  clairaut_angles
integrates them on r = r_a + u^2 from one end r_a of a leg, the turning
radius or the launch radius: the inverse-square-root singularity at a
turning point becomes regular because m'(r_t) != 0 at any simple turning
point, and m^2 - nu^2 is written as its value at r_a plus a term built from
m' alone, so it does not cancel near r_a.

Exact meridians are not sent through the ODE: they are integrated
analytically, including continuation through the vertex, where theta jumps
by pi (the polar chart degenerates; the geodesic itself is smooth).  A ray
that passes near the vertex sweeps nearly pi in theta there, so the polar
chart crawls past it in tiny steps.  Near the vertex both integrators
therefore run in normal coordinates, (x, y) = r (cos theta, sin theta),
where such a ray is nearly straight (_vertex_chart): the heading fan of
level_crossings_batch everywhere, and integrate_h below
Profile.vertex_chart_radius, above which it returns to the polar chart.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import odesolve
from .errors import (
    InconsistentInputError,
    InternalConsistencyError,
    InvalidBracketError,
    InvalidParameterError,
    NumericalBlowupError,
    VertexSingularError,
)
# quad is unused here; only bench/tracer.py reads geodesics.quad, to wrap it
from .profile import Profile, SurfacePoint, as_float_array, quad, roots_on_grid  # noqa: F401
from .zermelo import Tangent, eval_F, eval_F_array, h_norm

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


def _classify(profile: Profile, state: GeodesicState) -> str:
    if abs(state.dtheta) < _MERIDIAN_EPS:
        return "meridian"
    if abs(state.dr) < 1e-12 and abs(float(profile.m1(state.r))) < 1e-12:
        return "parallel"
    return "generic"


def _sample_grid(length: float, h_cap: float) -> np.ndarray:
    # one point for length 0, as for a meridian launched outward on r_max
    return np.linspace(0.0, length, int(math.ceil(length / h_cap)) + 1)


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

    # like the ODE path, the meridian stops where it leaves r <= r_max
    exit_reason = "completed"
    s_exit = profile.r_max + (r0 if sgn < 0 else -r0)
    if length > s_exit:
        length, exit_reason = s_exit, "domain-exit"
    ss = _sample_grid(length, _h_max(profile))
    if sgn < 0 and 0.0 < rho < length:
        ss = np.unique(np.concatenate([ss, [rho]]))
    states = dense(ss)
    if exit_reason == "domain-exit":
        states[-1, 0] = profile.r_max
    return GeodesicPath(
        s=ss, states=states, nu=0.0, metric_tag="h", kind="meridian",
        mu=profile.mu, tol=tol, dense=dense, exit_reason=exit_reason,
    )


def _h_max(profile: Profile) -> float:
    """Sample spacing of the analytic meridian paths and of the exported
    polylines; the integrators' steps are set by their tolerance alone."""
    return min(0.1, 0.1 / profile.mu)


def on_export_grid(profile: Profile, path: GeodesicPath) -> GeodesicPath:
    """The path's samples plus its dense output on the grid of the analytic
    meridian paths, so that no two samples are more than _h_max apart
    whatever steps the integrator took."""
    grid = path.s[0] + _sample_grid(path.length, _h_max(profile))[1:-1]
    # np.unique keeps the first of equal parameters: the path's own sample
    ss, first = np.unique(np.concatenate([path.s, grid]), return_index=True)
    states = np.concatenate([path.states, path.dense(grid)])[first]
    return replace(path, s=ss, states=states)


def _check_length_tol(length: float, tol: float) -> None:
    if not (math.isfinite(length) and length > 0):
        raise InvalidParameterError(f"length must be finite and > 0, got {length}")
    odesolve.check_tol(tol)


def integrate_h(profile: Profile, state0: GeodesicState, length: float,
                tol: float = 1e-10) -> GeodesicPath:
    """Integrate an h-unit-speed geodesic for the given parameter length.

    The initial state must be finite and satisfy the unit-speed condition to
    1e-10.  After each accepted step the velocity is rescaled back to unit
    h-speed; the drift absorbed by the rescaling and the Clairaut drift of
    the samples are recorded on the returned path as quality metrics.

    Below profile.vertex_chart_radius R the ray runs in normal coordinates
    at the vertex (_vertex_chart), where a ray that passes near the vertex
    is nearly straight, and above R in the polar chart, where the same ray
    would sweep nearly pi in theta on tiny steps.  Each stretch in one
    chart is one DOP853 run.  integrate's retire hook ends it at the first
    accepted step that ends past R, rho > R^2 in the vertex chart and r < R
    in the polar one, and the next run starts from that projected step
    end; the charts switch at step ends only.  Samples, dense
    output, nu and the drift metrics are polar in both charts: theta is
    continuous and runs monotonically in the sense of nu, the vertex
    chart's angle about the vertex unwound from where the ray entered it.

    The step size is set by tol alone, with no cap: the samples are the
    step ends, and the dense output between them is the 7th-order
    interpolant of each DOP853 step, as accurate as its ends.  Exact
    meridians (dtheta = 0) are integrated analytically, continuing through
    the vertex with a theta jump of pi, and sampled every _h_max.  If the
    path leaves the numerical domain r <= r_max it is truncated there and
    flagged with exit_reason = "domain-exit": the run that left ends at the
    first step end past r_max, or at length if that step is its last, and
    its last sample is moved back to the crossing of r_max on the dense
    output of that step (_exit_sample).  A ray launched on r = r_max that
    moves outward has the start as its one sample.  A start at the vertex
    with angular speed raises VertexSingularError, and a run that reaches
    the integrator's max_steps stop NumericalBlowupError.
    """
    _check_length_tol(length, tol)
    if not all(map(math.isfinite, (state0.r, state0.theta, state0.dr, state0.dtheta))):
        raise InvalidParameterError(f"initial state must be finite, got {state0}")
    profile.check_radius(state0.r)
    speed = h_norm(profile, state0.r, state0.dr, state0.dtheta)
    if not abs(speed - 1.0) <= _UNIT_SPEED_PRE_TOL:
        raise InvalidParameterError(
            f"initial state is not h-unit speed: |v|_h = {speed}"
        )
    if abs(state0.dtheta) < _MERIDIAN_EPS:
        return _meridian_path(profile, state0, length, tol)
    if state0.r == 0.0:
        raise VertexSingularError("cannot start at the vertex with nonzero angular speed")
    nu0 = clairaut_constant(profile, state0)
    r_chart, r_max = profile.vertex_chart_radius, profile.r_max
    if state0.r == r_max and (state0.dr > 0.0 or (state0.dr == 0.0
                                                  and float(profile.m1(r_max)) > 0.0)):
        # a ray launched on r_max that moves outward, r' > 0, or r' = 0 and
        # r'' = m m' theta'^2 > 0, leaves the domain at once: its exit root
        # is its start
        states = state0.as_array()[None]
        return GeodesicPath(
            s=np.zeros(1), states=states, nu=nu0, metric_tag="h",
            kind=_classify(profile, state0), mu=profile.mu, tol=tol,
            dense=lambda s: np.broadcast_to(states[0], np.shape(s) + (4,)).copy(),
            exit_reason="domain-exit")
    m_fn, m1_fn = profile.m, profile.m1
    # (r, m(r), m'(r)) of the last right-hand side call: the FSAL stage, the
    # projection and the derivative after it share r.  One tuple, replaced
    # whole, so that threads reading a dense output together see a
    # consistent triple
    memo = (math.nan, math.nan, math.nan)

    def rhs(s: float, y: list) -> tuple:
        nonlocal memo
        r, _, dr, dth = y
        r_memo, m, m1 = memo
        if r != r_memo:
            m, m1 = float(m_fn(r)), float(m1_fn(r))
            memo = (r, m, m1)
        return (dr, dth, m * m1 * dth * dth, -2.0 * (m1 / m) * dr * dth)

    drift = {"unit": 0.0, "clairaut": 0.0}

    def renormalize(s: float, y: list) -> list:
        r, th, dr, dth = y
        r_memo, m, _ = memo
        if r != r_memo:
            m = float(m_fn(r))
        norm = math.hypot(dr, m * dth)
        drift["unit"] = max(drift["unit"], abs(norm - 1.0))
        dr, dth = dr / norm, dth / norm
        drift["clairaut"] = max(drift["clairaut"], abs(m * m * dth - nu0))
        return [r, th, dr, dth]

    chart_rhs, chart_unit = _vertex_chart(profile)

    def chart_renormalize(s: float, y: list) -> tuple:
        unit = chart_unit(s, y)
        # the projection divides (x', y') by the h-speed
        drift["unit"] = max(drift["unit"], abs(math.hypot(y[2], y[3])
                                               / math.hypot(unit[2], unit[3]) - 1.0))
        return unit

    rho_chart, rho_max = r_chart * r_chart, r_max * r_max

    def chart_retire(s: float, y: list) -> bool:
        return y[4] > rho_chart

    def polar_retire(s: float, y: list) -> bool:
        return not r_chart <= y[0] <= r_max

    in_chart = state0.r < r_chart or (state0.r == r_chart and state0.dr < 0.0)
    s, y, runs = 0.0, [state0.r, state0.theta, state0.dr, state0.dtheta], []
    while True:
        if in_chart:
            # the chart's x axis points at the ray's entry angle theta_in
            r, theta_in = y[0], y[1]
            sol = odesolve.integrate(
                chart_rhs, s, _chart_state(r, y[2], y[3], 1.0, 0.0), length, tol=tol,
                post_step=chart_renormalize, retire=chart_retire)
            exits = sol.y[-1, 4] > rho_max
            if exits:
                _exit_sample(sol, 4, rho_max)
            piece = _ChartPiece(sol, theta_in, math.copysign(1.0, state0.dtheta))
            rows = piece.states
            m = as_float_array(m_fn(rows[1:, 0]), rows[1:, 0].shape)
            drift["clairaut"] = max(drift["clairaut"],
                                    float(np.max(np.abs(m * m * rows[1:, 3] - nu0))))
        else:
            sol = odesolve.integrate(rhs, s, y, length, tol=tol, post_step=renormalize,
                                     retire=polar_retire)
            exits = sol.y[-1, 0] > r_max
            if exits:
                _exit_sample(sol, 0, r_max)
            piece, rows = sol, sol.y
        if sol.status == "max_steps":
            raise NumericalBlowupError(
                f"geodesic integration at tol {tol} stopped after {sol.nsteps} steps, "
                f"at s = {sol.s[-1]} of {length}")
        runs.append((s, piece, sol.s, rows))
        s, y = float(sol.s[-1]), rows[-1].tolist()
        if sol.status != "retired" or exits:
            break
        in_chart = not in_chart
    if len(runs) == 1:
        ss, states, dense = runs[0][2], runs[0][3], runs[0][1]
    else:
        # each run starts where the one before it ends
        ss = np.concatenate([runs[0][2]] + [run[2][1:] for run in runs[1:]])
        states = np.concatenate([runs[0][3]] + [run[3][1:] for run in runs[1:]])
        dense = _stitched([run[:2] for run in runs])
    states[0] = state0.as_array()   # not its image through the vertex chart
    if exits:
        # the exit sample lies on r = r_max; its root leaves ~1e-15
        states[-1, 0] = r_max
    return GeodesicPath(
        s=ss, states=states, nu=nu0, metric_tag="h",
        kind=_classify(profile, state0), mu=profile.mu, tol=tol, dense=dense,
        max_unit_drift=drift["unit"], max_clairaut_drift=drift["clairaut"],
        exit_reason="domain-exit" if exits else "completed",
    )


def _exit_sample(sol: odesolve.ODESolution, c: int, level: float) -> None:
    """Move the last sample of a run that left the domain in its last step
    back onto the level of component c it crossed there (ODESolution.root)."""
    sol.s[-1], sol.y[-1] = sol.root(sol.seg_s.size - 1, c, level)


class _ChartPiece:
    """One run of integrate_h in the vertex chart, read in polar form.

    sol is the run's ODESolution on rows (x, y, x', y', rho), whose x axis
    points at theta_in, and sense the sign of nu (of dtheta).  theta is theta_in plus
    the angle the ray has swept about the vertex: the sweep of each step,
    and within a step from its start, is the angle between the two
    position vectors, atan2 of their cross and dot products, taken in
    [-pi/2, 3 pi/2) in the sense of nu.  theta runs monotonically in that
    sense, so a step sweeps at least -pi/2 (rounding) and less than 3 pi / 2
    (a step that long would circle the vertex)."""

    def __init__(self, sol: odesolve.ODESolution, theta_in: float, sense: float):
        self.sol, self.sense = sol, sense
        x, y = sol.y[:, 0], sol.y[:, 1]
        self.theta = theta_in + np.concatenate(
            [[0.0], np.cumsum(self._swept(x[:-1], y[:-1], x[1:], y[1:]))])
        # the samples, sol.y in polar form
        self.states = _polar_state(sol.y, self.theta)

    def _swept(self, x0, y0, x1, y1):
        a = np.arctan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
        return np.where(self.sense * a < -0.5 * math.pi, a + self.sense * (2.0 * math.pi), a)

    def __call__(self, s):
        """Rows (r, theta, dr, dtheta) of the dense output at the parameters
        s, one per entry."""
        s = np.asarray(s, dtype=float)
        sol = self.sol
        i = np.searchsorted(sol.seg_s[1:], s, side="right")
        rows, start = sol(s), sol.y[i]
        return _polar_state(rows, self.theta[i] + self._swept(start[..., 0], start[..., 1],
                                                              rows[..., 0], rows[..., 1]))


def _stitched(pieces):
    """Dense output of a path run in pieces: (s0, dense) pairs in the order
    of their start parameters s0, each read from its start to the next
    one's; parameters outside the path extrapolate from the first or last
    piece.  The polar runs are read as one ODESolution, their steps side by
    side, so that its dense output is built once and read in one call."""
    starts = np.array([s0 for s0, _ in pieces[1:]])
    is_polar = np.array([isinstance(dense, odesolve.ODESolution) for _, dense in pieces])
    polar = [dense for _, dense in pieces if isinstance(dense, odesolve.ODESolution)]
    reads = [dense for _, dense in pieces if not isinstance(dense, odesolve.ODESolution)]
    if polar:
        reads.append(odesolve.ODESolution(
            s=None, y=None, rhs=polar[0].rhs,
            **{key: np.concatenate([getattr(sol, key) for sol in polar])
               for key in odesolve.SEGMENTS}))
    # the index in reads of the reader of each piece
    reader = np.where(is_polar, len(reads) - 1, np.cumsum(~is_polar) - 1)

    def dense(s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        k = reader[np.searchsorted(starts, s, side="right")]
        if s.ndim == 0:
            return reads[int(k)](s)
        out = np.empty(s.shape + (4,))
        for j, read in enumerate(reads):
            here = k == j
            if here.any():
                out[here] = read(s[here])
        return out

    return dense


def level_crossings(path: GeodesicPath, r_level: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Parameters and states where a sampled path crosses the parallel
    r = r_level: sign changes of r - r_level between samples (and samples
    exactly on it), refined to 1e-12 by roots_on_grid on the dense output.

    A path can also cross the parallel twice between two samples on the
    same side of it, grazing it inside one step.  Where r heads for the
    level at the first sample and away from it at the second, r turns
    between them: the turn, the zero of dr, is found on the dense output,
    and if r - r_level changes sign there both crossings are refined (a
    turn exactly on the level is one crossing)."""
    s, g, dr = path.s, path.states[:, 0] - r_level, path.states[:, 2]
    turns = np.flatnonzero((g[:-1] * dr[:-1] < 0.0) & (g[1:] * dr[1:] > 0.0)
                           & (g[:-1] * g[1:] > 0.0))
    if turns.size:
        s_turn = np.array([roots_on_grid(lambda x: path.dense(x)[2], s[i:i + 2], dr[i:i + 2],
                                         xtol=1e-12)[0] for i in turns.tolist()])
        s = np.insert(s, turns + 1, s_turn)
        g = np.insert(g, turns + 1, path.dense(s_turn)[:, 0] - r_level)
    s_c = np.array(roots_on_grid(lambda x: path.dense(x)[0] - r_level, s, g, xtol=1e-12))
    return s_c, path.dense(s_c)


def level_crossings_batch(profile: Profile, states0, length: float,
                          r_level: float, tol: float = 1e-10
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """level_crossings of the h-geodesic from every row (r, theta, dr,
    dtheta) of states0 over [0, length], without building the paths, as
    flat arrays (rows, s, theta): the crossing at parameter s and angle
    theta[k] belongs to the row rows[k] of states0, sorted by row and then
    by s.

    Exact meridians take the analytic path of integrate_h, so that the
    chain through the vertex keeps theta0 and theta0 + pi exactly.  All
    other rows run in one odesolve.integrate_batch pass in normal
    coordinates at the vertex, (x, y) = r (cos theta, sin theta), with
    rho = x^2 + y^2 as a fifth component (_vertex_chart): a ray that passes
    near the vertex is nearly straight there, where in the polar chart it
    sweeps nearly pi in theta.  After each accepted step (x', y') is
    rescaled to unit h-speed and rho reset to x^2 + y^2.  The crossings are
    those of rho through r_level^2, each refined on the dense output of its
    step, on its own, so a row's crossings do not depend on the other rows
    of states0; theta = atan2(y, x) is known only mod 2 pi.  A row that
    starts exactly on the level crosses at s = 0.  A row whose rho turns
    inside a step, as on a pass by the vertex, has both crossings of the
    level there seen (integrate_batch's check of a component that turns);
    level_crossings, which reads sign changes between samples, misses such
    a pair.  Nothing blows up at the vertex in this chart, so there is no
    floor; a row stopped by max_steps raises NumericalBlowupError.

    A row is retired, ended at the end of an accepted step without a
    crossing refined past it, once rho >= r_max^2: it has left the domain,
    and keeps the crossings it made before, those of its last step
    included; a row launched outward on r_max ends after its first step.
    Where the warp increases on all of (0, r_max] (Profile.increases_to) a
    row is also retired once it lies above the level and moves outward,
    rho > r_level^2 and d = x x' + y y' > 0: by Clairaut's relation
    r'' = nu^2 m' / m^3 >= 0, so r is convex along the ray, r' stays
    positive and r never comes back down to r_level (do Carmo, Differential
    Geometry of Curves and Surfaces, section 4-4).  The crossings inside
    that last step, a pair where rho turns included, are still refined, so
    the crossings are those of the rows run to the horizon.  On a warp
    where m' <= 0 somewhere, as on the sphere, only the exit retires a row.
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
    rows, s_c, th_c = [], [], []
    for i in np.flatnonzero(meridian).tolist():
        s_i, y_i = level_crossings(
            _meridian_path(profile, GeodesicState(*y0[i].tolist()), length, tol), r_level)
        rows.append(np.full(s_i.size, i))
        s_c.append(s_i)
        th_c.append(y_i[:, 1])
    ode = np.flatnonzero(~meridian)
    # a start exactly on the level is a crossing for level_crossings (a
    # sample with value zero), not for the batch, which needs a strict sign
    # at the step start
    on_level = ode[y0[ode, 0] == r_level]
    rows.append(on_level)
    s_c.append(np.zeros(on_level.size))
    th_c.append(y0[on_level, 1])
    if ode.size:
        r, th, dr, dth = y0[ode].T
        # rho starts as r^2, so that a row launched on the level starts on
        # it exactly
        start = np.column_stack(_chart_state(r, dr, dth, np.cos(th), np.sin(th)))
        rhs, renormalize = _vertex_chart(profile)
        rho_level, rho_max = r_level * r_level, profile.r_max * profile.r_max
        convex = profile.increases_to(profile.r_max)

        def retire(s, y):
            # out of the domain; or, where r is convex along every ray,
            # above the level and moving outward: rho > r_level^2, d > 0
            out = y[:, 4] >= rho_max
            if convex:
                out |= (y[:, 4] > rho_level) & (y[:, 0] * y[:, 2] + y[:, 1] * y[:, 3] > 0.0)
            return out

        sol = odesolve.integrate_batch(rhs, 0.0, start, length, 4, rho_level, tol=tol,
                                       post_step=renormalize, retire=retire)
        if "max_steps" in sol.status:
            raise NumericalBlowupError(
                f"geodesic integration at tol {tol} stopped after {sol.nsteps} steps")
        row, s_e, y_e = sol.crossings
        rows.append(ode[row])
        s_c.append(s_e)
        th_c.append(np.arctan2(y_e[:, 1], y_e[:, 0]))
    rows, s_c, th_c = np.concatenate(rows), np.concatenate(s_c), np.concatenate(th_c)
    order = np.lexsort((s_c, rows))
    return rows[order], s_c[order], th_c[order]


def _vertex_chart(profile: Profile):
    """Right-hand side and unit-speed projection of the h-geodesic equations
    in normal coordinates at the vertex, on rows (x, y, x', y', rho): an
    (n, 5) array of rows (level_crossings_batch), or one row as a list of
    five floats (integrate_h), on which they run on Python floats and the
    right-hand side returns a tuple.

    With u = (x, y), u_perp = (-y, x), c = x y' - y x' and d = x x' + y y'
    (so r' = d / r and theta' = c / r^2), the polar equations become

        u'' = (c^2 P u + 2 c d Q u_perp) / r^2,        rho' = 2 d,

    with P = (m m' - r) / r^3 and Q = (1 - r m' / m) / r^2, which vanish on
    the plane.  P and Q are evaluated at max(r, r_eps), as gauss_curvature
    is; their vertex limits are -2 K(0) / 3 and K(0) / 3.  c^2 / r^2 and
    c d / r^2 stay below |u'|^2, so the right-hand side is finite up to and
    at r = 0.  The squared h-speed is |u'|^2 - (1 - (m / r)^2) c^2 / r^2;
    the projection divides u' by its root and resets rho to x^2 + y^2.  On a float
    row m and m' are kept for the last radius read, as integrate_h's polar
    right-hand side keeps them, so that the FSAL stage, the projection and
    the derivative after it read the warp once.
    """
    m_fn, m1_fn, r_eps = profile.m, profile.m1, profile.r_eps
    tiny = sys.float_info.min   # 1 / (rr + tiny) is 1 / rr unless rr underflows
    memo = (math.nan, math.nan, math.nan)   # (r, m, m') of the last float row

    def float_parts(x, yy):
        nonlocal memo
        rr = x * x + yy * yy
        r = math.sqrt(rr)
        if r < r_eps:
            r = r_eps
        r_memo, m, m1 = memo
        if r != r_memo:
            m, m1 = float(m_fn(r)), float(m1_fn(r))
            memo = (r, m, m1)
        return rr, r, m, m1

    def array_parts(y):
        rr = y[:, 0] * y[:, 0] + y[:, 1] * y[:, 1]
        r = np.maximum(np.sqrt(rr), r_eps)
        return rr, r, m_fn(r), m1_fn(r)

    def derivative(x, yy, vx, vy, rr, r, m, m1):
        c = x * vy - yy * vx
        d = x * vx + yy * vy
        over = 1.0 / (rr + tiny)
        pc = (c * c * over) * (m * m1 - r) / (r * r * r)
        qc = (2.0 * c * d * over) * (1.0 - r * m1 / m) / (r * r)
        return vx, vy, pc * x - qc * yy, pc * yy + qc * x, 2.0 * d

    def speed2(x, yy, vx, vy, rr, r, m):
        k = m / r
        c = x * vy - yy * vx
        return vx * vx + vy * vy - (1.0 - k * k) * (c * c / (rr + tiny))

    def rhs(s, y):
        if type(y) is list:
            x, yy, vx, vy, _ = y
            rr, r, m, m1 = float_parts(x, yy)
            return derivative(x, yy, vx, vy, rr, r, m, m1)
        return np.column_stack(derivative(*y.T[:4], *array_parts(y)))

    def renormalize(s, y):
        if type(y) is list:
            x, yy, vx, vy, _ = y
            rr, r, m, _ = float_parts(x, yy)
            norm = math.sqrt(speed2(x, yy, vx, vy, rr, r, m))
            return x, yy, vx / norm, vy / norm, rr
        rr, r, m, _ = array_parts(y)
        unit = y.copy()
        unit[:, 2:4] /= np.sqrt(speed2(*y.T[:4], rr, r, m))[:, None]
        unit[:, 4] = rr
        return unit

    return rhs, renormalize


def _chart_state(r, dr, dtheta, cos, sin):
    """The vertex-chart row (x, y, x', y', rho = r^2) of the polar state
    (r, theta, dr, dtheta), with (cos, sin) the direction of theta in the
    chart: floats (a list), or arrays of one entry per row."""
    return [r * cos, r * sin, dr * cos - r * dtheta * sin, dr * sin + r * dtheta * cos, r * r]


def _polar_state(rows, theta):
    """Rows (r, theta, dr, dtheta) of the vertex-chart rows (x, y, x', y',
    ...), whose angle theta the caller knows: with r = hypot(x, y),
    d = x x' + y y' and c = x y' - y x', dr = d / r and dtheta = c / r^2."""
    x, y, vx, vy = np.moveaxis(rows[..., :4], -1, 0)
    r = np.hypot(x, y)
    return np.stack([r, theta, (x * vx + y * vy) / r, (x * vy - y * vx) / r / r], axis=-1)


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
    hn = h_norm(profile, q.r, y1, y2)
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


# Composite Gauss-Legendre rule of clairaut_angles: _LEG_PANELS panels of
# _LEG_NODES nodes per group of legs, each panel halved up to _LEG_SPLITS
# times.  A block holds whole groups, of about the panels of _LEG_BLOCK lone
# legs: its node arrays stay a few MB, and blocks run as fast per leg as one
# call over a thousand legs.
_LEG_NODES = 8
_LEG_PANELS = 12
_LEG_SPLITS = 12
_LEG_BLOCK = 192
_LEG_T, _LEG_W = np.polynomial.legendre.leggauss(_LEG_NODES)
_LEG_GRADING = np.linspace(0.0, 1.0, _LEG_PANELS)
# The rounding level of a leg's integrals, per unit of their magnitude.
_LEG_ROUNDING = 64.0 * float(np.finfo(float).eps)
# Odd 64-bit multipliers of _all_distinct's row hash.
_ROW_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                      0x27D4EB2F165667C5], dtype=np.uint64).view(np.int64)


def _cumulative_weights(t: np.ndarray) -> np.ndarray:
    """S with S[i, j] = integral over [-1, t[i]] of the j-th Lagrange basis
    polynomial of the nodes t: S @ f integrates the interpolant of f from -1
    to every node."""
    leg = np.polynomial.legendre
    n = t.size
    antiderivs = np.stack([leg.legval(t, leg.legint(np.eye(n)[k], lbnd=-1.0))
                           for k in range(n)], axis=1)
    return antiderivs @ np.linalg.inv(leg.legvander(t, n - 1))


_LEG_S = _cumulative_weights(_LEG_T)


def clairaut_angles(profile: Profile, ra, width, nu, disc, tol: float,
                    sigma=1.0):
    """(delta_theta, delta_s) of every leg i of an h-geodesic with Clairaut
    constant nu[i] over r = ra + sigma u^2, 0 <= u <= sqrt(width[i]), on
    which m grows away from ra, where m^2 - nu^2 equals disc[i] >= 0.

    disc = 0 anchors a leg at its turning radius; a leg launched at heading
    chi passes (m cos chi)^2, since m(ra)^2 - nu^2 cancels near tangency,
    and its width, since ra + width may round to ra there.  The integrands
    2 u nu / (m sqrt(D)) and 2 u m / sqrt(D) take D = dm (2 m(ra) + dm) +
    disc with dm = m(r) - m(ra) integrated from m' on the same nodes, so D
    keeps its relative accuracy near ra.  Legs with bit-equal (ra, sigma,
    nu, disc) form a group: Gauss-Legendre panels graded geometrically from
    the scale where D leaves disc to the widest top, with a break at every
    other top, each leg's values the panel sums up to its top.  They are
    halved until both integrals of every leg move by at most tol (or their
    rounding level); the halved values are returned.  A group that still
    moves after _LEG_SPLITS halvings raises InternalConsistencyError.
    Blocks of whole groups bound the memory of a call however many legs it
    has; a leg's values depend on its group, not on its block or the order.
    Where no two legs share a key (_all_distinct), every leg is a group of
    its own, whose breaks are 0 and the graded ones: the call then skips the
    sorts that group the legs and merge their breaks, with the same values
    bit for bit.
    """
    ra, width, nu, disc, sigma = np.broadcast_arrays(ra, width, nu, disc, sigma)
    shape = ra.shape
    angle, length = np.zeros(ra.size), np.zeros(ra.size)
    todo = np.flatnonzero(width.ravel() > 0.0)
    if todo.size == 0:
        return angle.reshape(shape), length.reshape(shape)
    keys = np.stack([np.asarray(v, dtype=float).ravel()[todo] for v in (ra, sigma, nu, disc)], 1)
    bits = keys.view(np.int64)
    top = np.sqrt(np.asarray(width, dtype=float).ravel()[todo])
    lone = _all_distinct(bits)
    if lone:
        keys, widest, n = keys.T, top, todo.size
    else:
        one, group = _distinct(bits, np.lexsort(bits.T))
        keys, n = keys[one].T, one.size
        widest = np.zeros(n)
        np.maximum.at(widest, group, top)
    m_a = as_float_array(profile.m(keys[0]), (n,))
    # D leaves disc at u^2 ~ disc / (2 m m'); from a turning radius the angle
    # integrand peaks at u^2 ~ 2 m / m'.  Below 1e-12 of the leg the D scale
    # only trims a sliver of the integral.
    scale = np.sqrt(np.minimum(2.0 * m_a, np.where(keys[3] > 0.0, keys[3] / (2.0 * m_a), np.inf))
                    / np.abs(as_float_array(profile.m1(keys[0]), (n,))))
    first = np.clip(scale, 1e-12 * widest, widest / _LEG_PANELS)
    graded = first[:, None] * (widest / first)[:, None] ** _LEG_GRADING
    graded[:, -1] = widest
    if lone:
        # each leg its own group: its breaks are 0 and the graded ones, the
        # last its top; blocks of _LEG_BLOCK legs
        breaks = np.hstack([np.zeros((n, 1)), graded])
        for b in range(0, n, _LEG_BLOCK):
            k = slice(b, b + _LEG_BLOCK)
            legs = todo[k]
            angle[legs], length[legs] = _clairaut_block(
                profile, [*keys[:, k], m_a[k]], breaks[k], np.arange(legs.size),
                np.full(legs.size, _LEG_PANELS), tol)
        return angle.reshape(shape), length.reshape(shape)
    # each group's breaks, sorted without repeats: 0, the graded ones and the
    # tops of its legs; col is the break at which each leg ends
    owner = np.concatenate([np.repeat(np.arange(n), _LEG_PANELS + 1), group])
    u = np.concatenate([np.hstack([np.zeros((n, 1)), graded]).ravel(), top])
    z = owner + 1j * u   # sorts by group, then u; the stable sort takes graded runs whole
    kept, rank = _distinct(z, np.argsort(z, kind="stable"))
    start = np.searchsorted(owner[kept], np.arange(n + 1))
    col, panels = rank[-top.size:] - start[group], np.diff(start) - 1
    # blocks: runs of the groups of one panel count
    order = np.lexsort((np.arange(n), panels))
    chunk = (np.cumsum(panels[order]) - panels[order]) // (_LEG_BLOCK * _LEG_PANELS)
    block = np.empty(n, dtype=int)
    block[order] = np.cumsum(np.r_[0, np.diff(panels[order]) | np.diff(chunk)] != 0)
    for b in range(block[order[-1]] + 1):
        g, k = np.flatnonzero(block == b), np.flatnonzero(block[group] == b)
        rows = u[kept[start[g][:, None] + np.arange(panels[g[0]] + 1)]]
        angle[todo[k]], length[todo[k]] = _clairaut_block(
            profile, [*keys[:, g], m_a[g]], rows, np.searchsorted(g, group[k]), col[k], tol)
    return angle.reshape(shape), length.reshape(shape)


def _all_distinct(bits) -> bool:
    """Whether the rows of the int64 array bits are all distinct, from one
    sort of a wrapping hash of each row: distinct hashes prove it, and a
    repeated hash, whether of a repeated row or a collision, answers False."""
    h = np.sort((bits * _ROW_HASH[:bits.shape[1]]).sum(axis=1))
    return bool(np.all(h[1:] != h[:-1]))


def _distinct(values, order):
    """(first, inverse) of the distinct values, or rows, taken in the sorted
    order: the index of one of each, and each one's index among them."""
    v = values[order].reshape(len(order), -1)
    new = np.concatenate([[True], (v[1:] != v[:-1]).any(axis=1)])
    inverse = np.empty(len(v), dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _clairaut_block(profile: Profile, keys, breaks, row, col, tol: float):
    """clairaut_angles on one block of groups with the keys (ra, sigma, nu,
    disc, m(ra)) and the panel breaks of each row: the legs of the groups
    row[k], ending at the breaks col[k]."""
    angle, length = np.empty(row.size), np.empty(row.size)
    legs = np.arange(row.size)

    def rule(breaks, keys):
        """Prefix sums of the angle and length over the panels of every group."""
        ra, sigma, nu, disc, m_a = (v[:, None, None] for v in keys)
        half = 0.5 * (breaks[:, 1:] - breaks[:, :-1])[..., None]
        u = 0.5 * (breaks[:, 1:] + breaks[:, :-1])[..., None] + half * _LEG_T
        r = ra + sigma * (u * u)
        dm = (2.0 * sigma * half) * u * as_float_array(
            profile.m1(r.ravel()), (r.size,)).reshape(r.shape)
        below = np.cumsum(dm @ _LEG_W, axis=1)
        dm = dm @ _LEG_S.T
        dm[:, 1:] += below[:, :-1, None]
        m = m_a + dm
        q = (2.0 * half) * u / np.sqrt(dm * (m + m_a) + disc)
        return nu[:, :, 0] * np.cumsum((q / m) @ _LEG_W, 1), np.cumsum((q * m) @ _LEG_W, 1)

    coarse = rule(breaks, keys)
    for _ in range(_LEG_SPLITS):
        halved = np.empty((breaks.shape[0], 2 * breaks.shape[1] - 1))
        halved[:, ::2] = breaks
        halved[:, 1::2] = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
        fine = rule(halved, keys)
        a, s = (v[row, 2 * col - 1] for v in fine)
        was_a, was_s = (v[row, col - 1] for v in coarse)
        bound = np.maximum(tol, _LEG_ROUNDING * (np.abs(a) + s))
        keep = np.zeros(breaks.shape[0], dtype=bool)
        keep[row[~((np.abs(a - was_a) <= bound) & (np.abs(s - was_s) <= bound))]] = True
        done = ~keep[row]
        angle[legs[done]], length[legs[done]] = a[done], s[done]
        if done.all():
            return angle, length
        legs, row, col = legs[~done], (np.cumsum(keep) - 1)[row[~done]], 2 * col[~done]
        breaks, keys, coarse = halved[keep], [v[keep] for v in keys], [v[keep] for v in fine]
    raise InternalConsistencyError(
        f"Clairaut quadrature did not settle to {tol} after {_LEG_SPLITS} "
        f"halvings on the legs from r = {keys[0][row].tolist()}")


def quadrature_segment(profile: Profile, ra: float, rb: float, nu: float, sign: int):
    """Angle, arc-length, and twisted-angle advances over a monotone-r leg.

    Returns (delta_theta, delta_s, delta_P2) where delta_P2 is the angular
    advance of the twisted geodesic, delta_theta + mu * delta_s.  sign is the
    sign of r' on the leg.  m(r) must exceed |nu| on the open interval; the
    endpoints may be turning points.

    The leg is one clairaut_angles call at tol 1e-10.  An end where m is
    within 1e-9 max(1, |nu|) of |nu| is a turning radius: the leg is
    integrated from it with the discriminant pinned to zero there, from
    both ends to the midpoint when both ends turn.
    """
    if rb <= ra:
        raise InvalidParameterError(f"need ra < rb, got [{ra}, {rb}]")
    if sign not in (1, -1):
        raise InvalidParameterError(f"sign must be +1 or -1, got {sign}")
    if nu == 0.0:
        ds = sign * (rb - ra)
        return 0.0, ds, profile.mu * ds
    interior = np.linspace(ra, rb, 101)[1:-1]
    mm = as_float_array(profile.m(interior), interior.shape)
    if np.any(mm <= abs(nu)):
        bad = interior[mm <= abs(nu)][0]
        raise InvalidBracketError(
            f"m(r) <= |nu| at interior point r = {bad}; the leg is not a "
            "single monotone arc of a geodesic with this Clairaut constant"
        )
    anu = abs(nu)
    m_a = float(profile.m(ra))
    at_turn = 1e-9 * max(1.0, anu)
    turning_left = abs(m_a - anu) <= at_turn
    if abs(float(profile.m(rb)) - anu) > at_turn:
        disc = 0.0 if turning_left else max((m_a - anu) * (m_a + anu), 0.0)
        angle, length = clairaut_angles(profile, ra, rb - ra, nu, disc, 1e-10)
    elif turning_left:
        angle, length = clairaut_angles(profile, [ra, rb], 0.5 * (rb - ra), nu, 0.0, 1e-10,
                                        sigma=[1.0, -1.0])
    else:
        angle, length = clairaut_angles(profile, rb, rb - ra, nu, 0.0, 1e-10, sigma=-1.0)
    dtheta, ds = sign * float(np.sum(angle)), sign * float(np.sum(length))
    return dtheta, ds, dtheta + profile.mu * ds


# ---------------------------------------------------------------------------
# geodesy residual and path utilities


def cumulative_path_integral(path: GeodesicPath, integrand) -> np.ndarray:
    """Integral along the path from its start to each sample, by the
    8-point Gauss-Legendre rule of clairaut_angles (_LEG_T, _LEG_W) on
    every sample interval.

    The dense output is read at all nodes in one call, and integrand maps
    the (n_nodes, 4) array of states (r, theta, dr, dtheta) there to their
    n_nodes values."""
    a, b = path.s[:-1], path.s[1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _LEG_T
    vals = np.asarray(integrand(path.dense(nodes.ravel())), dtype=float)
    out = np.zeros(len(path.s))
    np.cumsum(half * (vals.reshape(nodes.shape) @ _LEG_W), out=out[1:])
    return out


def cumulative_F_length(profile: Profile, path: GeodesicPath) -> np.ndarray:
    """F-length of the path from its start to each sample, by per-interval
    Gauss-Legendre quadrature on the dense output, with F evaluated at all
    nodes in one array pass."""
    return cumulative_path_integral(
        path, lambda y: eval_F_array(profile, np.maximum(y[:, 0], 0.0),
                                     y[:, 2], y[:, 3]))


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


def count_self_intersections(path: GeodesicPath) -> int:
    """Transverse self-intersections by a polyline segment sweep over the
    path's dense output, read every 0.05 in the parameter.

    Works in cylinder coordinates (theta, r) with theta unreduced; candidate
    segment pairs are aligned by the nearest multiple of 2 pi before the
    crossing test, which is exact because individual segments subtend far
    less than pi in theta.
    """
    ss = np.arange(path.s[0], path.s[-1], 0.05)
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

