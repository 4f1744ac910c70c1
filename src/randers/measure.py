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
length T is the h-geodesic of length T from the same point with its end
rotated on by mu*T.  So the F-connectors from q1 to q2 are the h-geodesics
from q1 to radius r2 whose swept angle plus mu times their length is
theta2 - theta1 mod 2 pi, and d_F is the length of the shortest; at mu = 0
they are the h-connectors and the shortest gives d_h.  On increasing warps
one TwoRadiusConnectors query finds them all: the geodesics from the lower
radius, parametrized by their launch heading chi, that reach the higher one
within a sweep of pi, found by refining in chi a table of the Clairaut
quadrature forms.  One fan of dense ODE shooting remains for other warps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    MetricDegenerateError,
    NumericalBlowupError,
    SearchHorizonError,
    VertexSingularError,
)
from .geodesics import (
    GeodesicPath,
    GeodesicState,
    clairaut_angles,
    cumulative_F_length,
    integrate_h,
    level_crossings,
    level_crossings_batch,
)
from .profile import (
    Profile,
    SurfacePoint,
    as_float_array,
    gauss_legendre,
    roots_on_grid,
    roots_on_grids,
    wrap_angle,
    wrap_angles,
)
from .zermelo import (
    F_from_warp,
    RandersData,
    Tangent,
    eval_F,
    navigation_transform,
    randers_data,
)


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
    if not r0 > 0:
        raise InvalidParameterError(f"parallel arcs require r0 > 0, got {r0}")
    if not math.isfinite(delta_theta):
        raise InvalidParameterError(f"the angular extent must be finite, got {delta_theta}")
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
    The parallel needs r0 > 0: at the vertex both travellers stand still.
    """
    if not r0 > 0:
        raise InvalidParameterError(f"the meeting point needs r0 > 0, got {r0}")
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
    """One geodesic connector candidate between two radii, launched from the
    lower radius at heading chi.  swept is the angle it sweeps from r1 to
    r2 and nu its Clairaut constant, both signed by its orientation sigma
    (+1 in the h-problem)."""

    kind: str        # "meridian" | "chain" | "direct" | "turning"
    nu: float
    length: float
    swept: float
    chi: float


# Headings of the connector tables, folded to psi = min(chi, pi - chi):
# uniform over [0, pi/2], and geometric toward psi = 0, where the descending
# connectors close in on the chain through the vertex.
_TABLE_PSI = np.unique(np.concatenate([np.linspace(0.0, 0.5 * math.pi, 16),
                                       np.geomspace(1e-4, math.pi / 6.0, 10)]))


class TwoRadiusConnectors:
    """Geodesic connectors between the radius r1 and the radius r2, or each
    radius of an array r2, reusable over many sweep targets; every radius
    must lie in (0, r_max] (Profile.check_radius) and the warp must increase
    on [0, max(r1, r2)], else InvalidParameterError.

    The connectors of one pair, from its lower radius r_lo to its higher
    r_hi, form one family in the heading chi in [0, pi] at r_lo, measured
    from the outward meridian, with Clairaut constant nu = m(r_lo) sin chi:
    below pi/2 they climb to r_hi ("direct"), above it they first drop to
    the turning radius where m = nu ("turning"), and chi = pi is the chain
    through the vertex.  Swept angle and length come from
    geodesics.clairaut_angles, which is passed (m(r_lo) cos chi)^2 as the
    discriminant at r_lo, so both are smooth through tangency (chi = pi/2).

    Every pair is tabulated over one fixed heading grid, from sweep 0 to pi,
    so the table brackets every target in (0, pi].  The whole table is one
    clairaut_angles call: the climbs of the pairs that share a lower radius
    form one group per heading, each a prefix of one quadrature, and one
    drop (with its turning radius) per distinct lower radius and heading is
    shared by the pairs with that lower radius.  A query refines the
    sign changes of sweep - delta of every pair together, by
    profile.roots_on_grids in chi to the xtol that keeps sweep and length
    within tol / 8, each iteration one clairaut_angles call over all open
    brackets, and accepts a root only where |sweep - delta| <= tol; with a
    wind, sweep - delta becomes the miss of the twisted end angle (see
    connectors).  The table's headings start each bracket close to its root
    (the polynomial start of roots_on_grids), so a query takes two or three
    iterations; their legs, one heading each, seldom share a key and skip
    clairaut_angles' grouping.  One query serves every pair:
    conjugate.cut_locus queries all of its samples at once.

    r_lo, r_hi, m_lo and xtol have the shape of r2; sweeps and lengths add
    the heading axis of chis.
    """

    def __init__(self, profile: Profile, r1: float, r2, tol: float = 1e-10):
        if not (math.isfinite(tol) and tol > 0.0):
            raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
        for r in [r1, *np.ravel(r2).tolist()]:
            profile.check_radius(r)
        self.profile = profile
        self.r1, self.r2 = r1, r2
        self.tol = tol
        shape = np.shape(r2)
        lo = np.minimum(r1, np.ravel(r2)).astype(float)
        if not np.all(lo > 0.0):
            raise InvalidParameterError(
                f"connectors join two radii > 0, got {r1} and {r2}")
        self._lo, self._hi = lo, np.maximum(r1, np.ravel(r2)).astype(float)
        if not profile.increases_to(self._hi.max()):
            raise InvalidParameterError(
                f"connector tables need a warp that increases on [0, {self._hi.max()}]")
        # m(r_lo) once per distinct r_lo, so that the climbs sharing it group
        lows, one, code = np.unique(lo, return_index=True, return_inverse=True)
        self._m_lo = as_float_array(profile.m(lows), lows.shape)[code]
        self.r_lo, self.r_hi, self.m_lo = (v.reshape(shape)[()]
                                           for v in (self._lo, self._hi, self._m_lo))
        # the table: every pair climbs at every heading psi of _TABLE_PSI
        # (chi = psi), and turns at chi = pi - psi for psi below pi/2, with
        # the drop of each distinct r_lo and psi > 0 and the chain at psi = 0
        psi, n = _TABLE_PSI, lo.size
        climb_a, climb_s, drop_a, drop_s = self._legs(
            np.repeat(np.arange(n), psi.size), np.tile(psi, n),
            np.repeat(one, psi.size - 2), np.tile(psi[1:-1], one.size))
        climb_a, climb_s = climb_a.reshape(n, -1), climb_s.reshape(n, -1)
        drop_a, drop_s = (2.0 * v.reshape(one.size, -1)[code, ::-1] for v in (drop_a, drop_s))
        self.chis = np.concatenate([psi, math.pi - psi[-2::-1]])
        sweeps = np.concatenate([climb_a, climb_a[:, -2:0:-1] + drop_a,
                                 np.full((n, 1), math.pi)], axis=1)
        lengths = np.concatenate([climb_s, climb_s[:, -2:0:-1] + drop_s,
                                  (lo + self._hi)[:, None]], axis=1)
        self.sweeps, self.lengths = (v.reshape(shape + (-1,)) for v in (sweeps, lengths))
        # refine roots in chi finely enough for sweep and length to meet tol
        slope = (np.abs(np.diff([sweeps, lengths], axis=-1)) / np.diff(self.chis)).max(axis=(0, 2))
        self._xtol = tol / (8.0 * np.maximum(slope, 1.0))
        self.xtol = self._xtol.reshape(shape)[()]
        self.iterations = 0

    def sweep_length(self, chi):
        """(sweep, length) arrays of the connectors launched at the headings
        chi in [0, pi]; chi broadcasts against the shape of r2."""
        pair, chi = np.broadcast_arrays(np.arange(self._lo.size).reshape(np.shape(self.r2)),
                                        np.asarray(chi, dtype=float))
        sweep, length = self._at(pair.ravel(), chi.ravel())
        return sweep.reshape(chi.shape), length.reshape(chi.shape)

    def _at(self, pair, chi):
        """sweep_length of the connectors of the pairs pair[k] at chi[k]."""
        turning = chi > 0.5 * math.pi
        psi = np.where(turning, math.pi - chi, chi)
        drops = np.flatnonzero(turning & (psi > 0.0))
        sweep, length, drop_a, drop_s = self._legs(pair, psi, pair[drops], psi[drops])
        sweep[drops] += 2.0 * drop_a
        length[drops] += 2.0 * drop_s
        chain = turning & (psi == 0.0)
        sweep[chain], length[chain] = math.pi, self._lo[pair[chain]] + self._hi[pair[chain]]
        return sweep, length

    def _legs(self, c_pair, c_psi, d_pair, d_psi):
        """Swept angles and lengths, from one clairaut_angles call, of the
        climbs r_lo -> r_hi of the pairs c_pair at the headings c_psi, and
        of the drops r_t -> r_lo of the pairs d_pair at the headings
        pi - d_psi, which a turning connector runs twice."""
        c_lo, c_m, d_m = self._lo[c_pair], self._m_lo[c_pair], self._m_lo[d_pair]
        nu = np.concatenate([c_m * np.sin(c_psi), d_m * np.sin(d_psi)])
        r_t, x_t = _turning_points(self.profile, self._lo[d_pair], d_m, nu[c_psi.size:],
                                   (d_m * np.cos(d_psi)) ** 2)
        angle, length = clairaut_angles(
            self.profile, np.concatenate([c_lo, r_t]),
            np.concatenate([self._hi[c_pair] - c_lo, x_t]), nu,
            np.concatenate([(c_m * np.cos(c_psi)) ** 2, np.zeros(d_psi.size)]),
            self.tol / 3.0)
        k = c_psi.size
        return angle[:k], length[:k], angle[k:], length[k:]

    def connectors(self, dtheta: float, mu: float = 0.0):
        """The connectors whose end angle, twisted on by mu times their
        length, is dtheta from their start mod 2 pi: a list of HConnector for
        a scalar r2, else one such list per radius of r2, in flat order.
        They are the roots in chi of

            g(chi) = sigma * sweep(chi) + mu * length(chi) - dtheta - 2 pi k

        for sigma = +-1 and every k where g changes sign or is 0 on the table,
        each (pair, sigma, k) one row of roots_on_grids, refined to xtol and
        accepted where |g| <= tol; swept and nu carry sigma, and
        self.iterations counts the refinement iterations.  At mu = 0: the
        h-connectors that sweep |wrap(dtheta)|, sigma = +1 and k = 0 only.
        Raises InternalConsistencyError where a pair has none."""
        if not (math.isfinite(dtheta) and math.isfinite(mu)):
            raise InvalidParameterError(f"dtheta and mu must be finite, got {dtheta}, {mu}")
        lo, hi, n = self._lo.tolist(), self._hi.tolist(), self._lo.size
        sweeps, lengths = self.sweeps.reshape(n, -1), self.lengths.reshape(n, -1)
        self.iterations = 0
        dtheta = wrap_angle(dtheta)
        if mu == 0.0:
            dtheta = abs(dtheta)
            if dtheta == 0.0:
                out = [[HConnector("meridian", 0.0, b - a, 0.0, 0.0)] for a, b in zip(lo, hi)]
                return out if np.ndim(self.r2) else out[0]
            if abs(dtheta - math.pi) <= 1e-14:
                dtheta = math.pi   # the chain's grid value, at chi = pi, is then a root
            turns = [(p, 0) for p in range(n)]
        else:
            # one row per pair, orientation and k with dtheta + 2 pi k between
            # the least and the greatest table value of the pair and orientation
            v = np.concatenate([sweeps, -sweeps]) + mu * np.concatenate([lengths, lengths]) - dtheta
            turns = [(i, k) for i, (a, b) in enumerate(zip(v.min(axis=1) / (2.0 * math.pi),
                                                          v.max(axis=1) / (2.0 * math.pi)))
                     for k in range(math.ceil(a), math.floor(b) + 1)]
        i, k = np.array(turns, dtype=int).reshape(-1, 2).T
        pair, sign, target = i % n, np.where(i < n, 1.0, -1.0), dtheta + 2.0 * math.pi * k
        seen = {}

        def g(row, sweep, length):
            return sign[row] * sweep + mu * length - target[row]

        def miss(row, chi):
            self.iterations += 1
            sweep, length = self._at(pair[row], chi)
            seen.update(zip(zip(pair[row].tolist(), chi.tolist()),
                            zip(sweep.tolist(), length.tolist())))
            return g(row, sweep, length)

        values = g(np.arange(i.size)[:, None], sweeps[pair], lengths[pair])
        # the chain (chi = pi, the last column) meets a target that it misses
        # by rounding only: its grid value is then a root, as at mu = 0, and
        # no rounding noise on the flat fold beside it at a conjugate point
        # passes for a turning connector
        chain = values[:, -1]
        chain[np.abs(chain) <= 1e-14 * np.maximum(1.0, np.abs(target))] = 0.0
        rows, chis = roots_on_grids(miss, self.chis, values, self._xtol[pair])
        # a root where miss never ran is a grid point: its values are in the table
        grid = np.minimum(np.searchsorted(self.chis, chis), self.chis.size - 1)
        # the connectors are built from Python floats, row by row
        pairs, signs, targets = pair.tolist(), sign.tolist(), target.tolist()
        m_lo, pi, sin, tol = self._m_lo.tolist(), math.pi, math.sin, self.tol
        out: list[list[HConnector]] = [[] for _ in range(n)]
        for row, chi, j in zip(rows.tolist(), chis.tolist(), grid.tolist()):
            p, s = pairs[row], signs[row]
            if (chi == 0.0 or chi == pi) and any(c.chi == chi for c in out[p]):
                continue   # the meridian or the chain, once per orientation
            sweep, length = seen.get((p, chi)) or (float(sweeps[p, j]), float(lengths[p, j]))
            off = s * sweep + mu * length - targets[row]
            if not abs(off) <= tol:
                raise InternalConsistencyError(
                    f"connector at chi = {chi} misses dtheta = {dtheta} by {off}, more than {tol}")
            if chi == pi:
                kind, nu = "chain", 0.0
            else:
                kind = "meridian" if chi == 0.0 else "direct" if chi <= 0.5 * pi else "turning"
                nu = s * m_lo[p] * sin(chi)
            out[p].append(HConnector(kind, nu, length, s * sweep, chi))
        for p, cands in enumerate(out):
            if not cands:
                raise InternalConsistencyError(f"no connector between radii {lo[p]} and "
                                               f"{hi[p]} meets dtheta = {dtheta} at mu = {mu}")
        return out if np.ndim(self.r2) else out[0]


# Ulps of a turning radius or drop within which its last step settles it.
_TURN_ULPS = 4.0 * float(np.finfo(float).eps)


def _turning_points(profile: Profile, r_lo, m_lo, nu, disc):
    """Turning radii r_t, m(r_t) = nu, and drops r_lo - r_t of the headings
    with Clairaut constant nu and discriminant disc = m(r_lo)^2 - nu^2 at
    the launch radius r_lo (arrays of one length).  Near tangency, where
    r_lo - r_t rounds to r_lo, the drop x is solved for, from
    m(r_lo)^2 - m(r_lo - x)^2 = disc with the difference of m the panel
    rule profile.gauss_legendre of m'; deeper down r_t is, from
    m(r_t) = nu.  Halley steps, kept inside [0, r_lo] by bisection, from
    the quadratic Taylor model of m^2 at r_lo and from the cubic Hermite
    model of the inverse of m on [0, m(r_lo)] (m(0) = 0 and m'(0) = 1 at
    the vertex) respectively."""
    if nu.size == 0:
        return nu, nu
    m1, m2 = (as_float_array(f(r_lo), r_lo.shape) for f in (profile.m1, profile.m2))
    a, b = 2.0 * m_lo * m1, m1 * m1 + m_lo * m2
    x = 2.0 * disc / (a + np.sqrt(np.maximum(a * a - 4.0 * b * disc, 0.0)))
    near = x <= 0.25 * r_lo
    # r(m) of the cubic Hermite through r(0) = 0, r'(0) = 1 and r(m_lo) = r_lo,
    # r'(m_lo) = 1 / m'(r_lo), at m = nu
    s = nu / m_lo
    far = s * (m_lo * (1.0 - s) ** 2 + s * (r_lo * (3.0 - 2.0 * s) + (m_lo / m1) * (s - 1.0)))
    y = np.where(near, x, np.clip(far, 0.0, r_lo))
    lo, hi = np.zeros_like(y), r_lo.copy()
    some_near, all_near, twice_m_lo = near.any(), near.all(), 2.0 * m_lo
    for _ in range(100):
        r = np.where(near, r_lo - y, y)
        m1_r, m2_r = (as_float_array(f(r), r.shape) for f in (profile.m1, profile.m2))
        dm = g = 0.0
        if some_near:
            w = np.where(near, y, 0.0)[:, None]
            dm = gauss_legendre(profile.m1, r_lo[:, None] - w, w)
            g = dm * (twice_m_lo - dm) - disc
        if not all_near:
            g = np.where(near, g, as_float_array(profile.m(r), r.shape) - nu)
        lo, hi = np.where(g < 0.0, y, lo), np.where(g > 0.0, y, hi)
        # g' and g'' in y: 2 m m' and -2 (m'^2 + m m'') at r near, m' and m'' far
        m_r = m_lo - dm
        d1 = np.where(near, 2.0 * m_r * m1_r, m1_r)
        d2 = np.where(near, -2.0 * (m1_r * m1_r + m_r * m2_r), m2_r)
        step = y - 2.0 * g * d1 / (2.0 * d1 * d1 - g * d2)
        # settled where the step moves y by a few ulps, or where g is rounding
        # noise and the bracket has shrunk to a few ulps; any other step out of
        # the bracket bisects it
        small = np.abs(step - y) <= _TURN_ULPS * y
        step = np.where(small | ((lo < step) & (step < hi)), step, 0.5 * (lo + hi))
        settled = np.all(small | (hi - lo <= _TURN_ULPS * y) | (g == 0.0))
        y = np.where(g == 0.0, y, step)
        if settled:
            return np.where(near, r_lo - y, y), np.where(near, y, r_lo - y)
    raise InternalConsistencyError(f"turning radii did not settle: {y.tolist()}")


def h_distance(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
               tol: float = 1e-10) -> float:
    """Background (Riemannian) distance between two points."""
    return _distance(profile, q1, q2, 0.0, tol)[0]


def _distance(profile: Profile, q1: SurfacePoint, q2: SurfacePoint, mu: float,
              tol: float) -> tuple[float, int]:
    """(d, iterations): the length d of the shortest geodesic from q1 to q2
    twisted by mu (d_F under the profile's wind, d_h at mu = 0), from one
    connector query at tol where the warp increases, else from one
    _h_distance_shooting fan (0 iterations).  A point within tol / 2 of the
    vertex gives the path through it, and a pair within h chart distance
    1e-5 and 1e-4 in angle the near-field rule, F of the chart step
    (r2 - r1, wrap(theta2 - theta1)) at the midpoint radius, under the wind
    mu or none (both 0 iterations); a radius beyond r_max raises
    InvalidParameterError."""
    profile.check_radius(q1.r)
    profile.check_radius(q2.r)
    if min(q1.r, q2.r) <= 0.5 * tol:
        # d(q, vertex) = r, so by the triangle inequality the path through
        # the vertex is within 2 min(r1, r2) of the shortest
        return q1.r + q2.r, 0
    dtheta = wrap_angle(q2.theta - q1.theta)
    if dtheta == 0.0 and q1.r == q2.r:
        return 0.0, 0
    # Near-field rule: within h chart distance d < 1e-5 the distance is F of
    # the chart step at the midpoint radius (the chart distance at mu = 0),
    # which errs by O(curvature d^3) and, as the polar chart bends, by
    # O(d dtheta^2): hence the bound on dtheta, which sends a pair beside the
    # vertex to the connectors.  No fan of rays resolves a pair this close.
    r_mid = 0.5 * (q1.r + q2.r)
    m_mid = float(profile.m(r_mid))
    if math.hypot(q2.r - q1.r, m_mid * dtheta) < 1e-5 and abs(dtheta) < 1e-4:
        return F_from_warp(mu, m_mid, r_mid, Tangent(q2.r - q1.r, dtheta)), 0
    if not profile.increases_to(max(q1.r, q2.r)):
        return _h_distance_shooting(profile, q1, q2, twist_mu=mu), 0
    table = TwoRadiusConnectors(profile, q1.r, q2.r, tol=tol)
    cands = table.connectors(q2.theta - q1.theta, mu)
    return min(c.length for c in cands), table.iterations


def _h_distance_shooting(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
                         twist_mu: float = 0.0) -> float:
    """The shortest geodesic from q1 to q2 twisted by twist_mu, by one
    shoot_hits fan over 361 headings of [-pi, pi], endpoint included, at
    tol = 1e-9; the grid is symmetric to 4 ulp(pi), so the fan integrates
    the 181 headings >= 0 and reads the others as their mirror images.  A
    shortest hit above the through-vertex bound r1 + r2 (+ tol) missed the
    minimizer and raises SearchHorizonError."""
    tol = 1e-9
    bound = q1.r + q2.r
    horizon = 1.05 * bound + 0.5   # a margin past the bound, where no hit answers
    hits = shoot_hits(
        profile, q1, q2.r, q2.theta,
        headings=np.linspace(-math.pi, math.pi, 361),
        horizon=horizon, twist_mu=twist_mu, tol=tol,
    )
    best = min((h[1] for h in hits), default=math.inf)
    if abs(wrap_angle(q2.theta - q1.theta - twist_mu * bound)) == math.pi:
        best = min(best, bound)   # the chain through the vertex
    if not best <= bound + tol:
        raise SearchHorizonError(
            f"no connector within the through-vertex bound {bound}; the shortest "
            f"found within horizon {horizon} has length {best}", lower_bound=horizon)
    return best


# shoot_hits' relative widening of the Clairaut band |sin chi| <= m(r*) / m(rho),
# far above the scan tolerances, so that a ray the scan sees cross is shot
_CONE_MARGIN = 1e-6


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

    The scan runs the headings in one batched integration at tol
    (geodesics.level_crossings_batch), in normal coordinates at the vertex,
    so a ray that passes the vertex crosses on, and its crossings' theta is
    known mod 2 pi only, which the wrapped miss absorbs; a ray that leaves
    r <= r_max ends at the end of that step, with the crossings it made
    before (a ray launched outward on r_max after its first step).  Where
    the warp increases on (0, r_max] (Profile.increasing_radius = r_max)
    Clairaut's relation r'' = nu^2 m' / m^3 >= 0 keeps an outward ray from
    coming back down, which prunes the scan twice.  Where r* = r_target lies below
    q_from, only Clairaut's cone cos chi < 0, |sin chi| <= m(r*) / m(rho)
    (widened by _CONE_MARGIN) is integrated: a geodesic lives where
    m >= |nu| = m(rho) |sin chi|, so the other headings have no crossing,
    as a ray that misses has.  And the fan retires each ray once it lies
    above r* and moves outward, after the crossings of that step.
    Reflection in the meridian through q_from is an isometry, so the ray at
    heading -chi is the mirror image of the ray at chi: on a grid symmetric
    about 0, |h_i + h_(n-1-i)| <= 4 ulp(pi) for every i (np.linspace(-pi,
    pi, n) is, to 2 ulps), a heading below 0 reads the crossings (s, theta)
    of its partner n - 1 - i, if that is >= 0, as (s, 2 theta_q - theta),
    and only the headings >= 0 are integrated, about half the rows (361 of
    721; 79 of the control scan's 158 cone headings); on any other grid
    each heading is its own.  Crossings are indexed in parameter order,
    their wrapped angular misses and parameters scattered into one matrix
    each, and the miss of the k-th crossing is bracketed between
    consecutive headings, then refined by roots_on_grid in the heading,
    each iterate one integrate_h ray at refine_tol, which crosses the
    vertex in the fan's chart too; a
    bracket whose refined ray loses its k-th crossing (or stops at the
    integrator's max_steps) is dropped.  Brackets with a miss above 2.5 rad are skipped, so that the
    angle wrap at +-pi does not pass for a zero.  A segment that grazes
    r_target, turning within about 1e-8 of it, can be missed at tol 3e-7:
    the fan places a turning radius no closer than about 1e-9, and a
    grazing pair's crossings move like the square root of that error, so
    its ray may show no crossing, or a pair 1e-4 off.
    """
    if q_from.r <= 0.0:
        raise VertexSingularError("headings do not parametrize rays from the vertex")
    m_at = float(profile.m(q_from.r))
    headings = np.asarray(headings, dtype=float)

    def crossings(chi: float) -> tuple[np.ndarray, np.ndarray]:
        # parameters and twisted angles of one ray's crossings
        st = GeodesicState(q_from.r, q_from.theta, math.cos(chi),
                           math.sin(chi) / m_at)
        try:
            path = integrate_h(profile, st, horizon, tol=refine_tol)
        except NumericalBlowupError:
            return np.empty(0), np.empty(0)
        s_c, y_c = level_crossings(path, r_target)
        return s_c, y_c[:, 1] + twist_mu * s_c

    n = headings.size
    shoot = np.arange(n)
    if 0.0 < r_target < q_from.r and profile.increases_to(profile.r_max):
        band = float(profile.m(r_target)) / m_at * (1.0 + _CONE_MARGIN)
        shoot = np.flatnonzero((np.cos(headings) < 0.0) & (np.abs(np.sin(headings)) <= band))
    # source[i]: the heading whose ray gives heading i's crossings, its mirror
    # partner n - 1 - i for a heading below 0 on a grid symmetric to 4 ulp(pi)
    source = np.arange(n)
    if np.all(np.abs(headings + headings[::-1]) <= 4.0 * math.ulp(math.pi)):
        source = np.where((headings < 0.0) & (headings[::-1] >= 0.0), source[::-1], source)
    run, at = np.unique(source[shoot], return_inverse=True)
    fan = np.column_stack([np.full(run.size, q_from.r), np.full(run.size, q_from.theta),
                           np.cos(headings[run]), np.sin(headings[run]) / m_at])
    rows, s_c, th_c = level_crossings_batch(profile, fan, horizon, r_target, tol)
    # the index of each crossing in its row, which runs in parameter order
    nth = np.arange(rows.size) - np.searchsorted(rows, rows)
    ran_s = np.full((run.size, nth.max(initial=-1) + 1), np.nan)
    ran_s[rows, nth] = s_c
    ran_th = np.full(ran_s.shape, np.nan)
    ran_th[rows, nth] = th_c
    # param[i, k], miss[i, k]: the parameter and wrapped angular miss of
    # heading i's k-th crossing, NaN past its last one, so that no bracket
    # test passes there; a mirrored heading reads its partner's crossings
    # (s, theta) as (s, 2 theta_q - theta)
    param = np.full((n, ran_s.shape[1]), np.nan)
    theta = np.full(param.shape, np.nan)
    param[shoot], theta[shoot] = ran_s[at], ran_th[at]
    mirrored = shoot[source[shoot] != shoot]
    theta[mirrored] = 2.0 * q_from.theta - theta[mirrored]
    miss = wrap_angles(theta + twist_mu * param - theta_target)
    ga, gb = miss[:-1], miss[1:]
    # a sign change or a zero (a superset of what roots_on_grid refines),
    # away from the angle wrap
    brackets = np.nonzero((np.abs(ga) <= 2.5) & (np.abs(gb) <= 2.5) & (ga * gb <= 0.0))
    hits: list[tuple[float, float]] = []
    for i, k in zip(*(a.tolist() for a in brackets)):
        chi_a, chi_b = float(headings[i]), float(headings[i + 1])
        seen = {chi_a: param[i], chi_b: param[i + 1]}

        def refined_miss(chi: float) -> float:
            s_c, th = crossings(chi)
            seen[chi] = s_c
            if s_c.size <= k:
                raise _CrossingLost
            return wrap_angle(float(th[k]) - theta_target)

        try:
            roots = roots_on_grid(refined_miss, (chi_a, chi_b),
                                  (float(ga[i, k]), float(gb[i, k])), xtol=1e-13)
        except _CrossingLost:
            continue
        hits += [(chi, float(seen[chi][k])) for chi in roots]
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
                      tol: float = 1e-9) -> DistanceReport:
    """Navigation distance d_F(q1, q2) with diagnostics: iterations counts
    the refinement iterations in chi of _distance, and bracket is the
    through-vertex interval (0, r1 + r2) that holds d_F."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
    d, iterations = _distance(profile, q1, q2, profile.mu, tol)
    return DistanceReport((q1.r, q1.theta), (q2.r, q2.theta), d, tol, iterations,
                          (0.0, q1.r + q2.r), True)


def distance_F(profile: Profile, q1: SurfacePoint, q2: SurfacePoint,
               tol: float = 1e-9) -> float:
    return distance_F_report(profile, q1, q2, tol=tol).distance
