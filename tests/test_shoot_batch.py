"""The batched heading scan of shoot_hits against per-ray integration."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from randers import SurfacePoint, make_paraboloid, measure, odesolve
from randers.errors import InvalidParameterError, VertexSingularError
from randers.geodesics import (
    GeodesicState,
    integrate_h,
    level_crossings,
    level_crossings_batch,
)
from randers.measure import shoot_hits
from randers.profile import wrap_angle, wrap_angles

SCAN_TOL = 3e-7

# verify_cut_point's two targets in test_conjugate.py, seen from q = (1, 0)
# on make_paraboloid(1.0): an interior cut point (reached by three
# segments, the two shortest of equal length) and a point on the twisted
# meridian chain (one segment).
Q = SurfacePoint(1.0, 0.0)
CUT_POINT = (2.0000000001402065, 5.846552620067419)
CONTROL = (0.5, 4.641592653589793)
# (heading, length) of the segments from Q to each target.  At the cut point
# they come from an oracle independent of the engine: scipy's DOP853 at
# rtol = atol = 1e-14, its crossing of the target radius refined by brentq
# on its dense output, and brentq on the heading to zero the twisted angle
# miss (to 1e-15); the two mirror segments agree in length to 7e-12.  The
# control is reached only along the twisted meridian chain.
REFERENCE_HITS = {
    CUT_POINT: [(-2.8206260614980407, 3.0368551466436093),
                (-1.7050104814157905, 2.7049599664856263),
                (1.7050104814120584, 2.704959966479033)],
    CONTROL: [(-3.141592653589793, 1.5)],
}


def _fan(profile, q, headings):
    m = float(profile.m(q.r))
    return np.column_stack([np.full(headings.size, q.r), np.full(headings.size, q.theta),
                            np.cos(headings), np.sin(headings) / m])


def _by_row(crossings, n):
    """level_crossings_batch's flat (rows, s, theta) as one (s, theta) pair
    for each of the n rows of its fan."""
    rows, s_c, th_c = crossings
    return [(s_c[rows == i], th_c[rows == i]) for i in range(n)]


def _polar_rhs(profile):
    """The polar geodesic equations, for scipy's solve_ivp."""
    def rhs(s, y):
        r, _, dr, dth = y
        m, m1 = float(profile.m(r)), float(profile.m1(r))
        return [dr, dth, m * m1 * dth * dth, -2.0 * (m1 / m) * dr * dth]

    return rhs


def _oracle(profile, q, chi, horizon, r_level):
    """Crossings of one ray, independent of the engine: the polar geodesic
    equations integrated by scipy's DOP853 at rtol = atol = 1e-13, until the
    ray leaves r <= r_max (a terminal event) or reaches the horizon.  The
    crossings of r_level are the sign changes of r - r_level on the step
    ends and the turns of r (events of dr = 0), so that a pair inside one
    step is seen, refined by brentq on the dense output; a start on the
    level is a crossing at s = 0.  A meridian (|sin chi| < 1e-11) is the
    closed form r = |r0 +- s| along theta0, and theta0 + pi past the
    vertex.  Returns the path's exit_reason and rows (s, r, theta, dr,
    dtheta)."""
    if abs(math.sin(chi)) < 1e-11:
        out = math.cos(chi) > 0.0
        exit_at = profile.r_max - q.r if out else q.r + profile.r_max
        hits = [(r_level - q.r, q.theta, 1.0)] if out else [
            (q.r - r_level, q.theta, -1.0), (q.r + r_level, q.theta + math.pi, 1.0)]
        rows = [(s, r_level, th, dr, 0.0) for s, th, dr in hits if 0.0 <= s <= min(horizon, exit_at)]
        return ("domain-exit" if exit_at < horizon else "completed"), np.array(rows).reshape(-1, 5)

    def leaves(s, y):
        return y[0] - profile.r_max

    def turns(s, y):
        return y[2]

    leaves.terminal, leaves.direction = True, 1.0
    start = [q.r, q.theta, math.cos(chi), math.sin(chi) / float(profile.m(q.r))]
    sol = solve_ivp(_polar_rhs(profile), (0.0, horizon), start, method="DOP853",
                    rtol=1e-13, atol=1e-13, dense_output=True, events=[leaves, turns])
    assert sol.success
    grid = np.unique(np.concatenate([sol.t, sol.t_events[1]]))
    g = sol.sol(grid)[0] - r_level
    s_c = [brentq(lambda s: sol.sol(s)[0] - r_level, a, b, xtol=1e-15)
           for a, b, ga, gb in zip(grid[:-1], grid[1:], g[:-1], g[1:]) if ga * gb < 0.0]
    rows = np.array([[s, *sol.sol(s)] for s in s_c]).reshape(-1, 5)
    if q.r == r_level:
        rows = np.vstack([[0.0, *start], rows])
    return ("domain-exit" if sol.status == 1 else "completed"), rows


def _assert_crossings(s_c, th_c, expected, atol):
    """Parameters and angles mod 2 pi of a row's crossings against expected
    rows (s, r, theta, dr, dtheta)."""
    assert len(s_c) == len(expected)
    np.testing.assert_allclose(s_c, expected[:, 0], atol=atol)
    np.testing.assert_allclose(wrap_angles(th_c - expected[:, 2]), 0.0, atol=atol)


@pytest.mark.parametrize("r_level", [2.0, 0.5, 1.0])
def test_batch_fan_matches_per_ray_oracle(r_level):
    # r_max = 2.5 makes most rays leave the domain within the horizon.  The
    # last heading is a near-meridian ray that passes within 1e-10 of the
    # vertex, where the polar chart crawls: its crossings are those of the
    # meridian limit, the ray at heading pi, with theta0 before the vertex
    # and theta0 + pi past it.  At r_level = 1.0 every ray starts on the
    # level.
    profile = make_paraboloid(1.0, r_max=2.5)
    q = SurfacePoint(1.0, 0.3)
    horizon = 6.0
    headings = np.concatenate([np.linspace(-math.pi, math.pi, 49), [math.pi - 1e-10]])
    batch = _by_row(level_crossings_batch(profile, _fan(profile, q, headings), horizon,
                                          r_level, SCAN_TOL), headings.size)
    seen = set()
    for chi, (s_c, th_c) in zip(headings, batch):
        why, expected = _oracle(profile, q, chi, horizon, r_level)
        if abs(math.sin(chi)) < 1e-11:
            why = "meridian"
        elif chi == headings[-1]:
            why, expected = "vertex-pass", _oracle(profile, q, math.pi, horizon, r_level)[1]
        elif why == "domain-exit" and expected.size:
            why = "exit-with-crossings"
        seen.add(why)
        _assert_crossings(s_c, th_c, expected, 1e-6)
    assert {"meridian", "vertex-pass", "exit-with-crossings"} <= seen


def _spy(monkeypatch, name, log):
    """Log every solution odesolve.<name> returns."""
    real = getattr(odesolve, name)

    def spy(*args, **kwargs):
        log.append(real(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(odesolve, name, spy)


@pytest.mark.parametrize("r_max,q,headings,horizon,r_level,steps", [
    # the oracle test's fan, every ray starting on the level: meridians,
    # rays past the vertex and domain exits
    (2.5, SurfacePoint(1.0, 0.3),
     np.concatenate([np.linspace(-math.pi, math.pi, 49), [math.pi - 1e-10]]), 6.0, 1.0,
     None),
    (20.0, SurfacePoint(1.146, 2.86), np.linspace(-math.pi, math.pi, 97), 3.0, 1.8,
     (586, 0)),
])
def test_fan_rows_do_not_depend_on_each_other(monkeypatch, r_max, q, headings, horizon,
                                              r_level, steps):
    """Each row of a fan is integrated and refined on its own: the whole fan
    gives the crossings of one-row calls bit for bit, and takes the steps and
    rejections of the one-row calls together."""
    profile = make_paraboloid(1.0, r_max=r_max)
    fan = _fan(profile, q, headings)
    batches = []
    _spy(monkeypatch, "integrate_batch", batches)
    rows, s_all, th_all = level_crossings_batch(profile, fan, horizon, r_level, SCAN_TOL)
    assert np.all(np.diff(rows) >= 0)   # sorted by row, then by s
    assert np.all(np.diff(s_all)[np.diff(rows) == 0] > 0.0)
    for i, row in enumerate(fan):
        rows_1, s_1, th_1 = level_crossings_batch(profile, row[None], horizon, r_level,
                                                  SCAN_TOL)
        assert np.array_equal(rows_1, np.zeros(s_1.size, dtype=int))
        assert np.array_equal(s_all[rows == i], s_1)
        assert np.array_equal(th_all[rows == i], th_1)
    counts = (batches[0].nsteps, batches[0].nrejected)
    assert counts == (sum(b.nsteps for b in batches[1:]), sum(b.nrejected for b in batches[1:]))
    if steps is not None:
        assert counts == steps


def _runs(monkeypatch, retire=True):
    """Spy on odesolve.integrate_batch: the list of the solutions of the
    runs it makes, with the retire test dropped when retire is False."""
    runs = []
    real = odesolve.integrate_batch

    def spy(*args, **kwargs):
        if not retire:
            kwargs.pop("retire")
        sol = real(*args, **kwargs)
        runs.append(sol)
        return sol

    monkeypatch.setattr(odesolve, "integrate_batch", spy)
    return runs


def _grazing(profile, q, r_level, offsets):
    """Headings from q, above r_level, of the inward rays whose turning
    radius is r_level + offset, m(r_t) = m(q.r) |sin chi|, on both sides."""
    chi = [math.pi - math.asin(float(profile.m(r_level + d)) / float(profile.m(q.r)))
           for d in offsets]
    return chi + [-c for c in chi]


def test_retired_rows_drop_no_crossing(monkeypatch):
    # on the paraboloid m' > 0, so a row above the level that moves outward
    # is retired: rows from below, on and above r = 1.5, rows that pass the
    # vertex, and rows from above that turn within 1e-9 of the level, just
    # inside it (two crossings, most likely in one step) or just outside
    # (none).  At tol 1e-10 the grazing pairs are resolved (at SCAN_TOL a
    # turn errs by more than 1e-9), and every crossing matches the oracle;
    # at SCAN_TOL the fan gives the crossings of a run without retirement
    # bit for bit
    profile = make_paraboloid(1.0)
    r_level, horizon = 1.5, 8.0
    graze = (1e-9, 1e-10, 0.0, -1e-10, -1e-9)
    fans = []
    for q in (SurfacePoint(1.0, 0.3), SurfacePoint(1.5, 0.3), SurfacePoint(2.5, 0.3)):
        headings = np.concatenate([np.linspace(-math.pi, math.pi, 25),
                                   [math.pi - 1e-3, -(math.pi - 1e-6)],
                                   _grazing(profile, q, r_level, graze) if q.r > r_level else []])
        fans.append((q, headings, _fan(profile, q, headings)))
    fan = np.vstack([f for _, _, f in fans])
    runs = _runs(monkeypatch)
    batch = _by_row(level_crossings_batch(profile, fan, horizon, r_level, 1e-10), len(fan))
    assert "retired" in runs[0].status
    i, pairs = 0, 0
    for q, headings, _ in fans:
        for chi in headings:
            s_c, th_c = batch[i]
            expected = _oracle(profile, q, chi, horizon, r_level)[1]
            _assert_crossings(s_c, th_c, expected, SCAN_TOL)
            pairs += len(s_c) == 2 and s_c[1] - s_c[0] < 1e-3
            i += 1
    assert pairs >= 4   # the grazing rows that turn inside the level
    retired = level_crossings_batch(profile, fan, horizon, r_level, SCAN_TOL)
    assert runs[1].status.count("retired") > len(fan) // 4
    # r_max = 20 lies far beyond the horizon, so without the retire test
    # every row runs to the horizon
    runs = _runs(monkeypatch, retire=False)
    kept = level_crossings_batch(profile, fan, horizon, r_level, SCAN_TOL)
    assert "retired" not in runs[0].status
    for a, b in zip(retired, kept):
        assert np.array_equal(a, b)


def test_fan_on_a_warp_that_turns_down_retires_no_row(monkeypatch, sphere):
    # m = sin r: m' < 0 past pi/2, where great circles come back down, so
    # no row may be retired inside the domain: the retired rows are those
    # that left it, rho >= r_max^2.  From (1, 0.3) the rays with |sin chi|
    # in (0.4, 1) stay inside r_max = 2.8 and cross r = 1.2 twice per turn
    # round the sphere, three or four times within the horizon
    q, r_level, horizon = SurfacePoint(1.0, 0.3), 1.2, 10.0
    headings = np.linspace(-math.pi, math.pi, 37)
    runs = _runs(monkeypatch)
    batch = _by_row(level_crossings_batch(sphere, _fan(sphere, q, headings), horizon,
                                          r_level, 1e-10), headings.size)
    retired = np.array(runs[0].status) == "retired"
    assert 0 < retired.sum() < headings.size // 2
    assert np.all(runs[0].y[retired, 4] >= sphere.r_max ** 2)
    many = 0
    for chi, (s_c, th_c) in zip(headings, batch):
        expected = _oracle(sphere, q, chi, horizon, r_level)[1]
        _assert_crossings(s_c, th_c, expected, SCAN_TOL)
        many += len(s_c) >= 3
    assert many >= 10


def test_rays_that_leave_the_domain_cross_no_more(sphere):
    # from (2.8, 0) on r_max = 2.8 the rays at chi = 0.3 and 0.05 head out
    # and leave the domain in their first step.  The exit was a terminal
    # event, which needs rho < r_max^2 at a step start, so these rows ran
    # on and crossed r = 2 at s = 1.467 and 5.471; shoot_hits returned a
    # second hit, (0.12188, 5.48122), along such a ray
    q = SurfacePoint(2.8, 0.0)
    rows, s_c, th_c = level_crossings_batch(sphere, _fan(sphere, q, np.array([0.3, 0.05])),
                                            6.0, 2.0, 1e-9)
    assert rows.size == s_c.size == th_c.size == 0
    hits = shoot_hits(sphere, q, 2.0, 1.0, np.linspace(-math.pi, math.pi, 361), 6.0,
                      twist_mu=0.2, tol=1e-9)
    assert len(hits) == 1
    assert hits[0] == pytest.approx((2.16637, 0.92596), abs=1e-5)


# headings that pass the vertex at about 1e-2 to 1e-9 from q below
NEAR_MERIDIAN = [math.pi - eps for eps in (1e-2, 1e-4, 1e-6, 1e-9)]


def _line_crossings(q, chi, r_level, horizon):
    """Closed-form crossings of the straight ray from q at heading chi on
    the plane: rows (s, r, theta, dr, dtheta)."""
    disc = r_level ** 2 - (q.r * math.sin(chi)) ** 2
    s = [-q.r * math.cos(chi) + sgn * math.sqrt(disc) for sgn in (-1.0, 1.0)] if disc > 0 else []
    s = np.array([x for x in s if 0.0 < x <= horizon])
    # from q, the ray runs along e_r cos(chi) + e_theta sin(chi)
    along, across = q.r + s * math.cos(chi), s * math.sin(chi)
    return np.column_stack([s, np.full(s.size, r_level), q.theta + np.arctan2(across, along),
                            along * math.cos(chi) / r_level + across * math.sin(chi) / r_level,
                            np.full(s.size, q.r * math.sin(chi) / r_level ** 2)])


@pytest.mark.parametrize("r_level", [0.5, 2.0])
def test_vertex_pass_on_the_plane_is_a_straight_line(flat, r_level):
    # m = r: the rays are straight lines, crossed once each side of the
    # vertex by a level below q and once past it by a level above
    q = SurfacePoint(1.0, 0.3)
    headings = np.array(NEAR_MERIDIAN + [-chi for chi in NEAR_MERIDIAN])
    batch = _by_row(level_crossings_batch(flat, _fan(flat, q, headings), 6.0, r_level,
                                          SCAN_TOL), headings.size)
    for chi, (s_c, th_c) in zip(headings, batch):
        expected = _line_crossings(q, chi, r_level, 6.0)
        assert len(expected) == (2 if r_level < q.r else 1)
        _assert_crossings(s_c, th_c, expected, 1e-6)


def _dop853_crossings(profile, q, chi, r_level, horizon):
    """Crossings of the polar geodesic equations integrated by scipy's
    DOP853 at rtol = atol = 1e-13, its events refined on its dense output."""
    sol = solve_ivp(_polar_rhs(profile), (0.0, horizon), [q.r, q.theta, math.cos(chi),
                                          math.sin(chi) / float(profile.m(q.r))],
                    method="DOP853", rtol=1e-13, atol=1e-13,
                    events=lambda s, y: y[0] - r_level)
    return np.column_stack([sol.t_events[0], sol.y_events[0]])


@pytest.mark.parametrize("r_level", [0.5, 2.0])
def test_vertex_pass_on_the_paraboloid_matches_dop853(parab, r_level):
    # near the vertex the rays bend (K = 3 there), and the vertex chart's
    # step over the pass is about as long as the ray is nearly straight
    q = SurfacePoint(1.0, 0.3)
    headings = np.array(NEAR_MERIDIAN + [-chi for chi in NEAR_MERIDIAN])
    batch = _by_row(level_crossings_batch(parab, _fan(parab, q, headings), 6.0, r_level,
                                          SCAN_TOL), headings.size)
    for chi, (s_c, th_c) in zip(headings, batch):
        expected = _dop853_crossings(parab, q, chi, r_level, 6.0)
        assert len(expected) == (2 if r_level < q.r else 1)
        np.testing.assert_allclose(s_c, expected[:, 0], atol=1e-6)
        np.testing.assert_allclose(wrap_angles(th_c - expected[:, 2]), 0.0,
                                   atol=10.0 * SCAN_TOL)


@pytest.mark.parametrize("r_level", [2.0, 3.5])
def test_vertex_pass_crossings_within_tol_of_the_oracle(parab, r_level):
    # headings pi - 10^-k, k = 2..10, pass the vertex at about 10^-k from
    # q: the vertex chart takes the pass in one step about 1.1 long, and
    # each crossing beyond it must still hold its parameter and its angle
    # to tol (9.1e-9 at worst)
    q = SurfacePoint(1.0, 0.3)
    headings = np.array([math.pi - 10.0 ** -k for k in range(2, 11)])
    batch = _by_row(level_crossings_batch(parab, _fan(parab, q, headings), 6.0, r_level,
                                          SCAN_TOL), headings.size)
    for chi, (s_c, th_c) in zip(headings, batch):
        expected = _oracle(parab, q, chi, 6.0, r_level)[1]
        assert len(s_c) == len(expected) == 1
        np.testing.assert_allclose(s_c, expected[:, 0], atol=SCAN_TOL)
        np.testing.assert_allclose(wrap_angles(th_c - expected[:, 2]), 0.0, atol=SCAN_TOL)


def test_fan_iteration_budget(monkeypatch, parab):
    # the 721-heading fan from (1, 0) to r = 2: in the vertex chart every
    # row settles in a few steps, and a row above the level that moves
    # outward is retired, so the batch runs ten iterations of 13
    # right-hand-side calls, plus the FSAL stage and the extra stages of
    # the steps that cross the level (118 calls; 149 when every row ran to
    # the horizon); in the polar chart the rows that pass near the vertex
    # took about 120 iterations
    calls = []
    real = odesolve.integrate_batch

    def counted(f, *args, **kwargs):
        return real(lambda s, y: calls.append(1) or f(s, y), *args, **kwargs)

    monkeypatch.setattr(odesolve, "integrate_batch", counted)
    level_crossings_batch(parab, _fan(parab, Q, np.linspace(-math.pi, math.pi, 721)),
                          1.05 * (Q.r + 2.0) + 0.5, 2.0, SCAN_TOL)
    assert 0 < len(calls) <= 120


@pytest.mark.parametrize("target", [CUT_POINT, CONTROL])
def test_shoot_hits_matches_reference(parab, target):
    hits = shoot_hits(parab, Q, target[0], target[1], np.linspace(-math.pi, math.pi, 361),
                      1.05 * (Q.r + target[0]) + 0.5, twist_mu=parab.mu, tol=SCAN_TOL,
                      refine_tol=1e-10)
    expected = REFERENCE_HITS[target]
    assert len(hits) == len(expected)
    for (chi, s), (chi_ref, s_ref) in zip(hits, expected):
        assert abs(wrap_angle(chi - chi_ref)) <= 1e-9
        assert s == pytest.approx(s_ref, abs=1e-9)


# integrate_h rays the refinement in heading ran on each scan when it was
# brentq's; Chandrupatla's method may not take more
REFINEMENT_RAYS = {CUT_POINT: 12, CONTROL: 0}


@pytest.mark.parametrize("target", [CUT_POINT, CONTROL])
def test_shoot_hits_refinement_rays(monkeypatch, parab, target):
    rays = []
    real = measure.integrate_h
    monkeypatch.setattr(measure, "integrate_h",
                        lambda *a, **k: rays.append(1) or real(*a, **k))
    hits = shoot_hits(parab, Q, target[0], target[1], np.linspace(-math.pi, math.pi, 361),
                      1.05 * (Q.r + target[0]) + 0.5, twist_mu=parab.mu, tol=SCAN_TOL,
                      refine_tol=1e-10)
    assert len(hits) == len(REFERENCE_HITS[target])
    assert len(rays) <= REFINEMENT_RAYS[target]


@pytest.mark.parametrize("target", [CUT_POINT, CONTROL])
def test_dropped_brackets_straddle_the_wrap(parab, target):
    """shoot_hits skips heading brackets whose miss exceeds 2.5 rad.  On both
    scans every skipped bracket moves the miss by a small step that does
    not pass through zero: a sign change there is the wrap at +-pi."""
    headings = np.linspace(-math.pi, math.pi, 361)
    scan = _by_row(level_crossings_batch(parab, _fan(parab, Q, headings),
                                         1.05 * (Q.r + target[0]) + 0.5, target[0], SCAN_TOL),
                   headings.size)
    miss = [[wrap_angle(th + parab.mu * s - target[1]) for s, th in zip(s_c, th_c)]
            for s_c, th_c in scan]
    dropped = straddles = 0
    for ca, cb in zip(miss, miss[1:]):
        for ga, gb in zip(ca, cb):
            if abs(ga) <= 2.5 and abs(gb) <= 2.5:
                continue
            dropped += 1
            step = wrap_angle(gb - ga)
            assert abs(step) < 0.5        # the heading grid resolves the miss
            assert ga * (ga + step) > 0.0  # ... and the miss keeps its sign
            straddles += ga * gb < 0.0
    assert dropped > 0 and straddles > 0


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (0.5, 1.6)])
def test_skipped_headings_truly_miss(monkeypatch, mu, rho):
    """shoot_hits' control scan (the twisted chain halfway to the conjugate
    point, r* = 1 / (2 mu^2 rho) < rho) shoots only the Clairaut cone
    cos chi < 0, |sin chi| <= m(r*) / m(rho).  The headings next to the
    cone's edges, headings just outside it and outward headings, each
    integrated on its own at 1e-11 over the scan horizon, never come down
    to r*."""
    profile = make_paraboloid(mu)
    q = SurfacePoint(rho, 0.3)
    r_target = 0.5 / (mu * mu * rho)
    horizon = 1.05 * (q.r + r_target) + 0.5
    headings = np.linspace(-math.pi, math.pi, 721)
    shot = []
    real = measure.level_crossings_batch

    def spy(prof, fan, *args, **kwargs):
        shot.append(np.arctan2(np.asarray(fan)[:, 3] * float(prof.m(q.r)),
                               np.asarray(fan)[:, 2]))
        return real(prof, fan, *args, **kwargs)

    monkeypatch.setattr(measure, "level_crossings_batch", spy)
    shoot_hits(profile, q, r_target, q.theta + math.pi, headings, horizon,
               twist_mu=mu, tol=SCAN_TOL, refine_tol=1e-10)
    # the fan integrates one heading of each mirror pair chi, -chi and reads
    # the other's crossings from it: both count as shot
    inside = np.zeros(headings.size, dtype=bool)
    ran = np.rint((shot[0] + math.pi) / (2.0 * math.pi) * (headings.size - 1)).astype(int)
    inside[ran] = inside[headings.size - 1 - ran] = True
    assert 0 < inside.sum() < headings.size // 2
    edges = np.flatnonzero(~inside & (np.roll(inside, 1) | np.roll(inside, -1)))
    band = float(profile.m(r_target)) / float(profile.m(q.r))
    outside = [sgn * (math.pi - math.asin(band * (1.0 + eps)))
               for sgn in (-1.0, 1.0) for eps in (2e-6, 1e-4)]
    outward = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 7)
    for chi in np.concatenate([headings[edges], outside, outward]):
        st = GeodesicState(q.r, q.theta, math.cos(chi), math.sin(chi) / float(profile.m(q.r)))
        path = integrate_h(profile, st, horizon, tol=1e-11)
        assert level_crossings(path, r_target)[0].size == 0
        assert path.states[:, 0].min() > r_target


@pytest.mark.parametrize("surface,q,r_level,horizon", [
    ("parab", Q, CUT_POINT[0], 1.05 * (Q.r + CUT_POINT[0]) + 0.5),
    ("parab", Q, CONTROL[0], 1.05 * (Q.r + CONTROL[0]) + 0.5),
    # from r = 2.7 on the sphere, whose r_max is 2.8, the outward rows leave
    # the domain
    ("sphere", SurfacePoint(2.7, 0.3), 2.0, 6.0),
])
def test_mirror_headings_reflect_each_other(request, monkeypatch, surface, q, r_level,
                                            horizon):
    """Reflection in the meridian through q is an isometry, so the ray at
    heading -chi is the mirror image of the ray at chi: on a grid symmetric
    about 0, the crossings (s, theta) of heading i's partner n - 1 - i, read
    as (s, 2 theta_q - theta), are heading i's own within the scan tol."""
    profile = request.getfixturevalue(surface)
    headings = np.linspace(-math.pi, math.pi, 361)
    runs = _runs(monkeypatch)
    scan = _by_row(level_crossings_batch(profile, _fan(profile, q, headings), horizon,
                                         r_level, SCAN_TOL), headings.size)
    if surface == "sphere":
        assert np.sum(runs[0].y[:, 4] >= profile.r_max ** 2) > 0
    assert sum(len(s_c) for s_c, _ in scan) > headings.size // 4
    for i, (s_c, th_c) in enumerate(scan):
        s_m, th_m = scan[headings.size - 1 - i]
        assert len(s_m) == len(s_c)
        np.testing.assert_allclose(s_m, s_c, atol=SCAN_TOL)
        np.testing.assert_allclose(wrap_angles(2.0 * q.theta - th_m - th_c), 0.0,
                                   atol=SCAN_TOL)


@pytest.mark.parametrize("shift,rows", [(0.0, 361), (1e-9, 721)])
def test_shoot_hits_integrates_one_heading_per_mirror_pair(monkeypatch, parab, shift, rows):
    # the 721-heading grid is symmetric to 2 ulps: its 360 headings below
    # 0 read their partners' crossings, and only 0 and the 360 above are
    # integrated; shifted by 1e-9 it is not, and every heading is
    fans = []
    real = measure.level_crossings_batch
    monkeypatch.setattr(measure, "level_crossings_batch",
                        lambda prof, fan, *a, **k: fans.append(len(fan)) or real(prof, fan, *a, **k))
    hits = shoot_hits(parab, Q, *CUT_POINT, np.linspace(-math.pi, math.pi, 721) + shift,
                      1.05 * (Q.r + CUT_POINT[0]) + 0.5, twist_mu=parab.mu, tol=SCAN_TOL,
                      refine_tol=1e-10)
    assert fans == [rows]
    assert len(hits) == len(REFERENCE_HITS[CUT_POINT])
    for (chi, s), (chi_ref, s_ref) in zip(hits, REFERENCE_HITS[CUT_POINT]):
        assert abs(wrap_angle(chi - chi_ref)) <= 1e-9
        assert s == pytest.approx(s_ref, abs=1e-9)


def test_fan_input_checks(parab):
    with pytest.raises(VertexSingularError):
        shoot_hits(parab, SurfacePoint(0.0, 0.0), 1.0, 0.0, [0.0, 1.0], 3.0)
    with pytest.raises(VertexSingularError):
        level_crossings_batch(parab, [[0.0, 0.0, 1.0, 0.5]], 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        level_crossings_batch(parab, [[1.0, 0.0, 1.0, 0.0]], 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        level_crossings_batch(parab, [[1.0, 0.0, 1.0, 1.0]], 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        level_crossings_batch(parab, [[1.0, 0.0, float("nan"), 0.0]], 3.0, 1.0)
