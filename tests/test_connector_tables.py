"""TwoRadiusConnectors, the connector family in the launch heading chi,
against oracles that do not use geodesics.clairaut_angles: closed forms on
the flat plane and the sphere, and the ODE (integrate_h at tol 1e-12) on
the paraboloid."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from randers import InvalidParameterError, SurfacePoint, make_custom, make_paraboloid
from randers import geodesics
from randers.conjugate import cut_locus
from randers.geodesics import GeodesicState, clairaut_angles, integrate_h, level_crossings
from randers.measure import _TABLE_PSI, TwoRadiusConnectors, _turning_points, h_distance

PROFILES = {
    "flat": lambda: make_custom("r", "1", "0", mu=0.04, r_max=20.0),
    "sphere": lambda: make_custom("sin(r)", "cos(r)", "-sin(r)", mu=0.2, r_max=2.8),
    "paraboloid-1": lambda: make_paraboloid(1.0),
    "paraboloid-0.5": lambda: make_paraboloid(0.5),
}

# Widely separated radii, nearly equal ones and equal ones; the sphere's
# stay below pi / 2.  No pair is conjugate: test_conjugate_pair covers that.
PAIRS = [(0.3, 1.5), (1.2, 0.2), (1.5, 0.9), (0.5, 0.7), (1.0, 1.02),
         (1.3, 1.3 + 3e-9), (1.3, 1.3 + 6e-10), (1.3, 1.3)]
TANGENT = [0.5 * math.pi + d for d in (0.0, -1e-4, 1e-4, -1e-6, 1e-6, -1e-8, 1e-8)]
DELTAS = np.linspace(0.0, math.pi, 25)[1:]


def _flat_connector(r_lo, r_hi, chi):
    """(sweep, length) of the straight segment from (r_lo, 0) at heading chi
    to its first outward crossing of r = r_hi, written without cancellation
    near tangency."""
    c = r_lo * math.cos(chi)
    gap = (r_hi - r_lo) * (r_hi + r_lo)
    root = math.sqrt(gap + c * c)
    s = gap / (root + c) if c > 0.0 else root - c
    return math.atan2(s * math.sin(chi), r_lo + s * math.cos(chi)), s


def _sphere_connector(r_lo, r_hi, chi):
    """The same on the unit sphere, r the colatitude: with x = tan(s / 2)
    the crossing solves (k - cos r_lo) x^2 - sin r_lo cos chi x + k = 0,
    k = sin((r_hi + r_lo) / 2) sin((r_hi - r_lo) / 2)."""
    k = math.sin(0.5 * (r_hi + r_lo)) * math.sin(0.5 * (r_hi - r_lo))
    a, b = k - math.cos(r_lo), -math.sin(r_lo) * math.cos(chi)
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * k), b))
    s = 2.0 * math.atan(q / a if b >= 0.0 else k / q)
    x = math.cos(s) * math.sin(r_lo) + math.sin(s) * math.cos(chi) * math.cos(r_lo)
    return math.atan2(math.sin(s) * math.sin(chi), x), s


def _ode_connector(profile, r_lo, r_hi, chi):
    """(sweep, length) of the h-geodesic from (r_lo, 0) at heading chi up
    to its first outward crossing of r = r_hi, by integrate_h at tol 1e-12.
    The crossing from level_crossings, which reads the cubic dense output,
    is polished by Newton steps on integrations that end there (from the
    sample before, a node of the first integration).  Back at
    r_hi = r_lo the crossing is twice the turning point, where dr = 0."""
    start = GeodesicState(r_lo, 0.0, math.cos(chi), math.sin(chi) / float(profile.m(r_lo)))
    path = integrate_h(profile, start, r_lo + r_hi + 0.5, tol=1e-12)

    def end(s):
        """The state at s, integrated on from the last sample before it."""
        k = max(int(np.searchsorted(path.s, s)) - 1, 0)
        return integrate_h(profile, GeodesicState(*path.states[k]), s - path.s[k],
                           tol=1e-12).states[-1]

    if r_hi > r_lo:
        s, y = level_crossings(path, r_hi)
        s = s[np.flatnonzero(y[:, 2] >= 0.0)[0]]
        for _ in range(3):
            y = end(s)
            s -= (y[0] - r_hi) / y[2]
        return end(s)[1], s
    if math.cos(chi) >= 0.0:
        return 0.0, 0.0
    k = np.flatnonzero(path.states[:, 2] > 0.0)[0]
    s = brentq(lambda s: path.dense(s)[2], path.s[k - 1], path.s[k], xtol=1e-15)
    for _ in range(3):
        y = end(s)
        s -= y[2] / (float(profile.m(y[0])) * float(profile.m1(y[0])) * y[3] ** 2)
    return 2.0 * end(s)[1], 2.0 * s


def _oracle(name, profile, r_lo, r_hi, chi):
    if chi == math.pi:
        return math.pi, r_lo + r_hi   # the chain through the vertex
    if name == "flat":
        return _flat_connector(r_lo, r_hi, chi)
    if name == "sphere":
        return _sphere_connector(r_lo, r_hi, chi)
    return _ode_connector(profile, r_lo, r_hi, chi)


@pytest.mark.parametrize("name", list(PROFILES))
def test_tables_match_adaptive_oracle(name):
    """Table rows against the closed forms, or on the paraboloids against
    the adaptive ODE integrator at every fourth heading that keeps clear of
    the vertex (near it the integrator's steps shrink with the turning
    radius)."""
    profile = PROFILES[name]()
    for r1, r2 in PAIRS:
        solver = TwoRadiusConnectors(profile, r1, r2)
        assert solver.chis[0] == 0.0 and solver.chis[-1] == math.pi
        assert solver.sweeps[0] == 0.0 and solver.sweeps[-1] == math.pi
        assert solver.lengths[0] == pytest.approx(solver.r_hi - solver.r_lo, abs=1e-12)
        assert solver.lengths[-1] == solver.r_lo + solver.r_hi
        rows = np.arange(solver.chis.size)
        if name.startswith("paraboloid"):
            rows = rows[1:-1:4][solver.chis[1:-1:4] < 3.0]
        want = np.array([_oracle(name, profile, solver.r_lo, solver.r_hi, solver.chis[i])
                         for i in rows])
        np.testing.assert_allclose(solver.sweeps[rows], want[:, 0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(solver.lengths[rows], want[:, 1], rtol=0, atol=1e-10)


@pytest.mark.parametrize("name,i", [(name, i) for name in PROFILES for i in range(len(PAIRS))])
def test_connectors_match_adaptive_oracle(name, i):
    """Every connector sweeps delta and is the oracle's geodesic at its
    heading; on the paraboloid at (1.3, 1.3 + 6e-10), delta = pi / 24 lies
    in the band no connector reached while the Clairaut constant was capped
    at nu_max (1 - 1e-7)."""
    profile = PROFILES[name]()
    r1, r2 = PAIRS[i]
    solver = TwoRadiusConnectors(profile, r1, r2)
    deltas = DELTAS if name in ("flat", "sphere") else DELTAS[[0, 11, 23]]
    for delta in deltas:
        cands = solver.connectors(float(delta))
        assert cands
        for c in cands:
            sweep, length = _oracle(name, profile, solver.r_lo, solver.r_hi, c.chi)
            assert c.swept == pytest.approx(delta, abs=1e-10)
            assert sweep == pytest.approx(delta, abs=1e-10)
            assert c.length == pytest.approx(length, abs=1e-10)


@pytest.mark.parametrize("mu", [1.0, 0.5])
@pytest.mark.parametrize("r_lo,r_hi", [(0.3, 1.5), (1.3, 1.31), (1.3, 1.3 + 6e-10), (1.3, 1.3)])
def test_family_through_tangency_matches_ode(mu, r_lo, r_hi):
    profile = make_paraboloid(mu)
    chis = TANGENT + [0.4, 2.2, 3.0]
    sweep, length = TwoRadiusConnectors(profile, r_lo, r_hi).sweep_length(chis)
    assert np.all(np.isfinite(sweep)) and np.all(np.isfinite(length))
    want = np.array([_ode_connector(profile, r_lo, r_hi, chi) for chi in chis])
    np.testing.assert_allclose(sweep, want[:, 0], rtol=0, atol=1e-10)
    np.testing.assert_allclose(length, want[:, 1], rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", ["flat", "sphere"])
def test_family_through_tangency_and_h_distance_match_closed_forms(name):
    profile = PROFILES[name]()
    exact = _flat_connector if name == "flat" else _sphere_connector
    chis = np.concatenate([np.linspace(0.0, math.pi, 25), TANGENT])
    for r1, r2 in PAIRS:
        solver = TwoRadiusConnectors(profile, r1, r2)
        sweep, length = solver.sweep_length(chis)
        want = np.array([exact(solver.r_lo, solver.r_hi, chi) for chi in chis])
        np.testing.assert_allclose(sweep, want[:, 0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(length, want[:, 1], rtol=0, atol=1e-10)
        # h_distance takes the connectors where m' > 0 up to 1.05 max(r1, r2)
        if name == "sphere" and 1.05 * max(r1, r2) >= 0.5 * math.pi:
            continue
        for delta in DELTAS:
            h = math.sin(0.5 * delta)
            if name == "flat":
                d = math.sqrt((r1 - r2) ** 2 + 4.0 * r1 * r2 * h * h)
            else:
                d = 2.0 * math.asin(math.sqrt(math.sin(0.5 * (r2 - r1)) ** 2
                                              + math.sin(r1) * math.sin(r2) * h * h))
            got = h_distance(profile, SurfacePoint(r1, 0.3), SurfacePoint(r2, 0.3 + delta))
            assert got == pytest.approx(d, abs=1e-10)


# Closed forms of the turning radius r_t, m(r_t) = nu, and of the secant
# slope (m(a) - m(a - x)) / x, which has no cancellation as x -> 0.
def _parab_secant(a, x):
    b = a - x
    sa, sb = math.sqrt(a * a + 1.0), math.sqrt(b * b + 1.0)
    return (a + b) / ((a * sb + b * sa) * sa * sb)


TURNING = {
    "flat": (lambda: make_custom("r", "1", "0", mu=0.04, r_max=20.0),
             lambda nu: nu, lambda a, x: 1.0, (0.5, 1.0, 3.0)),
    "sphere": (lambda: make_custom("sin(r)", "cos(r)", "-sin(r)", mu=0.2, r_max=2.8),
               math.asin,
               lambda a, x: 2.0 * math.cos(a - 0.5 * x) * math.sin(0.5 * x) / x if x
               else math.cos(a), (0.3, 1.0, 1.4)),
    "paraboloid-1": (lambda: make_paraboloid(1.0), lambda nu: nu / math.sqrt(1.0 - nu * nu),
                     _parab_secant, (0.5, 1.0, 2.0, 5.0)),
}


@pytest.mark.parametrize("name", sorted(TURNING))
def test_turning_points_meet_closed_forms(name):
    # headings at the angle delta past tangency (chi = pi/2 + delta), from
    # 1e-9, where the drop x = r_lo - r_t is far below an ulp of r_lo, to the
    # chain at pi/2: nu = m cos delta and disc = (m sin delta)^2.  r_t meets
    # the inverse of m at nu.  x is the root of dm (2 m - dm) = disc with
    # dm = m(r_lo) - m(r_lo - x) that the drop branch solves: x = dm / S(x)
    # on the secant slope S, iterated from S(0) = m'(r_lo), up to drops of
    # r_lo / 4; beyond, r_lo - r_t loses at most a few ulps.
    make, inverse, secant, radii = TURNING[name]
    profile = make()
    deltas = np.concatenate([np.geomspace(1e-9, 1.0, 28), [1.2, 1.5, 0.5 * math.pi]])
    r_lo = np.repeat(radii, deltas.size)
    m_lo = np.asarray(profile.m(r_lo), dtype=float) * np.ones_like(r_lo)
    delta = np.tile(deltas, len(radii))
    nu, disc = m_lo * np.cos(delta), (m_lo * np.sin(delta)) ** 2
    r_t, x = _turning_points(profile, r_lo, m_lo, nu, disc)
    for a, m, n, d, got_r, got_x in zip(r_lo, m_lo, nu, disc, r_t, x):
        want_r = inverse(n)
        want_x = a - want_r
        if want_x <= 0.25 * a:
            dm = d / (m + math.sqrt(m * m - d))
            want_x = 0.0
            for _ in range(100):
                want_x = dm / secant(a, want_x)
        assert abs(got_r - want_r) <= 1e-14 * want_r
        assert abs(got_x - want_x) <= 1e-14 * want_x


def test_conjugate_pair():
    # r1 = r2 = 1/mu on the paraboloid: each radius is the first conjugate
    # point of the other along the chain (c = rho + 1/(mu^2 rho)), and the
    # turning sweep meets pi only at nu = 0, to third order, so the chain is
    # the one connector.
    p = make_paraboloid(1.0)
    assert [c.kind for c in TwoRadiusConnectors(p, 1.0, 1.0).connectors(math.pi)] == ["chain"]


def test_clairaut_angles_broadcasts_and_signs():
    p = make_paraboloid(1.0)
    nus = np.array([0.0, 0.2, -0.2])
    m_a = float(p.m(0.5))
    angle, length = clairaut_angles(p, 0.5, 1.5, nus, m_a * m_a - nus * nus, 1e-12)
    assert angle.shape == (3,) and angle[0] == 0.0 and angle[2] == -angle[1]
    assert length[0] == pytest.approx(1.5, abs=1e-12) and length[1] == length[2]
    # a scalar leg gives 0-d results; flat m1 = "1" is a scalar expression
    flat = make_custom("r", "1", "0", mu=0.04, r_max=20.0)
    angle, length = clairaut_angles(flat, 1.0, 2.0, 0.5, 0.75, 1e-12)
    assert angle.shape == () and float(angle) == pytest.approx(
        math.acos(0.5 / 3.0) - math.acos(0.5 / 1.0), abs=1e-13)
    assert float(length) == pytest.approx(math.sqrt(9.0 - 0.25) - math.sqrt(0.75), abs=1e-13)


def test_clairaut_angles_blocks_are_bit_identical(monkeypatch):
    # climbs at headings up to tangency, legs from a turning radius
    # (chi = pi / 2, disc = 0) and zero widths, over more legs than one block
    p = make_paraboloid(1.0)
    rng = np.random.default_rng(5)
    n = 3 * geodesics._LEG_BLOCK + 17
    ra = rng.uniform(0.2, 3.0, n)
    m_a = np.asarray(p.m(ra))
    chi = rng.uniform(0.0, 0.5 * math.pi, n)
    chi[::7] = 0.5 * math.pi - 10.0 ** -rng.uniform(2, 9, chi[::7].size)
    chi[::5] = 0.5 * math.pi
    width = rng.uniform(0.0, 2.0, n)
    width[::11] = 0.0
    legs = (ra, width, m_a * np.sin(chi), np.where(chi == 0.5 * math.pi, 0.0,
                                                    (m_a * np.cos(chi)) ** 2), 1e-10 / 3.0)
    one = clairaut_angles(p, *legs)
    assert np.all(one[1][width > 0.0] > 0.0)
    for block in (1, 64, n + 1):
        monkeypatch.setattr(geodesics, "_LEG_BLOCK", block)
        got = clairaut_angles(p, *legs)
        np.testing.assert_array_equal(got[0], one[0])
        np.testing.assert_array_equal(got[1], one[1])


@pytest.mark.parametrize("name", ["paraboloid-1", "paraboloid-0.5", "flat"])
def test_grouped_prefixes_match_each_leg_alone(name):
    # the climbs of a table from one lower radius at each heading: one group
    # of 64 tops, against each leg integrated as a group of one.  At tol
    # 1e-12: at the tables' 1e-10 / 3 the lone leg of width 10.78 at
    # tangency on the paraboloid mu = 1 settles 1.6e-13 from its value (its
    # prefix in the group, 1.3e-14 from it, by mpmath at 40 digits)
    p = PROFILES[name]()
    m_lo = float(p.m(1.0))
    nu, disc = m_lo * np.sin(_TABLE_PSI), (m_lo * np.cos(_TABLE_PSI)) ** 2
    widths = np.linspace(0.0, 15.0, 65)[1:]
    grouped = clairaut_angles(p, 1.0, widths[:, None], nu, disc, 1e-12)
    for i, w in enumerate(widths):
        alone = clairaut_angles(p, 1.0, w, nu, disc, 1e-12)
        np.testing.assert_allclose(grouped[0][i], alone[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(grouped[1][i], alone[1], rtol=0, atol=1e-13)


def test_grouped_legs_are_bit_identical_under_permutations_and_blocks(monkeypatch):
    # on the sphere: climbs below the equator, and legs from turning radii
    # beyond it run inward (sigma = -1); groups of up to 12 legs with shared
    # keys, repeated widths and zero widths, and lone legs
    p = PROFILES["sphere"]()
    rng = np.random.default_rng(11)
    keys = 60
    sigma = np.where(np.arange(keys) % 3 == 0, -1.0, 1.0)
    ra = np.where(sigma > 0.0, rng.uniform(0.2, 1.2, keys), rng.uniform(1.9, 2.8, keys))
    m_a = np.sin(ra)
    chi = np.where(np.arange(keys) % 4 == 1, 0.5 * math.pi, rng.uniform(0.0, 0.5 * math.pi, keys))
    nu = np.where(sigma > 0.0, m_a * np.sin(chi), m_a)
    disc = np.where((sigma > 0.0) & (chi < 0.5 * math.pi), (m_a * np.cos(chi)) ** 2, 0.0)
    group = np.repeat(np.arange(keys), rng.integers(1, 13, keys))
    room = np.where(sigma > 0.0, 1.5 - ra, ra - 1.65)[group]
    width = room * rng.choice([0.0, 0.25, 0.5, 1.0, *rng.uniform(0.0, 1.0, 8)], group.size)
    legs = (ra[group], width, nu[group], disc[group], 1e-10 / 3.0, sigma[group])
    one = clairaut_angles(p, *legs)
    assert np.all(one[1][width > 0.0] > 0.0) and np.all(one[1][width == 0.0] == 0.0)
    n = group.size
    for block, perm in [(1, rng.permutation(n)), (64, rng.permutation(n)),
                        (n + 1, np.arange(n)[::-1]), (geodesics._LEG_BLOCK, rng.permutation(n))]:
        monkeypatch.setattr(geodesics, "_LEG_BLOCK", block)
        got = clairaut_angles(p, *(v[perm] if np.ndim(v) else v for v in legs))
        np.testing.assert_array_equal(got[0], one[0][perm])
        np.testing.assert_array_equal(got[1], one[1][perm])


def test_lone_legs_skip_the_grouping_bit_for_bit(monkeypatch):
    # legs with distinct keys take clairaut_angles' path without the grouping
    # sorts; beside a pair that shares a key, the same legs go through the
    # grouping, each a group of one, to the same bits
    p = make_paraboloid(1.0)
    rng = np.random.default_rng(17)
    ra = rng.uniform(0.2, 3.0, 40)
    m_a = np.asarray(p.m(ra))
    chi = rng.uniform(0.0, 0.5 * math.pi, 40)
    chi[::5] = 0.5 * math.pi
    legs = [ra, rng.uniform(0.1, 2.0, 40), m_a * np.sin(chi),
            np.where(chi == 0.5 * math.pi, 0.0, (m_a * np.cos(chi)) ** 2)]
    calls, distinct = [], geodesics._distinct
    monkeypatch.setattr(geodesics, "_distinct", lambda *a: calls.append(1) or distinct(*a))
    lone = clairaut_angles(p, *legs, 1e-10 / 3.0)
    assert not calls
    shared = [np.append(v, v[0]) for v in legs]
    shared[1][-1] = 0.5 * shared[1][0]
    grouped = clairaut_angles(p, *shared, 1e-10 / 3.0)
    assert calls
    for got, want in zip(grouped, lone):
        np.testing.assert_array_equal(got[1:-1], want[1:])


def test_cut_locus_table_shares_its_climbs():
    # the cost of a cut_locus table in m' nodes, counted without timing: the
    # climbs from the shared lower radius are integrated once per heading
    # (609,890 nodes when each climb was integrated alone)
    p = make_paraboloid(1.0)
    nodes = []

    def m1(r):
        nodes.append(np.size(r))
        return p.m1(r)

    counted = make_custom(p.m, m1, p.m2, mu=p.mu, r_max=p.r_max)
    arc = cut_locus(p, SurfacePoint(1.0, 0.0))
    assert arc.r.size == 64
    TwoRadiusConnectors(counted, 1.0, arc.r, tol=1e-10)
    assert sum(nodes) <= 150_000


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-10, float("inf")])
def test_connectors_reject_bad_tol(tol):
    with pytest.raises(InvalidParameterError):
        TwoRadiusConnectors(make_paraboloid(1.0), 1.0, 2.0, tol=tol)


def test_connectors_over_an_array_of_radii_match_each_pair():
    # pairs below, at and above r1, and the table and connectors of each
    p = make_paraboloid(0.5)
    r2 = np.array([0.4, 1.0, 1.2, 1.5, 3.0, 6.0])
    family = TwoRadiusConnectors(p, 1.2, r2)
    assert family.r_lo.shape == family.xtol.shape == (6,)
    assert family.sweeps.shape == family.lengths.shape == (6, family.chis.size)
    for i, cands in enumerate(family.connectors(0.7 * math.pi)):
        one = TwoRadiusConnectors(p, 1.2, float(r2[i]))
        np.testing.assert_allclose(family.sweeps[i], one.sweeps, rtol=0, atol=1e-13)
        np.testing.assert_allclose(family.lengths[i], one.lengths, rtol=0, atol=1e-13)
        want = one.connectors(0.7 * math.pi)
        assert [c.kind for c in cands] == [c.kind for c in want]
        for c, w in zip(cands, want):
            assert c.length == pytest.approx(w.length, abs=1e-12)
            assert c.chi == pytest.approx(w.chi, abs=1e-10)


_WEAK = ("r / sqrt(r^2 + 1)", "(r^2 + 1)^(-3/2)", "-3*r*(r^2+1)^(-5/2)")


@pytest.mark.parametrize("surface,rho", [("mu1", 1.2), ("mu0.5", 1.8), ("weak", 1.0)])
def test_cut_locus_matches_per_sample_connectors(surface, rho):
    """The arc's distances against the shortest connector of each sample's
    own TwoRadiusConnectors(profile, rho, r); from rho = 1.2 at mu = 1 the
    first samples lie below rho, so the lower radii are mixed."""
    profile = {"mu1": lambda: make_paraboloid(1.0), "mu0.5": lambda: make_paraboloid(0.5),
               "weak": lambda: make_custom(*_WEAK, mu=1e-6, r_max=20.0)}[surface]()
    q = SurfacePoint(rho, 0.3)
    arc = cut_locus(profile, q)
    if surface == "mu1":
        assert arc.r[0] < rho < arc.r[-1]
    best = [min(TwoRadiusConnectors(profile, rho, float(r)).connectors(math.pi),
                key=lambda c: c.length) for r in arc.r]
    want = np.array([c.length for c in best])
    np.testing.assert_allclose(arc.dist, want, rtol=0, atol=2e-10)
    np.testing.assert_allclose(arc.theta, q.theta + math.pi + profile.mu * want,
                               rtol=0, atol=2e-10)
    assert arc.kind == [c.kind for c in best]


# cut_locus(dist) at the base points of tests/test_conjugate.py, recorded with
# the Gauss-Legendre tables and the Jacobi zero refined on the continuous
# extension; q = (1, 0), and both surfaces have the warp r / sqrt(r^2 + 1), so
# c = rho + 1 / rho = 2 on each (the first values, 1.0e-12 short of 2, were
# recorded with c from the Jacobi ODE; the quadrature gives 2, and the arc
# values hold to 1e-9)
RECORDED = {
    ("parab", 5.0, 13): [
        1.999999999999009, 2.2149602595707862, 2.3900200360822064,
        2.54961456712184, 2.70495996639235, 2.8616008084064037,
        3.022299298628382, 3.188343751732355, 3.360211037768795,
        3.5379274639621667, 3.7212744727374463, 3.909908729840235,
        4.103432715340061],
    ("parab", 3.0, 5): [
        1.999999999999009, 2.21496025957095, 2.3900200360824906,
        2.549614567122246, 2.704959966392887],
    ("parab", 3.5, 7): [
        1.999999999999009, 2.2149602595708693, 2.390020036082349,
        2.5496145671220427, 2.704959966392619, 2.8616008084067466,
        3.0222992986288064],
    ("weak", 5.0, 9): [
        1.999999999999009, 2.3054917290553307, 2.54961456712184,
        2.782900392892685, 3.022299298628382, 3.273540285230292,
        3.5379274639621667, 3.8149548612663873, 4.103432715340061],
}


@pytest.mark.parametrize("surface,s_max,n", list(RECORDED))
def test_cut_locus_matches_recorded(parab, surface, s_max, n):
    profile = parab if surface == "parab" else make_custom(*_WEAK, mu=1e-6, r_max=20.0)
    arc = cut_locus(profile, SurfacePoint(1.0, 0.0), s_export_max=s_max, n_samples=n)
    want = np.array(RECORDED[(surface, s_max, n)])
    assert abs(arc.c - 2.0) <= 1e-11   # the closed form rho + 1 / rho
    np.testing.assert_allclose(arc.dist, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(arc.theta, math.pi + profile.mu * want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("offset", [-4.5e-14, 0.0, 4.5e-14])
def test_F_query_on_the_twisted_chain_at_the_conjugate_point(offset):
    """At the conjugate point c = 2 of q = (1, 0.3) the turning family folds
    onto the chain, and the miss of the headings next to chi = pi is flat to
    rounding over 1e-8 to 1e-5 from it.  The chain's grid value, which
    misses its target by rounding only, is a root, and that noise passes for
    no turning connector."""
    p = make_paraboloid(1.0)
    q = SurfacePoint(1.0, 0.3)
    t = 2.0 + offset
    target = SurfacePoint(t - q.r, q.theta + math.pi + p.mu * t)
    cands = TwoRadiusConnectors(p, q.r, target.r).connectors(target.theta - q.theta, p.mu)
    assert [c.kind for c in cands] == ["chain"]
    assert cands[0].length == pytest.approx(t, abs=1e-15)


def test_cut_points_have_a_mirror_pair_of_F_connectors():
    """Under the wind, the connectors of an interior point of the navigation
    cut locus begin with the twisted mirror pair of h-minimizers: opposite
    orientations, sweeps of +-pi, both of the arc's length T; at the
    conjugate point where the arc starts the chain is the one connector."""
    p = make_paraboloid(1.0)
    q = SurfacePoint(1.0, 0.3)
    arc = cut_locus(p, q, s_export_max=5.0, n_samples=5)
    for i in range(5):
        y = arc.point_at_index(i)
        cands = sorted(TwoRadiusConnectors(p, q.r, y.r).connectors(y.theta - q.theta, p.mu),
                       key=lambda c: c.length)
        if i == 0:
            assert [c.kind for c in cands] == ["chain"]
            continue
        a, b = cands[:2]
        assert sorted([a.swept, b.swept]) == pytest.approx([-math.pi, math.pi], abs=1e-9)
        assert a.nu == pytest.approx(-b.nu, abs=1e-12)
        assert a.length == pytest.approx(arc.dist[i], abs=1e-9)
        assert b.length == pytest.approx(arc.dist[i], abs=1e-9)
        assert all(c.length > arc.dist[i] + 0.1 for c in cands[2:])


@pytest.mark.parametrize("dtheta,mu", [(float("nan"), 0.0), (float("inf"), 1.0), (1.0, float("nan"))])
def test_connectors_reject_bad_queries(dtheta, mu):
    with pytest.raises(InvalidParameterError):
        TwoRadiusConnectors(make_paraboloid(1.0), 1.0, 2.0).connectors(dtheta, mu)


def _bisected(table, pair, chi, sign, target, mu, xtol):
    """Roots of sign * sweep + mu * length - target for the pairs pair of
    table, by bisection on its sweep_length legs to 1e-15 in chi: each
    bracket starts 2 xtol on either side of chi and widens eightfold until
    its ends differ in sign."""
    def miss(x):
        sweep, length = table._at(pair, x)
        return sign * sweep + mu * length - target

    width = np.full(chi.shape, 2.0 * xtol)
    for _ in range(8):
        lo, hi = np.maximum(chi - width, 0.0), np.minimum(chi + width, math.pi)
        f_lo = miss(lo)
        bracketed = np.sign(f_lo) != np.sign(miss(hi))
        if bracketed.all():
            break
        width = np.where(bracketed, width, 8.0 * width)
    assert bracketed.all(), chi[~bracketed]
    while np.max(hi - lo) > 1e-15:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        f_mid = miss(mid)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo, hi = np.where(left, mid, lo), np.where(left, f_mid, f_lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _check_against_bisection(table, cands, dtheta, mu):
    """Every connector of one query (cands[p] for the pair p) lies within
    its xtol, plus the ulps of its bracket, of a bisected root of its own
    orientation and turn, and its length within tol of the length there;
    the meridian and the chain are grid values and are left out."""
    rows = [(p, c) for p, cs in enumerate(cands) for c in cs if 0.0 < c.chi < math.pi]
    pair = np.array([p for p, _ in rows])
    chi = np.array([c.chi for _, c in rows])
    sign = np.array([math.copysign(1.0, c.swept) for _, c in rows])
    twisted = np.array([c.swept + mu * c.length for _, c in rows])
    target = dtheta + 2.0 * math.pi * np.round((twisted - dtheta) / (2.0 * math.pi))
    xtol = np.ravel(table.xtol)[pair]
    root = _bisected(table, pair, chi, sign, target, mu, xtol)
    assert np.all(np.abs(chi - root) <= xtol + 4.0 * np.finfo(float).eps * math.pi + 1e-15)
    length = table._at(pair, root)[1]
    assert np.all(np.abs(np.array([c.length for _, c in rows]) - length) <= table.tol)


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (1.0, 1.2), (0.5, 1.8), (0.5, 2.3)])
def test_cut_locus_connectors_meet_bisection(mu, rho):
    """The connectors of cut_locus' one query, at the base points of
    tests/test_conjugate.py, against bisection on the same legs."""
    p = make_paraboloid(mu)
    arc = cut_locus(p, SurfacePoint(rho, 0.0))
    table = TwoRadiusConnectors(p, rho, arc.r, tol=1e-10)
    cands = table.connectors(math.pi)
    assert np.array_equal(arc.dist, [min(c.length for c in cs) for cs in cands])
    _check_against_bisection(table, cands, math.pi, 0.0)


def test_wind_connectors_meet_bisection_in_few_iterations():
    """Forty seeded pairs on the paraboloid under its wind, as distance_F
    queries them at tol 1e-9: every connector against bisection, and a
    median of at most three refinement iterations per query."""
    p = make_paraboloid(1.0)
    rng = np.random.default_rng(2015)
    iterations = []
    for r1, r2, dtheta in zip(*rng.uniform([0.3, 0.3, -math.pi], [3.0, 3.0, math.pi], (40, 3)).T):
        table = TwoRadiusConnectors(p, float(r1), float(r2), tol=1e-9)
        cands = table.connectors(float(dtheta), p.mu)
        iterations.append(table.iterations)
        _check_against_bisection(table, [cands], float(dtheta), p.mu)
    assert np.median(iterations) <= 3


@pytest.mark.parametrize("r1,r2", [(1.0, 25.0), (20.5, 1.0), (1.0, [2.0, 20.0 + 1e-9, 3.0])])
def test_connectors_reject_radii_past_r_max(r1, r2):
    # r_max = 20: the tables check every radius, as distance_F does
    with pytest.raises(InvalidParameterError, match="r_max"):
        TwoRadiusConnectors(make_paraboloid(1.0), r1, np.array(r2) if isinstance(r2, list) else r2)
