import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from randers import (
    InvalidParameterError,
    SearchHorizonError,
    SurfacePoint,
    Tangent,
    eval_F,
    gauss_curvature,
    make_custom,
    make_paraboloid,
    measure,
    pullback_report,
    wrap_angle,
)
from randers.conjugate import cut_locus, first_conjugate
from randers.geodesics import GeodesicState, integrate_F, integrate_h, twist
from randers.measure import (
    ClairautReport,
    clairaut_verify,
    distance_F,
    distance_F_report,
    f_length,
    f_length_parallel,
    h_distance,
    h_length_parallel,
    meeting_point,
    momentum_p2,
    parallel_loop_report,
    _h_distance_shooting,
)


def _launch(profile, r0, phi, theta0=0.0):
    m0 = float(profile.m(r0))
    return GeodesicState(r0, theta0, math.cos(phi), math.sin(phi) / m0)


# ---------------------------------------------------------------- lengths


def test_f_length_of_unit_path(parab60):
    h_path = integrate_h(parab60, _launch(parab60, 1.5, 0.8), 10.0, tol=1e-11)
    P = twist(h_path, parab60.mu)
    assert f_length(parab60, P) == pytest.approx(10.0, rel=1e-9)


@given(r0=st.floats(0.3, 3.0), phi=st.floats(0.15, math.pi - 0.15),
       side=st.sampled_from([1.0, -1.0]), theta0=st.floats(0.0, 2.0 * math.pi),
       length=st.floats(10.0, 30.0))
@settings(max_examples=30, deadline=None)
def test_f_length_of_twisted_geodesics_is_their_parameter_length(
        parab60, r0, phi, side, theta0, length):
    # an F-geodesic is F-unit speed, so its F-length is its parameter length
    q = SurfacePoint(r0, theta0)
    y = Tangent(math.cos(side * phi), math.sin(side * phi) / float(parab60.m(r0)))
    F0 = eval_F(parab60, q, y)
    path = integrate_F(parab60, q, Tangent(y.y1 / F0, y.y2 / F0), length, tol=1e-12)
    assert path.exit_reason == "completed"
    assert f_length(parab60, path) == pytest.approx(length, rel=1e-9)


def test_f_length_at_tol_1e_11(parab60):
    # a geodesic-embed launch: at tol 1e-11 its F-length, a quadrature over
    # the dense output between the steps, is its parameter length to
    # rel 1e-9 only if that output is as accurate as the steps
    r0, phi, length = 1.3523388024430973, -0.899185651230015, 11.078481101373256
    q = SurfacePoint(r0, 4.055787873742389)
    y = Tangent(math.cos(phi), math.sin(phi) / float(parab60.m(r0)))
    F0 = eval_F(parab60, q, y)
    path = integrate_F(parab60, q, Tangent(y.y1 / F0, y.y2 / F0), length, tol=1e-11)
    assert f_length(parab60, path) == pytest.approx(length, rel=1e-9)


def test_f_length_of_meridian_chain(parab):
    # h-unit meridian chain measured in F: F(+-1, 0) = sqrt(a11) = 1/sqrt(lam)
    path = integrate_h(parab, GeodesicState(1.0, 0.0, -1.0, 0.0), 2.0)
    from scipy.integrate import quad
    expected = 2.0 * quad(
        lambda r: 1.0 / math.sqrt(1.0 - float(parab.m(r)) ** 2), 0.0, 1.0,
        epsabs=1e-12)[0]
    assert f_length(parab, path) == pytest.approx(expected, rel=1e-8)


def test_parallel_lengths_closed_forms(parab):
    for r0 in (0.4, 1.0, 2.5):
        m0 = float(parab.m(r0))
        mu = parab.mu
        plus = f_length_parallel(parab, r0, 2.0 * math.pi)
        minus = f_length_parallel(parab, r0, -2.0 * math.pi)
        assert plus == pytest.approx(2.0 * math.pi * m0 / (1.0 + mu * m0),
                                     rel=1e-11)
        assert minus == pytest.approx(2.0 * math.pi * m0 / (1.0 - mu * m0),
                                      rel=1e-11)
        assert plus < h_length_parallel(parab, r0) < minus


# ------------------------------------------------------ meeting point


def test_meeting_point_spot(parab):
    mp = meeting_point(parab, 1.0 / math.sqrt(3.0))  # m0 = 1/2
    assert mp.s1 == pytest.approx(1.5 * math.pi, abs=1e-14)
    assert mp.s2 == pytest.approx(0.5 * math.pi, abs=1e-14)
    assert mp.common_length == pytest.approx(0.5 * math.pi, abs=1e-14)
    assert mp.max_deviation <= 1e-10


def test_meeting_point_random(parab, rng):
    for _ in range(10):
        r0 = float(rng.uniform(0.2, 5.0))
        assert meeting_point(parab, r0).max_deviation <= 1e-10


def test_meeting_point_weak_wind_limit():
    # with a weak wind the travellers split nearly symmetrically and the
    # common length scales like pi * mu * m0
    weak = make_custom("r / sqrt(r^2 + 1)", "(r^2 + 1)^(-3/2)",
                       "-3*r*(r^2+1)^(-5/2)", mu=1e-6, r_max=20.0)
    mp = meeting_point(weak, 1.0 / math.sqrt(3.0))
    assert mp.s1 == pytest.approx(math.pi, abs=1e-5)
    assert mp.s2 == pytest.approx(math.pi, abs=1e-5)
    assert mp.common_length_numeric / weak.mu == pytest.approx(
        math.pi * 0.5, rel=1e-6)


def test_meeting_point_strong_wind_limit(parab):
    # far out mu*m -> 1 and the against-wind traveller barely moves
    mp = meeting_point(parab, 20.0)
    assert mp.s2 < 0.005
    assert mp.s2 == pytest.approx(math.pi * (1.0 - float(parab.m(20.0))),
                                  rel=1e-10)


def test_parallel_loop_report(parab):
    rep = parallel_loop_report(parab, 1.0 / math.sqrt(3.0))
    m0, mu = 0.5, 1.0
    assert rep["flow_loop_length"] == pytest.approx(
        2.0 * math.pi * mu * m0 / (1.0 + mu * m0), rel=1e-11)
    assert rep["geometric_full_turn_length"] == pytest.approx(
        2.0 * math.pi * m0 / (1.0 + mu * m0), rel=1e-11)
    assert rep["half_turn_constant"] == pytest.approx(
        math.pi * m0 / (1.0 + mu * m0), rel=1e-12)
    assert rep["ratio_flow_over_constant"] == pytest.approx(2.0 * mu, rel=1e-10)
    assert rep["consistent"] is False


# ------------------------------------------------------------- momentum


def test_momentum_conservation(parab60):
    r0, nu = 2.0, 0.3
    m0 = float(parab60.m(r0))
    sphi = nu / m0
    st = GeodesicState(r0, 0.0, math.sqrt(1.0 - sphi**2), sphi / m0)
    P = twist(integrate_h(parab60, st, 30.0, tol=1e-11), parab60.mu)
    expected = nu / (1.0 + parab60.mu * nu)
    assert expected == pytest.approx(0.3 / 1.3, rel=1e-12)
    worst = max(abs(momentum_p2(parab60, GeodesicState(*row)) - expected)
                for row in P.states)
    assert worst <= 1e-8


def test_momentum_twisted_meridian_vanishes(parab):
    base = integrate_h(parab, GeodesicState(0.3, 0.0, 1.0, 0.0), 2.0)
    P = twist(base, parab.mu)
    for row in P.states[1:]:
        assert abs(momentum_p2(parab, GeodesicState(*row))) <= 1e-12


def test_momentum_riemannian_limit():
    tiny = make_paraboloid(1e-9)
    st = _launch(tiny, 2.0, 0.4)
    nu = float(tiny.m(2.0)) ** 2 * st.dtheta
    P = twist(integrate_h(tiny, st, 1.0), tiny.mu)
    p2 = momentum_p2(tiny, GeodesicState(*P.states[0]))
    assert p2 == pytest.approx(nu, rel=1e-6)


# ------------------------------------------------------- clairaut report


def test_clairaut_verify_generic(parab60):
    st = _launch(parab60, 2.0, 0.9)
    P = twist(integrate_h(parab60, st, 50.0, tol=1e-11), parab60.mu)
    rep = clairaut_verify(parab60, P)
    assert isinstance(rep, ClairautReport)
    assert rep.max_h_residual <= 1e-7
    assert rep.max_F1_residual <= 1e-7
    assert rep.max_F2_residual <= 1e-7
    assert rep.max_momentum_residual <= 1e-8
    d = rep.to_dict()
    assert set(d) == {"nu", "max_h_residual", "max_F1_residual",
                      "max_F2_residual", "max_momentum_residual"}


def test_clairaut_verify_parallel_identities(bump):
    r0 = math.sqrt(2.0)
    m0 = float(bump.m(r0))
    base = integrate_h(bump, GeodesicState(r0, 0.0, 0.0, 1.0 / m0), 5.0,
                       tol=1e-11)
    rep = clairaut_verify(bump, twist(base, bump.mu))
    assert rep.max_F1_residual <= 1e-9
    assert rep.max_F2_residual <= 1e-9


def test_pairing_inner_product_invariant(parab60):
    # h(gamma', P') = 1 + mu nu along corresponding pairs
    st = _launch(parab60, 1.5, 0.7)
    h_path = integrate_h(parab60, st, 30.0, tol=1e-11)
    P = twist(h_path, parab60.mu)
    mu, nu = parab60.mu, h_path.nu
    worst = 0.0
    for rh, rf in zip(h_path.states, P.states):
        m2 = float(parab60.m(rh[0])) ** 2
        val = rh[2] * rf[2] + m2 * rh[3] * rf[3]
        worst = max(worst, abs(val - (1.0 + mu * nu)))
    assert worst <= 1e-8


def test_clairaut_verify_requires_preimage(parab):
    h_path = integrate_h(parab, _launch(parab, 1.0, 0.5), 1.0)
    with pytest.raises(Exception):
        clairaut_verify(parab, h_path)


# ------------------------------------------------------------ distances


def test_h_distance_flat_oracle(flat, rng):
    for _ in range(25):
        r1, r2 = rng.uniform(0.3, 8.0, 2)
        dth = float(rng.uniform(-math.pi, math.pi))
        chord = math.sqrt(r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(dth))
        d = h_distance(flat, SurfacePoint(float(r1), 0.0),
                       SurfacePoint(float(r2), dth))
        assert d == pytest.approx(chord, abs=1e-9)


def test_h_distance_sphere_oracle(sphere, rng):
    for _ in range(20):
        r1, r2 = rng.uniform(0.2, 1.2, 2)
        dth = float(rng.uniform(-math.pi, math.pi))
        exact = math.acos(math.cos(r1) * math.cos(r2)
                          + math.sin(r1) * math.sin(r2) * math.cos(dth))
        d = h_distance(sphere, SurfacePoint(float(r1), 0.0),
                       SurfacePoint(float(r2), dth))
        assert d == pytest.approx(exact, abs=1e-9)


def test_h_distance_sphere_up_to_the_equator(sphere, monkeypatch):
    # m' = cos r > 0 holds on [0, 1.5], which is all the connectors need;
    # the old check up to 1.05 * 1.5 > pi/2 sent this pair to shooting
    def no_shooting(*args, **kwargs):
        raise AssertionError("h_distance fell back to shooting")

    monkeypatch.setattr(measure, "_h_distance_shooting", no_shooting)
    r1, r2 = 1.5, 0.3
    for k in range(1, 25):
        delta = k * math.pi / 24.0
        # haversine form of the spherical law of cosines
        hav = (math.sin(0.5 * (r1 - r2)) ** 2
               + math.sin(r1) * math.sin(r2) * math.sin(0.5 * delta) ** 2)
        exact = 2.0 * math.asin(math.sqrt(hav))
        d = h_distance(sphere, SurfacePoint(r1, 0.3), SurfacePoint(r2, 0.3 + delta))
        assert d == pytest.approx(exact, abs=1e-10)


def test_h_distance_sphere_past_the_equator(sphere, monkeypatch):
    # m' = cos r < 0 past pi/2, so the connectors do not apply and shooting
    # answers: its fan of level_crossings_batch at tol 1e-9, then brentq
    real = measure._h_distance_shooting
    answered = []

    def spy(*args, **kwargs):
        answered.append(real(*args, **kwargs))
        return answered[-1]

    monkeypatch.setattr(measure, "_h_distance_shooting", spy)
    pairs = [((2.0, 0.0), (1.8, 1.0)), ((1.7, 0.4), (0.6, 2.5)), ((2.3, 0.2), (1.9, -1.9))]
    for (r1, t1), (r2, t2) in pairs:
        hav = (math.sin(0.5 * (r1 - r2)) ** 2
               + math.sin(r1) * math.sin(r2) * math.sin(0.5 * (t2 - t1)) ** 2)
        d = h_distance(sphere, SurfacePoint(r1, t1), SurfacePoint(r2, t2))
        assert d == answered[-1]
        assert d == pytest.approx(2.0 * math.asin(math.sqrt(hav)), abs=1e-9)
    assert len(answered) == len(pairs)


@pytest.mark.parametrize("r1,r2,dth", [(1.7, 0.3, math.pi - 0.05), (1.9, 0.8, math.pi - 0.01),
                                       (1.65, 1.2, math.pi - 0.002)])
def test_h_distance_sphere_minimizer_launched_near_the_scan_end(sphere, r1, r2, dth):
    # the minimizers of these pairs leave q1 at a heading in
    # [pi - pi/180, pi] or its mirror, the bracket that closes the circle
    for sign in (1.0, -1.0):
        d = h_distance(sphere, SurfacePoint(r1, 0.0), SurfacePoint(r2, sign * dth))
        assert d == pytest.approx(_sphere_arc(r1, r2, sign * dth), abs=1e-9)


def test_h_distance_longer_than_the_through_vertex_bound_raises(sphere):
    # the great circle from (1.5, 0.3) to (2.4, 3.2) leaves the cap
    # r <= r_max = 2.8, so the fan's shortest hit, 3.928, is a longer
    # geodesic that stays inside; r1 + r2 = 3.9 shows it is no distance
    with pytest.raises(SearchHorizonError):
        h_distance(sphere, SurfacePoint(1.5, 0.3), SurfacePoint(2.4, 3.2))


def test_h_distance_special_cases(parab):
    assert h_distance(parab, SurfacePoint(0.0, 0.0), SurfacePoint(2.0, 1.0)) == 2.0
    assert h_distance(parab, SurfacePoint(1.5, 0.7), SurfacePoint(1.5, 0.7)) == 0.0
    # same meridian: radial difference
    assert h_distance(parab, SurfacePoint(1.0, 0.5), SurfacePoint(2.5, 0.5)) \
        == pytest.approx(1.5)
    # symmetry of the background distance
    a, b = SurfacePoint(1.0, 0.0), SurfacePoint(2.0, 2.0)
    assert h_distance(parab, a, b) == pytest.approx(h_distance(parab, b, a),
                                                    abs=1e-12)


def test_h_distance_shooting_fallback_agrees(parab):
    a, b = SurfacePoint(1.0, 0.0), SurfacePoint(2.0, 1.4)
    quadrature_value = h_distance(parab, a, b)
    shooting_value = _h_distance_shooting(parab, a, b)
    assert shooting_value == pytest.approx(quadrature_value, abs=1e-6)


def test_distance_F_twisted_meridian(parab):
    base = integrate_h(parab, GeodesicState(1.0, 0.0, 1.0, 0.0), 5.0)
    P = twist(base, parab.mu)
    for L in (1.0, 3.0):
        st = P.state_at(L)
        d = distance_F(parab, SurfacePoint(1.0, 0.0),
                       SurfacePoint(st.r, st.theta), tol=1e-9)
        assert d == pytest.approx(L, abs=2e-9)


def test_distance_F_vertex_cases(parab):
    assert distance_F(parab, SurfacePoint(0.0, 0.0), SurfacePoint(3.0, 2.0)) == 3.0
    assert distance_F(parab, SurfacePoint(3.0, 2.0), SurfacePoint(0.0, 0.0)) \
        == pytest.approx(3.0, abs=1e-9)


def test_distance_F_asymmetry_on_parallel(parab):
    q1, q2 = SurfacePoint(1.0, 0.0), SurfacePoint(1.0, 1.0)
    down = distance_F(parab, q1, q2)
    up = distance_F(parab, q2, q1)
    assert down < up
    # downwind cannot beat the parallel arc; upwind cannot beat h-geodesics
    assert down <= f_length_parallel(parab, 1.0, 1.0) + 1e-9
    assert up >= h_distance(parab, q1, q2) - 1e-9


def test_distance_F_report(parab):
    # (2, 1) is the end of the twisted outward meridian of length 1 from
    # (1, 0), a connector at a heading of the table
    rep = distance_F_report(parab, SurfacePoint(1.0, 0.0),
                            SurfacePoint(2.0, 1.0), tol=1e-9)
    assert rep.converged and 0 <= rep.iterations <= 100
    assert rep.distance == pytest.approx(1.0, abs=1e-9)
    d = rep.to_dict()
    assert d["q1"] == {"r": 1.0, "theta": 0.0}
    assert d["distance"] == rep.distance
    assert d["bracket"] == [0.0, 3.0]
    # off the table's headings the connector is refined in chi
    rep = distance_F_report(parab, SurfacePoint(1.0, 0.0),
                            SurfacePoint(2.0, 2.0), tol=1e-9)
    assert rep.converged and 0 < rep.iterations <= 100


def test_distance_F_report_root_at_the_bound(parab):
    # the twisted chain through the vertex, of length exactly r1 + r2, ends
    # at q2: its value at the table's heading pi is 0
    rep = distance_F_report(parab, SurfacePoint(0.5, 0.0),
                            SurfacePoint(0.7, math.pi + 1.2), tol=1e-9)
    assert rep.distance == 1.2
    assert rep.converged
    assert rep.bracket == (0.0, 1.2)


@pytest.mark.parametrize("name", ["parab", "flat", "sphere", "bump"])
def test_increasing_warp_check_matches_pointwise(name, request):
    # the connectors' gate, Profile.increases_to, against m' > 0 at 127
    # points of (0, min(r_hi, r_max)]: a radius past r_max is checked on the
    # whole domain
    profile = request.getfixturevalue(name)
    for r_hi in (0.5, 1.0, 1.7, 2.5, 30.0, np.nextafter(profile.r_max, np.inf)):
        rr = np.linspace(0.0, min(r_hi, profile.r_max), 128)[1:]
        pointwise = all(float(profile.m1(r)) > 0.0 for r in rr)
        assert profile.increases_to(r_hi) is pointwise
    if name == "bump":
        assert not profile.increases_to(1.8)


def test_distance_F_quasi_metric(parab, rng):
    # directed triangle inequality with 2*tol slack over random triples
    tol = 1e-7
    pts = [SurfacePoint(float(rng.uniform(0.5, 3.0)),
                        float(rng.uniform(0.0, 2.0 * math.pi)))
           for _ in range(12)]
    # distance cache over ordered pairs keeps this at 24 solves for 50 triples
    dist = {}

    def d(i, j):
        if (i, j) not in dist:
            dist[(i, j)] = distance_F(parab, pts[i], pts[j], tol=tol)
        return dist[(i, j)]

    triples = [tuple(rng.choice(len(pts), size=3, replace=False))
               for _ in range(50)]
    for i, j, k in triples:
        dij, djk, dik = d(i, j), d(j, k), d(i, k)
        assert dij > 0.0 and djk > 0.0 and dik > 0.0
        assert dik <= dij + djk + 2.0 * tol
    for i in range(6):
        assert distance_F(parab, pts[i], pts[i]) == 0.0


# -------------------------------------------------- connector coverage


def _flat_chord(r1, r2, dth):
    """Distance on the plane m(r) = r, by the chord law."""
    h = math.sin(0.5 * dth)
    return math.sqrt((r1 - r2) ** 2 + 4.0 * r1 * r2 * h * h)


def _sphere_arc(r1, r2, dth):
    """Distance on the sphere m(r) = sin r, by the haversine form of the
    spherical law of cosines."""
    hav = math.sin(0.5 * (r1 - r2)) ** 2 + math.sin(r1) * math.sin(r2) * math.sin(0.5 * dth) ** 2
    return 2.0 * math.asin(math.sqrt(hav))


def _navigation_distance(q1, q2, mu, d_h=_flat_chord):
    """d_F under the wind mu d/dtheta over the background distance
    d_h(r1, r2, dtheta): the smallest T with d_h(q1, rot(-mu T) q2) = T."""
    def miss(t):
        return d_h(q1.r, q2.r, q2.theta - mu * t - q1.theta) - t
    return brentq(miss, 0.0, q1.r + q2.r, xtol=1e-14, rtol=4.0 * 2.0**-52)


def _no_shooting(*args, **kwargs):
    raise AssertionError("distance_F fell back to shooting")


def _pairs(rng, n, radii):
    r1, r2 = rng.uniform(*radii, (2, n))
    t1, t2 = rng.uniform(-math.pi, math.pi, (2, n))
    return [(SurfacePoint(float(a), float(b)), SurfacePoint(float(c), float(d)))
            for a, b, c, d in zip(r1, t1, r2, t2)]


def test_distance_F_flat_matches_the_chord_law(flat, rng, monkeypatch):
    monkeypatch.setattr(measure, "_h_distance_shooting", _no_shooting)
    for q1, q2 in _pairs(rng, 20, (0.3, 8.0)):
        d = distance_F(flat, q1, q2, tol=1e-11)
        assert d == pytest.approx(_navigation_distance(q1, q2, flat.mu), abs=1e-10)


def test_distance_F_sphere_cap_matches_the_law_of_cosines(sphere, rng, monkeypatch):
    # below the equator m' = cos r > 0: one query of the connector table
    monkeypatch.setattr(measure, "_h_distance_shooting", _no_shooting)
    for q1, q2 in _pairs(rng, 12, (0.2, 1.5)):
        d = distance_F(sphere, q1, q2, tol=1e-11)
        assert d == pytest.approx(_navigation_distance(q1, q2, sphere.mu, _sphere_arc),
                                  abs=1e-10)


def _hyperbolic_arc(r1, r2, dth):
    """Distance on the hyperbolic plane m(r) = sinh r, by the half-angle form
    of the hyperbolic law of cosines: sinh^2(d/2) = sinh^2((r1 - r2)/2)
    + sinh r1 sinh r2 sin^2(dth/2)."""
    hav = (math.sinh(0.5 * (r1 - r2)) ** 2
           + math.sinh(r1) * math.sinh(r2) * math.sin(0.5 * dth) ** 2)
    return 2.0 * math.asinh(math.sqrt(hav))


@pytest.fixture(scope="module")
def hyperbolic():
    """The hyperbolic plane, K = -1, its warp given as numpy callables; mu
    sinh(r_max) = 0.73 < 1.  The disc r <= 2 is geodesically convex, and no
    geodesic has a conjugate point."""
    return make_custom(np.sinh, np.cosh, np.sinh, mu=0.2, r_max=2.0)


def test_h_distance_hyperbolic_matches_the_law_of_cosines(hyperbolic, rng, monkeypatch):
    # m' = cosh r > 0: one query of the connector table
    monkeypatch.setattr(measure, "_h_distance_shooting", _no_shooting)
    for q1, q2 in _pairs(rng, 40, (0.1, 2.0)):
        d = h_distance(hyperbolic, q1, q2)
        assert d == pytest.approx(_hyperbolic_arc(q1.r, q2.r, q2.theta - q1.theta), abs=1e-10)


def test_distance_F_hyperbolic_matches_the_fixed_point(hyperbolic, rng, monkeypatch):
    monkeypatch.setattr(measure, "_h_distance_shooting", _no_shooting)
    for q1, q2 in _pairs(rng, 40, (0.1, 2.0)):
        d = distance_F(hyperbolic, q1, q2)
        assert d == pytest.approx(
            _navigation_distance(q1, q2, hyperbolic.mu, _hyperbolic_arc), abs=1e-10)


@pytest.mark.parametrize("rho", [0.3, 1.0, 1.9])
def test_hyperbolic_plane_has_no_conjugate_point(hyperbolic, rho):
    q = SurfacePoint(rho, 0.4)
    with pytest.raises(SearchHorizonError):
        first_conjugate(hyperbolic, q)
    with pytest.raises(SearchHorizonError):
        cut_locus(hyperbolic, q)


def test_distance_F_sphere_past_the_equator(sphere, monkeypatch):
    # m' = cos r < 0 past pi/2: one fan of twisted geodesics answers; the
    # parent's root search in T raised on the second pair, rotating q2 to
    # where no geodesic inside r_max reaches
    real, answered = measure._h_distance_shooting, []

    def spy(*args, **kwargs):
        answered.append(real(*args, **kwargs))
        return answered[-1]

    monkeypatch.setattr(measure, "_h_distance_shooting", spy)
    for q1, q2 in [(SurfacePoint(2.0, 0.0), SurfacePoint(1.8, 1.0)),
                   (SurfacePoint(2.3, 0.2), SurfacePoint(1.9, -1.9))]:
        d = distance_F(sphere, q1, q2)
        assert d == answered[-1]
        assert d == pytest.approx(_navigation_distance(q1, q2, sphere.mu, _sphere_arc),
                                  abs=1e-9)


def test_distance_F_sphere_grazing_pair_is_never_wrong(sphere):
    # the minimizer from (1.7, 0.4) to (0.6, 2.5) turns at r ~ 0.599, just
    # inside the target radius; a fan that misses its two grazing crossings
    # must raise rather than answer with a longer geodesic
    q1, q2 = SurfacePoint(1.7, 0.4), SurfacePoint(0.6, 2.5)
    exact = _navigation_distance(q1, q2, sphere.mu, _sphere_arc)
    assert exact == pytest.approx(1.775553320823, abs=1e-11)
    try:
        d = distance_F(sphere, q1, q2)
    except SearchHorizonError:
        return
    assert d == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("q1,q2,pinned", [
    (SurfacePoint(2.0, 0.0), SurfacePoint(2.0, 1e-7), 7.6937862587340792e-08),
    (SurfacePoint(2.0, 1e-7), SurfacePoint(2.0, 0.0), 1.1114196284870470e-07)],
    ids=["along-the-wind", "against-the-wind"])
def test_distance_F_of_a_near_pair_past_the_equator(sphere, q1, q2, pinned):
    # m' = cos r < 0 at r = 2, and the fan of rays misses a segment this
    # short; the near-field rule answers, along the wind and against it.
    # Oracle: the fixed point of T = d_h(q1, rot(-mu T) q2), a contraction
    # by about mu m = 0.18
    t = 0.0
    for _ in range(60):
        t = _sphere_arc(q1.r, q2.r, q2.theta - sphere.mu * t - q1.theta)
    rep = distance_F_report(sphere, q1, q2)
    assert rep.distance == pytest.approx(t, rel=1e-13)
    assert rep.distance == pytest.approx(pinned, rel=1e-13)
    assert rep.iterations == 0


@pytest.mark.parametrize("gap", [1e-9, 1e-8, 1e-7, 1e-6])
def test_h_distance_near_field_rule(flat, parab, gap):
    # pairs within h chart distance 1e-5 take the chart distance at the
    # midpoint radius, with no connector query (0 iterations): on the plane
    # it is the chord, on the paraboloid the shortest connector
    q1 = SurfacePoint(1.1, 0.4)
    for heading in (0.3, 1.9, 4.0):
        dr, dt = gap * math.cos(heading), gap * math.sin(heading)
        q2 = SurfacePoint(q1.r + dr, q1.theta + dt / q1.r)
        d, iterations = measure._distance(flat, q1, q2, 0.0, 1e-10)
        dth = q2.theta - q1.theta
        chord = math.hypot(q2.r - q1.r, 2.0 * math.sqrt(q1.r * q2.r) * math.sin(0.5 * dth))
        assert d == pytest.approx(chord, rel=1e-13)
        assert iterations == 0
        q2 = SurfacePoint(q1.r + dr, q1.theta + dt / float(parab.m(q1.r)))
        d, iterations = measure._distance(parab, q1, q2, 0.0, 1e-10)
        table = measure.TwoRadiusConnectors(parab, q1.r, q2.r, tol=1e-12)
        shortest = min(c.length for c in table.connectors(q2.theta - q1.theta))
        assert d == pytest.approx(shortest, rel=1e-13)
        assert iterations == 0


def test_near_pair_across_the_vertex_is_no_chart_step(flat):
    # (1e-6, 0) and (2e-6, pi) are 3e-6 apart through the vertex, but their
    # polar chart step (1e-6, pi) reads 4.8e-6: the chart bends by dtheta,
    # so the near-field rule does not take them
    q1, q2 = SurfacePoint(1e-6, 0.0), SurfacePoint(2e-6, math.pi)
    assert h_distance(flat, q1, q2) == pytest.approx(3e-6, rel=1e-12)
    assert distance_F(flat, q1, q2) == pytest.approx(
        _navigation_distance(q1, q2, flat.mu), rel=1e-8)


@pytest.mark.parametrize("call", [
    lambda p: measure.meeting_point(p, 0.0),
    lambda p: gauss_curvature(p, math.nan),
    lambda p: gauss_curvature(p, np.array([1.0, math.nan])),
    lambda p: f_length_parallel(p, 1.0, math.nan),
    lambda p: pullback_report(p, r_range=(5.0, 0.1)),
    lambda p: wrap_angle(math.inf),
], ids=["meeting-point-at-the-vertex", "curvature-nan", "curvature-nan-array",
        "parallel-nan-extent", "pullback-reversed-range", "wrap-inf"])
def test_bad_input_raises_invalid_parameter(parab, call):
    # each once escaped as a numpy or math traceback, or as a NaN
    with pytest.raises(InvalidParameterError):
        call(parab)


def test_distance_of_a_flat_pair_in_the_connector_gap(flat):
    # nearly equal radii whose distance_F root search queried sweeps that
    # no connector reached while the Clairaut constant was capped
    q1 = SurfacePoint(2.3618736928659563, 0.0)
    q2 = SurfacePoint(2.358282187899393, 0.2442393082657346)
    d = distance_F_report(flat, q1, q2, tol=1e-9).distance
    assert d == pytest.approx(_navigation_distance(q1, q2, flat.mu), abs=2e-9)


# paraboloid pairs (r1, r2, theta2 - theta1): generic, nearly equal radii
# (relative gaps 2e-2 down to 1e-12), equal radii and nearly antipodal
PARAB_PAIRS = [(0.4, 2.7, 1.1), (2.2, 0.9, -2.5), (1.3, 1.31, 0.4),
               (2.9, 2.9 * (1.0 - 2e-2), -0.07), (1.7, 1.7 * (1.0 + 1e-6), 2.9),
               (1.3, 1.3 + 6e-10, math.pi / 24), (0.8, 0.8 * (1.0 - 1e-12), -1.3),
               (2.0, 2.0, 0.6), (0.6, 2.1, math.pi - 0.03), (1.9, 1.95, -math.pi + 0.01)]


@pytest.mark.parametrize("r1,r2,dth", PARAB_PAIRS)
def test_distance_F_reflection_reversal(parab, r1, r2, dth):
    # sigma: theta -> -theta reverses the wind, so d(q1, q2) = d(sigma q2, sigma q1)
    q1, q2 = SurfacePoint(r1, 0.4), SurfacePoint(r2, 0.4 + dth)
    d = distance_F(parab, q1, q2)
    back = distance_F(parab, SurfacePoint(r2, -q2.theta), SurfacePoint(r1, -q1.theta))
    assert back == pytest.approx(d, abs=4e-9)


@pytest.mark.parametrize("r1,r2,dth", PARAB_PAIRS)
def test_distance_F_rotation_invariance(parab, r1, r2, dth):
    d = distance_F(parab, SurfacePoint(r1, 0.0), SurfacePoint(r2, dth))
    for alpha in (0.9, -2.6):
        turned = distance_F(parab, SurfacePoint(r1, alpha), SurfacePoint(r2, alpha + dth))
        assert turned == pytest.approx(d, abs=4e-9)


def test_distance_F_triangle_inequality_near_equal_radii(parab):
    # directed triangle inequality over points on nearly the same parallel,
    # where the connectors are nearly tangent, and off it
    tol = 1e-9
    pts = [SurfacePoint(1.3, 0.0), SurfacePoint(1.3 + 6e-10, 0.13),
           SurfacePoint(1.3 * (1.0 - 1e-6), 0.5), SurfacePoint(1.31, -0.2),
           SurfacePoint(1.3, 2.8), SurfacePoint(0.7, 1.2)]
    d = {(i, j): distance_F(parab, pts[i], pts[j], tol=tol)
         for i in range(len(pts)) for j in range(len(pts)) if i != j}
    for (i, j), dij in d.items():
        for k in range(len(pts)):
            if k not in (i, j):
                assert d[(i, k)] <= dij + d[(j, k)] + 2.0 * tol


def test_distance_from_a_point_within_tol_of_the_vertex(parab):
    # r1 <= tol / 2: the path through the vertex is within 2 r1 of the
    # shortest, so it is the answer; radii whose m^2 underflows never reach
    # the connector tables
    for r1 in (2.2e-309, 1e-200, 4e-10):
        q1, q2 = SurfacePoint(r1, 0.63), SurfacePoint(1.2, 0.35)
        d = distance_F(parab, q1, q2, tol=1e-9)
        assert d == r1 + 1.2
        assert abs(d - distance_F(parab, SurfacePoint(0.0, 0.0), q2)) <= 2 * r1
