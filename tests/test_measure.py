import math

import numpy as np
import pytest
from scipy.optimize import brentq

from randers import SurfacePoint, Tangent, make_custom, make_paraboloid
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
    _check_increasing_warp,
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
    p2 = momentum_p2(tiny, P.initial_state())
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
    rep = distance_F_report(parab, SurfacePoint(1.0, 0.0),
                            SurfacePoint(2.0, 1.0), tol=1e-9)
    assert rep.converged and rep.iterations > 0
    d = rep.to_dict()
    assert d["q1"] == {"r": 1.0, "theta": 0.0}
    assert d["distance"] == rep.distance
    assert d["bracket"][1] == pytest.approx(3.0)


def test_distance_F_report_root_at_the_bound(parab):
    # T = r1 + r2 rotates q2 onto the opposite meridian, where the chain
    # through the vertex has length exactly r1 + r2: g(hi) == 0
    rep = distance_F_report(parab, SurfacePoint(0.5, 0.0),
                            SurfacePoint(0.7, math.pi + 1.2), tol=1e-9)
    assert rep.distance == 1.2
    assert rep.iterations == 0 and rep.converged
    assert rep.bracket == (0.0, 1.2)


@pytest.mark.parametrize("name", ["parab", "flat", "sphere", "bump"])
def test_increasing_warp_check_matches_pointwise(name, request):
    profile = request.getfixturevalue(name)
    for r_hi in (0.5, 1.0, 1.7, 2.5, 30.0):
        rr = np.linspace(0.0, min(r_hi, profile.r_max), 128)[1:]
        pointwise = all(float(profile.m1(r)) > 0.0 for r in rr)
        assert _check_increasing_warp(profile, r_hi) is pointwise
    if name == "bump":
        assert not _check_increasing_warp(profile, 1.8)


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


def _flat_navigation_distance(q1, q2, mu):
    """d_F on the plane m(r) = r under the wind mu d/dtheta: the smallest T
    with chord(q1, rot(-mu T) q2) = T, by the chord law."""
    def miss(t):
        h = math.sin(0.5 * (q2.theta - mu * t - q1.theta))
        return math.sqrt((q1.r - q2.r) ** 2 + 4.0 * q1.r * q2.r * h * h) - t
    return brentq(miss, 0.0, q1.r + q2.r, xtol=1e-14, rtol=4.0 * 2.0**-52)


def test_distance_of_a_flat_pair_in_the_connector_gap(flat):
    # nearly equal radii whose distance_F root search queried sweeps that
    # no connector reached while the Clairaut constant was capped
    q1 = SurfacePoint(2.3618736928659563, 0.0)
    q2 = SurfacePoint(2.358282187899393, 0.2442393082657346)
    d = distance_F_report(flat, q1, q2, tol=1e-9).distance
    assert d == pytest.approx(_flat_navigation_distance(q1, q2, flat.mu), abs=2e-9)


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
