import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from randers import (
    InternalConsistencyError,
    InvalidBracketError,
    InvalidParameterError,
    SurfacePoint,
    Tangent,
    VertexSingularError,
    eval_F,
    h_norm,
    make_custom,
)
from randers.geodesics import (
    GeodesicState,
    clairaut_angles,
    clairaut_constant,
    count_self_intersections,
    f_geodesic_residual,
    integrate_F,
    integrate_h,
    level_crossings,
    quadrature_segment,
    twist,
)
from randers import odesolve
from randers.odesolve import _D8_COLS, _contd8, _dense8, _extra_stages, _per_row


def _launch(profile, r0, phi, theta0=0.0):
    m0 = float(profile.m(r0))
    return GeodesicState(r0, theta0, math.cos(phi), math.sin(phi) / m0)


def test_meridian_is_analytic(parab):
    path = integrate_h(parab, GeodesicState(0.5, 0.3, 1.0, 0.0), 2.0)
    assert path.kind == "meridian" and path.nu == 0.0
    np.testing.assert_allclose(path.states[:, 0], 0.5 + path.s, rtol=0, atol=0)
    assert np.all(path.states[:, 1] == 0.3)


def _dense_paths(parab):
    generic = integrate_h(parab, _launch(parab, 1.0, 0.6), 4.0)
    return {
        "generic": generic,
        "twisted": twist(generic, parab.mu),
        "meridian-through-vertex": integrate_h(
            parab, GeodesicState(1.0, 0.0, -1.0, 0.0), 3.0),
    }


@pytest.mark.parametrize("kind", ["generic", "twisted", "meridian-through-vertex"])
def test_dense_reads_arrays(parab, kind):
    path = _dense_paths(parab)[kind]
    ss = np.concatenate([path.s, 0.5 * (path.s[1:] + path.s[:-1]), [1.0]])
    stacked = np.array([path.dense(float(s)) for s in ss])
    np.testing.assert_array_equal(path.dense(ss), stacked)
    assert path.dense(ss.reshape(-1, 1)).shape == (len(ss), 1, 4)
    if kind == "generic":
        # the dense output of each step, its extra stages and coefficients
        # built for that step alone
        sol = path.dense
        for s, row in zip(ss, stacked):
            i = int(np.searchsorted(sol.seg_s, s, side="right") - 1)
            i = min(max(i, 0), sol.seg_s.size - 1)
            one = slice(i, i + 1)
            k = _extra_stages(_per_row(sol.rhs), sol.seg_s[one], sol.seg_h[one],
                              sol.seg_y0[one], [sol.seg_f0[one], *[None] * 4,
                                                *sol.seg_k[one].transpose(1, 0, 2)])
            h = sol.seg_h[i]
            coeffs = _contd8(h, sol.seg_y0[i], sol.seg_y1[i], sol.seg_f0[i], sol.seg_f1[i],
                             [k[j][0] for j in _D8_COLS])
            ref = _dense8((s - sol.seg_s[i]) / h, sol.seg_y0[i], *coeffs)
            np.testing.assert_array_equal(row, ref)


def test_meridian_chain_through_vertex(parab):
    path = integrate_h(parab, GeodesicState(1.0, 0.0, -1.0, 0.0), 3.0)
    st = path.state_at(0.4)
    assert st.r == pytest.approx(0.6) and st.theta == 0.0 and st.dr == -1.0
    st2 = path.state_at(2.5)
    assert st2.r == pytest.approx(1.5)
    assert st2.theta == pytest.approx(math.pi)
    assert st2.dr == 1.0


def test_geodesic_parallel_stays_put(bump):
    r0 = math.sqrt(2.0)
    m0 = float(bump.m(r0))
    path = integrate_h(bump, GeodesicState(r0, 0.0, 0.0, 1.0 / m0), 10.0,
                       tol=1e-11)
    assert path.kind == "parallel"
    assert np.abs(path.states[:, 0] - r0).max() < 1e-9


def test_clairaut_constant_examples(parab):
    assert clairaut_constant(parab, GeodesicState(1.0, 0.0, 1.0, 0.0)) == 0.0
    r = 0.8
    m = float(parab.m(r))
    st = GeodesicState(r, 0.0, 0.0, 1.0 / m)
    assert clairaut_constant(parab, st) == pytest.approx(m, rel=1e-14)
    st2 = _launch(parab, 1.0, math.pi / 6.0)
    assert clairaut_constant(parab, st2) == pytest.approx(
        float(parab.m(1.0)) * 0.5, rel=1e-13)


def test_integrate_h_reads_the_warp_once_per_stage(parab):
    # the FSAL stage, the unit-speed projection and the derivative after it
    # share r, so an accepted step reads m and m' at twelve radii, a
    # rejected one at eleven; the start reads m' once, and m three times
    # (the speed and Clairaut checks)
    calls = {"m": 0, "m1": 0}

    def counted(name, fn):
        def call(r):
            calls[name] += 1
            return fn(r)
        return call

    profile = make_custom(counted("m", parab.m), counted("m1", parab.m1), parab.m2,
                          mu=parab.mu, r_max=parab.r_max)
    # the radius of the vertex chart is found once per profile, before the
    # count; from r = 1 outward the ray stays above it, in the polar chart
    assert profile.vertex_chart_radius < 1.0
    calls.update(m=0, m1=0)
    # outward, so r grows at every stage and no two stages share a radius
    path = integrate_h(profile, _launch(parab, 1.0, 0.7), 10.0, tol=1e-12)
    sol = path.dense
    assert path.exit_reason == "completed" and sol.nsteps > 20
    assert calls["m1"] == 12 * sol.nsteps + 11 * sol.nrejected + 1
    assert calls["m"] == calls["m1"] + 2
    assert np.array_equal(path.states, integrate_h(parab, _launch(parab, 1.0, 0.7), 10.0,
                                                   tol=1e-12).states)


def test_threads_reading_one_dense_output_agree(parab):
    # the first dense read builds the extra stages through integrate_h's
    # right-hand side and its warp memo; threads racing on it must all read
    # what one thread reads alone
    state, nodes = _launch(parab, 1.3, 1.2), np.linspace(0.0, 12.0, 997)
    alone = integrate_h(parab, state, 12.0, tol=1e-12).dense(nodes)
    shared = integrate_h(parab, state, 12.0, tol=1e-12)
    reads = [None] * 6

    def read(i):
        reads[i] = shared.dense(nodes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(reads))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for r in reads:
        np.testing.assert_array_equal(r, alone)


def test_conservation_over_long_arc(parab60):
    tol = 1e-10
    path = integrate_h(parab60, _launch(parab60, 2.0, math.pi / 4.0), 100.0,
                       tol=tol)
    assert path.max_unit_drift <= 10.0 * tol
    assert path.max_clairaut_drift <= 10.0 * tol
    speeds = np.array([h_norm(parab60, row[0], row[2], row[3])
                       for row in path.states])
    assert np.abs(speeds - 1.0).max() <= 10.0 * tol


_DOP853_RAYS = [
    (1.2, 0.9, 8.0),                   # generic
    (1.5, math.pi / 2.0 + 0.01, 8.0),  # turns 2.4e-4 inside its start radius
    (0.7, 2.3, 30.0),                  # long, through a turning point
    # the h-preimage of a geodesic-embed launch (seed 1, round 10), which
    # passes the vertex at nu = 0.0137, through both charts
    (0.9696232773811233, 3.1219245085076746, 20.962680324720253),
]


def _polar_rhs(profile):
    """The polar geodesic equations, for scipy's solve_ivp."""
    def rhs(s, y):
        r, _, dr, dth = y
        m, m1 = float(profile.m(r)), float(profile.m1(r))
        return [dr, dth, m * m1 * dth * dth, -2.0 * (m1 / m) * dr * dth]

    return rhs


def _dop853_errors(profile, r0, phi, length, tol):
    """Largest state error of integrate_h at its samples and at the
    midpoints between them, against an independent oracle: scipy's
    8th-order Dormand-Prince on the same geodesic equations, with no
    unit-speed projection."""
    state0 = _launch(profile, r0, phi)
    path = integrate_h(profile, state0, length, tol=tol)
    assert path.exit_reason == "completed"
    mid = 0.5 * (path.s[1:] + path.s[:-1])
    ref = solve_ivp(_polar_rhs(profile), (0.0, length), state0.as_array(), method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=np.sort(np.concatenate([path.s, mid])))
    assert ref.success
    at_nodes = np.abs(path.states - ref.y.T[0::2]).max()
    at_mids = np.abs(path.dense(mid) - ref.y.T[1::2]).max()
    return at_nodes, at_mids


@pytest.mark.parametrize("r0,phi,length", _DOP853_RAYS)
def test_integrate_h_against_scipy_dop853(parab60, r0, phi, length):
    at_nodes, at_mids = _dop853_errors(parab60, r0, phi, length, tol=1e-12)
    assert at_nodes <= 1e-9
    assert at_mids <= 1e-9   # the dense output between the samples


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("r0,phi,length", _DOP853_RAYS)
def test_dense_output_is_as_accurate_as_the_samples(parab60, r0, phi, length, tol):
    # the dense output is 7th order: between the step ends it errs about as
    # much as at them, with no step cap
    at_nodes, at_mids = _dop853_errors(parab60, r0, phi, length, tol)
    assert at_mids <= 10.0 * at_nodes


def test_initial_state_validation(parab):
    with pytest.raises(InvalidParameterError):
        integrate_h(parab, GeodesicState(1.0, 0.0, 1.0, 1.0), 1.0)
    with pytest.raises(VertexSingularError):
        integrate_h(parab, GeodesicState(0.0, 0.0, 1.0, 123.0), 1.0)
    with pytest.raises(InvalidParameterError):
        integrate_h(parab, GeodesicState(1.0, 0.0, 1.0, 0.0), -1.0)


@pytest.mark.parametrize("length,tol", [
    (math.nan, 1e-10), (math.inf, 1e-10), (0.0, 1e-10),
    (1.0, 0.0), (1.0, math.nan), (1.0, -1e-10), (1.0, math.inf),
])
def test_rejects_non_finite_or_non_positive_length_and_tol(parab, length, tol):
    # before the check tol = 0 or NaN hung, tol < 0 "completed", length = NaN
    # gave a one-sample path and length = inf ran on to a domain exit
    generic = _launch(parab, 1.0, math.pi / 4.0)
    meridian = GeodesicState(1.0, 0.0, 1.0, 0.0)
    for state in (generic, meridian):
        with pytest.raises(InvalidParameterError):
            integrate_h(parab, state, length, tol=tol)
    q = SurfacePoint(1.0, 0.0)
    yF = Tangent(1.0 / eval_F(parab, q, Tangent(1.0, 0.0)), 0.0)
    for start in (q, SurfacePoint(0.0, 0.0)):
        with pytest.raises(InvalidParameterError):
            integrate_F(parab, start, yF if start.r else Tangent(1.0, 0.0),
                        length, tol=tol)


def test_domain_exit_truncates(parab):
    path = integrate_h(parab, _launch(parab, 2.0, math.pi / 4.0), 50.0)
    assert path.exit_reason == "domain-exit"
    assert path.states[-1, 0] == pytest.approx(parab.r_max, abs=1e-8)
    assert path.s[-1] < 50.0


@pytest.mark.parametrize("surface, r0, phi", [("parab", 2.0, math.pi / 4.0),
                                              ("flat", 5.0, 0.3)])
def test_domain_exit_in_the_last_step_truncates(surface, r0, phi, request):
    # a length that ends the step in which the ray crosses r_max, in the
    # polar chart (paraboloid) and in the vertex chart (the plane, whose R is
    # r_max): the crossing is the last sample, as it is for a longer length
    profile = request.getfixturevalue(surface)
    state = _launch(profile, r0, phi)
    longer = integrate_h(profile, state, 50.0)
    sol = getattr(longer.dense, "sol", longer.dense)
    assert longer.exit_reason == "domain-exit"
    assert sol.seg_s[-1] < longer.s[-1] < sol.seg_s[-1] + sol.seg_h[-1]
    length = 0.5 * (longer.s[-1] + sol.seg_s[-1] + sol.seg_h[-1])
    path = integrate_h(profile, state, length)
    assert path.exit_reason == "domain-exit" and path.states[-1, 0] == profile.r_max
    assert np.all(path.states[:, 0] <= profile.r_max)
    assert np.array_equal(path.s[:-1], longer.s[:-1])
    assert path.s[-1] == pytest.approx(longer.s[-1], abs=1e-9)


def test_meridian_domain_exit_truncates(parab):
    # the analytic meridians stop at r_max too, outward and through the vertex
    out = integrate_h(parab, GeodesicState(0.0, 0.0, 1.0, 0.0), 40.0)
    assert out.exit_reason == "domain-exit"
    assert out.s[-1] == parab.r_max and out.states[-1, 0] == parab.r_max
    assert np.all(out.states[:, 0] <= parab.r_max)
    back = integrate_h(parab, GeodesicState(3.0, 0.5, -1.0, 0.0), 40.0)
    assert back.exit_reason == "domain-exit"
    assert back.s[-1] == 3.0 + parab.r_max and back.states[-1, 0] == parab.r_max
    assert back.states[-1, 1] == 0.5 + math.pi
    inside = integrate_h(parab, GeodesicState(3.0, 0.5, -1.0, 0.0), 23.0)
    assert inside.exit_reason == "completed" and inside.s[-1] == 23.0


def test_ray_launched_outward_on_r_max_exits_at_once(sphere, parab):
    # a ray launched outward on r_max is its start alone: on the sphere
    # (r_max = 2.8) from (2.8, 0) at heading 0.3
    m = math.sin(2.8)
    state = GeodesicState(2.8, 0.0, math.cos(0.3), math.sin(0.3) / m)
    path = integrate_h(sphere, state, 6.0)
    assert path.exit_reason == "domain-exit" and path.s.tolist() == [0.0]
    assert np.all(path.states[:, 0] <= sphere.r_max)
    assert np.array_equal(path.dense(np.array([0.0, 1.0])), [state.as_array()] * 2)
    # r' = 0 where m' > 0: r'' = m m' theta'^2 > 0 takes the ray out too
    tangent = GeodesicState(parab.r_max, 0.0, 0.0, 1.0 / float(parab.m(parab.r_max)))
    assert integrate_h(parab, tangent, 3.0).exit_reason == "domain-exit"
    # the analytic meridian stops there too, with the same one sample
    meridian = integrate_h(parab, GeodesicState(parab.r_max, 0.0, 1.0, 0.0), 3.0)
    assert meridian.exit_reason == "domain-exit" and meridian.s.tolist() == [0.0]
    # inward from r_max the ray runs, over the vertex to the far side
    inward = integrate_h(sphere, GeodesicState(2.8, 0.0, -math.cos(0.3), math.sin(0.3) / m), 6.0)
    assert inward.length > 5.0 and np.all(inward.states[:, 0] <= sphere.r_max)


def test_twist_is_algebraic(parab60):
    h_path = integrate_h(parab60, _launch(parab60, 2.0, 1.0), 20.0, tol=1e-10)
    f_path = twist(h_path, parab60.mu)
    # exact identities, no integration involved in the map
    np.testing.assert_array_equal(
        f_path.states[:, 1], h_path.states[:, 1] + parab60.mu * h_path.s)
    np.testing.assert_array_equal(
        f_path.states[:, 3], h_path.states[:, 3] + parab60.mu)
    assert f_path.h_preimage is h_path
    assert f_path.kind == "generic" and f_path.metric_tag == "F"
    # mu = 0 is the identity map
    ident = twist(h_path, 0.0)
    np.testing.assert_array_equal(ident.states, h_path.states)
    with pytest.raises(InvalidParameterError):
        twist(f_path, 1.0)


def test_twist_unit_speed(parab60):
    tol = 1e-10
    h_path = integrate_h(parab60, _launch(parab60, 1.5, 0.9), 50.0, tol=tol)
    f_path = twist(h_path, parab60.mu)
    worst = 0.0
    for row in f_path.states:
        F = eval_F(parab60, SurfacePoint(row[0], row[1]), Tangent(row[2], row[3]))
        worst = max(worst, abs(F - 1.0))
    assert worst <= 10.0 * tol


def test_twisted_meridian_cotangent_relation(parab):
    # along a twisted meridian, m |cot psi| = 1/mu with the h-angle psi
    base = integrate_h(parab, GeodesicState(0.2, 0.0, 1.0, 0.0), 3.0)
    P = twist(base, parab.mu)
    for row in P.states[1:]:
        m = float(parab.m(row[0]))
        tan_psi = m * row[3] / row[2]
        assert m / tan_psi == pytest.approx(1.0 / parab.mu, rel=1e-12)


def test_integrate_F_roundtrip(parab):
    q = SurfacePoint(1.2, 0.4)
    # build an F-unit tangent from an h-frame direction
    u = Tangent(math.cos(0.7), math.sin(0.7) / float(parab.m(1.2)))
    F0 = eval_F(parab, q, u)
    yF = Tangent(u.y1 / F0, u.y2 / F0)
    path = integrate_F(parab, q, yF, 5.0, tol=1e-11)
    assert path.metric_tag == "F"
    assert path.h_preimage is not None
    assert h_norm(parab, *path.h_preimage.states[0, [0, 2, 3]]) == pytest.approx(
        1.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        integrate_F(parab, q, u, 1.0)   # not F-unit


def test_integrate_F_twisted_meridian_is_forward(parab):
    # the twisted-meridian direction gives a path with strictly growing radius
    base = integrate_h(parab, GeodesicState(1.0, 0.0, 1.0, 0.0), 4.0)
    P = twist(base, parab.mu)
    st = GeodesicState(*P.states[0])
    path = integrate_F(parab, SurfacePoint(st.r, st.theta),
                       Tangent(st.dr, st.dtheta), 4.0, tol=1e-11)
    assert np.all(np.diff(path.states[:, 0]) > 0)


def test_integrate_F_from_vertex(parab):
    path = integrate_F(parab, SurfacePoint(0.0, 1.0), Tangent(1.0, 0.0), 2.0)
    assert path.kind == "twisted-meridian"
    end = path.state_at(2.0)
    assert end.r == pytest.approx(2.0)
    assert end.theta == pytest.approx(1.0 + parab.mu * 2.0)


def test_parallel_F_orbit_period(bump):
    # the geodesic parallel, twisted, loops with parameter 2 pi m/(1 + mu m)
    r0 = math.sqrt(2.0)
    m0 = float(bump.m(r0))
    mu = bump.mu
    base = integrate_h(bump, GeodesicState(r0, 0.0, 0.0, 1.0 / m0), 10.0,
                       tol=1e-11)
    P = twist(base, mu)
    period = 2.0 * math.pi * m0 / (1.0 + mu * m0)
    st = P.state_at(period)
    assert st.r == pytest.approx(r0, abs=1e-9)
    assert st.theta == pytest.approx(2.0 * math.pi, abs=1e-8)


def test_rotation_equivariance(parab60):
    length, tol = 20.0, 1e-10
    a = integrate_h(parab60, _launch(parab60, 2.0, 0.8, theta0=0.0), length,
                    tol=tol)
    b = integrate_h(parab60, _launch(parab60, 2.0, 0.8, theta0=1.1), length,
                    tol=tol)
    for s in (5.0, 12.5, 20.0):
        sa, sb = a.state_at(s), b.state_at(s)
        assert sb.r == pytest.approx(sa.r, abs=1e-9)
        assert sb.theta - sa.theta == pytest.approx(1.1, abs=1e-9)


def test_quadrature_segment_meridian_case(parab):
    dth, ds, dp2 = quadrature_segment(parab, 0.5, 2.5, 0.0, 1)
    assert dth == 0.0 and ds == 2.0
    assert dp2 == pytest.approx(parab.mu * 2.0)


def test_quadrature_segment_vs_ode(parab):
    nu = 0.3
    rt = brentq(lambda r: float(parab.m(r)) - nu, 1e-9, 10.0, xtol=1e-14)
    st = GeodesicState(rt, 0.0, 0.0, 1.0 / float(parab.m(rt)))
    path = integrate_h(parab, st, 5.0, tol=1e-12)
    rb = float(path.states[-1, 0])
    dth, ds, dp2 = quadrature_segment(parab, rt, rb, nu, 1)
    assert ds == pytest.approx(5.0, abs=1e-7)
    assert dth == pytest.approx(float(path.states[-1, 1]), abs=1e-7)
    assert dp2 == dth + parab.mu * ds


def test_integrate_h_from_turning_radii_agrees_with_quadrature(parab60):
    # randers verify's ode-quadrature-agreement setup on a fixed grid: rays
    # launched along the parallel at the turning radius of nu in
    # [0.05, 0.65], at tol 1e-11.  The vertex chart runs from R = 1 (these
    # radii lie at 0.05-0.86), and the charts switch at step ends
    worst = 0.0
    for nu, length in zip(np.linspace(0.05, 0.65, 13), np.linspace(8.0, 2.0, 13)):
        rt = brentq(lambda r: float(parab60.m(r)) - nu, 1e-12, 59.0, xtol=1e-15)
        st = GeodesicState(rt, 0.0, 0.0, 1.0 / float(parab60.m(rt)))
        path = integrate_h(parab60, st, length, tol=1e-11)
        dth, ds, _ = quadrature_segment(parab60, rt, float(path.states[-1, 0]), nu, 1)
        worst = max(worst, abs(dth - path.states[-1, 1]), abs(ds - length))
    assert worst <= 2e-11


def test_quadrature_segment_turning_on_the_right(bump):
    # past the bump's maximum at sqrt(2) the warp decreases, so a geodesic
    # turns at the right end of its leg, or at both ends
    r_right = 1.75
    nu = float(bump.m(r_right))
    r_left = brentq(lambda r: float(bump.m(r)) - nu, 0.1, math.sqrt(2.0), xtol=1e-15)
    path = integrate_h(bump, GeodesicState(r_right, 0.0, 0.0, 1.0 / nu), 3.0, tol=1e-12)
    s, y = level_crossings(path, 1.0)
    dth, ds, _ = quadrature_segment(bump, 1.0, r_right, nu, 1)
    assert dth == pytest.approx(y[0, 1], abs=1e-9) and ds == pytest.approx(s[0], abs=1e-9)
    # from turning point to turning point: the half period, where dr = 0 again
    k = np.flatnonzero(path.states[:, 2] > 0.0)[0]
    half = brentq(lambda t: path.dense(t)[2], path.s[k - 1], path.s[k], xtol=1e-15)
    dth, ds, _ = quadrature_segment(bump, r_left, r_right, nu, 1)
    assert dth == pytest.approx(path.dense(half)[1], abs=1e-9)
    assert ds == pytest.approx(half, abs=1e-9)


def test_level_crossings_sees_a_graze_inside_one_step(parab):
    # inward from r = 3 to the turning radius 1, past the level 1 + 1e-5 and
    # out again: both crossings lie between the same two samples, on the
    # same side of the level.  The quadrature legs from the turning radius
    # give them: the turn comes after the leg to r = 3, each crossing one leg
    # to the level before and after it
    r0, r_turn, r_level = 3.0, 1.0, 1.0 + 1e-5
    nu = float(parab.m(r_turn))
    path = integrate_h(parab, _launch(parab, r0, math.pi - math.asin(nu / float(parab.m(r0)))),
                       8.0, tol=1e-10)
    s, y = level_crossings(path, r_level)
    assert s.size == 2
    k = np.searchsorted(path.s, s)
    assert k[0] == k[1]                                   # inside one step
    g = path.states[k[0] - 1:k[0] + 1, 0] - r_level
    assert g[0] > 0.0 and g[1] > 0.0
    np.testing.assert_allclose(y[:, 0], r_level, atol=1e-12)
    s_turn = quadrature_segment(parab, r_turn, r0, nu, 1)[1]
    leg = quadrature_segment(parab, r_turn, r_level, nu, 1)[1]
    np.testing.assert_allclose(s, [s_turn - leg, s_turn + leg], atol=1e-8)
    # a level the ray turns short of is not crossed
    assert level_crossings(path, r_turn - 1e-5)[0].size == 0


def test_clairaut_angles_turning_legs_on_the_plane(flat):
    # from the turning radius nu of a straight line to r = 2: the angle
    # acos(nu / 2) and the length sqrt(4 - nu^2), down to nu near the vertex
    nus = np.array([1e-9, 1e-3, 0.5, 1.99])
    angle, length = clairaut_angles(flat, nus, 2.0 - nus, nus, 0.0, 1e-13)
    np.testing.assert_allclose(angle, np.arccos(nus / 2.0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(length, np.sqrt(4.0 - nus * nus), rtol=0, atol=1e-12)


def test_unmarked_turning_end_raises(bump):
    # the square-root end of an unmarked turning point does not settle under
    # halving: the kernel raises rather than return an unconverged value
    nu, m_a = float(bump.m(1.75)), float(bump.m(1.0))
    with pytest.raises(InternalConsistencyError):
        clairaut_angles(bump, 1.0, 0.75, nu, (m_a - nu) * (m_a + nu), 1e-10)


def test_clairaut_angles_nan_legs_raise(parab):
    # disc < 0 puts a leg past its turning radius, where its integrands are
    # NaN: the halving test never passes, for a lone leg or a group
    for width in (0.5, [0.3, 0.5]):
        with np.errstate(invalid="ignore"), pytest.raises(InternalConsistencyError):
            clairaut_angles(parab, 1.0, width, 0.9, -0.5, 1e-10)


def test_quadrature_segment_invalid_bracket(parab):
    with pytest.raises(InvalidBracketError):
        quadrature_segment(parab, 0.05, 2.0, 0.3, 1)  # m < nu near 0.05
    with pytest.raises(InvalidParameterError):
        quadrature_segment(parab, 2.0, 1.0, 0.3, 1)
    with pytest.raises(InvalidParameterError):
        quadrature_segment(parab, 1.0, 2.0, 0.3, 2)


def test_f_geodesic_residual_separation(parab):
    tw = twist(integrate_h(parab, GeodesicState(0.5, 0.0, 1.0, 0.0), 2.0),
               parab.mu)
    assert f_geodesic_residual(parab, tw) <= 1e-7
    mer = integrate_h(parab, GeodesicState(0.5, 0.0, 1.0, 0.0), 1.0)
    assert f_geodesic_residual(parab, mer) >= 1e-2
    gen = integrate_h(parab, _launch(parab, 2.0, math.asin(0.3 / float(parab.m(2.0)))),
                      1.0, tol=1e-11)
    assert f_geodesic_residual(parab, gen) >= 1e-3


def test_self_intersections_against_quadrature_count(parab):
    # a twisted geodesic launched inward through its turning radius and back
    # out: crossings happen where the angular offset between the in- and
    # out-legs passes a multiple of 2 pi, so the sweep count must match
    # floor(2 delta_P2(r_common) / 2 pi) over the leg from the turning radius
    r0, nu = 10.0, 0.3
    m0 = float(parab.m(r0))
    sphi = nu / m0
    st = GeodesicState(r0, 0.0, -math.sqrt(1.0 - sphi * sphi), sphi / m0)
    h = integrate_h(parab, st, 22.0)
    n_sweep = count_self_intersections(twist(h, parab.mu))
    assert n_sweep >= 2

    rt = brentq(lambda r: float(parab.m(r)) - nu, 1e-12, 10.0, xtol=1e-14)
    r_common = min(r0, float(h.states[-1, 0]))
    _, _, dp2 = quadrature_segment(parab, rt, r_common, nu, 1)
    assert n_sweep == int((2.0 * dp2) // (2.0 * math.pi))


def test_start_next_to_the_vertex_runs_in_the_vertex_chart(parab):
    # 1e-308 from the vertex with angular speed: the vertex chart has no
    # blow-up floor, and the ray runs out along the meridian theta = pi / 2
    path = integrate_h(parab, GeodesicState(1e-308, 0.0, 0.0, 1e308), 1.0)
    assert path.exit_reason == "completed"
    np.testing.assert_allclose(path.states[-1, :3], [1.0, math.pi / 2.0, 1.0], atol=1e-12)
    with pytest.raises(InvalidParameterError):
        integrate_h(parab, GeodesicState(parab.r_max + 1.0, 0.0, 1.0, 0.0), 1.0)


@pytest.mark.parametrize("state", [
    # theta = NaN spun on rejected steps for about 90 s, then raised
    # NumericalBlowupError "after 0 steps"
    GeodesicState(1.0, math.nan, 0.6, 0.8 * math.sqrt(2.0)),
    # theta = inf returned a completed path with theta = inf
    GeodesicState(1.0, math.inf, 0.6, 0.8 * math.sqrt(2.0)),
    # dr = NaN with dtheta = 0 passed the speed check and answered a meridian
    GeodesicState(1.0, 0.0, math.nan, 0.0),
], ids=["theta-nan", "theta-inf", "dr-nan"])
def test_non_finite_initial_state_is_rejected(parab, state):
    with pytest.raises(InvalidParameterError):
        integrate_h(parab, state, 1.0)


# accepted plus rejected steps of the polar chart alone (before the vertex
# chart) from (1, 0) on make_paraboloid(1.0) at heading pi - 10^-k, over
# length 3 at tol 1e-10: the ray passes the vertex at about 0.7 10^-k
_POLAR_VERTEX_PASS_STEPS = {2: 136, 4: 229, 6: 312, 8: 391, 10: 465}


@pytest.mark.parametrize("k", sorted(_POLAR_VERTEX_PASS_STEPS))
def test_vertex_pass_takes_few_steps(monkeypatch, parab, k):
    runs = []
    real = odesolve.integrate

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(odesolve, "integrate", spy)
    state0 = _launch(parab, 1.0, math.pi - 10.0 ** -k)
    path = integrate_h(parab, state0, 3.0, tol=1e-10)
    assert path.exit_reason == "completed"
    assert 4 * sum(sol.nsteps + sol.nrejected for sol in runs) <= _POLAR_VERTEX_PASS_STEPS[k]
    if k <= 6:
        # the end state against scipy's DOP853 on the polar equations
        ref = solve_ivp(_polar_rhs(parab), (0.0, 3.0), state0.as_array(), method="DOP853",
                        rtol=1e-13, atol=1e-13)
        assert ref.success
        np.testing.assert_allclose(path.states[-1], ref.y[:, -1], rtol=0, atol=1e-9)


def test_flat_ray_past_the_vertex_is_a_straight_line(flat):
    # m = r: the vertex chart covers the whole domain and is exact there, so
    # a ray that passes the vertex at 1e-6 runs on the straight line through
    # its start, theta continuous past the vertex
    assert flat.vertex_chart_radius == flat.r_max
    chi = math.pi - 1e-6
    path = integrate_h(flat, GeodesicState(1.0, 0.3, math.cos(chi), math.sin(chi)), 3.0)
    s = np.sort(np.concatenate([path.s, 0.5 * (path.s[1:] + path.s[:-1])]))
    y = path.dense(s)
    along, across = 1.0 + s * math.cos(chi), s * math.sin(chi)
    r = np.hypot(along, across)
    np.testing.assert_allclose(y[:, 0], r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y[:, 1], 0.3 + np.arctan2(across, along), rtol=0, atol=1e-12)
    np.testing.assert_allclose(y[:, 2], (along * math.cos(chi) + across * math.sin(chi)) / r,
                               rtol=0, atol=1e-12)
    # nu = r^2 dtheta is the start's r sin chi
    np.testing.assert_allclose(y[:, 3] * y[:, 0] ** 2, math.sin(chi), rtol=1e-12)
    np.testing.assert_array_equal(path.states[-1], path.dense(3.0))


@pytest.mark.parametrize("chi", [math.pi - 0.3, -(math.pi - 0.3)])
def test_chart_switch_keeps_the_dense_output_continuous(parab, chi):
    # from r = 2 inward to the turning radius 0.27 and out again: the ray
    # crosses the vertex chart's radius twice, and is read from three runs,
    # which switch at the first step end past it.  Across each switch the
    # dense output's difference quotients match its own derivatives, and
    # theta runs in the sense of nu along the whole ray
    path = integrate_h(parab, _launch(parab, 2.0, chi), 5.0, tol=1e-10)
    above = path.states[:, 0] > parab.vertex_chart_radius
    switches = path.s[1:][above[1:] != above[:-1]]
    assert switches.size == 2
    for s_switch in switches:
        s = s_switch + np.linspace(-1e-4, 1e-4, 41)
        y = path.dense(s)
        slope = np.diff(y[:, :2], axis=0) / np.diff(s)[:, None]
        mid = path.dense(0.5 * (s[1:] + s[:-1]))
        np.testing.assert_allclose(slope, mid[:, 2:], rtol=0, atol=1e-6)
    sense = math.copysign(1.0, path.nu)
    assert np.all(sense * np.diff(path.states[:, 1]) > 0.0)
    assert np.all(sense * np.diff(path.dense(np.linspace(0.0, 5.0, 2001))[:, 1]) > 0.0)
