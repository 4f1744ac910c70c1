import math

import numpy as np
import pytest

from randers import (
    InvalidParameterError,
    odesolve,
    SearchHorizonError,
    SurfacePoint,
    make_custom,
    make_paraboloid,
)
from randers.conjugate import (
    certify_pole,
    cut_locus,
    first_conjugate,
    jacobi_integrate,
    verify_cut_point,
)
from randers.geodesics import GeodesicState, integrate_h, quadrature_segment, twist
from randers.measure import TwoRadiusConnectors, distance_F, shoot_hits
from randers.profile import wrap_angle


def opposite_meridian_chain(profile, q, length):
    """The unit-speed h-geodesic from q through the vertex: r(s) = |rho - s|,
    continuing on the opposite meridian."""
    return integrate_h(profile, GeodesicState(q.r, q.theta, -1.0, 0.0), length)


def test_jacobi_along_meridian_equals_warp(parab):
    base = integrate_h(parab, GeodesicState(0.0, 0.0, 1.0, 0.0), 20.0)
    jac = jacobi_integrate(parab, base, 0.0, 1.0, 20.0)
    warp = np.array([float(parab.m(s)) for s in jac.s])
    assert np.abs(jac.y - warp).max() <= 1e-9
    assert jac.first_zero is None


def test_jacobi_flat_profile_is_linear(flat):
    base = integrate_h(flat, GeodesicState(1.0, 0.0, 1.0, 0.0), 5.0)
    jac = jacobi_integrate(flat, base, -1.0, 1.0, 5.0)
    # y'' = 0: y(s) = -1 + s, zero at s = 1
    assert jac.first_zero == pytest.approx(1.0, abs=1e-10)
    idx = np.searchsorted(jac.s, 3.0)
    assert jac.y[idx] == pytest.approx(jac.s[idx] - 1.0, abs=1e-10)


def test_jacobi_along_a_generic_geodesic_reads_its_dense_output(sphere):
    # constant curvature 1: y = sin(s) along any geodesic; this one leaves
    # r = 1 along the parallel and swings out to r = pi - 1 and back
    base = integrate_h(sphere, GeodesicState(1.0, 0.0, 0.0, 1.0 / math.sin(1.0)), 3.5,
                       tol=1e-12)
    assert base.kind == "generic" and base.exit_reason == "completed"
    jac = jacobi_integrate(sphere, base, 0.0, 1.0, 3.5)
    assert jac.first_zero == pytest.approx(math.pi, abs=1e-9)
    np.testing.assert_allclose(jac.y, np.sin(jac.s), rtol=0, atol=1e-9)


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (1.0, 1.2), (0.5, 1.8), (0.5, 2.3)])
def test_first_conjugate_stops_at_the_zero(mu, rho):
    # the quadrature c is the first zero of the Jacobi field that
    # jacobi_integrate integrates along the chain through the vertex
    p = make_paraboloid(mu)
    q = SurfacePoint(rho, 0.0)
    horizon = rho + p.r_max
    full = jacobi_integrate(p, opposite_meridian_chain(p, q, horizon), 0.0, 1.0, horizon)
    assert abs(first_conjugate(p, q) - full.first_zero) <= 1e-11


def test_first_conjugate_sphere_oracle(sphere):
    # constant curvature 1: the Jacobi field sin(s) vanishes at pi no matter
    # where the chain starts
    for rho in (0.6, 1.0):
        c = first_conjugate(sphere, SurfacePoint(rho, 0.0))
        assert c == pytest.approx(math.pi, abs=1e-9)


def test_first_conjugate_paraboloid_oracle():
    # the second Jacobi solution m(r) * int dr/m^2 gives, for the
    # paraboloid-like warp, the closed form c(rho) = rho + 1/(mu^2 rho)
    for mu, rho in ((1.0, 1.0), (1.0, 2.0), (0.5, 1.3), (2.0, 0.7)):
        p = make_paraboloid(mu, r_max=30.0)
        c = first_conjugate(p, SurfacePoint(rho, 0.0))
        assert c == pytest.approx(rho + 1.0 / (mu * mu * rho), abs=1e-8)
        assert c > rho


@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (1.0, 1.146), (0.5, 1.8), (2.0, 0.7)])
def test_first_conjugate_to_the_closed_form_at_tol(mu, rho):
    # the quadrature root, as accurate as the Jacobi table
    c = first_conjugate(make_paraboloid(mu), SurfacePoint(rho, 0.0))
    assert abs(c - (rho + 1.0 / (mu * mu * rho))) <= 1e-11


def test_first_conjugate_errors(parab, flat, bump):
    with pytest.raises(InvalidParameterError):
        first_conjugate(parab, SurfacePoint(0.0, 0.0))
    with pytest.raises(SearchHorizonError) as exc:
        first_conjugate(flat, SurfacePoint(1.0, 0.0))
    assert exc.value.lower_bound is not None
    with pytest.raises(InvalidParameterError):
        first_conjugate(bump, SurfacePoint(1.0, 0.0))  # not von Mangoldt


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rho", [0.7, 1.0, 1.3, 2.0])
def test_first_conjugate_quadrature_meets_the_paraboloid_closed_form(mu, rho):
    # reduction of order: c = rho + 1 / (mu^2 rho), to 1e-12 where the
    # Jacobi ODE errs by up to 2e-12
    c = first_conjugate(make_paraboloid(mu), SurfacePoint(rho, 0.0))
    assert abs(c - (rho + 1.0 / (mu * mu * rho))) <= 1e-12


def test_first_conjugate_of_a_long_chain():
    # rho = 0.05 on the default domain: c = 20.05 lies at the very end of
    # the chain, rho + r_max; the Jacobi ODE misses it by 9.7e-11
    c = first_conjugate(make_paraboloid(1.0), SurfacePoint(0.05, 0.0))
    assert abs(c - 20.05) <= 1e-11


def test_cut_locus_at_the_horizon():
    # c = rho + 1/rho on make_paraboloid(1.0) reaches the horizon rho + r_max
    # at rho = 0.05.  There H(r_max) is a root within the table's error, and
    # no arc lies inside r_max.
    p = make_paraboloid(1.0)
    table = p.jacobi_table

    def h_at_r_max(rho):
        return table(p.r_max) + table(rho) - 1.0 / p.r_max - 1.0 / rho

    with pytest.raises(SearchHorizonError):
        cut_locus(p, SurfacePoint(0.05, 0.0))
    # just below 0.05 the root lies past the horizon, but H(r_max) < 0
    # within two reads of the table's error: c is the horizon itself
    rho = 0.05 - 1e-13
    assert -2.0 * table.epsabs <= h_at_r_max(rho) < 0.0
    assert first_conjugate(p, SurfacePoint(rho, 0.0)) == rho + p.r_max
    with pytest.raises(SearchHorizonError):
        cut_locus(p, SurfacePoint(rho, 0.0))
    # at 0.051 the arc runs from the closed-form c to the horizon
    arc = cut_locus(p, SurfacePoint(0.051, 0.0))
    assert abs(arc.c - (0.051 + 1.0 / 0.051)) <= 1e-11
    assert arc.s[0] == arc.c and arc.s[-1] == 0.051 + p.r_max


def test_cut_locus_last_radius_rounded_past_r_max():
    # the arc's last sample is (rho + r_max) - rho = 20 + 2^-48 at rho = 12.7,
    # one ulp past r_max; the connector tables still take it
    p = make_paraboloid(1.0)
    assert (12.7 + p.r_max) - 12.7 > p.r_max
    arc = cut_locus(p, SurfacePoint(12.7, 0.0))
    assert arc.s[-1] == 12.7 + p.r_max


def test_first_conjugate_sphere_to_the_closed_form(sphere):
    # on m = sin r the quadrature gives -cot w - cot rho = 0: c = pi
    for rho in (0.6, 1.0, 2.0):
        assert abs(first_conjugate(sphere, SurfacePoint(rho, 0.0)) - math.pi) <= 1e-12


# a von Mangoldt warp that is neither the paraboloid nor the sphere, and its
# first conjugate parameters at rho = 0.5, 1 and 2: by jacobi_integrate
# (tol 1e-12, then with steps of at most 0.1), and by mpmath at 30 digits
# (quad of 1/m^2 - 1/v^2, findroot of H)
THIRD_WARP = ("r/(1+r^2)^(1/4)", "(1+r^2/2)*(1+r^2)^(-5/4)",
              "-r*(3/2+r^2/4)*(1+r^2)^(-9/4)")
THIRD_WARP_C = {0.5: 8.390945173302015, 1.0: 3.414974859579851, 2.0: 3.1640301706445393}
THIRD_WARP_C_30_DIGITS = {0.5: 8.3909451733131640521, 1.0: 3.4149748595818865816,
                          2.0: 3.1640301706449258625}


@pytest.mark.parametrize("rho", sorted(THIRD_WARP_C))
def test_first_conjugate_matches_the_jacobi_zero_on_a_third_warp(rho):
    p = make_custom(*THIRD_WARP, mu=0.2, r_max=20.0)
    q = SurfacePoint(rho, 0.0)
    horizon = rho + p.r_max
    jac = jacobi_integrate(p, opposite_meridian_chain(p, q, horizon), 0.0, 1.0, horizon)
    c = first_conjugate(p, q)
    assert abs(c - jac.first_zero) <= 1e-10
    assert abs(c - THIRD_WARP_C[rho]) <= 1e-10
    assert abs(c - THIRD_WARP_C_30_DIGITS[rho]) <= 1e-13


def test_first_conjugate_halves_a_jacobi_panel_that_misses():
    # curvature 100: 1/m^2 grows to 5,000 at r_max = 0.3, where the table's
    # second panel misses its error target and is halved; c = pi / 10
    p = make_custom("sin(10*r)/10", "cos(10*r)", "-10*sin(10*r)", mu=0.5, r_max=0.3)
    assert abs(first_conjugate(p, SurfacePoint(0.2, 0.0)) - 0.1 * math.pi) <= 1e-13
    assert p.jacobi_table.refined == [False, True]
    # G(x) = 1/x - 10 cot(10 x); one rule on the halves of [0.25, 0.3]
    # errs by 1e-6 relative at 0.3
    for x in (0.27, 0.29, 0.3):
        assert p.jacobi_table(x) == pytest.approx(1.0 / x - 10.0 / math.tan(10.0 * x),
                                                  rel=1e-14)


def test_first_conjugate_at_the_ends_of_the_domain(parab):
    with pytest.raises(InvalidParameterError):
        first_conjugate(parab, SurfacePoint(parab.r_max + 0.5, 0.0))
    # c = rho + 1 / rho lies far past the horizon; the table's nodes
    # below rho, where m^2 r^2 underflows, read the integrand at r_eps
    for rho in (7.286899057239131e-301, 1e-9):
        with pytest.raises(SearchHorizonError):
            first_conjugate(parab, SurfacePoint(rho, 0.0))


@pytest.mark.parametrize("mu", [1.0, 0.5])
def test_cut_locus_runs_no_ode(monkeypatch, mu):
    # the benchmark's two paraboloids, built fresh so that the Jacobi table
    # is built under the patch too
    def no_ode(*args, **kwargs):
        raise AssertionError("cut_locus ran an ODE")

    monkeypatch.setattr(odesolve, "integrate", no_ode)
    monkeypatch.setattr(odesolve, "integrate_batch", no_ode)
    p = make_paraboloid(mu)
    rho = 1.3 / mu
    arc = cut_locus(p, SurfacePoint(rho, 0.4))
    assert abs(arc.c - (rho + 1.0 / (mu * mu * rho))) <= 1e-12
    assert arc.kind[0] == "chain"


def test_jacobi_table_is_built_on_first_use():
    p = make_paraboloid(0.8)
    assert "jacobi_table" not in vars(p)
    first_conjugate(p, SurfacePoint(1.0, 0.0))
    table = p.jacobi_table
    first_conjugate(p, SurfacePoint(2.0, 0.0))
    assert p.jacobi_table is table
    # the paraboloid's 1/m^2 - 1/r^2 is mu^2: G(x) = mu^2 x
    for x in (1e-3, 0.05, 0.3, 7.7, 20.0):
        assert table(x) == pytest.approx(0.64 * x, rel=0, abs=5e-14)


def test_conjugate_matches_family_refocus(parab):
    # Independent estimate: the one-turning-point family from q refocuses on
    # the opposite meridian exactly at the conjugate radius, i.e. the slope
    # of the swept angle in nu at nu = 0 changes sign there.
    rho = 1.0
    c = first_conjugate(parab, SurfacePoint(rho, 0.0))

    def slope(r2, nu0=1e-5):
        # the connector at heading chi = pi - psi from the lower radius has
        # Clairaut constant nu = m(r_lo) sin psi
        solver = TwoRadiusConnectors(parab, rho, r2, tol=1e-12)
        nus = np.array([nu0, nu0 / 2])
        sweep = solver.sweep_length(math.pi - np.arcsin(nus / float(parab.m(solver.r_lo))))[0]
        d1, d2 = (sweep - math.pi) / nus
        return 2.0 * d2 - d1   # Richardson in nu

    lo, hi = 0.5, 2.0
    assert slope(lo) < 0.0 < slope(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    r_star = 0.5 * (lo + hi)
    assert rho + r_star == pytest.approx(c, abs=1e-5)


def test_cut_locus_arc_structure(parab):
    q = SurfacePoint(1.0, 0.0)
    arc = cut_locus(parab, q, s_export_max=5.0, n_samples=13)
    assert arc.rho == 1.0
    assert arc.c == pytest.approx(2.0, abs=1e-8)  # closed-form oracle
    # radii follow the chain, start at the conjugate point
    np.testing.assert_allclose(arc.r, arc.s - 1.0, atol=1e-12)
    assert arc.dist[0] == pytest.approx(arc.c, abs=1e-5)
    # beyond the start the chain stops minimizing
    assert np.all(arc.dist[1:] < arc.s[1:])
    # the twist uses the distance, not the chain parameter
    np.testing.assert_allclose(arc.theta, math.pi + arc.dist, atol=1e-12)
    # navigation-correspondence cross-check at one interior sample
    y = arc.point_at_index(6)
    assert distance_F(parab, q, y, tol=1e-9) == pytest.approx(
        float(arc.dist[6]), abs=1e-7)


def test_cut_locus_weak_wind_limit():
    # as mu -> 0 the arc collapses onto the opposite meridian
    weak = make_custom("r / sqrt(r^2 + 1)", "(r^2 + 1)^(-3/2)",
                       "-3*r*(r^2+1)^(-5/2)", mu=1e-6, r_max=20.0)
    arc = cut_locus(weak, SurfacePoint(1.0, 0.0), s_export_max=5.0,
                    n_samples=9)
    assert np.abs(arc.theta - math.pi).max() <= 1e-4
    # same shape without wind: the conjugate parameter is wind-independent
    assert arc.c == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("kwargs", [
    {"n_samples": 0}, {"n_samples": -3}, {"n_samples": 2.5}, {"n_samples": "8"},
], ids=["n0", "n-neg", "n-float", "n-str"])
def test_cut_locus_rejects_bad_input(parab, kwargs):
    with pytest.raises(InvalidParameterError):
        cut_locus(parab, SurfacePoint(1.0, 0.0), **kwargs)


def test_cut_locus_reports_minimizing_connectors(parab):
    # the chain minimizes at the conjugate point; past it the mirror pairs
    # turn before the vertex, then climb directly, as the heading falls
    arc = cut_locus(parab, SurfacePoint(1.0, 0.0))
    assert arc.kind[0] == "chain" and arc.chi[0] == math.pi
    later = arc.kind[1:]
    n_turning = later.count("turning")
    assert n_turning > 0
    assert later == ["turning"] * n_turning + ["direct"] * (len(later) - n_turning)
    assert np.all(np.diff(arc.chi) <= 0.0)
    assert np.all(arc.chi[1:] < math.pi)
    turning = np.array(arc.kind) == "turning"
    assert np.all(arc.chi[turning] > 0.5 * math.pi)
    assert np.all(arc.chi[1:][~turning[1:]] <= 0.5 * math.pi)


def test_verify_cut_point_positive(parab):
    q = SurfacePoint(1.0, 0.0)
    arc = cut_locus(parab, q, s_export_max=3.5, n_samples=7)
    i = int(np.argmin(np.abs(arc.s - 3.0)))
    chk = verify_cut_point(parab, q, arc.point_at_index(i))
    assert chk.verified
    assert chk.n_minimizers == 2
    assert chk.equal_length_gap <= 1e-5
    # the two minimizing headings are h-mirror images
    h1, h2 = chk.segments[0][0], chk.segments[1][0]
    assert h1 == pytest.approx(-h2, abs=1e-5)
    d = chk.to_dict()
    assert d["verified"] is True and len(d["segments"]) == len(chk.segments)


def test_verify_cut_point_at_its_base_point(parab):
    # the one connector from q to itself has length 0, and needs no ray
    for target in (SurfacePoint(1.0, 0.0), SurfacePoint(1.0, 2.0 * math.pi)):
        chk = verify_cut_point(parab, SurfacePoint(1.0, 0.0), target)
        assert chk.d_F == 0.0 and chk.n_minimizers == 1 and not chk.verified
        assert chk.segments == [(0.0, 0.0)] and chk.equal_length_gap is None
        assert chk.ray_miss == 0.0


def test_verify_cut_point_negative_control(parab):
    q = SurfacePoint(1.0, 0.0)
    base = integrate_h(parab, GeodesicState(1.0, 0.0, -1.0, 0.0), 1.8)
    st = twist(base, parab.mu).state_at(1.5)
    chk = verify_cut_point(parab, q, SurfacePoint(st.r, st.theta))
    assert not chk.verified
    assert chk.n_minimizers == 1
    assert chk.d_F == pytest.approx(1.5, abs=1e-8)
    assert chk.ray_miss <= 1e-8


def test_verify_cut_point_finds_the_grazing_segment(parab):
    # the h-geodesic from q at heading pi - arcsin(m(1.5) / m(2.5)) turns at
    # r = 1.5; its turning point, twisted by mu L, is reached by a segment
    # tangent to the target's radius, which a fan of rays at tol 3e-7 missed
    # (it listed only the segments of lengths 1.0205 and 4.0231)
    q = SurfacePoint(2.5, 0.3)
    m_t = float(parab.m(1.5))
    swept, length, _ = quadrature_segment(parab, 1.5, 2.5, m_t, 1)
    heading = math.pi - math.asin(m_t / float(parab.m(2.5)))
    chk = verify_cut_point(parab, q, SurfacePoint(1.5, q.theta + swept + parab.mu * length))
    assert len(chk.segments) == 3 and chk.n_minimizers == 1 and not chk.verified
    graze = min(chk.segments, key=lambda seg: abs(seg[0] - heading))
    assert graze[0] == pytest.approx(2.030586584372241, abs=1e-9)
    assert graze[1] == pytest.approx(3.60555127546399, abs=1e-9)
    assert chk.ray_miss <= 1e-8


def _cut_targets():
    # three arc samples from each base point (from (2.5, 0.4) at mu = 0.5 the
    # first lies below q), the twisted opposite meridian halfway between the
    # vertex pass and c (below q), and the twisted outward meridian through q
    # at parameter 1.5 (above q, one minimizer at heading 0)
    for mu, q, picks in ((1.0, SurfacePoint(1.0, 0.0), (1, 20, 63)),
                         (0.5, SurfacePoint(2.5, 0.4), (1, 5, 40))):
        arc = cut_locus(make_paraboloid(mu), q)
        for i in picks:
            yield pytest.param(mu, q, arc.point_at_index(i), None, id=f"mu{mu}-arc{i}")
    s = 1.5   # halfway between the vertex pass (s = 1) and c = 2 from (1, 0)
    yield pytest.param(1.0, SurfacePoint(1.0, 0.0),
                       SurfacePoint(s - 1.0, math.pi + s), math.pi, id="opposite-meridian")
    yield pytest.param(1.0, SurfacePoint(1.0, 0.0), SurfacePoint(1.0 + s, s), 0.0,
                       id="outward-meridian")


@pytest.mark.parametrize("mu,q,target,meridian", list(_cut_targets()))
def test_verify_cut_point_matches_the_fan(mu, q, target, meridian):
    """The segments of one connector query against an independent method:
    shoot_hits' fan of 721 headings at tol 3e-7, refined at 1e-10.  The
    segments are paired by heading, as the mirror minimizers tie in length,
    and by length among the segments that leave q at the same heading."""
    profile = make_paraboloid(mu)
    chk = verify_cut_point(profile, q, target)
    hits = shoot_hits(profile, q, target.r, target.theta, np.linspace(-math.pi, math.pi, 721),
                      1.05 * (q.r + target.r) + 0.5, twist_mu=mu, tol=3e-7, refine_tol=1e-10)
    assert len(chk.segments) == len(hits)
    rest = list(chk.segments)
    for heading, length in hits:
        seg = min(rest, key=lambda seg: (abs(wrap_angle(seg[0] - heading)) > 1e-6,
                                         abs(seg[1] - length)))
        rest.remove(seg)
        assert abs(wrap_angle(seg[0] - heading)) <= 1e-6
        assert seg[1] == pytest.approx(length, abs=1e-8)
    if meridian is None:
        assert chk.verified and chk.n_minimizers == 2
        assert chk.equal_length_gap <= 1e-10
    else:
        # the one minimizer is the twisted meridian of length 1.5
        assert not chk.verified and chk.n_minimizers == 1
        assert abs(wrap_angle(chk.segments[0][0] - meridian)) <= 1e-12
        assert chk.d_F == pytest.approx(1.5, abs=1e-9)
    assert chk.ray_miss <= 1e-8


@pytest.mark.parametrize("surface,target", [
    ("sphere", SurfacePoint(2.0, 1.0)),   # m = sin r decreases past pi/2, short of r = 2
    ("parab", SurfacePoint(25.0, 1.0)),   # past r_max = 20
])
def test_verify_cut_point_outside_its_domain_raises(request, surface, target):
    with pytest.raises(InvalidParameterError):
        verify_cut_point(request.getfixturevalue(surface), SurfacePoint(1.0, 0.0), target)


def test_sub_ray_property(parab):
    # along the twisted meridian through q the navigation distance equals
    # the parameter, up to the cut parameter; beyond it the chain loses
    q = SurfacePoint(1.0, 0.0)
    out = twist(integrate_h(parab, GeodesicState(1.0, 0.0, 1.0, 0.0), 10.0),
                parab.mu)
    for s in (0.5, 2.0, 8.0):
        st = out.state_at(s)
        assert distance_F(parab, q, SurfacePoint(st.r, st.theta), tol=1e-9) \
            == pytest.approx(s, abs=2e-9)
    chain = twist(opposite_meridian_chain(parab, q, 4.0), parab.mu)
    st = chain.state_at(1.5)   # before c = 2: still minimizing
    assert distance_F(parab, q, SurfacePoint(st.r, st.theta), tol=1e-9) \
        == pytest.approx(1.5, abs=2e-9)
    st = chain.state_at(3.0)   # beyond c: strictly shorter connection exists
    assert distance_F(parab, q, SurfacePoint(st.r, st.theta), tol=1e-9) < 3.0 - 1e-3


def test_certify_pole_numbers():
    p100 = make_paraboloid(1.0, r_max=100.0)
    cert = certify_pole(p100)
    assert cert.certified
    assert cert.integral_lower_bound == pytest.approx(
        99.0 / (4.0 * math.pi**2), rel=1e-12)
    assert cert.integral_lower_bound == pytest.approx(2.507, abs=1e-3)
    assert cert.integral_numeric >= cert.integral_lower_bound
    assert cert.jacobi_min > 0.0
    assert cert.jacobi_max_deviation <= 1e-8
    assert "pole certified" in cert.message

    half = make_paraboloid(0.5, r_max=100.0)
    cert2 = certify_pole(half)
    assert cert2.integral_lower_bound == pytest.approx(
        0.25 * 99.0 / (4.0 * math.pi**2), rel=1e-12)
    assert cert2.certified is True and cert2.mu == 0.5
