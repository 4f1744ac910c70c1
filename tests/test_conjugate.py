import json
import math

import numpy as np
import pytest

from randers import (
    InvalidParameterError,
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
    opposite_meridian_chain,
    verify_cut_point,
)
from randers.geodesics import GeodesicState, integrate_h, twist
from randers.measure import TwoRadiusConnectors, distance_F


def test_jacobi_along_meridian_equals_warp(parab):
    base = integrate_h(parab, GeodesicState(0.0, 0.0, 1.0, 0.0), 20.0)
    jac = jacobi_integrate(parab, base, 0.0, 1.0, 20.0, tol=1e-12)
    warp = np.array([float(parab.m(s)) for s in jac.s])
    assert np.abs(jac.y - warp).max() <= 1e-9
    assert jac.first_zero is None


def test_jacobi_flat_profile_is_linear(flat):
    base = integrate_h(flat, GeodesicState(1.0, 0.0, 1.0, 0.0), 5.0)
    jac = jacobi_integrate(flat, base, -1.0, 1.0, 5.0, tol=1e-12)
    # y'' = 0: y(s) = -1 + s, zero at s = 1
    assert jac.first_zero == pytest.approx(1.0, abs=1e-10)
    idx = np.searchsorted(jac.s, 3.0)
    assert jac.y[idx] == pytest.approx(jac.s[idx] - 1.0, abs=1e-10)


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


def test_first_conjugate_errors(parab, flat, bump):
    with pytest.raises(InvalidParameterError):
        first_conjugate(parab, SurfacePoint(0.0, 0.0))
    with pytest.raises(SearchHorizonError) as exc:
        first_conjugate(flat, SurfacePoint(1.0, 0.0))
    assert exc.value.lower_bound is not None
    with pytest.raises(InvalidParameterError):
        first_conjugate(bump, SurfacePoint(1.0, 0.0))  # not von Mangoldt


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


def test_cut_locus_exports(tmp_path, parab):
    arc = cut_locus(parab, SurfacePoint(1.0, 0.0), s_export_max=3.0,
                    n_samples=5)
    js = tmp_path / "arc.json"
    arc.to_json(js)
    doc = json.loads(js.read_text())
    assert doc["q"] == {"r": 1.0, "theta": 0.0}
    assert doc["rho"] == 1.0
    assert doc["c"] == pytest.approx(2.0, abs=1e-8)
    assert len(doc["samples"]) == 5 and len(doc["samples"][0]) == 3
    csv = tmp_path / "arc.csv"
    arc.to_csv(csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "s,r,theta" and len(lines) == 6


def test_verify_cut_point_positive(parab):
    q = SurfacePoint(1.0, 0.0)
    arc = cut_locus(parab, q, s_export_max=3.5, n_samples=7)
    i = int(np.argmin(np.abs(arc.s - 3.0)))
    chk = verify_cut_point(parab, q, arc.point_at_index(i), tol=1e-5,
                           n_scan=360)
    assert chk.verified
    assert chk.n_minimizers == 2
    assert chk.equal_length_gap <= 1e-5
    # the two minimizing headings are h-mirror images
    h1, h2 = chk.segments[0][0], chk.segments[1][0]
    assert h1 == pytest.approx(-h2, abs=1e-5)
    d = chk.to_dict()
    assert d["verified"] is True and len(d["segments"]) == len(chk.segments)


def test_verify_cut_point_negative_control(parab):
    q = SurfacePoint(1.0, 0.0)
    base = integrate_h(parab, GeodesicState(1.0, 0.0, -1.0, 0.0), 1.8)
    st = twist(base, parab.mu).state_at(1.5)
    chk = verify_cut_point(parab, q, SurfacePoint(st.r, st.theta), tol=1e-5,
                           n_scan=360)
    assert not chk.verified
    assert chk.n_minimizers == 1
    assert chk.d_F == pytest.approx(1.5, abs=1e-8)


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
    d = cert2.to_dict()
    assert d["certified"] is True and d["mu"] == 0.5
