"""Oracles and symmetries for the per-profile embedding tables, the
closed-form ambient norm F~ and the array F pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from randers import (
    InvalidParameterError,
    NotEmbeddableError,
    SurfacePoint,
    Tangent,
    eval_F,
    make_custom,
    make_paraboloid,
)
from randers import embed
from randers.embed import (
    MinkowskiPoint,
    embed_point,
    eval_F_tilde,
    height,
    minkowski_coefficients,
    pullback_check,
    pushforward,
)
from randers.geodesics import (
    GeodesicState,
    cumulative_F_length,
    cumulative_path_integral,
    integrate_F,
)
from randers.measure import clairaut_verify, f_length, momentum_p2
from randers.zermelo import eval_F_array


def _steep():
    return make_custom("r + r^3/3", "1 + r^2", "2*r", mu=0.5, r_max=1.0)


def _quad_height(profile, r):
    slope = lambda t: math.sqrt(max(1.0 - float(profile.m1(t)) ** 2, 0.0))
    return quad(slope, 0.0, r, epsabs=1e-13, epsrel=1e-13, limit=500)[0]


def _radii(r_end, n=40):
    # random radii plus the table's panel edges and the end of its range
    rng = np.random.default_rng(11)
    return np.concatenate([rng.uniform(0.0, r_end, n), np.arange(0.0, r_end, 0.25),
                           [r_end]])


@pytest.mark.parametrize("name", ["paraboloid-0.3", "paraboloid-1", "sphere", "flat"])
def test_height_matches_scipy_quad(name, parab03, parab, sphere, flat):
    profile = {"paraboloid-0.3": parab03, "paraboloid-1": parab,
               "sphere": sphere, "flat": flat}[name]
    for r in _radii(profile.r_max):
        assert height(profile, float(r)) == pytest.approx(
            _quad_height(profile, float(r)), abs=1e-10)
    assert not any(profile.height_table.by_quad)


def test_height_closed_forms(sphere, flat):
    # sphere m = sin r: z = 1 - cos r; the plane stays at z = 0
    for r in _radii(sphere.r_max):
        assert height(sphere, float(r)) == pytest.approx(1.0 - math.cos(r), abs=1e-14)
        assert height(flat, float(r)) == 0.0


def test_height_bump_up_to_square_root_endpoint(bump):
    # |m'| reaches 1 at 8^(1/4), where the slope has a square-root zero: the
    # panel holding it goes to quad
    r_e = bump.embeddable_radius
    assert r_e == pytest.approx(8.0 ** 0.25, abs=1e-9)
    assert any(bump.height_table.by_quad)
    for r in _radii(r_e):
        assert height(bump, float(r)) == pytest.approx(_quad_height(bump, float(r)),
                                                       abs=1e-10)


def test_embeddable_radius_of_non_embeddable_profiles(bump):
    # bump: 1 - r^4/4 = -(1 + 1e-12); steep: 1 + r^2 = 1 + 1e-12
    assert bump.embeddable_radius == pytest.approx((8.0 + 4e-12) ** 0.25, abs=1e-11)
    assert _steep().embeddable_radius == pytest.approx(1e-6, rel=1e-4)
    assert make_paraboloid(1.0, r_max=7.0).embeddable_radius == 7.0


def test_tables_are_lazy_and_kept_per_profile():
    profile = make_paraboloid(0.7)
    assert "embeddable_radius" not in vars(profile)
    assert "height_table" not in vars(profile)
    embed_point(profile, SurfacePoint(1.0, 0.0))
    table = profile.height_table
    embed_point(profile, SurfacePoint(2.0, 0.0))
    assert profile.height_table is table
    # another instance, equal as a profile, builds its own
    assert make_paraboloid(0.7).height_table is not table


def test_beyond_r_max_or_embeddable_range_raises(bump):
    parab = make_paraboloid(1.0, r_max=5.0)
    for fn in (lambda q: embed_point(parab, q),
               lambda q: pushforward(parab, q, Tangent(1.0, 0.0)),
               lambda q: height(parab, q.r)):
        with pytest.raises(InvalidParameterError):
            fn(SurfacePoint(5.0 + 1e-9, 0.0))
    embed_point(parab, SurfacePoint(5.0, 0.0))  # the end of the range is fine
    with pytest.raises(NotEmbeddableError):
        height(bump, 1.7)
    with pytest.raises(NotEmbeddableError):
        embed_point(_steep(), SurfacePoint(1e-3, 0.0))


def test_eval_F_tilde_matches_matrix_form():
    rng = np.random.default_rng(3)
    for mu in (0.3, 1.0, 2.5):
        for _ in range(200):
            rad = rng.uniform(0.0, 0.999) / mu
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pt = MinkowskiPoint(rad * math.cos(ang), rad * math.sin(ang),
                                float(rng.normal()))
            Y = rng.normal(size=3)
            a, b, _ = minkowski_coefficients(mu, pt)
            F_matrix = math.sqrt(Y @ a @ Y) + b @ Y
            assert eval_F_tilde(mu, pt, Y) == pytest.approx(F_matrix, rel=1e-12)


def test_eval_F_array_matches_scalar_at_every_node(parab):
    q = SurfacePoint(0.8, 0.2)
    F0 = eval_F(parab, q, Tangent(0.6, 0.9))
    path = integrate_F(parab, q, Tangent(0.6 / F0, 0.9 / F0), 12.0)
    t, _ = np.polynomial.legendre.leggauss(8)
    a, b = path.s[:-1], path.s[1:]
    nodes = (0.5 * (a + b))[:, None] + 0.5 * (b - a)[:, None] * t
    y = path.dense(nodes.ravel())
    F = eval_F_array(parab, y[:, 0], y[:, 2], y[:, 3])
    scalar = [eval_F(parab, SurfacePoint(r, th), Tangent(dr, dth))
              for r, th, dr, dth in y.tolist()]
    np.testing.assert_allclose(F, scalar, rtol=1e-15, atol=0.0)
    reference = cumulative_path_integral(
        path, lambda ys: [eval_F(parab, SurfacePoint(max(r, 0.0), th), Tangent(dr, dth))
                          for r, th, dr, dth in ys.tolist()])
    np.testing.assert_allclose(cumulative_F_length(parab, path), reference,
                               rtol=1e-14, atol=0.0)


def test_eval_F_array_checks(parab):
    with pytest.raises(InvalidParameterError):
        eval_F_array(parab, [1.0, 2.0], [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        eval_F_array(parab, [1.0, math.nan], [1.0, 1.0], [0.0, 0.0])


def test_clairaut_verify_matches_per_sample_loop(parab60):
    q = SurfacePoint(1.4, 0.5)
    F0 = eval_F(parab60, q, Tangent(0.3, 0.8))
    path = integrate_F(parab60, q, Tangent(0.3 / F0, 0.8 / F0), 25.0, tol=1e-12)
    mu, nu = parab60.mu, path.nu
    res_h = res_f1 = res_f2 = res_mom = 0.0
    for row_f, row_h in zip(path.states, path.h_preimage.states):
        r, dr, dth_h, dth_f = row_h[0], row_h[2], row_h[3], row_f[3]
        m = float(parab60.m(r))
        speed = math.sqrt((1 + mu * nu) ** 2 + mu * mu * m * m - mu * mu * nu * nu)
        res_h = max(res_h, abs(m * m * dth_h - nu))
        res_f1 = max(res_f1, abs(speed * ((dr / speed) * dr + (m * dth_f / speed)
                                          * (m * dth_h)) - (1 + mu * nu)))
        res_f2 = max(res_f2, abs(m * (m * dth_f / speed) - (nu + mu * m * m) / speed))
        res_mom = max(res_mom, abs(momentum_p2(parab60, GeodesicState(r, 0.0, dr, dth_f))
                                   - nu / (1 + mu * nu)))
    rep = clairaut_verify(parab60, path)
    assert (rep.max_h_residual, rep.max_F1_residual, rep.max_F2_residual,
            rep.max_momentum_residual) == (res_h, res_f1, res_f2, res_mom)


def test_domain_exit_path_embeds(parab):
    # the exit sample lies on r = r_max exactly, so the whole path embeds
    q = SurfacePoint(1.0, 0.0)
    F0 = eval_F(parab, q, Tangent(math.cos(0.1), math.sin(0.1) / float(parab.m(1.0))))
    path = integrate_F(parab, q, Tangent(math.cos(0.1) / F0,
                                         math.sin(0.1) / float(parab.m(1.0)) / F0), 40.0)
    assert path.exit_reason == "domain-exit" and path.states[-1, 0] == parab.r_max
    for r, th, dr, dth in path.states.tolist():
        embed_point(parab, SurfacePoint(r, th))
        assert pullback_check(parab, SurfacePoint(r, th), Tangent(dr, dth)) <= 1e-9
    assert f_length(parab, path) == pytest.approx(path.length, rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(r=st.floats(0.0, 19.9), theta=st.floats(-10.0, 10.0),
       alpha=st.floats(-10.0, 10.0), ang=st.floats(0.0, 2.0 * math.pi),
       scale=st.floats(0.1, 10.0))
def test_rotation_invariance(r, theta, alpha, ang, scale):
    # the wind, the surface and the cylinder are all invariant under
    # theta -> theta + alpha, so F~ of the image and the residual are too, up
    # to rounding in proportion to F~
    parab = make_paraboloid(1.0)
    v = Tangent(scale * math.cos(ang), scale * math.sin(ang))
    q, q_rot = SurfacePoint(r, theta), SurfacePoint(r, theta + alpha)
    F_t, F_rot = (eval_F_tilde(parab.mu, embed_point(parab, p), pushforward(parab, p, v))
                  for p in (q, q_rot))
    assert F_rot == pytest.approx(F_t, rel=1e-13)
    res, res_rot = pullback_check(parab, q, v), pullback_check(parab, q_rot, v)
    assert abs(res_rot - res) <= 1e-13 * F_t
    assert res_rot <= 1e-13 * F_t


def test_height_table_quad_panels_are_counted(monkeypatch, bump):
    # the table's quad calls go through embed.quad, the name the benchmark's
    # tracer counts; a built table answers without any
    fresh = make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)
    calls = []
    real = embed.quad
    monkeypatch.setattr(embed, "quad", lambda *a, **k: calls.append(1) or real(*a, **k))
    height(fresh, 1.0)
    assert len(calls) == sum(fresh.height_table.by_quad) > 0
    calls.clear()
    height(fresh, 1.0)
    height(fresh, 1.3)
    assert calls == []
