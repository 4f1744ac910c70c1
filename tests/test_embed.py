import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers import (
    InternalConsistencyError,
    InvalidParameterError,
    NotEmbeddableError,
    SurfacePoint,
    Tangent,
    eval_F,
    make_custom,
)
from randers.embed import (
    MinkowskiPoint,
    assert_embeddable,
    cylinder_margin,
    embed_point,
    eval_F_tilde,
    export_mesh_obj,
    height,
    minkowski_coefficients,
    pullback_check,
    pullback_report,
    pushforward,
)
from randers.geodesics import (
    GeodesicState, cumulative_path_integral, integrate_F, integrate_h, twist,
)

# independent tanh-sinh evaluation of int_0^1 sqrt(1 - (t^2+1)^-3) dt
Z_AT_ONE = 0.61630989629918104381


def test_embed_point_spot_values(parab):
    p0 = embed_point(parab, SurfacePoint(0.0, 0.0))
    assert (p0.x, p0.y, p0.z) == (0.0, 0.0, 0.0)
    p1 = embed_point(parab, SurfacePoint(1.0, 0.0))
    assert p1.x == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert p1.y == 0.0
    assert p1.z == pytest.approx(Z_AT_ONE, abs=1e-10)
    # rotation by pi flips x, y and keeps the height
    p2 = embed_point(parab, SurfacePoint(1.0, math.pi))
    assert p2.x == pytest.approx(-p1.x, abs=1e-15)
    assert p2.z == p1.z


def test_height_is_cumulative(parab):
    assert height(parab, 0.0) == 0.0
    assert height(parab, 1.0) == pytest.approx(Z_AT_ONE, abs=1e-10)
    assert height(parab, 2.0) > height(parab, 1.0)


def test_pushforward_spot_values(parab):
    q = SurfacePoint(1.0, 0.0)
    Y = pushforward(parab, q, Tangent(1.0, 0.0))
    np.testing.assert_allclose(Y, [2.0**-1.5, 0.0, math.sqrt(7.0 / 8.0)],
                               atol=1e-14)
    Y2 = pushforward(parab, q, Tangent(0.0, 1.0))
    np.testing.assert_allclose(Y2, [0.0, 1.0 / math.sqrt(2.0), 0.0],
                               atol=1e-14)
    # linearity: zero vector maps to zero
    np.testing.assert_array_equal(pushforward(parab, q, Tangent(0.0, 0.0)),
                                  np.zeros(3))


def test_eval_F_tilde_spot_values(parab):
    q = SurfacePoint(1.0, 0.0)
    pt = embed_point(parab, q)
    F_rad = eval_F_tilde(1.0, pt, pushforward(parab, q, Tangent(1.0, 0.0)))
    F_ang = eval_F_tilde(1.0, pt, pushforward(parab, q, Tangent(0.0, 1.0)))
    assert F_rad == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert F_ang == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    # the surface norm agrees at the same tolerance: the isometry in action
    assert eval_F(parab, q, Tangent(1.0, 0.0)) == pytest.approx(F_rad, abs=1e-12)
    assert eval_F(parab, q, Tangent(0.0, 1.0)) == pytest.approx(F_ang, abs=1e-12)


def test_F_tilde_on_axis():
    # at the axis lambda~ = 1 and b~ = 0, so F~ of an axial vector is |Y3|
    origin = MinkowskiPoint(0.0, 0.0, 0.5)
    assert eval_F_tilde(1.0, origin, [0.0, 0.0, -2.5]) == pytest.approx(2.5)
    with pytest.raises(InvalidParameterError):
        eval_F_tilde(1.0, origin, [0.0, 0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        eval_F_tilde(1.0, MinkowskiPoint(2.0, 0.0, 0.0), [1.0, 0.0, 0.0])


def test_eval_F_tilde_takes_a_tuple_or_an_array(parab):
    # the same vector as a tuple of floats, a list or an ndarray (what
    # pushforward returns) gives the same value, bit for bit
    q = SurfacePoint(1.3, 0.4)
    pt = embed_point(parab, q)
    for v in (Tangent(1.0, 0.0), Tangent(0.3, -0.7), Tangent(-0.2, 1.1)):
        Y = pushforward(parab, q, v)
        value = eval_F_tilde(parab.mu, pt, Y)
        assert eval_F_tilde(parab.mu, pt, tuple(Y.tolist())) == value
        assert eval_F_tilde(parab.mu, pt, Y.tolist()) == value
        assert value == pytest.approx(eval_F(parab, q, v), abs=1e-12)
    for zero in ((0.0, 0.0, 0.0), (0.0, -0.0, 0.0), np.zeros(3)):
        with pytest.raises(InvalidParameterError):
            eval_F_tilde(parab.mu, pt, zero)


def test_minkowski_coefficients_structure():
    pt = MinkowskiPoint(0.3, -0.2, 1.0)
    a, b, lam = minkowski_coefficients(1.0, pt)
    assert lam == pytest.approx(1.0 - 0.13)
    assert a[2, 2] == pytest.approx(1.0 / lam)
    assert a[0, 1] == a[1, 0]
    assert b[2] == 0.0
    # wind direction: b ~ (mu y, -mu x, 0)/lam
    assert b[0] == pytest.approx(-0.2 / lam)
    assert b[1] == pytest.approx(-0.3 / lam)


@pytest.mark.parametrize("mu,seed", [(0.3, 101), (1.0, 102)])
def test_pullback_isometry(mu, seed):
    from randers import make_paraboloid
    profile = make_paraboloid(mu)
    rep = pullback_report(profile, seed=seed)
    assert rep["max_residual"] <= 1e-9
    assert rep["samples"] == 1000 and rep["mu"] == mu


def test_pullback_unit_speed_direction(parab):
    # the twisted-meridian direction has F = 1; the image must satisfy F~ = 1
    base = integrate_h(parab, GeodesicState(0.7, 0.0, 1.0, 0.0), 1.0)
    P = twist(base, parab.mu)
    st = P.state_at(0.5)
    res = pullback_check(parab, SurfacePoint(st.r, st.theta),
                         Tangent(st.dr, st.dtheta))
    assert res <= 1e-12


def test_radial_height_map_fails_documented(parab):
    # the raw height z = r does not pull the ambient metric back to the
    # navigation metric; on the radial direction the failure has a
    # hand-computable size: pullback a11 = (1 + m'^2)/lam = 2.25 instead of
    # a11 = 2 at r = 1
    res = pullback_check(parab, SurfacePoint(1.0, 0.0), Tangent(1.0, 0.0),
                         height_map="radial")
    assert res == pytest.approx(math.sqrt(2.25) - math.sqrt(2.0), abs=1e-12)


def test_embedded_path_length_matches(parab):
    # the ambient F~-length of the embedded twisted meridian is its F-length
    base = integrate_h(parab, GeodesicState(0.5, 0.0, 1.0, 0.0), 2.0)
    P = twist(base, parab.mu)

    def F_tilde(states):
        return [eval_F_tilde(parab.mu, embed_point(parab, SurfacePoint(r, th)),
                             pushforward(parab, SurfacePoint(r, th), Tangent(dr, dth)))
                for r, th, dr, dth in states.tolist()]

    assert cumulative_path_integral(P, F_tilde)[-1] == pytest.approx(2.0, abs=1e-8)
    # ... while the embedded twisted meridian is not a straight line
    pts = []
    for s in (0.0, 1.0, 2.0):
        st = P.state_at(s)
        pts.append(embed_point(parab, SurfacePoint(st.r, st.theta)))
    a, b = np.diff([[p.x, p.y, p.z] for p in pts], axis=0)
    assert np.linalg.norm(np.cross(a, b)) > 1e-3


def test_cylinder_containment(parab, rng):
    for _ in range(100):
        q = SurfacePoint(float(rng.uniform(0.0, parab.r_max)),
                         float(rng.uniform(0.0, 2.0 * math.pi)))
        pt = embed_point(parab, q)
        assert pt.x**2 + pt.y**2 < 1.0 / parab.mu**2
        assert cylinder_margin(parab.mu, pt) > 0.0


def test_not_embeddable_profiles():
    steep = make_custom("r + r^3/3", "1 + r^2", "2*r", mu=0.5, r_max=1.0)
    with pytest.raises(NotEmbeddableError):
        embed_point(steep, SurfacePoint(0.5, 0.0))
    # bump profile: |m'| exceeds 1 beyond 8^(1/4) ~ 1.68
    bump = make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)
    embed_point(bump, SurfacePoint(1.5, 0.0))  # fine inside
    with pytest.raises(NotEmbeddableError):
        embed_point(bump, SurfacePoint(1.75, 0.0))


def test_mesh_export(tmp_path, parab):
    fn = tmp_path / "surface.obj"
    export_mesh_obj(parab, fn, r_max=3.0)
    lines = fn.read_text().strip().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 1 + 48 * 96
    assert len(faces) == 96 + 47 * 96 * 2
    vv = np.array([[float(x) for x in l.split()[1:]] for l in verts])
    # all vertices inside the cylinder
    assert np.all(vv[:, 0]**2 + vv[:, 1]**2 < 1.0 / parab.mu**2)
    # outward orientation: interior faces have normals with positive radial dot
    f0 = [int(i) - 1 for i in faces[96].split()[1:]]
    a, b, c = vv[f0[0]], vv[f0[1]], vv[f0[2]]
    n = np.cross(b - a, c - a)
    center = (a + b + c) / 3.0
    assert n[0] * center[0] + n[1] * center[1] > 0.0
    # apex fan points down the axis
    fa = [int(i) - 1 for i in faces[0].split()[1:]]
    n_apex = np.cross(vv[fa[1]] - vv[fa[0]], vv[fa[2]] - vv[fa[0]])
    assert n_apex[2] < 0.0


def _embed_launch(profile, r0, theta0, phi, length):
    """An F-geodesic launched as `randers geodesic --embed` launches one:
    an h-unit heading phi from the meridian, scaled to F-unit."""
    q = SurfacePoint(r0, theta0)
    y = Tangent(math.cos(phi), math.sin(phi) / float(profile.m(r0)))
    F0 = eval_F(profile, q, y)
    return integrate_F(profile, q, Tangent(y.y1 / F0, y.y2 / F0), length, tol=1e-12)


def test_pullback_check_equals_the_embedding_residual(parab60):
    # the certificate builds the image point without its height; the value
    # must be the residual of the full embedding, bit for bit
    paths = [_embed_launch(parab60, 1.4, 0.6, 2.2, 20.0),
             integrate_F(parab60, SurfacePoint(0.0, math.pi / 4.0), Tangent(1.0, 0.0),
                         12.0, tol=1e-12)]
    for path in paths:
        for r, th, dr, dth in path.states.tolist():
            q, v = SurfacePoint(max(r, 0.0), th), Tangent(dr, dth)
            full = abs(eval_F(parab60, q, v)
                       - eval_F_tilde(parab60.mu, embed_point(parab60, q),
                                      pushforward(parab60, q, v)))
            assert pullback_check(parab60, q, v) == full
            assert full <= 1e-12


def test_points_and_tangents_from_state_rows_hold_floats(parab60):
    # the rows of path.states are np.float64; the point and the tangent hold
    # Python floats, and the certificate reads the same value bit for bit
    path = _embed_launch(parab60, 1.4, 0.6, 2.2, 5.0)
    for row, floats in zip(path.states, path.states.tolist()):
        assert type(row[0]) is np.float64
        q, v = SurfacePoint(max(row[0], 0.0), row[1]), Tangent(row[2], row[3])
        assert all(type(x) is float for x in (q.r, q.theta, v.y1, v.y2))
        assert (q.r, q.theta, v.y1, v.y2) == (max(floats[0], 0.0), *floats[1:])
        want = pullback_check(parab60, SurfacePoint(max(floats[0], 0.0), floats[1]),
                              Tangent(floats[2], floats[3]))
        assert pullback_check(parab60, q, v) == want


@pytest.mark.parametrize("bad", ["1.0", None, [1.0], np.array([1.0]), 1 + 0j])
def test_points_and_tangents_reject_non_numbers(bad):
    # no string or container is read as a number
    for build in (lambda: SurfacePoint(bad, 0.0), lambda: SurfacePoint(1.0, bad),
                  lambda: Tangent(bad, 0.0), lambda: Tangent(0.0, bad)):
        with pytest.raises(InvalidParameterError):
            build()


@given(x=st.floats(-0.7, 0.7), y=st.floats(-0.7, 0.7), z=st.floats(-50.0, 50.0),
       Y=st.tuples(*[st.floats(-3.0, 3.0)] * 3).filter(lambda Y: any(Y)))
@settings(max_examples=200)
def test_eval_F_tilde_ignores_the_height(x, y, z, Y):
    mu = 1.0
    assert eval_F_tilde(mu, MinkowskiPoint(x, y, z), Y) \
        == eval_F_tilde(mu, MinkowskiPoint(x, y, 0.0), Y)


@pytest.mark.parametrize("height_map", ["arclength", "radial"])
def test_pullback_check_raises_outside_the_embedding(parab, height_map):
    v = Tangent(1.0, 0.2)
    bump = make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)
    pullback_check(bump, SurfacePoint(1.5, 0.0), v, height_map=height_map)
    with pytest.raises(NotEmbeddableError):   # |m'| > 1 beyond r ~ 1.68
        pullback_check(bump, SurfacePoint(1.75, 0.0), v, height_map=height_map)
    with pytest.raises(InvalidParameterError, match="beyond r_max"):
        pullback_check(parab, SurfacePoint(1.01 * parab.r_max, 0.0), v,
                       height_map=height_map)


def _composed_pullback_check(profile, q, v, height_map="arclength"):
    """The certificate as a composition of the public functions, each of
    which reads the warp itself: what pullback_check must equal bit for
    bit, exceptions included."""
    if height_map not in ("arclength", "radial"):
        raise InvalidParameterError(f"unknown height map {height_map!r}")
    assert_embeddable(profile, q.r)
    F_surface = eval_F(profile, q, v)
    m = float(profile.m(q.r))
    m1 = float(profile.m1(q.r))
    ct, st = math.cos(q.theta), math.sin(q.theta)
    dz = math.sqrt(max(1.0 - m1 * m1, 0.0)) if height_map == "arclength" else 1.0
    point = MinkowskiPoint(m * ct, m * st, 0.0)
    Y = (m1 * ct * v.y1 - m * st * v.y2, m1 * st * v.y1 + m * ct * v.y2, dz * v.y1)
    return abs(F_surface - eval_F_tilde(profile.mu, point, Y))


def _outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("height_map", ["arclength", "radial"])
@pytest.mark.parametrize("surface", ["parab60", "sphere"])
def test_pullback_check_matches_the_composed_certificate(surface, height_map, request):
    profile = request.getfixturevalue(surface)
    rng = np.random.default_rng(1700 + len(surface) + len(height_map))
    n = 1200
    r = rng.uniform(0.0, profile.r_max, n)
    r[:3] = (0.0, 1e-9, profile.r_max)
    theta = rng.uniform(-40.0, 40.0, n)
    ang = rng.uniform(-math.pi, math.pi, n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    for ri, th, a, sc in zip(r.tolist(), theta.tolist(), ang.tolist(), scale.tolist()):
        q, v = SurfacePoint(ri, th), Tangent(sc * math.cos(a), sc * math.sin(a))
        # near r_max of parab60, mu m is within 2e-4 of 1 and the dual-form
        # check of eval_F may raise; the certificate must raise alike
        got = _outcome(pullback_check, profile, q, v, height_map)
        assert got == _outcome(_composed_pullback_check, profile, q, v, height_map), (q, v)
        assert type(got) is float or got[0] is InternalConsistencyError


def test_pullback_check_raises_as_the_composed_certificate(parab60, bump):
    cases = [
        (parab60, SurfacePoint(61.0, 0.3), Tangent(1.0, 0.2), "arclength"),
        (parab60, SurfacePoint(61.0, 0.3), Tangent(0.0, 0.0), "radial"),
        (bump, SurfacePoint(1.75, 0.0), Tangent(1.0, 0.2), "arclength"),
        (bump, SurfacePoint(1.75, 0.0), Tangent(0.0, 0.0), "radial"),
        (parab60, SurfacePoint(2.0, 0.1), Tangent(0.0, 0.0), "arclength"),
        (parab60, SurfacePoint(2.0, 0.1), Tangent(1.0, 0.0), "conformal"),
    ]
    expected = [InvalidParameterError, InvalidParameterError, NotEmbeddableError,
                NotEmbeddableError, InvalidParameterError, InvalidParameterError]
    for (profile, q, v, height_map), cls in zip(cases, expected):
        got = _outcome(pullback_check, profile, q, v, height_map)
        assert got == _outcome(_composed_pullback_check, profile, q, v, height_map)
        assert got[0] is cls


@pytest.mark.parametrize("height_map", ["arclength", "radial"])
def test_pullback_check_evaluates_the_warp_once(height_map):
    calls = {"m": 0, "m1": 0}

    def counted(key, fn):
        def f(r):
            calls[key] += 1
            return fn(r)
        return f

    profile = make_custom(counted("m", np.sin), counted("m1", np.cos),
                          lambda r: -np.sin(r), mu=0.2, r_max=2.8)
    profile.embeddable_radius  # a per-profile fact, computed on first use
    calls.update(m=0, m1=0)
    value = pullback_check(profile, SurfacePoint(1.1, 0.4), Tangent(0.3, -0.8),
                           height_map=height_map)
    assert calls == {"m": 1, "m1": 1}
    assert value == _composed_pullback_check(profile, SurfacePoint(1.1, 0.4),
                                             Tangent(0.3, -0.8), height_map)


@pytest.mark.parametrize("mu, point, Y", [
    (1.0, (math.nan, 0.0, 0.0), (1.0, 0.0, 0.0)),
    (1.0, (0.1, -math.inf, 0.0), (1.0, 0.0, 0.0)),
    (1.0, (0.1, 0.2, math.nan), (1.0, 0.0, 0.0)),
    (1.0, (0.1, 0.2, 0.0), (1.0, math.nan, 0.0)),
    (1.0, (0.1, 0.2, 0.0), (1.0, 0.0, math.inf)),
    (math.nan, (0.1, 0.2, 0.0), (1.0, 0.0, 0.0)),
    (math.inf, (0.1, 0.2, 0.0), (1.0, 0.0, 0.0)),
    (1.0, (0.1, 0.2, 0.0), (1.0, 0.0)),
    (1.0, (0.1, 0.2, 0.0), (1.0, 0.0, 0.0, 0.0)),
    (1.0, (0.1, 0.2, 0.0), np.ones(2)),
    (1.0, (0.1, 0.2, 0.0), 1.0),
])
def test_eval_F_tilde_rejects_bad_input(mu, point, Y):
    with pytest.raises(InvalidParameterError):
        eval_F_tilde(mu, MinkowskiPoint(*point), Y)


def test_minkowski_point_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        for coords in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(InvalidParameterError):
                MinkowskiPoint(*coords)
