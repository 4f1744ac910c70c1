import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from randers import (
    InvalidParameterError,
    SurfacePoint,
    Tangent,
    gauss_curvature,
    geodesic_parallels,
    is_von_mangoldt,
    load_surface,
    make_custom,
    make_paraboloid,
    wrap_angle,
)
from randers.profile import roots_on_grid, roots_on_grids, wrap_angles


def test_paraboloid_closed_forms(parab):
    assert float(parab.m(0.0)) == 0.0
    assert float(parab.m(1.0)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert float(parab.m1(1.0)) == pytest.approx(2.0**-1.5, abs=1e-15)
    # m'(r) = (mu^2 r^2 + 1)^{-3/2}, m''(r) = -3 mu^2 r (mu^2 r^2 + 1)^{-5/2}
    for r in (0.3, 1.0, 2.7, 9.0):
        assert float(parab.m1(r)) == pytest.approx((r * r + 1.0) ** -1.5,
                                                   abs=1e-12)
        assert float(parab.m2(r)) == pytest.approx(
            -3.0 * r * (r * r + 1.0) ** -2.5, abs=1e-12)


@pytest.mark.parametrize("profile_name", ["parab", "sphere", "bump"])
def test_derivatives_match_finite_differences(profile_name, request, rng):
    p = request.getfixturevalue(profile_name)
    h = 1e-5
    for r in rng.uniform(2 * h, p.r_max - 2 * h, 100):
        fd1 = (p.m(r + h) - p.m(r - h)) / (2 * h)
        fd2 = (p.m(r + h) - 2.0 * p.m(r) + p.m(r - h)) / (h * h)
        assert abs(p.m1(r) - fd1) <= 1e-6 * max(1.0, abs(p.m1(r)))
        assert abs(p.m2(r) - fd2) <= 1e-6 * max(1.0, abs(p.m2(r))) * 10
        assert float(p.m(r)) > 0.0


def test_boundedness_margin(parab):
    assert parab.boundedness_margin() > 0.0
    # closed form at r_max = 20: 1 - 20/sqrt(401)
    assert parab.boundedness_margin() == pytest.approx(
        1.0 - 20.0 / math.sqrt(401.0), abs=1e-9)


def test_gauss_curvature_paraboloid(parab):
    # G(r) = 3 mu^2 / (mu^2 r^2 + 1)^2
    assert gauss_curvature(parab, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert gauss_curvature(parab, 0.0) == pytest.approx(3.0, abs=1e-8)
    assert gauss_curvature(parab, 2.0) == pytest.approx(3.0 / 25.0, abs=1e-12)


def test_gauss_curvature_flat_profile(flat):
    for r in (0.0, 0.5, 3.0):
        assert gauss_curvature(flat, r) == 0.0
    with pytest.raises(InvalidParameterError):
        gauss_curvature(flat, -1.0)


def test_von_mangoldt_verdicts(parab, bump):
    ok = is_von_mangoldt(parab, np.arange(0.0, 10.0, 0.01))
    assert ok.is_von_mangoldt and ok.violation_index is None
    bad = is_von_mangoldt(bump, np.linspace(0.01, 1.7, 200))
    assert not bad.is_von_mangoldt
    assert bad.violation_index is not None
    assert bad.violation_radius == pytest.approx(
        np.linspace(0.01, 1.7, 200)[bad.violation_index])
    # single-point grid is vacuously monotone
    assert is_von_mangoldt(parab, [1.0]).is_von_mangoldt
    with pytest.raises(InvalidParameterError):
        is_von_mangoldt(parab, [])


def _von_mangoldt_loop(profile, grid):
    """The scalar loop is_von_mangoldt ran before it evaluated G in one
    array call: (verdict, violation index)."""
    g = np.array([gauss_curvature(profile, float(r)) for r in grid])
    rising = np.nonzero(np.diff(g) > 1e-10)[0]
    return rising.size == 0, int(rising[0]) + 1 if rising.size else None


@pytest.mark.parametrize("name,grid", [
    ("parab", np.arange(0.0, 10.0, 0.01)),
    ("bump", np.linspace(0.01, 1.7, 200)),
    ("flat", np.linspace(0.0, 20.0, 1024)),
    ("sphere", np.linspace(0.0, 2.8, 1024)),
    ("parab", np.linspace(0.0, 20.0, 1024)),
])
def test_gauss_curvature_array_matches_scalar_loop(request, name, grid):
    profile = request.getfixturevalue(name)
    want = np.array([gauss_curvature(profile, float(r)) for r in grid])
    got = gauss_curvature(profile, grid)
    assert got.shape == grid.shape
    # the r_eps clamp included; scalar and array powers may differ in the last bit
    np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)
    check = is_von_mangoldt(profile, grid)
    assert (check.is_von_mangoldt, check.violation_index) == _von_mangoldt_loop(profile, grid)
    if name == "bump":
        assert not check.is_von_mangoldt
    with pytest.raises(InvalidParameterError):
        gauss_curvature(profile, np.array([0.5, -1e-3, 1.0]))


def test_geodesic_parallels(parab, bump):
    assert geodesic_parallels(parab, np.linspace(0.0, 20.0, 200)) == []
    roots = geodesic_parallels(bump, np.linspace(0.0, 1.8, 50))
    assert len(roots) == 1
    # m'(r) = 1 - r^4/4 vanishes at r = sqrt(2)
    assert roots[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert geodesic_parallels(bump, [0.5]) == []


def test_roots_on_grid():
    grid = np.linspace(0.0, 3.0, 7)
    # an exact zero at a grid point is kept as it stands
    f = lambda x: x - 1.5
    assert roots_on_grid(f, grid, [f(x) for x in grid], xtol=1e-12) == [1.5]
    # one sign change, refined inside its bracket
    f = lambda x: x * x - 2.0
    (root,) = roots_on_grid(f, grid, [f(x) for x in grid], xtol=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # none
    f = lambda x: x + 1.0
    assert roots_on_grid(f, grid, [f(x) for x in grid], xtol=1e-12) == []
    # several, in increasing order
    grid = np.linspace(0.1, 10.0, 200)
    roots = roots_on_grid(math.sin, grid, np.sin(grid), xtol=1e-12)
    np.testing.assert_allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi],
                               rtol=0, atol=1e-12)
    # bracket ends are answered from the values: f runs only inside
    calls = []
    f = lambda x: calls.append(x) or x - 0.7
    roots_on_grid(f, [0.0, 1.0], [-0.7, 0.3], xtol=1e-12)
    assert calls and all(0.0 < x < 1.0 for x in calls)


def test_roots_on_grids_matches_roots_on_grid():
    """Rows of sin(w x) refined together, against roots_on_grid row by row;
    sin(w * 0) = 0 is an exact zero at a grid point, and xtol is per row."""
    grid = np.linspace(0.0, 10.0, 23)
    w = np.array([0.7, 1.0, 1.9, 3.1, 0.2])
    xtol = np.array([1e-12, 1e-9, 1e-12, 1e-6, 1e-12])
    calls = []

    def f(rows, x):
        calls.append((rows.copy(), x.copy()))
        return np.sin(w[rows] * x)

    values = np.sin(w[:, None] * grid)
    rows, roots = roots_on_grids(f, grid, values, xtol)
    for i in range(w.size):
        want = roots_on_grid(lambda x: math.sin(w[i] * x), grid, values[i], xtol=xtol[i])
        assert len(want) == np.count_nonzero(rows == i)
        np.testing.assert_allclose(roots[rows == i], want, rtol=0, atol=2.0 * xtol[i])
        np.testing.assert_allclose(roots[rows == i], np.arange(len(want)) * math.pi / w[i],
                                   rtol=0, atol=xtol[i])
    assert np.all(np.diff(rows) >= 0)
    # one call per iteration, over every open bracket; a root is a grid
    # point or a point where f ran
    n_brackets = np.count_nonzero(values[:, :-1] * values[:, 1:] < 0.0)
    assert calls[0][0].size == n_brackets and len(calls) <= 8
    ran = {(int(r), float(x)) for rs, xs in calls for r, x in zip(rs, xs)}
    assert all((int(r), float(x)) in ran or x in grid for r, x in zip(rows, roots))
    # no sign change, no call
    calls.clear()
    rows, roots = roots_on_grids(f, grid, np.ones((2, grid.size)), 1e-12)
    assert rows.size == roots.size == 0 and not calls


def _wave(w, p, v, q):
    """(1.5 + sin(v x + q)) sin(w x + p): an oscillating function whose
    roots are those of sin(w x + p)."""
    return lambda x: (1.5 + math.sin(v * x + q)) * math.sin(w * x + p)


@settings(max_examples=300, deadline=None)
@given(grid=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30, unique=True).map(sorted),
       waves=st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 7.0),
                                st.floats(0.0, 9.0), st.floats(0.0, 7.0)),
                      min_size=1, max_size=4),
       xtol=st.lists(st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3]),
                     min_size=4, max_size=4))
def test_roots_on_grid_is_roots_on_grids_bit_for_bit(grid, waves, xtol):
    """roots_on_grid on floats and roots_on_grids on arrays take the same
    Chandrupatla steps, so they return the same roots bit for bit; f runs
    only strictly inside the brackets; and where a bracket holds one root,
    brentq on it agrees to the tolerance."""
    fs = [_wave(*wave) for wave in waves]
    xtol = xtol[:len(fs)]
    values = np.array([[f(x) for x in grid] for f in fs])
    inside = []

    def f_rows(rows, x):
        inside.extend(x.tolist())
        return np.array([fs[i](xi) for i, xi in zip(rows.tolist(), x.tolist())])

    rows, roots = roots_on_grids(f_rows, grid, values, np.array(xtol))
    brackets = list(zip(grid, grid[1:]))
    for i, (f, (w, p, _, _)) in enumerate(zip(fs, waves)):
        calls = []
        single = roots_on_grid(lambda x: calls.append(x) or f(x), grid, values[i], xtol[i])
        assert single == roots[rows == i].tolist()
        inside.extend(calls)
        for a, b in brackets:
            fa, fb = f(a), f(b)
            # sin(w x + p) vanishes at (k pi - p) / w; one k in the bracket,
            # away from its ends, is one root
            ks = (w * a + p) / math.pi, (w * b + p) / math.pi
            if not (fa * fb < 0.0 and math.floor(ks[1]) - math.floor(ks[0]) == 1
                    and min(abs(k - round(k)) for k in ks) > 1e-6):
                continue
            (root,) = [r for r in single if a <= r <= b]
            tol = xtol[i] + 4.0 * np.finfo(float).eps * max(abs(a), abs(b))
            assert abs(root - brentq(f, a, b, xtol=xtol[i])) <= 2.0 * tol
    assert all(any(a < x < b for a, b in brackets) for x in inside)


def test_roots_on_grid_settles_narrow_brackets_without_calls():
    """A grid bracket already narrower than the tolerance is a root as it
    stands: f does not run, on floats or on arrays."""
    calls = []
    f = lambda x: calls.append(x) or x - 1.0 - 5e-15
    grid = [1.0, 1.0 + 1e-14]
    assert roots_on_grid(f, grid, [-5e-15, 4e-15], xtol=1e-12) == [grid[1]]
    assert roots_on_grid(f, grid, [-3e-15, 4e-15], xtol=1e-12) == [grid[0]]
    rows, roots = roots_on_grids(lambda rows, x: calls.append(x) or x, grid,
                                 [[-5e-15, 4e-15]], 1e-12)
    assert rows.tolist() == [0] and roots.tolist() == [grid[1]] and not calls


@pytest.mark.parametrize("build", [
    lambda: make_custom("r", "1", "0", mu=float("nan"), r_max=10.0),
    lambda: make_custom("r", "1", "0", mu=0.04, r_max=float("nan")),
    lambda: make_paraboloid(1.0, r_max=float("nan")),
    lambda: SurfacePoint(float("nan"), 0.0),
    lambda: SurfacePoint(float("inf"), 0.0),
    lambda: SurfacePoint(1.0, float("nan")),
    lambda: Tangent(float("nan"), 1.0),
    lambda: Tangent(1.0, float("inf")),
], ids=["custom-mu-nan", "custom-rmax-nan", "paraboloid-rmax-nan", "point-r-nan",
        "point-r-inf", "point-theta-nan", "tangent-nan", "tangent-inf"])
def test_rejects_non_finite_input(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_profile_construction_errors():
    with pytest.raises(InvalidParameterError):
        make_paraboloid(0.0)
    with pytest.raises(InvalidParameterError):
        make_paraboloid(-1.0)
    # m(0) != 0
    with pytest.raises(InvalidParameterError):
        make_custom("r + 1", "1", "0", mu=0.1, r_max=1.0)
    # m'(0) != 1
    with pytest.raises(InvalidParameterError):
        make_custom("2*r", "2", "0", mu=0.1, r_max=1.0)
    # boundedness violated: m = r with mu * r_max >= 1
    with pytest.raises(InvalidParameterError):
        make_custom("r", "1", "0", mu=0.2, r_max=10.0)
    # inconsistent derivative data
    with pytest.raises(InvalidParameterError):
        make_custom("r", "1 + r", "0", mu=0.04, r_max=10.0)


def test_surface_point_and_wrap():
    q = SurfacePoint(2.0, 7.0)
    assert q.r == 2.0 and q.theta == 7.0     # theta stored unreduced
    assert wrap_angle(7.0) == pytest.approx(7.0 - 2.0 * math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    with pytest.raises(InvalidParameterError):
        SurfacePoint(-0.1, 0.0)


def test_wrap_angles_is_wrap_angle_bit_for_bit():
    turns = np.arange(-9, 10) * math.pi
    theta = np.concatenate([
        np.random.default_rng(3).uniform(-60.0, 60.0, 4000), turns,
        np.nextafter(turns, np.inf), np.nextafter(turns, -np.inf), [0.0, -0.0, 1e-300]])
    wrapped = wrap_angles(theta)
    expected = np.array([wrap_angle(t) for t in theta.tolist()])
    assert np.array_equal(wrapped, expected)
    assert np.array_equal(np.signbit(wrapped), np.signbit(expected))
    assert np.all((wrapped > -math.pi) & (wrapped <= math.pi))


def test_load_surface(tmp_path):
    p = load_surface({"kind": "paraboloid", "mu": 1.0, "r_max": 20.0})
    assert p.kind == "paraboloid-like" and p.mu == 1.0

    cfg = {"kind": "custom", "m": "r - r^5/20", "m1": "1 - r^4/4",
           "m2": "-r^3", "mu": 0.5, "r_max": 1.8}
    fn = tmp_path / "surf.json"
    fn.write_text(json.dumps(cfg))
    q = load_surface(str(fn))
    assert q.kind == "custom-analytic"
    assert float(q.m(1.0)) == pytest.approx(1.0 - 1.0 / 20.0)

    with pytest.raises(InvalidParameterError):
        load_surface({"kind": "nope"})
    with pytest.raises(InvalidParameterError):
        load_surface({"kind": "custom", "m": "r"})  # missing m1, m2


@pytest.mark.parametrize("text", [
    "", "{", '{"kind": "paraboloid", "mu": }', "[1, 2]",
    '{"kind": "paraboloid", "mu": "fast"}', '{"kind": "custom", "m": "r", "m1": "1",'
    ' "m2": "0", "r_max": [3]}', '{"kind": "paraboloid", "mu": 1e300}',
    '{"kind": "custom", "m": "1/r", "m1": "1", "m2": "0"}',
    '{"kind": "custom", "m": "r", "m1": "r^-1", "m2": "0"}',
    '{"kind": "custom", "m": "r", "m1": "2^2000", "m2": "0"}',
    '{"kind": "custom", "m": "sqrt(r - 1)", "m1": "1", "m2": "0"}',
    '{"kind": "custom", "m": "r", "m1": "1", "m2": "1e999 * r"}', "\xff\xfe",
    '{"kind": "custom", "m": "0", "m1": "1", "m2": "0"}',
], ids=["empty", "truncated", "bad-json", "list", "mu-text", "r_max-list",
        "mu-square-overflows", "divides-by-zero", "zero-to-negative-power", "overflows",
        "leaves-sqrt-domain", "infinite-times-zero", "not-utf-8", "constant-warp"])
def test_load_surface_rejects_bad_files(tmp_path, text):
    """A surface file that cannot be read as a profile raises
    InvalidParameterError, which the CLI reports as a configuration error."""
    fn = tmp_path / "surf.json"
    fn.write_text(text, encoding="latin-1")
    with pytest.raises(InvalidParameterError):
        load_surface(str(fn))


def test_check_radius(parab):
    parab.check_radius(0.0)
    parab.check_radius(parab.r_max)
    for r in (-1e-300, parab.r_max * (1 + 1e-15), math.nan):
        with pytest.raises(InvalidParameterError):
            parab.check_radius(r)
