import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers import (
    InternalConsistencyError,
    InvalidParameterError,
    MetricDegenerateError,
    SurfacePoint,
    Tangent,
    VertexSingularError,
    cos_F,
    eval_F,
    fundamental_tensor,
    h_norm,
    make_paraboloid,
    navigation_transform,
)
from randers import zermelo
from randers.zermelo import eval_F_array


def test_navigation_transform_spot_values(parab):
    # at r = 1 (mu = 1): m^2 = 1/2, lambda = 1/2, a11 = 2, a22 = 2, b2 = -1
    d = navigation_transform(parab, 1.0)
    assert d.lam == pytest.approx(0.5, abs=1e-14)
    assert d.a11 == pytest.approx(2.0, abs=1e-13)
    assert d.a22 == pytest.approx(2.0, abs=1e-13)
    assert d.b2 == pytest.approx(-1.0, abs=1e-13)
    # vertex: lambda = 1, a11 = 1, a22 = 0, b2 = 0
    d0 = navigation_transform(parab, 0.0)
    assert (d0.lam, d0.a11, d0.a22, d0.b2) == (1.0, 1.0, 0.0, 0.0)


def test_navigation_transform_invariants(parab, rng):
    for r in rng.uniform(0.0, parab.r_max, 200):
        d = navigation_transform(parab, float(r))
        m = float(parab.m(r))
        assert 0.0 < d.lam <= 1.0
        assert d.a11 == pytest.approx(1.0 / d.lam, rel=1e-14)
        assert d.a22 == pytest.approx(m * m / d.lam**2, rel=1e-13)
        assert d.b2 == pytest.approx(-parab.mu * m * m / d.lam, rel=1e-13)
        # |b|^2_a = a^{22} b2^2 = mu^2 m^2 < 1
        if d.a22 > 0:
            assert (d.b2**2 / d.a22) == pytest.approx((parab.mu * m) ** 2,
                                                      rel=1e-12)
            assert d.b2**2 / d.a22 < 1.0


def test_navigation_transform_degenerate(flat):
    # flat profile m = r with mu = 0.04 degenerates beyond r = 25
    with pytest.raises(MetricDegenerateError):
        navigation_transform(flat, 30.0)


def test_eval_F_spot_values(parab):
    x = SurfacePoint(1.0, 0.0)
    assert eval_F(parab, x, Tangent(0.0, 1.0)) == pytest.approx(
        math.sqrt(2.0) - 1.0, abs=1e-12)
    assert eval_F(parab, x, Tangent(0.0, -1.0)) == pytest.approx(
        math.sqrt(2.0) + 1.0, abs=1e-12)
    assert eval_F(parab, x, Tangent(1.0, 0.0)) == pytest.approx(
        math.sqrt(2.0), abs=1e-12)
    with pytest.raises(InvalidParameterError):
        eval_F(parab, x, Tangent(0.0, 0.0))


@pytest.mark.parametrize("r", [2.2, 3.384])
def test_eval_F_rejects_radii_beyond_r_max(bump, r):
    # the bump m = r - r^5/20 is validated on [0, 1.8] only: at r = 2.2 both
    # forms answered silently, and at r = 3.384 they raised
    # InternalConsistencyError, which blames the engine
    with pytest.raises(InvalidParameterError, match="r_max"):
        eval_F(bump, SurfacePoint(r, 0.0), Tangent(0.6, 0.8))
    with pytest.raises(InvalidParameterError, match="r_max"):
        eval_F_array(bump, [1.0, r], [0.6, 0.6], [0.8, 0.8])
    # at r_max itself both forms answer, and agree
    assert eval_F_array(bump, [1.8], [0.6], [0.8])[0] == eval_F(
        bump, SurfacePoint(1.8, 0.0), Tangent(0.6, 0.8))


def test_dual_formula_agreement_and_positivity(parab, rng):
    # eval_F internally computes the coefficient and navigation forms and
    # raises if they disagree beyond 1e-12 / lambda relative; sample broadly.
    for _ in range(1000):
        r = float(rng.uniform(1e-3, parab.r_max))
        y = Tangent(float(rng.normal()), float(rng.normal()))
        if y.is_zero():
            continue
        F = eval_F(parab, SurfacePoint(r, 0.0), y)
        assert F > 0.0


def _F_decimal(r, y1, y2):
    """F on make_paraboloid(1.0) by the navigation form in 50-digit decimal
    arithmetic: m = r / sqrt(r^2 + 1), so lambda = 1 / (r^2 + 1)."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, y1, y2 = Decimal(r), Decimal(y1), Decimal(y2)
        m2 = r * r / (r * r + 1)
        lam = 1 - m2
        w0 = m2 * y2
        return float(((lam * (y1 * y1 + m2 * y2 * y2) + w0 * w0).sqrt() - w0) / lam)


def test_dual_form_check_near_r_max_of_a_wide_paraboloid(parab60):
    # near r_max = 60, mu m approaches 1 and lambda = 1 - mu^2 m^2 is about
    # 3.5e-4: the coefficient form's downwind branch (alpha^2 - beta^2)/s
    # then errs by about eps / lambda, and this valid input raised
    # InternalConsistencyError under a bound of 1e-12 relative
    r, y1, y2 = 53.6229681173026, -5.613970705150364, 45.943062558688275
    F = eval_F(parab60, SurfacePoint(r, 0.0), Tangent(y1, y2))
    assert F == pytest.approx(_F_decimal(r, y1, y2), rel=1e-11)
    assert eval_F_array(parab60, [r], [y1], [y2])[0] == F


def test_dual_form_check_passes_valid_tangents_up_to_r_max(parab60):
    # h-unit tangents with r uniform on [0, 60]; 7 of them raised under a
    # bound of 1e-12 relative
    rng = np.random.default_rng(64)
    r = rng.uniform(0.0, parab60.r_max, 20_000)
    phi = rng.uniform(-math.pi, math.pi, r.size)
    m = np.asarray(parab60.m(r))
    y1, y2 = np.cos(phi), np.sin(phi) / m
    F = eval_F_array(parab60, r, y1, y2)
    scalar = [eval_F(parab60, SurfacePoint(a, 0.0), Tangent(b, c))
              for a, b, c in zip(r.tolist(), y1.tolist(), y2.tolist())]
    assert np.array_equal(F, scalar)
    for i in np.argsort(r)[-20:]:
        assert F[i] == pytest.approx(_F_decimal(r[i], y1[i], y2[i]), rel=1e-11)


def test_dual_form_check_catches_a_perturbed_coefficient_form(parab, monkeypatch):
    # at r = 1 (lambda = 1/2) the bound is 2e-12 relative: a coefficient form
    # off by 1e-9 relative is an engine bug, and still raises
    real = zermelo._F_coeff
    monkeypatch.setattr(zermelo, "_F_coeff", lambda *a: real(*a) * (1.0 + 1e-9))
    with pytest.raises(InternalConsistencyError):
        eval_F(parab, SurfacePoint(1.0, 0.0), Tangent(0.6, 0.8))
    with pytest.raises(InternalConsistencyError):
        eval_F_array(parab, [1.0], [0.6], [0.8])


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.01, 19.0), ang=st.floats(0.0, 2 * math.pi),
       lam=st.floats(1e-6, 1e6))
def test_positive_homogeneity(r, ang, lam):
    parab = make_paraboloid(1.0)
    x = SurfacePoint(r, 0.3)
    y = Tangent(math.cos(ang), math.sin(ang))
    F1 = eval_F(parab, x, y)
    F2 = eval_F(parab, x, Tangent(lam * y.y1, lam * y.y2))
    assert F2 == pytest.approx(lam * F1, rel=1e-12)


def test_riemannian_limit():
    tiny = make_paraboloid(1e-9)
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = float(rng.uniform(0.01, 19.0))
        y = Tangent(float(rng.normal()), float(rng.normal()))
        if y.is_zero():
            continue
        F = eval_F(tiny, SurfacePoint(r, 0.0), y)
        hn = h_norm(tiny, r, y.y1, y.y2)
        assert abs(F - hn) <= 1e-6 * hn


def test_fundamental_tensor_euler_identity(parab, rng):
    # g_y(y, y) = F(x, y)^2 to 1e-12 relative
    for _ in range(1000):
        r = float(rng.uniform(0.05, parab.r_max))
        y = Tangent(float(rng.normal()), float(rng.normal()))
        if abs(y.y1) + abs(y.y2) < 1e-12:
            continue
        x = SurfacePoint(r, 0.0)
        g = fundamental_tensor(parab, x, y)
        yv = np.array([y.y1, y.y2])
        F = eval_F(parab, x, y)
        assert float(yv @ g @ yv) == pytest.approx(F * F, rel=1e-12)


def test_fundamental_tensor_fd_oracle(parab):
    # central finite differences of F^2/2 reproduce the closed form
    x = SurfacePoint(1.0, 0.0)
    for y in (Tangent(1.0, 0.0), Tangent(0.4, -1.3), Tangent(-0.2, 0.9)):
        g = fundamental_tensor(parab, x, y)
        h = 1e-4  # balances O(h^2) truncation against O(eps/h^2) roundoff
        fd = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                def F2(d1, d2):
                    t = Tangent(y.y1 + d1, y.y2 + d2)
                    return eval_F(parab, x, t) ** 2
                ei = (h, 0.0) if i == 0 else (0.0, h)
                ej = (h, 0.0) if j == 0 else (0.0, h)
                fd[i, j] = (F2(ei[0] + ej[0], ei[1] + ej[1])
                            - F2(ei[0] - ej[0], ei[1] - ej[1])
                            - F2(-ei[0] + ej[0], -ei[1] + ej[1])
                            + F2(-ei[0] - ej[0], -ei[1] - ej[1])) / (8 * h * h)
        np.testing.assert_allclose(g, fd, atol=1e-6)
    with pytest.raises(VertexSingularError):
        fundamental_tensor(parab, SurfacePoint(0.0, 0.0), Tangent(1.0, 0.0))


def test_fundamental_tensor_riemannian_limit():
    tiny = make_paraboloid(1e-9)
    x = SurfacePoint(1.0, 0.0)
    d = navigation_transform(tiny, 1.0)
    a = np.array([[d.a11, 0.0], [0.0, d.a22]])
    for y in (Tangent(1.0, 0.0), Tangent(0.3, 2.0), Tangent(-1.0, 0.5)):
        g = fundamental_tensor(tiny, x, y)
        assert np.abs(g - a).max() < 1e-6


def test_cos_F_normalization(parab):
    x = SurfacePoint(1.3, 0.2)
    y = Tangent(0.8, -0.4)
    assert cos_F(parab, x, y, y) == pytest.approx(1.0, abs=1e-14)
    assert cos_F(parab, x, y, Tangent(2.5 * y.y1, 2.5 * y.y2)) == \
        pytest.approx(1.0, abs=1e-14)
    with pytest.raises(InvalidParameterError):
        cos_F(parab, x, y, Tangent(0.0, 0.0))
