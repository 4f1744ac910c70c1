import json
import math

import numpy as np
import pytest

from randers import gauss_curvature, load_surface, make_custom
from randers.errors import InvalidParameterError
from randers.expressions import compile_expression


def test_arithmetic_and_precedence():
    f = compile_expression("1 + 2*3 - 4/8")
    assert f(0.0, 0.0) == pytest.approx(6.5)
    g = compile_expression("2^3^2")  # right-associative power
    assert g(0.0, 0.0) == 512.0
    h = compile_expression("-r^2")   # unary minus binds looser than power
    assert h(3.0, 0.0) == -9.0


def test_variables_and_functions():
    f = compile_expression("r / sqrt(mu^2 * r^2 + 1)")
    assert f(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    g = compile_expression("sin(r) * cos(r)")
    assert g(0.7, 0.0) == pytest.approx(math.sin(0.7) * math.cos(0.7))


def test_vectorized_evaluation():
    f = compile_expression("r - r^5/20")
    rr = np.linspace(0.0, 1.5, 7)
    np.testing.assert_allclose(f(rr, 0.5), rr - rr**5 / 20.0, rtol=1e-15)


def test_scientific_notation_numbers():
    f = compile_expression("1.5e-3 + r")
    assert f(1.0, 0.0) == pytest.approx(1.0015)


@pytest.mark.parametrize("bad", [
    "", "r +", "foo(r)", "r $ 2", "tan(r)", "(r", "r)", "x + 1",
])
def test_rejects_bad_expressions(bad):
    with pytest.raises(InvalidParameterError):
        compile_expression(bad)


def test_hyperbolic_functions():
    f = compile_expression("sinh(r) + cosh(r) - exp(r)")   # zero, up to rounding
    rr = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(f(rr, 0.0), 0.0, atol=1e-14)
    assert compile_expression("exp(-mu * r)")(2.0, 0.5) == math.exp(-1.0)


def test_json_hyperbolic_warp_evaluates_like_the_callables(tmp_path):
    # the hyperbolic plane named in a surface JSON file and given as numpy
    # callables: the same warp, derivatives and curvature at every radius
    fn = tmp_path / "hyperbolic.json"
    fn.write_text(json.dumps({"kind": "custom", "m": "sinh(r)", "m1": "cosh(r)",
                              "m2": "sinh(r)", "mu": 0.2, "r_max": 2.0}))
    named = load_surface(str(fn))
    given = make_custom(np.sinh, np.cosh, np.sinh, mu=0.2, r_max=2.0)
    rr = np.linspace(0.0, 2.0, 41)
    for attr in ("m", "m1", "m2"):
        np.testing.assert_array_equal(getattr(named, attr)(rr), getattr(given, attr)(rr))
    np.testing.assert_array_equal(gauss_curvature(named, rr), gauss_curvature(given, rr))
    np.testing.assert_allclose(gauss_curvature(named, rr[1:]), -1.0, atol=1e-12)
