import functools
import math

import numpy as np
import pytest

from randers import (
    InvalidParameterError, NumericalBlowupError, make_custom, make_paraboloid, odesolve,
)
from randers.conjugate import jacobi_integrate
from randers.geodesics import (
    GeodesicState, _chart_state, _vertex_chart, clairaut_constant, integrate_h,
    level_crossings_batch,
)
from randers.odesolve import (
    _A8, _A8_COLS, _B8, _C8, _D8, _D8_COLS, _E3, _E5, MAX_TOL, MIN_TOL, SEGMENTS,
    _contd8, _dense8, _float_step, _initial_step, integrate, integrate_batch,
)
from randers.profile import SurfacePoint, gauss_curvature, roots_on_grid


def _oscillator(s, y):
    return np.array([y[1], -y[0]])


def _oscillator_rows(s, y):
    return np.column_stack([y[:, 1], -y[:, 0]])


def test_oscillator_accuracy():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 2.0 * math.pi, tol=1e-11)
    assert sol.status == "completed"
    assert np.abs(sol.y[-1] - [0.0, 1.0]).max() < 1e-9


def test_dense_output():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 2.0 * math.pi, tol=1e-11)
    sq = np.linspace(0.0, 2.0 * math.pi, 313)
    dense = sol(sq)
    assert np.abs(dense[:, 0] - np.sin(sq)).max() < 1e-8


def test_dop853_coefficients_are_scipys():
    # odesolve copies the tableau as literals so that it imports no scipy;
    # every value must equal the one scipy's DOP853 uses
    from scipy.integrate._ivp import dop853_coefficients as ref

    a = np.zeros_like(ref.A)
    for i, (cols, row) in enumerate(zip(_A8_COLS, _A8)):
        a[i, list(cols)] = row
    assert np.array_equal(a, ref.A) and np.array_equal(_C8, ref.C)
    e5, e3, d = np.zeros_like(ref.E5), np.zeros_like(ref.E3), np.zeros_like(ref.D)
    e5[list(_A8_COLS[12])], e3[list(_A8_COLS[12])] = _E5, _E3
    d[:, list(_D8_COLS)] = _D8
    assert np.array_equal(e5, ref.E5) and np.array_equal(e3, ref.E3)
    assert np.array_equal(d, ref.D) and np.array_equal(_B8, ref.B[list(_A8_COLS[12])])


def test_retire_ends_the_run_at_the_first_marked_step():
    # sin s turns negative past pi: the first step end past it ends the
    # run, which up to there is the unretired run bit for bit.  retire sees
    # every accepted step end until then, and the caller finds the level's
    # root on the dense output of the last step
    full = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-12)
    seen = []

    def below(s, y):
        seen.append(s)
        return y[0] < 0.0

    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-12, retire=below)
    n = int(np.flatnonzero(full.y[:, 0] < 0.0)[0]) + 1
    assert sol.status == "retired" and sol.s.size == n and sol.nsteps == n - 1
    assert seen == full.s[1:n].tolist()
    assert np.array_equal(sol.s, full.s[:n]) and np.array_equal(sol.y, full.y[:n])
    for key in SEGMENTS:
        assert np.array_equal(getattr(sol, key), getattr(full, key)[:n - 1]), key
    grid = np.linspace(0.0, sol.s[-1], 301)
    assert np.array_equal(sol(grid), full(grid))
    last = sol.step(n - 2)
    inside = grid[grid >= last.s[0]]
    assert inside.size > 10 and np.array_equal(last(inside), sol(inside))
    (root,) = roots_on_grid(lambda x: float(last(x)[0]), last.s, last.y[:, 0], xtol=1e-10)
    assert root == pytest.approx(math.pi, abs=1e-10)
    # ODESolution.root finds the same root, and the state there, on that step
    at, state = sol.root(n - 2, 0, 0.0)
    assert at == root and np.array_equal(state, last(root))


def test_retire_is_not_asked_at_s_end():
    # a run that reaches s_end completes, whatever retire would say there
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 4.0, tol=1e-9,
                    retire=lambda s, y: s >= 4.0)
    assert sol.status == "completed" and sol.s[-1] == 4.0


def test_post_step_projection_runs():
    # project onto the unit circle each step; energy stays pinned
    def proj(s, y):
        n = math.hypot(y[0], y[1])
        return np.asarray(y) / n

    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 50.0, tol=1e-9,
                    post_step=proj)
    radii = np.hypot(sol.y[:, 0], sol.y[:, 1])
    assert np.abs(radii - 1.0).max() < 1e-12


def test_max_steps_status():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 1e9, tol=1e-6,
                    max_steps=50)
    assert sol.status == "max_steps"
    rows = integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0], [1.0, 0.0]], 1e9, 0, 0.0,
                           tol=1e-6, max_steps=50)
    assert rows.status == ["max_steps", "max_steps"]


def test_max_steps_stop_raises(monkeypatch, sphere):
    # a max_steps stop is no finished path: each caller raises on it (the
    # geodesic takes 32 DOP853 steps, the Jacobi field 48 and 4 rejections).
    # The fan runs on the sphere, where m' < 0 past pi/2 and no row is
    # retired, so that its row still runs into the stop
    parab = make_paraboloid(1.0)
    state = GeodesicState(1.0, 0.0, math.cos(0.7), math.sin(0.7) / float(parab.m(1.0)))
    on_sphere = GeodesicState(1.0, 0.0, math.cos(0.7), math.sin(0.7) / float(sphere.m(1.0)))
    meridian = integrate_h(parab, GeodesicState(0.0, 0.0, 1.0, 0.0), 20.0)  # analytic
    monkeypatch.setattr(odesolve, "integrate",
                        functools.partial(odesolve.integrate, max_steps=20))
    monkeypatch.setattr(odesolve, "integrate_batch",
                        functools.partial(odesolve.integrate_batch, max_steps=20))
    with pytest.raises(NumericalBlowupError):
        integrate_h(parab, state, 15.0, tol=1e-12)
    with pytest.raises(NumericalBlowupError):
        level_crossings_batch(sphere, [on_sphere.as_array()], 15.0, 1.5, tol=1e-12)
    with pytest.raises(NumericalBlowupError):
        jacobi_integrate(parab, meridian, 0.0, 1.0, 20.0)


def test_rejects_backward_range():
    with pytest.raises(ValueError):
        integrate(_oscillator, 1.0, [0.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        integrate_batch(_oscillator_rows, 1.0, [[0.0, 1.0]], 0.5, 0, 0.0)
    with pytest.raises(ValueError):  # one row needs shape (1, dim)
        integrate_batch(_oscillator_rows, 0.0, [0.0, 1.0], 0.5, 0, 0.0)


@pytest.mark.parametrize("s_end,tol", [
    (math.nan, 1e-10), (math.inf, 1e-10),
    (1.0, 0.0), (1.0, math.nan), (1.0, -1e-10), (1.0, math.inf),
])
def test_rejects_non_finite_range_and_bad_tol(s_end, tol):
    # tol = 0 or NaN never accepts a step, and s_end = NaN or inf never ends
    with pytest.raises(InvalidParameterError):
        integrate(_oscillator, 0.0, [0.0, 1.0], s_end, tol=tol)
    with pytest.raises(InvalidParameterError):
        integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0]], s_end, 0, 0.0, tol=tol)


def test_rejects_tol_above_max():
    # at tol = 1, `randers geodesic --tol-ode 1 --length 10` on this bump
    # grew its steps until a stage evaluated 1 - r^4/4 at an r whose fourth
    # power overflows
    bump = make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)
    state = GeodesicState(1.0, 0.0, 0.6, 0.8 / float(bump.m(1.0)))
    integrate_h(bump, state, 10.0, tol=MAX_TOL)
    for tol in (np.nextafter(MAX_TOL, 1.0), 1.0):
        with pytest.raises(InvalidParameterError):
            integrate(_oscillator, 0.0, [0.0, 1.0], 1.0, tol=tol)
        with pytest.raises(InvalidParameterError):
            integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0]], 1.0, 0, 0.0, tol=tol)
        with pytest.raises(InvalidParameterError):
            integrate_h(bump, state, 10.0, tol=tol)


def test_rejects_tol_below_min():
    # at tol 1e-25 the controller shrank a geodesic's steps until the
    # max_steps stop, after 2 million steps; the floor rejects such a tol
    bump = make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)
    state = GeodesicState(1.0, 0.0, 0.6, 0.8 / float(bump.m(1.0)))
    assert integrate_h(bump, state, 1.0, tol=MIN_TOL).exit_reason == "completed"
    for tol in (np.nextafter(MIN_TOL, 0.0), 1e-25):
        with pytest.raises(InvalidParameterError):
            integrate(_oscillator, 0.0, [0.0, 1.0], 1.0, tol=tol)
        with pytest.raises(InvalidParameterError):
            integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0]], 1.0, 0, 0.0, tol=tol)
        with pytest.raises(InvalidParameterError):
            integrate_h(bump, state, 1.0, tol=tol)


def test_projected_state_ends_each_step():
    # the dense output passes through the projected samples: every step
    # ends where the next one starts, with the derivative recomputed there
    def proj(s, y):
        return np.asarray(y) / math.hypot(y[0], y[1])

    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 20.0, tol=1e-9, post_step=proj)
    assert np.array_equal(sol.seg_y1[:-1], sol.seg_y0[1:])
    assert np.array_equal(sol.seg_f1[:-1], sol.seg_f0[1:])
    assert np.array_equal(sol(sol.s[1:-1]), sol.y[1:-1])


def _dop853_row(f, s0, y0, s_end, tol, component, level, retire=None):
    """One row of integrate_batch as a plain loop: the DOP853 stages, the
    controller on the 5th-order error estimate alone, the dense output,
    integrate's rule for crossings of the level (a sign change between step
    ends, refined on the step's interpolant), and the retire test at the
    end of each accepted step.  Returns (status, s, y, crossings,
    (accepted steps, rejected steps))."""
    y, s = np.asarray(y0, dtype=float), float(s0)
    fs = f(s, y)
    h = min(_initial_step(y, fs), s_end - s)
    roots = []
    grow = 5.0   # no step growth right after a rejection
    nsteps = nrejected = 0
    while s < s_end:
        h = min(h, s_end - s)
        k = [fs]
        for i in range(1, 12):
            k.append(f(s + _C8[i] * h, y + h * _row(_A8[i], _A8_COLS[i], k)))
        y_new = y + h * _row(_B8, _A8_COLS[12], k)
        err = h * _row(_E5, _A8_COLS[12], k)
        ratio = (err / (tol + tol * np.maximum(np.abs(y), np.abs(y_new))))[None]
        # on a one-row array, rounded as the batch rounds its rows: the
        # error estimate cancels to about 1e-5 of its terms, so a last-bit
        # difference in the factor moves later step ends by 1e-9 to 1e-7
        enorm = np.sqrt(np.einsum("ij,ij->i", ratio, ratio)) / math.sqrt(y.size)
        with np.errstate(divide="ignore"):
            factor = float(np.fmin(grow, np.fmax(0.2, 0.9 * enorm**-0.125))[0])
        enorm = float(enorm[0])
        grow = 5.0 if enorm <= 1.0 else 1.0
        nrejected += not enorm <= 1.0
        if enorm <= 1.0:
            nsteps += 1
            k.append(f(s + h, y_new))
            for i in (13, 14, 15):
                k.append(f(s + _C8[i] * h, y + h * _row(_A8[i], _A8_COLS[i], k)))
            coeffs = _contd8(h, y, y_new, k[0], k[12], [k[j] for j in _D8_COLS])
            g0, g1 = y[component] - level, y_new[component] - level
            if g0 < 0.0 <= g1 or g0 > 0.0 >= g1:
                roots += roots_on_grid(
                    lambda sq: _dense8((sq - s) / h, y, *coeffs)[component] - level,
                    (s, s + h), (g0, g1), xtol=1e-12)
            s, y, fs = s + h, y_new, k[12]
            if retire is not None and s < s_end and retire(s, y):
                return "retired", s, y, roots, (nsteps, nrejected)
        h *= factor
    return "completed", s, y, roots, (nsteps, nrejected)


def test_batch_rows_match_scalar_integrator():
    # crossings of x = 0, and rows retired at the end of the step that
    # takes them to x <= -0.5
    y0 = np.array([[0.0, 1.0], [1.0, 0.0], [0.3, -0.8], [0.0, 0.2]])
    batch = integrate_batch(_oscillator_rows, 0.0, y0, 12.0, 0, 0.0, tol=1e-11,
                            retire=lambda s, y: y[:, 0] <= -0.5)
    zero_rows, zero_s, zero_y = batch.crossings
    for i, row in enumerate(y0):
        status, s_end, y_end, roots, _ = _dop853_row(_oscillator, 0.0, row, 12.0, 1e-11, 0, 0.0,
                                                     lambda s, y: y[0] <= -0.5)
        assert batch.status[i] == status
        assert batch.s[i] == pytest.approx(s_end, abs=1e-10)
        np.testing.assert_allclose(batch.y[i], y_end, atol=1e-10)
        mine = zero_rows == i
        np.testing.assert_allclose(zero_s[mine], roots, atol=1e-10)
        np.testing.assert_allclose(zero_y[mine, 0], 0.0, atol=1e-12)
    assert batch.status[3] == "completed"   # amplitude 0.2 never reaches -0.5
    assert batch.status[:3] == ["retired"] * 3
    assert batch.nsteps > 0


def test_batch_projection():
    y0 = np.array([[0.0, 1.0], [0.6, 0.8]])
    sol = integrate_batch(_oscillator_rows, 0.0, y0, 30.0, 0, 0.0, tol=1e-6,
                          post_step=lambda s, y: y / np.hypot(y[:, 0], y[:, 1])[:, None])
    np.testing.assert_allclose(np.hypot(sol.y[:, 0], sol.y[:, 1]), 1.0, atol=1e-15)
    assert sol.status == ["completed", "completed"]


def _ones(s, y):
    return np.ones_like(y)


def test_batch_events_inside_one_step():
    # y' = 1 is integrated exactly, so steps grow fivefold and the one over
    # [1.56, 7.81] crosses every level below: each is found inside it
    for level in (2.0, 3.0, 5.0, 7.0):
        sol = integrate_batch(_ones, 0.0, [[0.0]], 10.0, 0, level, tol=1e-9)
        assert sol.nsteps == 6 and sol.status == ["completed"]
        rows, s_c, y_c = sol.crossings
        assert rows.tolist() == [0]
        assert s_c == pytest.approx([level], abs=1e-12)
        assert y_c[:, 0] == pytest.approx([level], abs=1e-12)


def _line_past_the_origin(s, y):
    # (x, rho) with x' = 1 and rho' = 2 x: rho = x^2 + b^2 exactly, so
    # steps grow fivefold
    return np.column_stack([np.ones(len(y)), 2.0 * y[:, 0]])


def test_batch_sees_two_crossings_where_the_component_turns_inside_a_step():
    # rho = (s - 1)^2 + 0.36 falls to its minimum at s = 1 and rises again.
    # The step over [0.37, 1.84] holds the minimum: rho = 1 is crossed in
    # the step before it and once inside it, rho = 0.64 twice inside it,
    # and rho = 0.3 never
    pair = (1.0 - math.sqrt(0.28), 1.0 + math.sqrt(0.28))
    for level, roots in ((0.64, pair), (1.0, (0.2, 1.8)), (0.3, ())):
        sol = integrate_batch(_line_past_the_origin, 0.0, [[-1.0, 1.36]], 4.0, 1, level,
                              tol=1e-9)
        assert sol.nsteps == 5 and sol.status == ["completed"]
        assert sol.crossings[1] == pytest.approx(roots, abs=1e-12)
        np.testing.assert_allclose(sol.crossings[2][:, 1], level, atol=1e-12)


def test_batch_step_that_turns_and_changes_sign():
    # rho = (s - 1)^2 + 0.36 again, from s = -0.5, so that the step over
    # [-0.13, 1.38] holds the minimum: it falls through rho = 0.75 before
    # the turn and ends below it, and the next step rises through it
    sol = integrate_batch(_line_past_the_origin, -0.5, [[-1.5, 2.61]], 3.0, 1, 0.75, tol=1e-9)
    assert sol.nsteps == 5 and sol.status == ["completed"]
    assert sol.crossings[1] == pytest.approx((1.0 - math.sqrt(0.39), 1.0 + math.sqrt(0.39)),
                                             abs=1e-12)
    np.testing.assert_allclose(sol.crossings[2][:, 1], 0.75, atol=1e-12)


def test_terminal_root_on_a_step_end_stops_the_row():
    # the level is where y' = 1 ends its first step, so g reaches zero
    # there: integrate and the batch both retire the run at that step end,
    # and the batch finds one crossing there
    level = integrate(lambda s, y: (1.0,), 0.0, [0.0], 10.0, tol=1e-9).y[1, 0]
    one = integrate(lambda s, y: (1.0,), 0.0, [0.0], 10.0, tol=1e-9,
                    retire=lambda s, y: y[0] >= level)
    assert one.status == "retired" and one.y[-1, 0] == level and one.nsteps == 1
    rows = integrate_batch(_ones, 0.0, [[0.0]], 10.0, 0, level, tol=1e-9,
                           retire=lambda s, y: y[:, 0] >= level)
    assert rows.status == ["retired"]
    assert rows.s[0] == pytest.approx(level, abs=1e-15)
    assert rows.crossings[1] == pytest.approx([level], abs=1e-15)


def _undefined_past_1_2(s, y):
    return np.where(np.asarray(y) < 1.2, 1.0, np.nan)


def test_steps_that_leave_the_domain_are_rejected():
    # the RHS is undefined beyond y = 1.2; steps that reach there are
    # rejected and shrunk until the retire test at the end of the step
    # past y = 1 stops the run
    one = integrate(_undefined_past_1_2, 0.0, [0.0], 5.0, tol=1e-9,
                    retire=lambda s, y: y[0] >= 1.0)
    rows = integrate_batch(_undefined_past_1_2, 0.0, [[0.0]], 5.0, 0, 1.0, tol=1e-9,
                           retire=lambda s, y: y[:, 0] >= 1.0)
    assert one.status == "retired" and rows.status == ["retired"]
    assert 1.0 <= one.s[-1] < 1.2 and one.y[-2, 0] < 1.0
    assert rows.crossings[1] == pytest.approx([1.0], abs=1e-12)
    assert 1.0 <= rows.s[0] < 1.2
    assert one.nrejected < 100 and rows.nrejected < 100


# ---------------------------------------------------------------------------
# bit-identity with the array form of the step loop
#
# _array_integrate is integrate written on numpy arrays: the same DOP853
# tableau and controller, every stage an array expression summed over its
# row in column order, and each step's extra stages and dense output built
# as the step is taken.  integrate runs the stages on Python floats in the
# same order of operations and builds the extra stages and the dense output
# for all steps on the first read, so its steps, samples, dense-output
# segments, stages and coefficients must be exactly equal, and a run ends
# at the same step end where both ask the same retire test.


def _row(coeffs, cols, k):
    """sum_j coeffs[j] k[cols[j]], added in column order."""
    acc = coeffs[0] * k[cols[0]]
    for a, j in zip(coeffs[1:], cols[1:]):
        acc = acc + a * k[j]
    return acc


def _array_integrate(f, s0, y0, s_end, tol=1e-10, post_step=None, max_steps=2_000_000,
                     retire=None):
    y = np.asarray(y0, dtype=float).copy()
    s = float(s0)
    fs = f(s, y)
    ss, ys = [s], [y.copy()]
    seg = {k: [] for k in ("s", "h", "y0", "y1", "f0", "f1", "k", "coeffs")}
    status = "completed"
    h = min(_initial_step(y, fs), s_end - s0)
    nsteps = nrejected = 0
    root_n = math.sqrt(float(y.size))
    grow = 5.0   # no step growth right after a rejection
    while s < s_end:
        if nsteps + nrejected > max_steps:
            status = "max_steps"
            break
        h = min(h, s_end - s)
        k = [fs]
        for i in range(1, 12):
            k.append(f(s + _C8[i] * h, y + h * _row(_A8[i], _A8_COLS[i], k)))
        y_new = y + h * _row(_B8, _A8_COLS[12], k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = math.hypot(*(_row(_E5, _A8_COLS[12], k) / scale))
        err3 = math.hypot(*(_row(_E3, _A8_COLS[12], k) / scale))
        enorm = h * err5 * (err5 / math.hypot(err5, 0.1 * err3)) / root_n if err5 else 0.0
        if not enorm <= 1.0:
            nrejected += 1
            h *= max(0.2, 0.9 * enorm**-0.125)
            grow = 1.0
            continue
        nsteps += 1
        s_new = s + h
        k.append(f(s_new, y_new))
        f_new = k[12]
        if post_step is not None:
            y_proj = post_step(s_new, y_new)
            if y_proj is not None:
                y_new = np.asarray(y_proj, dtype=float)
                f_new = f(s_new, y_new)
        for i in (13, 14, 15):
            k.append(f(s + _C8[i] * h, y + h * _row(_A8[i], _A8_COLS[i], k)))
        coeffs = _contd8(h, y, y_new, k[0], f_new, [k[j] for j in _D8_COLS])
        for key, val in zip(seg, (s, h, y, y_new, k[0], f_new, k[5:13], coeffs)):
            seg[key].append(val)
        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys.append(y)
        if retire is not None and s < s_end and retire(s, y):
            status = "retired"
            break
        h *= (grow if enorm == 0.0 else min(grow, max(0.2, 0.9 * enorm**-0.125)))
        grow = 5.0
    return ss, ys, seg, status, nsteps, nrejected


def _dense_root(ref, i, c, level):
    """The root of component c minus the level on the dense output of step
    i of an _array_integrate run, refined to 1e-10 by roots_on_grid."""
    seg = ref[2]
    s, h, y, coeffs = (seg[key][i] for key in ("s", "h", "y0", "coeffs"))
    g = [ref[1][i][c] - level, ref[1][i + 1][c] - level]
    (root,) = roots_on_grid(lambda sq: _dense8((sq - s) / h, y, *coeffs)[c] - level,
                            ref[0][i:i + 2], g, xtol=1e-10)
    return root, _dense8((root - s) / h, y, *coeffs)


def _assert_same_solution(sol, ref):
    ss, ys, seg, status, nsteps, nrejected = ref
    assert sol.status == status
    assert (sol.nsteps, sol.nrejected) == (nsteps, nrejected)
    assert np.array_equal(sol.s, np.array(ss))
    assert np.array_equal(sol.y, np.array(ys))
    for key, val in seg.items():
        if key == "coeffs":
            # built on this first read, from the stages the steps kept
            assert np.array_equal(sol._coeffs, np.array(val).transpose(1, 0, 2)), key
        else:
            assert np.array_equal(getattr(sol, "seg_" + key), np.array(val)), key


def _oscillator_tuple(s, y):
    a, b = y
    return (b, -a)


@pytest.mark.parametrize("f", [_oscillator, _oscillator_tuple])
def test_float_stages_match_array_loop_on_the_oscillator(f):
    def proj(s, y):
        return np.asarray(y) / math.hypot(y[0], y[1])

    def retire(s, y):
        return y[0] < -0.5

    for kwargs in ({"tol": 1e-11}, {"tol": 1e-7, "post_step": proj},
                   {"tol": 1e-12, "retire": retire}, {"tol": 1e-6, "max_steps": 40}):
        _assert_same_solution(integrate(f, 0.0, [0.0, 1.0], 60.0, **kwargs),
                              _array_integrate(_oscillator, 0.0, [0.0, 1.0], 60.0,
                                               **kwargs))


def test_callbacks_see_float_lists_and_may_return_any_sequence():
    # f, post_step and retire are called with the state as a list of
    # floats, never an ndarray; a tuple, list or ndarray from f, and a
    # list, ndarray or None from post_step, give the array loop's solution
    # bit for bit
    seen = set()

    def watched(fn):
        def call(s, y):
            seen.add(type(y))
            seen.update(map(type, y))
            return fn(s, y)
        return call

    def proj_list(s, y):
        n = math.hypot(y[0], y[1])
        return [v / n for v in y]

    def proj_array(s, y):
        return np.asarray(y) / math.hypot(y[0], y[1])

    def retire(s, y):
        return y[1] < -0.9

    kwargs = {"tol": 1e-9}
    plain = _array_integrate(_oscillator, 0.0, [0.6, 0.8], 20.0, retire=retire, **kwargs)
    projected = _array_integrate(_oscillator, 0.0, [0.6, 0.8], 20.0, post_step=proj_array,
                                 retire=retire, **kwargs)
    assert plain[3] == projected[3] == "retired"
    for f in (_oscillator_tuple, lambda s, y: [y[1], -y[0]], _oscillator):
        for post_step, ref in ((None, plain), (lambda s, y: None, plain),
                               (proj_list, projected), (proj_array, projected)):
            sol = integrate(watched(f), 0.0, [0.6, 0.8], 20.0,
                            post_step=post_step and watched(post_step),
                            retire=watched(retire), **kwargs)
            _assert_same_solution(sol, ref)
    assert seen == {list, float}


def _geodesic_system(profile, r_floor):
    """The right-hand side and unit-speed projection of the geodesic
    integrator's polar chart, in array form, and a retire test that ends a
    ray past the domain's r_max or below a floor that an inward ray
    reaches."""
    def rhs(s, y):
        r, _, dr, dth = y
        m, m1 = float(profile.m(r)), float(profile.m1(r))
        return np.array([dr, dth, m * m1 * dth * dth, -2.0 * (m1 / m) * dr * dth])

    def renormalize(s, y):
        out = y.copy()
        norm = math.hypot(y[2], float(profile.m(y[0])) * y[3])
        out[2] /= norm
        out[3] /= norm
        return out

    def retire(s, y):
        return not r_floor <= y[0] <= profile.r_max

    return rhs, renormalize, retire


def _assert_geodesic_matches_array_loop(profile, r0, phi, length, end):
    """integrate and integrate_h against _array_integrate on the geodesic
    system from (r0, 0.4) at heading phi, which ends by leaving the domain
    (end "exit"), at a floor set at r = 1.2 that an inward ray stops at
    (end "floor"), or at the full length (end "completed")."""
    state0 = GeodesicState(r0, 0.4, math.cos(phi), math.sin(phi) / float(profile.m(r0)))
    nu0 = clairaut_constant(profile, state0)
    floor = 1.2 if end == "floor" else max(1e-14, 1e-3 * abs(nu0))
    rhs, renormalize, retire = _geodesic_system(profile, floor)
    ref = _array_integrate(rhs, 0.0, state0.as_array(), length, tol=1e-12,
                           post_step=renormalize, retire=retire)
    assert ref[3] == ("completed" if end == "completed" else "retired")
    sol = integrate(rhs, 0.0, state0.as_array(), length, tol=1e-12,
                    post_step=renormalize, retire=retire)
    _assert_same_solution(sol, ref)
    if end != "floor":
        path = integrate_h(profile, state0, length, tol=1e-12)
        ss, ys = np.array(ref[0]), np.array(ref[1])
        if end == "exit":
            # the exit sample: the crossing of r_max on the last step's
            # dense output, put on r_max
            ss[-1], ys[-1] = _dense_root(ref, len(ss) - 2, 0, profile.r_max)
            ys[-1, 0] = profile.r_max
        assert path.exit_reason == ("completed" if end == "completed" else "domain-exit")
        if r0 >= profile.vertex_chart_radius:
            # above the vertex chart, integrate_h runs the same system on
            # its float right-hand side (these rays never come down to it)
            assert np.array_equal(path.s, ss)
            assert np.array_equal(path.states, ys)
            assert (path.dense.nsteps, path.dense.nrejected) == ref[4:]
        else:
            # below it, integrate_h starts in normal coordinates at the
            # vertex: the same geodesic, to the tolerance
            assert path.s[-1] == pytest.approx(ss[-1], abs=1e-9)
            np.testing.assert_allclose(path.dense(ss[:-1]), ys[:-1], rtol=0, atol=1e-9)
            np.testing.assert_allclose(path.states[-1], ys[-1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("r0,phi,length,end", [
    (1.0, 0.7, 40.0, "exit"),        # leaves the domain through r_max
    (2.5, 2.9, 6.0, "floor"),        # inward, stopped by a floor set at r = 1.2
    (1.3, 1.2, 25.0, "completed"),
])
def test_float_stages_match_array_loop_on_the_geodesic_rhs(r0, phi, length, end):
    _assert_geodesic_matches_array_loop(make_paraboloid(1.0), r0, phi, length, end)


@pytest.mark.parametrize("r0,phi,length,end", [
    # the sphere's vertex chart ends at 1.39, so integrate_h starts the two
    # rays from r = 1 there
    (1.0, 0.3, 10.0, "exit"),        # out over the equator to r_max = 2.8
    (2.5, 2.9, 6.0, "floor"),
    (1.0, 1.2, 12.0, "completed"),   # between the turning radii 0.90 and 2.24
])
def test_float_stages_match_array_loop_on_an_expression_profile(sphere, r0, phi, length,
                                                                 end):
    # the conftest sphere's m and m1 are compiled from the expressions
    # "sin(r)" and "cos(r)", not a closure warp like the paraboloid's
    _assert_geodesic_matches_array_loop(sphere, r0, phi, length, end)


def test_float_stages_match_array_loop_on_the_jacobi_rhs():
    # the Jacobi field y(0) = 0, y'(0) = 1 along the paraboloid's meridian
    # chain through the vertex; its first zero is the root on the dense
    # output of the first step over which y changes sign
    profile = make_paraboloid(1.0)
    q = SurfacePoint(1.2, 0.0)
    horizon = q.r + profile.r_max
    base = integrate_h(profile, GeodesicState(q.r, q.theta, -1.0, 0.0), horizon)
    jac = jacobi_integrate(profile, base, 0.0, 1.0, horizon)
    r0, dr0 = float(base.states[0, 0]), float(base.states[0, 2])

    def rhs(s, z):
        y, yp = z
        return np.array([yp, -gauss_curvature(profile, abs(r0 + dr0 * s)) * y])

    ref = _array_integrate(rhs, 0.0, [0.0, 1.0], horizon, tol=1e-12)
    assert ref[3] == "completed"
    ss, ys = np.array(ref[0]), np.array(ref[1])
    assert np.array_equal(jac.s, ss)
    assert np.array_equal(jac.y, ys[:, 0])
    assert np.array_equal(jac.yp, ys[:, 1])
    i = int(np.flatnonzero(ys[1:, 0] <= 0.0)[0])
    assert jac.first_zero == _dense_root(ref, i, 0, 0.0)[0]
    assert jac.first_zero == pytest.approx(q.r + 1.0 / q.r, abs=1e-9)   # rho + 1 / (mu^2 rho)


def test_float_stages_match_array_loop_on_the_vertex_chart_rhs():
    # integrate_h's normal coordinates at the vertex, five components
    # (x, y, x', y', rho), with its unit-speed projection and its exit
    # past r = vertex_chart_radius; the array loop reads the same float
    # right-hand side
    profile = make_paraboloid(1.0)
    rhs, unit = _vertex_chart(profile)
    r0, phi = 0.5, math.pi - 0.3
    y0 = _chart_state(r0, math.cos(phi), math.sin(phi) / float(profile.m(r0)), 1.0, 0.0)

    def retire(s, y):
        return y[4] > profile.vertex_chart_radius ** 2

    ref = _array_integrate(lambda s, y: np.array(rhs(s, y.tolist())), 0.0, y0, 3.0,
                           tol=1e-12, post_step=lambda s, y: np.array(unit(s, y.tolist())),
                           retire=retire)
    assert ref[3] == "retired" and ref[4] > 5
    _assert_same_solution(integrate(rhs, 0.0, y0, 3.0, tol=1e-12, post_step=unit,
                                    retire=retire), ref)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_float_step_matches_array_loop_in_every_dimension(dim):
    # a linear system y' = A y on the step generated for dim components,
    # retired once y_0 passes a level between its start and end values; the
    # step is made once per dim
    a = np.random.default_rng(dim).normal(size=(dim, dim)).tolist()

    def f(s, y):
        return tuple(sum(c * v for c, v in zip(row, y)) for row in a)

    def f_array(s, y):
        return np.array(f(s, y.tolist()))

    y0 = [1.0] * dim
    end = _array_integrate(f_array, 0.0, y0, 2.0, tol=1e-11)[1][-1][0]
    level = 0.5 * (1.0 + end)

    def retire(s, y):
        return (y[0] - level) * (1.0 - level) < 0.0

    ref = _array_integrate(f_array, 0.0, y0, 2.0, tol=1e-11, retire=retire)
    assert ref[3] == "retired"
    _assert_same_solution(integrate(f, 0.0, y0, 2.0, tol=1e-11, retire=retire), ref)
    assert _float_step(dim) is _float_step(dim)


@pytest.mark.parametrize("slope", [lambda s, y: (y[1], -y[0], 0.0), lambda s, y: (y[1],)])
def test_a_slope_of_the_wrong_length_raises(slope):
    with pytest.raises(ValueError):
        integrate(slope, 0.0, [0.0, 1.0], 1.0)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
def test_run_ends_where_the_right_hand_side_turns_nan(tol):
    # past s = 0.5 every stage is NaN, so every step that reaches it is
    # rejected and shrunk, until s + h == s: the run ends there as the
    # max_steps stop ends it.  Before, it spun on for 2 million tries of 11
    # evaluations each (about 90 s)
    calls = []

    def f(s, y):
        calls.append(s)
        return (y[1], -y[0]) if s <= 0.5 else (math.nan, math.nan)

    def f_rows(s, y):
        calls.append(s)
        out = np.column_stack([y[:, 1], -y[:, 0]])
        out[s > 0.5] = np.nan
        return out

    sol = integrate(f, 0.0, [0.0, 1.0], 2.0, tol=tol)
    assert sol.status == "max_steps" and sol.s[-1] == pytest.approx(0.5, abs=1e-15)
    assert sol.nsteps + sol.nrejected <= 200 and len(calls) <= 2000
    calls.clear()
    rows = integrate_batch(f_rows, 0.0, [[0.0, 1.0], [1.0, 0.0]], 2.0, 0, 0.0, tol=tol)
    assert rows.status == ["max_steps", "max_steps"]
    np.testing.assert_allclose(rows.s, 0.5, atol=1e-15)
    assert len(calls) <= 2000


def test_batch_row_takes_the_plain_loops_steps_where_steps_are_rejected():
    # steps into the NaN region past y = 1.2 are rejected, and a row grows
    # no step right after a rejection, as the plain loop and integrate do
    rows = integrate_batch(_undefined_past_1_2, 0.0, [[0.0]], 5.0, 0, 1.0, tol=1e-9,
                           retire=lambda s, y: y[:, 0] >= 1.0)
    status, s_end, _, _, counts = _dop853_row(_undefined_past_1_2, 0.0, [0.0], 5.0, 1e-9, 0,
                                              1.0, lambda s, y: y[0] >= 1.0)
    assert rows.status == [status] == ["retired"]
    assert counts[1] > 0 and (rows.nsteps, rows.nrejected) == counts
    assert rows.s[0] == pytest.approx(s_end, abs=1e-12)


def test_float_stages_match_array_loop_outside_the_domain():
    def retire(s, y):
        return y[0] >= 1.0

    ref = _array_integrate(_undefined_past_1_2, 0.0, [0.0], 5.0, tol=1e-9, retire=retire)
    assert ref[5] > 0   # steps into the NaN region were rejected
    _assert_same_solution(integrate(_undefined_past_1_2, 0.0, [0.0], 5.0, tol=1e-9,
                                    retire=retire), ref)
