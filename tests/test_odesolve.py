import functools
import math

import numpy as np
import pytest

from randers import (
    InvalidParameterError, NumericalBlowupError, make_custom, make_paraboloid, odesolve,
)
from randers.conjugate import jacobi_integrate
from randers.geodesics import (
    GeodesicState, clairaut_constant, integrate_h, level_crossings_batch,
)
from randers.odesolve import (
    _A8, _A8_COLS, _B8, _C8, _D8, _D8_COLS, _E3, _E5, MAX_TOL, MIN_TOL,
    LevelEvent, _contd8, _dense8, _initial_step, integrate, integrate_batch,
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


def test_terminal_event_root():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-12,
                    events=[LevelEvent(0, 0.0, terminal=True, direction=-1)])
    assert sol.status == "event:0"
    assert sol.s[-1] == pytest.approx(math.pi, abs=1e-9)


def test_non_terminal_event_records_all_roots():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-12,
                    events=[LevelEvent(0, 0.0)])
    roots = [s for s, _ in sol.events[0]]
    assert len(roots) == 3
    np.testing.assert_allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi],
                               atol=1e-8)


def test_event_direction_filter():
    up_only = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-10,
                        events=[LevelEvent(0, 0.0, direction=1)])
    roots = [s for s, _ in up_only.events[0]]
    np.testing.assert_allclose(roots, [2 * math.pi], atol=1e-7)


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
    rows = integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0], [1.0, 0.0]], 1e9,
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
        integrate_batch(_oscillator_rows, 1.0, [[0.0, 1.0]], 0.5)
    with pytest.raises(ValueError):  # one row needs shape (1, dim)
        integrate_batch(_oscillator_rows, 0.0, [0.0, 1.0], 0.5)


@pytest.mark.parametrize("s_end,tol", [
    (math.nan, 1e-10), (math.inf, 1e-10),
    (1.0, 0.0), (1.0, math.nan), (1.0, -1e-10), (1.0, math.inf),
])
def test_rejects_non_finite_range_and_bad_tol(s_end, tol):
    # tol = 0 or NaN never accepts a step, and s_end = NaN or inf never ends
    with pytest.raises(InvalidParameterError):
        integrate(_oscillator, 0.0, [0.0, 1.0], s_end, tol=tol)
    with pytest.raises(InvalidParameterError):
        integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0]], s_end, tol=tol)


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
            integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0]], 1.0, tol=tol)
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
            integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0]], 1.0, tol=tol)
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


def _dop853_row(f, s0, y0, s_end, tol, events):
    """One row of integrate_batch as a plain loop: the DOP853 stages, the
    controller on the 5th-order error estimate alone, the dense output, and
    integrate's rule for events (a sign change between step ends, refined
    on the step's interpolant).  Returns (status, s, y, roots of each
    event)."""
    y, s = np.asarray(y0, dtype=float), float(s0)
    fs = f(s, y)
    h = min(_initial_step(y, fs), s_end - s)
    roots = {i: [] for i in range(len(events))}
    while s < s_end:
        h = min(h, s_end - s)
        k = [fs]
        for i in range(1, 12):
            k.append(f(s + _C8[i] * h, y + h * _row(_A8[i], _A8_COLS[i], k)))
        y_new = y + h * _row(_B8, _A8_COLS[12], k)
        err = h * _row(_E5, _A8_COLS[12], k)
        ratio = err / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        enorm = math.sqrt(float(ratio @ ratio) / y.size)
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.125))
        if enorm <= 1.0:
            k.append(f(s + h, y_new))
            for i in (13, 14, 15):
                k.append(f(s + _C8[i] * h, y + h * _row(_A8[i], _A8_COLS[i], k)))
            coeffs = _contd8(h, y, y_new, k[0], k[12], [k[j] for j in _D8_COLS])

            def at(sq, _s=s, _h=h, _y=y):
                return _dense8((sq - _s) / _h, _y, *coeffs)

            stop, status = None, None
            for i, ev in enumerate(events):
                g0, g1 = y[ev.component] - ev.level, y_new[ev.component] - ev.level
                if ((ev.direction >= 0 and g0 < 0.0 <= g1)
                        or (ev.direction <= 0 and g0 > 0.0 >= g1)):
                    root = roots_on_grid(lambda sq: at(sq)[ev.component] - ev.level,
                                         (s, s + h), (g0, g1), xtol=1e-12)[0]
                    roots[i].append(root)
                    if ev.terminal and (stop is None or root < stop):
                        stop, status = root, f"event:{i}"
            if stop is not None:
                return status, stop, at(stop), {i: [r for r in rs if r <= stop]
                                                for i, rs in roots.items()}
            s, y, fs = s + h, y_new, k[12]
        h *= factor
    return "completed", s, y, roots


def test_batch_rows_match_scalar_integrator():
    y0 = np.array([[0.0, 1.0], [1.0, 0.0], [0.3, -0.8], [0.0, 0.2]])
    events = [LevelEvent(0, 0.0), LevelEvent(0, -0.5, terminal=True, direction=-1)]
    batch = integrate_batch(_oscillator_rows, 0.0, y0, 12.0, tol=1e-11, events=events)
    zero_rows, zero_s, zero_y = batch.events[0]
    for i, row in enumerate(y0):
        status, s_end, y_end, roots = _dop853_row(_oscillator, 0.0, row, 12.0, 1e-11, events)
        assert batch.status[i] == status
        assert batch.s[i] == pytest.approx(s_end, abs=1e-10)
        np.testing.assert_allclose(batch.y[i], y_end, atol=1e-10)
        mine = zero_rows == i
        np.testing.assert_allclose(zero_s[mine], roots[0], atol=1e-10)
        np.testing.assert_allclose(zero_y[mine, 0], 0.0, atol=1e-12)
    assert batch.status[3] == "completed"   # amplitude 0.2 never reaches -0.5
    assert batch.nsteps > 0


def test_batch_projection():
    y0 = np.array([[0.0, 1.0], [0.6, 0.8]])
    sol = integrate_batch(_oscillator_rows, 0.0, y0, 30.0, tol=1e-6,
                          post_step=lambda s, y: y / np.hypot(y[:, 0], y[:, 1])[:, None])
    np.testing.assert_allclose(np.hypot(sol.y[:, 0], sol.y[:, 1]), 1.0, atol=1e-15)
    assert sol.status == ["completed", "completed"]


def test_batch_events_inside_one_step():
    # y' = 1 is integrated exactly, so steps grow fivefold and the one over
    # [1.56, 7.81] crosses every level below: the earlier terminal root
    # ends the row, whatever the order of the events, and only crossings
    # before it are kept
    events = [LevelEvent(0, 3.0, terminal=True), LevelEvent(0, 5.0, terminal=True),
              LevelEvent(0, 2.0), LevelEvent(0, 4.0)]
    for order in (events, [events[1], events[0], *events[2:]]):
        sol = integrate_batch(lambda s, y: np.ones_like(y), 0.0, [[0.0]], 10.0,
                              tol=1e-9, events=order)
        assert sol.nsteps == 5
        assert sol.status == [f"event:{order.index(events[0])}"]
        assert sol.s[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.y[0, 0] == pytest.approx(3.0, abs=1e-12)
        found = {ev.level: sol.events[i][1].tolist() for i, ev in enumerate(order)}
        assert found[3.0] == pytest.approx([3.0], abs=1e-12)
        assert found[2.0] == pytest.approx([2.0], abs=1e-12)
        assert found[5.0] == found[4.0] == []


def _line_past_the_origin(s, y):
    # (x, rho) with x' = 1 and rho' = 2 x: rho = x^2 + b^2 exactly, so
    # steps grow fivefold
    return np.column_stack([np.ones(len(y)), 2.0 * y[:, 0]])


_PAIR = (1.0 - math.sqrt(0.28), 1.0 + math.sqrt(0.28))


@pytest.mark.parametrize("direction,roots", [(0, _PAIR), (-1, _PAIR[:1]), (1, _PAIR[1:])])
def test_batch_sees_two_crossings_where_the_component_turns_inside_a_step(direction, roots):
    # rho = (s - 1)^2 + 0.36 falls to its minimum at s = 1 and rises again.
    # The step over [0.37, 1.84] holds the minimum: rho = 1 is crossed in
    # the step before it and once inside it, rho = 0.64 twice inside it,
    # and rho = 0.3 never
    sol = integrate_batch(_line_past_the_origin, 0.0, [[-1.0, 1.36]], 4.0, tol=1e-9,
                          events=[LevelEvent(1, 0.64, direction=direction),
                                  LevelEvent(1, 1.0), LevelEvent(1, 0.3)])
    assert sol.nsteps == 5 and sol.status == ["completed"]
    assert sol.events[0][1] == pytest.approx(roots, abs=1e-12)
    np.testing.assert_allclose(sol.events[0][2][:, 1], 0.64, atol=1e-12)
    assert sol.events[1][1] == pytest.approx([0.2, 1.8], abs=1e-12)
    assert sol.events[2][1].size == 0


_FALL_THEN_RISE = (1.0 - math.sqrt(0.39), 1.0 + math.sqrt(0.39))


@pytest.mark.parametrize("direction,roots", [
    (0, _FALL_THEN_RISE), (-1, _FALL_THEN_RISE[:1]), (1, _FALL_THEN_RISE[1:]),
])
def test_batch_step_that_turns_and_changes_sign(direction, roots):
    # rho = (s - 1)^2 + 0.36 again, from s = -0.5, so that the step over
    # [-0.13, 1.38] holds the minimum: it falls through rho = 0.75 before
    # the turn and ends below it, and the next step rises through it
    sol = integrate_batch(_line_past_the_origin, -0.5, [[-1.5, 2.61]], 3.0, tol=1e-9,
                          events=[LevelEvent(1, 0.75, direction=direction)])
    assert sol.nsteps == 5 and sol.status == ["completed"]
    assert sol.events[0][1] == pytest.approx(roots, abs=1e-12)
    np.testing.assert_allclose(sol.events[0][2][:, 1], 0.75, atol=1e-12)


def test_roots_past_a_terminal_root_are_dropped():
    # the step over [1.56, 7.81] crosses y = 3, where the terminal event
    # ends the solution, and y = 4 beyond it: neither integrator keeps 4
    one = integrate(lambda s, y: (1.0,), 0.0, [0.0], 10.0, tol=1e-9,
                    events=[LevelEvent(0, 3.0, terminal=True), LevelEvent(0, 4.0)])
    rows = integrate_batch(lambda s, y: np.ones_like(y), 0.0, [[0.0]], 10.0, tol=1e-9,
                           events=[LevelEvent(0, 3.0, terminal=True), LevelEvent(0, 4.0)])
    assert one.status == rows.status[0] == "event:0"
    assert one.s[-1] == pytest.approx(3.0, abs=1e-10)
    assert [s for s, _ in one.events[0]] == pytest.approx([3.0], abs=1e-10)
    assert one.events[1] == []
    assert rows.events[0][1] == pytest.approx([3.0], abs=1e-12)
    assert rows.events[1][1].size == 0


def test_terminal_root_on_a_step_end_stops_the_row():
    # the level is where y' = 1 ends its first step, so g reaches zero there
    level = integrate(lambda s, y: (1.0,), 0.0, [0.0], 10.0, tol=1e-9).y[1, 0]
    rows = integrate_batch(lambda s, y: np.ones_like(y), 0.0, [[0.0]], 10.0, tol=1e-9,
                           events=[LevelEvent(0, level, terminal=True)])
    assert rows.status == ["event:0"]
    assert rows.s[0] == pytest.approx(level, abs=1e-15)
    assert rows.events[0][1] == pytest.approx([level], abs=1e-15)


def test_steps_that_leave_the_domain_are_rejected():
    # the RHS is undefined beyond y = 1.2; steps that reach there are
    # rejected and shrunk until the terminal event at y = 1 stops the run
    def f(s, y):
        return np.where(np.asarray(y) < 1.2, 1.0, np.nan)

    one = integrate(f, 0.0, [0.0], 5.0, tol=1e-9,
                    events=[LevelEvent(0, 1.0, terminal=True)])
    rows = integrate_batch(f, 0.0, [[0.0]], 5.0, tol=1e-9,
                           events=[LevelEvent(0, 1.0, terminal=True)])
    assert one.status == rows.status[0] == "event:0"
    assert one.s[-1] == pytest.approx(1.0, abs=1e-10)
    assert rows.s[0] == pytest.approx(1.0, abs=1e-12)
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
# segments, stages, coefficients and event roots must be exactly equal.


def _row(coeffs, cols, k):
    """sum_j coeffs[j] k[cols[j]], added in column order."""
    acc = coeffs[0] * k[cols[0]]
    for a, j in zip(coeffs[1:], cols[1:]):
        acc = acc + a * k[j]
    return acc


def _array_integrate(f, s0, y0, s_end, tol=1e-10, post_step=None, events=(),
                     max_steps=2_000_000):
    y = np.asarray(y0, dtype=float).copy()
    s = float(s0)
    fs = f(s, y)
    ss, ys = [s], [y.copy()]
    seg = {k: [] for k in ("s", "h", "y0", "y1", "f0", "f1", "k", "coeffs")}
    ev_values = [y[ev.component] - ev.level for ev in events]
    ev_records = {i: [] for i in range(len(events))}
    status = "completed"
    h = min(_initial_step(y, fs), s_end - s0)
    nsteps = nrejected = 0
    root_n = math.sqrt(float(y.size))
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

        def seg_eval(sq, _s=s, _h=h, _y=y, _c=coeffs):
            return _dense8((sq - _s) / _h, _y, *_c)

        stop_at = None
        for i, ev in enumerate(events):
            g_new, g_old = y_new[ev.component] - ev.level, ev_values[i]
            crossed = (g_old < 0.0 <= g_new) or (g_old > 0.0 >= g_new)
            if crossed and ev.direction > 0 and not g_old < 0.0:
                crossed = False
            if crossed and ev.direction < 0 and not g_old > 0.0:
                crossed = False
            if crossed:
                root = roots_on_grid(lambda sq: seg_eval(sq)[ev.component] - ev.level,
                                     (s, s_new), (g_old, g_new), xtol=1e-10)[0]
                ev_records[i].append((root, seg_eval(root)))
                if ev.terminal and (stop_at is None or root < stop_at):
                    stop_at, status = root, f"event:{i}"
            ev_values[i] = g_new
        if stop_at is not None:
            for recs in ev_records.values():
                if recs and recs[-1][0] > stop_at:
                    recs.pop()
            ss.append(stop_at)
            ys.append(seg_eval(stop_at))
            break
        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys.append(y)
        h *= (5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.125)))
    return ss, ys, seg, ev_records, status, nsteps, nrejected


def _assert_same_solution(sol, ref):
    ss, ys, seg, ev_records, status, nsteps, nrejected = ref
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
    assert sol.events.keys() == ev_records.keys()
    for i, recs in ev_records.items():
        assert len(sol.events[i]) == len(recs)
        for (s_new, y_new), (s_ref, y_ref) in zip(sol.events[i], recs):
            assert s_new == s_ref
            assert np.array_equal(y_new, y_ref)


def _oscillator_tuple(s, y):
    a, b = y
    return (b, -a)


@pytest.mark.parametrize("f", [_oscillator, _oscillator_tuple])
def test_float_stages_match_array_loop_on_the_oscillator(f):
    def proj(s, y):
        return np.asarray(y) / math.hypot(y[0], y[1])

    events = [LevelEvent(0, 0.0), LevelEvent(1, 0.0, direction=1),
              LevelEvent(0, -0.5, terminal=True, direction=-1)]
    for kwargs in ({"tol": 1e-11}, {"tol": 1e-7, "post_step": proj},
                   {"tol": 1e-12, "events": events}, {"tol": 1e-6, "max_steps": 40}):
        _assert_same_solution(integrate(f, 0.0, [0.0, 1.0], 60.0, **kwargs),
                              _array_integrate(_oscillator, 0.0, [0.0, 1.0], 60.0,
                                               **kwargs))


def test_callbacks_see_float_lists_and_may_return_any_sequence():
    # f and post_step are called with the state as a list of floats, never
    # an ndarray; a tuple, list or ndarray from f, and a list, ndarray or
    # None from post_step, give the array loop's solution bit for bit
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

    kwargs = {"tol": 1e-9, "events": [LevelEvent(0, 0.0), LevelEvent(1, 0.0, direction=1)]}
    plain = _array_integrate(_oscillator, 0.0, [0.6, 0.8], 20.0, **kwargs)
    projected = _array_integrate(_oscillator, 0.0, [0.6, 0.8], 20.0, post_step=proj_array,
                                 **kwargs)
    for f in (_oscillator_tuple, lambda s, y: [y[1], -y[0]], _oscillator):
        for post_step, ref in ((None, plain), (lambda s, y: None, plain),
                               (proj_list, projected), (proj_array, projected)):
            sol = integrate(watched(f), 0.0, [0.6, 0.8], 20.0,
                            post_step=post_step and watched(post_step), **kwargs)
            _assert_same_solution(sol, ref)
    assert seen == {list, float}


def _geodesic_system(profile, nu0, r_floor):
    """The right-hand side and unit-speed projection of the geodesic
    integrator's polar chart, in array form, with two terminal events: the
    domain exit and a floor that an inward ray reaches."""
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

    events = [LevelEvent(0, profile.r_max, terminal=True, direction=1),
              LevelEvent(0, r_floor, terminal=True, direction=-1)]
    return rhs, renormalize, events


def _assert_geodesic_matches_array_loop(profile, r0, phi, length, status):
    """integrate and integrate_h against _array_integrate on the geodesic
    system from (r0, 0.4) at heading phi; status "event:1" sets the blow-up
    floor at r = 1.2, so an inward ray stops there."""
    state0 = GeodesicState(r0, 0.4, math.cos(phi), math.sin(phi) / float(profile.m(r0)))
    nu0 = clairaut_constant(profile, state0)
    floor = 1.2 if status == "event:1" else max(1e-14, 1e-3 * abs(nu0))
    rhs, renormalize, events = _geodesic_system(profile, nu0, floor)
    ref = _array_integrate(rhs, 0.0, state0.as_array(), length, tol=1e-12,
                           post_step=renormalize, events=events)
    assert ref[4] == status
    sol = integrate(rhs, 0.0, state0.as_array(), length, tol=1e-12,
                    post_step=renormalize, events=events)
    _assert_same_solution(sol, ref)
    if status != "event:1":
        path = integrate_h(profile, state0, length, tol=1e-12)
        ss, ys = np.array(ref[0]), np.array(ref[1])
        if status == "event:0":
            ys[-1, 0] = profile.r_max
        assert path.exit_reason == ("completed" if status == "completed" else "domain-exit")
        if r0 >= profile.vertex_chart_radius:
            # above the vertex chart, integrate_h runs the same system on
            # its float right-hand side (these rays never come down to it)
            assert np.array_equal(path.s, ss)
            assert np.array_equal(path.states, ys)
            assert (path.dense.nsteps, path.dense.nrejected) == ref[5:]
        else:
            # below it, integrate_h starts in normal coordinates at the
            # vertex: the same geodesic, to the tolerance
            assert path.s[-1] == pytest.approx(ss[-1], abs=1e-9)
            np.testing.assert_allclose(path.dense(ss[:-1]), ys[:-1], rtol=0, atol=1e-9)
            np.testing.assert_allclose(path.states[-1], ys[-1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("r0,phi,length,status", [
    (1.0, 0.7, 40.0, "event:0"),     # leaves the domain through r_max
    (2.5, 2.9, 6.0, "event:1"),      # inward, stopped by a floor set at r = 1.2
    (1.3, 1.2, 25.0, "completed"),
])
def test_float_stages_match_array_loop_on_the_geodesic_rhs(r0, phi, length, status):
    _assert_geodesic_matches_array_loop(make_paraboloid(1.0), r0, phi, length, status)


@pytest.mark.parametrize("r0,phi,length,status", [
    # the sphere's vertex chart ends at 1.39, so integrate_h starts the two
    # rays from r = 1 there
    (1.0, 0.3, 10.0, "event:0"),     # out over the equator to r_max = 2.8
    (2.5, 2.9, 6.0, "event:1"),
    (1.0, 1.2, 12.0, "completed"),   # between the turning radii 0.90 and 2.24
])
def test_float_stages_match_array_loop_on_an_expression_profile(sphere, r0, phi, length,
                                                                 status):
    # the conftest sphere's m and m1 are compiled from the expressions
    # "sin(r)" and "cos(r)", not a closure warp like the paraboloid's
    _assert_geodesic_matches_array_loop(sphere, r0, phi, length, status)


def test_float_stages_match_array_loop_on_the_jacobi_rhs():
    # the Jacobi field y(0) = 0, y'(0) = 1 along the paraboloid's meridian
    # chain through the vertex, with its zeros as a level event
    profile = make_paraboloid(1.0)
    q = SurfacePoint(1.2, 0.0)
    horizon = q.r + profile.r_max
    base = integrate_h(profile, GeodesicState(q.r, q.theta, -1.0, 0.0), horizon)
    jac = jacobi_integrate(profile, base, 0.0, 1.0, horizon)
    r0, dr0 = float(base.states[0, 0]), float(base.states[0, 2])

    def rhs(s, z):
        y, yp = z
        return np.array([yp, -gauss_curvature(profile, abs(r0 + dr0 * s)) * y])

    ss, ys, _, ev_records, status, _, _ = _array_integrate(
        rhs, 0.0, [0.0, 1.0], horizon, tol=1e-12, events=[LevelEvent(0, 0.0)])
    assert status == "completed"
    ys = np.array(ys)
    assert np.array_equal(jac.s, np.array(ss))
    assert np.array_equal(jac.y, ys[:, 0])
    assert np.array_equal(jac.yp, ys[:, 1])
    assert jac.first_zero == ev_records[0][0][0]


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
    rows = integrate_batch(f_rows, 0.0, [[0.0, 1.0], [1.0, 0.0]], 2.0, tol=tol)
    assert rows.status == ["max_steps", "max_steps"]
    np.testing.assert_allclose(rows.s, 0.5, atol=1e-15)
    assert len(calls) <= 2000


def test_float_stages_match_array_loop_outside_the_domain():
    def f(s, y):
        return np.where(np.asarray(y) < 1.2, 1.0, np.nan)

    events = [LevelEvent(0, 1.0, terminal=True)]
    ref = _array_integrate(f, 0.0, [0.0], 5.0, tol=1e-9, events=events)
    assert ref[6] > 0   # steps into the NaN region were rejected
    _assert_same_solution(integrate(f, 0.0, [0.0], 5.0, tol=1e-9, events=events), ref)
