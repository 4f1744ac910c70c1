import math

import numpy as np
import pytest

from randers import InvalidParameterError, make_custom, make_paraboloid
from randers.geodesics import GeodesicState, clairaut_constant, integrate_h
from randers.odesolve import (
    _A, _B, _C, _E, MAX_TOL, EventSpec, LevelEvent, _contd5, _dense, _initial_step,
    integrate, integrate_batch,
)
from randers.profile import roots_on_grid


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


def test_terminal_event_root():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-12,
                    events=[EventSpec(lambda s, y: y[0], terminal=True,
                                      direction=-1)])
    assert sol.status == "event:0"
    assert sol.s[-1] == pytest.approx(math.pi, abs=1e-9)


def test_non_terminal_event_records_all_roots():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-12,
                    events=[EventSpec(lambda s, y: y[0])])
    roots = [s for s, _ in sol.events[0]]
    assert len(roots) == 3
    np.testing.assert_allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi],
                               atol=1e-8)


def test_event_direction_filter():
    up_only = integrate(_oscillator, 0.0, [0.0, 1.0], 10.0, tol=1e-10,
                        events=[EventSpec(lambda s, y: y[0], direction=1)])
    roots = [s for s, _ in up_only.events[0]]
    np.testing.assert_allclose(roots, [2 * math.pi], atol=1e-7)


def test_post_step_projection_runs():
    # project onto the unit circle each step; energy stays pinned
    def proj(s, y):
        n = math.hypot(y[0], y[1])
        return y / n

    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 50.0, tol=1e-9,
                    post_step=proj)
    radii = np.hypot(sol.y[:, 0], sol.y[:, 1])
    assert np.abs(radii - 1.0).max() < 1e-12


def test_step_cap_respected():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 5.0, tol=1e-6, h_max=0.05)
    assert np.diff(sol.s).max() <= 0.05 + 1e-12


def test_max_steps_status():
    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 1e9, tol=1e-6,
                    max_steps=50)
    assert sol.status == "max_steps"
    rows = integrate_batch(_oscillator_rows, 0.0, [[0.0, 1.0], [1.0, 0.0]], 1e9,
                           tol=1e-6, max_steps=50)
    assert rows.status == ["max_steps", "max_steps"]


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


def test_projected_state_ends_each_step():
    # the dense output passes through the projected samples: every step
    # ends where the next one starts, with the derivative recomputed there
    def proj(s, y):
        return y / math.hypot(y[0], y[1])

    sol = integrate(_oscillator, 0.0, [0.0, 1.0], 20.0, tol=1e-9, post_step=proj)
    assert np.array_equal(sol.seg_y1[:-1], sol.seg_y0[1:])
    assert np.array_equal(sol.seg_f1[:-1], sol.seg_f0[1:])
    assert np.array_equal(sol(sol.s[1:-1]), sol.y[1:-1])


def test_batch_rows_match_scalar_integrator():
    y0 = np.array([[0.0, 1.0], [1.0, 0.0], [0.3, -0.8], [0.0, 0.2]])
    floors = np.array([-0.5, -0.9, -0.1, -0.3])
    events = [LevelEvent(0, 0.0), LevelEvent(0, floors, terminal=True, direction=-1)]
    batch = integrate_batch(_oscillator_rows, 0.0, y0, 12.0, tol=1e-11, events=events)
    zero_rows, zero_s, zero_y = batch.events[0]
    for i, row in enumerate(y0):
        ref = integrate(_oscillator, 0.0, row, 12.0, tol=1e-11, events=[
            EventSpec(lambda s, y: y[0]),
            EventSpec(lambda s, y, f=floors[i]: y[0] - f, terminal=True, direction=-1)])
        assert batch.status[i] == ref.status
        assert batch.s[i] == pytest.approx(ref.s[-1], abs=1e-10)
        np.testing.assert_allclose(batch.y[i], ref.y[-1], atol=1e-10)
        mine = zero_rows == i
        np.testing.assert_allclose(zero_s[mine], [s for s, _ in ref.events[0]], atol=1e-10)
        np.testing.assert_allclose(zero_y[mine, 0], 0.0, atol=1e-12)
    assert batch.status[3] == "completed"   # amplitude 0.2 never reaches -0.3
    assert batch.nsteps > 0


def test_batch_projection_and_step_cap():
    y0 = np.array([[0.0, 1.0], [0.6, 0.8]])
    sol = integrate_batch(_oscillator_rows, 0.0, y0, 30.0, tol=1e-6, h_max=0.05,
                          post_step=lambda s, y: y / np.hypot(y[:, 0], y[:, 1])[:, None])
    np.testing.assert_allclose(np.hypot(sol.y[:, 0], sol.y[:, 1]), 1.0, atol=1e-15)
    assert sol.nsteps >= 2 * 600
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


def test_roots_past_a_terminal_root_are_dropped():
    # the step over [1.56, 7.81] crosses y = 3, where the terminal event
    # ends the solution, and y = 4 beyond it: neither integrator keeps 4
    one = integrate(lambda s, y: (1.0,), 0.0, [0.0], 10.0, tol=1e-9,
                    events=[EventSpec(lambda s, y: y[0] - 3.0, terminal=True),
                            EventSpec(lambda s, y: y[0] - 4.0)])
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
        return np.where(y < 1.2, 1.0, np.nan)

    one = integrate(f, 0.0, [0.0], 5.0, tol=1e-9,
                    events=[EventSpec(lambda s, y: y[0] - 1.0, terminal=True)])
    rows = integrate_batch(f, 0.0, [[0.0]], 5.0, tol=1e-9,
                           events=[LevelEvent(0, 1.0, terminal=True)])
    assert one.status == rows.status[0] == "event:0"
    assert one.s[-1] == pytest.approx(1.0, abs=1e-10)
    assert rows.s[0] == pytest.approx(1.0, abs=1e-12)
    assert one.nrejected < 100 and rows.nrejected < 100


# ---------------------------------------------------------------------------
# bit-identity with the array form of the step loop
#
# _array_integrate is integrate as it was written on numpy arrays: the same
# tableau and controller, every stage an array expression, and each step's
# continuous extension built as the step is taken.  integrate runs the
# stages on Python floats in the same order of operations and builds the
# extension from the stored stages when it is read, so its steps, samples,
# dense-output segments and stages and event roots must be exactly equal.


def _array_integrate(f, s0, y0, s_end, tol=1e-10, h_max=np.inf, post_step=None,
                     events=(), max_steps=2_000_000):
    y = np.asarray(y0, dtype=float).copy()
    s = float(s0)
    fs = f(s, y)
    ss, ys = [s], [y.copy()]
    seg = {k: [] for k in ("s", "h", "y0", "y1", "f0", "f1", "k")}
    ev_values = [ev.func(s, y) for ev in events]
    ev_records = {i: [] for i in range(len(events))}
    status = "completed"
    h = min(_initial_step(y, fs, h_max), s_end - s0, h_max)
    nsteps = nrejected = 0
    root_n = math.sqrt(float(y.size))
    while s < s_end:
        if nsteps + nrejected > max_steps:
            status = "max_steps"
            break
        h = min(h, s_end - s, h_max)
        k0 = fs
        k1 = f(s + 0.2 * h, y + (0.2 * h) * k0)
        k2 = f(s + 0.3 * h, y + h * (0.075 * k0 + 0.225 * k1))
        k3 = f(s + 0.8 * h, y + h * (_A[3][0] * k0 + _A[3][1] * k1 + _A[3][2] * k2))
        k4 = f(s + _C[4] * h, y + h * (_A[4][0] * k0 + _A[4][1] * k1
                                       + _A[4][2] * k2 + _A[4][3] * k3))
        k5 = f(s + h, y + h * (_A[5][0] * k0 + _A[5][1] * k1 + _A[5][2] * k2
                               + _A[5][3] * k3 + _A[5][4] * k4))
        y_new = y + h * (_B[0] * k0 + _B[2] * k2 + _B[3] * k3
                         + _B[4] * k4 + _B[5] * k5)
        k6 = f(s + h, y_new)
        err = h * (_E[0] * k0 + _E[2] * k2 + _E[3] * k3 + _E[4] * k4
                   + _E[5] * k5 + _E[6] * k6)
        ratio = err / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        enorm = math.sqrt(float(ratio @ ratio)) / root_n
        if not enorm <= 1.0:
            nrejected += 1
            h *= max(0.2, 0.9 * enorm**-0.2)
            continue
        nsteps += 1
        f_new = k6
        s_new = s + h
        if post_step is not None:
            y_proj = post_step(s_new, y_new)
            if y_proj is not None:
                y_new = np.asarray(y_proj, dtype=float)
                f_new = f(s_new, y_new)
        for key, val in zip(seg, (s, h, y, y_new, k0, f_new, (k2, k3, k4, k5, k6))):
            seg[key].append(val)

        def seg_eval(sq, _s=s, _h=h, _y=y,
                     _c=_contd5(h, y, y_new, k0, f_new, k2, k3, k4, k5, k6)):
            return _dense((sq - _s) / _h, _y, *_c)

        stop_at = None
        for i, ev in enumerate(events):
            g_new, g_old = ev.func(s_new, y_new), ev_values[i]
            crossed = (g_old < 0.0 <= g_new) or (g_old > 0.0 >= g_new)
            if crossed and ev.direction > 0 and not g_old < 0.0:
                crossed = False
            if crossed and ev.direction < 0 and not g_old > 0.0:
                crossed = False
            if crossed:
                root = roots_on_grid(lambda sq: ev.func(sq, seg_eval(sq)),
                                     (s, s_new), (g_old, g_new), xtol=1e-10)[0]
                ev_records[i].append((root, seg_eval(root)))
                if ev.terminal and (stop_at is None or root < stop_at):
                    stop_at, status = root, f"event:{i}"
            ev_values[i] = g_new
        if stop_at is not None:
            ss.append(stop_at)
            ys.append(seg_eval(stop_at))
            break
        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys.append(y)
        h *= (5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.2)))
    return ss, ys, seg, ev_records, status, nsteps, nrejected


def _assert_same_solution(sol, ref):
    ss, ys, seg, ev_records, status, nsteps, nrejected = ref
    assert sol.status == status
    assert (sol.nsteps, sol.nrejected) == (nsteps, nrejected)
    assert np.array_equal(sol.s, np.array(ss))
    assert np.array_equal(sol.y, np.array(ys))
    for key, val in seg.items():
        assert np.array_equal(getattr(sol, "seg_" + key), np.array(val)), key
    assert sol.events.keys() == ev_records.keys()
    for i, recs in ev_records.items():
        assert len(sol.events[i]) == len(recs)
        for (s_new, y_new), (s_ref, y_ref) in zip(sol.events[i], recs):
            assert s_new == s_ref
            assert np.array_equal(y_new, y_ref)


def _oscillator_tuple(s, y):
    a, b = y.tolist()
    return (b, -a)


@pytest.mark.parametrize("f", [_oscillator, _oscillator_tuple])
def test_float_stages_match_array_loop_on_the_oscillator(f):
    def proj(s, y):
        return y / math.hypot(y[0], y[1])

    events = [EventSpec(lambda s, y: y[0]), EventSpec(lambda s, y: y[1], direction=1),
              EventSpec(lambda s, y: y[0] + 0.5, terminal=True, direction=-1)]
    for kwargs in ({"tol": 1e-11}, {"tol": 1e-7, "h_max": 0.3, "post_step": proj},
                   {"tol": 1e-12, "events": events}, {"tol": 1e-6, "max_steps": 40}):
        _assert_same_solution(integrate(f, 0.0, [0.0, 1.0], 60.0, **kwargs),
                              _array_integrate(_oscillator, 0.0, [0.0, 1.0], 60.0,
                                               **kwargs))


def _geodesic_system(profile, nu0, r_floor):
    """The right-hand side, unit-speed projection and two terminal events of
    the geodesic integrator, in array form."""
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

    events = [EventSpec(lambda s, y: y[0] - profile.r_max, terminal=True, direction=1),
              EventSpec(lambda s, y: y[0] - r_floor, terminal=True, direction=-1)]
    return rhs, renormalize, events


@pytest.mark.parametrize("r0,phi,length,status", [
    (1.0, 0.7, 40.0, "event:0"),     # leaves the domain through r_max
    (2.5, 2.9, 6.0, "event:1"),      # inward, stopped by a floor set at r = 1.2
    (1.3, 1.2, 25.0, "completed"),
])
def test_float_stages_match_array_loop_on_the_geodesic_rhs(r0, phi, length, status):
    profile = make_paraboloid(1.0)
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
        # integrate_h runs the same system on its float right-hand side
        path = integrate_h(profile, state0, length, tol=1e-12)
        ss, ys = np.array(ref[0]), np.array(ref[1])
        if status == "event:0":
            ys[-1, 0] = profile.r_max
        assert np.array_equal(path.s, ss)
        assert np.array_equal(path.states, ys)
        assert (path.dense.nsteps, path.dense.nrejected) == ref[5:]


def test_float_stages_match_array_loop_outside_the_domain():
    def f(s, y):
        return np.where(y < 1.2, 1.0, np.nan)

    events = [EventSpec(lambda s, y: y[0] - 1.0, terminal=True)]
    ref = _array_integrate(f, 0.0, [0.0], 5.0, tol=1e-9, events=events)
    assert ref[6] > 0   # steps into the NaN region were rejected
    _assert_same_solution(integrate(f, 0.0, [0.0], 5.0, tol=1e-9, events=events), ref)
