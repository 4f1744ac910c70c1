import math

import numpy as np
import pytest

from randers import InvalidParameterError
from randers.odesolve import EventSpec, LevelEvent, integrate, integrate_batch


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
