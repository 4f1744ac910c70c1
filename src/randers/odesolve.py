"""Adaptive embedded Runge-Kutta integrators with dense output and events.

Dormand-Prince 5(4) pair: six function stages plus FSAL, 5th-order
propagation, 4th-order error estimate, standard step-size controller
(Hairer, Norsett and Wanner, Solving ODEs I, section II.4).  Between accepted
steps the solution is interpolated by cubic Hermite polynomials built from
the stored endpoint values and derivatives; the dense output evaluates a
whole array of parameters in one vectorized pass.

Two integrators share the tableau, the controller and the interpolant:

* ``integrate`` runs one trajectory and keeps every accepted step, so its
  ODESolution is a dense output over the whole range.  Its state is a
  handful of numbers, so the stages, the solution update and the error terms
  run on Python floats, each sum in the order of the array expression of
  ``integrate_batch``; only the error norm of a step is an array dot
  product, and the event arrays and the step's Hermite closure are built
  only for a step that crosses an event.  f is called with a state ndarray
  and may return any sequence of dim numbers; a tuple of floats is the
  cheapest.
* ``integrate_batch`` runs many independent trajectories of one ODE at once
  on an (n_rows, dim) state.  Each row keeps its own step size and is
  accepted or rejected under a mask; rows leave the active set when they
  reach s_end or a terminal event.  No dense output is stored, so memory
  stays O(n_rows) plus the event roots.

Both take the same two hooks:

* ``post_step(s, y) -> y_new | None`` runs after every accepted step and may
  project the state back onto an invariant manifold (the geodesic integrators
  renormalize unit speed there).  It must return a replacement array, or
  None to keep the state; it must not mutate its argument.  After a
  replacement the FSAL derivative is recomputed, and the step's end state
  and derivative are the projected ones, so the dense output passes through
  the sampled states.
* Events.  ``integrate`` takes EventSpec functions g(s, y); their sign
  changes over accepted steps are refined by brentq on the step's dense
  output.  ``integrate_batch`` takes LevelEvents, crossings of one state
  component through a level (one per row, or shared); the roots of all
  crossing rows of a step are refined together on the step's Hermite cubic.
  A crossing counts when g goes from one strict sign to zero or the other
  sign.  Terminal events stop the integration (a single row, in a batch) and
  truncate the final step at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .profile import roots_on_grid

# Dormand-Prince coefficients.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_B_HAT = (
    5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
    -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0,
)
_E = tuple(b - bh for b, bh in zip(_B, _B_HAT))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 5.0


@dataclass
class EventSpec:
    """Scalar event g(s, y); a root is recorded whenever g changes sign."""

    func: Callable[[float, np.ndarray], float]
    terminal: bool = False
    direction: int = 0  # +1: only -..+ crossings, -1: only +..-, 0: both


@dataclass
class ODESolution:
    s: np.ndarray
    y: np.ndarray
    seg_s: np.ndarray      # accepted-step left endpoints
    seg_h: np.ndarray      # accepted-step sizes
    seg_y0: np.ndarray
    seg_y1: np.ndarray
    seg_f0: np.ndarray
    seg_f1: np.ndarray
    status: str = "completed"
    events: dict = field(default_factory=dict)
    nsteps: int = 0
    nrejected: int = 0

    def __call__(self, s):
        """Dense evaluation by per-step cubic Hermite interpolation; an array
        of parameters gives one state row per entry."""
        s_arr = np.asarray(s, dtype=float)
        if self.seg_s.size == 0:
            return np.broadcast_to(self.y[0], s_arr.shape + self.y[0].shape).copy()
        # the step containing s; parameters outside [s0, s_end] extrapolate
        # from the first or last step
        i = np.searchsorted(self.seg_s[1:], s_arr, side="right")
        # arrays broadcast against the state axis; a scalar stays a scalar
        col = (..., None) if s_arr.ndim else ()
        return _hermite(
            s_arr[col], self.seg_s[i][col], self.seg_h[i][col],
            self.seg_y0[i], self.seg_y1[i], self.seg_f0[i], self.seg_f1[i],
        )


def _hermite(s, s0, h, y0, y1, f0, f1):
    t = (s - s0) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _initial_step(y0, f0, h_max):
    """First trial step; per row when y0 and f0 hold one state per row."""
    d0 = np.max(np.abs(y0), axis=-1) + 1.0
    d1 = np.max(np.abs(f0), axis=-1) + 1e-8
    return np.minimum(0.01 * d0 / d1, h_max)


def _check_span_tol(s0, s_end, tol) -> None:
    if not (math.isfinite(s0) and math.isfinite(s_end) and s_end > s0):
        raise InvalidParameterError(
            f"integration needs finite s0 < s_end, got [{s0}, {s_end}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")


def integrate(
    f: Callable[[float, np.ndarray], Sequence[float]],
    s0: float,
    y0,
    s_end: float,
    tol: float = 1e-10,
    h_max: float = np.inf,
    post_step: Callable[[float, np.ndarray], np.ndarray] | None = None,
    events: Sequence[EventSpec] = (),
    max_steps: int = 2_000_000,
) -> ODESolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0, both finite).

    f is called with a float and a state ndarray and returns the dim
    derivative components as any sequence of numbers (a tuple of floats is
    the cheapest; an ndarray works too).  The stages, the solution update
    and the error terms run on Python floats; only the error norm of a step
    is an array dot product.  tol (finite, > 0) is used as both absolute and
    relative per-step tolerance; a bad range or tol raises
    InvalidParameterError.  Returns an ODESolution whose status is
    ``completed``, the name of a terminal event, or ``max_steps``.
    """
    _check_span_tol(s0, s_end, tol)
    y_arr = np.asarray(y0, dtype=float).copy()
    dim = y_arr.size
    y = y_arr.tolist()
    s = float(s0)

    fs = f(s, y_arr)
    if isinstance(fs, np.ndarray):
        # numpy scalars give the same sums, but floats are faster
        array_f = f
        fs = fs.tolist()

        def f(t, state):
            return array_f(t, state).tolist()

    ss = [s]
    ys = [y]
    seg_s, seg_h, seg_y0, seg_y1, seg_f0, seg_f1 = [], [], [], [], [], []
    ev_values = [ev.func(s, y_arr) for ev in events]
    ev_records: dict = {i: [] for i in range(len(events))}
    status = "completed"

    h = float(min(_initial_step(y_arr, np.asarray(fs, dtype=float), h_max),
                  s_end - s0, h_max))
    nsteps = 0
    nrejected = 0
    root_n = math.sqrt(float(dim))
    a20, a21 = _A[2]
    a30, a31, a32 = _A[3]
    a40, a41, a42, a43 = _A[4]
    a50, a51, a52, a53, a54 = _A[5]
    b0, _, b2, b3, b4, b5, _ = _B
    e0, _, e2, e3, e4, e5, e6 = _E
    c4 = _C[4]
    array = np.array

    while s < s_end:
        if nsteps + nrejected > max_steps:
            status = "max_steps"
            break
        h = min(h, s_end - s, h_max)

        # unrolled Dormand-Prince stages on floats (b1 = 0 in both weight
        # rows), each sum in the order of integrate_batch's array expressions
        k0 = fs
        c = 0.2 * h
        k1 = f(s + c, array([y_ + c * p0 for y_, p0 in zip(y, k0)]))
        k2 = f(s + 0.3 * h, array([y_ + h * (a20 * p0 + a21 * p1)
                                     for y_, p0, p1 in zip(y, k0, k1)]))
        k3 = f(s + 0.8 * h, array([y_ + h * (a30 * p0 + a31 * p1 + a32 * p2)
                                     for y_, p0, p1, p2 in zip(y, k0, k1, k2)]))
        k4 = f(s + c4 * h, array([
            y_ + h * (a40 * p0 + a41 * p1 + a42 * p2 + a43 * p3)
            for y_, p0, p1, p2, p3 in zip(y, k0, k1, k2, k3)]))
        k5 = f(s + h, array([
            y_ + h * (a50 * p0 + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
            for y_, p0, p1, p2, p3, p4 in zip(y, k0, k1, k2, k3, k4)]))
        y_new = [y_ + h * (b0 * p0 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5)
                 for y_, p0, p2, p3, p4, p5 in zip(y, k0, k2, k3, k4, k5)]
        y_new_arr = array(y_new)
        k6 = f(s + h, y_new_arr)
        # err / (tol + tol * max(|y|, |y_new|)); the max takes the NaN of a
        # y_new that left f's domain, as np.maximum does
        ratio = array([
            h * (e0 * p0 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6)
            / (tol + tol * (a if a > b else b))
            for a, b, p0, p2, p3, p4, p5, p6 in zip(
                map(abs, y), map(abs, y_new), k0, k2, k3, k4, k5, k6)])
        enorm = math.sqrt(float(ratio @ ratio)) / root_n

        if not enorm <= 1.0:  # a NaN norm (a stage left f's domain) rejects too
            nrejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP)
            continue

        # accept
        nsteps += 1
        f_new = k6  # FSAL stage is f(s + h, y_new)
        s_new = s + h
        if post_step is not None:
            y_proj = post_step(s_new, y_new_arr)
            if y_proj is not None:
                y_new_arr = np.asarray(y_proj, dtype=float)
                y_new = y_new_arr.tolist()
                f_new = f(s_new, y_new_arr)
        seg_s.append(s)
        seg_h.append(h)
        seg_y0.append(y)
        seg_y1.append(y_new)
        seg_f0.append(k0)
        seg_f1.append(f_new)

        stop_at = None
        seg_eval = None
        for i, ev in enumerate(events):
            g_new = ev.func(s_new, y_new_arr)
            g_old = ev_values[i]
            crossed = (g_old < 0.0 <= g_new) or (g_old > 0.0 >= g_new)
            if crossed:
                if ev.direction > 0 and not (g_old < 0.0):
                    crossed = False
                if ev.direction < 0 and not (g_old > 0.0):
                    crossed = False
            if crossed:
                if seg_eval is None:
                    def seg_eval(sq, _s=s, _h=h, _y=array(y), _yn=y_new_arr,
                                 _f0=array(k0, dtype=float),
                                 _fn=array(f_new, dtype=float)):
                        return _hermite(sq, _s, _h, _y, _yn, _f0, _fn)

                root = roots_on_grid(lambda sq: ev.func(sq, seg_eval(sq)),
                                     (s, s_new), (g_old, g_new), xtol=1e-10)[0]
                ev_records[i].append((root, seg_eval(root)))
                if ev.terminal and (stop_at is None or root < stop_at):
                    stop_at = root
                    status = f"event:{i}"
            ev_values[i] = g_new

        if stop_at is not None:
            y_stop = seg_eval(stop_at)
            seg_h[-1] = stop_at - s
            seg_y1[-1] = y_stop
            seg_f1[-1] = f(stop_at, y_stop)
            ss.append(stop_at)
            ys.append(y_stop)
            s = stop_at
            break

        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys.append(y)

        if enorm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP))
        h *= factor

    def stacked(rows):
        return np.array(rows, dtype=float) if rows else np.empty((0, dim))

    return ODESolution(
        s=np.array(ss),
        y=np.array(ys, dtype=float),
        seg_s=np.array(seg_s),
        seg_h=np.array(seg_h),
        seg_y0=stacked(seg_y0),
        seg_y1=stacked(seg_y1),
        seg_f0=stacked(seg_f0),
        seg_f1=stacked(seg_f1),
        status=status,
        events={i: recs for i, recs in ev_records.items()},
        nsteps=nsteps,
        nrejected=nrejected,
    )


# ---------------------------------------------------------------------------
# many trajectories of one ODE at once

_ROOT_XTOL = 1e-12
_ROOT_MAXITER = 200


@dataclass
class LevelEvent:
    """Crossing of state component ``component`` through ``level`` for
    integrate_batch; level is one value shared by every row or one per row."""

    component: int
    level: float | np.ndarray
    terminal: bool = False
    direction: int = 0  # as EventSpec.direction


@dataclass
class BatchSolution:
    """Where each row of a batch integration ended, and the event roots.

    status[i] is ``completed``, ``event:k`` for the terminal event k that
    stopped row i, or ``max_steps``.  events[k] is a triple of arrays
    (rows, s, y): the batch row, parameter and state of every root of event
    k, each row's roots in parameter order.
    """

    s: np.ndarray
    y: np.ndarray
    status: list
    events: dict
    nsteps: int = 0      # accepted steps, summed over rows
    nrejected: int = 0


def _level_roots(s0, h, g0, g1, d0, d1, xtol):
    """Parameters in [s0, s0 + h] where cubic Hermite segments with end
    values g0, g1 and end slopes d0, d1 vanish, one per row.  g0 is nonzero
    and g1 is zero or of the other sign.  Newton on the cubic in power form,
    with a bisection step wherever Newton leaves the bracket."""
    sgn = np.where(g0 < 0.0, 1.0, -1.0)   # orient every cubic to rise
    a0 = sgn * g0
    a1 = sgn * h * d0
    a2 = sgn * (3.0 * (g1 - g0) - h * (2.0 * d0 + d1))
    a3 = sgn * (2.0 * (g0 - g1) + h * (d0 + d1))
    lo, hi = np.zeros_like(g0), np.ones_like(g0)
    t = g0 / (g0 - g1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAXITER):
            p = ((a3 * t + a2) * t + a1) * t + a0
            dp = (3.0 * a3 * t + 2.0 * a2) * t + a1
            lo = np.where(p < 0.0, t, lo)
            hi = np.where(p > 0.0, t, hi)
            t_new = t - p / dp
            t_new = np.where((t_new > lo) & (t_new < hi), t_new, 0.5 * (lo + hi))
            t_new = np.where(p == 0.0, t, t_new)
            step = np.abs(t_new - t) * h
            t = t_new
            if np.all(step <= xtol):
                break
    return s0 + t * h


def _crossing_rows(ev: LevelEvent, level, s0, h, y0, y1, f0, f1):
    """Rows whose segment crosses the event level, and the roots there."""
    c = ev.component
    g0 = y0[:, c] - level
    g1 = y1[:, c] - level
    crossed = np.zeros(g0.shape, dtype=bool)
    if ev.direction >= 0:
        crossed |= (g0 < 0.0) & (g1 >= 0.0)
    if ev.direction <= 0:
        crossed |= (g0 > 0.0) & (g1 <= 0.0)
    hit = np.flatnonzero(crossed)
    if hit.size == 0:
        return hit, np.empty(0)
    return hit, _level_roots(s0[hit], h[hit], g0[hit], g1[hit], f0[hit, c],
                             f1[hit, c], _ROOT_XTOL)


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s0: float,
    y0,
    s_end: float,
    tol: float = 1e-10,
    h_max: float = np.inf,
    post_step: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    events: Sequence[LevelEvent] = (),
    max_steps: int = 2_000_000,
) -> BatchSolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0) for every row of
    the (n_rows, dim) array y0.

    f and post_step are called with the parameters (k,) and states (k, dim)
    of the rows still active and return arrays of the states' shape; rows
    never interact.  tol, h_max and max_steps (per row) mean what they mean
    for integrate, and each row takes the steps integrate would take for it,
    up to rounding.  Event roots are refined to 1e-12 on the Hermite cubic
    of the step that crosses; a row stopped by a terminal event has that
    step truncated at the root before later events are looked for in it.
    """
    _check_span_tol(s0, s_end, tol)
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError("integrate_batch needs an (n_rows, dim) initial state")
    n, dim = y.shape
    rows = np.arange(n)
    s = np.full(n, float(s0))
    fs = f(s, y)
    h = np.minimum(np.minimum(_initial_step(y, fs, h_max), s_end - s0), h_max)
    tries = np.zeros(n, dtype=np.int64)
    levels = [np.broadcast_to(np.asarray(ev.level, dtype=float), (n,))
              for ev in events]
    found: dict = {i: [] for i in range(len(events))}
    s_out = np.empty(n)
    y_out = np.empty((n, dim))
    status = ["completed"] * n
    nsteps = nrejected = 0
    root_n = math.sqrt(float(dim))

    def finish(idx, s_fin, y_fin, why):
        for k, i in enumerate(idx.tolist()):
            s_out[i] = s_fin[k]
            y_out[i] = y_fin[k]
            status[i] = why[k]

    while rows.size:
        out_of_steps = tries > max_steps
        if out_of_steps.any():
            finish(rows[out_of_steps], s[out_of_steps], y[out_of_steps],
                   ["max_steps"] * int(out_of_steps.sum()))
            keep = ~out_of_steps
            rows, s, y, fs, h, tries = (rows[keep], s[keep], y[keep], fs[keep],
                                        h[keep], tries[keep])
            continue
        h = np.minimum(np.minimum(h, s_end - s), h_max)
        hc = h[:, None]

        # the stages of integrate, one row per trajectory
        k0 = fs
        k1 = f(s + 0.2 * h, y + (0.2 * hc) * k0)
        k2 = f(s + 0.3 * h, y + hc * (0.075 * k0 + 0.225 * k1))
        k3 = f(s + 0.8 * h, y + hc * (_A[3][0] * k0 + _A[3][1] * k1 + _A[3][2] * k2))
        k4 = f(s + _C[4] * h, y + hc * (_A[4][0] * k0 + _A[4][1] * k1
                                        + _A[4][2] * k2 + _A[4][3] * k3))
        k5 = f(s + h, y + hc * (_A[5][0] * k0 + _A[5][1] * k1 + _A[5][2] * k2
                                + _A[5][3] * k3 + _A[5][4] * k4))
        y_new = y + hc * (_B[0] * k0 + _B[2] * k2 + _B[3] * k3
                          + _B[4] * k4 + _B[5] * k5)
        k6 = f(s + h, y_new)
        err = hc * (_E[0] * k0 + _E[2] * k2 + _E[3] * k3 + _E[4] * k4
                    + _E[5] * k5 + _E[6] * k6)
        ratio = err / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        enorm = np.sqrt(np.einsum("ij,ij->i", ratio, ratio)) / root_n
        # fmax/fmin: a NaN error norm (a stage left f's domain) rejects the
        # step and shrinks it, as in integrate
        with np.errstate(divide="ignore"):
            factor = np.fmin(_MAX_FACTOR, np.fmax(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP))
        tries += 1
        acc = np.flatnonzero(enorm <= 1.0)
        nsteps += acc.size
        nrejected += rows.size - acc.size
        h_next = h * factor
        if acc.size == 0:
            h = h_next
            continue

        # accepted rows (fancy indexing copies): project, then look for
        # events on the projected step
        sa, ha, ya, fa = s[acc], h[acc], y[acc], fs[acc]
        s1, y1, f1 = sa + ha, y_new[acc], k6[acc]
        if post_step is not None:
            y_proj = post_step(s1, y1)
            if y_proj is not None:
                y1 = np.asarray(y_proj, dtype=float)
                f1 = f(s1, y1)
        stop = np.full(acc.size, np.inf)
        stop_ev = np.full(acc.size, -1)
        for i, ev in enumerate(events):
            if ev.terminal:
                hit, root = _crossing_rows(ev, levels[i][rows[acc]], sa, ha,
                                           ya, y1, fa, f1)
                first = root < stop[hit]
                stop[hit[first]] = root[first]
                stop_ev[hit[first]] = i
        cut = np.flatnonzero(stop_ev >= 0)
        if cut.size:
            y_stop = _hermite(stop[cut, None], sa[cut, None], ha[cut, None],
                              ya[cut], y1[cut], fa[cut], f1[cut])
            y1[cut] = y_stop
            f1[cut] = f(stop[cut], y_stop)
            s1[cut] = stop[cut]
            ha[cut] = stop[cut] - sa[cut]
            for i in np.unique(stop_ev[cut]).tolist():
                mine = cut[stop_ev[cut] == i]
                found[i].append((rows[acc[mine]], s1[mine], y1[mine]))
        for i, ev in enumerate(events):
            if not ev.terminal:
                hit, root = _crossing_rows(ev, levels[i][rows[acc]], sa, ha,
                                           ya, y1, fa, f1)
                if hit.size:
                    y_root = _hermite(root[:, None], sa[hit, None], ha[hit, None],
                                      ya[hit], y1[hit], fa[hit], f1[hit])
                    found[i].append((rows[acc[hit]], root, y_root))

        s[acc], y[acc], fs[acc] = s1, y1, f1
        done = (stop_ev >= 0) | (s1 >= s_end)
        h = h_next
        if done.any():
            finish(rows[acc[done]], s1[done], y1[done],
                   [f"event:{i}" if i >= 0 else "completed"
                    for i in stop_ev[done].tolist()])
            keep = np.ones(rows.size, dtype=bool)
            keep[acc[done]] = False
            rows, s, y, fs, h, tries = (rows[keep], s[keep], y[keep], fs[keep],
                                        h[keep], tries[keep])

    def stacked(parts):
        if not parts:
            return (np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, dim)))
        r, sr, yr = (np.concatenate(a) for a in zip(*parts))
        order = np.argsort(r, kind="stable")
        return r[order], sr[order], yr[order]

    return BatchSolution(
        s=s_out, y=y_out, status=status,
        events={i: stacked(parts) for i, parts in found.items()},
        nsteps=nsteps, nrejected=nrejected,
    )
