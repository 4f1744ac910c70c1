"""Adaptive embedded Runge-Kutta integrators with dense output and events.

Dormand-Prince 5(4) pair: six function stages plus FSAL, 5th-order
propagation, 4th-order error estimate, standard step-size controller
(Hairer, Norsett and Wanner, Solving ODEs I, section II.4).  Between the
ends of a step the solution is read from the pair's 4th-order continuous
extension (Shampine 1986; HNW I, section II.6, ``contd5``): the cubic
Hermite polynomial of the step's end values and end slopes plus
theta^2 (1 - theta)^2 h sum_i D_i k_i, a quartic term built from the
step's seven stages.  It needs no extra evaluation of f, its error between
step ends is of the order of the error at them, and it passes through the
step's end state whatever ``post_step`` made of it.  The tolerance alone
sets the step size.

Two integrators share the tableau, the controller and the interpolant:

* ``integrate`` runs one trajectory and keeps every accepted step, so its
  ODESolution is a dense output over the whole range.  Its state is a
  handful of numbers, so the stages, the solution update and the error terms
  run on Python floats, each sum in the order of the array expression of
  ``integrate_batch``; only the error norm of a step is an array dot
  product.  Each step keeps its stages; the coefficients of the continuous
  extension are built from them in one array pass over all steps on the
  first dense read, so a solution that is never read never builds them,
  and the event arrays are built only for a step that crosses an event.
  f is called with a state ndarray and may return any sequence of dim
  numbers; a tuple of floats is the cheapest.
* ``integrate_batch`` runs many independent trajectories of one ODE at once
  on an (n_rows, dim) state.  Each row keeps its own step size and is
  accepted or rejected under a mask; rows leave the active set when they
  reach s_end or a terminal event.  No dense output is stored, so memory
  stays O(n_rows) plus the event crossings; the coefficients of the
  continuous extension are built once for each step that crosses an
  event.

Both take the same two hooks:

* ``post_step(s, y) -> y_new | None`` runs after every accepted step and may
  project the state back onto an invariant manifold (the geodesic integrators
  renormalize unit speed there).  It must return a replacement array, or
  None to keep the state; it must not mutate its argument.  After a
  replacement the FSAL derivative is recomputed, and the step's end state
  and derivative are the projected ones, so the dense output passes through
  the sampled states; the quartic term keeps the unprojected stages, which
  moves the interpolant by the O(tol) of the projection.
* Events.  ``integrate`` takes EventSpec functions g(s, y); their sign
  changes over accepted steps are refined by roots_on_grid on the step's
  dense output.  ``integrate_batch`` takes LevelEvents, crossings of one
  state component through a level (one per row, or shared); each root is
  refined on its own by Newton on the component's quartic, a terminal one
  in the iteration that crosses it, the others in one pass after the run.
  A crossing counts when g goes from one strict sign to zero or the other
  sign.  Terminal events stop the integration (a single row, in a batch) at
  the root inside the step, whose interpolant is kept whole; roots of other
  events past it are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
# the quartic term of the continuous extension: HNW's d_i (dopri5.f); in the
# power form of the interpolant they are the coefficients of theta^4
_D = (
    -12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 5.0
# The loosest tol accepted: a looser one lets the controller grow steps
# until the stages evaluate the right-hand side far outside its domain.
MAX_TOL = 1e-2


@dataclass
class EventSpec:
    """Scalar event g(s, y); a root is recorded whenever g changes sign."""

    func: Callable[[float, np.ndarray], float]
    terminal: bool = False
    direction: int = 0  # +1: only -..+ crossings, -1: only +..-, 0: both


@dataclass
class ODESolution:
    """Samples and dense output of one integration.

    s and y hold the step ends; after a terminal event the last sample is
    its root, inside the last step.  Step i starts at seg_s[i] with size
    seg_h[i], end states seg_y0[i] and seg_y1[i] and end derivatives
    seg_f0[i] and seg_f1[i] (the projected ones, after post_step), and
    seg_k[i] holds its stages k2, ..., k6, one row each.  The coefficients
    of the continuous extension are built from them for every step on the
    first dense read, so a solution that is never read never builds them.
    """

    s: np.ndarray
    y: np.ndarray
    seg_s: np.ndarray      # accepted-step left endpoints
    seg_h: np.ndarray      # accepted-step sizes
    seg_y0: np.ndarray
    seg_y1: np.ndarray
    seg_f0: np.ndarray
    seg_f1: np.ndarray
    seg_k: np.ndarray
    status: str = "completed"
    events: dict = field(default_factory=dict)
    nsteps: int = 0
    nrejected: int = 0

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return np.array(_contd5(self.seg_h[:, None], self.seg_y0, self.seg_y1, self.seg_f0,
                                self.seg_f1, *self.seg_k.transpose(1, 0, 2)))

    def __call__(self, s):
        """Dense evaluation on the continuous extension of the step that
        holds each parameter; an array of parameters gives one state row
        per entry.  Parameters outside [s0, s_end] extrapolate from the
        first or last step."""
        s_arr = np.asarray(s, dtype=float)
        if self.seg_s.size == 0:
            return np.broadcast_to(self.y[0], s_arr.shape + self.y[0].shape).copy()
        i = np.searchsorted(self.seg_s[1:], s_arr, side="right")
        # arrays broadcast against the state axis; a scalar stays a scalar
        col = (..., None) if s_arr.ndim else ()
        t = (s_arr[col] - self.seg_s[i][col]) / self.seg_h[i][col]
        return _dense(t, self.seg_y0[i], *self._coeffs[:, i])


def _contd5(h, y0, y1, f0, f1, k2, k3, k4, k5, k6):
    """Coefficients (d, r3, r4, q) of the continuous extension of a step of
    size h from y0 to y1 with end slopes f0 (the stage k0) and f1 and
    stages k2, ..., k6 (HNW's rcont2, ..., rcont5): d, r3 and r4 make the
    cubic Hermite polynomial of the ends, and q = h sum_i D_i k_i is the
    quartic term."""
    d = y1 - y0
    r3 = h * f0 - d
    r4 = d - h * f1 - r3
    q = h * (_D[0] * f0 + _D[2] * k2 + _D[3] * k3 + _D[4] * k4 + _D[5] * k5
             + _D[6] * k6)
    return d, r3, r4, q


def _dense(t, y0, d, r3, r4, q):
    """The continuous extension at theta = t in [0, 1] of a step from y0
    with coefficients from _contd5:
    y0 + t d + t (1 - t) r3 + t^2 (1 - t) r4 + t^2 (1 - t)^2 q."""
    u = 1.0 - t
    return y0 + t * (d + u * (r3 + t * (r4 + u * q)))


def _initial_step(y0, f0, h_max):
    """First trial step; per row when y0 and f0 hold one state per row."""
    d0 = np.max(np.abs(y0), axis=-1) + 1.0
    d1 = np.max(np.abs(f0), axis=-1) + 1e-8
    return np.minimum(0.01 * d0 / d1, h_max)


def check_tol(tol) -> None:
    """InvalidParameterError unless 0 < tol <= MAX_TOL."""
    if not 0.0 < tol <= MAX_TOL:
        raise InvalidParameterError(f"tol must lie in (0, {MAX_TOL}], got {tol}")


def _check_span_tol(s0, s_end, tol) -> None:
    if not (math.isfinite(s0) and math.isfinite(s_end) and s_end > s0):
        raise InvalidParameterError(
            f"integration needs finite s0 < s_end, got [{s0}, {s_end}]")
    check_tol(tol)


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
    relative per-step tolerance and alone sets the step size, unless h_max
    caps it; a bad range or tol raises InvalidParameterError.

    Returns an ODESolution whose status is ``completed``, the name of a
    terminal event, or ``max_steps``; called with parameters, it reads the
    continuous extension of its steps.  Event roots are refined to 1e-10 by
    roots_on_grid on the continuous extension of the step that crosses; a
    terminal event ends the samples at its root, and roots past it are
    dropped.
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

    # flat float lists, one state after another, reshaped at the end
    ss = [s]
    ys = list(y)
    seg_s, seg_h, seg_y0, seg_y1, seg_f0, seg_f1, seg_k = [], [], [], [], [], [], []
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
        seg_y0 += y
        seg_y1 += y_new
        seg_f0 += k0
        seg_f1 += f_new
        seg_k += (*k2, *k3, *k4, *k5, *k6)

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
                    y_old = array(y)
                    coeffs = _contd5(h, y_old, y_new_arr, *(
                        array(k, dtype=float) for k in (k0, f_new, k2, k3, k4, k5, k6)))

                    def seg_eval(sq, _s=s, _h=h, _y=y_old, _c=coeffs):
                        return _dense((sq - _s) / _h, _y, *_c)

                root = roots_on_grid(lambda sq: ev.func(sq, seg_eval(sq)),
                                     (s, s_new), (g_old, g_new), xtol=1e-10)[0]
                ev_records[i].append((root, seg_eval(root)))
                if ev.terminal and (stop_at is None or root < stop_at):
                    stop_at = root
                    status = f"event:{i}"
            ev_values[i] = g_new

        if stop_at is not None:
            # the solution ends at the root: drop the roots past it
            for recs in ev_records.values():
                if recs and recs[-1][0] > stop_at:
                    recs.pop()
            ss.append(stop_at)
            ys += seg_eval(stop_at).tolist()
            break

        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys += y

        if enorm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP))
        h *= factor

    def stacked(flat, *shape):
        return np.array(flat, dtype=float).reshape(-1, *shape, dim)

    return ODESolution(
        s=np.array(ss),
        y=stacked(ys),
        seg_s=np.array(seg_s),
        seg_h=np.array(seg_h),
        seg_y0=stacked(seg_y0),
        seg_y1=stacked(seg_y1),
        seg_f0=stacked(seg_f0),
        seg_f1=stacked(seg_f1),
        seg_k=stacked(seg_k, 5),
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


def _level_roots(g0, d, r3, r4, q, g_end, t_end, h, xtol):
    """theta in [0, t_end] where the continuous extension of one state
    component, offset by a level, vanishes, one per row: g0 is its value at
    the step start and d, r3, r4, q its _contd5 coefficients.  g0 is
    nonzero and g_end, the value at theta = t_end, is zero or of the other
    sign.  Newton on the quartic in power form, with a bisection step
    wherever Newton leaves the bracket; each row stops at its first step of
    at most xtol in the parameter (theta times the step size h), so its root
    does not depend on the rows refined beside it."""
    sgn = np.where(g0 < 0.0, 1.0, -1.0)   # orient every quartic to rise
    a0 = sgn * g0
    a1 = sgn * (d + r3)
    a2 = sgn * (r4 - r3 + q)
    a3 = -sgn * (r4 + 2.0 * q)
    a4 = sgn * q
    lo, hi = np.zeros_like(g0), t_end
    t = t_end * (g0 / (g0 - g_end))
    live = np.ones(t.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAXITER):
            p = (((a4 * t + a3) * t + a2) * t + a1) * t + a0
            dp = ((4.0 * a4 * t + 3.0 * a3) * t + 2.0 * a2) * t + a1
            lo = np.where(p < 0.0, t, lo)
            hi = np.where(p > 0.0, t, hi)
            t_new = t - p / dp
            t_new = np.where((t_new > lo) & (t_new < hi), t_new, 0.5 * (lo + hi))
            t_new = np.where(p == 0.0, t, t_new)
            step = np.abs(t_new - t) * h
            t = np.where(live, t_new, t)
            live &= ~(step <= xtol)
            if not live.any():
                break
    return t


class _Levels:
    """The LevelEvents of a batch, checked in one pass: their components,
    allowed directions and terminal flags, and level, which holds one row
    per event and one column per active row."""

    def __init__(self, events, n: int):
        self.comp = np.array([ev.component for ev in events], dtype=np.int64)
        self.up = np.array([ev.direction >= 0 for ev in events], dtype=bool)
        self.down = np.array([ev.direction <= 0 for ev in events], dtype=bool)
        self.terminal = np.array([ev.terminal for ev in events], dtype=bool)
        self.level = np.array([np.broadcast_to(np.asarray(ev.level, dtype=float), (n,))
                               for ev in events]).reshape(-1, n)

    def crossings(self, y0, y1, cols):
        """(event, row) pairs whose component goes from a strict sign at y0
        to zero or the other sign at y1, and the offset component at both
        ends; y0 and y1 hold the active rows cols."""
        level = self.level[:, cols]
        g0 = y0.T[self.comp] - level
        g1 = y1.T[self.comp] - level
        # candidates: a sign change or a zero (or a product that underflows)
        j, hit = np.nonzero(g0 * g1 <= 0.0)
        if j.size:
            g0, g1 = g0[j, hit], g1[j, hit]
            keep = ((self.up[j] & (g0 < 0.0) & (g1 >= 0.0))
                    | (self.down[j] & (g0 > 0.0) & (g1 <= 0.0)))
            j, hit, g0, g1 = j[keep], hit[keep], g0[keep], g1[keep]
        return j, hit, g0, g1


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
    up to rounding.  An iteration that accepts every row works on its step
    arrays as they are.  Event roots are refined to 1e-12 by Newton on the
    quartic that the continuous extension of the crossing step makes of the
    event's component, each row on its own: a terminal root at once, as it
    ends its row's step (later events are looked for in that step only
    before it), every other root in one pass after the run.
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
    watch = _Levels(events, n)
    found: list = []      # (event, rows, s, y) of terminal roots
    crossed: list = []    # non-terminal crossings, refined after the run
    s_out = np.empty(n)
    y_out = np.empty((n, dim))
    why = np.full(n, -1)  # -1: completed, -2: max_steps, k >= 0: event k
    nsteps = nrejected = tries = 0
    root_n = math.sqrt(float(dim))

    def segments(hit):
        # start states and continuous-extension coefficients of the accepted
        # steps hit, from the current iteration's arrays
        k = acc[hit]
        return (ya[hit], *_contd5(ha[hit, None], ya[hit], y1[hit], fa[hit], f1[hit],
                                  k2[k], k3[k], k4[k], k5[k], k6[k]))

    while rows.size:
        if tries > max_steps:   # every active row has had one try per iteration
            s_out[rows], y_out[rows], why[rows] = s, y, -2
            break
        tries += 1
        h = np.minimum(np.minimum(h, s_end - s), h_max)
        hc = h[:, None]

        # the stages of integrate, one row per trajectory
        k0 = fs
        k1 = f(s + 0.2 * h, y + (0.2 * hc) * k0)
        k2 = f(s + 0.3 * h, y + hc * (0.075 * k0 + 0.225 * k1))
        k3 = f(s + 0.8 * h, y + hc * (_A[3][0] * k0 + _A[3][1] * k1 + _A[3][2] * k2))
        k4 = f(s + _C[4] * h, y + hc * (_A[4][0] * k0 + _A[4][1] * k1
                                        + _A[4][2] * k2 + _A[4][3] * k3))
        s_new = s + h
        k5 = f(s_new, y + hc * (_A[5][0] * k0 + _A[5][1] * k1 + _A[5][2] * k2
                                + _A[5][3] * k3 + _A[5][4] * k4))
        y_new = y + hc * (_B[0] * k0 + _B[2] * k2 + _B[3] * k3
                          + _B[4] * k4 + _B[5] * k5)
        k6 = f(s_new, y_new)
        err = hc * (_E[0] * k0 + _E[2] * k2 + _E[3] * k3 + _E[4] * k4
                    + _E[5] * k5 + _E[6] * k6)
        ratio = err / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        enorm = np.sqrt(np.einsum("ij,ij->i", ratio, ratio)) / root_n
        # fmax/fmin: a NaN error norm (a stage left f's domain) rejects the
        # step and shrinks it, as in integrate
        with np.errstate(divide="ignore"):
            factor = np.fmin(_MAX_FACTOR, np.fmax(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP))
        acc = np.flatnonzero(enorm <= 1.0)
        nsteps += acc.size
        nrejected += rows.size - acc.size
        h_next = h * factor
        if acc.size == 0:
            h = h_next
            continue

        # the accepted rows: views when every row is accepted, else copies;
        # project, then look for events on the projected step
        cols = slice(None) if acc.size == rows.size else acc
        sa, ha, ya, fa, s1, y1, f1 = (s[cols], h[cols], y[cols], fs[cols], s_new[cols],
                                      y_new[cols], k6[cols])
        if post_step is not None:
            y_proj = post_step(s1, y1)
            if y_proj is not None:
                y1 = np.asarray(y_proj, dtype=float)
                f1 = f(s1, y1)
        # the earliest terminal root ends a row's step at theta = t_end,
        # where the row's state is y_end (the first event on a tie); the
        # steps it cuts are searched again up to it
        t_end, y_end, cut = None, y1, None
        j, hit, g0, g1 = watch.crossings(ya, y1, cols)
        if j.size and watch.terminal[j].any():
            stop = watch.terminal[j]
            j, hit, g0, g1 = j[stop], hit[stop], g0[stop], g1[stop]
            seg = segments(hit)
            pick = np.arange(hit.size), watch.comp[j]
            root = _level_roots(g0, *(a[pick] for a in seg[1:]), g1, 1.0, ha[hit],
                                _ROOT_XTOL)
            order = np.lexsort((j, root, hit))
            first = order[np.unique(hit[order], return_index=True)[1]]
            cut = hit[first]
            t_end = np.ones(acc.size)
            t_end[cut] = root[first]
            s1[cut] = sa[cut] + root[first] * ha[cut]
            y_end = y1.copy()
            y_end[cut] = _dense(root[first][:, None], *(a[first] for a in seg))
            why[rows[acc[cut]]] = j[first]
            found.append((j[first], rows[acc[cut]], s1[cut], y_end[cut]))
            j, hit, g0, g1 = watch.crossings(ya, y_end, cols)
        if j.size:
            keep = ~watch.terminal[j]
            j, hit, g0, g1 = j[keep], hit[keep], g0[keep], g1[keep]
            crossed.append((j, rows[acc[hit]], sa[hit], ha[hit], g0, g1,
                            np.ones(hit.size) if t_end is None else t_end[hit],
                            *segments(hit)))

        h = h_next
        if cols is acc:
            s[acc], y[acc], fs[acc] = s1, y_end, f1
        else:
            s, y, fs = s1, y_end, f1
        done = s1 >= s_end
        if cut is not None:
            done[cut] = True
        if done.any():
            gone = acc[done]
            s_out[rows[gone]], y_out[rows[gone]] = s1[done], y_end[done]
            keep = np.ones(rows.size, dtype=bool)
            keep[gone] = False
            rows, s, y, fs, h = rows[keep], s[keep], y[keep], fs[keep], h[keep]
            watch.level = watch.level[:, keep]

    if crossed:
        ev, r, sa, ha, g0, g1, t_end, *seg = (np.concatenate(a) for a in zip(*crossed))
        pick = np.arange(ev.size), watch.comp[ev]
        t = _level_roots(g0, *(a[pick] for a in seg[1:]), g1, t_end, ha, _ROOT_XTOL)
        found.append((ev, r, sa + t * ha, _dense(t[:, None], *seg)))
    ev, r, sr, yr = ((np.concatenate(a) for a in zip(*found)) if found else
                     (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                      np.empty(0), np.empty((0, dim))))
    # by event, then by row; each row's roots stay in parameter order
    order = np.lexsort((r, ev))
    ev, r, sr, yr = ev[order], r[order], sr[order], yr[order]
    bounds = np.searchsorted(ev, np.arange(len(events) + 1))
    return BatchSolution(
        s=s_out, y=y_out,
        status=["completed" if k == -1 else "max_steps" if k == -2 else f"event:{k}"
                for k in why.tolist()],
        events={i: (r[a:b], sr[a:b], yr[a:b])
                for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))},
        nsteps=nsteps, nrejected=nrejected,
    )
