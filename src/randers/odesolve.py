"""Adaptive embedded Runge-Kutta integrator with dense output and events.

Dormand-Prince 5(4) pair: six function stages plus FSAL, 5th-order
propagation, 4th-order error estimate, standard step-size controller.
Between accepted steps the solution can be interpolated by cubic Hermite
polynomials built from the stored endpoint values and derivatives; the
dense output evaluates a whole array of parameters in one vectorized pass.

Two hooks distinguish this driver from a generic ODE call:

* ``post_step(s, y) -> y_new | None`` runs after every accepted step and may
  project the state back onto an invariant manifold (the geodesic integrator
  renormalizes unit speed there).  It must return a replacement array, or
  None to keep the state; it must not mutate its argument.  After a
  replacement the cached FSAL derivative is recomputed.
* ``events`` are scalar functions of (s, y); their sign changes over accepted
  steps are refined by brentq on the step's dense output.  Terminal events
  stop the integration and truncate the final step at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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


def _initial_step(f, s0, y0, f0, tol, h_max):
    d0 = np.max(np.abs(y0)) + 1.0
    d1 = np.max(np.abs(f0)) + 1e-8
    h = 0.01 * d0 / d1
    return min(h, h_max)


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    s0: float,
    y0,
    s_end: float,
    tol: float = 1e-10,
    h_max: float = np.inf,
    post_step: Callable[[float, np.ndarray], np.ndarray] | None = None,
    events: Sequence[EventSpec] = (),
    max_steps: int = 2_000_000,
) -> ODESolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0).

    tol is used as both absolute and relative per-step tolerance.  Returns an
    ODESolution whose status is ``completed``, the name of a terminal event,
    or ``max_steps``.
    """
    if s_end <= s0:
        raise ValueError("integrate requires s_end > s0")
    y = np.asarray(y0, dtype=float).copy()
    s = float(s0)
    fs = f(s, y)

    ss = [s]
    ys = [y.copy()]
    seg_s, seg_h, seg_y0, seg_y1, seg_f0, seg_f1 = [], [], [], [], [], []
    ev_values = [ev.func(s, y) for ev in events]
    ev_records: dict = {i: [] for i in range(len(events))}
    status = "completed"

    h = min(_initial_step(f, s, y, fs, tol, h_max), s_end - s0, h_max)
    nsteps = 0
    nrejected = 0
    root_n = math.sqrt(float(y.size))

    while s < s_end:
        if nsteps + nrejected > max_steps:
            status = "max_steps"
            break
        h = min(h, s_end - s, h_max)

        # unrolled Dormand-Prince stages (b1 = 0 in both weight rows)
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
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = err / scale
        enorm = math.sqrt(float(ratio @ ratio)) / root_n

        if enorm > 1.0:
            nrejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP)
            continue

        # accept
        nsteps += 1
        f_new = k6  # FSAL stage is f(s + h, y_new)
        s_new = s + h
        seg_s.append(s)
        seg_h.append(h)
        seg_y0.append(y)
        seg_y1.append(y_new)
        seg_f0.append(k0)
        seg_f1.append(f_new)

        # event handling on the raw accepted step
        stop_at = None
        if events:
            def seg_eval(sq, _s=s, _h=h, _y=y, _yn=y_new, _f0=k0, _fn=f_new):
                return _hermite(sq, _s, _h, _y, _yn, _f0, _fn)

            for i, ev in enumerate(events):
                g_new = ev.func(s_new, y_new)
                g_old = ev_values[i]
                crossed = (g_old < 0.0 <= g_new) or (g_old > 0.0 >= g_new)
                if crossed:
                    if ev.direction > 0 and not (g_old < 0.0):
                        crossed = False
                    if ev.direction < 0 and not (g_old > 0.0):
                        crossed = False
                if crossed:
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
            seg_y1[-1] = y_stop.copy()
            seg_f1[-1] = f(stop_at, y_stop)
            ss.append(stop_at)
            ys.append(y_stop.copy())
            s = stop_at
            break

        if post_step is not None:
            y_proj = post_step(s_new, y_new)
            if y_proj is not None:
                y_new = np.asarray(y_proj, dtype=float)
                f_new = f(s_new, y_new)

        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys.append(y)

        if enorm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP))
        h *= factor

    return ODESolution(
        s=np.array(ss),
        y=np.array(ys),
        seg_s=np.array(seg_s),
        seg_h=np.array(seg_h),
        seg_y0=np.array(seg_y0) if seg_y0 else np.empty((0, y.size)),
        seg_y1=np.array(seg_y1) if seg_y1 else np.empty((0, y.size)),
        seg_f0=np.array(seg_f0) if seg_f0 else np.empty((0, y.size)),
        seg_f1=np.array(seg_f1) if seg_f1 else np.empty((0, y.size)),
        status=status,
        events={i: recs for i, recs in ev_records.items()},
        nsteps=nsteps,
        nrejected=nrejected,
    )
