"""Adaptive embedded Runge-Kutta integration with dense output and events.

One pair runs every integration: DOP853, Dormand and Prince's 8(5,3) pair
(Hairer, Norsett and Wanner, Solving ODEs I, 2nd ed., section II.10,
``dop853``), with twelve function stages plus FSAL, 8th-order propagation
and the step exponent -1/8.  Between the ends of a step the solution is
read from its 7th-order dense output: a polynomial in theta of degree 7
whose first three coefficients hold the step's end values and end slopes,
and whose last four are built from its stages and three extra stages, three
more evaluations of f for a step that is read.

* ``integrate`` runs one trajectory, as the engine's geodesics and Jacobi
  fields do at tol 1e-10 to 1e-12.  The extra stages are made for every
  step at once on the first dense read, so a solution that is never read
  never pays for them, and at once for a step that crosses an event.
  The state is a handful of numbers, so the stages, the solution update and
  the error terms run on Python floats, each sum over the nonzero
  coefficients of its row in column order.  f is called with the state as
  a list of Python floats and may return any sequence of dim numbers; a
  tuple of floats is the cheapest, and an ndarray is converted to floats.
* ``integrate_batch`` runs many independent trajectories of one ODE at once
  on an (n_rows, dim) state, as the shooting fan does at tol 3e-7.  Its
  stages, update and error are sums over the rows of the tableau by
  _stage_sum, as the extra stages and the dense output are.  Each row keeps
  its own step size and is accepted or rejected under a mask; the FSAL
  stage (where a projection moved the end state) and the extra stages are
  evaluated only for the steps that may cross an event, whose stages are
  kept for one dense-output pass after the run.  Rows leave the active set
  when they reach s_end or a terminal event, or when the caller's retire
  test says they can meet no event again.  No dense output is stored for
  the other steps, so memory stays O(n_rows) plus the candidate steps.

The two differ in one line.  ``integrate`` controls dop853's blend of the
5th- and 3rd-order error estimates, err5^2 / sqrt(err5^2 + 0.01 err3^2);
``integrate_batch`` controls err5 alone, h |sum_j E5_j k_j / scale| /
sqrt(dim).  The blend is never above err5.  At tol 1e-10 to 1e-12 it keeps
the steps few (the geodesic-embed benchmark's seed 1, rounds 0-12, takes
3,190 accepted steps with it and 7,527 without), but at the fan's tol it
lets them outgrow the dense output: on a fan from (1, 0.3) on the
paraboloid mu = 1 its crossings err by up to 4.2e-6 to 5.7e-6 in parameter
and angle, and by up to 1.5e-8 to 1.0e-7 under err5 alone.

The dense output passes through the step's end state whatever ``post_step``
made of it, and errs between step ends by about what the step errs at
them.  The tolerance alone sets the step size.  Both integrators take the
same two hooks:

* ``post_step(s, y) -> y_new | None`` runs after every accepted step and may
  project the state back onto an invariant manifold (the geodesic integrators
  renormalize unit speed there).  It is called with the state as f is, a
  list of floats in ``integrate`` and an array in ``integrate_batch``, and
  must return a replacement state (any sequence in ``integrate``, an array
  in ``integrate_batch``), or None to keep the state; it must not mutate
  its argument.  After a replacement the FSAL derivative is recomputed, and
  the step's end state and derivative are the projected ones, so the dense
  output passes through the sampled states; the stages and the extra
  stages keep the unprojected ones, which moves the interpolant by the
  O(tol) of the projection.
* Events.  Both take LevelEvents, crossings of one state component
  through one level; g is the component minus the level.  A crossing
  counts when g goes from one strict sign to zero or the other sign.
  ``integrate`` refines each root by roots_on_grid on g over the dense
  output of the step that crosses.  ``integrate_batch`` finds its roots as
  geodesics.level_crossings does on a path, with roots_on_grids on the
  dense output of each candidate step: a step where g changes sign, or,
  for a non-terminal event, where g heads for zero at the step start and
  away from it at the end (the component's end slopes), so that it turns
  inside the step and may cross the level twice.  The turn of the
  component, the zero of its slope, is inserted into the step's grid, or
  the middle of the step where the slope keeps its sign, and every sign
  change on that grid is refined, with the same 10 xtol merge of near
  roots as level_crossings; a root's direction is the sign of g at the
  start of its bracket.  Terminal roots are found in the iteration that
  crosses them, every other root in one pass after the run.  Terminal
  events stop the integration (a single row, in a batch) at the root
  inside the step, whose interpolant is kept whole; roots of other events
  past it are dropped.  ``integrate`` sees neither crossing of a step that
  crosses a level twice and ends on the side it started;
  geodesics.level_crossings looks for them on its dense output.

Both accept tol in [MIN_TOL, MAX_TOL] and stop with status ``max_steps``
after max_steps tries, or at once when a step no longer advances s
(s + h == s, as the controller's shrinking leaves it where the right-hand
side has turned NaN), a safety stop that callers report as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .profile import roots_on_grid, roots_on_grids

# DOP853 coefficients, copied from scipy/integrate/_ivp/dop853_coefficients.py
# (scipy 1.17), which transcribes Hairer's dop853.f.  Stage i evaluates f at
# s + _C8[i] h and y + h sum_j a_ij k_j; _A8[i] holds the nonzero a_ij of row
# i at the columns _A8_COLS[i].  Row 12 is the solution update _B8, and rows
# 13-15 are the extra stages of the dense output.
_C8 = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
)
_A8_COLS = (
    (), (0,), (0, 1), (0, 2), (0, 2, 3), (0, 3, 4), (0, 3, 4, 5), (0, 3, 4, 5, 6),
    (0, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7, 8), (0, 3, 4, 5, 6, 7, 8, 9),
    (0, 3, 4, 5, 6, 7, 8, 9, 10), (0, 5, 6, 7, 8, 9, 10, 11),
    (0, 6, 7, 8, 9, 10, 11, 12), (0, 5, 6, 7, 10, 11, 12, 13), (0, 5, 6, 7, 8, 12, 13, 14),
)
_A8 = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
     -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
     1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
     7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_B8 = _A8[12]
# the 5th- and 3rd-order error weights, at the columns of _B8; the 3rd-order
# ones are _B8 minus the weights of the embedded 3rd-order method (bhh)
_E5 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_E3 = (_B8[0] - 0.244094488188976377952755905512, *_B8[1:4],
       _B8[4] - 0.733846688281611857341361741547, *_B8[5:7],
       _B8[7] - 0.220588235294117647058823529412e-1)
# the dense output's coefficients F3, ..., F6 (of t^2 u^2, t^3 u^2, t^3 u^3
# and t^4 u^3, u = 1 - t) are h times these rows applied to the stages at
# the columns _D8_COLS
_D8_COLS = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_D8 = (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)
_D8_T = np.array(_D8).T
_ORDER_EXP8 = -1.0 / 8.0

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# The loosest tol accepted: a looser one lets the controller grow steps
# until the stages evaluate the right-hand side far outside its domain.
MAX_TOL = 1e-2
# The tightest tol accepted.  A step's error estimate does not fall below
# the rounding of states of order one (eps = 2.2e-16), so a tighter tol asks
# for digits double precision does not hold, and the controller may shrink
# the step without end: at tol 1e-25 a geodesic took 2 million steps (86 s)
# to cover 0.01 before the max_steps stop.
MIN_TOL = 1e-15


@dataclass
class LevelEvent:
    """Crossing of state component ``component`` through ``level``."""

    component: int
    level: float
    terminal: bool = False
    direction: int = 0  # +1: only -..+ crossings, -1: only +..-, 0: both


@dataclass
class ODESolution:
    """Samples and dense output of one integration.

    s and y hold the step ends; after a terminal event the last sample is
    its root, inside the last step.  Step i starts at seg_s[i] with size
    seg_h[i], end states seg_y0[i] and seg_y1[i] and end derivatives
    seg_f0[i] and seg_f1[i] (the projected ones, after post_step), and
    seg_k[i] holds the stages k5, ..., k12 that the dense output reads, one
    row each (k12 is f at the unprojected end).  rhs is the right-hand
    side.  On the first dense read it evaluates the three extra stages of
    every step, and the coefficients of the dense output are built for
    every step, so a solution that is never read never builds them.
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
    rhs: Callable = field(default=None, repr=False)
    status: str = "completed"
    events: dict = field(default_factory=dict)
    nsteps: int = 0
    nrejected: int = 0

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return np.array(_step_coeffs(_per_row(self.rhs), self.seg_s, self.seg_h, self.seg_y0,
                                     self.seg_y1, self.seg_f0, self.seg_f1,
                                     self.seg_k.transpose(1, 0, 2)))

    def __call__(self, s):
        """Dense evaluation on the dense output of the step that holds each
        parameter; an array of parameters gives one state row per entry.
        Parameters outside [s0, s_end] extrapolate from the first or last
        step."""
        s_arr = np.asarray(s, dtype=float)
        if self.seg_s.size == 0:
            return np.broadcast_to(self.y[0], s_arr.shape + self.y[0].shape).copy()
        i = np.searchsorted(self.seg_s[1:], s_arr, side="right")
        # arrays broadcast against the state axis; a scalar stays a scalar
        col = (..., None) if s_arr.ndim else ()
        t = (s_arr[col] - self.seg_s[i][col]) / self.seg_h[i][col]
        return _dense8(t, self.seg_y0[i], *self._coeffs[:, i])


def _stage_sum(coeffs, k):
    """sum_j coeffs[j] k[j], added in column order, on arrays of one row per
    step or trajectory."""
    acc = coeffs[0] * k[0]
    for c, k_j in zip(coeffs[1:], k[1:]):
        acc = acc + c * k_j
    return acc


def _extra_stages(f, s, h, y0, k):
    """Append to k, whose entry j holds stage j of steps from s of size h and
    start states y0, one row per step (k1, ..., k4 may be None), the extra
    stages k13, k14 and k15 of DOP853's dense output: each stage's states in
    one array pass by _stage_sum, then the rows evaluator f(s, states)
    (integrate_batch's f, or _per_row of integrate's)."""
    for i in (13, 14, 15):
        k.append(f(s + _C8[i] * h,
                   y0 + h[:, None] * _stage_sum(_A8[i], [k[j] for j in _A8_COLS[i]])))
    return k


def _per_row(f):
    """integrate's float right-hand side f as a rows evaluator: f per row."""
    return lambda s, y: np.array([f(t, x) for t, x in zip(s.tolist(), y.tolist())], dtype=float)


def _contd8(h, y0, y1, f0, f1, k):
    """Coefficients (F0, ..., F6) of DOP853's dense output on a step of size
    h from y0 to y1 with end slopes f0 and f1 and stages k, the twelve at
    the columns _D8_COLS (arrays, or one row per step): F0, F1 and F2 fit
    the ends and their slopes, and F3, ..., F6 are h times the rows of _D8
    applied to k, each summed in column order."""
    d = y1 - y0
    col = _D8_T.reshape(_D8_T.shape + (1,) * np.ndim(k[0]))
    return (d, h * f0 - d, 2.0 * d - h * (f1 + f0), *(h * _stage_sum(col, k)))


def _step_coeffs(f, s, h, y0, y1, f0, f1, k):
    """_contd8's coefficients of DOP853 steps from s of size h, one row per
    step: start and end states y0 and y1, end slopes f0 and f1, and k the
    stages k5, ..., k12; the extra stages are evaluated here, by the rows
    evaluator f."""
    k = _extra_stages(f, s, h, y0, [f0, *[None] * 4, *k])
    return _contd8(h[:, None], y0, y1, f0, f1, [k[j] for j in _D8_COLS])


def _dense8(t, y0, F0, F1, F2, F3, F4, F5, F6):
    """DOP853's dense output at theta = t in [0, 1] of a step from y0 with
    coefficients from _contd8 (u = 1 - t):
    y0 + t (F0 + u (F1 + t (F2 + u (F3 + t (F4 + u (F5 + t F6))))))."""
    u = 1.0 - t
    return y0 + t * (F0 + u * (F1 + t * (F2 + u * (F3 + t * (F4 + u * (F5 + t * F6))))))


def _dense8_slope(t, *F):
    """d/dtheta of _dense8 at theta = t: the product rule through its
    nesting from the inside out, whose factors are t and u = 1 - t by turns."""
    p, dp = F[6], 0.0
    for i in range(5, -1, -1):
        w, dw = (t, 1.0) if i % 2 else (1.0 - t, -1.0)
        p, dp = F[i] + w * p, dw * p + w * dp
    return p + t * dp


def _initial_step(y0, f0):
    """First trial step; per row when y0 and f0 hold one state per row."""
    d0 = np.max(np.abs(y0), axis=-1) + 1.0
    d1 = np.max(np.abs(f0), axis=-1) + 1e-8
    return 0.01 * d0 / d1


def check_tol(tol) -> None:
    """InvalidParameterError unless MIN_TOL <= tol <= MAX_TOL."""
    if not MIN_TOL <= tol <= MAX_TOL:
        raise InvalidParameterError(f"tol must lie in [{MIN_TOL}, {MAX_TOL}], got {tol}")


def _check_span_tol(s0, s_end, tol) -> None:
    if not (math.isfinite(s0) and math.isfinite(s_end) and s_end > s0):
        raise InvalidParameterError(
            f"integration needs finite s0 < s_end, got [{s0}, {s_end}]")
    check_tol(tol)


def integrate(
    f: Callable[[float, list], Sequence[float]],
    s0: float,
    y0,
    s_end: float,
    tol: float = 1e-10,
    post_step: Callable[[float, list], Sequence[float] | None] | None = None,
    events: Sequence[LevelEvent] = (),
    max_steps: int = 2_000_000,
) -> ODESolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0, both finite) by
    DOP853.

    f is called with a float and the state as a list of dim Python floats,
    and returns the derivative components as any sequence of numbers (a
    tuple of floats is the cheapest; an ndarray is converted to floats).
    post_step gets the same list and returns a replacement sequence or
    None; neither may mutate the list.  The stages, the solution update and
    the error terms run on Python floats, and the event arrays are built
    only for a step that crosses an event.  tol (in [MIN_TOL, MAX_TOL]) is
    used as both absolute and relative per-step tolerance and alone sets
    the step size; a bad range or tol raises
    InvalidParameterError.  An accepted step costs twelve evaluations of
    f, thirteen after a projection, and a rejected one eleven.

    Returns an ODESolution whose status is ``completed``, the name of a
    terminal event, or ``max_steps`` (after max_steps tries, or where a
    step no longer advances s); called with parameters, it reads the
    dense output of its steps.  Event roots are refined to 1e-10 by
    roots_on_grid on the event's component, minus its level, over the
    dense output of the step that crosses; a terminal event ends the
    samples at its root, and roots past it are dropped.
    """
    _check_span_tol(s0, s_end, tol)
    y_arr = np.asarray(y0, dtype=float).copy()
    dim = y_arr.size
    y = y_arr.tolist()
    s = float(s0)

    fs = f(s, y)
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
    ev_values = [y[ev.component] - ev.level for ev in events]
    ev_records: dict = {i: [] for i in range(len(events))}
    status = "completed"

    h = float(min(_initial_step(y_arr, np.asarray(fs, dtype=float)), s_end - s0))
    nsteps = 0
    nrejected = 0
    root_n = math.sqrt(float(dim))
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _C8[1:11]
    (a10,), (a20, a21), (a30, a32), (a40, a42, a43), (a50, a53, a54) = _A8[1:6]
    a60, a63, a64, a65 = _A8[6]
    a70, a73, a74, a75, a76 = _A8[7]
    a80, a83, a84, a85, a86, a87 = _A8[8]
    a90, a93, a94, a95, a96, a97, a98 = _A8[9]
    a100, a103, a104, a105, a106, a107, a108, a109 = _A8[10]
    a110, a113, a114, a115, a116, a117, a118, a119, a1110 = _A8[11]
    b0, b5, b6, b7, b8, b9, b10, b11 = _B8
    e0, e5, e6, e7, e8, e9, e10, e11 = _E5
    g0, g5, g6, g7, g8, g9, g10, g11 = _E3
    array = np.array

    while s < s_end:
        h = min(h, s_end - s)
        if nsteps + nrejected > max_steps or s + h == s:
            status = "max_steps"
            break

        # unrolled DOP853 stages on floats, each sum over the nonzero
        # coefficients of its row in column order
        k0 = fs
        k1 = f(s + c1 * h, [y_ + h * (a10 * p0) for y_, p0 in zip(y, k0)])
        k2 = f(s + c2 * h, [y_ + h * (a20 * p0 + a21 * p1) for y_, p0, p1 in zip(y, k0, k1)])
        k3 = f(s + c3 * h, [y_ + h * (a30 * p0 + a32 * p2) for y_, p0, p2 in zip(y, k0, k2)])
        k4 = f(s + c4 * h, [y_ + h * (a40 * p0 + a42 * p2 + a43 * p3)
                            for y_, p0, p2, p3 in zip(y, k0, k2, k3)])
        k5 = f(s + c5 * h, [y_ + h * (a50 * p0 + a53 * p3 + a54 * p4)
                            for y_, p0, p3, p4 in zip(y, k0, k3, k4)])
        k6 = f(s + c6 * h, [y_ + h * (a60 * p0 + a63 * p3 + a64 * p4 + a65 * p5)
                            for y_, p0, p3, p4, p5 in zip(y, k0, k3, k4, k5)])
        k7 = f(s + c7 * h, [y_ + h * (a70 * p0 + a73 * p3 + a74 * p4 + a75 * p5 + a76 * p6)
                            for y_, p0, p3, p4, p5, p6 in zip(y, k0, k3, k4, k5, k6)])
        k8 = f(s + c8 * h, [
            y_ + h * (a80 * p0 + a83 * p3 + a84 * p4 + a85 * p5 + a86 * p6 + a87 * p7)
            for y_, p0, p3, p4, p5, p6, p7 in zip(y, k0, k3, k4, k5, k6, k7)])
        k9 = f(s + c9 * h, [
            y_ + h * (a90 * p0 + a93 * p3 + a94 * p4 + a95 * p5 + a96 * p6 + a97 * p7
                      + a98 * p8)
            for y_, p0, p3, p4, p5, p6, p7, p8 in zip(y, k0, k3, k4, k5, k6, k7, k8)])
        k10 = f(s + c10 * h, [
            y_ + h * (a100 * p0 + a103 * p3 + a104 * p4 + a105 * p5 + a106 * p6 + a107 * p7
                      + a108 * p8 + a109 * p9)
            for y_, p0, p3, p4, p5, p6, p7, p8, p9 in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)])
        s_new = s + h
        k11 = f(s_new, [
            y_ + h * (a110 * p0 + a113 * p3 + a114 * p4 + a115 * p5 + a116 * p6 + a117 * p7
                      + a118 * p8 + a119 * p9 + a1110 * p10)
            for y_, p0, p3, p4, p5, p6, p7, p8, p9, p10 in zip(y, k0, k3, k4, k5, k6, k7, k8,
                                                                k9, k10)])
        y_new = [y_ + h * (b0 * p0 + b5 * p5 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                           + b11 * p11)
                 for y_, p0, p5, p6, p7, p8, p9, p10, p11 in zip(y, k0, k5, k6, k7, k8, k9, k10,
                                                                 k11)]
        # the 5th- and 3rd-order error terms over the scale
        # tol + tol * max(|y|, |y_new|); the max takes the NaN of a y_new
        # that left f's domain, as np.maximum does
        scale = [tol + tol * (a if a > b else b) for a, b in zip(map(abs, y), map(abs, y_new))]
        err5 = math.hypot(*[
            (e0 * p0 + e5 * p5 + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10
             + e11 * p11) / w
            for w, p0, p5, p6, p7, p8, p9, p10, p11 in zip(scale, k0, k5, k6, k7, k8, k9, k10,
                                                           k11)])
        err3 = math.hypot(*[
            (g0 * p0 + g5 * p5 + g6 * p6 + g7 * p7 + g8 * p8 + g9 * p9 + g10 * p10
             + g11 * p11) / w
            for w, p0, p5, p6, p7, p8, p9, p10, p11 in zip(scale, k0, k5, k6, k7, k8, k9, k10,
                                                           k11)])
        # h err5^2 / sqrt(dim (err5^2 + 0.01 err3^2)), HNW's blend
        enorm = h * err5 * (err5 / math.hypot(err5, 0.1 * err3)) / root_n if err5 else 0.0

        if not enorm <= 1.0:  # a NaN norm (a stage left f's domain) rejects too
            nrejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP8)
            continue

        # accept
        nsteps += 1
        k12 = f_new = f(s_new, y_new)  # the FSAL stage
        if post_step is not None:
            y_proj = post_step(s_new, y_new)
            if y_proj is not None:
                y_new = (y_proj.tolist() if isinstance(y_proj, np.ndarray)
                         else list(y_proj))
                f_new = f(s_new, y_new)
        seg_s.append(s)
        seg_h.append(h)
        seg_y0 += y
        seg_y1 += y_new
        seg_f0 += k0
        seg_f1 += f_new
        seg_k += (*k5, *k6, *k7, *k8, *k9, *k10, *k11, *k12)

        stop_at = None
        seg_eval = None
        for i, ev in enumerate(events):
            c, level = ev.component, ev.level
            g_new = y_new[c] - level
            g_old = ev_values[i]
            if ((ev.direction >= 0 and g_old < 0.0 <= g_new)
                    or (ev.direction <= 0 and g_old > 0.0 >= g_new)):
                if seg_eval is None:
                    y_old = array(y)
                    coeffs = [c[0] for c in _step_coeffs(
                        _per_row(f), array([s]), array([h]), y_old[None],
                        *(array([v], dtype=float) for v in (y_new, k0, f_new)),
                        array([k5, k6, k7, k8, k9, k10, k11, k12], dtype=float)[:, None])]

                    def seg_eval(sq, _s=s, _h=h, _y=y_old, _c=coeffs):
                        return _dense8((sq - _s) / _h, _y, *_c)

                # the dense output's row c alone, on floats: the same sums
                # as seg_eval's, without an array per iterate
                y_c, coeffs_c = y[c], [float(v[c]) for v in coeffs]
                root = roots_on_grid(lambda sq: _dense8((sq - s) / h, y_c, *coeffs_c) - level,
                                     (s, s_new), (g_old, g_new), xtol=1e-10)[0]
                ev_records[i].append((root, seg_eval(root)))
                if ev.terminal and (stop_at is None or root < stop_at):
                    stop_at, y_stop = root, ev_records[i][-1][1]
                    status = f"event:{i}"
            ev_values[i] = g_new

        if stop_at is not None:
            # the solution ends at the root: drop the roots past it
            for recs in ev_records.values():
                if recs and recs[-1][0] > stop_at:
                    recs.pop()
            ss.append(stop_at)
            ys += y_stop.tolist()
            break

        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys += y

        if enorm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP8))
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
        seg_k=stacked(seg_k, 8),
        rhs=f,
        status=status,
        events={i: recs for i, recs in ev_records.items()},
        nsteps=nsteps,
        nrejected=nrejected,
    )


# ---------------------------------------------------------------------------
# many trajectories of one ODE at once

_ROOT_XTOL = 1e-12


@dataclass
class BatchSolution:
    """Where each row of a batch integration ended, and the event roots.

    status[i] is ``completed``, ``event:k`` for the terminal event k that
    stopped row i, ``retired`` for a row the caller's retire test ended, or
    ``max_steps``.  events[k] is a triple of arrays
    (rows, s, y): the batch row, parameter and state of every root of event
    k, each row's roots in parameter order.
    """

    s: np.ndarray
    y: np.ndarray
    status: list
    events: dict
    nsteps: int = 0      # accepted steps, summed over rows
    nrejected: int = 0


class _Levels:
    """The LevelEvents of a batch: their components, levels, allowed
    directions and terminal flags."""

    def __init__(self, events):
        self.comp = np.array([ev.component for ev in events], dtype=np.int64)
        self.level = np.array([ev.level for ev in events], dtype=float)
        self.up = np.array([ev.direction >= 0 for ev in events], dtype=bool)
        self.down = np.array([ev.direction <= 0 for ev in events], dtype=bool)
        self.terminal = np.array([ev.terminal for ev in events], dtype=bool)

    def candidates(self, y0, y1, f0, f1):
        """(event, row) pairs of the steps from the states y0 to y1, with
        slopes f0 and f1 there, that may hold a root, and g, the event's
        component minus its level, at both ends.  A step is a candidate
        when g goes from a strict sign at y0 to zero or the other sign at
        y1, or, for a non-terminal event, when g heads for zero at y0 and
        away from it at y1: it turns inside the step, and may cross the
        level twice."""
        g0 = y0.T[self.comp] - self.level[:, None]
        g1 = y1.T[self.comp] - self.level[:, None]
        change = ((g0 < 0.0) & (g1 >= 0.0)) | ((g0 > 0.0) & (g1 <= 0.0))
        turn = ((g0 * f0.T[self.comp] < 0.0) & (g1 * f1.T[self.comp] > 0.0)
                & ~self.terminal[:, None])
        j, hit = np.nonzero(change | turn)
        return j, hit, g0[j, hit], g1[j, hit]

    def roots(self, j, seg, g0, g1, t_end, h):
        """The roots of events j on their candidate steps, one row each, as
        geodesics.level_crossings finds them on a path.  seg holds the
        steps' start states and _contd8 coefficients, h their sizes, and g0
        and g1 the offset component at theta = 0 and t_end.  The grid
        [0, t_end] of each step gets one point inserted: the turn of the
        component, the zero of its slope, or the middle of the step where
        the slope keeps its sign.  Every sign change on that grid is
        refined by roots_on_grids to _ROOT_XTOL in the parameter; a grid
        point on the level is a root, and a root within 10 xtol of the one
        before it in its step is dropped.  A root rises through the level
        where g is negative at the start of its bracket.  Returns (k, t, y):
        the candidate, theta and state of every root that its event's
        direction allows, sorted by candidate and then by theta."""
        k = np.arange(j.size)
        level = self.level[j]
        y0, *coeffs = (a[k, self.comp[j]] for a in seg)
        xtol = _ROOT_XTOL / h

        def g(i, t):
            return _dense8(t, y0[i], *(c[i] for c in coeffs)) - level[i]

        def slope(i, t):
            return _dense8_slope(t, *(c[i] for c in coeffs))

        zero = np.zeros(j.size)
        turning, t_turn = roots_on_grids(slope, np.column_stack([zero, t_end]),
                                         np.column_stack([slope(k, zero), slope(k, t_end)]),
                                         xtol)
        split = 0.5 * t_end
        split[turning] = t_turn
        grid = np.column_stack([zero, split, t_end])
        values = np.column_stack([g0, g(k, split), g1])
        k, t = roots_on_grids(g, grid, values, xtol)
        start = np.maximum(np.sum(grid[k] < t[:, None], axis=1) - 1, 0)
        keep = np.where(values[k, start] < 0.0, self.up[j[k]], self.down[j[k]])
        k, t = k[keep], t[keep]
        return k, t, _dense8(t[:, None], *(a[k] for a in seg))


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s0: float,
    y0,
    s_end: float,
    tol: float = 1e-10,
    post_step: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    events: Sequence[LevelEvent] = (),
    max_steps: int = 2_000_000,
    retire: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> BatchSolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0) for every row of
    the (n_rows, dim) array y0.

    f and post_step are called with the parameters (k,) and states (k, dim)
    of the rows still active and return arrays of the states' shape; rows
    never interact.  tol and max_steps (per row) mean what they mean for
    integrate, but the step size follows the 5th-order error estimate alone
    (see the module docstring).  An iteration that accepts every row works
    on its step arrays as they are.  Event roots are refined to 1e-12 in the
    parameter (_Levels.roots), each row's from that row alone; a terminal
    root ends its row's step, and later events are looked for in that step
    only before it.

    The FSAL stage at a projected end and the extra stages are evaluated
    only for the steps that may hold a root, whose dense output is built
    in one pass after the run (in their iteration, for a terminal event).

    retire(s, y), if given, marks the rows that are finished at the ends s
    and states y of their accepted steps: a marked row ends there, with
    status ``retired``; the roots inside that last step are still found.
    It is for rows the caller knows can meet no event again
    (geodesics.level_crossings_batch retires rays that move away from
    their level where r is convex).
    """
    _check_span_tol(s0, s_end, tol)
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError("integrate_batch needs an (n_rows, dim) initial state")
    n, dim = y.shape
    rows = np.arange(n)
    s = np.full(n, float(s0))
    fs = f(s, y)
    h = np.minimum(_initial_step(y, fs), s_end - s0)
    watch = _Levels(events)
    found: list = []      # (event, rows, s, y) of terminal roots
    crossed: list = []    # candidate steps of non-terminal events, refined after the run
    s_out = np.empty(n)
    y_out = np.empty((n, dim))
    why = np.full(n, -1)  # -1: completed, -2: max_steps, -3: retired, k >= 0: event k
    nsteps = nrejected = tries = 0
    root_n = math.sqrt(float(dim))

    def steps(hit):
        # the accepted steps hit as _step_coeffs reads them: s, h, the end
        # states and slopes, and the stages k5, ..., k12, with k12 evaluated
        # here where the projection moved the end state
        i = acc[hit]
        k12 = f1[hit] if y1 is y_stage else f(sa[hit] + ha[hit], y_stage[hit])
        return (sa[hit], ha[hit], ya[hit], y1[hit], fa[hit], f1[hit],
                *(k[i] for k in stages[5:]), k12)

    def dense(step):
        # start states and _contd8 coefficients of the steps from steps()
        return (step[2], *_step_coeffs(f, *step[:6], step[6:]))

    while rows.size:
        if tries > max_steps:   # every active row has had one try per iteration
            s_out[rows], y_out[rows], why[rows] = s, y, -2
            break
        tries += 1
        h = np.minimum(h, s_end - s)
        stuck = s + h == s
        if stuck.any():
            # steps too small to advance s end their rows as max_steps does
            s_out[rows[stuck]], y_out[rows[stuck]], why[rows[stuck]] = s[stuck], y[stuck], -2
            rows, s, y, fs, h = (v[~stuck] for v in (rows, s, y, fs, h))
            if not rows.size:
                break
        hc = h[:, None]

        # the DOP853 stages, one row per trajectory, and the 5th-order
        # error estimate alone
        stages = [fs]
        for i in range(1, 12):
            stages.append(f(s + _C8[i] * h,
                            y + hc * _stage_sum(_A8[i], [stages[j] for j in _A8_COLS[i]])))
        k = [stages[j] for j in _A8_COLS[12]]
        y_new = y + hc * _stage_sum(_B8, k)
        s_new = s + h
        ratio = (hc * _stage_sum(_E5, k)) / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        enorm = np.sqrt(np.einsum("ij,ij->i", ratio, ratio)) / root_n
        # fmax/fmin: a NaN error norm (a stage left f's domain) rejects the
        # step and shrinks it, as in integrate
        with np.errstate(divide="ignore"):
            factor = np.fmin(_MAX_FACTOR, np.fmax(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP8))
        acc = np.flatnonzero(enorm <= 1.0)
        nsteps += acc.size
        nrejected += rows.size - acc.size
        h_next = h * factor
        if acc.size == 0:
            h = h_next
            continue

        # the accepted rows: views when every row is accepted, else copies;
        # project, then look for events on the projected step.  The FSAL
        # stage is f at the unprojected end y_stage, which steps() reads
        cols = slice(None) if acc.size == rows.size else acc
        sa, ha, ya, fa, s1, y1 = s[cols], h[cols], y[cols], fs[cols], s_new[cols], y_new[cols]
        y_stage = y1
        if post_step is not None:
            y_proj = post_step(s1, y1)
            if y_proj is not None:
                y1 = np.asarray(y_proj, dtype=float)
        f1 = f(s1, y1)
        # the earliest terminal root ends a row's step at theta = t_end,
        # where the row's state is y_end (the first event on a tie); the
        # steps it cuts are searched again up to it
        t_end, y_end, cut = None, y1, None
        j, hit, g0, g1 = watch.candidates(ya, y1, fa, f1)
        stop = watch.terminal[j]
        if stop.any():
            j, hit = j[stop], hit[stop]
            k, root, y_root = watch.roots(j, dense(steps(hit)), g0[stop], g1[stop],
                                          np.ones(hit.size), ha[hit])
            j, hit = j[k], hit[k]
            order = np.lexsort((j, root, hit))
            first = order[np.unique(hit[order], return_index=True)[1]]
            cut = hit[first]
            t_end = np.ones(acc.size)
            t_end[cut] = root[first]
            s1[cut] = sa[cut] + root[first] * ha[cut]
            y_end = y1.copy()
            y_end[cut] = y_root[first]
            why[rows[acc[cut]]] = j[first]
            found.append((j[first], rows[acc[cut]], s1[cut], y_end[cut]))
            j, hit, g0, g1 = watch.candidates(ya, y_end, fa, f1)
        keep = ~watch.terminal[j]
        if keep.any():
            hit = hit[keep]
            crossed.append((j[keep], rows[acc[hit]], g0[keep], g1[keep],
                            np.ones(hit.size) if t_end is None else t_end[hit], *steps(hit)))

        h = h_next
        if cols is acc:
            s[acc], y[acc], fs[acc] = s1, y_end, f1
        else:
            s, y, fs = s1, y_end, f1
        done = s1 >= s_end
        if cut is not None:
            done[cut] = True
        if retire is not None:
            ends = retire(s1, y_end) & ~done
            why[rows[acc[ends]]] = -3
            done |= ends
        if done.any():
            gone = acc[done]
            s_out[rows[gone]], y_out[rows[gone]] = s1[done], y_end[done]
            keep = np.ones(rows.size, dtype=bool)
            keep[gone] = False
            rows, s, y, fs, h = rows[keep], s[keep], y[keep], fs[keep], h[keep]

    if crossed:
        ev, r, g0, g1, t_end, *step = (np.concatenate(a) for a in zip(*crossed))
        k, t, y_root = watch.roots(ev, dense(step), g0, g1, t_end, step[1])
        found.append((ev[k], r[k], step[0][k] + t * step[1][k], y_root))
    ev, r, sr, yr = ((np.concatenate(a) for a in zip(*found)) if found else
                     (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                      np.empty(0), np.empty((0, dim))))
    # by event, then by row, then by parameter
    order = np.lexsort((sr, r, ev))
    ev, r, sr, yr = ev[order], r[order], sr[order], yr[order]
    bounds = np.searchsorted(ev, np.arange(len(events) + 1))
    status = {-1: "completed", -2: "max_steps", -3: "retired"}
    return BatchSolution(
        s=s_out, y=y_out,
        status=[status.get(k, f"event:{k}") for k in why.tolist()],
        events={i: (r[a:b], sr[a:b], yr[a:b])
                for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))},
        nsteps=nsteps, nrejected=nrejected,
    )
