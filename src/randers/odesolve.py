"""Adaptive embedded Runge-Kutta integration with dense output.

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
  never pays for them.  The state is a handful of numbers, so the stages,
  the solution update and the error terms run on Python floats, in a step
  generated from the tableau for the state's dimension (_float_step) that
  writes each sum out per component over the nonzero coefficients of its
  row in column order.  f is called with the state as a list of Python
  floats and returns a sequence of exactly dim numbers; a tuple of floats
  is the cheapest, and an ndarray is converted to floats.
* ``integrate_batch`` runs many independent trajectories of one ODE at once
  on an (n_rows, dim) state, as the shooting fan does at tol 3e-7, and
  finds where one state component crosses one level.  Its stages, update
  and error are sums over the rows of the tableau by _stage_sum, as the
  extra stages and the dense output are.  Each row keeps its own step size
  and is accepted or rejected under a mask; the FSAL stage (where a
  projection moved the end state) and the extra stages are evaluated only
  for the steps that may cross the level, whose stages are kept for one
  dense-output pass after the run.  No dense output is stored for the
  other steps, so memory stays O(n_rows) plus the candidate steps.

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
same two hooks, called after every accepted step:

* ``post_step(s, y) -> y_new | None`` may project the state back onto an
  invariant manifold (the geodesic integrators renormalize unit speed
  there).  It is called with the state as f is, a list of floats in
  ``integrate`` and an array in ``integrate_batch``, and must return a
  replacement state (any sequence in ``integrate``, an array in
  ``integrate_batch``), or None to keep the state; it must not mutate its
  argument.  After a replacement the FSAL derivative is recomputed, and
  the step's end state and derivative are the projected ones, so the dense
  output passes through the sampled states; the stages and the extra
  stages keep the unprojected ones, which moves the interpolant by the
  O(tol) of the projection.
* ``retire(s, y)`` is the one way to end a run short of s_end.  It is
  called with the projected end state of each accepted step and marks the
  run (in ``integrate``) or the rows (in ``integrate_batch``) that end
  there, with status ``retired``; a run ends at a step end, never inside a
  step.

Only ``integrate_batch`` finds crossings.  It finds those of its one level
as geodesics.level_crossings does on a path, with roots_on_grids on the
dense output of each candidate step: a step where g, the component minus
the level, changes sign, or where g heads for zero at the step start and
away from it at the end (the component's end slopes), so that it turns
inside the step and may cross the level twice.  The turn of the
component, the zero of its slope, is inserted into the step's grid
[0, 1], or the middle of the step where the slope keeps its sign, and
every sign change on that grid is refined, with the same 10 xtol merge of
near roots as level_crossings, in one pass after the run; the crossings
inside a retired row's last step are found too.  A caller of
``integrate`` that needs a level's root reads it off the dense output of
the step that holds it (ODESolution.root).

Both grow no step right after a rejection, as HNW's codes do: the step
accepted after one keeps at most its size (per row, in a batch).  Both
accept tol in [MIN_TOL, MAX_TOL] and stop with status ``max_steps`` after
max_steps tries, or at once when a step no longer advances s (s + h == s,
as the controller's shrinking leaves it where the right-hand side has
turned NaN), a safety stop that callers report as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
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


# the ODESolution fields that hold one row per step
SEGMENTS = ("seg_s", "seg_h", "seg_y0", "seg_y1", "seg_f0", "seg_f1", "seg_k")


@dataclass
class ODESolution:
    """Samples and dense output of one integration.

    s and y hold the step ends, a retired run's last one included.  Step i
    starts at seg_s[i] with size
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
    nsteps: int = 0
    nrejected: int = 0

    def step(self, i: int) -> "ODESolution":
        """Step i alone, whose dense output builds the coefficients of that
        one step: three evaluations of rhs, where a read of the whole
        solution builds them for every step."""
        return ODESolution(s=self.s[i:i + 2], y=self.y[i:i + 2], rhs=self.rhs,
                           **{key: getattr(self, key)[i:i + 1] for key in SEGMENTS})

    def root(self, i: int, c: int, level: float) -> tuple[float, np.ndarray]:
        """The parameter where component c crosses level inside step i, whose
        end values lie on either side of it (or on it), and the state there:
        the root on the dense output of that step alone, refined to 1e-10 by
        roots_on_grid."""
        step = self.step(i)
        root = roots_on_grid(lambda s: float(step(s)[c]) - level, step.s,
                             step.y[:, c] - level, 1e-10)[0]
        return root, step(root)

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


@cache
def _float_step(dim: int) -> Callable:
    """integrate's DOP853 step on dim Python floats, generated from the
    tableau on the first call for dim: step(f, s, h, y, k0, tol) returns
    (y_new, err5, err3, k), k the components of k5, ..., k11 in turn.  Each
    stage state, the update and both error terms are written out per
    component, y + h * (a0 * p0 + a1 * p1 + ...) over the nonzero
    coefficients in column order as _stage_sum adds them, the scale as
    tol + tol * (a if a > b else b), which keeps the NaN of a y_new that
    left f's domain where max() would drop it, and each norm as math.hypot
    of its scaled terms.  A slope of another length fails to unpack
    (ValueError).  The source holds only dim and the tableau's literals,
    whose repr reads back exactly: exec sees no input of a caller's."""
    comps = range(dim)

    def row(coeffs, cols, i):
        return " + ".join(f"{a!r} * k{j}_{i}" for a, j in zip(coeffs, cols))

    def names(fmt):
        return "".join(fmt.format(i) + ", " for i in comps)

    lines = ["def step(f, s, h, y, k0, tol):",
             f"    {names('y_{}')}= y",
             f"    {names('k0_{}')}= k0"]
    for j in range(1, 12):
        states = "".join(f"y_{i} + h * ({row(_A8[j], _A8_COLS[j], i)}), " for i in comps)
        lines.append(f"    {names(f'k{j}_{{}}')}= f(s + {_C8[j]!r} * h, [{states}])")
    cols = _A8_COLS[12]
    for i in comps:
        lines += [f"    n_{i} = y_{i} + h * ({row(_B8, cols, i)})",
                  f"    a, b = abs(y_{i}), abs(n_{i})",
                  f"    w_{i} = tol + tol * (a if a > b else b)"]
    for name, coeffs in (("err5", _E5), ("err3", _E3)):
        terms = "".join(f"({row(coeffs, cols, i)}) / w_{i}, " for i in comps)
        lines.append(f"    {name} = hypot({terms})")
    stages = "".join(names(f"k{j}_{{}}") for j in range(5, 12))
    lines.append(f"    return [{names('n_{}')}], err5, err3, ({stages})")
    namespace = {"hypot": math.hypot}
    exec(compile("\n".join(lines), f"<DOP853 float step, dim {dim}>", "exec"), namespace)
    return namespace["step"]


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
    max_steps: int = 2_000_000,
    retire: Callable[[float, list], bool] | None = None,
) -> ODESolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0, both finite) by
    DOP853.

    f is called with a float and the state as a list of dim Python floats,
    and returns the derivative components as a sequence of dim numbers (a
    tuple of floats is the cheapest; an ndarray is converted to floats); a
    sequence of another length raises ValueError.  post_step gets the same
    list and returns a replacement sequence or None; neither may mutate the
    list.  The stages, the solution update and the error terms run on
    Python floats in _float_step(dim), compiled on the first integration of
    a dim-component state.  tol (in [MIN_TOL, MAX_TOL]) is used as both
    absolute and relative per-step tolerance and alone sets the step size;
    a bad range or tol raises InvalidParameterError.  An accepted step
    costs twelve evaluations of f, thirteen after a projection, and a
    rejected one eleven.

    retire(s, y), if given, is called with the end s and the state y (the
    list of floats, after post_step) of every accepted step short of s_end,
    and must not mutate y; the first step it marks ends the run there, with
    status ``retired``, as a row of integrate_batch ends.  The run up to
    that step is the one an unretired run takes.  Where a caller needs the
    crossing of a level inside the last step, it finds it on the dense
    output (geodesics.integrate_h's domain exit, conjugate.jacobi_integrate's
    first zero).

    Returns an ODESolution whose status is ``completed``, ``retired`` or
    ``max_steps`` (after max_steps tries, or where a step no longer
    advances s); called with parameters, it reads the dense output of its
    steps.
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
    status = "completed"

    h = float(min(_initial_step(y_arr, np.asarray(fs, dtype=float)), s_end - s0))
    nsteps = nrejected = 0
    root_n = math.sqrt(float(dim))
    step = _float_step(dim)
    grow = _MAX_FACTOR   # 1 right after a rejection: HNW's codes grow no step then

    while s < s_end:
        h = min(h, s_end - s)
        if nsteps + nrejected > max_steps or s + h == s:
            status = "max_steps"
            break

        y_new, err5, err3, stages = step(f, s, h, y, fs, tol)
        # h err5^2 / sqrt(dim (err5^2 + 0.01 err3^2)), HNW's blend
        enorm = h * err5 * (err5 / math.hypot(err5, 0.1 * err3)) / root_n if err5 else 0.0

        if not enorm <= 1.0:  # a NaN norm (a stage left f's domain) rejects too
            nrejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP8)
            grow = 1.0
            continue

        # accept
        nsteps += 1
        s_new = s + h
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
        seg_f0 += fs
        seg_f1 += f_new
        seg_k += stages
        seg_k += k12

        s, y, fs = s_new, y_new, f_new
        ss.append(s)
        ys += y
        if retire is not None and s < s_end and retire(s, y):
            status = "retired"
            break

        h *= min(grow, max(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP8)) if enorm else grow
        grow = _MAX_FACTOR

    def stacked(flat, *shape):
        return np.array(flat, dtype=float).reshape(-1, *shape, dim)

    return ODESolution(
        s=np.array(ss), y=stacked(ys), seg_s=np.array(seg_s), seg_h=np.array(seg_h),
        seg_y0=stacked(seg_y0), seg_y1=stacked(seg_y1), seg_f0=stacked(seg_f0),
        seg_f1=stacked(seg_f1), seg_k=stacked(seg_k, 8), rhs=f, status=status,
        nsteps=nsteps, nrejected=nrejected)


# ---------------------------------------------------------------------------
# many trajectories of one ODE at once

_ROOT_XTOL = 1e-12


@dataclass
class BatchSolution:
    """Where each row of a batch integration ended, and its crossings.

    status[i] is ``completed``, ``retired`` for a row the caller's retire
    test ended, or ``max_steps``.  crossings is a triple of arrays
    (rows, s, y): the batch row, parameter and state of every crossing of
    the level, sorted by row and then by parameter.
    """

    s: np.ndarray
    y: np.ndarray
    status: list
    crossings: tuple
    nsteps: int = 0      # accepted steps, summed over rows
    nrejected: int = 0


def _candidates(c, level, y0, y1, f0, f1):
    """The steps from the states y0 to y1, with slopes f0 and f1 there, that
    may cross the level with component c, and g, the component minus the
    level, at both ends.  A step is a candidate when g goes from a strict
    sign at y0 to zero or the other sign at y1, or when g heads for zero at
    y0 and away from it at y1: it turns inside the step, and may cross the
    level twice."""
    g0, g1 = y0[:, c] - level, y1[:, c] - level
    hit = np.flatnonzero(((g0 < 0.0) & (g1 >= 0.0)) | ((g0 > 0.0) & (g1 <= 0.0))
                         | ((g0 * f0[:, c] < 0.0) & (g1 * f1[:, c] > 0.0)))
    return hit, g0[hit], g1[hit]


def _crossings(level, y0, coeffs, g0, g1, h):
    """The crossings of the level on candidate steps of sizes h, one row
    each, as geodesics.level_crossings finds them on a path: y0 and coeffs
    hold the component's start value and _contd8 coefficients, and g0 and g1
    its offset from the level at theta = 0 and 1.  The grid [0, 1] of each
    step gets one point inserted: the turn of the component, the zero of its
    slope, or the middle of the step where the slope keeps its sign.  Every
    sign change on that grid is refined by roots_on_grids to _ROOT_XTOL in
    the parameter; a grid point on the level is a crossing, and a crossing
    within 10 xtol of the one before it in its step is dropped.  Returns
    (k, t): the candidate and theta of every crossing, sorted by candidate
    and then by theta."""
    k = np.arange(h.size)
    xtol = _ROOT_XTOL / h

    def g(i, t):
        return _dense8(t, y0[i], *(c[i] for c in coeffs)) - level

    def slope(i, t):
        return _dense8_slope(t, *(c[i] for c in coeffs))

    zero, one = np.zeros(h.size), np.ones(h.size)
    turning, t_turn = roots_on_grids(slope, np.column_stack([zero, one]),
                                     np.column_stack([slope(k, zero), slope(k, one)]), xtol)
    split = np.full(h.size, 0.5)
    split[turning] = t_turn
    return roots_on_grids(g, np.column_stack([zero, split, one]),
                          np.column_stack([g0, g(k, split), g1]), xtol)


_STATUS = ("completed", "max_steps", "retired")


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s0: float,
    y0,
    s_end: float,
    component: int,
    level: float,
    tol: float = 1e-10,
    post_step: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    max_steps: int = 2_000_000,
    retire: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> BatchSolution:
    """Integrate y' = f(s, y) from s0 to s_end (s_end > s0) for every row of
    the (n_rows, dim) array y0, and find every crossing of the state
    component ``component`` through ``level``.

    f and post_step are called with the parameters (k,) and states (k, dim)
    of the rows still active and return arrays of the states' shape; rows
    never interact.  tol and max_steps (per row) mean what they mean for
    integrate, but the step size follows the 5th-order error estimate alone
    (see the module docstring).  An iteration that accepts every row works
    on its step arrays as they are.  Crossings are refined to 1e-12 in the
    parameter (_crossings), each row's from that row alone.  The FSAL stage
    at a projected end and the extra stages are evaluated only for the
    candidate steps (_candidates), whose dense output is built in one pass
    after the run.

    retire(s, y), if given, marks the rows that are finished at the ends s
    and states y of their accepted steps: a marked row ends there, with
    status ``retired``, and the crossings inside that last step are still
    found.  geodesics.level_crossings_batch retires the rays that left the
    domain, and those that move away from their level where r is convex.
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
    crossed: list = []    # candidate steps, refined after the run
    s_out = np.empty(n)
    y_out = np.empty((n, dim))
    why = np.zeros(n, dtype=np.int64)   # the index in _STATUS of each row's end
    nsteps = nrejected = tries = 0
    root_n = math.sqrt(float(dim))
    grow = np.full(n, _MAX_FACTOR)   # per row, as in integrate

    while rows.size:
        if tries > max_steps:   # every active row has had one try per iteration
            s_out[rows], y_out[rows], why[rows] = s, y, 1
            break
        tries += 1
        h = np.minimum(h, s_end - s)
        stuck = s + h == s
        if stuck.any():
            # steps too small to advance s end their rows as max_steps does
            s_out[rows[stuck]], y_out[rows[stuck]], why[rows[stuck]] = s[stuck], y[stuck], 1
            rows, s, y, fs, h, grow = (v[~stuck] for v in (rows, s, y, fs, h, grow))
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
            factor = np.fmin(grow, np.fmax(_MIN_FACTOR, _SAFETY * enorm**_ORDER_EXP8))
        ok = enorm <= 1.0
        acc = np.flatnonzero(ok)
        grow = np.where(ok, _MAX_FACTOR, 1.0)
        nsteps += acc.size
        nrejected += rows.size - acc.size
        h_next = h * factor
        if acc.size == 0:
            h = h_next
            continue

        # the accepted rows: views when every row is accepted, else copies;
        # project, then look for crossings on the projected step
        cols = slice(None) if acc.size == rows.size else acc
        sa, ha, ya, fa, s1, y1 = s[cols], h[cols], y[cols], fs[cols], s_new[cols], y_new[cols]
        y_stage = y1
        if post_step is not None:
            y_proj = post_step(s1, y1)
            if y_proj is not None:
                y1 = np.asarray(y_proj, dtype=float)
        f1 = f(s1, y1)
        hit, g0, g1 = _candidates(component, level, ya, y1, fa, f1)
        if hit.size:
            # the candidate steps as _step_coeffs reads them: s, h, the end
            # states and slopes, and the stages k5, ..., k12, with k12, the
            # FSAL stage, evaluated at the unprojected end y_stage
            i = acc[hit]
            k12 = f1[hit] if y1 is y_stage else f(s1[hit], y_stage[hit])
            crossed.append((rows[i], g0, g1, sa[hit], ha[hit], ya[hit], y1[hit], fa[hit],
                            f1[hit], *(k[i] for k in stages[5:]), k12))

        h = h_next
        if cols is acc:
            s[acc], y[acc], fs[acc] = s1, y1, f1
        else:
            s, y, fs = s1, y1, f1
        done = s1 >= s_end
        if retire is not None:
            ends = retire(s1, y1) & ~done
            why[rows[acc[ends]]] = 2
            done |= ends
        if done.any():
            gone = acc[done]
            s_out[rows[gone]], y_out[rows[gone]] = s1[done], y1[done]
            keep = np.ones(rows.size, dtype=bool)
            keep[gone] = False
            rows, s, y, fs, h, grow = (v[keep] for v in (rows, s, y, fs, h, grow))

    r, sr, yr = np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, dim))
    if crossed:
        r, g0, g1, *step = (np.concatenate(a) for a in zip(*crossed))
        sa, ha, ya = step[:3]
        coeffs = _step_coeffs(f, *step[:6], step[6:])
        k, t = _crossings(level, ya[:, component], [c[:, component] for c in coeffs],
                          g0, g1, ha)
        r, sr, yr = r[k], sa[k] + t * ha[k], _dense8(t[:, None], ya[k], *(c[k] for c in coeffs))
        order = np.lexsort((sr, r))
        r, sr, yr = r[order], sr[order], yr[order]
    return BatchSolution(s=s_out, y=y_out, status=[_STATUS[k] for k in why.tolist()],
                         crossings=(r, sr, yr), nsteps=nsteps, nrejected=nrejected)
