"""Profile functions of rotational surfaces.

A surface of revolution with vertex p carries the warped polar metric

    ds^2 = dr^2 + m(r)^2 dtheta^2,

so the whole geometry is encoded by the warp function m together with the
wind strength mu of the rotational breeze W = mu * d/dtheta.  Profiles are
supplied analytically: a built-in paraboloid-like catalog entry plus custom
profiles given by explicit m, m', m'' expressions or callables.  Positive
definiteness of the navigation metric requires the bound m(r) < 1/mu, which
is enforced on a dense sample grid at construction time.

All operations here are pure functions of immutable data and are safe to
share across threads.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError
from .expressions import compile_expression

DEFAULT_R_MAX = 20.0

# Construction-time validation grid and tolerances.
_VALIDATION_POINTS = 256
_VERTEX_TOL = 1e-12
_DERIV_RTOL = 1e-6

# Embeddability: |m'| may exceed 1 by _EMBED_SLACK; _EMBED_GRID points of
# [0, r_max] bracket the first radius where it exceeds 1 by more.
_EMBED_SLACK = 1e-12
_EMBED_GRID = 10_000

# Iterations roots_on_grids allows a bracket: bisection alone halves a
# bracket of width pi to 1e-16 in 55.
_ROOT_MAXITER = 100
# Grid points around a bracket whose interpolating polynomials start it, and
# the Newton steps on the cubic through the middle four, from the secant;
# half as many follow on each wider polynomial.
_START_POINTS = 8
_START_STEPS = 4
# Ulps of the bracket ends added to a root's xtol.
_ROOT_ULPS = 4.0 * float(np.finfo(float).eps)

# Cumulative panel tables (PanelTable): panels of at most _PANEL in r, each
# integrated by _PANEL_NODES-point Gauss-Legendre on its two halves, to
# _PANEL_EPSABS over the table and _PANEL_EPSREL of each panel.
_PANEL = 0.25
_PANEL_NODES = 10
_PANEL_EPSABS = 1e-10
_PANEL_EPSREL = 1e-12
_GL_T, _GL_W = np.polynomial.legendre.leggauss(_PANEL_NODES)
_GL_U, _GL_HW = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W   # the rule on [0, 1]
# Halvings halved_integral allows a piece that misses its error target.
_HALVINGS = 30


@dataclass(frozen=True)
class SurfacePoint:
    """Point (r, theta) in geodesic polar coordinates around the vertex.

    theta is stored unreduced (it may accumulate many windings along twisted
    geodesics); reduce mod 2*pi only when comparing or exporting.  At r = 0
    every theta denotes the vertex.  Both coordinates are stored as Python
    floats.
    """

    r: float
    theta: float

    def __post_init__(self):
        r, theta = as_float(self.r), as_float(self.theta)
        if not (math.isfinite(r) and math.isfinite(theta)):
            raise InvalidParameterError(f"point coordinates must be finite, got ({r}, {theta})")
        if r < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)


def as_float(value) -> float:
    """A real number as a Python float: a float as it is, any other real
    number (np.float64 included) by float().  Anything else, a string
    among them, raises InvalidParameterError rather than being parsed."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real):
        return float(value)
    raise InvalidParameterError(f"expected a real number, got {value!r}")


def as_float_array(values, shape) -> np.ndarray:
    """Profile function values as a float array of the given shape: a
    constant expression such as m1 = "1" returns a scalar."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]; a non-finite
    angle raises InvalidParameterError."""
    if not math.isfinite(theta):
        raise InvalidParameterError(f"angle must be finite, got {theta}")
    w = math.remainder(theta, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle of every entry of an array, bit for bit: fmod is exact,
    and so is the one turn that moves its result into (-pi, pi]."""
    w = np.fmod(theta, 2.0 * math.pi)
    return np.where(w > math.pi, w - 2.0 * math.pi,
                    np.where(w <= -math.pi, w + 2.0 * math.pi, w))


@dataclass(frozen=True)
class Profile:
    """Warp function m with two derivatives, wind strength, and domain cap.

    m1 and m2 are dm/dr and d^2m/dr^2.  kind tags the catalog entry; source
    carries the defining configuration for config echo in exports.
    """

    m: Callable[[float], float]
    m1: Callable[[float], float]
    m2: Callable[[float], float]
    mu: float
    r_max: float
    kind: str
    source: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise InvalidParameterError(
                f"wind strength mu must be finite and > 0, got {self.mu}")
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise InvalidParameterError(
                f"r_max must be finite and > 0, got {self.r_max}")
        _validate_profile(self)

    @property
    def r_eps(self) -> float:
        """Radius below which vertex limits replace direct evaluation."""
        return 1e-6 * max(1.0, self.r_max)

    @cached_property
    def embeddable_radius(self) -> float:
        """Largest R <= r_max with |m'| <= 1 + 1e-12 on [0, R]: the range
        over which the surface embeds isometrically in Euclidean 3-space.

        The first grid point of [0, r_max] (_EMBED_GRID points) where |m'|
        exceeds the bound closes a bracket that roots_on_grid refines; a
        profile that never exceeds it gives r_max.  Like height_table it is
        computed on first use and then kept on the instance: a pure function
        of the immutable profile, so sharing one across threads is safe.
        """
        bound = 1.0 + _EMBED_SLACK
        rr = np.linspace(0.0, self.r_max, _EMBED_GRID)
        over = np.abs(np.broadcast_to(np.asarray(self.m1(rr), dtype=float), rr.shape)) - bound
        bad = np.flatnonzero(over > 0.0)
        if bad.size == 0:
            return self.r_max
        i = int(bad[0])
        if i == 0:
            return 0.0
        f = lambda r: abs(float(self.m1(r))) - bound
        return roots_on_grid(f, rr[i - 1:i + 1], over[i - 1:i + 1], xtol=1e-12)[0]

    @cached_property
    def vertex_chart_radius(self) -> float:
        """Radius R below which integrate_h runs in normal coordinates at the
        vertex: the first radius where m(r) <= r / sqrt(2), or r_max if m
        stays above that on [0, r_max] (the plane's m = r does).  m / r is
        how far the circles have shrunk from the plane's, and up to R the
        chart's angular metric is within a factor 2 of the true one.

        The grid of embeddable_radius brackets the first radius where
        m(r) / r - 1 / sqrt(2) is not positive (its limit at the vertex is
        m'(0) - 1 / sqrt(2) > 0), and roots_on_grid refines it to 1e-12; R
        is the refined end on the inner side, so that m > r / sqrt(2) on
        all of (0, R].  Computed on first use and kept on the instance.
        """
        ratio = math.sqrt(0.5)
        rr = np.linspace(0.0, self.r_max, _EMBED_GRID)
        gap = np.empty(rr.size)
        gap[0] = float(self.m1(0.0)) - ratio
        gap[1:] = as_float_array(self.m(rr[1:]), rr[1:].shape) / rr[1:] - ratio
        return self._positive_up_to(lambda r: float(self.m(r)) / r - ratio, rr, gap, 1e-12)

    @cached_property
    def increasing_radius(self) -> float:
        """Radius R up to which the warp increases: the first r in
        (0, r_max] where m'(r) <= 0, or r_max if m' stays positive there
        (the paraboloid and the plane).  Where m' >= 0 the radius of an
        h-geodesic is convex, r'' = nu^2 m' / m^3, so a ray moving outward
        never comes back down; measure's connector families and shoot_hits'
        cone, and the row retirement of geodesics.level_crossings_batch,
        rest on it.

        Found as vertex_chart_radius is: the grid of embeddable_radius
        brackets the first radius where m' is not positive (m'(0) = 1), and
        roots_on_grid refines it to 2.5e-13, R taken on the inner side, so
        that m' > 0 on all of (0, R] and R lies within 1e-12 of the root.
        Computed on first use and kept on the instance.
        """
        rr = np.linspace(0.0, self.r_max, _EMBED_GRID)
        slope = as_float_array(self.m1(rr), rr.shape)
        return self._positive_up_to(lambda r: float(self.m1(r)), rr, slope, 2.5e-13)

    def increases_to(self, r: float) -> bool:
        """Whether m' > 0 on all of (0, min(r, r_max)]: a radius past r_max,
        such as rho + r_max - rho rounded up by one ulp, is checked on the
        profile's whole domain."""
        return min(r, self.r_max) <= self.increasing_radius

    def _positive_up_to(self, f, rr, values, xtol: float) -> float:
        """r_max if the values of f on the grid rr of [0, r_max] are all
        positive, else the root of f bracketed by the first value that is
        not and the one before it, refined by roots_on_grid to xtol and
        moved to the inner side, where f > 0.  values[0] must be positive."""
        low = np.flatnonzero(values <= 0.0)
        if low.size == 0:
            return self.r_max
        i = int(low[0])
        root = roots_on_grid(f, rr[i - 1:i + 1], values[i - 1:i + 1], xtol=xtol)[0]
        return root if f(root) > 0.0 else root - 2.0 * xtol

    @cached_property
    def height_table(self) -> PanelTable:
        """PanelTable of sqrt(1 - m'^2) over [0, embeddable_radius]: the
        arc-length height z that embed.height reads.  The panel holding a
        square-root endpoint, where |m'| reaches 1, misses its error target
        and is halved.  Built on first use and kept on the instance."""
        def slope(r):
            m1 = as_float_array(self.m1(r), r.shape)
            return np.sqrt(np.maximum(1.0 - m1 * m1, 0.0))

        return PanelTable(slope, self.embeddable_radius)

    @cached_property
    def jacobi_table(self) -> PanelTable:
        """PanelTable of G(x) = int_0^x (1/m(v)^2 - 1/v^2) dv over [0, r_max],
        the regular part of int dv / m^2 that conjugate.first_conjugate
        reads; even and smooth for a warp odd and smooth at the vertex.  The
        integrand is (v - m)(v + m) / (m v)^2, with v - m below _PANEL, where
        the difference would cancel, the Taylor remainder
        -int_0^v (v - t) m''(t) dt on the table's rule, and read at r_eps
        below r_eps, as gauss_curvature is.  The integrand is bounded on
        every accepted warp, but the r_eps read is still needed: without it
        (m v)^2 underflows to zero at the table's nodes below a rho of
        7.29e-301, which first_conjugate must still take, and the integrand
        is 0/0 there.  Like height_table it is built on first use and kept
        on the instance."""
        def g(v):
            v = np.maximum(v, self.r_eps)
            m = as_float_array(self.m(v), v.shape)
            gap = v - m
            near = v < _PANEL
            if near.any():
                w = v[near, None]
                t = w * _GL_U
                m2 = as_float_array(self.m2(t.ravel()), (t.size,)).reshape(t.shape)
                gap[near] = -((w - t) * m2 * w) @ _GL_HW
            return gap * (v + m) / (m * v) ** 2

        return PanelTable(g, self.r_max)

    def check_radius(self, r: float) -> None:
        """InvalidParameterError unless 0 <= r <= r_max."""
        if not 0.0 <= r <= self.r_max:
            raise InvalidParameterError(f"radius {r} lies outside [0, r_max = {self.r_max}]")

    def boundedness_margin(self) -> float:
        """min of 1 - mu*m(r) over 2048 radii of [0, r_max]; must stay
        strictly positive."""
        rr = np.linspace(0.0, self.r_max, 2048)
        return float(np.min(1.0 - self.mu * np.asarray(self.m(rr), dtype=float)))


def _validate_profile(p: Profile) -> None:
    # an expression that divides by zero, overflows or leaves its domain on
    # [0, r_max] is a bad profile, not an engine failure
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            _check_profile_values(p)
    except ArithmeticError as exc:
        raise InvalidParameterError(f"profile functions fail on [0, r_max]: {exc}") from exc


def _check_profile_values(p: Profile) -> None:
    m0 = float(p.m(0.0))
    m1_0 = float(p.m1(0.0))
    if not abs(m0) <= _VERTEX_TOL:
        raise InvalidParameterError(f"m(0) must vanish, got {m0}")
    if not abs(m1_0 - 1.0) <= _VERTEX_TOL:
        raise InvalidParameterError(f"m'(0) must equal 1, got {m1_0}")

    rr = np.linspace(0.0, p.r_max, _VALIDATION_POINTS)
    mm = as_float_array(p.m(rr), rr.shape)
    for name, values in (("m", mm), ("m'", p.m1(rr)), ("m''", p.m2(rr))):
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError(f"{name} must be finite on [0, r_max]")
    # smoothness at the vertex: dr^2 + m^2 dtheta^2 is smooth there only if
    # m extends to an odd function of r, so m''(0) = 0; otherwise the
    # curvature -m''/m grows like 1/r at the vertex
    m2_0 = float(p.m2(0.0))
    if not abs(m2_0) <= _VERTEX_TOL:
        raise InvalidParameterError(
            f"m''(0) must vanish, got {m2_0}: the surface is smooth at the vertex only "
            "if m extends to an odd function of r")
    if np.any(mm[1:] <= 0.0):
        bad = rr[1:][mm[1:] <= 0.0][0]
        raise InvalidParameterError(f"m(r) must be positive on (0, r_max]; m({bad}) <= 0")
    if np.any(p.mu * mm >= 1.0):
        bad = rr[p.mu * mm >= 1.0][0]
        raise InvalidParameterError(
            f"boundedness m(r) < 1/mu violated at r = {bad}: the navigation "
            f"metric degenerates (mu*m = {p.mu * float(p.m(bad))})"
        )

    # Central finite differences tie the supplied derivatives to m itself.
    h = 1e-5 * max(1.0, p.r_max / 10.0)
    sample = rr[(rr > 2 * h) & (rr < p.r_max - 2 * h)][::8]
    for r in sample:
        fd1 = (p.m(r + h) - p.m(r - h)) / (2 * h)
        fd2 = (p.m(r + h) - 2.0 * p.m(r) + p.m(r - h)) / (h * h)
        if abs(p.m1(r) - fd1) > _DERIV_RTOL * max(1.0, abs(p.m1(r))):
            raise InvalidParameterError(
                f"m' disagrees with finite difference of m at r = {r}: "
                f"{p.m1(r)} vs {fd1}"
            )
        if abs(p.m2(r) - fd2) > 10.0 * _DERIV_RTOL * max(1.0, abs(p.m2(r))):
            raise InvalidParameterError(
                f"m'' disagrees with finite difference of m at r = {r}: "
                f"{p.m2(r)} vs {fd2}"
            )


def make_paraboloid(mu: float, r_max: float = DEFAULT_R_MAX) -> Profile:
    """Paraboloid-like catalog profile m(r) = r / sqrt(mu^2 r^2 + 1).

    The warp is automatically bounded by 1/mu, so the rotational wind of
    strength mu is a mild breeze everywhere.  m on a float (np.float64
    included) evaluates with math.sqrt and returns a Python float for a
    Python float; on an array it evaluates with np.sqrt.  Both square roots
    are correctly rounded, so a radius gives the same value bit for bit
    either way.  m1 and m2 run as written on floats and arrays alike.
    """
    mu2 = mu * mu
    if not (mu > 0 and math.isfinite(mu2)):
        raise InvalidParameterError(f"mu must be positive, with a finite square, got {mu}")

    def m(r):
        if isinstance(r, float):
            return r / math.sqrt(mu2 * r * r + 1.0)
        return r / np.sqrt(mu2 * r * r + 1.0)

    def m1(r):
        return (mu2 * r * r + 1.0) ** -1.5

    def m2(r):
        return -3.0 * mu2 * r * (mu2 * r * r + 1.0) ** -2.5

    return Profile(
        m=m, m1=m1, m2=m2, mu=mu, r_max=r_max, kind="paraboloid-like",
        source={"kind": "paraboloid", "mu": mu, "r_max": r_max},
    )


def make_custom(
    m,
    m1,
    m2,
    mu: float,
    r_max: float = DEFAULT_R_MAX,
) -> Profile:
    """Register a custom analytic profile.

    m, m1, m2 may be expression strings over the variables ``r`` and ``mu``
    (see :mod:`randers.expressions`) or plain callables of r.  All three must
    be supplied explicitly; curvature needs two trustworthy derivatives, so
    no numerical differentiation is performed.
    """
    source = {"kind": "custom", "mu": mu, "r_max": r_max}

    def resolve(fn, tag):
        if isinstance(fn, str):
            source[tag] = fn
            compiled = compile_expression(fn)
            return lambda r, _c=compiled: _c(r, mu)
        if callable(fn):
            source[tag] = getattr(fn, "__name__", "<callable>")
            return fn
        raise InvalidParameterError(f"{tag} must be an expression string or callable")

    return Profile(
        m=resolve(m, "m"), m1=resolve(m1, "m1"), m2=resolve(m2, "m2"),
        mu=mu, r_max=r_max, kind="custom-analytic", source=source,
    )


def load_surface(config) -> Profile:
    """Build a Profile from a surface-definition mapping or JSON file path.

    Accepted forms::

        {"kind": "paraboloid", "mu": 1.0, "r_max": 20.0}
        {"kind": "custom", "m": "...", "m1": "...", "m2": "...",
         "mu": 0.5, "r_max": 10.0}
    """
    if isinstance(config, (str,)):
        try:
            with open(config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise InvalidParameterError(f"cannot read surface file {config}: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidParameterError("surface definition must be a mapping or file path")
    kind = config.get("kind")
    if kind not in ("paraboloid", "custom"):
        raise InvalidParameterError(f"unknown surface kind: {kind!r}")
    try:
        mu = float(config.get("mu", 1.0))
        r_max = float(config.get("r_max", DEFAULT_R_MAX))
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"mu and r_max must be numbers: {exc}") from exc
    if kind == "paraboloid":
        return make_paraboloid(mu=mu, r_max=r_max)
    missing = [k for k in ("m", "m1", "m2") if k not in config]
    if missing:
        raise InvalidParameterError(f"custom surface missing keys: {missing}")
    return make_custom(m=config["m"], m1=config["m1"], m2=config["m2"], mu=mu, r_max=r_max)


def gauss_curvature(profile: Profile, r):
    """Gauss curvature G(r) = -m''(r) / m(r) of the background metric, at a
    radius or at an array of radii.

    Below r_eps the 0/0 vertex limit is evaluated at r_eps instead, which is
    accurate for smooth odd warp functions.  A negative or NaN radius raises
    InvalidParameterError.
    """
    # a scalar keeps float arithmetic (the Jacobi right-hand side calls this
    # per stage), whose powers may differ in the last bit from numpy's
    if np.ndim(r) == 0:
        if not r >= 0:
            raise InvalidParameterError(f"radius must be >= 0, got {r}")
        if r < profile.r_eps:
            r = profile.r_eps
        return -float(profile.m2(r)) / float(profile.m(r))
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise InvalidParameterError(f"radius must be >= 0, got {r[~(r >= 0)][0]}")
    r = np.maximum(r, profile.r_eps)
    return -as_float_array(profile.m2(r), r.shape) / as_float_array(profile.m(r), r.shape)


class VonMangoldtCheck(NamedTuple):
    is_von_mangoldt: bool
    violation_index: int | None
    violation_radius: float | None


_VM_SLACK = 1e-10


def is_von_mangoldt(profile: Profile, grid) -> VonMangoldtCheck:
    """Check that the curvature is non-increasing in the vertex distance.

    Returns the verdict together with the first grid index (and radius) where
    G increases beyond the per-step slack.  A non-increasing curvature makes
    the surface von Mangoldt both for the background and the navigation
    metric, which is what licenses the cut-locus construction.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("von Mangoldt check requires a non-empty grid")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("grid must be strictly increasing")
    g = gauss_curvature(profile, grid)
    rising = np.nonzero(np.diff(g) > _VM_SLACK)[0]
    if rising.size:
        i = int(rising[0]) + 1
        return VonMangoldtCheck(False, i, float(grid[i]))
    return VonMangoldtCheck(True, None, None)


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call.  No engine path
    calls it: halved_integral is the adaptive quadrature.  It stays only
    because bench/tracer.py wraps the name as geodesics and embed import
    it, and goes when the tracer drops those wrappers."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


def gauss_legendre(f, a, w):
    """The _PANEL_NODES-point Gauss-Legendre integral of f over
    [a, a + w], with f evaluated at all nodes in one array call; a and w
    are floats, or (k, 1) arrays for k panels at once."""
    r = a + w * _GL_U
    return (as_float_array(f(r.ravel()), (r.size,)).reshape(r.shape) * w) @ _GL_HW


def _split_error(f, a, w):
    """(value, error) of f over [a, a + w] on every panel of the arrays a
    and w: the rule on the panel's two halves, and its distance from the
    rule on the whole panel."""
    whole, left, right = np.split(gauss_legendre(
        f, np.concatenate([a, a, a + 0.5 * w])[:, None],
        np.concatenate([w, 0.5 * w, 0.5 * w])[:, None]), 3)
    halves = left + right
    return halves, np.abs(whole - halves)


def _settled(value, error, epsabs):
    return error <= np.maximum(epsabs, _PANEL_EPSREL * np.abs(value))


def halved_integral(f, a: float, b: float, epsabs: float, depth: int = 0) -> float:
    """f over [a, b] by the rule of PanelTable, halved until the two halves
    of each piece agree with the whole to epsabs (or _PANEL_EPSREL of its
    value); a piece that does not settle in _HALVINGS halvings, as at a
    singularity, raises InternalConsistencyError."""
    value, error = _split_error(f, np.array([a]), np.array([b - a]))
    if _settled(value, error, epsabs)[0]:
        return float(value[0])
    if depth == _HALVINGS:
        raise InternalConsistencyError(
            f"the integral over [{a}, {b}] does not settle in {_HALVINGS} halvings")
    mid = 0.5 * (a + b)
    return (halved_integral(f, a, mid, epsabs, depth + 1)
            + halved_integral(f, mid, b, epsabs, depth + 1))


class PanelTable:
    """Cumulative integral of f over [0, radius], read at any r in it.

    f maps an array of radii to its values.  Each panel of at most _PANEL
    is integrated by Gauss-Legendre on its two halves, f at every node of
    the table in one array call; the whole-panel value of the same rule
    estimates the error, and a panel whose estimate exceeds its share of
    _PANEL_EPSABS = 1e-10, and _PANEL_EPSREL = 1e-12 of its value, is
    marked in `refined` and integrated by halved_integral instead.  A read
    at r is the table at the panel edge below r plus the rule on [edge, r],
    halved in a refined panel.  The height table (Profile.height_table) and
    the Jacobi table (Profile.jacobi_table) differ only in f.  epsabs is
    the error one read may carry.
    """

    epsabs = _PANEL_EPSABS

    def __init__(self, f, radius: float):
        self.f = f
        n = max(1, math.ceil(radius / _PANEL))
        edges = np.linspace(0.0, radius, n + 1)
        a, w = edges[:-1], np.diff(edges)
        panels, error = _split_error(f, a, w)
        self.refined = (~_settled(panels, error, _PANEL_EPSABS / n)).tolist()
        for i in np.flatnonzero(self.refined):
            panels[i] = halved_integral(f, a[i], edges[i + 1], _PANEL_EPSABS / n)
        self.edges = edges.tolist()
        self.values = np.concatenate([[0.0], np.cumsum(panels)]).tolist()

    def __call__(self, r: float) -> float:
        if not 0.0 <= r <= self.edges[-1]:
            raise InvalidParameterError(
                f"radius {r} lies outside the table [0, {self.edges[-1]}]")
        i = bisect.bisect_right(self.edges, r) - 1
        edge = self.edges[i]
        if r == edge:
            return self.values[i]
        if self.refined[i]:
            return self.values[i] + halved_integral(self.f, edge, r, _PANEL_EPSABS)
        return self.values[i] + float(gauss_legendre(self.f, edge, r - edge))


def _newton_form(xs, fs):
    """(nodes, c) of the polynomial through the points (xs[k], fs[k]) in
    Newton form, sum_k c[k] prod_{j<k} (t - nodes[j]), in the variable
    t = (x - xs[0]) / (xs[1] - xs[0]).  Floats or arrays alike."""
    nodes = [(x - xs[0]) / (xs[1] - xs[0]) for x in xs]
    c = list(fs)
    for level in range(1, len(c)):
        for k in range(len(c) - 1, level - 1, -1):
            c[k] = (c[k] - c[k - 1]) / (nodes[k] - nodes[k - level])
    return nodes, c


def _newton_steps(nodes, c, t, steps: int):
    """(t, slope): t after that many Newton steps on the polynomial of
    _newton_form with the coefficients c, its value and slope by Horner's
    rule, and the slope of the last step."""
    for _ in range(steps):
        value, slope = c[-1], 0.0
        for ck, node in zip(c[-2::-1], nodes[len(c) - 2::-1]):
            slope = slope * (t - node) + value
            value = value * (t - node) + ck
        t = t - value / slope
    return t, slope


def _monotone(fs):
    """Whether the values fs are strictly monotone; floats or arrays."""
    up = down = True
    for f0, f1 in zip(fs, fs[1:]):
        up, down = up & (f0 < f1), down & (f0 > f1)
    return up | down


def _chandrupatla_start(xs, fs):
    """(t, slope) for the first point in the middle bracket of a window of
    _START_POINTS grid points xs (an end repeated where the grid ends) with
    the values fs: t for _chandrupatla_point, and the slope in t of the
    polynomial it came from, for _chandrupatla_model.  t is the root in the
    bracket of the polynomials through the middle 4, 6, ... points in turn,
    each while those values are strictly monotone: _START_STEPS Newton steps
    on the cubic from the secant, then _START_STEPS / 2 on each wider one
    from the root before.  A root that leaves the bracket, and every wider
    one, falls back to the root before, the first to the secant, whose
    slope is NaN.  Floats or arrays alike: on arrays a repeated point or a
    zero slope turns a root to inf or NaN, which leaves the bracket; floats
    take a division by zero for that."""
    half = len(xs) // 2
    a = half - 1   # the bracket is [xs[a], xs[a + 1]]
    arrays = isinstance(xs[0], np.ndarray)
    secant, nan = fs[a] / (fs[a] - fs[a + 1]), math.nan
    # on floats, only the widest middle window of monotone values
    n = len(xs) if arrays else 2
    while not arrays and n < len(xs) and _monotone(fs[a - n // 2:half + 1 + n // 2]):
        n += 2
    # the nodes in the order the Newton form adds them: the bracket, then
    # outward, so each polynomial's coefficients lead the next one's; on
    # floats, nodes that round together drop the widest polynomials
    order = [a, a + 1] + [k for j in range(1, half) for k in (a - j, a + 1 + j)]
    while n > 2:
        try:
            nodes, c = _newton_form([xs[k] for k in order[:n]], [fs[k] for k in order[:n]])
            break
        except ZeroDivisionError:
            n -= 2
    else:
        return secant, nan
    t, slope, held, steps = secant, nan, True, _START_STEPS
    for k in range(2, n // 2 + 1):
        try:
            root, root_slope = _newton_steps(nodes, c[:2 * k], t, steps)
        except ZeroDivisionError:
            break
        held = held & (0.0 < root) & (root < 1.0)
        if arrays:
            held = held & _monotone(fs[half - k:half + k])
            t, slope = np.where(held, root, t), np.where(held, root_slope, slope)
        elif held:
            t, slope = root, root_slope
        else:
            break
        steps = _START_STEPS // 2
    return t, slope


def _chandrupatla_model(x1, x2, f1, width, slope, t):
    """The t of _chandrupatla_point after the first point x1 of a bracket:
    the Newton step from x1 with the slope of the polynomial that placed x1
    (slope per unit of t, width the grid bracket's), where it lands inside
    the bracket [x1, x2]; else t, the step of _chandrupatla_fraction.  On
    the tables of cut_locus' connectors x1 lies a median 1e-8 from the
    root (5e-7 on the turning connectors); this step then ends 86% of the
    brackets at their second point, inverse quadratic interpolation through
    the grid ends 42%.  Floats or arrays alike."""
    u = -f1 * width / (slope * (x2 - x1))
    inside = (0.0 < u) & (u < 1.0)
    if isinstance(x1, np.ndarray):
        return np.where(inside, u, t)
    return u if inside else t


def _chandrupatla_point(x1, x2, t, xtol):
    """Where Chandrupatla's method evaluates next in the bracket [x1, x2]
    (x1 its newest point): the fraction t of the way from x1 to x2, kept
    at least half the settling width inside the bracket; and that width,
    xtol plus a few ulps of the bracket.  Floats or arrays alike."""
    width = x2 - x1
    if isinstance(width, np.ndarray):
        tol = xtol + _ROOT_ULPS * np.maximum(np.abs(x1), np.abs(x2))
        edge = 0.5 * tol / np.abs(width)
        return x1 + np.clip(t, edge, 1.0 - edge) * width, tol
    tol = xtol + _ROOT_ULPS * max(abs(x1), abs(x2))
    edge = 0.5 * tol / abs(width)
    return x1 + min(max(t, edge), 1.0 - edge) * width, tol


def _chandrupatla_settled(x1, x2, x3, f1, f2, f3, tol, xtol):
    """Whether the bracket [x1, x2] is settled after f ran at x1 (x3 the
    point dropped, on the far side of x1 from the root): it is narrower than
    tol, f1 is 0, or both secants from x1, to x2 across the root and to x3
    behind it, put the root within xtol / 2 of x1.  Where f' is monotone
    over [x3, x2], the slope from x1 to the root lies between the two
    secants' slopes, so the farther estimate bounds the distance; a secant
    to x2 alone underestimates it where f' grows across the bracket.  Floats
    or arrays alike, with no division: repeated values fail the test."""
    half = 0.5 * xtol
    return ((abs(x2 - x1) < tol) | (f1 == 0.0)
            | ((abs(f1 * (x2 - x1)) <= half * abs(f2 - f1))
               & (abs(f1 * (x3 - x1)) <= half * abs(f3 - f1))))


def _chandrupatla_fraction(x1, x2, x3, f1, f2, f3):
    """The next t of _chandrupatla_point after the bracket [x1, x2] (x1 the
    point just found, x3 the point dropped): inverse quadratic
    interpolation through the three points where Chandrupatla's test
    allows it, else 0.5 (bisection).  Floats or arrays alike; arrays are
    evaluated under np.errstate, because a repeated point or value makes
    xi or phi inf or NaN there, which fails the test."""
    arrays = isinstance(x1, np.ndarray)
    if not arrays and (x3 == x2 or f3 == f2):
        return 0.5
    xi = (x1 - x2) / (x3 - x2)
    phi = (f1 - f2) / (f3 - f2)
    # the test also keeps every denominator below away from zero
    interpolate = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
    if not (arrays or interpolate):
        return 0.5
    t = (f1 / (f2 - f1) * f3 / (f2 - f3)
         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
    return np.where(interpolate, t, 0.5) if arrays else t


def _chandrupatla(f, xs, fs, xtol: float) -> float:
    """The middle bracket of the window xs of _chandrupatla_start, with
    values of opposite signs in fs, refined on floats by the steps
    roots_on_grids takes on arrays."""
    half = len(xs) // 2
    x1, x2, f1, f2 = xs[half - 1], xs[half], fs[half - 1], fs[half]
    x3, f3, width = x2, f2, x2 - x1
    t, slope = _chandrupatla_start(xs, fs)
    x, tol = _chandrupatla_point(x1, x2, t, xtol)
    # a grid bracket narrower than tol is settled before f runs
    if abs(x2 - x1) >= tol:
        for evaluations in range(_ROOT_MAXITER):
            y = float(f(x))
            if (y > 0.0 and f1 > 0.0) or (y < 0.0 and f1 < 0.0):
                x3, f3 = x1, f1
            else:
                x3, f3, x2, f2 = x2, f2, x1, f1
            x1, f1 = x, y
            if _chandrupatla_settled(x1, x2, x3, f1, f2, f3, tol, xtol):
                break
            t = _chandrupatla_fraction(x1, x2, x3, f1, f2, f3)
            if evaluations == 0:
                t = _chandrupatla_model(x1, x2, f1, width, slope, t)
            x, tol = _chandrupatla_point(x1, x2, t, xtol)
        else:
            raise InternalConsistencyError(
                f"a bracket did not settle in {_ROOT_MAXITER} iterations, at {x1}")
    return x1 if abs(f1) < abs(f2) else x2


def roots_on_grid(f, grid, values, xtol: float) -> list[float]:
    """Roots of a scalar function bracketed on a strictly increasing grid.

    values[i] is f(grid[i]), or a value the caller already holds with the
    same sign.  Each sign change between neighbouring grid points is refined
    to xtol by the Chandrupatla iteration of roots_on_grids, started from
    the same grid values around it and ended by the same tests, on floats
    and step for step, so both return the same roots; f runs only inside
    brackets, and the bracket keeps the signs the caller saw.  Grid points
    with value exactly zero are roots as they stand.  A root within
    10 * xtol of the previous one is dropped: adjacent brackets around one
    tangential zero report it once.
    """
    roots: list[float] = []
    last = len(grid) - 1
    for i, v in enumerate(values):
        if v == 0.0:
            root = float(grid[i])
        elif i < last and v * values[i + 1] < 0.0:
            around = [min(max(j, 0), last) for j in range(i + 1 - _START_POINTS // 2,
                                                          i + 1 + _START_POINTS // 2)]
            root = _chandrupatla(f, [float(grid[j]) for j in around],
                                 [float(values[j]) for j in around], xtol)
        else:
            continue
        if not roots or abs(root - roots[-1]) > 10.0 * xtol:
            roots.append(root)
    return roots


def roots_on_grids(f, grid, values, xtol):
    """Array form of roots_on_grid: the roots of many functions at once,
    function i sampled as values[i] on grid (one strictly increasing grid
    for every row, or one row each), with xtol one value or one per row.

    f(rows, x) evaluates the functions rows[k] at x[k]; it runs once per
    iteration, over every bracket not yet settled.  Each sign change is
    refined by Chandrupatla's method (inverse quadratic interpolation where
    the last three points allow it, else bisection), which keeps every
    iterate at least half the tolerance inside its bracket, with two steps
    of its own at the start, both from the grid values around the bracket
    (_START_POINTS of them).  The first point is the root of the widest
    polynomial through the middle 4, 6, ... of them whose values are
    monotone (_chandrupatla_start), else the secant step; the second is the
    Newton step from the first with that polynomial's slope
    (_chandrupatla_model), where it stays inside the bracket.  A bracket
    ends once it is narrower than xtol plus a few ulps of the root, once f
    is 0 at its newest point, or once the secant estimates of that point's
    distance to the root, to the bracket's far end and to the point dropped
    behind it, are both at most xtol / 2 (_chandrupatla_settled): a point
    that lands on the root ends its bracket without the steps that would
    close the bracket around it.  A grid bracket already narrower than the
    tolerance is settled before f runs.  The end with the smaller |f| is the
    root, so a root is a point where f ran or a grid point.  Grid points
    with value exactly zero are roots as they stand, and a root within
    10 * xtol of the previous root of its row is dropped, as in
    roots_on_grid.  Returns (rows, roots), sorted by row and then by root;
    a bracket still open after _ROOT_MAXITER iterations raises
    InternalConsistencyError.
    """
    values = np.asarray(values, dtype=float)
    grid = np.broadcast_to(np.asarray(grid, dtype=float), values.shape)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), values.shape[:1])
    rows, col = np.nonzero(values[:, :-1] * values[:, 1:] < 0.0)
    found = np.empty(rows.size)
    # state of the brackets still open, numbered live: x1 is the newest
    # point, [x1, x2] the bracket, x3 the point dropped last
    live = np.arange(rows.size)
    half = _START_POINTS // 2
    around = np.clip(col[:, None] + np.arange(1 - half, 1 + half), 0, values.shape[1] - 1)
    xs, fs = list(grid[rows[:, None], around].T), list(values[rows[:, None], around].T)
    x1, x2, f1, f2 = xs[half - 1], xs[half], fs[half - 1], fs[half]
    x3, f3, xtol_k, width = x2, f2, xtol[rows], x2 - x1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t, slope = _chandrupatla_start(xs, fs)
        x, tol = _chandrupatla_point(x1, x2, t, xtol_k)
    # a grid bracket narrower than tol is settled before f runs
    done = np.abs(x2 - x1) < tol
    for evaluations in range(_ROOT_MAXITER + 1):
        if done.any():
            found[live[done]] = np.where(np.abs(f1) < np.abs(f2), x1, x2)[done]
            open_ = ~done
            live, x, tol, x1, x2, x3, f1, f2, f3, xtol_k, width, slope = (
                v[open_] for v in (live, x, tol, x1, x2, x3, f1, f2, f3, xtol_k, width, slope))
        if live.size == 0 or evaluations == _ROOT_MAXITER:
            break
        y = np.asarray(f(rows[live], x), dtype=float)
        same = np.sign(y) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, y
        done = _chandrupatla_settled(x1, x2, x3, f1, f2, f3, tol, xtol_k)
        with np.errstate(divide="ignore", invalid="ignore"):
            # settled rows may divide by zero; their next point is dropped
            t = _chandrupatla_fraction(x1, x2, x3, f1, f2, f3)
            if evaluations == 0:
                t = _chandrupatla_model(x1, x2, f1, width, slope, t)
            x, tol = _chandrupatla_point(x1, x2, t, xtol_k)
    if live.size:
        raise InternalConsistencyError(
            f"{live.size} brackets did not settle in {_ROOT_MAXITER} iterations, "
            f"at {x1.tolist()}")
    zr, zc = np.nonzero(values == 0.0)
    rows = np.concatenate([rows, zr])
    roots = np.concatenate([found, grid[zr, zc]])
    order = np.lexsort((roots, rows))
    rows, roots = rows[order], roots[order]
    keep: list[int] = []
    row_list, root_list = rows.tolist(), roots.tolist()
    for i, (row, root, near) in enumerate(zip(row_list, root_list, (10.0 * xtol[rows]).tolist())):
        if not (keep and row == row_list[keep[-1]] and abs(root - root_list[keep[-1]]) <= near):
            keep.append(i)
    return rows[keep], roots[keep]


def geodesic_parallels(profile: Profile, grid) -> list[float]:
    """Radii r0 with m'(r0) = 0, i.e. parallels that are geodesics.

    Each sign change of m' over the grid is refined to 1e-10; grid points
    where m' vanishes exactly are returned as-is.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("grid must be strictly increasing")
    m1 = lambda r: float(profile.m1(r))
    return roots_on_grid(m1, grid, [m1(r) for r in grid], xtol=1e-10)
