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

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParameterError
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


@dataclass(frozen=True)
class SurfacePoint:
    """Point (r, theta) in geodesic polar coordinates around the vertex.

    theta is stored unreduced (it may accumulate many windings along twisted
    geodesics); reduce mod 2*pi only when comparing or exporting.  At r = 0
    every theta denotes the vertex.
    """

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise InvalidParameterError(
                f"point coordinates must be finite, got ({self.r}, {self.theta})")
        if self.r < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {self.r}")


def as_float_array(values, shape) -> np.ndarray:
    """Profile function values as a float array of the given shape: a
    constant expression such as m1 = "1" returns a scalar."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


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
    def height_table(self):
        """embed.HeightTable of the arc-length height over [0,
        embeddable_radius], built on first use and kept on the instance."""
        from .embed import HeightTable  # embed imports this module

        return HeightTable(self)

    def boundedness_margin(self, n: int = 2048) -> float:
        """min over a dense grid of 1 - mu*m(r); must stay strictly positive."""
        rr = np.linspace(0.0, self.r_max, n)
        return float(np.min(1.0 - self.mu * np.asarray(self.m(rr), dtype=float)))


def _validate_profile(p: Profile) -> None:
    m0 = float(p.m(0.0))
    m1_0 = float(p.m1(0.0))
    if abs(m0) > _VERTEX_TOL:
        raise InvalidParameterError(f"m(0) must vanish, got {m0}")
    if abs(m1_0 - 1.0) > _VERTEX_TOL:
        raise InvalidParameterError(f"m'(0) must equal 1, got {m1_0}")

    rr = np.linspace(0.0, p.r_max, _VALIDATION_POINTS)
    mm = np.asarray(p.m(rr), dtype=float)
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
    strength mu is a mild breeze everywhere.
    """
    if not (mu > 0):
        raise InvalidParameterError(f"mu must be positive, got {mu}")
    mu2 = mu * mu

    def m(r):
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
        with open(config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if not isinstance(config, dict):
        raise InvalidParameterError("surface definition must be a mapping or file path")
    kind = config.get("kind")
    if kind == "paraboloid":
        return make_paraboloid(
            mu=float(config.get("mu", 1.0)),
            r_max=float(config.get("r_max", DEFAULT_R_MAX)),
        )
    if kind == "custom":
        missing = [k for k in ("m", "m1", "m2") if k not in config]
        if missing:
            raise InvalidParameterError(f"custom surface missing keys: {missing}")
        return make_custom(
            m=config["m"], m1=config["m1"], m2=config["m2"],
            mu=float(config.get("mu", 1.0)),
            r_max=float(config.get("r_max", DEFAULT_R_MAX)),
        )
    raise InvalidParameterError(f"unknown surface kind: {kind!r}")


def gauss_curvature(profile: Profile, r: float) -> float:
    """Gauss curvature G(r) = -m''(r) / m(r) of the background metric.

    Below r_eps the 0/0 vertex limit is evaluated at r_eps instead, which is
    accurate for smooth odd warp functions.
    """
    if r < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {r}")
    if r < profile.r_eps:
        r = profile.r_eps
    return -float(profile.m2(r)) / float(profile.m(r))


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
    g = np.array([gauss_curvature(profile, r) for r in grid])
    rising = np.nonzero(np.diff(g) > _VM_SLACK)[0]
    if rising.size:
        i = int(rising[0]) + 1
        return VonMangoldtCheck(False, i, float(grid[i]))
    return VonMangoldtCheck(True, None, None)


def roots_on_grid(f, grid, values, xtol: float) -> list[float]:
    """Roots of a scalar function bracketed on a strictly increasing grid.

    values[i] is f(grid[i]), or a value the caller already holds with the
    same sign.  Each sign change between neighbouring grid points is refined
    by brentq to xtol; brentq's calls at the bracket ends are answered from
    values, so f runs only inside brackets and the bracket keeps the signs
    the caller saw.  Grid points with value exactly zero are roots as they
    stand.  A root within 10 * xtol of the previous one is dropped: adjacent
    brackets around one tangential zero report it once.
    """
    roots: list[float] = []
    last = len(grid) - 1
    for i, v in enumerate(values):
        if v == 0.0:
            root = float(grid[i])
        elif i < last and v * values[i + 1] < 0.0:
            a, b, vb = float(grid[i]), float(grid[i + 1]), values[i + 1]
            root = float(brentq(lambda x: v if x == a else vb if x == b else f(x),
                                a, b, xtol=xtol))
        else:
            continue
        if not roots or abs(root - roots[-1]) > 10.0 * xtol:
            roots.append(root)
    return roots


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
