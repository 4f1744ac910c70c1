"""Isometric embedding into a flat rotational Randers cylinder.

The ambient structure lives on the solid cylinder x^2 + y^2 < 1/mu^2 in
R^3: Euclidean navigation data with the rotational wind (-mu y, mu x, 0)
produces the flat Randers metric F~ = alpha~ + beta~ with

    a~_ij = (1/lam~^2) [[1 - mu^2 x^2, -mu^2 x y,     0
                        [-mu^2 x y,     1 - mu^2 y^2, 0],
                        [0,             0,            lam~]],
    b~ = (mu y, -mu x, 0) / lam~,        lam~ = 1 - mu^2 (x^2 + y^2).

A rotational surface with |m'| <= 1 embeds isometrically by

    (r, theta) -> (m(r) cos theta, m(r) sin theta, z(r)),
    z(r) = integral_0^r sqrt(1 - m'(t)^2) dt,

which pulls a~ back to the navigation coefficients and b~ back to the
angular one-form exactly; the surface wind matches the ambient wind on the
image.  The arc-length height z is essential: the naive height z = r pulls
the profile direction back to (1 + m'^2) dr^2 instead of dr^2, and
pullback_check with height_map="radial" documents that failure numerically
rather than hiding it.

Each certification layer costs about one eval_F call.  Embeddability and the
height are per-profile facts, computed on first use and kept on the Profile
(Profile.embeddable_radius, Profile.height_table): assert_embeddable
compares a radius with the embeddable radius, and height reads the
cumulative profile.PanelTable of sqrt(1 - m'^2) plus one Gauss-Legendre
rule on the last partial panel, halved in the panel that holds a
square-root endpoint.  eval_F_tilde evaluates the ambient quadratic form
from scalars and does not read z, so pullback_check never evaluates the
height.  Radii beyond r_max raise InvalidParameterError: the profile is
not validated there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotEmbeddableError
# quad and eval_F are unused here; only bench/tracer.py reads them, to wrap them
from .profile import Profile, SurfacePoint, quad  # noqa: F401
from .zermelo import F_from_warp, Tangent, eval_F  # noqa: F401

@dataclass(frozen=True)
class MinkowskiPoint:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise InvalidParameterError(
                f"point coordinates must be finite, got ({self.x}, {self.y}, {self.z})")


def cylinder_margin(mu: float, point: MinkowskiPoint) -> float:
    """1 - mu^2 (x^2 + y^2); must be positive inside the domain."""
    return 1.0 - mu * mu * (point.x**2 + point.y**2)


def assert_embeddable(profile: Profile, r_to: float) -> None:
    """Check |m'| <= 1 on [0, r_to] against the profile's embeddable radius.

    r_to beyond r_max raises InvalidParameterError: the profile is not
    validated there.
    """
    _embeddable_m1(profile, r_to)


def _embeddable_m1(profile: Profile, r: float) -> float:
    """The checks of assert_embeddable at r, on one evaluation of m';
    returns that m'(r)."""
    if r > profile.r_max:
        raise InvalidParameterError(
            f"radius {r} lies beyond r_max = {profile.r_max}")
    m1 = float(profile.m1(r))
    if r > profile.embeddable_radius or abs(m1) > 1.0 + 1e-12:
        r_e = profile.embeddable_radius
        raise NotEmbeddableError(
            f"|m'| exceeds 1 beyond r = {r_e} (|m'({r})| = {abs(m1)}): the "
            "surface does not embed isometrically in Euclidean 3-space over "
            "this range"
        )
    return m1


def height(profile: Profile, r: float) -> float:
    """Arc-length height z(r) = integral of sqrt(1 - m'(t)^2) from 0 to r,
    read from the profile's cached height table."""
    if r > profile.embeddable_radius:
        assert_embeddable(profile, r)
    return profile.height_table(r)


def height_slope(profile: Profile, r: float) -> float:
    m1 = float(profile.m1(r))
    return math.sqrt(max(1.0 - m1 * m1, 0.0))


def embed_point(profile: Profile, q: SurfacePoint) -> MinkowskiPoint:
    """Image of a surface point; lies strictly inside the cylinder."""
    assert_embeddable(profile, q.r)
    m = float(profile.m(q.r))
    return MinkowskiPoint(m * math.cos(q.theta), m * math.sin(q.theta),
                          height(profile, q.r))


def pushforward(profile: Profile, q: SurfacePoint, v: Tangent) -> np.ndarray:
    """Differential of the embedding applied to a surface tangent."""
    assert_embeddable(profile, q.r)
    m = float(profile.m(q.r))
    m1 = float(profile.m1(q.r))
    ct, st = math.cos(q.theta), math.sin(q.theta)
    return np.array([
        m1 * ct * v.y1 - m * st * v.y2,
        m1 * st * v.y1 + m * ct * v.y2,
        height_slope(profile, q.r) * v.y1,
    ])


def _inside_margin(mu: float, x: float, y: float, z: float) -> float:
    """cylinder_margin of the point (x, y, z), which must lie inside the
    cylinder."""
    lam = 1.0 - mu * mu * (x**2 + y**2)
    if lam <= 0.0:
        raise InvalidParameterError(
            f"point ({x}, {y}, {z}) lies outside the cylinder x^2 + y^2 < 1/mu^2")
    return lam


def minkowski_coefficients(mu: float, point: MinkowskiPoint):
    """(a~, b~, lam~) of the ambient flat Randers structure at a point."""
    x, y = point.x, point.y
    lam = _inside_margin(mu, x, y, point.z)
    a = np.array([
        [1.0 - mu * mu * x * x, -mu * mu * x * y, 0.0],
        [-mu * mu * x * y, 1.0 - mu * mu * y * y, 0.0],
        [0.0, 0.0, lam],
    ]) / (lam * lam)
    b = np.array([mu * y, -mu * x, 0.0]) / lam
    return a, b, lam


def eval_F_tilde(mu: float, point: MinkowskiPoint, Y) -> float:
    """Ambient norm alpha~ + beta~ of a 3-vector at a cylinder point.

    The quadratic form of minkowski_coefficients, written out:
    alpha~^2 = (Y1^2 + Y2^2 - mu^2 (x Y1 + y Y2)^2 + lam~ Y3^2) / lam~^2 and
    beta~ = mu (y Y1 - x Y2) / lam~.  A non-finite mu or entry of Y, and a
    Y that is not a 3-vector, raise InvalidParameterError.
    """
    try:
        y1, y2, y3 = map(float, Y)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"Y must be a 3-vector, got {Y!r}") from exc
    if not all(map(math.isfinite, (mu, y1, y2, y3))):
        raise InvalidParameterError(
            f"mu and Y must be finite, got mu = {mu}, Y = ({y1}, {y2}, {y3})")
    return _F_tilde(mu, point.x, point.y, point.z, y1, y2, y3)


def _F_tilde(mu: float, x: float, y: float, z: float,
             y1: float, y2: float, y3: float) -> float:
    """eval_F_tilde on finite floats: the vector (y1, y2, y3) at the point
    (x, y, z), which must be nonzero and inside the cylinder."""
    if y1 == 0.0 and y2 == 0.0 and y3 == 0.0:
        raise InvalidParameterError("F~ is undefined on the zero vector")
    lam = _inside_margin(mu, x, y, z)
    w = mu * (x * y1 + y * y2)
    alpha2 = (y1 * y1 + y2 * y2 - w * w + lam * y3 * y3) / (lam * lam)
    beta = mu * (y * y1 - x * y2) / lam
    s = math.sqrt(alpha2) + abs(beta)
    return s if beta >= 0.0 else (alpha2 - beta * beta) / s


def pullback_check(profile: Profile, q: SurfacePoint, v: Tangent,
                   height_map: str = "arclength") -> float:
    """|F(q, v) - F~(phi(q), phi_*(v))| at one sample.

    height_map "arclength" uses z(r) (the isometric embedding); "radial"
    uses z = r, whose pullback fails off the parallels and is reported for
    documentation purposes.  F~ does not depend on z, so the image point is
    taken at z = 0 and the height itself is never evaluated; only the
    vertical component of phi_*(v), z'(r) v^r, differs between the maps.

    m and m' are evaluated once each, at q.r, and every term derives from
    them: the checks of assert_embeddable, then F as eval_F computes it,
    then F~ as eval_F_tilde computes it, in that order.
    """
    if height_map not in ("arclength", "radial"):
        raise InvalidParameterError(f"unknown height map {height_map!r}")
    m1 = _embeddable_m1(profile, q.r)
    if v.is_zero():
        raise InvalidParameterError("F is undefined on the zero tangent vector")
    m = float(profile.m(q.r))
    F_surface = F_from_warp(profile.mu, m, q.r, v)
    ct, st = math.cos(q.theta), math.sin(q.theta)
    dz = math.sqrt(max(1.0 - m1 * m1, 0.0)) if height_map == "arclength" else 1.0
    return abs(F_surface - _F_tilde(
        profile.mu, m * ct, m * st, 0.0,
        m1 * ct * v.y1 - m * st * v.y2, m1 * st * v.y1 + m * ct * v.y2, dz * v.y1))


def pullback_report(profile: Profile, seed: int = 0,
                    r_range: tuple = (0.1, 5.0)) -> dict:
    """Isometry certification by pullback_check of the arc-length embedding
    over 1000 random (point, direction) samples, their radii uniform in
    r_range = (lo, hi), 0 <= lo <= hi."""
    if not 0.0 <= r_range[0] <= r_range[1]:
        raise InvalidParameterError(f"r_range must satisfy 0 <= lo <= hi, got {r_range}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        r = float(rng.uniform(*r_range))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        scale = float(rng.uniform(0.5, 2.0))
        v = Tangent(scale * math.cos(ang), scale * math.sin(ang))
        worst = max(worst, pullback_check(profile, SurfacePoint(r, theta), v))
    return {
        "samples": 1000,
        "seed": seed,
        "mu": profile.mu,
        "profile": profile.source or {"kind": profile.kind},
        "height_map": "arclength",
        "r_range": list(r_range),
        "max_residual": worst,
    }


def export_mesh_obj(profile: Profile, filename, r_max: float) -> None:
    """Tessellate the embedded surface over [0, r_max], on 48 parallels and
    96 meridians, and write a Wavefront OBJ mesh.

    The apex is a single vertex closed by a triangle fan; quad strips are
    split into triangles with consistent outward orientation.
    """
    n_r, n_theta = 48, 96
    assert_embeddable(profile, r_max)
    rr = np.linspace(0.0, r_max, n_r + 1)[1:]
    tt = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    zz = [height(profile, float(r)) for r in rr]
    lines = ["# rotational Randers surface mesh"]
    lines.append("v 0 0 0")
    for r, z in zip(rr, zz):
        m = float(profile.m(r))
        for t in tt:
            lines.append(f"v {m * math.cos(t):.17g} {m * math.sin(t):.17g} {z:.17g}")

    def vid(i_r: int, j_t: int) -> int:
        return 2 + i_r * n_theta + (j_t % n_theta)

    # apex fan, outward normal pointing along -z at the cap
    for j in range(n_theta):
        lines.append(f"f 1 {vid(0, j + 1)} {vid(0, j)}")
    for i in range(len(rr) - 1):
        for j in range(n_theta):
            v00, v01 = vid(i, j), vid(i, j + 1)
            v10, v11 = vid(i + 1, j), vid(i + 1, j + 1)
            lines.append(f"f {v00} {v01} {v10}")
            lines.append(f"f {v01} {v11} {v10}")
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
