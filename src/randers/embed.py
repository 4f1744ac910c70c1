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
pullback_report with height="radial" documents that failure numerically
rather than hiding it.

Each certification layer costs about one eval_F call.  Embeddability and the
height are per-profile facts, computed on first use and kept on the Profile
(Profile.embeddable_radius, Profile.height_table): assert_embeddable
compares a radius with the embeddable radius, and height reads the
cumulative HeightTable plus one Gauss-Legendre rule on the last partial
panel.  eval_F_tilde evaluates the ambient quadratic form from scalars and
does not read z, so pullback_check never evaluates the height.  Radii beyond r_max raise InvalidParameterError: the profile is not
validated there.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotEmbeddableError
from .geodesics import GeodesicPath, cumulative_path_integral
from .profile import Profile, SurfacePoint, quad
from .zermelo import Tangent, eval_F

# Height table: panels of at most _HEIGHT_PANEL in r, each integrated by
# _HEIGHT_NODES-point Gauss-Legendre on its two halves.  The error targets
# are those of the adaptive quad the table replaces.
_HEIGHT_PANEL = 0.25
_HEIGHT_NODES = 10
_HEIGHT_EPSABS = 1e-10
_HEIGHT_EPSREL = 1e-12
_GL_T, _GL_W = np.polynomial.legendre.leggauss(_HEIGHT_NODES)
_GL_U, _GL_HW = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W   # the rule on [0, 1]


@dataclass(frozen=True)
class MinkowskiPoint:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def cylinder_margin(mu: float, point: MinkowskiPoint) -> float:
    """1 - mu^2 (x^2 + y^2); must be positive inside the domain."""
    return 1.0 - mu * mu * (point.x**2 + point.y**2)


def assert_embeddable(profile: Profile, r_to: float) -> None:
    """Check |m'| <= 1 on [0, r_to] against the profile's embeddable radius.

    r_to beyond r_max raises InvalidParameterError: the profile is not
    validated there.
    """
    if r_to > profile.r_max:
        raise InvalidParameterError(
            f"radius {r_to} lies beyond r_max = {profile.r_max}")
    m1 = abs(float(profile.m1(r_to)))
    if r_to > profile.embeddable_radius or m1 > 1.0 + 1e-12:
        r_e = profile.embeddable_radius
        raise NotEmbeddableError(
            f"|m'| exceeds 1 beyond r = {r_e} (|m'({r_to})| = {m1}): the "
            "surface does not embed isometrically in Euclidean 3-space over "
            "this range"
        )


def _slope(m1):
    """sqrt(1 - m'^2), clamped at 0, of an array of m' values."""
    return np.sqrt(np.maximum(1.0 - m1 * m1, 0.0))


def _gauss(profile: Profile, a, w):
    """Gauss-Legendre integral of the height slope over [a, a + w], with m'
    evaluated at all nodes in one array call; a and w are floats, or (k, 1)
    arrays for k panels at once."""
    r = a + w * _GL_U
    m1 = np.asarray(profile.m1(r.ravel()), dtype=float)
    if m1.size != r.size:  # a constant m' expression gives a scalar
        m1 = np.broadcast_to(m1, (r.size,))
    return (_slope(m1).reshape(r.shape) * w) @ _GL_HW


class HeightTable:
    """Cumulative arc-length height z over [0, embeddable radius].

    Each panel is integrated on its two halves; the whole-panel value of
    the same rule estimates the error, and a panel whose estimate exceeds
    its share of 1e-10, and 1e-12 of its value, is integrated by quad
    instead: this catches the square-root endpoint where |m'| reaches 1.
    Build one per profile through Profile.height_table.
    """

    def __init__(self, profile: Profile):
        self.profile = profile
        radius = profile.embeddable_radius
        n = max(1, math.ceil(radius / _HEIGHT_PANEL))
        edges = np.linspace(0.0, radius, n + 1)
        a, w = edges[:-1], np.diff(edges)
        whole, left, right = np.split(_gauss(
            profile, np.concatenate([a, a, a + 0.5 * w])[:, None],
            np.concatenate([w, 0.5 * w, 0.5 * w])[:, None]), 3)
        panels = left + right
        self.by_quad = (np.abs(whole - panels) > np.maximum(
            _HEIGHT_EPSABS / n, _HEIGHT_EPSREL * np.abs(panels))).tolist()
        for i in np.flatnonzero(self.by_quad):
            panels[i] = _quad_height(profile, a[i], edges[i + 1], _HEIGHT_EPSABS / n)
        self.edges = edges.tolist()
        self.z = np.concatenate([[0.0], np.cumsum(panels)]).tolist()

    def __call__(self, r: float) -> float:
        """z(r) for 0 <= r <= embeddable radius: the table at the panel edge
        below r plus the panel's rule (or quad) on [edge, r]."""
        if not 0.0 <= r <= self.edges[-1]:
            raise InvalidParameterError(
                f"radius {r} lies outside the height table [0, {self.edges[-1]}]")
        i = bisect.bisect_right(self.edges, r) - 1
        edge = self.edges[i]
        if r == edge:
            return self.z[i]
        if self.by_quad[i]:
            return self.z[i] + _quad_height(self.profile, edge, r, _HEIGHT_EPSABS)
        return self.z[i] + float(_gauss(self.profile, edge, r - edge))


def _quad_height(profile: Profile, a: float, b: float, epsabs: float) -> float:
    return float(quad(lambda t: height_slope(profile, t), a, b, epsabs=epsabs,
                      epsrel=_HEIGHT_EPSREL, limit=200, full_output=1)[0])


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


def _inside_margin(mu: float, point: MinkowskiPoint) -> float:
    """cylinder_margin of a point that must lie inside the cylinder."""
    lam = cylinder_margin(mu, point)
    if lam <= 0.0:
        raise InvalidParameterError(
            f"point ({point.x}, {point.y}, {point.z}) lies outside the "
            f"cylinder x^2 + y^2 < 1/mu^2"
        )
    return lam


def minkowski_coefficients(mu: float, point: MinkowskiPoint):
    """(a~, b~, lam~) of the ambient flat Randers structure at a point."""
    lam = _inside_margin(mu, point)
    x, y = point.x, point.y
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
    beta~ = mu (y Y1 - x Y2) / lam~.
    """
    y1, y2, y3 = np.asarray(Y, dtype=float).tolist()
    if y1 == 0.0 and y2 == 0.0 and y3 == 0.0:
        raise InvalidParameterError("F~ is undefined on the zero vector")
    lam = _inside_margin(mu, point)
    x, y = point.x, point.y
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
    built at z = 0 and the height itself is never evaluated; only the
    vertical component of phi_*(v), z'(r) v^r, differs between the maps.
    """
    F_surface = eval_F(profile, q, v)
    if height_map not in ("arclength", "radial"):
        raise InvalidParameterError(f"unknown height map {height_map!r}")
    assert_embeddable(profile, q.r)
    m = float(profile.m(q.r))
    m1 = float(profile.m1(q.r))
    ct, st = math.cos(q.theta), math.sin(q.theta)
    dz = math.sqrt(max(1.0 - m1 * m1, 0.0)) if height_map == "arclength" else 1.0
    point = MinkowskiPoint(m * ct, m * st, 0.0)
    Y = (m1 * ct * v.y1 - m * st * v.y2, m1 * st * v.y1 + m * ct * v.y2, dz * v.y1)
    return abs(F_surface - eval_F_tilde(profile.mu, point, Y))


def pullback_report(profile: Profile, n: int = 1000, seed: int = 0,
                    r_range: tuple = (0.1, 5.0),
                    height_map: str = "arclength") -> dict:
    """Batch isometry certification over random (point, direction) samples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        r = float(rng.uniform(*r_range))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        scale = float(rng.uniform(0.5, 2.0))
        v = Tangent(scale * math.cos(ang), scale * math.sin(ang))
        worst = max(worst, pullback_check(profile, SurfacePoint(r, theta), v,
                                          height_map=height_map))
    return {
        "samples": n,
        "seed": seed,
        "mu": profile.mu,
        "profile": profile.source or {"kind": profile.kind},
        "height_map": height_map,
        "r_range": list(r_range),
        "max_residual": worst,
    }


def embedded_f_length(profile: Profile, path: GeodesicPath,
                      n_gauss: int = 8) -> float:
    """Ambient F~-length of the embedded image of a path."""
    assert_embeddable(profile, float(np.max(path.states[:, 0])))

    def F_tilde(states):
        out = []
        for r, th, dr, dth in states.tolist():
            q = SurfacePoint(max(r, 0.0), th)
            out.append(eval_F_tilde(profile.mu, embed_point(profile, q),
                                    pushforward(profile, q, Tangent(dr, dth))))
        return out

    return float(cumulative_path_integral(path, F_tilde, n_gauss)[-1])


def export_mesh_obj(profile: Profile, filename, r_max: float | None = None,
                    n_r: int = 48, n_theta: int = 96) -> None:
    """Tessellate the embedded surface and write a Wavefront OBJ mesh.

    The apex is a single vertex closed by a triangle fan; quad strips are
    split into triangles with consistent outward orientation.
    """
    if r_max is None:
        r_max = profile.r_max
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


def write_pullback_report(report: dict, filename) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
