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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import InvalidParameterError, NotEmbeddableError
from .geodesics import GeodesicPath, cumulative_path_integral
from .profile import Profile, SurfacePoint
from .zermelo import Tangent, eval_F

_EMBED_GRID = 10_000


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
    """Check |m'| <= 1 on a dense grid of [0, r_to]."""
    rr = np.linspace(0.0, r_to, _EMBED_GRID)
    m1 = np.abs(np.asarray(profile.m1(rr), dtype=float))
    bad = np.nonzero(m1 > 1.0 + 1e-12)[0]
    if bad.size:
        raise NotEmbeddableError(
            f"|m'({rr[bad[0]]})| = {m1[bad[0]]} > 1: the surface does not "
            "embed isometrically in Euclidean 3-space over this range"
        )


def height(profile: Profile, r: float) -> float:
    """Arc-length height z(r) = integral of sqrt(1 - m'(t)^2) from 0 to r."""
    if r == 0.0:
        return 0.0
    val = quad(lambda t: height_slope(profile, t), 0.0, r, epsabs=1e-10,
               epsrel=1e-12, limit=200, full_output=1)[0]
    return float(val)


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


def minkowski_coefficients(mu: float, point: MinkowskiPoint):
    """(a~, b~, lam~) of the ambient flat Randers structure at a point."""
    lam = cylinder_margin(mu, point)
    if lam <= 0.0:
        raise InvalidParameterError(
            f"point ({point.x}, {point.y}, {point.z}) lies outside the "
            f"cylinder x^2 + y^2 < 1/mu^2"
        )
    x, y = point.x, point.y
    a = np.array([
        [1.0 - mu * mu * x * x, -mu * mu * x * y, 0.0],
        [-mu * mu * x * y, 1.0 - mu * mu * y * y, 0.0],
        [0.0, 0.0, lam],
    ]) / (lam * lam)
    b = np.array([mu * y, -mu * x, 0.0]) / lam
    return a, b, lam


def eval_F_tilde(mu: float, point: MinkowskiPoint, Y) -> float:
    """Ambient norm alpha~ + beta~ of a 3-vector at a cylinder point."""
    Y = np.asarray(Y, dtype=float)
    if not np.any(Y):
        raise InvalidParameterError("F~ is undefined on the zero vector")
    a, b, _ = minkowski_coefficients(mu, point)
    alpha2 = float(Y @ a @ Y)
    alpha = math.sqrt(alpha2)
    beta = float(b @ Y)
    if beta >= 0.0:
        return alpha + beta
    return (alpha2 - beta * beta) / (alpha - beta)


def pullback_check(profile: Profile, q: SurfacePoint, v: Tangent,
                   height_map: str = "arclength") -> float:
    """|F(q, v) - F~(phi(q), phi_*(v))| at one sample.

    height_map "arclength" uses z(r) (the isometric embedding); "radial"
    uses z = r, whose pullback fails off the parallels and is reported for
    documentation purposes.
    """
    F_surface = eval_F(profile, q, v)
    m = float(profile.m(q.r))
    m1 = float(profile.m1(q.r))
    ct, st = math.cos(q.theta), math.sin(q.theta)
    if height_map == "arclength":
        point = embed_point(profile, q)
        Y = pushforward(profile, q, v)
    elif height_map == "radial":
        assert_embeddable(profile, q.r)
        point = MinkowskiPoint(m * ct, m * st, q.r)
        Y = np.array([m1 * ct * v.y1 - m * st * v.y2,
                      m1 * st * v.y1 + m * ct * v.y2,
                      v.y1])
    else:
        raise InvalidParameterError(f"unknown height map {height_map!r}")
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

    def F_tilde(r, th, dr, dth):
        q = SurfacePoint(max(r, 0.0), th)
        return eval_F_tilde(profile.mu, embed_point(profile, q),
                            pushforward(profile, q, Tangent(dr, dth)))

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
