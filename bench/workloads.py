"""The benchmark's three workloads: seeded inputs, the op each input drives,
and the oracle check of each op's answer.

Inputs are drawn per round.  A round holds a fixed count of ops from every
stratum of its workload (STRATA), so any prefix of whole rounds keeps the
stated mix.  The continuous inputs of the k-th round are the k-th point of a
randomly shifted Kronecker (R_d) sequence, the shift drawn from the seed:
rounds fill each stratum's range evenly, which keeps a run's medians close
from one seed to the next without steering any input away from a slow or
failing region.  Angles that do not change the cost are drawn i.i.d.

Every input is generated in Workload.__init__, before any op is timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import oracles
import profiles
from randers import SurfacePoint, Tangent, conjugate, embed, geodesics, measure

WORKLOADS = ("distance-pairs", "cutlocus-verify", "geodesic-embed", "cutlocus-shoot")

# The workloads BENCHMARK.json lists, whose runs must pass every oracle.
# distance_F lets near-tangent connectors fall through a gap in measure's
# connector families into the shooting fallback, which then raises or
# answers wrongly (README.md, "Defects"): distance-pairs and cutlocus-verify,
# whose verify_cut_point calls distance_F, fail on some ops at any seed.  They
# stay runnable so that those failures stay in view; cutlocus-shoot is
# cutlocus-verify with verify_cut_point's shooting scans judged by closed
# forms instead of by distance_F.
BENCHMARKED = ("cutlocus-shoot", "geodesic-embed")

# ops per round, by stratum
STRATA = {
    "distance-pairs": {"generic": 2, "near-parallel": 2, "near-antipodal": 2,
                       "flat": 2, "sphere": 2},
    "cutlocus-verify": {"mu1": 1, "mu0.5": 1},
    "cutlocus-shoot": {"mu1": 1, "mu0.5": 1},
    "geodesic-embed": {"launch": 7, "fan-meridian": 1},
}

# A run measures whole rounds for at least --seconds and at least this many
# rounds.  In distance-pairs a 10-70 s shooting-fallback op must not cut a run
# down to a handful of samples, and the heavy near-parallel tail needs a few
# hundred ops before its p90 settles; a cutlocus-verify or cutlocus-shoot run
# holds two rounds (four ops) in 50 s; a geodesic-embed run holds the 100 ops
# a p90 with ten ops beyond it needs.
MIN_ROUNDS = {"distance-pairs": 20, "cutlocus-verify": 2, "geodesic-embed": 13,
              "cutlocus-shoot": 2}

# Rounds generated up front: far more than a run at the parent commit uses,
# so a much faster engine still never runs out of fresh inputs.
MAX_ROUNDS = {"distance-pairs": 2000, "cutlocus-verify": 200, "cutlocus-shoot": 200,
              "geodesic-embed": 2000}

DISTANCE_TOL = 1e-9       # distance_F_report(tol=...), the CLI's --tol-root default
# integrator tol: at the 1e-11 that tests/test_measure.py pins with its
# F-length check, f_length misses rel 1e-9 on about one launch in 60 (the
# cubic Hermite dense output; README.md, "Defects")
GEODESIC_TOL = 1e-12
PARABOLOID_R = (0.3, 3.0)
NEAR_PARALLEL_REL = 0.02  # |r1 - r2| / r
NEAR_ANTIPODAL = 0.05     # |delta theta - pi|
FLAT_R = (0.3, 8.0)       # the radius ranges tests/test_measure.py uses
SPHERE_R = (0.2, 1.2)
CUT_RHO_MU = (0.8, 1.25)  # rho * mu: rho + 1/(mu^2 rho), which sets the shooting
                          # horizon, stays within 2.5% of its minimum 2/mu
LAUNCH_R = (0.3, 3.0)
LAUNCH_PHI = 0.15         # headings stay this far from the meridians
LENGTH = (10.0, 30.0)


@dataclass(frozen=True)
class Op:
    stratum: str
    inputs: dict
    fn: Callable[[dict], object] = field(repr=False)  # profiles by key -> result
    partner: int | None = None   # index in the round of the reflected query


def kronecker(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points of the R_d low-discrepancy sequence in [0, 1)^dims, shifted
    by a uniform random vector (Roberts 2018; Cranley-Patterson rotation)."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = (1.0 / phi) ** np.arange(1, dims + 1) % 1.0
    shift = rng.random(dims)
    return (shift + np.outer(np.arange(1, n + 1), alpha)) % 1.0


def _span(u, lo_hi):
    lo, hi = lo_hi
    return lo + (hi - lo) * u


# ---------------------------------------------------------------- ops


def _distance(key, q1, q2, surfaces):
    return measure.distance_F_report(surfaces[key], q1, q2, tol=DISTANCE_TOL)


def _cutlocus(key, q, control, surfaces):
    """What `randers cutlocus` computes, plus a negative control."""
    profile = surfaces[key]
    arc = conjugate.cut_locus(profile, q)
    i = max(int(np.argmin(np.abs(arc.s - (arc.c + 1.0)))), 1)
    pos = conjugate.verify_cut_point(profile, q, arc.point_at_index(i))
    neg = conjugate.verify_cut_point(profile, q, control)
    return arc, pos, neg


def _cutlocus_shoot(key, q, control, surfaces):
    """`randers cutlocus`'s arc, then the shooting scans verify_cut_point
    runs at the same two points, without its closing distance_F call.
    Returns the arc, the index of the interior point and the sorted segment
    lengths found at each point."""
    profile = surfaces[key]
    arc = conjugate.cut_locus(profile, q)
    i = max(int(np.argmin(np.abs(arc.s - (arc.c + 1.0)))), 1)
    return arc, i, _scan(profile, q, arc.point_at_index(i)), _scan(profile, q, control)


def _scan(profile, q, target):
    """verify_cut_point's fan of twisted geodesics, with its defaults."""
    hits = measure.shoot_hits(profile, q, target.r, target.theta,
                              np.linspace(-math.pi, math.pi, 721),
                              1.05 * (q.r + target.r) + 0.5, twist_mu=profile.mu,
                              tol=3e-7, refine_tol=1e-10)
    return sorted(length for _, length in hits)


def _geodesic(key, q, yF, length, surfaces, tol=GEODESIC_TOL):
    """What `randers geodesic --embed` computes, with the pullback
    certified at every sample."""
    profile = surfaces[key]
    path = geodesics.integrate_F(profile, q, yF, length, tol=tol)
    report = measure.clairaut_verify(profile, path)
    f_len = measure.f_length(profile, path)
    pullback = max(
        embed.pullback_check(profile, SurfacePoint(max(r, 0.0), th),
                             Tangent(dr, dth))
        for r, th, dr, dth in path.states)
    return path, report, f_len, pullback


# ---------------------------------------------------------------- workloads


class Workload:
    """Seeded inputs of one workload, served round by round."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.max_rounds = MAX_ROUNDS[name]
        self.min_rounds = MIN_ROUNDS[name]
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self._rounds = getattr(self, "_gen_" + name.replace("-", "_"))(rng)

    def round(self, k: int) -> list[Op]:
        return self._rounds[k]

    def check(self, ops: list[Op], results: list) -> list[list[str]]:
        """Oracle misses of each op of a round, as reasons; [] means passed.
        results[i] is None where op i raised."""
        checker = getattr(self, "_check_" + self.name.replace("-", "_"))
        return [[] if res is None else checker(op, res, ops, results)
                for op, res in zip(ops, results)]

    # -- distance-pairs

    def _gen_distance_pairs(self, rng):
        n = self.max_rounds
        gen = kronecker(rng, n, 3)
        par = kronecker(rng, n, 3)
        anti = kronecker(rng, n, 3)
        flat = kronecker(rng, 2 * n, 3)
        sph = kronecker(rng, 2 * n, 3)
        base = rng.uniform(0.0, 2.0 * math.pi, size=(n, 7))
        rounds = []
        for k in range(n):
            pairs = []
            u = gen[k]
            pairs.append(("generic", _span(u[0], PARABOLOID_R),
                          _span(u[1], PARABOLOID_R), _span(u[2], (-math.pi, math.pi))))
            u = par[k]
            r = _span(u[0], PARABOLOID_R)
            pairs.append(("near-parallel", r,
                          r * (1.0 + _span(u[1], (-NEAR_PARALLEL_REL, NEAR_PARALLEL_REL))),
                          _span(u[2], (-math.pi, math.pi))))
            u = anti[k]
            pairs.append(("near-antipodal", _span(u[0], PARABOLOID_R),
                          _span(u[1], PARABOLOID_R),
                          math.pi + _span(u[2], (-NEAR_ANTIPODAL, NEAR_ANTIPODAL))))
            ops = []
            for j, (stratum, r1, r2, delta) in enumerate(pairs):
                th1 = float(base[k, j])
                q1, q2 = SurfacePoint(float(r1), th1), SurfacePoint(float(r2), th1 + float(delta))
                # reflection sigma(r, theta) = (r, -theta) swaps the wind's
                # sense, so d(q1, q2) = d(sigma q2, sigma q1)
                s2, s1 = SurfacePoint(q2.r, -q2.theta), SurfacePoint(q1.r, -q1.theta)
                i = len(ops)
                ops.append(Op(stratum, _pair_inputs(q1, q2),
                              partial(_distance, "paraboloid", q1, q2), partner=i + 1))
                ops.append(Op(stratum, _pair_inputs(s2, s1),
                              partial(_distance, "paraboloid", s2, s1), partner=i))
            for j in range(2):
                for stratum, pts, radii, col in (("flat", flat, FLAT_R, 3),
                                                 ("sphere", sph, SPHERE_R, 5)):
                    u = pts[2 * k + j]
                    th1 = float(base[k, col + j])
                    q1 = SurfacePoint(float(_span(u[0], radii)), th1)
                    q2 = SurfacePoint(float(_span(u[1], radii)),
                                      th1 + float(_span(u[2], (-math.pi, math.pi))))
                    ops.append(Op(stratum, _pair_inputs(q1, q2),
                                  partial(_distance, stratum, q1, q2)))
            rounds.append(ops)
        return rounds

    def _check_distance_pairs(self, op, rep, ops, results):
        reasons = []
        d = rep.distance
        (r1, t1), (r2, t2) = op.inputs["q1"], op.inputs["q2"]
        if not (rep.converged and math.isfinite(d) and d > 0.0):
            reasons.append(f"root search did not converge (d = {d!r})")
        if op.partner is None:
            exact_fn = oracles.flat_distance if op.stratum == "flat" else oracles.sphere_distance
            mu = profiles.FLAT["mu"] if op.stratum == "flat" else profiles.SPHERE["mu"]
            exact = exact_fn(r1, t1, r2, t2, mu)
            if abs(d - exact) > oracles.DISTANCE_TOL:
                reasons.append(f"closed form: |d - exact| = {abs(d - exact):.3g} > "
                               f"{oracles.DISTANCE_TOL:g} (d = {d!r}, exact = {exact!r})")
            return reasons
        if d > r1 + r2:
            reasons.append(f"through-vertex bound: d = {d!r} > r1 + r2 = {r1 + r2!r}")
        other = results[op.partner]
        if other is None:
            reasons.append("reflection: the reflected query raised, so d is unchecked")
        elif abs(d - other.distance) > oracles.REFLECTION_TOL:
            reasons.append(f"reflection: |d(q1,q2) - d(s q2, s q1)| = "
                           f"{abs(d - other.distance):.3g} > {oracles.REFLECTION_TOL:g} "
                           f"(d = {d!r}, reflected = {other.distance!r})")
        return reasons

    # -- cutlocus-verify

    def _gen_cutlocus_verify(self, rng, op_fn=_cutlocus):
        n = self.max_rounds
        rhos = kronecker(rng, n, 2)
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
        rounds = []
        for k in range(n):
            ops = []
            for j, (key, mu) in enumerate((("mu1", 1.0), ("mu0.5", 0.5))):
                rho = float(_span(rhos[k, j], CUT_RHO_MU)) / mu
                theta = float(thetas[k, j])
                c = oracles.conjugate_parameter(rho, mu)
                # control: halfway between the vertex pass and the conjugate point
                r_ctl, th_ctl = oracles.twisted_opposite_meridian(rho, theta, mu, 0.5 * (rho + c))
                q, control = SurfacePoint(rho, theta), SurfacePoint(r_ctl, th_ctl)
                inputs = {"mu": mu, "q": [rho, theta], "control": [r_ctl, th_ctl],
                          "s_control": 0.5 * (rho + c)}
                ops.append(Op(key, inputs, partial(op_fn, key, q, control)))
            rounds.append(ops)
        return rounds

    def _check_cutlocus_verify(self, op, res, ops, results):
        arc, pos, neg = res
        reasons = _arc_reasons(op, arc)
        if not (pos.verified and pos.n_minimizers == 2):
            reasons.append(f"interior cut point: verified = {pos.verified}, "
                           f"minimizers = {pos.n_minimizers} ({pos.reason})")
        if neg.verified or neg.n_minimizers != 1:
            reasons.append(f"control point: verified = {neg.verified}, "
                           f"minimizers = {neg.n_minimizers}")
        return reasons

    # -- cutlocus-shoot

    def _gen_cutlocus_shoot(self, rng):
        return self._gen_cutlocus_verify(rng, _cutlocus_shoot)

    def _check_cutlocus_shoot(self, op, res, ops, results):
        """verify_cut_point's verdicts on the scanned segment lengths, with
        the distance it takes from distance_F replaced: at the interior point
        by the arc's own distance, at the control by the chain length, which
        is exact there because the chain minimizes before c."""
        arc, i, pos, neg = res
        tol = oracles.CUT_POINT_TOL
        reasons = _arc_reasons(op, arc)
        d = float(arc.dist[i])
        n_min = sum(length <= d + tol for length in pos)
        if not (len(pos) >= 2 and pos[1] - pos[0] <= tol and n_min == 2):
            reasons.append(f"interior cut point: segments {pos[:3]}, arc distance {d!r}, "
                           f"minimizers = {n_min}")
        if not d < arc.s[i]:
            reasons.append(f"interior cut point: arc distance {d!r} is not below the "
                           f"chain length {arc.s[i]!r}")
        s_ctl = op.inputs["s_control"]
        n_min = sum(length <= s_ctl + tol for length in neg)
        if not (neg and abs(neg[0] - s_ctl) <= tol and n_min == 1):
            reasons.append(f"control point: segments {neg[:3]}, chain length {s_ctl!r}, "
                           f"minimizers = {n_min}")
        return reasons

    # -- geodesic-embed

    def _gen_geodesic_embed(self, rng):
        n = self.max_rounds
        n_launch = STRATA["geodesic-embed"]["launch"]
        mu = 1.0
        launch = kronecker(rng, n * n_launch, 3)
        fan = kronecker(rng, n, 1)
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=n * n_launch)
        rounds = []
        for k in range(n):
            ops = []
            for j in range(k * n_launch, (k + 1) * n_launch):
                r0 = float(_span(launch[j, 0], LAUNCH_R))
                side = 1.0 if launch[j, 1] < 0.5 else -1.0
                phi = side * float(_span(2.0 * launch[j, 1] % 1.0,
                                         (LAUNCH_PHI, math.pi - LAUNCH_PHI)))
                # h-unit launch at angle phi from the meridian, scaled to F-unit
                y1, y2 = math.cos(phi), math.sin(phi) / oracles.paraboloid_m(r0, mu)
                F0 = oracles.paraboloid_F(r0, y1, y2, mu)
                q, yF = SurfacePoint(r0, float(thetas[j])), Tangent(y1 / F0, y2 / F0)
                length = float(_span(launch[j, 2], LENGTH))
                ops.append(Op("launch", {"q": [q.r, q.theta], "phi": phi, "length": length},
                              partial(_geodesic, "paraboloid60", q, yF, length)))
            # `randers geodesic --fan` spaces its twisted meridians by pi/4
            q = SurfacePoint(0.0, (k % 8) * math.pi / 4.0)
            length = float(_span(fan[k, 0], LENGTH))
            ops.append(Op("fan-meridian", {"q": [q.r, q.theta], "length": length},
                          partial(_geodesic, "paraboloid60", q, Tangent(1.0, 0.0), length)))
            rounds.append(ops)
        return rounds

    def _check_geodesic_embed(self, op, res, ops, results):
        path, report, f_len, pullback = res
        length = op.inputs["length"]
        reasons = []
        if path.exit_reason != "completed" or abs(path.length - length) > 1e-12 * length:
            reasons.append(f"path stopped early: {path.exit_reason} at s = {path.length!r}")
        clairaut = max(report.max_h_residual, report.max_F1_residual, report.max_F2_residual)
        if clairaut > oracles.CLAIRAUT_TOL:
            reasons.append(f"clairaut_verify residual {clairaut:.3g} > {oracles.CLAIRAUT_TOL:g}")
        if report.max_momentum_residual > oracles.MOMENTUM_TOL:
            reasons.append(f"clairaut_verify momentum residual "
                           f"{report.max_momentum_residual:.3g} > {oracles.MOMENTUM_TOL:g}")
        if abs(f_len - length) > oracles.F_LENGTH_RTOL * length:
            reasons.append(f"f_length: rel error {abs(f_len - length) / length:.3g} "
                           f"> {oracles.F_LENGTH_RTOL:g}")
        if pullback > oracles.PULLBACK_TOL:
            reasons.append(f"pullback residual {pullback:.3g} > {oracles.PULLBACK_TOL:g}")
        own = oracles.geodesic_residuals(path.h_preimage.states, path.states, path.nu, path.mu)
        for key, tol in (("clairaut_h", oracles.CLAIRAUT_TOL),
                         ("momentum", oracles.MOMENTUM_TOL),
                         ("embedded_unit_speed", oracles.UNIT_SPEED_TOL)):
            if own[key] > tol:
                reasons.append(f"closed-form {key} residual {own[key]:.3g} > {tol:g}")
        return reasons


def _arc_reasons(op, arc) -> list[str]:
    """Oracle misses of a cut arc: its conjugate parameter and its start."""
    mu, (rho, _) = op.inputs["mu"], op.inputs["q"]
    c = oracles.conjugate_parameter(rho, mu)
    reasons = []
    if abs(arc.c - c) > oracles.CONJUGATE_TOL:
        reasons.append(f"conjugate parameter: |c - (rho + 1/(mu^2 rho))| = "
                       f"{abs(arc.c - c):.3g} > {oracles.CONJUGATE_TOL:g}")
    if abs(arc.dist[0] - arc.c) > oracles.ARC_START_TOL:
        reasons.append(f"arc start: |dist[0] - c| = {abs(arc.dist[0] - arc.c):.3g} "
                       f"> {oracles.ARC_START_TOL:g}")
    return reasons


def _pair_inputs(q1, q2) -> dict:
    return {"q1": [q1.r, q1.theta], "q2": [q2.r, q2.theta]}
