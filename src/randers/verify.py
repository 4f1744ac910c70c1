"""Acceptance-style verification suite.

Each check runs one conservation law, closed-form reproduction, or
structural property of the engine at a pinned tolerance on the
paraboloid-like surface, and returns a CheckResult.  The CLI ``verify``
command prints the results as a table and sets its exit code from them; the
test suite asserts them one by one.  All randomness is drawn from a single
seeded generator so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conjugate, embed, measure
from .geodesics import (
    GeodesicState,
    f_geodesic_residual,
    integrate_F,
    integrate_h,
    quadrature_segment,
    twist,
)
from .profile import SurfacePoint, make_paraboloid, roots_on_grid
from .zermelo import Tangent, eval_F


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<="      # how value relates to threshold when passing
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy bools and floats from the checks would not serialize to JSON
        self.passed = bool(self.passed)
        self.value = float(self.value)
        self.threshold = float(self.threshold)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: value={self.value:.6g} "
                f"{self.comparison} {self.threshold:.6g}")


def _random_f_paths(rng, n=20, length=50.0, tol=1e-11):
    """Random h-geodesics on the paraboloid (mu=1) with their twists.

    Launch angles stay away from exact meridians so the Clairaut constant is
    bounded away from zero and the vertex pass stays resolvable.
    """
    profile = make_paraboloid(1.0, r_max=60.0)
    pairs = []
    for _ in range(n):
        r0 = float(rng.uniform(0.3, 3.0))
        phi = float(rng.uniform(0.15, math.pi - 0.15))
        if rng.uniform() < 0.5:
            phi = -phi
        m0 = float(profile.m(r0))
        st = GeodesicState(r0, float(rng.uniform(0.0, 2.0 * math.pi)),
                           math.cos(phi), math.sin(phi) / m0)
        h_path = integrate_h(profile, st, length, tol=tol)
        pairs.append((h_path, twist(h_path, profile.mu)))
    return profile, pairs


def check_clairaut_h(ctx) -> CheckResult:
    profile, pairs = ctx["paths"]
    worst = 0.0
    for h_path, _ in pairs:
        m2 = np.array([float(profile.m(r)) for r in h_path.states[:, 0]]) ** 2
        worst = max(worst, float(np.max(np.abs(m2 * h_path.states[:, 3]
                                               - h_path.nu))))
        worst = max(worst, h_path.max_clairaut_drift)
    return CheckResult("clairaut-conservation-h", worst <= 1e-7, worst, 1e-7,
                       details={"paths": len(pairs), "length": 50.0})


def check_clairaut_F(ctx) -> CheckResult:
    profile, pairs = ctx["paths"]
    reports = [measure.clairaut_verify(profile, fp) for _, fp in pairs]
    ctx["clairaut_reports"] = reports
    worst = max(max(r.max_F1_residual, r.max_F2_residual) for r in reports)
    return CheckResult("clairaut-relations-F", worst <= 1e-7, worst, 1e-7)


def check_momentum(ctx) -> CheckResult:
    reports = ctx["clairaut_reports"]
    worst = max(r.max_momentum_residual for r in reports)
    return CheckResult("momentum-conservation", worst <= 1e-8, worst, 1e-8)


def check_navigation_unit_speed(ctx) -> CheckResult:
    profile, pairs = ctx["paths"]
    worst = 0.0
    for _, f_path in pairs:
        for row in f_path.states:
            if row[0] <= 0:
                continue
            F = eval_F(profile, SurfacePoint(row[0], row[1]),
                       Tangent(row[2], row[3]))
            worst = max(worst, abs(F - 1.0))
    return CheckResult("navigation-unit-speed", worst <= 1e-8, worst, 1e-8)


def check_meeting_point(ctx) -> CheckResult:
    rng = ctx["rng"]
    profile = make_paraboloid(1.0)
    worst = 0.0
    for _ in range(10):
        r0 = float(rng.uniform(0.2, 5.0))
        worst = max(worst, measure.meeting_point(profile, r0).max_deviation)
    spot = measure.meeting_point(profile, 1.0 / math.sqrt(3.0))
    spot_err = abs(spot.common_length_numeric - math.pi / 2.0)
    worst = max(worst, spot_err)
    return CheckResult("meeting-point-closed-form", worst <= 1e-10, worst,
                       1e-10, details={"spot_common_length": spot.common_length})


def check_length_ordering(ctx) -> CheckResult:
    profile = make_paraboloid(1.0)
    min_margin = math.inf
    for r0 in np.linspace(0.3, 5.0, 10):
        l_plus = measure.f_length_parallel(profile, float(r0), 2.0 * math.pi)
        l_h = measure.h_length_parallel(profile, float(r0))
        l_minus = measure.f_length_parallel(profile, float(r0), -2.0 * math.pi)
        min_margin = min(min_margin, l_h - l_plus, l_minus - l_h)
    return CheckResult("parallel-length-ordering", min_margin >= 1e-6,
                       min_margin, 1e-6, comparison=">=")


def check_vertex_distance(ctx) -> CheckResult:
    rng = ctx["rng"]
    profile = make_paraboloid(1.0)
    worst = 0.0
    for _ in range(10):
        r0 = float(rng.uniform(0.5, 8.0))
        th0 = float(rng.uniform(0.0, 2.0 * math.pi))
        # twisted meridian from the vertex aimed so the twist lands on theta0
        launch = th0 - profile.mu * r0
        path = integrate_F(profile, SurfacePoint(0.0, launch), Tangent(1.0, 0.0),
                           r0)
        end = path.state_at(r0)
        miss = math.hypot(end.r - r0, float(profile.m(end.r))
                          * math.remainder(end.theta - th0, 2.0 * math.pi))
        worst = max(worst, miss)
        worst = max(worst, abs(measure.distance_F(
            profile, SurfacePoint(r0, th0), SurfacePoint(0.0, 0.0)) - r0))
    return CheckResult("vertex-distance", worst <= 1e-7, worst, 1e-7)


def check_ode_quadrature(ctx) -> CheckResult:
    rng = ctx["rng"]
    profile = make_paraboloid(1.0, r_max=60.0)
    worst = 0.0
    for _ in range(10):
        nu = float(rng.uniform(0.05, 0.65))
        length = float(rng.uniform(2.0, 8.0))
        f = lambda r: float(profile.m(r)) - nu
        rt = roots_on_grid(f, (1e-12, 59.0), (f(1e-12), f(59.0)), xtol=1e-14)[0]
        st = GeodesicState(rt, 0.0, 0.0, 1.0 / float(profile.m(rt)))
        path = integrate_h(profile, st, length, tol=1e-11)
        rb = float(path.states[-1, 0])
        dth_ode = float(path.states[-1, 1])
        dth_q, ds_q, _ = quadrature_segment(profile, rt, rb, nu, 1)
        worst = max(worst, abs(dth_q - dth_ode), abs(ds_q - length))
    return CheckResult("ode-quadrature-agreement", worst <= 1e-6, worst, 1e-6)


def check_jacobi_pole(ctx) -> CheckResult:
    profile = make_paraboloid(1.0)
    base = integrate_h(profile, GeodesicState(0.0, 0.0, 1.0, 0.0), 20.0)
    jac = conjugate.jacobi_integrate(profile, base, 0.0, 1.0, 20.0, tol=1e-12)
    warp = np.array([float(profile.m(s)) for s in jac.s])
    dev = float(np.max(np.abs(jac.y - warp)))
    cert = conjugate.certify_pole(profile, r_horizon=20.0)
    passed = dev <= 1e-9 and jac.first_zero is None and cert.certified
    return CheckResult("jacobi-pole-identity", passed, dev, 1e-9,
                       details={"tail_bound": cert.integral_lower_bound,
                                "tail_integral": cert.integral_numeric})


def check_cut_locus(ctx) -> CheckResult:
    profile = make_paraboloid(1.0)
    q = SurfacePoint(1.0, 0.0)
    c = conjugate.first_conjugate(profile, q)
    arc = conjugate.cut_locus(profile, q, s_export_max=4.0, n_samples=9)
    i_int = int(np.argmin(np.abs(arc.s - (c + 1.0))))
    y_int = arc.point_at_index(i_int)
    pos = conjugate.verify_cut_point(profile, q, y_int, tol=1e-5)
    # negative control on the twisted opposite meridian before the cut starts
    base = integrate_h(profile, GeodesicState(1.0, 0.0, -1.0, 0.0), 1.8)
    st = twist(base, profile.mu).state_at(1.5)
    neg = conjugate.verify_cut_point(profile, q, SurfacePoint(st.r, st.theta),
                                     tol=1e-5)
    gap = pos.equal_length_gap if pos.equal_length_gap is not None else math.inf
    passed = (c > q.r) and pos.verified and gap <= 1e-5 \
        and neg.n_minimizers == 1 and not neg.verified
    ctx["cut"] = {"c": c, "pos": pos, "neg": neg}
    return CheckResult("cut-locus-structure", passed, gap, 1e-5,
                       details={"c": c, "rho": q.r,
                                "interior_minimizers": pos.n_minimizers,
                                "control_minimizers": neg.n_minimizers})


def check_embedding(ctx) -> CheckResult:
    worst = 0.0
    for mu, seed in ((0.3, 101), (1.0, 102)):
        profile = make_paraboloid(mu)
        rep = embed.pullback_report(profile, n=1000, seed=seed)
        worst = max(worst, rep["max_residual"])
    # hand-derived spot values at (r=1, theta=0), mu=1
    profile = make_paraboloid(1.0)
    q = SurfacePoint(1.0, 0.0)
    spots = [
        (Tangent(1.0, 0.0), math.sqrt(2.0)),
        (Tangent(0.0, 1.0), math.sqrt(2.0) - 1.0),
    ]
    spot_err = 0.0
    for v, expected in spots:
        F = eval_F(profile, q, v)
        Ft = embed.eval_F_tilde(profile.mu, embed.embed_point(profile, q),
                                embed.pushforward(profile, q, v))
        spot_err = max(spot_err, abs(F - expected), abs(Ft - expected))
    passed = worst <= 1e-9 and spot_err <= 1e-12
    return CheckResult("embedding-isometry", passed, worst, 1e-9,
                       details={"spot_error": spot_err})


def check_non_geodesy(ctx) -> CheckResult:
    profile = make_paraboloid(1.0)
    mu = profile.mu
    # twisted meridian is an F-geodesic
    tw = twist(integrate_h(profile, GeodesicState(0.5, 0.0, 1.0, 0.0), 2.0), mu)
    res_twisted = f_geodesic_residual(profile, tw)
    # a plain meridian is not
    mer = integrate_h(profile, GeodesicState(0.5, 0.0, 1.0, 0.0), 1.0)
    res_meridian = f_geodesic_residual(profile, mer)
    # neither is a generic h-geodesic
    r0, nu = 2.0, 0.3
    m0 = float(profile.m(r0))
    sphi = nu / m0
    st = GeodesicState(r0, 0.0, math.sqrt(1.0 - sphi * sphi), sphi / m0)
    gen = integrate_h(profile, st, 1.0, tol=1e-11)
    res_generic = f_geodesic_residual(profile, gen)
    passed = res_twisted <= 1e-7 and res_meridian >= 1e-2 and res_generic >= 1e-3
    return CheckResult("twist-geodesy-separation", passed, res_twisted, 1e-7,
                       details={"meridian_residual": res_meridian,
                                "generic_residual": res_generic})


def check_loop_length_flag(ctx) -> CheckResult:
    profile = make_paraboloid(1.0)
    rep = measure.parallel_loop_report(profile, 1.0 / math.sqrt(3.0))
    ratio = rep["ratio_flow_over_constant"]
    # the two closed forms disagree by the factor 2 mu; the report must say so
    passed = (not rep["consistent"]) and abs(ratio - 2.0 * profile.mu) <= 1e-9
    ctx["loop_report"] = rep
    return CheckResult("parallel-loop-length-flag", passed, ratio,
                       2.0 * profile.mu, comparison="==",
                       details=rep)


ALL_CHECKS = [
    check_clairaut_h,
    check_clairaut_F,
    check_momentum,
    check_navigation_unit_speed,
    check_meeting_point,
    check_length_ordering,
    check_vertex_distance,
    check_ode_quadrature,
    check_jacobi_pole,
    check_cut_locus,
    check_embedding,
    check_non_geodesy,
    check_loop_length_flag,
]


def run_all(seed: int = 0, tol_ode: float = 1e-11) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    ctx: dict = {"rng": rng, "seed": seed}
    ctx["paths"] = _random_f_paths(rng, tol=tol_ode)
    return [chk(ctx) for chk in ALL_CHECKS]
