"""TwoRadiusConnectors' sweep tables, built in one geodesics.clairaut_angles
pass, against tables built one adaptive clairaut_angle per nu node."""

import functools
import math

import numpy as np
import pytest

from randers import SurfacePoint, make_custom, make_paraboloid
from randers.conjugate import cut_locus
from randers.geodesics import clairaut_angle, clairaut_angles
from randers.measure import TwoRadiusConnectors, _turning_angle

PROFILES = {
    "flat": lambda: make_custom("r", "1", "0", mu=0.04, r_max=20.0),
    "sphere": lambda: make_custom("sin(r)", "cos(r)", "-sin(r)", mu=0.2, r_max=2.8),
    "paraboloid-1": lambda: make_paraboloid(1.0),
    "paraboloid-0.5": lambda: make_paraboloid(0.5),
}

# Widely separated radii, nearly equal ones on both sides of has_direct's
# 1.3e-9 threshold at r = 1.3, and equal ones; the sphere's stay below
# pi / 2.  No pair is conjugate: test_conjugate_pair covers that case.
PAIRS = [(0.3, 1.5), (1.2, 0.2), (1.5, 0.9), (0.5, 0.7), (1.0, 1.02),
         (1.3, 1.3 + 3e-9), (1.3, 1.3 + 6e-10), (1.3, 1.3)]

DELTAS = np.linspace(0.0, math.pi, 25)[1:]

# worst |batch - adaptive| on the turning table (below); a node closer to
# delta than this has no sign that either table can vouch for
SIGN_MARGIN = 2.5e-8


def _adaptive_tables(solver):
    """The tables as they were built before: one adaptive quadrature per
    nu node, at the solver's tol."""
    p, tol = solver.profile, solver.tol
    direct = np.array([clairaut_angle(p, solver.r_lo, solver.r_hi, float(nu), tol)
                       for nu in solver.direct_nus])
    turning = np.array([_turning_angle(p, float(nu), solver.r1, solver.r2, tol)
                        for nu in solver.turning_nus])
    return direct, turning


@functools.lru_cache(maxsize=None)
def _solvers(name):
    """(batch-table solver, adaptive-table oracle) for every radius pair."""
    profile = PROFILES[name]()
    out = []
    for r1, r2 in PAIRS:
        batch = TwoRadiusConnectors(profile, r1, r2)
        oracle = TwoRadiusConnectors(profile, r1, r2)
        oracle.direct_sweeps, oracle.turning_sweeps = _adaptive_tables(oracle)
        out.append((batch, oracle))
    return out


@pytest.mark.parametrize("name", list(PROFILES))
def test_tables_match_adaptive_oracle(name):
    worst_direct = worst_turning = worst_inner = 0.0
    for batch, oracle in _solvers(name):
        # both ends of the nu grids are covered
        assert batch.turning_nus[0] == pytest.approx(1e-6 * batch.nu_max)
        assert batch.turning_nus[-1] == batch.cap
        assert batch.has_direct == (abs(batch.r1 - batch.r2) > 1e-9 * max(1.0, batch.r_hi))
        if batch.has_direct:
            assert batch.direct_nus[0] == 0.0 and batch.direct_nus[-1] == batch.cap
            worst_direct = max(worst_direct, np.abs(batch.direct_sweeps
                                                    - oracle.direct_sweeps).max())
        err = np.abs(batch.turning_sweeps - oracle.turning_sweeps)
        worst_turning = max(worst_turning, err.max())
        worst_inner = max(worst_inner, err[:-1].max())
        # the tables bracket: sweep - delta has the same sign at every node
        # (on flat r1 = r2 = 1.3 no node lies within SIGN_MARGIN of a delta)
        for delta in DELTAS:
            for mine, theirs in ((batch.turning_sweeps, oracle.turning_sweeps),
                                 (batch.direct_sweeps, oracle.direct_sweeps)):
                sure = np.abs(theirs - delta) > SIGN_MARGIN
                assert np.count_nonzero(~sure) <= 1
                np.testing.assert_array_equal(np.sign(mine - delta)[sure],
                                              np.sign(theirs - delta)[sure])
    # measured worst: 1.6e-13 direct; 2.8e-8 turning, at the cap, where the
    # short leg's pinned discriminant m(r)^2 - m(r_t)^2 loses digits; 3.2e-10
    # below the cap, mostly the oracle's own error at small nu
    assert worst_direct <= 4e-13
    assert worst_turning <= 3e-8
    assert worst_inner <= 5e-10


# The refinement is the adaptive clairaut_angle for both solvers, so their
# connectors differ only where brentq, started from slightly different
# bracket values, meets a defect of that function: on the paraboloid at
# (1.3, 1.3 + 6e-10) and nu = 0.7925367095447893 it returns 5.4e134 (the
# left half of the turning leg rounds r_t + u^2 to r_t, where the clamped
# discriminant gives 1e141 integrand values), and brentq stops at nu =
# 0.79253671067, whose sweep misses delta = pi / 24 by 8.4e-7, inside the
# 1e-6 validation.  Not strict: which brentq iterates meet the spike hangs
# on the last bits of the table values.
_SPIKE = pytest.mark.xfail(strict=False, reason="adaptive clairaut_angle spikes "
                           "to 5e134 at isolated nu near the turning cap")
CASES = [pytest.param(name, i, marks=_SPIKE) if (name, i) == ("paraboloid-1", 6)
         else (name, i) for name in PROFILES for i in range(len(PAIRS))]


@pytest.mark.parametrize("name,i", CASES)
def test_connectors_match_adaptive_oracle(name, i):
    batch, oracle = _solvers(name)[i]
    for delta in DELTAS:
        got, want = batch.connectors(float(delta)), oracle.connectors(float(delta))
        assert [c.kind for c in got] == [c.kind for c in want]
        for a, b in zip(got, want):
            assert a.nu == pytest.approx(b.nu, abs=1e-10)
            assert a.length == pytest.approx(b.length, abs=1e-9)


def test_conjugate_pair():
    # r1 = r2 = 1/mu on the paraboloid: each radius is the first conjugate
    # point of the other along the chain (c = rho + 1/(mu^2 rho)), and the
    # turning sweep meets pi only at nu = 0, to third order.  The adaptive
    # tables see the 1e-10 error of their small-nu turning legs as sign
    # changes and add turning connectors with the chain's length; the batch
    # tables see the chain alone.
    p = make_paraboloid(1.0)
    batch = TwoRadiusConnectors(p, 1.0, 1.0)
    oracle = TwoRadiusConnectors(p, 1.0, 1.0)
    oracle.direct_sweeps, oracle.turning_sweeps = _adaptive_tables(oracle)
    assert [c.kind for c in batch.connectors(math.pi)] == ["chain"]
    want = oracle.connectors(math.pi)
    assert want[0].kind == "chain"
    for c in want[1:]:
        assert c.kind == "turning" and c.nu < 1e-4
        assert c.length == pytest.approx(want[0].length, abs=1e-9)


def test_clairaut_angles_broadcasts_and_signs():
    p = make_paraboloid(1.0)
    nus = np.array([0.0, 0.2, -0.2])
    out = clairaut_angles(p, 0.5, 2.0, nus, False)
    assert out.shape == (3,) and out[0] == 0.0 and out[2] == -out[1]
    assert out[1] == pytest.approx(clairaut_angle(p, 0.5, 2.0, 0.2, 1e-12), abs=1e-13)
    # a scalar leg gives a 0-d result; flat m1 = "1" is a scalar expression
    flat = make_custom("r", "1", "0", mu=0.04, r_max=20.0)
    one = clairaut_angles(flat, 1.0, 3.0, 0.5, False)
    assert one.shape == () and float(one) == pytest.approx(
        math.acos(0.5 / 3.0) - math.acos(0.5 / 1.0), abs=1e-13)


# cut_locus(dist) at the base points of tests/test_conjugate.py, recorded with
# the adaptive tables; q = (1, 0) and c = 2 + 4.2e-10 on every surface here
_WEAK = ("r / sqrt(r^2 + 1)", "(r^2 + 1)^(-3/2)", "-3*r*(r^2+1)^(-5/2)")
RECORDED = {
    ("parab", 5.0, 13): [
        2.00000000042062, 2.2149602598628793, 2.390020036313797,
        2.5496145673209334, 2.704959966565464, 2.861600808821531,
        3.0222992987661312, 3.18834375185111, 3.3602110378674546,
        3.5379274640383547, 3.7212744727900087, 3.9099087298666095,
        4.103432715341309],
    ("parab", 3.0, 5): [
        2.00000000042062, 2.2149602598101934, 2.390020036222371,
        2.5496145671866053, 2.704959966390501],
    ("parab", 3.5, 7): [
        2.00000000042062, 2.214960259836186, 2.390020036268367,
        2.549614567255582, 2.704959966477625, 2.8616008083715863,
        3.0222992986288073],
    ("weak", 5.0, 9): [
        2.00000000042062, 2.3054917293125983, 2.5496145673209334,
        2.782900393060807, 3.0222992987661312, 3.273540285339563,
        3.5379274640383547, 3.814954861306184, 4.103432715341309],
}


@pytest.mark.parametrize("surface,s_max,n", list(RECORDED))
def test_cut_locus_matches_recorded(parab, surface, s_max, n):
    profile = parab if surface == "parab" else make_custom(*_WEAK, mu=1e-6, r_max=20.0)
    arc = cut_locus(profile, SurfacePoint(1.0, 0.0), s_export_max=s_max, n_samples=n)
    want = np.array(RECORDED[(surface, s_max, n)])
    assert arc.c == want[0]
    np.testing.assert_allclose(arc.dist, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(arc.theta, math.pi + profile.mu * want, rtol=0, atol=1e-9)
