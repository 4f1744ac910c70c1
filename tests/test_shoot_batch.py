"""The batched heading scan of shoot_hits against per-ray integration."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from randers import SurfacePoint, make_paraboloid, odesolve
from randers.errors import InvalidParameterError, NumericalBlowupError, VertexSingularError
from randers.geodesics import GeodesicState, integrate_h, level_crossings_batch
from randers.measure import shoot_hits
from randers.profile import wrap_angle

SCAN_TOL = 3e-7

# verify_cut_point's two targets in test_conjugate.py, seen from q = (1, 0)
# on make_paraboloid(1.0): an interior cut point (reached by three
# segments, the two shortest of equal length) and a point on the twisted
# meridian chain (one segment).
Q = SurfacePoint(1.0, 0.0)
CUT_POINT = (2.0000000001402065, 5.846552620067419)
CONTROL = (0.5, 4.641592653589793)
# (heading, length) of the segments from Q to each target.  At the cut point
# they come from an oracle independent of the engine: scipy's DOP853 at
# rtol = atol = 1e-14, its crossing of the target radius refined by brentq
# on its dense output, and brentq on the heading to zero the twisted angle
# miss (to 1e-15); the two mirror segments agree in length to 7e-12.  The
# control is reached only along the twisted meridian chain.
REFERENCE_HITS = {
    CUT_POINT: [(-2.8206260614980407, 3.0368551466436093),
                (-1.7050104814157905, 2.7049599664856263),
                (1.7050104814120584, 2.704959966479033)],
    CONTROL: [(-3.141592653589793, 1.5)],
}


def _fan(profile, q, headings):
    m = float(profile.m(q.r))
    return np.column_stack([np.full(headings.size, q.r), np.full(headings.size, q.theta),
                            np.cos(headings), np.sin(headings) / m])


def _oracle(profile, q, chi, horizon, r_level):
    """Crossings of one ray, integrated on its own: samples on the level,
    and sign changes of r - r_level between samples refined by brentq on the
    dense output."""
    st = GeodesicState(q.r, q.theta, math.cos(chi), math.sin(chi) / float(profile.m(q.r)))
    try:
        path = integrate_h(profile, st, horizon, tol=SCAN_TOL)
    except NumericalBlowupError:
        return "blowup", []
    g = path.states[:, 0] - r_level
    roots = list(path.s[g == 0.0])
    for i in np.flatnonzero(g[:-1] * g[1:] < 0.0):
        roots.append(brentq(lambda x: path.dense(x)[0] - r_level, path.s[i],
                            path.s[i + 1], xtol=1e-13))
    return path.exit_reason, [(s, float(path.dense(s)[1])) for s in sorted(roots)]


@pytest.mark.parametrize("r_level", [2.0, 0.5, 1.0])
def test_batch_fan_matches_per_ray_oracle(r_level):
    # r_max = 2.5 makes most rays leave the domain within the horizon; the
    # last heading is a near-meridian ray that reaches the blow-up floor.
    # At r_level = 1.0 every ray starts on the level.
    profile = make_paraboloid(1.0, r_max=2.5)
    q = SurfacePoint(1.0, 0.3)
    horizon = 6.0
    headings = np.concatenate([np.linspace(-math.pi, math.pi, 49), [math.pi - 1e-10]])
    batch = level_crossings_batch(profile, _fan(profile, q, headings), horizon,
                                  r_level, SCAN_TOL)
    seen = set()
    for chi, (s_c, y_c) in zip(headings, batch):
        why, expected = _oracle(profile, q, chi, horizon, r_level)
        if abs(math.sin(chi)) < 1e-11:
            why = "meridian"
        elif why == "domain-exit" and expected:
            why = "exit-with-crossings"
        seen.add(why)
        assert len(s_c) == len(expected), (chi, why)
        for s, (s_ref, th_ref) in zip(s_c, expected):
            assert s == pytest.approx(s_ref, abs=1e-6)
        np.testing.assert_allclose(y_c[:, 1], [th for _, th in expected], atol=1e-6)
        np.testing.assert_allclose(y_c[:, 0], r_level, atol=1e-9)
    assert {"meridian", "blowup", "exit-with-crossings"} <= seen


def _spy(monkeypatch, name, log):
    """Log every solution odesolve.<name> returns."""
    real = getattr(odesolve, name)

    def spy(*args, **kwargs):
        log.append(real(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(odesolve, name, spy)


@pytest.mark.parametrize("r_max,q,headings,horizon,r_level,steps", [
    # the oracle test's fan, every ray starting on the level: meridians,
    # rays past the vertex, domain exits and a blow-up
    (2.5, SurfacePoint(1.0, 0.3),
     np.concatenate([np.linspace(-math.pi, math.pi, 49), [math.pi - 1e-10]]), 6.0, 1.0,
     None),
    (20.0, SurfacePoint(1.146, 2.86), np.linspace(-math.pi, math.pi, 97), 3.0, 1.8,
     (1473, 242)),
])
def test_fan_rows_do_not_depend_on_each_other(monkeypatch, r_max, q, headings, horizon,
                                              r_level, steps):
    """Each row of a fan is integrated and refined on its own: the whole fan
    gives the crossings of one-row calls bit for bit, and its rows take
    exactly integrate_h's steps and rejections."""
    profile = make_paraboloid(1.0, r_max=r_max)
    fan = _fan(profile, q, headings)
    batches, rays = [], []
    _spy(monkeypatch, "integrate_batch", batches)
    whole = level_crossings_batch(profile, fan, horizon, r_level, SCAN_TOL)
    for row, (s_c, y_c) in zip(fan, whole):
        s_1, y_1 = level_crossings_batch(profile, row[None], horizon, r_level, SCAN_TOL)[0]
        assert np.array_equal(s_c, s_1) and np.array_equal(y_c, y_1)
    _spy(monkeypatch, "integrate", rays)
    for row in fan:
        try:
            integrate_h(profile, GeodesicState(*row), horizon, tol=SCAN_TOL)
        except NumericalBlowupError:
            pass
    counts = (batches[0].nsteps, batches[0].nrejected)
    assert counts == (sum(r.nsteps for r in rays), sum(r.nrejected for r in rays))
    if steps is not None:
        assert counts == steps


@pytest.mark.parametrize("target", [CUT_POINT, CONTROL])
def test_shoot_hits_matches_reference(parab, target):
    hits = shoot_hits(parab, Q, target[0], target[1], np.linspace(-math.pi, math.pi, 361),
                      1.05 * (Q.r + target[0]) + 0.5, twist_mu=parab.mu, tol=SCAN_TOL,
                      refine_tol=1e-10)
    expected = REFERENCE_HITS[target]
    assert len(hits) == len(expected)
    for (chi, s), (chi_ref, s_ref) in zip(hits, expected):
        assert abs(wrap_angle(chi - chi_ref)) <= 1e-9
        assert s == pytest.approx(s_ref, abs=1e-9)


@pytest.mark.parametrize("target", [CUT_POINT, CONTROL])
def test_dropped_brackets_straddle_the_wrap(parab, target):
    """shoot_hits skips heading brackets whose miss exceeds 2.5 rad.  On both
    scans every skipped bracket moves the miss by a small step that does
    not pass through zero: a sign change there is the wrap at +-pi."""
    headings = np.linspace(-math.pi, math.pi, 361)
    scan = level_crossings_batch(parab, _fan(parab, Q, headings),
                                 1.05 * (Q.r + target[0]) + 0.5, target[0], SCAN_TOL)
    miss = [[wrap_angle(y[1] + parab.mu * s - target[1]) for s, y in zip(s_c, y_c)]
            for s_c, y_c in scan]
    dropped = straddles = 0
    for ca, cb in zip(miss, miss[1:]):
        for ga, gb in zip(ca, cb):
            if abs(ga) <= 2.5 and abs(gb) <= 2.5:
                continue
            dropped += 1
            step = wrap_angle(gb - ga)
            assert abs(step) < 0.5        # the heading grid resolves the miss
            assert ga * (ga + step) > 0.0  # ... and the miss keeps its sign
            straddles += ga * gb < 0.0
    assert dropped > 0 and straddles > 0


def test_fan_input_checks(parab):
    with pytest.raises(VertexSingularError):
        shoot_hits(parab, SurfacePoint(0.0, 0.0), 1.0, 0.0, [0.0, 1.0], 3.0)
    with pytest.raises(VertexSingularError):
        level_crossings_batch(parab, [[0.0, 0.0, 1.0, 0.5]], 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        level_crossings_batch(parab, [[1.0, 0.0, 1.0, 0.0]], 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        level_crossings_batch(parab, [[1.0, 0.0, 1.0, 1.0]], 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        level_crossings_batch(parab, [[1.0, 0.0, float("nan"), 0.0]], 3.0, 1.0)
