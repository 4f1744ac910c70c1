"""Acceptance gate: every check of the verification suite must pass at its
pinned tolerance.  Runs the suite once (seeded) and asserts each criterion,
printing one line per check.

Criteria covered, in suite order:
  1. Clairaut conservation along background geodesics (<= 1e-7)
  2. Both twisted Clairaut relations (<= 1e-7)
  3. Angular-momentum conservation (<= 1e-8)
  4. Unit navigation speed of twisted paths (<= 1e-8)
  5. Meeting-point closed form vs numeric solve (<= 1e-10, spot pi/2)
  6. Strict downwind < background < upwind parallel lengths (margin >= 1e-6)
  7. Vertex distance via twisted-meridian shooting (<= 1e-7)
  8. ODE vs quadrature angle/length advances (<= 1e-6)
  9. Jacobi field along a meridian from the vertex equals the warp (<= 1e-9)
 10. Cut-locus structure: conjugate parameter, equal-length pair, control
 11. Embedding isometry (<= 1e-9 batch, 1e-12 spot values)
 12. Geodesy separation of twisted vs plain curves
 13. Parallel-loop closed-form discrepancy is flagged, not reconciled
"""

import json

import numpy as np
import pytest

from randers import verify
from randers.verify import ALL_CHECKS, run_all

_EXPECTED_NAMES = [
    "clairaut-conservation-h",
    "clairaut-relations-F",
    "momentum-conservation",
    "navigation-unit-speed",
    "meeting-point-closed-form",
    "parallel-length-ordering",
    "vertex-distance",
    "ode-quadrature-agreement",
    "jacobi-pole-identity",
    "cut-locus-structure",
    "embedding-isometry",
    "twist-geodesy-separation",
    "parallel-loop-length-flag",
]


@pytest.fixture(scope="module")
def suite():
    results = run_all(seed=0)
    return {r.name: r for r in results}


def test_suite_is_complete(suite):
    assert list(suite) == _EXPECTED_NAMES
    assert len(ALL_CHECKS) == len(_EXPECTED_NAMES)


@pytest.mark.parametrize("name", _EXPECTED_NAMES)
def test_criterion(suite, name):
    res = suite[name]
    print(res.line())
    assert res.passed, res.line()


def test_cut_locus_details(suite):
    res = suite["cut-locus-structure"]
    assert res.details["c"] > res.details["rho"]
    assert res.details["interior_minimizers"] == 2
    assert res.details["control_minimizers"] == 1


def test_discrepancy_is_reported_not_fixed(suite):
    details = suite["parallel-loop-length-flag"].details
    assert details["consistent"] is False
    assert details["ratio_flow_over_constant"] == pytest.approx(2.0, rel=1e-9)
    # both closed forms are present in the report
    assert details["flow_loop_length"] > 0
    assert details["half_turn_constant"] > 0


def test_numpy_valued_checks_serialize_to_json():
    # these three checks reduce numpy arrays; `randers verify` writes their
    # results to verify.json
    rng = np.random.default_rng(0)
    ctx = {"rng": rng, "paths": verify._random_f_paths(rng)}
    for check in (verify.check_clairaut_F, verify.check_momentum,
                  verify.check_navigation_unit_speed):
        res = check(ctx)
        doc = {"name": res.name, "passed": res.passed, "value": res.value,
               "threshold": res.threshold}
        assert json.loads(json.dumps(doc)) == doc


def test_suite_is_deterministic(suite):
    rerun = run_all(seed=0)
    for rb in rerun:
        ra = suite[rb.name]
        assert ra.value == rb.value
        assert ra.passed == rb.passed
