"""Importing randers loads no scipy module, and neither does any engine
path: the CLI's geodesic, distance and cutlocus commands, certify_pole, a
height read in a panel the table halves, and the acceptance suite.
Importing scipy takes longer than most of those runs.  profile.quad, which
imports it on first call, stays only as a name the benchmark's tracer
wraps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from randers.profile import quad

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import math, sys
import numpy as np
import profiles
from randers import SurfacePoint, Tangent, conjugate, embed, eval_F, geodesics, measure, verify
from randers import make_custom

surfaces = {}
for workload in ("distance-pairs", "cutlocus-verify", "cutlocus-shoot", "geodesic-embed"):
    surfaces.update(profiles.build(workload))
p = surfaces["mu1"]
q = SurfacePoint(1.0, 0.0)
arc = conjugate.cut_locus(p, q, n_samples=8)
y = arc.point_at_index(3)
measure.shoot_hits(p, q, y.r, y.theta, np.linspace(-math.pi, math.pi, 91),
                   1.05 * (q.r + y.r) + 0.5, twist_mu=p.mu, tol=3e-7, refine_tol=1e-10)
measure.distance_F(surfaces["paraboloid"], SurfacePoint(1.0, 0.0), SurfacePoint(1.0, 1.0))
p60 = surfaces["paraboloid60"]
q60, u = SurfacePoint(2.0, 0.3), Tangent(0.3, 0.2)
F0 = eval_F(p60, q60, u)
path = geodesics.integrate_F(p60, q60, Tangent(u.y1 / F0, u.y2 / F0), 5.0)
measure.f_length(p60, path)
measure.clairaut_verify(p60, path)
embed.pullback_check(p60, q60, u)
conjugate.certify_pole(p60)
bump = make_custom("r - r^5/20", "1 - r^4/4", "-r^3", mu=0.5, r_max=1.8)
i = bump.height_table.refined.index(True)
embed.height(bump, 0.5 * (bump.height_table.edges[i] + bump.height_table.edges[i + 1]))
assert all(check.passed for check in verify.run_all())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _last_line(script):
    """The last line a fresh interpreter prints running script, with the
    checkout's src/ and bench/ on its path."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_engine_paths_load_no_scipy():
    assert _last_line(SCRIPT) == "[]"


def test_import_compiles_no_integrator_step():
    # odesolve generates integrate's float step per state dimension on its
    # first call, so that importing randers builds none
    assert _last_line("import randers; from randers.odesolve import _float_step; "
                      "print(_float_step.cache_info().currsize)") == "0"


def test_quad_is_scipy_quad():
    from scipy.integrate import quad as scipy_quad

    f = lambda x: math.exp(-x * x)
    assert quad(f, 0.0, 2.0, epsabs=1e-13) == scipy_quad(f, 0.0, 2.0, epsabs=1e-13)
    assert quad(f, 0.0, 2.0)[0] == pytest.approx(0.5 * math.sqrt(math.pi) * math.erf(2.0))
